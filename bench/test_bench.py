"""Self-tests of the benchmark: ``python3 -m pytest bench/test_bench.py``.

They run the benchmark itself at its shortest length (one pass per phase),
so the whole file takes a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import workloads  # noqa: E402
from reference import literal_pair_sum, sum_error  # noqa: E402
from spans import LAYERS  # noqa: E402

from brlab import decomposition, grid  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@lru_cache(maxsize=None)
def _run(workload: str, seed: int, trace: int, tag: str = "") -> tuple[dict, dict]:
    """Final JSON line and full report of one shortest benchmark run.

    Results are cached per argument tuple; a distinct ``tag`` runs it again.
    """
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, check=True,
    )
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    report = json.loads((ROOT / ".bench_out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return summary, report


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_run_reports_every_layer_metric(workload):
    summary, report = _run(workload, 5, 1)
    assert summary["correct"], report["failures"]
    metrics = summary["metrics"]
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        name: metric["unit"] for name, metric in metrics.items()
    }
    moved = workloads.WORKLOADS[workload].MOVES
    assert [name for name in moved if metrics[name]["value"] <= 0] == []
    layer_self = sum(metrics[f"layer.{layer}.self_s"]["value"] for layer in LAYERS)
    assert layer_self <= np.mean(report["traced_pass_s"])
    assert (ROOT / report["spans_file"]).is_file()


def test_work_counts_repeat_for_one_seed():
    first, _ = _run("decay_tj_1d", 5, 1)
    again, _ = _run("decay_tj_1d", 5, 1, tag="again")
    for name in ("operators.pair_apply.calls", "decomposition.weight.calls", "norms.ratio.calls",
                 "grid.field.allocs", "grid.dft.calls"):
        assert first["metrics"][name]["value"] == again["metrics"][name]["value"], name


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_two_seeds_give_different_inputs_and_both_pass(workload):
    scratch = ROOT / ".bench_out" / "test-scratch"
    make = workloads.WORKLOADS[workload]
    assert make(1, scratch).inputs_digest() != make(2, scratch).inputs_digest()
    for seed in (1, 2):
        summary, report = _run(workload, seed, 0)
        assert summary["correct"], report["failures"]
        assert [m["name"] for m in SPEC["end_to_end"]] == list(summary["metrics"])
        assert all(m["value"] > 0 for m in summary["metrics"].values())


def test_literal_reference_matches_and_detects_a_wrong_weight():
    g1 = grid.Grid(1, 64, 16.0)
    rng = np.random.default_rng(0)
    f, g = (grid.SampledField(g1, rng.standard_normal(64) + 1j * rng.standard_normal(64))
            for _ in range(2))
    bump = decomposition.make_bump()
    piece = decomposition.DyadicPiece(2, 2.0)
    out = decomposition.t_j_apply(f, g, piece, bump).values

    def weight(j):
        return lambda a, b: decomposition.phi_j_alpha(a, b, decomposition.DyadicPiece(j, 2.0), bump)

    assert sum_error(out, *literal_pair_sum(f.values, g.values, g1.L, weight(2))) < 1e-13
    assert sum_error(out, *literal_pair_sum(f.values, g.values, g1.L, weight(3))) > 1e-4


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".bench_out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        done = subprocess.run(
            [sys.executable, *SPEC["command"][1:], "--workload", "cli_oneshot", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
