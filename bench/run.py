#!/usr/bin/env python3
"""brlab benchmark: run one workload for one seed and print its metrics.

    python3 bench/run.py --workload decay_tj_1d --seed 1 --seconds 40 --trace 0

Run it from anywhere inside a checkout that has ``src/brlab``; nothing needs
installing.  Workloads (see bench/README.md): decay_tj_1d, kernel_identity,
cli_oneshot.  Every workload process is a fresh interpreter with BLAS and
OpenMP pinned to one thread, and workload processes run one at a time.

``--trace 0`` prints the end-to-end metrics: ``wall_s`` (median seconds per
pass), ``setup_s`` (median of five fresh-interpreter set-ups), ``peak_rss_mb``
and ``err_over_tol``; ``fail_rate`` is ``failed / attempted``.  ``--trace 1``
runs half the budget untraced and half with every ``brlab`` binding wrapped in
a span, prints the per-layer metrics, and writes the spans to
``.bench_out/<workload>-seed<seed>-spans.csv.gz``.  The full report, with the
recorded environment and any failures, goes to
``.bench_out/<workload>-seed<seed>-trace<t>.json``.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import ROOT, THREAD_VARS

HERE = Path(__file__).resolve().parent
WORKLOADS = ("decay_tj_1d", "kernel_identity", "cli_oneshot")
#: fresh-interpreter set-ups per untraced run, besides the measured run's own;
#: the median absorbs the one that compiles bytecode in a fresh checkout
SETUP_PROBES = 4
#: every process of one run must have ended by then
RUN_LIMIT_S = 170.0


def _env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(args, extra: list[str], deadline: float) -> dict:
    """Run one worker process to completion and return its report."""
    result = ROOT / ".bench_out" / f"worker-{os.getpid()}.json"
    result.unlink(missing_ok=True)
    t0 = time.monotonic()
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
        "--result", str(result), "--t0", repr(t0), *extra,
    ]
    # run() kills the worker on timeout and waits for it before raising
    subprocess.run(
        command, env=_env(), cwd=ROOT, stdout=sys.stderr, check=True,
        timeout=max(1.0, deadline - t0),
    )
    try:
        return json.loads(result.read_text())
    finally:
        result.unlink(missing_ok=True)


def _finite(value: float) -> float:
    return value if math.isfinite(value) else sys.float_info.max


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "brlab" / "__init__.py").is_file():
        print(f"bench: no src/brlab package under {ROOT}; run inside a brlab checkout", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        setups = []
        if args.trace == 0:
            setups = [_spawn(args, ["--probe"], deadline)["setup_s"] for _ in range(SETUP_PROBES)]
        report = _spawn(args, [], deadline)
    except (subprocess.SubprocessError, OSError, ValueError) as err:
        print(f"bench: workload process failed: {err}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in report.get("per_layer", {}).items()}
    else:
        setups.append(report["setup_s"])
        report["setup_probes_s"] = setups
        metrics = {
            "wall_s": {"value": statistics.median(report["pass_s"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
            "err_over_tol": {"value": _finite(report["err_over_tol"]), "unit": "ratio"},
        }
    attempted, failed = report["attempted"], report["failed"]
    report["fail_rate"] = failed / attempted
    report["metrics"] = metrics
    out = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")

    print(f"environment: {json.dumps(report['environment'], sort_keys=True)}")
    print(f"workload {args.workload}, seed {args.seed}, passes {len(report['pass_s'])}"
          + (f" untraced + {len(report.get('traced_pass_s', []))} traced" if args.trace else ""))
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"  fail_rate = {report['fail_rate']:.6g} ratio ({failed} of {attempted} operations)")
    for failure in report["failures"][:10]:
        print(f"  FAILED {failure}")
    print(f"report: {out.relative_to(ROOT)}")
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
