"""Workload process: set up one workload, run timed passes, check, report.

Started by ``run.py`` in a fresh interpreter whose environment pins BLAS and
OpenMP to one thread and puts the checkout's ``src`` first on the path.  The
timed loop is closed: a pass starts when the previous one has ended, and no
pass starts that the median pass time predicts would end after the budget.

With ``--probe`` it only sets up and reports how long that took, counted
from ``--t0``, the parent's monotonic clock reading just before the spawn.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
ROOT = Path(__file__).resolve().parent.parent


def _environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError, ValueError):
        blas = "unknown"
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as handle:
        cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "brlab").glob("*.py")):
        source.update(path.name.encode() + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "git_sha": _git_sha(),
        "source_sha256": source.hexdigest(),
    }


def _git_sha() -> str | None:
    """HEAD's commit from .git, or None in a checkout that is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _phase(workload, budget: float, first_index: int, tracer=None):
    """Passes until the budget would be exceeded; returns durations, results, error."""
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    durations, results = [], []
    started = time.perf_counter()
    while True:
        index = first_index + len(results)
        if tracer:
            tracer.run_id = index
        t0 = time.perf_counter()
        try:
            result = workload.run_pass(index, span)
        except Exception as err:  # a raising pass is a failed operation, not a crash
            return durations, results, f"pass {index} raised {err!r}"
        durations.append(time.perf_counter() - t0)
        results.append(result)
        if time.perf_counter() - started + statistics.median(durations) > budget:
            return durations, results, None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()
    unpinned = [var for var in THREAD_VARS if os.environ.get(var) != "1"]
    if unpinned or "numpy" in sys.modules:
        raise SystemExit(f"thread counts must be pinned to 1 before numpy loads: {unpinned}")

    import brlab
    import workloads

    if not Path(brlab.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"brlab imported from {brlab.__file__}, not from this checkout")
    scratch = ROOT / ".bench_out" / f"tmp-{os.getpid()}"
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, scratch)
        setup_s = time.monotonic() - args.t0
        report = {"setup_s": setup_s}
        if not args.probe:
            report.update(_run(args, workload))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    Path(args.result).write_text(json.dumps(report))
    return 0


def _run(args, workload) -> dict:
    import workloads
    from spans import SpanTable, Tracer, layer_metrics

    ledger = workloads.Ledger()
    budget = args.seconds / 2 if args.trace else args.seconds
    durations, results, error = _phase(workload, budget, 0)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report = {"pass_s": durations, "peak_rss_mb": peak_rss_mb}
    per_layer = None
    if args.trace and error is None:
        tracer = Tracer()
        tracer.install()
        try:
            missed = tracer.unwrapped_bindings()
            traced_durations, traced, error = _phase(workload, budget, len(results), tracer)
        finally:
            tracer.uninstall()
        results += traced
        counted = getattr(workload, "traced_counters", None)
        for result in traced if counted else ():
            tracer.counters.update(counted(result))
        ledger.op("tracing binds every public function", [f"unwrapped: {m}" for m in missed])
        if traced_durations:
            table = SpanTable(tracer, len(traced_durations))
            entries = [entry for entry, _ in workloads.CLI_ENTRIES]
            per_layer = layer_metrics(table, entries, traced_durations, durations)
            for name in workload.MOVES:
                ledger.op(f"trace {name} nonzero", [] if per_layer[name][0] > 0 else ["reads zero"])
            coverage = per_layer["trace.coverage_frac"][0]
            ledger.op(
                "layer self times within traced wall",
                [] if coverage <= 1.0 + 1e-9 else [f"coverage {coverage:.4f} > 1"],
            )
            report["traced_pass_s"] = traced_durations
            spans = ROOT / ".bench_out" / f"{workload.name}-seed{args.seed}-spans.csv.gz"
            tracer.write(spans)
            report["spans_file"] = str(spans.relative_to(ROOT))
    if error is not None:
        ledger.op("pass", [error])
    if results:
        workload.check(results, ledger)
    if per_layer is not None:
        for name, unit in workloads.ACCURACY.items():
            per_layer[name] = (ledger.accuracy.get(name, 0.0), unit)
        report["per_layer"] = per_layer
    report.update(
        attempted=ledger.attempted,
        failed=len(ledger.failures),
        failures=ledger.failures[:50],
        err_over_tol=ledger.err_over_tol,
        accuracy=ledger.accuracy,
        environment=_environment(),
    )
    return report


if __name__ == "__main__":
    sys.exit(main())
