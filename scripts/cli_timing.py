#!/usr/bin/env python3
"""In-process wall time and output digests of the benchmark's CLI entries.

    PYTHONPATH=src python3 scripts/cli_timing.py [--seed 9001] [--repeats 15] [--extra]

Runs ``brlab.cli.main`` once per entry of ``CLI_ENTRIES`` in
``bench/workloads.py`` (the cli_oneshot pass, with ``--seed`` appended as
the benchmark does), ``--repeats`` times, and prints a Markdown table: the
median and the fastest seconds of each entry and of the whole pass, and the
first 16 hex digits of the SHA-256 over every output file of the entry but
``manifest.json`` (file names and bytes, in name order).  ``--extra`` adds
three entries the benchmark does not run (a default ``decay --mode tj``
fit, an n = 3 region map and the kernel envelope check), each run once.
The last line is the SHA-256 over all entries' digests, so two checkouts
can be compared for byte-identical outputs.  Repeats that disagree, and a
nonzero exit code, stop the script.  BLAS and OpenMP are pinned to one
thread before numpy loads.
"""

from __future__ import annotations

import os

for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from workloads import CLI_ENTRIES  # noqa: E402

from brlab import cli  # noqa: E402

#: entries outside the benchmark pass, run once each with ``--extra``
EXTRA_ENTRIES = (
    ("decay_tj", ["decay", "--mode", "tj", "--alpha", "2", "--seed", "42"]),
    ("regions_n3", ["regions", "--n", "3", "--resolution", "17"]),
    ("kernel_envelope", ["kernel", "--check", "envelope"]),
)


def run_entry(argv: list[str], outdir: Path) -> tuple[float, str]:
    """Seconds of one ``cli.main`` call, and the digest of what it wrote."""
    outdir.mkdir(parents=True)
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        started = time.perf_counter()
        code = cli.main(argv + ["--outdir", str(outdir)])
        seconds = time.perf_counter() - started
    if code != 0:
        raise SystemExit(f"{' '.join(argv)}: exit {code}\n{sink.getvalue()}")
    digest = hashlib.sha256()
    for path in sorted(outdir.rglob("*")):
        if path.is_file() and path.name != "manifest.json":
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return seconds, digest.hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=9001)
    parser.add_argument("--repeats", type=int, default=15)
    parser.add_argument("--extra", action="store_true", help="also run EXTRA_ENTRIES once")
    args = parser.parse_args()
    entries = [(name, argv + ["--seed", str(args.seed)], args.repeats) for name, argv in CLI_ENTRIES]
    if args.extra:
        entries += [
            (name, argv if "--seed" in argv else argv + ["--seed", str(args.seed)], 1)
            for name, argv in EXTRA_ENTRIES
        ]
    seconds = {name: [] for name, _, _ in entries}
    digests = {name: set() for name, _, _ in entries}
    with tempfile.TemporaryDirectory() as scratch:
        for index in range(args.repeats):
            for name, argv, repeats in entries:
                if index < repeats:
                    took, digest = run_entry(argv, Path(scratch, str(index), name))
                    seconds[name].append(took)
                    digests[name].add(digest)
    passes = [sum(seconds[name][i] for name, _ in CLI_ENTRIES) for i in range(args.repeats)]
    print(f"seed {args.seed}, {args.repeats} repeats")
    print("| entry | median s | fastest s | outputs digest |")
    print("|---|---|---|---|")
    overall = hashlib.sha256()
    for name, _, _ in entries:
        if len(digests[name]) != 1:
            raise SystemExit(f"{name}: repeated runs wrote different files")
        digest = digests[name].pop()
        overall.update(f"{name} {digest}\n".encode())
        print(
            f"| {name} | {statistics.median(seconds[name]):.4f}"
            f" | {min(seconds[name]):.4f} | {digest[:16]} |"
        )
    print(f"| pass ({len(CLI_ENTRIES)} entries) | {statistics.median(passes):.4f} | {min(passes):.4f} | |")
    print(f"all outputs: {overall.hexdigest()}")


if __name__ == "__main__":
    main()
