#!/usr/bin/env python3
"""Wall time of one piece-norm decay fit against the box side L.

    PYTHONPATH=src python3 scripts/fit_timing.py [--L 32,128,512] [--repeats 3]

Times ``decay_fit`` at acceptance test 08's settings (alpha = 2, the pair
(1, 1), levels 0..8, 2 trials) with seed 9001 on Grid(1, 8L, L), and prints
a Markdown table: the median and the fastest of ``--repeats`` fits in
seconds, epsilon, and the first 16 hex digits of the SHA-256 of the fitted
norms' bytes, so two checkouts can be compared for equal outputs.  BLAS and
OpenMP are pinned to one thread before numpy loads.
"""

from __future__ import annotations

import os

for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from brlab.decomposition import DyadicPiece, make_bump, t_j_apply  # noqa: E402
from brlab.grid import ExponentPair, Grid  # noqa: E402
from brlab.norms import decay_fit  # noqa: E402

ALPHA = 2.0
LEVELS = range(9)
TRIALS = 2
SEED = 9001


def fit(L: float):
    bump = make_bump()

    def family(j: int):
        piece = DyadicPiece(int(j), ALPHA)
        return lambda u, v: t_j_apply(u, v, piece, bump)

    return decay_fit(family, ExponentPair(1, 1), Grid(1, 8 * int(L), L), LEVELS, TRIALS, SEED)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--L", default="32,128,512", help="comma-separated box sides")
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    print("| L | N | median s | fastest s | epsilon | norms digest |")
    print("|---|---|---|---|---|---|")
    for L in (float(text) for text in args.L.split(",")):
        seconds, digests = [], set()
        for _ in range(args.repeats):
            started = time.perf_counter()
            result = fit(L)
            seconds.append(time.perf_counter() - started)
            digests.add(hashlib.sha256(np.asarray(result.norms).tobytes()).hexdigest()[:16])
        if len(digests) != 1:
            raise SystemExit(f"L = {L:g}: repeated fits gave different norms")
        print(
            f"| {L:g} | {8 * int(L)} | {statistics.median(seconds):.3f}"
            f" | {min(seconds):.3f} | {result.epsilon:.4f} | {digests.pop()} |",
            flush=True,
        )


if __name__ == "__main__":
    main()
