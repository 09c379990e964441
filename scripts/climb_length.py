#!/usr/bin/env python3
"""Piece-norm estimates against the witness search's climb length.

    PYTHONPATH=src python3 scripts/climb_length.py

Runs ``decay --mode tj``'s fit (alpha = 2, levels 0..8, 2 trials, seed 9001)
on Grid(1, 256, 32) for the exponent pairs off (1, 1) at CLIMB_STEPS in
{50, 100, 200, 400}, and prints a Markdown table: epsilon, the estimates at
j = 0, 2, 4, 8, the most climb steps any level accepted, and the largest
relative rise of a level's estimate over the 50-step one.  The default
CLIMB_STEPS is restored on exit.
"""

from __future__ import annotations

import math
import re
import time

from brlab import norms
from brlab.decomposition import DyadicPiece, make_bump, t_j_apply
from brlab.grid import ExponentPair, Grid

PAIRS = (("4/3", 2), (2, math.inf), (math.inf, 1), (2, 2))
STEPS = (50, 100, 200, 400)
GRID = Grid(1, 256, 32.0)
LEVELS = range(9)
SHOWN = (0, 2, 4, 8)


def family(j: int):
    piece, bump = DyadicPiece(j, 2.0), make_bump()
    return lambda u, v: t_j_apply(u, v, piece, bump)


def accepted(est) -> int:
    found = re.search(r"\+climb(\d+)$", est.witness_id_f)
    return int(found.group(1)) if found else 0


def main() -> None:
    default = norms.CLIMB_STEPS
    print("| (p1, p2) | steps | epsilon | " + " | ".join(f"j = {j}" for j in SHOWN)
          + " | most accepted | max rise over 50 | s |")
    print("|---|---|---|" + "---|" * len(SHOWN) + "---|---|---|")
    try:
        for pair in PAIRS:
            base = None
            for steps in STEPS:
                norms.CLIMB_STEPS = steps
                t0 = time.perf_counter()
                fit = norms.decay_fit(family, ExponentPair(*pair), GRID, LEVELS, 2, 9001)
                seconds = time.perf_counter() - t0
                base = base or fit.norms
                rise = max(v / b - 1.0 for v, b in zip(fit.norms, base))
                shown = " | ".join(f"{fit.norms[j]:.4g}" for j in SHOWN)
                label = f"({pair[0]}, {pair[1]})".replace("inf", "∞")
                print(f"| {label} | {steps} | {fit.epsilon:.3f} | {shown} | "
                      f"{max(accepted(e) for e in fit.estimates)} | {100 * rise:.1f}% | {seconds:.2f} |")
    finally:
        norms.CLIMB_STEPS = default


if __name__ == "__main__":
    main()
