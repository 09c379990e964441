"""Acceptance suite: the ten primary criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every test measures its own wall-clock time and enforces the
stated runtime budget along with the numeric tolerances.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from brlab.bessel import bessel_j, bessel_j_oracle
from brlab.decomposition import (
    DyadicPiece,
    br_apply_separable,
    gamma_decay_check,
    make_bump,
    t_j_apply,
)
from brlab.grid import ExponentPair, Grid, lp_norm, make_test_field
from brlab.kernel import (
    KernelPoint,
    dilation_check,
    envelope_fit,
    kernel_decay_fit,
    kernel_quadrature,
    kernel_radial,
)
from brlab.norms import decay_fit, lemma1_scaling_experiment
from brlab.operators import (
    MultiplierSpec,
    br_apply_kernel,
    br_apply_oracle,
    br_apply_radial,
)
from brlab.regions import (
    BASIC,
    ONE_INFINITY,
    REGION_I_A,
    REGION_II_A,
    REGION_II_B,
    smoothness_index,
)

BUMP = make_bump()


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} [{name}]: {status} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def _rel(a, b) -> float:
    return lp_norm(a - b, 2) / lp_norm(b, 2)


def _gaussian_pair(grid: Grid):
    f = make_test_field("gaussian", {"width": 1.0}, grid)
    g = make_test_field(
        "gaussian", {"width": 1.5, "center": (grid.L * 0.6,) * grid.n}, grid
    )
    return f, g


def test_01_bessel_cross_validation():
    started = time.perf_counter()
    radii = np.geomspace(0.01, 200.0, 40)
    worst = 0.0
    for k in (0.0, 0.5, 1.0, 1.5, 2.0, 2.5):
        diff = np.max(np.abs(bessel_j(k, radii) - bessel_j_oracle(k, radii)))
        worst = max(worst, float(diff))
    half_order = np.max(
        np.abs(bessel_j(0.5, radii) - np.sqrt(2.0 / (np.pi * radii)) * np.sin(radii))
    )
    elapsed = time.perf_counter() - started
    ok = worst < 1e-9 and half_order < 1e-10 and elapsed < 10.0
    _report(
        1,
        "bessel dual route",
        ok,
        f"max route diff {worst:.2e}, half-order diff {half_order:.2e}, {elapsed:.1f}s",
    )


def test_02_kernel_identity():
    started = time.perf_counter()
    rhos = np.linspace(2.5, 50.0, 20)
    worst_agree = 0.0
    worst_dilation = 0.0
    for n in (1, 2):
        for alpha in (1.0, 2.0, 5.0):
            closed = kernel_radial(rhos, alpha, n)
            for rho, closed_value in zip(rhos, closed):
                coord = (float(rho) / math.sqrt(2.0),) + (0.0,) * (n - 1)
                pt = KernelPoint(coord, coord)
                quad = kernel_quadrature(pt, alpha, n)
                worst_agree = max(worst_agree, abs(quad - float(closed_value)))
                for R in (0.5, 1.0, 2.0, 4.0):
                    worst_dilation = max(
                        worst_dilation, dilation_check(pt, alpha, n, R)
                    )
    elapsed = time.perf_counter() - started
    ok = worst_agree < 1e-6 and worst_dilation < 1e-6 and elapsed < 120.0
    _report(
        2,
        "kernel identity",
        ok,
        f"closed-vs-quadrature {worst_agree:.2e},"
        f" dilation residual {worst_dilation:.2e}, {elapsed:.0f}s",
    )


def test_03_kernel_decay():
    started = time.perf_counter()
    worst = 0.0
    for n in (1, 2):
        for alpha in (1.0, 2.0, 5.0):
            fit = kernel_decay_fit(alpha, n)
            worst = max(worst, abs(fit.decay_exponent - (n + alpha + 0.5)))
    elapsed = time.perf_counter() - started
    ok = worst < 0.1 and elapsed < 60.0
    _report(
        3,
        "kernel decay exponent",
        ok,
        f"max |fit - (n + alpha + 1/2)| = {worst:.3f}, {elapsed:.1f}s",
    )


def test_04_path_agreement():
    started = time.perf_counter()
    spec = MultiplierSpec(alpha=2.0)
    grid = Grid(1, 256, 16.0)
    f, g = _gaussian_pair(grid)
    oracle = br_apply_oracle(f, g, spec)
    radial_err = _rel(br_apply_radial(f, g, spec, nodes=4096), oracle)
    e_coarse = _rel(br_apply_radial(f, g, spec, nodes=128), oracle)
    e_fine = _rel(br_apply_radial(f, g, spec, nodes=256), oracle)
    halving = e_fine / e_coarse
    wide = Grid(1, 256, 32.0)
    f32, g32 = _gaussian_pair(wide)
    kernel_err = _rel(
        br_apply_kernel(f32, g32, spec), br_apply_oracle(f32, g32, spec)
    )
    elapsed = time.perf_counter() - started
    ok = (
        radial_err < 1e-3
        and kernel_err < 5e-2
        and 0.35 < halving < 0.65
        and elapsed < 120.0
    )
    _report(
        4,
        "path agreement",
        ok,
        f"radial {radial_err:.2e}, kernel {kernel_err:.2e},"
        f" node-doubling ratio {halving:.2f}, {elapsed:.0f}s",
    )


def test_05_decomposition():
    started = time.perf_counter()
    u = np.concatenate([np.geomspace(2.0**-20, 1.0, 4001), [1.0]])
    total = np.zeros_like(u)
    for j in range(64):
        total += BUMP(2.0**j * u)
    partition_err = float(np.max(np.abs(total - 1.0)))

    grid = Grid(1, 64, 16.0)
    f, g = _gaussian_pair(grid)
    spec = MultiplierSpec(alpha=2.0)
    oracle = br_apply_oracle(f, g, spec)
    telescoped = None
    for j in range(13):
        piece_out = t_j_apply(f, g, DyadicPiece(j, 2.0), BUMP)
        telescoped = piece_out if telescoped is None else telescoped + piece_out
    telescope_err = _rel(telescoped, oracle)

    piece = DyadicPiece(2, 2.0)
    separable_err = _rel(
        br_apply_separable(f, g, piece, 512), t_j_apply(f, g, piece, BUMP)
    )
    elapsed = time.perf_counter() - started
    ok = (
        partition_err < 1e-10
        and telescope_err < 1e-3
        and separable_err < 1e-4
        and elapsed < 180.0
    )
    _report(
        5,
        "decomposition",
        ok,
        f"partition {partition_err:.2e}, telescoping {telescope_err:.2e},"
        f" separable {separable_err:.2e}, {elapsed:.0f}s",
    )


def test_06_gamma_decay():
    started = time.perf_counter()
    report = gamma_decay_check(2.0, 0.5, range(9), range(65))
    log2_slope = math.log2(report.growth_ratio)
    elapsed = time.perf_counter() - started
    ok = log2_slope <= 0.1 and math.isfinite(report.constant) and elapsed < 120.0
    _report(
        6,
        "gamma decay",
        ok,
        f"log2 slope {log2_slope:.3f}, constant {report.constant:.2f}, {elapsed:.1f}s",
    )


def test_07_lemma1_scaling():
    started = time.perf_counter()
    grid = Grid(1, 256, 8.0)
    widths = [0.5, 1.0, 2.0, 4.0]
    diffs = {}
    for p in (Fraction(1), Fraction(4, 3), Fraction(2)):
        result = lemma1_scaling_experiment(p, 8.0, widths, grid, seed=7)
        diffs[str(p)] = abs(result.fitted_exponent - result.target_exponent)
    elapsed = time.perf_counter() - started
    worst = max(diffs.values())
    ok = worst < 0.15 and elapsed < 120.0
    detail = ", ".join(f"p={p}: {d:.3f}" for p, d in diffs.items())
    _report(7, "scaling law", ok, f"fit-vs-target {detail}, {elapsed:.0f}s")


def test_08_piece_decay():
    started = time.perf_counter()
    grid = Grid(1, 256, 32.0)
    pair = ExponentPair(1, 1)
    epsilons = {}
    for alpha in (2.0, 3.0):
        def family(j, a=alpha):
            piece = DyadicPiece(int(j), a)
            return lambda u, v: t_j_apply(u, v, piece, BUMP)

        fit = decay_fit(family, pair, grid, range(9), trials=2, seed=20)
        epsilons[alpha] = fit.epsilon
    elapsed = time.perf_counter() - started
    ok = (
        epsilons[2.0] > 0.3
        and epsilons[3.0] >= epsilons[2.0] - 0.1
        and elapsed < 300.0
    )
    _report(
        8,
        "piece-norm decay",
        ok,
        f"epsilon(2) {epsilons[2.0]:.2f}, epsilon(3) {epsilons[3.0]:.2f}, {elapsed:.0f}s",
    )


def test_09_region_exactness():
    started = time.perf_counter()
    ok = True
    notes = []

    for n in (2, 3, 5):
        if smoothness_index(ExponentPair(1, 1), n).threshold != Fraction(n) - Fraction(1, 2):
            ok, _ = False, notes.append("(1,1)")

    result12 = smoothness_index(ExponentPair(1, 2), 2)
    sources12 = dict(result12.sources)
    if result12.threshold != 1 or sources12[REGION_I_A].value(2) != sources12[
        REGION_II_A
    ].value(2):
        ok, _ = False, notes.append("(1,2)")

    if smoothness_index(ExponentPair(2, 2), 2).threshold != 0:
        ok, _ = False, notes.append("(2,2)")

    result_inf = smoothness_index(ExponentPair(1, math.inf), 2)
    if result_inf.threshold != 1 or result_inf.chosen_source != ONE_INFINITY:
        ok, _ = False, notes.append("(1,inf)")

    rng = np.random.default_rng(2024)
    for _ in range(100):
        den1, den2 = rng.integers(1, 13, size=2)
        inv1 = Fraction(int(rng.integers(0, den1 + 1)), int(den1))
        inv2 = Fraction(int(rng.integers(0, den2 + 1)), int(den2))

        def pair(a, b):
            return ExponentPair(
                math.inf if a == 0 else 1 / a, math.inf if b == 0 else 1 / b
            )

        if (
            smoothness_index(pair(inv1, inv2), 2).threshold
            != smoothness_index(pair(inv2, inv1), 2).threshold
        ):
            ok, _ = False, notes.append(f"symmetry {inv1},{inv2}")
        diag = inv1 if inv1 >= Fraction(1, 2) else 1 - inv1
        forms = dict(smoothness_index(pair(diag, diag), 2).sources)
        if forms[REGION_II_A] != forms[REGION_II_B]:
            ok, _ = False, notes.append(f"diagonal {diag}")
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 1.0
    _report(
        9,
        "region exactness",
        ok,
        f"all symbolic checks {'clean' if not notes else notes}, {elapsed:.2f}s",
    )


def test_10_envelope():
    started = time.perf_counter()
    radii = [0.0, 0.7, 2.1, 3.5, 7.0, 14.0, 28.0]
    points = [KernelPoint((a,), (b,)) for a in radii for b in radii]
    pieces = [DyadicPiece(j, 2.0) for j in range(7)]
    slopes = {}
    for M in (2.0, 3.0):
        report = envelope_fit(pieces, 1, M, points, BUMP)
        slopes[M] = report.slope
    elapsed = time.perf_counter() - started
    ok = all(s <= 0.1 for s in slopes.values()) and elapsed < 180.0
    _report(
        10,
        "piece-kernel envelope",
        ok,
        f"log10 slope M=2: {slopes[2.0]:.3f}, M=3: {slopes[3.0]:.3f}, {elapsed:.0f}s",
    )
