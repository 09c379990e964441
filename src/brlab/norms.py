"""Empirical operator-norm lower bounds and decay-rate fits.

Norm estimation is witness search: every reported value is an achieved
ratio lp_norm(T(f, g), p) / (lp_norm(f, p1) lp_norm(g, p2)), so it is a
certified lower bound by construction.  The searches iterate a fixed
witness catalog plus seeded hill-climbing perturbations, which keeps every
estimate deterministic and reproducible from its stored witnesses.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._fit import least_squares_slope
from .grid import (
    ExponentPair,
    Grid,
    SampledField,
    _as_pair,
    dft_inverse,
    lp_norm,
    make_test_field,
    modulate,
)
from .operators import BandSpec, MultiplierSpec, band_operator, br_apply_oracle

#: hill-climbing perturbation steps per trial
CLIMB_STEPS = 50
_PERTURB_BAND = 1.5
_PERTURB_SIZE = 0.15
_PHASE_SIZE = 0.05


def _unit_direction(grid: Grid, radius: float) -> np.ndarray:
    freq = np.zeros(grid.n)
    freq[0] = radius
    return freq


def _annulus_packet(grid: Grid, a: float, b: float) -> SampledField:
    """Coherent packet: inverse transform of the annulus indicator."""
    radii = grid.freq_radii()
    mask = (radii >= a - 1e-12) & (radii <= b + 1e-12)
    field = dft_inverse(SampledField(grid, mask.astype(np.complex128)))
    return field * (1.0 / lp_norm(field, 2))


def _smooth_noise(grid: Grid, rng: np.random.Generator, mask: np.ndarray) -> SampledField:
    """Complex noise drawn from ``rng`` on the frequencies where ``mask`` holds."""
    count = int(np.sum(mask))
    coeffs = np.zeros(grid.shape, dtype=np.complex128)
    coeffs[mask] = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    return dft_inverse(SampledField(grid, coeffs))


def _climb_noise(grid: Grid, rng: np.random.Generator) -> list:
    """The ``CLIMB_STEPS`` perturbation noises a climb draws from ``rng``.

    Each comes with its L2 norm.  They depend only on the grid and the state
    of ``rng``, never on the operator, so a search draws each trial's set
    once and every operator it searches climbs on the same set.
    """
    mask = grid.freq_radii() <= _PERTURB_BAND
    noise = [_smooth_noise(grid, rng, mask) for _ in range(CLIMB_STEPS)]
    return [(field, lp_norm(field, 2)) for field in noise]


#: most witness catalogs kept alive, keyed by (grid, infinite, seed, radius)
_CATALOG_SLOTS = 4
_catalogs: dict = {}


def witness_catalog(
    grid: Grid, infinite: bool, seed: int, modulation_radius: float = 1.0
) -> list[tuple[str, SampledField]]:
    """Deterministic witness fields for one operand slot.

    The finite-exponent catalog holds Gaussians at three widths, ball
    indicators at radii 0.4 L/N, 1/2 and 1 (the smallest is sub-cell, a
    discrete point mass; a radius r >= L/4 is skipped, so L <= 4 drops
    ``ball_1`` and L <= 2 also ``ball_0.5``), band-limited random fields
    on three annuli around the modulation radius, coherent annulus
    packets, and the width-1 Gaussian pushed to the modulation sphere (a
    modulated point mass would be the point mass times a constant phase,
    tying it for every operator, so there is none).  The
    infinite-exponent catalog holds unimodular fields: constants and
    random smooth phases, where the sup-norm constraint binds.

    A search builds each slot's catalog once for all its operators; the
    last ``_CATALOG_SLOTS`` (4) catalogs built are kept, so repeated fits in
    one process share their witness fields and the spectra that
    :func:`~brlab.grid.dft_forward` keeps on them.  Each call returns a
    fresh list of the same immutable fields.
    """
    key = (grid, bool(infinite), seed, float(modulation_radius))
    items = _catalogs.pop(key, None)
    if items is None:
        items = tuple(_build_catalog(*key))
        if len(_catalogs) >= _CATALOG_SLOTS:
            del _catalogs[next(iter(_catalogs))]
    _catalogs[key] = items
    return list(items)


def _build_catalog(
    grid: Grid, infinite: bool, seed: int, modulation_radius: float
) -> list[tuple[str, SampledField]]:
    items: list[tuple[str, SampledField]] = []
    direction = _unit_direction(grid, modulation_radius)
    if infinite:
        ones = SampledField(grid, np.ones(grid.shape))
        items.append(("const", ones))
        items.append(("const_modulated", modulate(ones, direction)))
        mask = grid.freq_radii() <= 1.0
        for i, scale in enumerate((0.5, 1.0, 2.0)):
            rng = np.random.default_rng([seed, 7, i])
            theta = _smooth_noise(grid, rng, mask).values.real
            peak = np.max(np.abs(theta))
            theta = theta / peak if peak > 0 else theta
            values = np.exp(2j * math.pi * scale * theta)
            items.append((f"unimodular_phase_{scale:g}", SampledField(grid, values)))
        return items
    r0 = modulation_radius
    for width in (0.5, 1.0, 2.0):
        items.append(
            (f"gaussian_{width:g}", make_test_field("gaussian", {"width": width}, grid))
        )
    radii = (0.4 * grid.spacing, 0.5, 1.0)
    for radius in radii:
        if radius >= grid.L / 4.0:
            continue
        items.append(
            (
                f"ball_{radius:g}",
                make_test_field("ball_indicator", {"radius": radius}, grid),
            )
        )
    bands = ((0.0, 0.5 * r0), (0.5 * r0, r0), (0.9 * r0, 1.1 * r0))
    for i, band in enumerate(bands):
        items.append(
            (
                f"band_{band[0]:g}_{band[1]:g}",
                make_test_field(
                    "band_limited_random", {"band": band}, grid, seed=int(seed) + i
                ),
            )
        )
    for a, b in ((0.9 * r0, 1.1 * r0), (0.5 * r0, r0)):
        items.append((f"packet_{a:g}_{b:g}", _annulus_packet(grid, a, b)))
    items.append(
        (
            "gaussian_1_modulated",
            modulate(make_test_field("gaussian", {"width": 1.0}, grid), direction),
        )
    )
    return items


def _ratio(op, f: SampledField, g: SampledField, p, den: float) -> float:
    """lp_norm(op(f, g), p) / den, the denominator lp_norm(f, p1) lp_norm(g, p2)."""
    if not den > 0:
        return 0.0
    return lp_norm(op(f, g), p) / den


def _perturb(
    f: SampledField, infinite: bool, noise: SampledField, size: float
) -> SampledField:
    """``f`` moved by ``noise`` (of L2 norm ``size``): in phase if infinite."""
    if infinite:
        theta = noise.values.real
        peak = np.max(np.abs(theta))
        if peak > 0:
            theta = theta * (_PHASE_SIZE / peak)
        return SampledField(f.grid, f.values * np.exp(2j * math.pi * theta))
    if not size > 0:
        return f
    return f + (_PERTURB_SIZE * lp_norm(f, 2) / size) * noise


def _shared_perturb(slot: list, f: SampledField, infinite: bool, step_noise, p) -> tuple:
    """``_perturb(f, infinite, *step_noise)`` and its L^p norm, kept in ``slot``.

    ``slot`` holds a weak reference to the field it last perturbed, that
    candidate and its norm.  A call on the same field (by identity) returns
    them; any other call builds afresh and overwrites the slot.
    """
    if not slot or slot[0]() is not f:
        cand = _perturb(f, infinite, *step_noise)
        slot[:] = weakref.ref(f), cand, lp_norm(cand, p)
    return slot[1], slot[2]


@dataclass(frozen=True)
class NormEstimate:
    """A certified operator-norm lower bound with its achieving witnesses."""

    value: float
    witness_f: SampledField
    witness_g: SampledField
    exponents: ExponentPair
    trials: int
    seed: int
    witness_id_f: str
    witness_id_g: str


def recompute_ratio(op, estimate: NormEstimate) -> float:
    """Re-evaluate an estimate's ratio from its stored witnesses."""
    ep, f, g = estimate.exponents, estimate.witness_f, estimate.witness_g
    return _ratio(op, f, g, ep.p, lp_norm(f, ep.p1) * lp_norm(g, ep.p2))


def estimate_bilinear_norm(
    op, exponents, grid: Grid, trials: int, seed: int
) -> NormEstimate | tuple[NormEstimate, ...]:
    """Lower-bound the mixed-norm operator norm of ``op`` by witness search.

    Trial 0 sweeps the full witness-catalog pair grid and hill-climbs from
    its best pair; each further trial climbs from a randomly chosen pair.
    Deterministic given ``seed``; more trials never lower the result (the
    maximum runs over a superset, reduced in index order with strict
    improvement).  Each catalog field's norm and each climb candidate's is
    computed once, and so is each catalog pair's ratio (a climb starts from
    its sweep value); every ratio is lp_norm(T(f, g), p) / (lp_norm(f, p1)
    lp_norm(g, p2)) in that order.

    ``op`` is one bilinear operator, giving one :class:`NormEstimate`, or a
    sequence of them, giving a tuple whose entry i is bitwise the estimate of
    ``op[i]`` alone: the catalogs, their norms, each trial's start pair and
    climb noise are built once and every operator is searched on them.  The
    climbs share their candidates too: one slot per (trial, step) keeps the
    last candidate built there, with its norm and (once an operator has
    transformed it) its spectrum, and an operator whose current field is
    that candidate's source reuses it.  So at most ``trials * CLIMB_STEPS``
    candidates live at once: about 0.8 MB for 2 trials at N = 256 in 1-D.
    A single operator shares with none and keeps no slot past its step.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got trials={trials}")
    ep = _as_pair(exponents)
    p1, p2, p = (float(e) for e in (ep.p1, ep.p2, ep.p))  # lp_norm's own conversion, once
    inf_f, inf_g = ep.inv1 == 0, ep.inv2 == 0
    cat_f = witness_catalog(grid, inf_f, seed)
    cat_g = witness_catalog(grid, inf_g, seed + 1)
    norm_f = [lp_norm(f, p1) for _, f in cat_f]
    norm_g = [lp_norm(g, p2) for _, g in cat_g]
    starts, noises = [None], []  # trial 0 starts from its sweep's best pair
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        if t > 0:
            starts.append((int(rng.integers(0, len(cat_f))), int(rng.integers(0, len(cat_g)))))
        noises.append(_climb_noise(grid, rng))

    def search(op, slots) -> NormEstimate:
        best_value = 0.0
        best = (cat_f[0][1], cat_g[0][1], cat_f[0][0], cat_g[0][0])
        sweep = {}  # each catalog pair's ratio, for trial 0 and the restarts
        for start, noise, trial_slots in zip(starts, noises, slots):
            if start is None:
                pair_best, start = 0.0, (0, 0)
                for fi, (_, f) in enumerate(cat_f):
                    for gi, (_, g) in enumerate(cat_g):
                        value = _ratio(op, f, g, p, norm_f[fi] * norm_g[gi])
                        sweep[fi, gi] = value
                        if value > pair_best:
                            pair_best, start = value, (fi, gi)
            fi, gi = start
            (id_f, f), (id_g, g) = cat_f[fi], cat_g[gi]
            nf, ng, current = norm_f[fi], norm_g[gi], sweep[start]
            accepted = 0
            for step, (step_noise, slot) in enumerate(zip(noise, trial_slots)):
                if step % 2 == 0:
                    cand_f, cand_nf = _shared_perturb(slot, f, inf_f, step_noise, p1)
                    cand_g, cand_ng = g, ng
                else:
                    cand_f, cand_nf = f, nf
                    cand_g, cand_ng = _shared_perturb(slot, g, inf_g, step_noise, p2)
                value = _ratio(op, cand_f, cand_g, p, cand_nf * cand_ng)
                if value > current:
                    current, f, g, nf, ng = value, cand_f, cand_g, cand_nf, cand_ng
                    accepted += 1
            suffix = f"+climb{accepted}" if accepted else ""
            if current > best_value:
                best_value = current
                best = (f, g, id_f + suffix, id_g + suffix)
        f, g, id_f, id_g = best
        return NormEstimate(best_value, f, g, ep, int(trials), int(seed), id_f, id_g)

    if callable(op):  # nothing to share: each slot lives for its step only
        return search(op, (([] for _ in noise) for noise in noises))
    # one candidate slot per (trial, step), shared by the operators' climbs
    slots = [[[] for _ in noise] for noise in noises]
    return tuple(search(one, slots) for one in op)


@dataclass(frozen=True)
class DecayFit:
    """Fitted per-level decay of piece-operator norm lower bounds.

    ``epsilon`` is the negated least-squares slope of log2(norms) against
    the levels; ``degenerate`` marks an all-zero (or otherwise unfittable)
    norm sequence, in which case slope and epsilon are zero.
    """

    js: tuple[int, ...]
    norms: tuple[float, ...]
    slope: float
    epsilon: float
    residual: float
    degenerate: bool
    estimates: tuple[NormEstimate, ...]


def decay_fit(
    op_family, exponents, grid: Grid, j_range, trials: int, seed: int
) -> DecayFit:
    """Estimate piece norms across levels and fit their dyadic decay rate.

    ``op_family`` maps a level j to a bilinear operator handle.  Requires
    at least 4 levels for a meaningful fit.  The levels share one
    :func:`estimate_bilinear_norm` search, and so its catalogs and noise.
    """
    js = sorted(int(j) for j in j_range)
    if len(js) < 4:
        raise ValueError(f"need at least 4 levels for a decay fit, got {len(js)}")
    ep = _as_pair(exponents)
    estimates = estimate_bilinear_norm([op_family(j) for j in js], ep, grid, trials, seed)
    norms = tuple(est.value for est in estimates)
    if any(not v > 0 or not math.isfinite(v) for v in norms):
        return DecayFit(tuple(js), norms, 0.0, 0.0, 0.0, True, estimates)
    slope, _, residual = least_squares_slope(
        np.asarray(js, dtype=float), np.log2(norms)
    )
    return DecayFit(tuple(js), norms, slope, -slope, residual, False, estimates)


@dataclass(frozen=True)
class ScalingReport:
    """Band-operator norm estimates against band size, with a fitted power."""

    p: Fraction
    b: float
    n: int
    widths: tuple[float, ...]
    estimates: tuple[float, ...]
    witness_ids: tuple[str, ...]
    fitted_exponent: float | None
    target_exponent: float
    residual: float


def lemma1_scaling_experiment(
    p, b: float, widths, grid: Grid, seed: int
) -> ScalingReport:
    """Measure how the L^p -> L^2 band-operator bound scales with band size.

    For the constant multiplier on bands [b - w, b], estimates
    sup_f ||band(f)||_2 / ||f||_p over the witness catalog (modulated to
    radius b) for each width w, then fits the log-log power of the
    estimates against w b^{n-1}.  The predicted power is 1/p - 1/2.
    """
    pair = ExponentPair(p, 2)
    inv_p = pair.inv1
    if not Fraction(1, 2) <= inv_p <= 1:
        raise ValueError(f"scaling experiment needs p in [1, 2], got p={p}")
    nyquist = (grid.N / 2.0) / grid.L
    if not 0 < b <= nyquist:
        raise ValueError(f"band edge must sit inside the lattice, got b={b}")
    width_list = [float(w) for w in widths]
    if not width_list:
        raise ValueError("need at least one width")
    if any(not 0 < w <= b for w in width_list):
        raise ValueError(f"widths must lie in (0, b], got widths={width_list!r}")
    try:  # each band [b - w, b] must meet the frequency lattice
        inside = [
            make_test_field("band_limited_random", {"band": (b - w, b)}, grid, seed=int(seed) + 17)
            for w in width_list
        ]
    except ValueError as err:
        raise ValueError(f"{err}, got widths={width_list!r}") from None
    catalog = witness_catalog(grid, False, seed, modulation_radius=b)
    estimates, ids = [], []
    for w, band_inside in zip(width_list, inside):
        band = BandSpec(b - w, b, 1.0)
        # in-band witnesses reach the extremizers: spectrum inside the band
        # makes the p = 2 ratio exactly one, and the coherent packet is the
        # concentrated near-extremizer at small p
        per_width = catalog + [
            ("band_inside", band_inside),
            ("packet_inside", _annulus_packet(grid, b - w, b)),
        ]
        best_value, best_id = 0.0, per_width[0][0]
        for item_id, f in per_width:
            den = lp_norm(f, pair.p1)
            if not den > 0:
                continue
            value = lp_norm(band_operator(f, band), 2) / den
            if value > best_value:
                best_value, best_id = value, item_id
        estimates.append(best_value)
        ids.append(best_id)
    target = float(inv_p - Fraction(1, 2))
    if len(width_list) >= 2:
        x = np.log2(np.asarray(width_list) * b ** (grid.n - 1))
        slope, _, residual = least_squares_slope(x, np.log2(estimates))
        fitted: float | None = slope
    else:
        fitted, residual = None, 0.0
    return ScalingReport(
        p=pair.p1,
        b=float(b),
        n=grid.n,
        widths=tuple(width_list),
        estimates=tuple(estimates),
        witness_ids=tuple(ids),
        fitted_exponent=fitted,
        target_exponent=target,
        residual=residual,
    )


def corollary_experiment(alpha: float, grid: Grid, trials: int, seed: int) -> NormEstimate:
    """Lower-bound the L^1 x L^inf -> L^1 norm of the bilinear means."""
    if not alpha > 0:
        raise ValueError(f"smoothness must satisfy alpha > 0, got alpha={alpha}")
    spec = MultiplierSpec(alpha=float(alpha))

    def op(f, g):
        return br_apply_oracle(f, g, spec)

    return estimate_bilinear_norm(op, ExponentPair(1, math.inf), grid, trials, seed)
