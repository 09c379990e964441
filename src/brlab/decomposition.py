"""Dyadic decomposition of the bilinear means and its separable expansion.

The multiplier is sliced along level sets of u = 1 - |xi|^2 - |eta|^2 by a
smooth dyadic partition of unity: piece j lives where u is comparable to
2^{-j}.  Each slice multiplier, viewed as a 2-periodic function of one
radial variable, has rapidly decaying Fourier coefficients; truncating that
series turns the bilinear piece into a short sum of products of two linear
band operators, which is the separable evaluation path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._fit import least_squares_slope
from .grid import SampledField, dft_forward, dft_inverse
from .operators import (
    DEFAULT_BUDGET,
    _require_same_grid,
    bilinear_frequency_apply,
    pair_plan,
)

#: nodes of the uniform t-quadrature behind every coefficient computation
COEFF_GRID = 4096


class BumpFunction:
    """Smooth dyadic partition profile, in closed form.

    The raw profile is supported on [1/2, 2], so on (1/2, 2) only the
    j in {-1, 0, 1} terms of its dyadic sum are nonzero, and the normalized
    profile is exactly raw(s) / (raw(s/2) + raw(s) + raw(2s)); the
    denominator never vanishes there.  It is zero outside (1/2, 2), and
    sum over j in Z of value(2^j s) is 1 for every s > 0 up to rounding.
    """

    support = (0.5, 2.0)

    def __call__(self, s):
        s_arr = np.asarray(s, dtype=float)
        scalar = s_arr.ndim == 0
        s_arr = np.atleast_1d(s_arr)
        out = np.zeros_like(s_arr)
        lo, hi = self.support
        inside = (s_arr > lo) & (s_arr < hi)
        if np.any(inside):
            s_in = s_arr[inside]
            raw = _raw_profile(s_in)
            out[inside] = raw / (_raw_profile(0.5 * s_in) + raw + _raw_profile(2.0 * s_in))
        return float(out[0]) if scalar else out


def _raw_profile(s: np.ndarray) -> np.ndarray:
    """exp(-1/((s - 1/2)(2 - s))) inside (1/2, 2), zero outside."""
    out = np.zeros_like(s)
    inside = (s > 0.5) & (s < 2.0)
    gap = (s[inside] - 0.5) * (2.0 - s[inside])
    out[inside] = np.exp(-1.0 / gap)
    return out


def make_bump() -> BumpFunction:
    """The normalized partition profile (see :class:`BumpFunction`)."""
    return BumpFunction()


@dataclass(frozen=True)
class DyadicPiece:
    """One slice of the decomposition: level j at smoothness alpha."""

    j: int
    alpha: float

    def __post_init__(self):
        if int(self.j) != self.j or self.j < 0:
            raise ValueError(f"level must be an integer >= 0, got j={self.j}")
        if not self.alpha > 0:
            raise ValueError(f"smoothness must satisfy alpha > 0, got alpha={self.alpha}")

    def multiplier(self, u, bump: BumpFunction) -> np.ndarray:
        """Slice multiplier m_j(u) = u_+^alpha bump(2^j u) on an array of u.

        Computed only where 2^j u lies inside ``bump.support``; elsewhere the
        product is +0.0 and written as such.  A scalar u gives a float64.
        """
        u_arr = np.asarray(u, dtype=float)
        scaled = (2.0**self.j) * u_arr
        lo, hi = bump.support
        inside = (scaled > lo) & (scaled < hi)
        out = np.zeros(u_arr.shape)
        out[inside] = u_arr[inside] ** self.alpha * bump(scaled[inside])
        return out if out.ndim else out[()]


def phi_j_alpha(s, t, piece: DyadicPiece, bump: BumpFunction):
    """Slice multiplier (1 - s^2 - t^2)_+^alpha bump(2^j (1 - s^2 - t^2))."""
    s_arr = np.asarray(s, dtype=float)
    t_arr = np.asarray(t, dtype=float)
    scalar = s_arr.ndim == 0 and t_arr.ndim == 0
    out = piece.multiplier(1.0 - np.atleast_1d(s_arr) ** 2 - np.atleast_1d(t_arr) ** 2, bump)
    return float(out.ravel()[0]) if scalar else out


def slice_weight_of_square_sum(piece: DyadicPiece, bump: BumpFunction):
    """The slice multiplier as a function of |xi|^2 + |eta|^2 (vectorized)."""

    def weight(s_sq):
        return piece.multiplier(1.0 - np.asarray(s_sq, dtype=float), bump)

    return weight


#: (piece, bump, grid) and pair plan of the last piece t_j_apply built
_last_plan: list = [None, None]


def t_j_apply(
    f: SampledField,
    g: SampledField,
    piece: DyadicPiece,
    bump: BumpFunction,
    budget: int = DEFAULT_BUDGET,
) -> SampledField:
    """One dyadic piece of the bilinear operator, by the frequency double sum.

    The slice weight is evaluated once per (piece, bump, grid) into a pair
    plan of 32 bytes per nonzero-weight pair (at most 32 bytes times the
    P^2 budget), which later applies of the same piece (equal by value),
    bump (the same object) and grid reuse.  Only the last plan is kept, and
    it is dropped before the next one is built.  ``budget`` caps the P^2
    in-ball pairs on every call.
    """
    grid = _require_same_grid(f, g)
    key = _last_plan[0]
    if key is None or key[0] != piece or key[1] is not bump or key[2] != grid:
        _last_plan[:] = [None, None]
        weight = slice_weight_of_square_sum(piece, bump)
        _last_plan[:] = [(piece, bump, grid), pair_plan(grid, weight, 1.0, budget)]
    return bilinear_frequency_apply(f, g, _last_plan[1], 1.0, budget)


#: s-rows of the coefficient table transformed per rfft
_COEFF_ROWS = 32


def _coeff_table(piece: DyadicPiece, bump: BumpFunction, s_values, k_max: int) -> np.ndarray:
    """Coefficients gamma_{j,k}(s) for all 0 <= k <= k_max at once.

    Uniform-grid quadrature in t with COEFF_GRID nodes; the integrand
    vanishes at t = +-1, so the rfft below IS the trapezoid rule of the
    defining integral, evaluated for every k simultaneously.  The nodes
    t_m = -1 + m/2048 are dyadic, so |t_m| = |t_{4096-m}| bit for bit: the
    integrand is computed on m <= COEFF_GRID/2 and mirrored onto the rest,
    in blocks of ``_COEFF_ROWS`` s-values with one rfft each.
    """
    half = COEFF_GRID // 2
    if k_max > half:
        raise ValueError(
            f"k_max must be at most {half}, the coefficient grid's range, got k_max={k_max}"
        )
    s_abs = np.abs(np.atleast_1d(np.asarray(s_values, dtype=float)))
    t_abs = np.abs(-1.0 + 2.0 * np.arange(half + 1) / COEFF_GRID)
    integrand = np.empty((min(_COEFF_ROWS, s_abs.size), COEFF_GRID))
    spectrum = np.empty((s_abs.size, k_max + 1))
    for start in range(0, s_abs.size, _COEFF_ROWS):
        rows = s_abs[start : start + _COEFF_ROWS]
        block = integrand[: rows.size]
        block[:, : half + 1] = phi_j_alpha(rows[:, None], t_abs[None, :], piece, bump)
        block[:, half + 1 :] = block[:, half - 1 : 0 : -1]
        spectrum[start : start + rows.size] = np.fft.rfft(block, axis=1)[:, : k_max + 1].real
    signs = (-1.0) ** np.arange(k_max + 1)
    return spectrum * signs[None, :] / COEFF_GRID


@dataclass(frozen=True)
class GammaDecayReport:
    """Decay audit of the slice coefficients across levels and wavenumbers.

    ``normalized[i, k]`` is sup_s |gamma_{j_i,k}| (1+k)^{1+delta} 2^{j_i (alpha-delta)};
    the proof-backed bound says this stays below one constant.
    ``growth_ratio`` is the fitted per-level factor of the level maxima;
    growth beyond 10% per level sets ``flagged``.
    """

    alpha: float
    delta: float
    levels: tuple[int, ...]
    k_values: tuple[int, ...]
    sup_table: np.ndarray
    normalized: np.ndarray
    per_level_max: tuple[float, ...]
    constant: float
    growth_ratio: float
    flagged: bool


def gamma_decay_check(
    alpha: float, delta: float, j_range, k_range, bump: BumpFunction
) -> GammaDecayReport:
    """Measure the (j, k)-decay of the slice coefficients.

    Parameters
    ----------
    alpha : float
        Smoothness of the pieces.
    delta : float
        Decay split parameter; must satisfy 0 < delta < alpha.
    j_range, k_range : iterables of int
        Levels and wavenumbers to audit (negative k fold onto positive).
    bump : BumpFunction
    """
    if not 0 < delta < alpha:
        raise ValueError(
            f"decay split must satisfy 0 < delta < alpha, got delta={delta}, alpha={alpha}"
        )
    levels = sorted({int(j) for j in j_range})
    k_values = sorted({abs(int(k)) for k in k_range})
    if any(j < 0 for j in levels):
        raise ValueError("levels must be nonnegative")
    k_max = max(k_values)
    s_grid = np.linspace(0.0, 1.0, 257)
    sup_rows = []
    for j in levels:
        table = _coeff_table(DyadicPiece(j, alpha), bump, s_grid, k_max)
        sup_rows.append(np.max(np.abs(table), axis=0)[k_values])
    sup_table = np.asarray(sup_rows)
    sup_table.flags.writeable = False
    k_arr = np.asarray(k_values, dtype=float)
    j_arr = np.asarray(levels, dtype=float)
    normalized = (
        sup_table
        * (1.0 + k_arr[None, :]) ** (1.0 + delta)
        * 2.0 ** (j_arr[:, None] * (alpha - delta))
    )
    normalized.flags.writeable = False
    per_level = np.max(normalized, axis=1)
    if len(levels) >= 2:
        slope, _, _ = least_squares_slope(j_arr, np.log(per_level))
        growth_ratio = math.exp(slope)
    else:
        growth_ratio = 1.0
    return GammaDecayReport(
        alpha=float(alpha),
        delta=float(delta),
        levels=tuple(levels),
        k_values=tuple(k_values),
        sup_table=sup_table,
        normalized=normalized,
        per_level_max=tuple(float(v) for v in per_level),
        constant=float(np.max(per_level)),
        growth_ratio=growth_ratio,
        flagged=growth_ratio > 1.1,
    )


def br_apply_separable(
    f: SampledField,
    g: SampledField,
    piece: DyadicPiece,
    K: int,
    bump: BumpFunction,
) -> SampledField:
    """Rank-decomposed evaluation of one dyadic piece.

    Expands the slice multiplier in its t-Fourier series and truncates at
    |k| <= K, so the piece becomes gamma_0-band(f) * 1-band(g) plus twice
    the sum over k >= 1 of gamma_k-band(f) * cos(pi k .)-band(g).  Each
    factor is one linear band operator on the unit frequency ball; the
    constant in front is exactly one under this convention.  f and g are
    transformed once, so each k costs two inverse transforms.
    """
    if K < 1:
        raise ValueError(f"rank cutoff must satisfy K >= 1, got K={K}")
    grid = _require_same_grid(f, g)
    radii = grid.freq_radii()
    ball = radii <= 1.0
    in_ball = radii[ball]
    inside, rows = np.unique(in_ball, return_inverse=True)
    table = _coeff_table(piece, bump, inside, K)
    F = dft_forward(f).values
    G = dft_forward(g).values
    f_multiplier = np.zeros(grid.shape, dtype=np.complex128)
    g_multiplier = np.zeros(grid.shape, dtype=np.complex128)
    out = np.zeros(grid.shape, dtype=np.complex128)
    for k in range(K + 1):
        f_multiplier[ball] = table[rows, k]
        g_multiplier[ball] = np.cos(math.pi * k * in_ball)
        ff = dft_inverse(SampledField(grid, F * f_multiplier))
        gg = dft_inverse(SampledField(grid, G * g_multiplier))
        factor = 1.0 if k == 0 else 2.0
        out += factor * ff.values * gg.values
    return SampledField(grid, out)
