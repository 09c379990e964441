"""Dyadic decomposition of the bilinear means and its separable expansion.

The multiplier is sliced along level sets of u = 1 - |xi|^2 - |eta|^2 by a
smooth dyadic partition of unity: piece j lives where u is comparable to
2^{-j}.  Each slice multiplier, viewed as a 2-periodic function of one
radial variable, has rapidly decaying Fourier coefficients; truncating that
series turns the bilinear piece into a short sum of products of two linear
band operators, which is the separable evaluation path.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from ._fit import least_squares_slope
from .grid import SampledField, dft_forward, dft_inverse
from .operators import DEFAULT_BUDGET, _require_same_grid, bilinear_frequency_apply

#: nodes of the uniform t-quadrature behind every coefficient computation
COEFF_GRID = 4096
#: nodes of the bump's interpolation table
_BUMP_TABLE = 8193


class BumpFunction:
    """Smooth dyadic partition profile, tabulated with cubic interpolation.

    The profile is supported on [1/2, 2], nonnegative, and normalized so
    that sum over j in Z of value(2^j s) is exactly 1 for every s > 0.
    Construction tabulates the normalized values densely and interpolation
    stays within ~1e-13 of them, so partition checks at 1e-10 pass with
    margin.
    """

    support = (0.5, 2.0)

    def __init__(self, table_s: np.ndarray, table_phi: np.ndarray):
        self.table_s = np.asarray(table_s, dtype=float)
        self.table_phi = np.asarray(table_phi, dtype=float)
        self.table_s.flags.writeable = False
        self.table_phi.flags.writeable = False
        self._spline = CubicSpline(self.table_s, self.table_phi, bc_type="natural")

    def __call__(self, s):
        s_arr = np.asarray(s, dtype=float)
        scalar = s_arr.ndim == 0
        s_arr = np.atleast_1d(s_arr)
        out = np.zeros_like(s_arr)
        lo, hi = self.support
        inside = (s_arr > lo) & (s_arr < hi)
        if np.any(inside):
            out[inside] = np.maximum(self._spline(s_arr[inside]), 0.0)
        return float(out[0]) if scalar else out


def _raw_profile(s: np.ndarray) -> np.ndarray:
    """exp(-1/((s - 1/2)(2 - s))) inside (1/2, 2), zero outside."""
    out = np.zeros_like(s)
    inside = (s > 0.5) & (s < 2.0)
    gap = (s[inside] - 0.5) * (2.0 - s[inside])
    out[inside] = np.exp(-1.0 / gap)
    return out


def make_bump() -> BumpFunction:
    """Build the normalized partition profile.

    Normalizes the raw compactly supported profile by its own dyadic sum,
    which is multiplicatively 2-periodic, so the partition identity holds
    by construction at the table nodes.
    """
    s = np.linspace(0.5, 2.0, _BUMP_TABLE)
    dyadic_sum = np.zeros_like(s)
    for j in range(-3, 4):
        dyadic_sum += _raw_profile((2.0**j) * s)
    values = np.zeros_like(s)
    positive = dyadic_sum > 0
    values[positive] = _raw_profile(s[positive]) / dyadic_sum[positive]
    return BumpFunction(s, values)


@dataclass(frozen=True)
class DyadicPiece:
    """One slice of the decomposition: level j at smoothness alpha."""

    j: int
    alpha: float

    def __post_init__(self):
        if int(self.j) != self.j or self.j < 0:
            raise ValueError(f"level must be an integer >= 0, got j={self.j}")
        if not self.alpha > 0:
            raise ValueError(f"smoothness must satisfy alpha > 0, got {self.alpha}")


def phi_j_alpha(s, t, piece: DyadicPiece, bump: BumpFunction):
    """Slice multiplier (1 - s^2 - t^2)_+^alpha bump(2^j (1 - s^2 - t^2))."""
    s_arr = np.asarray(s, dtype=float)
    t_arr = np.asarray(t, dtype=float)
    scalar = s_arr.ndim == 0 and t_arr.ndim == 0
    u = 1.0 - np.atleast_1d(s_arr) ** 2 - np.atleast_1d(t_arr) ** 2
    out = np.where(u > 0, np.abs(u) ** piece.alpha, 0.0) * bump((2.0**piece.j) * u)
    return float(out.ravel()[0]) if scalar else out


def slice_weight_of_square_sum(piece: DyadicPiece, bump: BumpFunction):
    """The slice multiplier as a function of |xi|^2 + |eta|^2 (vectorized)."""

    def weight(s_sq):
        u = 1.0 - np.asarray(s_sq, dtype=float)
        return np.where(u > 0, np.abs(u) ** piece.alpha, 0.0) * bump((2.0**piece.j) * u)

    return weight


def t_j_apply(
    f: SampledField,
    g: SampledField,
    piece: DyadicPiece,
    bump: BumpFunction,
    budget: int = DEFAULT_BUDGET,
) -> SampledField:
    """One dyadic piece of the bilinear operator, by the frequency double sum."""
    return bilinear_frequency_apply(
        f, g, slice_weight_of_square_sum(piece, bump), support_radius=1.0, budget=budget
    )


def _coeff_table(piece: DyadicPiece, bump: BumpFunction, s_values, k_max: int) -> np.ndarray:
    """Coefficients gamma_{j,k}(s) for all 0 <= k <= k_max at once.

    Uniform-grid quadrature in t with COEFF_GRID nodes; the integrand
    vanishes at t = +-1, so the rfft below IS the trapezoid rule of the
    defining integral, evaluated for every k simultaneously.
    """
    if k_max > COEFF_GRID // 2:
        raise ValueError(f"k_max={k_max} exceeds the coefficient grid's range")
    s_arr = np.atleast_1d(np.asarray(s_values, dtype=float))
    t = -1.0 + 2.0 * np.arange(COEFF_GRID) / COEFF_GRID
    integrand = phi_j_alpha(
        np.abs(s_arr)[:, None], np.abs(t)[None, :], piece, bump
    )
    spectrum = np.fft.rfft(integrand, axis=1)[:, : k_max + 1].real
    signs = (-1.0) ** np.arange(k_max + 1)
    return spectrum * signs[None, :] / COEFF_GRID


def gamma_coeff(piece: DyadicPiece, k: int, s: float, bump: BumpFunction) -> float:
    """Fourier coefficient (period 2) of the slice multiplier in t, at one s.

    Real, and even in both k and s.
    """
    if abs(s) > 1.0:
        raise ValueError(f"radial variable must satisfy |s| <= 1, got s={s}")
    return float(_coeff_table(piece, bump, [abs(s)], abs(int(k)))[0, abs(int(k))])


@dataclass(frozen=True)
class GammaTable:
    """Tabulated slice coefficients over a grid of radial values s.

    ``values[i, k]`` is gamma_{j,k}(s_values[i]) for k >= 0; negative k
    mirror by evenness.
    """

    j: int
    alpha: float
    k_max: int
    s_values: tuple[float, ...]
    values: np.ndarray

    @classmethod
    def build(
        cls, piece: DyadicPiece, bump: BumpFunction, k_max: int, s_values=None
    ) -> "GammaTable":
        if s_values is None:
            s_values = np.linspace(0.0, 1.0, 257)
        table = _coeff_table(piece, bump, s_values, k_max)
        table.flags.writeable = False
        return cls(
            j=piece.j,
            alpha=piece.alpha,
            k_max=int(k_max),
            s_values=tuple(float(s) for s in np.atleast_1d(s_values)),
            values=table,
        )

    def sup_over_s(self, k: int) -> float:
        return float(np.max(np.abs(self.values[:, abs(int(k))])))


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
    sup_rows = []
    for j in levels:
        table = GammaTable.build(DyadicPiece(j, alpha), bump, k_max)
        sup_rows.append([table.sup_over_s(k) for k in k_values])
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


def gamma_report_csv(report: GammaDecayReport, path) -> None:
    """Write rows (j, k, sup_gamma, normalized) of a decay report."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["j", "k", "sup_gamma", "normalized"])
        for i, j in enumerate(report.levels):
            for c, k in enumerate(report.k_values):
                writer.writerow(
                    [
                        j,
                        k,
                        repr(float(report.sup_table[i, c])),
                        repr(float(report.normalized[i, c])),
                    ]
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
