"""Restriction and band operators plus the bilinear evaluation paths.

Every bilinear route below realizes the same double sum over frequency pairs
sum_{xi, eta} W(|xi|^2 + |eta|^2) f-hat(xi) g-hat(eta) e^{2 pi i x.(xi+eta)}
with Riemann-sum measure weights.  W vanishes outside a ball, so one engine
sums over the pairs of lattice points inside it: the oracle path and the
dyadic pieces with exact radii, the binned radial path with radii snapped to
bin centres.  One-off applies weigh their pairs block by block; a pair plan
weighs them once and keeps only the nonzero-weight pairs, for operators
applied many times (the dyadic pieces).  The kernel path, an independent
cross-check, crosses over to physical space via the closed-form kernel.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .bessel import AccuracyWarning
from .grid import Grid, SampledField, dft_forward, dft_inverse
from .kernel import kernel_radial

#: cap on the pairs a path visits: in-ball frequency pairs, or kernel shells x points;
#: a pair plan holds 32 bytes per nonzero-weight pair, at most 32 x this (2 GiB)
DEFAULT_BUDGET = 1 << 26
#: most frequency pairs the engine weighs at once, which bounds its working memory;
#: a pair plan keeps the nonzero-weight pairs of all its blocks, 32 bytes each
_PAIR_BLOCK = 1 << 18


class BudgetError(RuntimeError):
    """The grid exceeds the configured cost cap for a quadratic path."""


@dataclass(frozen=True)
class MultiplierSpec:
    """Smoothness index and radius of the bilinear multiplier.

    The symbol is (1 - (|xi|^2 + |eta|^2)/radius^2)_+^alpha.  For alpha = 0
    this degenerates to the indicator of the closed ball; for alpha > 0 the
    boundary value is exactly 0.
    """

    alpha: float
    radius: float = 1.0

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError(f"smoothness index must satisfy alpha >= 0, got alpha={self.alpha}")
        if not self.radius > 0:
            raise ValueError(f"radius must be positive, got {self.radius}")

    def weight_of_square_sum(self, s_sq):
        """Multiplier value as a function of |xi|^2 + |eta|^2 (vectorized)."""
        u = 1.0 - np.asarray(s_sq, dtype=float) / self.radius**2
        if self.alpha == 0:
            return (u >= 0).astype(float)
        return np.where(u > 0, np.abs(u) ** self.alpha, 0.0)


@dataclass(frozen=True)
class BandSpec:
    """A bounded multiplier m supported on the radial band [a, b].

    ``m`` may be a vectorized callable on [a, b] or a scalar constant.
    """

    a: float
    b: float
    m: object

    def __post_init__(self):
        if not (0 <= self.a < self.b):
            raise ValueError(f"band must satisfy 0 <= a < b, got [{self.a}, {self.b}]")
        if not callable(self.m):
            constant = complex(self.m)
            object.__setattr__(
                self, "m", lambda r, _c=constant: np.full(np.shape(r), _c)
            )

    def sample(self, radii) -> np.ndarray:
        values = np.asarray(self.m(np.asarray(radii, dtype=float)))
        if not np.all(np.isfinite(values)):
            raise ValueError("band multiplier produced non-finite values")
        return values


def _require_same_grid(f: SampledField, g: SampledField) -> Grid:
    if f.grid != g.grid:
        raise ValueError("bilinear operands must share one grid")
    return f.grid


def _check_budget(pairs: int, budget: int) -> None:
    if pairs > budget:
        raise BudgetError(
            f"evaluation visits {pairs} pairs, over the budget of {budget};"
            " use a coarser grid or raise the budget explicitly"
        )


def _pair_blocks(grid: Grid, weight_of_square_sum, keep, radii_sq):
    """The pairs of the lattice points where ``keep`` holds, in dense blocks.

    ``radii_sq`` lists the kept points' squared radii in storage order.  A
    block is (first, second, weight, target) over every pair of a run of
    xi rows, at most ``_PAIR_BLOCK`` pairs: the index of xi (a column of
    rows) and of eta among the kept points, the pair weights and the flat
    targets xi + eta, in increasing xi order.
    """
    count = radii_sq.size
    points = np.nonzero(keep)
    rows = max(1, _PAIR_BLOCK // max(count, 1))
    for start in range(0, count, rows):
        block = slice(start, start + rows)
        weight = weight_of_square_sum(radii_sq[block, None] + radii_sq)
        target = [p[block, None] + p for p in points]
        target = np.ravel_multi_index(target, grid.shape, mode="wrap")
        yield (block, None), slice(None), weight, target


@dataclass(frozen=True, eq=False)
class PairPlan:
    """The nonzero-weight pairs of one weight on one grid, for repeated applies.

    Built by :func:`pair_plan`; ``count`` is the number P of kept lattice
    points, so an apply is charged P^2 pairs whatever the plan keeps.  Each
    block holds its pairs as index arrays, 32 bytes per pair (two point
    indices, a weight and a target).
    """

    grid: Grid
    support_radius: float
    keep: np.ndarray
    count: int
    blocks: tuple


def _in_ball(grid: Grid, support_radius: float):
    radii_sq = grid.freq_radii() ** 2
    keep = radii_sq <= float(support_radius) ** 2
    return keep, radii_sq[keep]


def pair_plan(
    grid: Grid, weight_of_square_sum, support_radius: float, budget: int = DEFAULT_BUDGET
) -> PairPlan:
    """Weigh the in-ball pairs once and keep those of nonzero weight.

    Pass the plan to :func:`bilinear_frequency_apply` in place of the weight
    to apply the same operator again without re-evaluating it; the outputs
    are bitwise those of the weight itself.  ``budget`` caps the P^2 pairs
    weighed, and the plan holds at most 32 bytes per pair of that budget.
    """
    keep, radii_sq = _in_ball(grid, support_radius)
    _check_budget(radii_sq.size**2, budget)
    blocks = []
    for (rows, _), _, weight, target in _pair_blocks(grid, weight_of_square_sum, keep, radii_sq):
        first, second = np.nonzero(weight)
        if first.size:
            kept = (first, second)
            blocks.append((first + rows.start, second, weight[kept], target[kept]))
    return PairPlan(grid, float(support_radius), keep, radii_sq.size, tuple(blocks))


def _pair_sum(f: SampledField, g: SampledField, keep, blocks) -> SampledField:
    """Scatter each block's pair products onto the running totals, then invert.

    Each target xi + eta sums its pair products in increasing xi order, and
    every block starts from the running totals, so the output bits depend
    neither on the block size nor on whether zero-weight pairs (which add
    a signed zero) are kept.
    """
    grid = f.grid
    F = dft_forward(f).values[keep]
    G = dft_forward(g).values[keep]
    lattice = np.arange(grid.N**grid.n)
    re = im = np.zeros(lattice.size)
    for first, second, weight, target in blocks:
        pairs = ((F[first] * weight) * G[second]).ravel()
        target = np.concatenate([lattice, target.ravel()])
        re = np.bincount(target, np.concatenate([re, pairs.real]))
        im = np.bincount(target, np.concatenate([im, pairs.imag]))
    acc = (re + 1j * im).reshape(grid.shape)
    # dft_inverse, then the pair measure 1/L^n, as one field
    scale = (grid.N / grid.L) ** grid.n
    return SampledField(grid, np.fft.ifftn(acc) * scale * complex(1.0 / grid.L**grid.n))


def bilinear_frequency_apply(
    f: SampledField,
    g: SampledField,
    weight_of_square_sum,
    support_radius: float,
    budget: int = DEFAULT_BUDGET,
) -> SampledField:
    """The frequency double sum over the P lattice points in a ball.

    ``weight_of_square_sum`` maps |xi|^2 + |eta|^2 (array) to multiplier
    values and must vanish beyond ``support_radius``^2; it is evaluated
    block by block, with at most ``_PAIR_BLOCK`` pairs in memory.  It may
    also be a :class:`PairPlan` built for this grid and radius, which
    applies without evaluating the weight and holds 32 bytes per
    nonzero-weight pair, at most 32 bytes times the P^2 budget it was
    built under; :func:`~brlab.decomposition.t_j_apply` keeps one plan
    alive at a time.  ``budget`` caps the P^2 pairs visited, on every
    call.  The result is bit-reproducible.
    """
    grid = _require_same_grid(f, g)
    if isinstance(weight_of_square_sum, PairPlan):
        plan = weight_of_square_sum
        if plan.grid != grid or plan.support_radius != float(support_radius):
            raise ValueError("pair plan was built for another grid or support radius")
        _check_budget(plan.count**2, budget)
        return _pair_sum(f, g, plan.keep, plan.blocks)
    keep, radii_sq = _in_ball(grid, support_radius)
    _check_budget(radii_sq.size**2, budget)
    return _pair_sum(f, g, keep, _pair_blocks(grid, weight_of_square_sum, keep, radii_sq))


def br_apply_oracle(
    f: SampledField, g: SampledField, spec: MultiplierSpec, budget: int = DEFAULT_BUDGET
) -> SampledField:
    """Reference bilinear evaluation: the frequency double sum over in-ball pairs."""
    return bilinear_frequency_apply(
        f, g, spec.weight_of_square_sum, support_radius=spec.radius, budget=budget
    )


def restriction(f: SampledField, lam: float, width: float) -> SampledField:
    """Annulus spectral slice approximating the sphere restriction-extension.

    Inverse transform of f-hat on lam - width/2 <= |xi| <= lam + width/2,
    divided by width; this approximates lam^{n-1} times the continuum
    sphere-extension of f-hat at radius lam, so summing width * restriction
    over a partition of bands reassembles f.
    """
    if not lam > 0:
        raise ValueError(f"restriction radius must be positive, got {lam}")
    spacing = 1.0 / f.grid.L
    if width < spacing * (1.0 - 1e-12):
        raise ValueError(
            f"annulus width {width} is below the frequency spacing {spacing}"
        )
    radii = f.grid.freq_radii()
    mask = np.abs(radii - lam) <= width / 2.0
    if not np.any(mask):
        warnings.warn(
            f"restriction annulus [{lam - width / 2.0:g}, {lam + width / 2.0:g}]"
            " contains no lattice frequencies; returning the zero field",
            AccuracyWarning,
            stacklevel=2,
        )
        return SampledField(f.grid, np.zeros(f.grid.shape))
    F = dft_forward(f).values
    return dft_inverse(SampledField(f.grid, F * mask)) * (1.0 / width)


def band_operator(f: SampledField, band: BandSpec) -> SampledField:
    """Radial band multiplier, applied exactly in frequency space."""
    radii = f.grid.freq_radii()
    mask = (radii >= band.a) & (radii <= band.b)
    multiplier = np.zeros(f.grid.shape, dtype=np.complex128)
    if np.any(mask):
        multiplier[mask] = band.sample(radii[mask])
    F = dft_forward(f).values
    return dft_inverse(SampledField(f.grid, F * multiplier))


def band_operator_quadrature(
    f: SampledField, band: BandSpec, nodes: int | None = None
) -> SampledField:
    """Band operator as a quadrature over restriction slices (the slow route).

    Approximates the integral of m(lam) times the lam-restriction against
    lam^{n-1} d(lam) by a midpoint rule with ``nodes`` bins; the multiplier
    is sampled at bin midpoints, so this converges to :func:`band_operator`
    as nodes grow.  Bin edges should avoid lattice radii (an edge radius is
    counted by both neighboring slices).
    """
    if nodes is None:
        nodes = max(128, math.ceil((band.b - band.a) * f.grid.L * 2))
    if nodes < 1:
        raise ValueError(f"need at least one quadrature bin, got {nodes}")
    width = (band.b - band.a) / nodes
    if width < 1.0 / f.grid.L:
        # merge bins so each slice satisfies the restriction width contract
        nodes = max(1, math.floor((band.b - band.a) * f.grid.L))
        width = (band.b - band.a) / nodes
    total = SampledField(f.grid, np.zeros(f.grid.shape))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AccuracyWarning)
        for i in range(nodes):
            mid = band.a + (i + 0.5) * width
            weight = complex(band.sample(np.asarray([mid]))[0])
            total = total + (width * weight) * restriction(f, mid, width)
    return total


def br_apply_radial(
    f: SampledField,
    g: SampledField,
    spec: MultiplierSpec,
    nodes: int | None = None,
    budget: int = DEFAULT_BUDGET,
) -> SampledField:
    """Bilinear evaluation with frequency radii binned into radial shells.

    With ``nodes=None`` every exact lattice radius is its own shell, which
    is the oracle's sum itself.  An integer ``nodes`` uses that many uniform
    bins on [0, radius) and snaps each frequency's radius to its bin centre
    before the pair is weighed; the resulting error falls off like 1/nodes,
    which is what the node-doubling convergence checks measure.  ``budget``
    caps the in-ball pairs visited, as for the oracle.
    """
    if nodes is None:
        return bilinear_frequency_apply(f, g, spec.weight_of_square_sum, spec.radius, budget)
    grid = _require_same_grid(f, g)
    if nodes < 1:
        raise ValueError(f"need at least one radial bin, got {nodes}")
    width = spec.radius / nodes
    bins = np.floor(grid.freq_radii() / width)
    keep = bins < nodes
    centres_sq = ((bins[keep] + 0.5) * width) ** 2
    _check_budget(centres_sq.size**2, budget)
    return _pair_sum(f, g, keep, _pair_blocks(grid, spec.weight_of_square_sum, keep, centres_sq))


def br_apply_kernel(
    f: SampledField, g: SampledField, spec: MultiplierSpec, budget: int = DEFAULT_BUDGET
) -> SampledField:
    """Bilinear evaluation as a double convolution with the closed-form kernel.

    out(x) = (L/N)^{2n} sum_{x1, x2} f(x - x1) g(x - x2) K(x1, x2), with the
    kernel sampled at minimum-image displacements.  K depends only on the
    squared radii of x1 and x2, a U x U table over the grid's U distinct
    squared radii, so the x1 sum groups into shells: shell u adds
    (f * 1_u)(g * K_u), with 1_u its indicator and K_u(x2) = K(u, |x2|^2),
    two circular convolutions by FFT; the budget is charged U N^n.
    Periodization of the slowly decaying kernel is the dominant error
    source, so agreement with the oracle path is at the percent level on
    desk-scale boxes.
    """
    grid = _require_same_grid(f, g)
    # squared minimum-image norm of every grid point, shared by both factors
    half = grid.N // 2
    signed = ((np.arange(grid.N) + half) % grid.N - half) * grid.spacing
    axes_sq = np.meshgrid(*([signed**2] * grid.n), indexing="ij")
    unique_sq, shell = np.unique(sum(axes_sq), return_inverse=True)
    shell = shell.reshape(grid.shape)  # numpy < 2 returns it flat
    _check_budget(unique_sq.size * grid.N**grid.n, budget)
    rho_table = np.sqrt(np.add.outer(unique_sq, unique_sq))
    kernel_table = kernel_radial(rho_table, spec.alpha, grid.n, spec.radius)
    F_hat = np.fft.fftn(f.values)
    G_hat = np.fft.fftn(g.values)
    out = np.zeros(grid.shape, dtype=np.complex128)
    for u, row in enumerate(kernel_table):
        inner = np.fft.ifftn(G_hat * np.fft.fftn(row[shell]))
        out += np.fft.ifftn(F_hat * np.fft.fftn(shell == u)) * inner
    return SampledField(grid, out * grid.cell_volume**2)
