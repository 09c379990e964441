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
#: a pair plan joins the nonzero-weight pairs of all its blocks into one set, 32 bytes each
_PAIR_BLOCK = 1 << 18
#: table rows per block of the kernel table's residual check
_RESIDUAL_ROWS = 32


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
    points, so an apply is charged P^2 pairs whatever the plan keeps.
    ``blocks`` holds one flat set of pairs (none when no weight is nonzero)
    as index arrays, 32 bytes per pair (two point indices, a weight and a
    target), in increasing xi order.
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
    weighed.  The pairs are weighed in blocks of at most ``_PAIR_BLOCK``
    and joined into one flat set, one field at a time, so the plan holds
    32 bytes per kept pair (at most 32 bytes per pair of the budget) and
    its build at most 8 more.
    """
    keep, radii_sq = _in_ball(grid, support_radius)
    _check_budget(radii_sq.size**2, budget)
    fields = [[], [], [], []]
    for (rows, _), _, weight, target in _pair_blocks(grid, weight_of_square_sum, keep, radii_sq):
        kept = np.nonzero(weight)
        for field, part in zip(fields, (kept[0] + rows.start, kept[1], weight[kept], target[kept])):
            field.append(part)
    # a field's parts go as soon as they are joined: at most 8 extra bytes per kept pair
    flat = tuple(np.concatenate(fields.pop(0)) for _ in range(4))
    blocks = (flat,) if flat[0].size else ()
    return PairPlan(grid, float(support_radius), keep, radii_sq.size, blocks)


def _pair_sum(f: SampledField, g: SampledField, keep, blocks) -> SampledField:
    """Scatter the blocks' pair products onto the lattice totals, then invert.

    The first block is scattered onto fresh totals (``np.bincount`` starts
    each at +0.0), with no running totals to copy; each later block onto the
    running totals, placed first.  So every target xi + eta sums its pair
    products in increasing xi order from +0.0, never reaching -0.0, and the
    output bits depend neither on the block size nor on whether zero-weight
    pairs (which add a signed zero) are kept.
    """
    grid = f.grid
    F = dft_forward(f).values[keep]
    G = dft_forward(g).values[keep]
    size = grid.N**grid.n
    acc = np.zeros(size, dtype=np.complex128)
    for later, (first, second, weight, target) in enumerate(blocks):
        pairs = ((F[first] * weight) * G[second]).ravel()
        if later:
            target = np.concatenate([np.arange(size), target.ravel()])
            pairs = np.concatenate([acc, pairs])
        acc.real = np.bincount(target.ravel(), pairs.real, size)
        acc.imag = np.bincount(target.ravel(), pairs.imag, size)
    ifft = np.fft.ifft if grid.n == 1 else np.fft.ifftn
    # dft_inverse, then the pair measure 1/L^n, as one field
    scale = (grid.N / grid.L) ** grid.n
    return SampledField(grid, ifft(acc.reshape(grid.shape)) * scale * complex(1.0 / grid.L**grid.n))


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
    applies without evaluating the weight: its one flat set of 32 bytes per
    nonzero-weight pair (at most 32 bytes times the P^2 budget it was built
    under) is scattered at once, with no running totals.
    :func:`~brlab.decomposition.t_j_apply` keeps one plan alive at a time.
    ``budget`` caps the P^2 pairs visited, on every call.  The result is
    bit-reproducible.
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
    nodes: int,
    budget: int = DEFAULT_BUDGET,
) -> SampledField:
    """Bilinear evaluation with frequency radii binned into radial shells.

    ``nodes`` uniform bins on [0, radius): each frequency's radius is
    snapped to its bin centre before the pair is weighed, so the error
    against :func:`br_apply_oracle` falls off like 1/nodes, which is what
    the node-doubling convergence checks measure.  ``budget`` caps the
    in-ball pairs visited, as for the oracle.
    """
    grid = _require_same_grid(f, g)
    if nodes < 1:
        raise ValueError(f"need at least one radial bin, got {nodes}")
    width = spec.radius / nodes
    bins = np.floor(grid.freq_radii() / width)
    keep = bins < nodes
    centres_sq = ((bins[keep] + 0.5) * width) ** 2
    _check_budget(centres_sq.size**2, budget)
    return _pair_sum(f, g, keep, _pair_blocks(grid, spec.weight_of_square_sum, keep, centres_sq))


def _low_rank(table: np.ndarray, radii: np.ndarray):
    """Eigenpairs (lam, V) with max|table - V diag(lam) V^T| <= U eps max|table|.

    Rayleigh-Ritz on the table columns at evenly spaced shell radii,
    doubling their count until the residual meets the bound; each round
    costs O(U^2 k).  Once the count passes U/2 the whole table is factored
    outright, at O(U^3) cost, which ends the loop.  Terms with |lam| at or
    below the bound are dropped.
    """
    size = table.shape[0]
    bound = size * np.finfo(float).eps * np.max(np.abs(table))
    columns = 32
    while True:
        whole = 2 * columns > size
        if whole:
            lam, V = np.linalg.eigh(table)
        else:
            picked = np.unique(np.searchsorted(radii, np.linspace(0.0, radii[-1], columns)))
            basis = np.linalg.qr(table[:, picked])[0]
            lam, ritz = np.linalg.eigh(basis.T @ (table @ basis))
            V = basis @ ritz
        kept = np.abs(lam) > bound
        lam, V = lam[kept], V[:, kept]
        # while every Ritz value is kept the basis has not found the rank yet
        if whole or not kept.all():
            residual = 0.0
            for start in range(0, size, _RESIDUAL_ROWS):
                rows = slice(start, start + _RESIDUAL_ROWS)
                residual = max(residual, np.max(np.abs(table[rows] - (V[rows] * lam) @ V.T)))
                if residual > bound and not whole:
                    break  # this round fails; the next doubles the columns
            if residual <= bound or whole:
                break
        columns *= 2
    if residual > bound:
        warnings.warn(
            f"kernel shell table factored to residual {residual:.3g},"
            f" over its bound U eps max|K| = {bound:.3g}",
            AccuracyWarning,
            stacklevel=3,
        )
    return lam, V


def _shell_table(unique_sq: np.ndarray, spec: MultiplierSpec, n: int) -> np.ndarray:
    """K(x1, x2) at every pair of shells, as a symmetric U x U table.

    kernel_radial runs once per distinct |x1|^2 + |x2|^2, found on the
    upper triangle only: a + b == b + a in floating point, so its sums are
    those of the whole table, and so are the kernel values.
    """
    first, second = np.triu_indices(unique_sq.size)
    upper = unique_sq[first] + unique_sq[second]
    sums = np.unique(upper)
    values = kernel_radial(np.sqrt(sums), spec.alpha, n, spec.radius)
    values = values[np.searchsorted(sums, upper)]
    table = np.empty((unique_sq.size, unique_sq.size))
    table[first, second] = values
    table[second, first] = values
    return table


def br_apply_kernel(
    f: SampledField, g: SampledField, spec: MultiplierSpec, budget: int = DEFAULT_BUDGET
) -> SampledField:
    """Bilinear evaluation as a double convolution with the closed-form kernel.

    out(x) = (L/N)^{2n} sum_{x1, x2} f(x - x1) g(x - x2) K(x1, x2), with the
    kernel sampled at minimum-image displacements.  K depends only on the
    squared radii of x1 and x2, a U x U table over the grid's U distinct
    squared radii (shells), built with one kernel evaluation per distinct
    |x1|^2 + |x2|^2; the budget is charged U N^n.  The table is factored
    once as V diag(lam) V^T at O(U^2 r) cost, keeping the r terms with
    |lam| > U eps max|K| (r = 16 against U = 457 on a 64 x 64 grid with
    L = 8), and max|K - V diag(lam) V^T| <= U eps max|K| is checked on every
    call, with an AccuracyWarning where it fails.  Term r adds
    lam_r (f * v_r)(g * v_r), v_r spread over the grid by shell: two circular
    convolutions by FFT, 3r + 2 transforms in all.  Where the rank is
    near U (1-D boxes long against N) the table is factored whole, at
    O(U^3) cost.
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
    lam, V = _low_rank(_shell_table(unique_sq, spec, grid.n), np.sqrt(unique_sq))
    F_hat = np.fft.fftn(f.values)
    G_hat = np.fft.fftn(g.values)
    out = np.zeros(grid.shape, dtype=np.complex128)
    for weight, term in zip(lam, V.T):
        term_hat = np.fft.fftn(term[shell])
        out += weight * np.fft.ifftn(F_hat * term_hat) * np.fft.ifftn(G_hat * term_hat)
    return SampledField(grid, out * grid.cell_volume**2)
