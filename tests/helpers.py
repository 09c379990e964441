"""Shared test utilities: slow reference sums and error metrics."""

import numpy as np

from brlab.grid import Grid, SampledField
from brlab.kernel import kernel_radial


def slow_dft_forward(f: SampledField) -> np.ndarray:
    """Direct O(N^{2n}) Riemann sum of the defining transform integral.

    Independent of the FFT route: loops over frequency-lattice points and
    sums (L/N)^n f(x_k) exp(-2 pi i x_k . xi) explicitly.
    """
    grid = f.grid
    coords = grid.coord_arrays()
    freq_axes = [grid.axis_freqs()] * grid.n
    out = np.empty(grid.shape, dtype=np.complex128)
    for idx in np.ndindex(*grid.shape):
        xi = [freq_axes[a][idx[a]] for a in range(grid.n)]
        phase = sum(coords[a] * xi[a] for a in range(grid.n))
        out[idx] = np.sum(f.values * np.exp(-2j * np.pi * phase))
    return out * grid.cell_volume


def literal_pair_sum(f: SampledField, g: SampledField, weight_of_radii, radius: float):
    """The bilinear frequency double sum over in-ball pairs, term by term.

    Loops over every pair (xi, eta) of lattice points with |xi|, |eta| <=
    ``radius`` and adds L^{-2n} W(|xi|, |eta|) f-hat(xi) g-hat(eta)
    e^{2 pi i x.(xi + eta)} at all sample points x, with the spectra from
    :func:`slow_dft_forward`: no FFT and no shared code with the operators.

    Returns the sum and its a-priori scale L^{-2n} sum|W| max|F| max|G|,
    with max|F| bounded by (L/N)^n sum|f|.  The scale bounds the sum for any
    operands of these magnitudes, so an error relative to it stays a small
    multiple of the machine epsilon for every correct evaluation, even
    where the exact sum is zero.
    """
    grid = f.grid
    F = slow_dft_forward(f)
    G = slow_dft_forward(g)
    coords = grid.coord_arrays()
    freqs = grid.freq_arrays()
    radii = np.sqrt(sum(a**2 for a in freqs))
    points = [idx for idx in np.ndindex(*grid.shape) if radii[idx] <= radius]
    waves = {
        idx: np.exp(2j * np.pi * sum(coords[a] * freqs[a][idx] for a in range(grid.n)))
        for idx in points
    }
    out = np.zeros(grid.shape, dtype=np.complex128)
    weight_sum = 0.0
    for xi in points:
        for eta in points:
            w = float(weight_of_radii(radii[xi], radii[eta]))
            out += (w * F[xi] * G[eta]) * waves[xi] * waves[eta]
            weight_sum += abs(w)
    cell = grid.cell_volume
    scale = weight_sum * cell * np.sum(np.abs(f.values)) * cell * np.sum(np.abs(g.values))
    return out / grid.L ** (2 * grid.n), float(scale) / grid.L ** (2 * grid.n)


def literal_kernel_sum(f: SampledField, g: SampledField, spec, point_sq=None):
    """The physical-space double sum of the kernel path, pair by pair.

    Adds (L/N)^{2n} K(x1, x2) f(x - x1) g(x - x2) for every pair (x1, x2) of
    grid points, with K from :func:`brlab.kernel.kernel_radial` at
    rho = sqrt(|x1|^2 + |x2|^2) and |x|^2 the squared minimum-image norm
    (``point_sq`` overrides it, flattened): no FFT and no shared code with
    the operators.  Returns the sum and its a-priori scale
    (L/N)^{2n} sum|K| max|f| max|g|, as :func:`literal_pair_sum` does.
    """
    grid = f.grid
    if point_sq is None:
        point_sq = sum(d**2 for d in grid.wrapped_delta([0.0] * grid.n)).ravel()
    rho = np.sqrt(np.add.outer(point_sq, point_sq))
    kernel = kernel_radial(rho, spec.alpha, grid.n, spec.radius)
    points = list(np.ndindex(*grid.shape))
    axes = tuple(range(grid.n))
    out = np.zeros(grid.shape, dtype=np.complex128)
    for a, x1 in enumerate(points):
        f_shift = np.roll(f.values, x1, axis=axes)
        for b, x2 in enumerate(points):
            out += kernel[a, b] * f_shift * np.roll(g.values, x2, axis=axes)
    cell = grid.cell_volume
    scale = np.sum(np.abs(kernel)) * np.max(np.abs(f.values)) * np.max(np.abs(g.values))
    return out * cell**2, float(scale * cell**2)


def rel_l2(actual: np.ndarray, expected: np.ndarray) -> float:
    """Relative l2 error, guarded against a zero reference."""
    denom = np.linalg.norm(np.ravel(expected))
    if denom == 0:
        return float(np.linalg.norm(np.ravel(actual)))
    return float(np.linalg.norm(np.ravel(actual - expected)) / denom)


def random_field(grid: Grid, seed: int) -> SampledField:
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    return SampledField(grid, values)
