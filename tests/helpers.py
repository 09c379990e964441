"""Shared test utilities: slow reference sums, error metrics, CLI artifacts."""

import csv
import math
import os

import numpy as np
from scipy.special import roots_legendre

from brlab import kernel
from brlab.bessel import _point_radius, roots_jacobi, sphere_ft
from brlab.cli import main
from brlab.decomposition import _coeff_table
from brlab.grid import Grid, SampledField, dft_forward, dft_inverse
from brlab.kernel import _auto_nodes, _polar_angle_rule, _slice_edges, kernel_radial


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


def polar_kj_kernel(pt, piece, n: int, bump, radial_nodes: int = 512) -> float:
    """Piece kernel K_j(x1, x2) by polar double quadrature of sphere transforms.

    The independent check of ``brlab.kernel.kj_kernel``'s 1-D radial route:
    integrates m_j(r) phi_{r cos th}(x1) phi_{r sin th}(x2) (r cos th)^{n-1}
    (r sin th)^{n-1} r dr dth, with m_j = (1 - r^2)^alpha bump(2^j (1 - r^2)),
    by Gauss-Legendre on the slice annulus (at least ``radial_nodes`` nodes,
    more as rho grows) and one Gauss-Legendre angular rule for every radius,
    of ``_auto_nodes(None, rho * r_hi)`` nodes.
    """
    j, alpha = int(piece.j), float(piece.alpha)
    r_lo, r_hi = _slice_edges(j)
    if not r_hi > r_lo:
        return 0.0
    G_r = max(radial_nodes, 16 + math.ceil(3.6 * (r_hi - r_lo) * pt.rho))
    t, w = roots_legendre(G_r)
    r = r_lo + (r_hi - r_lo) * (t + 1.0) / 2.0
    u = 1.0 - r**2
    profile = u**alpha * np.asarray(bump((2.0**j) * u)) * r ** (2 * n - 1)
    cos_t, sin_t, theta_w = _polar_angle_rule(_auto_nodes(None, pt.rho * r_hi), n)

    def table(trig, x):
        return sphere_ft(np.outer(r, trig).ravel(), x, n).reshape(G_r, len(trig))

    pair = (table(cos_t, pt.x1) * table(sin_t, pt.x2)) @ theta_w
    return float((r_hi - r_lo) / 2.0 * np.sum(w * profile * pair))


def uniform_angle_quadrature(pt, alpha, n, nodes=None, radius=1.0):
    """``brlab.kernel.kernel_quadrature`` with one angular rule of G nodes at every radius.

    G is the radial node count of ``kernel_quadrature``, and the table is
    built and reduced in the same blocks of radial rows, so where every
    radius of ``kernel_quadrature`` gets the G-node angular rule the two
    give the same bits.  Returns the value and, as its scale, the same
    quadrature of the integrand's absolute value (every weight is positive).
    """
    G = _auto_nodes(nodes, radius * pt.rho)
    t, w = roots_jacobi(G, alpha, 0.0)
    r = radius * (t + 1.0) / 2.0
    smooth = (1.0 + r / radius) ** alpha * r ** (2 * n - 1)
    cos_t, _, theta_w = _polar_angle_rule(G, n)
    same = _point_radius(pt.x2) == _point_radius(pt.x1)
    angular, absolute = np.empty(G), np.empty(G)
    rows = max(1, kernel._TABLE_BLOCK // G)
    for start in range(0, G, rows):
        block = slice(start, start + rows)
        lam = np.outer(r[block], cos_t).ravel()
        first = sphere_ft(lam, pt.x1, n).reshape(-1, G)
        second = first if same else sphere_ft(lam, pt.x2, n).reshape(-1, G)
        product = first * second[:, ::-1]
        angular[block] = product @ theta_w
        absolute[block] = np.abs(product) @ theta_w
    radial_factor = (radius / 2.0) * 2.0 ** (-alpha)
    return (float(radial_factor * np.sum(w * smooth * angular)),
            float(radial_factor * np.sum(w * smooth * absolute)))


def shell_radii(grid: Grid) -> np.ndarray:
    """The distinct minimum-image radii of the grid points (the shells), increasing."""
    return np.sqrt(np.unique(sum(d**2 for d in grid.wrapped_delta([0.0] * grid.n))))


def shell_table(grid: Grid, spec):
    """Shell index of every grid point and the full U x U kernel table over the shells.

    Shells are the distinct squared minimum-image radii, in increasing order;
    entry (u, u') is ``kernel_radial`` at sqrt(s_u + s_u'), evaluated entry
    by entry.
    """
    half = grid.N // 2
    signed = ((np.arange(grid.N) + half) % grid.N - half) * grid.spacing
    unique_sq, shell = np.unique(sum(np.meshgrid(*([signed**2] * grid.n), indexing="ij")),
                                 return_inverse=True)
    table = kernel_radial(np.sqrt(np.add.outer(unique_sq, unique_sq)), spec.alpha, grid.n,
                          spec.radius)
    return shell.reshape(grid.shape), table


def full_table_kernel_apply(f: SampledField, g: SampledField, spec) -> np.ndarray:
    """``brlab.operators.br_apply_kernel``'s shell sum on its full U x U table.

    Evaluates ``kernel_radial`` at every (shell, shell) entry and adds one
    term per shell u, (f * 1_u)(g * K_u) with K_u(x2) = K(u, |x2|^2), by
    4U + 2 FFTs, with no factorization.
    """
    grid = f.grid
    shell, table = shell_table(grid, spec)
    F_hat, G_hat = np.fft.fftn(f.values), np.fft.fftn(g.values)
    out = np.zeros(grid.shape, dtype=np.complex128)
    for u, row in enumerate(table):
        inner = np.fft.ifftn(G_hat * np.fft.fftn(row[shell]))
        out += np.fft.ifftn(F_hat * np.fft.fftn(shell == u)) * inner
    return out * grid.cell_volume**2


def separable_by_fields(f: SampledField, g: SampledField, piece, K: int) -> np.ndarray:
    """``br_apply_separable``'s sum with every factor a field of its own.

    Each term's two band operators go through
    ``dft_inverse(SampledField(...))``, with its finiteness scan and copy:
    the reference the raw-array terms must match bit for bit.
    """
    grid = f.grid
    radii = grid.freq_radii()
    ball = radii <= 1.0
    inside, rows = np.unique(radii[ball], return_inverse=True)
    table = _coeff_table(piece, inside, K)
    F, G = dft_forward(f).values, dft_forward(g).values
    out = np.zeros(grid.shape, dtype=np.complex128)
    for k in range(K + 1):
        f_multiplier = np.zeros(grid.shape, dtype=np.complex128)
        g_multiplier = np.zeros(grid.shape, dtype=np.complex128)
        f_multiplier[ball] = table[rows, k]
        g_multiplier[ball] = np.cos(math.pi * k * radii[ball])
        ff = dft_inverse(SampledField(grid, F * f_multiplier))
        gg = dft_inverse(SampledField(grid, G * g_multiplier))
        out += (1.0 if k == 0 else 2.0) * ff.values * gg.values
    return out


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


def cli_artifact(argv, root, name):
    """Run the CLI into ``root``; return the path of ``name`` in its run dir."""
    assert main(list(argv) + ["--outdir", str(root)]) == 0
    (run_dir,) = os.listdir(root)
    return os.path.join(str(root), run_dir, name)


def read_csv_rows(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))
