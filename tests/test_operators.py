"""Tests for restriction, band operators, and the bilinear paths."""

import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from brlab.bessel import AccuracyWarning, sphere_ft
from brlab.grid import (
    Grid,
    SampledField,
    dft_forward,
    dft_inverse,
    lp_norm,
    make_test_field,
)
from brlab.decomposition import DyadicPiece, make_bump, phi_j_alpha, t_j_apply
from brlab import operators
from brlab.operators import (
    DEFAULT_BUDGET,
    BandSpec,
    BudgetError,
    MultiplierSpec,
    band_operator,
    band_operator_quadrature,
    bilinear_frequency_apply,
    br_apply_kernel,
    br_apply_oracle,
    br_apply_radial,
    restriction,
)
from helpers import (
    full_table_kernel_apply,
    literal_kernel_sum,
    literal_pair_sum,
    random_field,
    rel_l2,
    shell_radii,
    shell_table,
)

GRID_1D = Grid(1, 256, 16.0)


def count_transforms(monkeypatch) -> list:
    """Patch ``np.fft.fftn`` and ``ifftn`` to log each call in the returned list."""
    calls = []
    for name in ("fftn", "ifftn"):
        def counted(*args, _fft=getattr(np.fft, name), _name=name, **kwargs):
            calls.append(_name)
            return _fft(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls


def delta_field(grid: Grid) -> SampledField:
    values = np.zeros(grid.shape, dtype=np.complex128)
    values[(0,) * grid.n] = (grid.N / grid.L) ** grid.n
    return SampledField(grid, values)


def gaussian_pair(grid: Grid) -> tuple[SampledField, SampledField]:
    f = make_test_field("gaussian", {"width": 1.0}, grid)
    g = make_test_field("gaussian", {"width": 1.5, "center": (7.0,) * grid.n}, grid)
    return f, g


class TestMultiplierSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            MultiplierSpec(alpha=-0.5)
        with pytest.raises(ValueError):
            MultiplierSpec(alpha=1.0, radius=0.0)

    def test_boundary_handling(self):
        spec = MultiplierSpec(alpha=2.0)
        assert spec.weight_of_square_sum(np.array([1.0]))[0] == 0.0
        assert spec.weight_of_square_sum(np.array([1.2]))[0] == 0.0
        assert spec.weight_of_square_sum(np.array([0.5]))[0] == 0.25
        # alpha = 0 keeps the closed ball
        ball = MultiplierSpec(alpha=0.0)
        assert ball.weight_of_square_sum(np.array([1.0]))[0] == 1.0
        assert ball.weight_of_square_sum(np.array([1.0 + 1e-9]))[0] == 0.0


class TestRestriction:
    def test_empty_annulus_warns_and_returns_zero(self):
        # the lattice tops out at |xi| = 8, so an annulus around 9 is empty
        f = random_field(GRID_1D, seed=1)
        with pytest.warns(AccuracyWarning):
            out = restriction(f, 9.0, 1.0 / 16.0)
        assert np.all(out.values == 0)

    def test_band_limited_output(self):
        f = random_field(GRID_1D, seed=2)
        out = restriction(f, 2.0, 0.25)
        radii = GRID_1D.freq_radii()
        spectrum = dft_forward(out).values
        outside = np.abs(radii - 2.0) > 0.125
        assert np.max(np.abs(spectrum[outside])) < 1e-12

    def test_spectrum_outside_annulus_gives_zero(self):
        f = make_test_field("band_limited_random", {"band": (3.0, 4.0)}, GRID_1D, seed=3)
        out = restriction(f, 1.0, 1.0 / 16.0)
        assert np.max(np.abs(out.values)) < 1e-12

    def test_linearity(self):
        f = random_field(GRID_1D, seed=4)
        g = random_field(GRID_1D, seed=5)
        lhs = restriction(2.0 * f + (-1.5) * g, 1.5, 0.25)
        rhs = 2.0 * restriction(f, 1.5, 0.25) + (-1.5) * restriction(g, 1.5, 0.25)
        assert rel_l2(lhs.values, rhs.values) < 1e-12

    def test_delta_matches_sphere_transform_1d(self):
        # n=1 at lattice radii the annulus holds exactly two frequencies,
        # so the slice equals the two-point sphere transform to round-off
        grid = GRID_1D
        out = restriction(delta_field(grid), 1.0, 1.0 / grid.L)
        x = grid.axis_coords()
        x = np.where(x <= grid.L / 2, x, x - grid.L)
        exact = np.array([sphere_ft(1.0, xi, 1) for xi in x])
        assert np.max(np.abs(out.values - exact)) < 1e-12

    def test_delta_approaches_sphere_transform_2d(self):
        # the annulus average tends to the sphere transform as the lattice
        # refines at fixed physical point; error roughly halves per doubling
        errs = []
        for N, L in [(64, 8.0), (128, 16.0)]:
            grid = Grid(2, N, L)
            out = restriction(delta_field(grid), 1.0, 1.0 / L)
            idx = (int(N / L), int(N / L))  # physical point (1, 1)
            exact = sphere_ft(1.0, [1.0, 1.0], 2)
            errs.append(abs(out.values[idx].real - exact))
        assert errs[1] < 0.6 * errs[0]

    def test_bin_sum_reassembles_field(self):
        grid = GRID_1D
        f = make_test_field("gaussian", {"width": 1.0}, grid)
        width = 1.0 / grid.L
        total = SampledField(grid, np.zeros(grid.shape))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AccuracyWarning)
            for k in range(1, grid.N // 2 + 1):
                total = total + width * restriction(f, k / grid.L, width)
        F = dft_forward(f).values
        dc = np.zeros(grid.shape, dtype=np.complex128)
        dc[0] = F[0]
        total = total + dft_inverse(SampledField(grid, dc))
        assert rel_l2(total.values, f.values) < 1e-12

    def test_rejects_bad_inputs(self):
        f = random_field(GRID_1D, seed=6)
        with pytest.raises(ValueError):
            restriction(f, -1.0, 0.25)
        with pytest.raises(ValueError):
            restriction(f, 1.0, 1.0 / 32.0)


class TestBandOperator:
    def test_zero_multiplier(self):
        f = random_field(GRID_1D, seed=7)
        out = band_operator(f, BandSpec(0.0, 2.0, 0.0))
        assert np.max(np.abs(out.values)) == 0.0

    def test_identity_on_covered_band(self):
        f = make_test_field("band_limited_random", {"band": (0.5, 3.0)}, GRID_1D, seed=8)
        out = band_operator(f, BandSpec(0.25, 4.0, 1.0))
        assert rel_l2(out.values, f.values) < 1e-10

    def test_l2_contraction_by_sup(self):
        rng = np.random.default_rng(9)
        for seed in range(3):
            f = random_field(GRID_1D, seed=10 + seed)
            scale = float(rng.uniform(0.2, 3.0))
            band = BandSpec(0.0, 8.5, lambda r, s=scale: s * np.sin(r) ** 2)
            out = band_operator(f, band)
            assert lp_norm(out, 2) <= scale * lp_norm(f, 2) * (1 + 1e-12)

    def test_quadrature_route_converges_to_production(self):
        f = make_test_field("band_limited_random", {"band": (0.5, 3.0)}, GRID_1D, seed=11)
        band = BandSpec(0.31, 3.47, lambda r: np.cos(1.7 * r) + 0.3)
        prod = band_operator(f, band)
        errs = []
        for nodes in (8, 16, 32):
            quad = band_operator_quadrature(f, band, nodes=nodes)
            errs.append(rel_l2(quad.values, prod.values))
        assert errs[1] < errs[0] and errs[2] < errs[1]
        assert errs[2] < 0.35 * errs[0]

    def test_quadrature_route_exact_for_constant_multiplier(self):
        f = make_test_field("band_limited_random", {"band": (0.5, 3.0)}, GRID_1D, seed=12)
        band = BandSpec(0.03125, 3.53125, 1.0)  # edges between lattice radii
        quad = band_operator_quadrature(f, band, nodes=56)
        prod = band_operator(f, band)
        assert rel_l2(quad.values, prod.values) < 1e-12

    def test_band_validation(self):
        with pytest.raises(ValueError):
            BandSpec(2.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            BandSpec(-0.5, 1.0, 1.0)

    def test_lemma_scaling_toward_narrow_bands(self):
        # with a flat-spectrum input, the band energy scales like the width:
        # each width halving should shrink the norm by about sqrt(2)
        grid = GRID_1D
        f = make_test_field("gaussian", {"width": 0.05}, grid)
        f = f * (1.0 / lp_norm(f, 1))
        b = 4.0
        norms = [
            lp_norm(band_operator(f, BandSpec(b - w, b, 1.0)), 2)
            for w in (4.0, 2.0, 1.0, 0.5)
        ]
        for hi, lo in zip(norms, norms[1:]):
            assert abs(hi / lo - math.sqrt(2.0)) < 0.25 * math.sqrt(2.0)


class TestOraclePath:
    def test_alpha_zero_ball_is_pointwise_product(self):
        # Grid(2, 64, 20.0) keeps 1257 in-ball points, so its 1.58M pairs
        # span several blocks of the pair-sum engine
        for grid in (GRID_1D, Grid(2, 64, 20.0)):
            f = make_test_field("band_limited_random", {"band": (0.0, 0.4)}, grid, seed=21)
            g = make_test_field("band_limited_random", {"band": (0.0, 0.5)}, grid, seed=22)
            out = br_apply_oracle(f, g, MultiplierSpec(alpha=0.0))
            assert rel_l2(out.values, f.values * g.values) < 1e-10

    def test_zero_inputs(self):
        f, _ = gaussian_pair(GRID_1D)
        zero = SampledField(GRID_1D, np.zeros(GRID_1D.shape))
        spec = MultiplierSpec(alpha=2.0)
        assert np.all(br_apply_oracle(f, zero, spec).values == 0)
        assert np.all(br_apply_oracle(zero, f, spec).values == 0)

    def test_symmetry(self):
        f, g = gaussian_pair(GRID_1D)
        spec = MultiplierSpec(alpha=2.0)
        a = br_apply_oracle(f, g, spec)
        b = br_apply_oracle(g, f, spec)
        assert np.max(np.abs(a.values - b.values)) < 1e-12

    def test_bilinearity(self):
        spec = MultiplierSpec(alpha=1.0)
        grid = Grid(1, 32, 8.0)
        f1, f2, g = (random_field(grid, seed=s) for s in (31, 32, 33))
        lhs = br_apply_oracle(2.0 * f1 + (-0.5) * f2, g, spec)
        rhs = 2.0 * br_apply_oracle(f1, g, spec) + (-0.5) * br_apply_oracle(f2, g, spec)
        assert rel_l2(lhs.values, rhs.values) < 1e-12

    def test_budget_error(self):
        # 197 lattice points lie in the unit ball, so the sum visits 38,809 pairs
        grid = Grid(2, 128, 8.0)
        f = random_field(grid, seed=34)
        with pytest.raises(BudgetError):
            br_apply_oracle(f, f, MultiplierSpec(alpha=1.0), budget=10_000)

    def test_default_budget_counts_inball_pairs(self):
        # the full lattice has N^{2n} = 2.7e8 pairs, far over the default
        # budget, but only the in-ball pairs are visited
        grid = Grid(2, 128, 8.0)
        assert (grid.N**grid.n) ** 2 > DEFAULT_BUDGET
        f = random_field(grid, seed=34)
        out = br_apply_oracle(f, f, MultiplierSpec(alpha=1.0))
        assert np.all(np.isfinite(out.values))

    def test_reproducible(self, monkeypatch):
        f, g = gaussian_pair(GRID_1D)
        spec = MultiplierSpec(alpha=2.0)
        a = br_apply_oracle(f, g, spec)
        b = br_apply_oracle(f, g, spec)
        assert np.array_equal(a.values, b.values)
        # the block size bounds memory only; the reduction order is unchanged
        monkeypatch.setattr(operators, "_PAIR_BLOCK", 100)
        c = br_apply_oracle(f, g, spec)
        assert np.array_equal(a.values, c.values)

    @pytest.mark.parametrize("grid", [Grid(1, 256, 32.0), Grid(2, 16, 4.0)], ids=["1d", "2d"])
    def test_many_blocks_give_the_one_block_bits(self, monkeypatch, grid):
        # one block by default; under 100 pairs a block the later blocks
        # scatter onto the first one's running totals
        f, g = random_field(grid, seed=35), random_field(grid, seed=36)
        spec = MultiplierSpec(alpha=2.0)
        whole = br_apply_oracle(f, g, spec).values
        monkeypatch.setattr(operators, "_PAIR_BLOCK", 100)
        assert np.array_equal(br_apply_oracle(f, g, spec).values, whole)

    def test_dilation_is_exact_on_rescaled_grid(self):
        # radius R on box L equals radius 1 on box R*L with identical samples
        rng = np.random.default_rng(5)
        vf = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        vg = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        grid_a, grid_b = Grid(1, 256, 16.0), Grid(1, 256, 32.0)
        out_a = br_apply_oracle(
            SampledField(grid_a, vf), SampledField(grid_a, vg), MultiplierSpec(2.0, 2.0)
        )
        out_b = br_apply_oracle(
            SampledField(grid_b, vf), SampledField(grid_b, vg), MultiplierSpec(2.0, 1.0)
        )
        assert np.max(np.abs(out_a.values - out_b.values)) < 1e-12

    def test_two_dimensional_case_runs(self):
        grid = Grid(2, 16, 4.0)
        f = make_test_field("gaussian", {"width": 0.8}, grid)
        g = make_test_field("gaussian", {"width": 0.9, "center": (1.5, 2.5)}, grid)
        out = br_apply_oracle(f, g, MultiplierSpec(alpha=1.0))
        assert np.all(np.isfinite(out.values))
        assert lp_norm(out, 2) > 0


class TestRadialPath:
    def test_default_shells_match_oracle(self):
        f, g = gaussian_pair(GRID_1D)
        spec = MultiplierSpec(alpha=2.0)
        oracle = br_apply_oracle(f, g, spec)
        radial = br_apply_radial(f, g, spec)
        assert rel_l2(radial.values, oracle.values) < 1e-12

    def test_uniform_nodes_error_halves_on_doubling(self):
        f, g = gaussian_pair(GRID_1D)
        spec = MultiplierSpec(alpha=2.0)
        oracle = br_apply_oracle(f, g, spec)
        errs = [
            rel_l2(br_apply_radial(f, g, spec, nodes=q).values, oracle.values)
            for q in (128, 256, 512)
        ]
        for hi, lo in zip(errs, errs[1:]):
            assert abs(hi / lo - 2.0) < 0.6  # halving within 30%
        assert errs[0] < errs[1] * 3  # sanity: monotone decrease
        assert errs[-1] < 2e-3

    def test_alpha_zero_ball_case(self):
        f = make_test_field("band_limited_random", {"band": (0.0, 0.4)}, GRID_1D, seed=23)
        g = make_test_field("band_limited_random", {"band": (0.0, 0.5)}, GRID_1D, seed=24)
        out = br_apply_radial(f, g, MultiplierSpec(alpha=0.0))
        assert rel_l2(out.values, f.values * g.values) < 1e-10

    def test_bilinearity(self):
        grid = Grid(1, 64, 8.0)
        spec = MultiplierSpec(alpha=1.0)
        f1, f2, g = (random_field(grid, seed=s) for s in (41, 42, 43))
        lhs = br_apply_radial(1.5 * f1 + f2, g, spec)
        rhs = 1.5 * br_apply_radial(f1, g, spec) + br_apply_radial(f2, g, spec)
        assert rel_l2(lhs.values, rhs.values) < 1e-12

    def test_two_dimensional_matches_oracle(self):
        grid = Grid(2, 16, 4.0)
        f = make_test_field("gaussian", {"width": 0.8}, grid)
        g = make_test_field("gaussian", {"width": 0.9, "center": (1.5, 2.5)}, grid)
        spec = MultiplierSpec(alpha=1.0)
        oracle = br_apply_oracle(f, g, spec)
        radial = br_apply_radial(f, g, spec)
        assert rel_l2(radial.values, oracle.values) < 1e-12


BUMP = make_bump()


def _snapped_weight(spec: MultiplierSpec, nodes: int):
    """The multiplier with each radius snapped to its bin centre on [0, radius)."""
    width = spec.radius / nodes

    def weight(r1, r2):
        b1, b2 = math.floor(r1 / width), math.floor(r2 / width)
        if b1 >= nodes or b2 >= nodes:
            return 0.0
        c1, c2 = (b1 + 0.5) * width, (b2 + 0.5) * width
        return spec.weight_of_square_sum(c1 * c1 + c2 * c2)

    return weight


SPEC = MultiplierSpec(alpha=1.5)
BALL = MultiplierSpec(alpha=0.0)  # keeps the lattice points on the unit sphere
LITERAL_CASES = {
    "ball": (
        lambda f, g: br_apply_oracle(f, g, BALL),
        lambda r1, r2: BALL.weight_of_square_sum(r1 * r1 + r2 * r2),
    ),
    "oracle": (
        lambda f, g: br_apply_oracle(f, g, SPEC),
        lambda r1, r2: SPEC.weight_of_square_sum(r1 * r1 + r2 * r2),
    ),
    "tj0": (
        lambda f, g: t_j_apply(f, g, DyadicPiece(0, 1.5), BUMP),
        lambda r1, r2: phi_j_alpha(r1, r2, DyadicPiece(0, 1.5), BUMP),
    ),
    "tj3": (
        lambda f, g: t_j_apply(f, g, DyadicPiece(3, 1.5), BUMP),
        lambda r1, r2: phi_j_alpha(r1, r2, DyadicPiece(3, 1.5), BUMP),
    ),
    "radial16": (
        lambda f, g: br_apply_radial(f, g, SPEC, nodes=16),
        _snapped_weight(SPEC, 16),
    ),
}


@pytest.mark.parametrize("grid", [Grid(1, 32, 8.0), Grid(2, 16, 4.0)], ids=["1d", "2d"])
@pytest.mark.parametrize("case", sorted(LITERAL_CASES))
def test_engine_matches_literal_pair_sum(case, grid):
    apply, weight_of_radii = LITERAL_CASES[case]
    f = random_field(grid, seed=71)
    g = random_field(grid, seed=72)
    expected, scale = literal_pair_sum(f, g, weight_of_radii, SPEC.radius)
    assert scale > 0
    err = np.max(np.abs(apply(f, g).values - expected)) / scale
    assert err < 1e-13


class TestKernelPath:
    def test_matches_oracle_on_wide_box(self):
        grid = Grid(1, 256, 32.0)
        f = make_test_field("gaussian", {"width": 1.0}, grid)
        g = make_test_field("gaussian", {"width": 1.5, "center": [14.0]}, grid)
        spec = MultiplierSpec(alpha=3.0)
        oracle = br_apply_oracle(f, g, spec)
        kernel = br_apply_kernel(f, g, spec)
        assert rel_l2(kernel.values, oracle.values) < 5e-2

    def test_zero_inputs(self):
        grid = Grid(1, 64, 8.0)
        f = random_field(grid, seed=51)
        zero = SampledField(grid, np.zeros(grid.shape))
        spec = MultiplierSpec(alpha=2.0)
        assert np.all(br_apply_kernel(f, zero, spec).values == 0)
        assert np.all(br_apply_kernel(zero, f, spec).values == 0)

    def test_symmetry(self):
        grid = Grid(1, 128, 16.0)
        f = make_test_field("gaussian", {"width": 1.0}, grid)
        g = make_test_field("gaussian", {"width": 1.5, "center": [7.0]}, grid)
        spec = MultiplierSpec(alpha=2.0)
        a = br_apply_kernel(f, g, spec)
        b = br_apply_kernel(g, f, spec)
        assert np.max(np.abs(a.values - b.values)) < 1e-10

    def test_budget_error(self):
        grid = Grid(2, 128, 8.0)
        f = random_field(grid, seed=52)
        with pytest.raises(BudgetError):
            br_apply_kernel(f, f, MultiplierSpec(alpha=1.0), budget=1_000_000)

    @pytest.mark.parametrize("grid", [Grid(2, 64, 8.0), Grid(1, 256, 16.0)], ids=["2d", "1d"])
    def test_shell_table_from_the_upper_triangle_keeps_every_bit(self, grid):
        # the distinct sums of the upper triangle are those of all U^2 pairs
        # (a + b == b + a), so the table is bitwise the one built from them
        spec = MultiplierSpec(alpha=2.0, radius=1.5)
        half = grid.N // 2
        signed = ((np.arange(grid.N) + half) % grid.N - half) * grid.spacing
        unique_sq = np.unique(sum(np.meshgrid(*([signed**2] * grid.n), indexing="ij")))
        sums, pair = np.unique(np.add.outer(unique_sq, unique_sq), return_inverse=True)
        full = operators.kernel_radial(np.sqrt(sums), spec.alpha, grid.n, spec.radius)[pair]
        table = operators._shell_table(unique_sq, spec, grid.n)
        assert table.shape == (unique_sq.size, unique_sq.size)
        assert np.array_equal(table.view(np.int64), full.reshape(table.shape).view(np.int64))

    @pytest.mark.parametrize(
        "grid", [Grid(1, 256, 32.0), Grid(2, 16, 4.0), Grid(2, 32, 8.0)], ids=["1d", "2d-16", "2d-32"]
    )
    def test_one_kernel_value_per_distinct_radius(self, grid, monkeypatch):
        # the kernel runs once per distinct |x1|^2 + |x2|^2, and the factored
        # apply agrees with the shell-by-shell sum over the full table
        f, g = random_field(grid, seed=54), random_field(grid, seed=55)
        spec = MultiplierSpec(alpha=2.0, radius=1.5)
        seen, kernel_radial = [], operators.kernel_radial

        def recorded(rho, *args):
            seen.append(np.array(rho))
            return kernel_radial(rho, *args)

        monkeypatch.setattr(operators, "kernel_radial", recorded)
        out = br_apply_kernel(f, g, spec).values
        (rho,) = seen
        assert rho.ndim == 1 and np.unique(rho).size == rho.size
        expected = full_table_kernel_apply(f, g, spec)
        assert np.max(np.abs(out - expected)) <= 1e-13 * np.max(np.abs(expected))

    @pytest.mark.parametrize("alpha", [0.5, 2.0, 5.0])
    @pytest.mark.parametrize("radius", [1.0, 1.5])
    @pytest.mark.parametrize(
        "grid", [Grid(1, 256, 32.0), Grid(1, 32, 8.0), Grid(2, 32, 8.0), Grid(2, 8, 4.0)],
        ids=["1d-256", "1d-32", "2d-32", "2d-8"],
    )
    def test_factored_table_meets_its_residual_bound(self, grid, alpha, radius):
        _, table = shell_table(grid, MultiplierSpec(alpha, radius))
        with warnings.catch_warnings():
            warnings.simplefilter("error", AccuracyWarning)
            lam, V = operators._low_rank(table, shell_radii(grid))
        size = table.shape[0]
        bound = size * np.finfo(float).eps * np.max(np.abs(table))
        assert np.max(np.abs(table - (V * lam) @ V.T)) <= bound
        assert np.all(np.abs(lam) > bound)

    def test_rank_is_small_on_the_bench_grid(self):
        grid = Grid(2, 64, 8.0)
        _, table = shell_table(grid, MultiplierSpec(alpha=2.0))
        lam, _ = operators._low_rank(table, shell_radii(grid))
        assert table.shape[0] == 457 and lam.size <= 32

    def test_transform_count_is_three_per_term_plus_two(self, monkeypatch):
        grid = Grid(2, 32, 8.0)
        f, g = random_field(grid, seed=56), random_field(grid, seed=57)
        spec = MultiplierSpec(alpha=2.0)
        table = shell_table(grid, spec)[1]
        rank = operators._low_rank(table, shell_radii(grid))[0].size
        calls = count_transforms(monkeypatch)
        br_apply_kernel(f, g, spec)
        assert len(calls) <= 3 * rank + 2 < 4 * table.shape[0] + 2

    def test_high_rank_table_is_factored_whole(self):
        # 1-D, L = N: the rank is near U = 65, so the doubling reaches the
        # whole table and still agrees with the shell-by-shell sum
        grid = Grid(1, 128, 128.0)
        f, g = random_field(grid, seed=60), random_field(grid, seed=61)
        spec = MultiplierSpec(alpha=2.0)
        _, table = shell_table(grid, spec)
        lam, _ = operators._low_rank(table, shell_radii(grid))
        assert lam.size > 32
        out = br_apply_kernel(f, g, spec).values
        expected = full_table_kernel_apply(f, g, spec)
        assert np.max(np.abs(out - expected)) <= 1e-13 * np.max(np.abs(expected))

    def test_residual_over_its_bound_warns(self, monkeypatch):
        # eigenvalues off by a relative 1e-9 leave a residual past U eps max|K|
        # even on the whole basis (17 shells), and the apply says so
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: (eigh(a)[0] * (1 + 1e-9), eigh(a)[1]))
        f = random_field(Grid(1, 32, 8.0), seed=62)
        with pytest.warns(AccuracyWarning, match="over its bound"):
            br_apply_kernel(f, f, MultiplierSpec(alpha=2.0))

    def test_repeated_calls_are_bitwise_equal(self):
        grid = Grid(2, 32, 8.0)
        f, g = random_field(grid, seed=58), random_field(grid, seed=59)
        spec = MultiplierSpec(alpha=1.5, radius=1.5)
        first = br_apply_kernel(f, g, spec).values.tobytes()
        assert br_apply_kernel(f, g, spec).values.tobytes() == first

    def test_budget_counts_shells_times_points(self):
        # 42 distinct squared minimum-image radii on 16 x 16 points
        grid = Grid(2, 16, 8.0)
        f = random_field(grid, seed=53)
        spec = MultiplierSpec(alpha=1.0)
        br_apply_kernel(f, f, spec, budget=42 * 256)
        with pytest.raises(BudgetError):
            br_apply_kernel(f, f, spec, budget=42 * 256 - 1)

    @pytest.mark.parametrize("grid", [Grid(1, 32, 8.0), Grid(2, 8, 4.0)], ids=["1d", "2d"])
    def test_matches_literal_kernel_sum(self, grid):
        f = random_field(grid, seed=54)
        g = random_field(grid, seed=55)
        spec = MultiplierSpec(alpha=2.0)
        out = br_apply_kernel(f, g, spec).values
        expected, scale = literal_kernel_sum(f, g, spec)
        assert scale > 0
        assert np.max(np.abs(out - expected)) / scale < 1e-13
        # the comparison catches one point put in the wrong shell
        point_sq = sum(d**2 for d in grid.wrapped_delta([0.0] * grid.n)).ravel()
        point_sq[1] = point_sq[2]
        wrong, _ = literal_kernel_sum(f, g, spec, point_sq)
        assert np.max(np.abs(out - wrong)) / scale > 1e-6

    def test_two_dimensional_small_grid(self):
        grid = Grid(2, 16, 8.0)
        f = make_test_field("gaussian", {"width": 0.8}, grid)
        g = make_test_field("gaussian", {"width": 0.9, "center": (3.5, 4.5)}, grid)
        spec = MultiplierSpec(alpha=3.0)
        oracle = br_apply_oracle(f, g, spec)
        kernel = br_apply_kernel(f, g, spec)
        assert rel_l2(kernel.values, oracle.values) < 5e-2


class TestSharedProperties:
    def test_frequency_support_of_all_paths(self):
        grid = Grid(1, 256, 32.0)
        f = make_test_field("gaussian", {"width": 1.0}, grid)
        g = make_test_field("gaussian", {"width": 1.5, "center": [14.0]}, grid)
        spec = MultiplierSpec(alpha=3.0)
        radii = grid.freq_radii()
        outside = radii > 2.0 * spec.radius
        for path in (br_apply_oracle, br_apply_radial, br_apply_kernel):
            spectrum = dft_forward(path(f, g, spec)).values
            leak = np.linalg.norm(spectrum[outside]) / np.linalg.norm(spectrum)
            assert leak < 1e-10, f"{path.__name__}: leakage {leak:.2e}"

    def test_shared_loop_rejects_mismatched_grids(self):
        f = random_field(Grid(1, 32, 8.0), seed=61)
        g = random_field(Grid(1, 32, 4.0), seed=62)
        with pytest.raises(ValueError):
            bilinear_frequency_apply(f, g, lambda s: np.ones_like(s), 1.0)

    def test_radial_agreement_improves_as_nodes_double(self):
        f, g = gaussian_pair(GRID_1D)
        spec = MultiplierSpec(alpha=2.0)
        oracle = br_apply_oracle(f, g, spec)
        errs = [
            rel_l2(br_apply_radial(f, g, spec, nodes=q).values, oracle.values)
            for q in (64, 128, 256, 512)
        ]
        for hi, lo in zip(errs, errs[1:]):
            assert lo < hi * 1.1  # monotone within 10% noise
