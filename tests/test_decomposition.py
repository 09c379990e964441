"""Tests for the dyadic decomposition: bump, slices, coefficients, separable path."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from brlab.decomposition import (
    COEFF_GRID,
    BumpFunction,
    DyadicPiece,
    GammaTable,
    br_apply_separable,
    gamma_coeff,
    gamma_decay_check,
    gamma_report_csv,
    make_bump,
    phi_j_alpha,
    t_j_apply,
)
from brlab.grid import Grid, SampledField, make_test_field
from brlab.operators import BandSpec, MultiplierSpec, band_operator, br_apply_oracle
from helpers import rel_l2

BUMP = make_bump()
GRID = Grid(1, 64, 16.0)


def gaussian_pair(grid=GRID):
    f = make_test_field("gaussian", {"width": 1.0}, grid)
    g = make_test_field("gaussian", {"width": 1.5, "center": 7.0}, grid)
    return f, g


class TestBumpFunction:
    def test_partition_at_spec_points(self):
        for s in (0.01, 0.3, 0.77, 1.0):
            total = sum(BUMP((2.0**j) * s) for j in range(-20, 21))
            assert abs(total - 1.0) < 1e-10

    def test_partition_on_dense_grid(self):
        u = np.linspace(2.0**-20, 1.0, 2001)
        total = np.zeros_like(u)
        for j in range(0, 25):
            total += BUMP((2.0**j) * u)
        assert np.max(np.abs(total - 1.0)) < 1e-10

    def test_zero_outside_support(self):
        assert BUMP(0.4) == 0.0
        assert BUMP(2.5) == 0.0
        assert BUMP(0.5) == 0.0
        assert BUMP(2.0) == 0.0

    def test_value_at_one(self):
        assert 0.0 < BUMP(1.0) <= 1.0

    def test_nonnegative_everywhere(self):
        s = np.linspace(0.0, 3.0, 4001)
        assert np.all(BUMP(s) >= 0.0)

    def test_at_most_two_dyadic_terms_active(self):
        for s in np.linspace(2.0**-10, 1.0, 500):
            active = sum(1 for j in range(-5, 25) if BUMP((2.0**j) * s) > 0)
            assert active <= 2

    def test_scalar_and_array_evaluation(self):
        s = np.array([0.6, 1.0, 1.7])
        vals = BUMP(s)
        assert vals.shape == (3,)
        assert vals[1] == BUMP(1.0)

    def test_is_bump_function_instance(self):
        assert isinstance(BUMP, BumpFunction)


class TestDyadicPiece:
    def test_fields(self):
        piece = DyadicPiece(3, 2.0)
        assert piece.j == 3 and piece.alpha == 2.0

    @pytest.mark.parametrize("j,alpha", [(-1, 1.0), (0.5, 1.0), (0, 0.0), (0, -2.0)])
    def test_validation(self, j, alpha):
        with pytest.raises(ValueError):
            DyadicPiece(j, alpha)


class TestPhiJAlpha:
    def test_vanishes_outside_unit_ball(self):
        piece = DyadicPiece(0, 2.0)
        assert phi_j_alpha(0.8, 0.7, piece, BUMP) == 0.0
        assert phi_j_alpha(1.0, 0.0, piece, BUMP) == 0.0

    def test_vanishes_at_origin_for_positive_levels(self):
        # u = 1 there, outside the level-j window for every j >= 1
        for j in (1, 2, 5):
            assert phi_j_alpha(0.0, 0.0, DyadicPiece(j, 2.0), BUMP) == 0.0

    def test_origin_level_zero_positive(self):
        assert phi_j_alpha(0.0, 0.0, DyadicPiece(0, 2.0), BUMP) > 0.0

    def test_support_window(self):
        # level j lives where 1 - s^2 - t^2 is in [2^{-j-1}, 2^{1-j}]
        piece = DyadicPiece(3, 1.0)
        inside_u = 1.5 * 2.0**-4
        outside_u = 2.0**-6
        assert phi_j_alpha(math.sqrt(1 - inside_u), 0.0, piece, BUMP) > 0.0
        assert phi_j_alpha(math.sqrt(1 - outside_u), 0.0, piece, BUMP) == 0.0

    def test_uniform_bound(self):
        rng = np.random.default_rng(7)
        s, t = rng.uniform(0, 1, size=(2, 2000))
        for j in (0, 1, 4):
            for alpha in (1.0, 2.0):
                vals = phi_j_alpha(s, t, DyadicPiece(j, alpha), BUMP)
                assert np.all(vals >= 0.0)
                assert np.max(vals) <= (2.0 ** (1 - j)) ** alpha + 1e-15

    def test_partial_sums_recover_closed_multiplier(self):
        s, t = 0.6, 0.5
        u = 1.0 - s * s - t * t
        alpha = 2.0
        total = sum(phi_j_alpha(s, t, DyadicPiece(j, alpha), BUMP) for j in range(21))
        assert abs(total - u**alpha) < 1e-10

    def test_vectorized(self):
        piece = DyadicPiece(2, 2.0)
        s = np.linspace(0, 1, 11)
        vals = phi_j_alpha(s, 0.3, piece, BUMP)
        assert vals.shape == (11,)
        assert vals[5] == phi_j_alpha(float(s[5]), 0.3, piece, BUMP)


class TestTJApply:
    def test_zero_on_disjoint_spectrum(self):
        # level 4 needs |xi|^2 + |eta|^2 in [0.875, 0.97]; these inputs
        # keep it below 0.2
        f = make_test_field("band_limited_random", {"band": (0.0, 0.3)}, GRID, seed=3)
        g = make_test_field("band_limited_random", {"band": (0.0, 0.3)}, GRID, seed=4)
        out = t_j_apply(f, g, DyadicPiece(4, 2.0), BUMP)
        assert np.max(np.abs(out.values)) < 1e-14

    def test_telescoping_matches_oracle(self):
        f, g = gaussian_pair()
        ref = br_apply_oracle(f, g, MultiplierSpec(alpha=2.0))
        acc = np.zeros(GRID.shape, dtype=complex)
        errs = []
        for j in range(13):
            acc = acc + t_j_apply(f, g, DyadicPiece(j, 2.0), BUMP).values
            errs.append(rel_l2(acc, ref.values))
        assert errs[-1] < 1e-3
        # partial sums improve monotonically, 10% slack for noise
        for early, late in zip(errs, errs[1:]):
            assert late <= early * 1.1

    def test_bilinear_in_first_argument(self):
        f1, g = gaussian_pair()
        f2 = make_test_field("band_limited_random", {"band": (0.0, 0.8)}, GRID, seed=11)
        piece = DyadicPiece(1, 2.0)
        combined = t_j_apply(f1 + (2.0 + 1.0j) * f2, g, piece, BUMP)
        split = (
            t_j_apply(f1, g, piece, BUMP).values
            + (2.0 + 1.0j) * t_j_apply(f2, g, piece, BUMP).values
        )
        assert rel_l2(combined.values, split) < 1e-12

    def test_grid_mismatch_rejected(self):
        f, _ = gaussian_pair()
        other = make_test_field("gaussian", {"width": 1.0}, Grid(1, 32, 16.0))
        with pytest.raises(ValueError):
            t_j_apply(f, other, DyadicPiece(0, 1.0), BUMP)


class TestGammaCoeff:
    def test_k_zero_positive_on_support(self):
        # s = 0.8 puts u = 1 - s^2 t-profiles inside the level-2 window
        assert gamma_coeff(DyadicPiece(2, 2.0), 0, 0.8, BUMP) > 0.0

    def test_even_in_k_and_s(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            j = int(rng.integers(0, 6))
            k = int(rng.integers(1, 40))
            s = float(rng.uniform(0, 1))
            piece = DyadicPiece(j, 1.5)
            base = gamma_coeff(piece, k, s, BUMP)
            assert gamma_coeff(piece, -k, s, BUMP) == base
            assert gamma_coeff(piece, k, -s, BUMP) == base

    @pytest.mark.parametrize("s,t", [(0.3, 0.5), (0.55, 0.65)])
    def test_series_reconstruction(self, s, t):
        piece = DyadicPiece(2, 2.0)
        K = 512
        table = GammaTable.build(piece, BUMP, K, s_values=[s])
        coeffs = table.values[0]
        series = coeffs[0] + 2.0 * np.sum(
            coeffs[1:] * np.cos(math.pi * np.arange(1, K + 1) * t)
        )
        assert abs(series - phi_j_alpha(s, t, piece, BUMP)) < 1e-6

    def test_rejects_s_outside_unit_interval(self):
        with pytest.raises(ValueError):
            gamma_coeff(DyadicPiece(0, 1.0), 0, 1.5, BUMP)


class TestGammaTable:
    def test_build_shape_and_dtype(self):
        table = GammaTable.build(DyadicPiece(2, 2.0), BUMP, 16)
        assert table.values.shape == (257, 17)
        assert table.values.dtype == np.float64
        assert not table.values.flags.writeable

    def test_matches_single_coefficient_route(self):
        piece = DyadicPiece(3, 2.0)
        table = GammaTable.build(piece, BUMP, 8, s_values=[0.2, 0.9])
        assert table.values[1, 5] == gamma_coeff(piece, 5, 0.9, BUMP)

    def test_sup_over_s_folds_sign(self):
        table = GammaTable.build(DyadicPiece(1, 2.0), BUMP, 8)
        assert table.sup_over_s(-3) == table.sup_over_s(3)

    def test_k_beyond_quadrature_resolution_rejected(self):
        with pytest.raises(ValueError):
            GammaTable.build(DyadicPiece(0, 1.0), BUMP, COEFF_GRID // 2 + 1)


class TestGammaDecay:
    def test_report_bounded_and_unflagged(self):
        report = gamma_decay_check(2.0, 0.5, range(9), range(-64, 65), BUMP)
        assert report.levels == tuple(range(9))
        assert report.k_values == tuple(range(65))
        assert not report.flagged
        assert report.growth_ratio < 1.1
        assert report.constant < 5.0
        assert np.max(report.normalized) == report.constant

    def test_k_profile_decays(self):
        report = gamma_decay_check(2.0, 0.5, range(5), range(65), BUMP)
        # each level's profile falls along dyadic wavenumbers; the deep
        # levels flatten (their t-support thins) but never reverse
        assert np.all(report.sup_table[:, 64] < report.sup_table[:, 8])
        assert np.all(report.sup_table[:, 8] < report.sup_table[:, 0])

    def test_k_zero_column_within_constant(self):
        report = gamma_decay_check(2.0, 0.5, range(5), range(33), BUMP)
        assert np.all(report.normalized[:, 0] <= report.constant)

    @pytest.mark.parametrize("delta", [0.0, 2.0, 2.5, -0.3])
    def test_delta_domain_errors(self, delta):
        with pytest.raises(ValueError):
            gamma_decay_check(2.0, delta, range(3), range(5), BUMP)

    def test_csv_export(self, tmp_path):
        report = gamma_decay_check(2.0, 0.5, range(3), range(5), BUMP)
        path = tmp_path / "decay.csv"
        gamma_report_csv(report, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "j,k,sup_gamma,normalized"
        assert len(lines) == 1 + 3 * 5
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "0"
        assert float(first[2]) == report.sup_table[0, 0]


class TestSeparable:
    def test_matches_direct_route(self):
        f, g = gaussian_pair()
        piece = DyadicPiece(2, 2.0)
        direct = t_j_apply(f, g, piece, BUMP)
        sep = br_apply_separable(f, g, piece, 512, BUMP)
        assert rel_l2(sep.values, direct.values) < 1e-4

    def test_truncation_error_improves_with_rank(self):
        f, g = gaussian_pair()
        piece = DyadicPiece(2, 2.0)
        direct = t_j_apply(f, g, piece, BUMP)
        errs = [
            rel_l2(br_apply_separable(f, g, piece, K, BUMP).values, direct.values)
            for K in (128, 256, 512)
        ]
        for early, late in zip(errs, errs[1:]):
            assert late <= early * 1.1

    def test_bit_identical_to_band_operator_products(self):
        grid = Grid(2, 16, 4.0)
        f = make_test_field("gaussian", {"width": 1.0}, grid)
        g = make_test_field("gaussian", {"width": 0.7, "center": (1.5, 2.5)}, grid)
        piece, K = DyadicPiece(2, 2.0), 8
        radii = grid.freq_radii()
        inside = np.unique(radii[radii <= 1.0])
        table = GammaTable.build(piece, BUMP, K, inside).values
        expected = np.zeros(grid.shape, dtype=np.complex128)
        for k in range(K + 1):
            gamma = BandSpec(0.0, 1.0, lambda r, k=k: table[np.searchsorted(inside, r), k])
            cosine = BandSpec(0.0, 1.0, lambda r, k=k: np.cos(math.pi * k * r))
            factor = 1.0 if k == 0 else 2.0
            ff, gg = band_operator(f, gamma), band_operator(g, cosine)
            expected += factor * ff.values * gg.values
        out = br_apply_separable(f, g, piece, K, BUMP)
        assert np.array_equal(out.values, expected)

    def test_zero_input_gives_zero(self):
        f, g = gaussian_pair()
        zero = SampledField(GRID, np.zeros(GRID.shape))
        out = br_apply_separable(zero, g, DyadicPiece(1, 2.0), 64, BUMP)
        assert np.max(np.abs(out.values)) == 0.0

    def test_validation(self):
        f, g = gaussian_pair()
        with pytest.raises(ValueError):
            br_apply_separable(f, g, DyadicPiece(0, 1.0), 0, BUMP)
        other = make_test_field("gaussian", {"width": 1.0}, Grid(1, 32, 16.0))
        with pytest.raises(ValueError):
            br_apply_separable(f, other, DyadicPiece(0, 1.0), 64, BUMP)
