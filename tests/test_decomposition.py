"""Tests for the dyadic decomposition: bump, slices, coefficients, separable path."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from brlab import decomposition, operators
from brlab.decomposition import (
    COEFF_GRID,
    GAMMA_MAX_LEVEL,
    SEPARABLE_MAX_LEVEL,
    BumpFunction,
    DyadicPiece,
    _coeff_table,
    br_apply_separable,
    gamma_decay_check,
    make_bump,
    phi_j_alpha,
    slice_weight_of_square_sum,
    t_j_apply,
)
from brlab.grid import ExponentPair, Grid, SampledField, make_test_field
from brlab.norms import decay_fit
from brlab.operators import (
    BandSpec,
    BudgetError,
    MultiplierSpec,
    band_operator,
    bilinear_frequency_apply,
    br_apply_oracle,
)
from helpers import cli_artifact, random_field, read_csv_rows, rel_l2, separable_by_fields

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
            assert abs(total - 1.0) < 1e-15

    def test_partition_on_dense_grid(self):
        u = np.linspace(2.0**-20, 1.0, 2001)
        total = np.zeros_like(u)
        for j in range(0, 25):
            total += BUMP((2.0**j) * u)
        assert np.max(np.abs(total - 1.0)) < 1e-15

    def test_zero_outside_support(self):
        assert BUMP(0.4) == 0.0
        assert BUMP(2.5) == 0.0
        assert BUMP(0.5) == 0.0
        assert BUMP(2.0) == 0.0

    def test_value_at_one(self):
        # raw(1/2) = raw(2) = 0, so the closed form is raw(1) / raw(1)
        assert BUMP(1.0) == 1.0

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

    def test_cli_import_skips_scipy_interpolate(self):
        paths = [str(Path(decomposition.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        code = "import sys, brlab.cli; print('scipy.interpolate' in sys.modules)"
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert result.stdout.strip() == "False"


class TestDyadicPiece:
    def test_fields(self):
        piece = DyadicPiece(3, 2.0)
        assert piece.j == 3 and piece.alpha == 2.0

    @pytest.mark.parametrize("j,alpha", [(-1, 1.0), (0.5, 1.0), (0, 0.0), (0, -2.0)])
    def test_validation(self, j, alpha):
        with pytest.raises(ValueError):
            DyadicPiece(j, alpha)

    def test_multiplier(self):
        piece = DyadicPiece(2, 1.5)
        u = np.array([-0.1, 0.0, 0.1, 0.2, 0.4, 0.6])
        want = [0.0, 0.0, 0.1**1.5 * BUMP(0.4), 0.2**1.5 * BUMP(0.8), 0.4**1.5 * BUMP(1.6), 0.0]
        assert_allclose(piece.multiplier(u, BUMP), want, rtol=1e-15, atol=0)


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


def streamed_piece(f, g, piece, bump=BUMP):
    """The piece through the weight callable, with no plan."""
    return bilinear_frequency_apply(f, g, slice_weight_of_square_sum(piece, bump), 1.0)


@pytest.fixture
def plan_builds(monkeypatch):
    """An empty plan slot, and the list of the grid of every plan built."""
    monkeypatch.setattr(decomposition, "_last_plan", [None, None])
    builds = []
    build = decomposition.pair_plan

    def counted(grid, weight, support_radius, budget):
        plan = build(grid, weight, support_radius, budget)
        builds.append(grid)
        return plan

    monkeypatch.setattr(decomposition, "pair_plan", counted)
    return builds


class TestPairPlan:
    @pytest.mark.parametrize("block", [None, 100])
    @pytest.mark.parametrize("grid", [Grid(1, 256, 32.0), Grid(2, 16, 4.0)], ids=["1d", "2d"])
    def test_memo_hit_and_fresh_build_are_bitwise_equal(
        self, plan_builds, monkeypatch, grid, block
    ):
        if block is not None:
            monkeypatch.setattr(operators, "_PAIR_BLOCK", block)
        f, g = random_field(grid, seed=81), random_field(grid, seed=82)
        piece = DyadicPiece(1, 2.0)
        fresh = t_j_apply(f, g, piece, BUMP).values
        hit = t_j_apply(f, g, piece, BUMP).values
        assert len(plan_builds) == 1
        assert np.array_equal(fresh, hit)
        assert np.array_equal(fresh, streamed_piece(f, g, piece).values)

    def test_plan_keeps_exactly_the_nonzero_weight_pairs(self, plan_builds, monkeypatch):
        monkeypatch.setattr(operators, "_PAIR_BLOCK", 100)
        grid = Grid(1, 256, 32.0)
        radii_sq = grid.freq_radii()[grid.freq_radii() <= 1.0] ** 2
        for j in (0, 8):
            piece = DyadicPiece(j, 2.0)
            f = random_field(grid, seed=83)
            t_j_apply(f, f, piece, BUMP)
            plan = decomposition._last_plan[1]
            weight = slice_weight_of_square_sum(piece, BUMP)(np.add.outer(radii_sq, radii_sq))
            assert plan.count == radii_sq.size
            kept = sum(block[0].size for block in plan.blocks)
            assert kept == np.count_nonzero(weight)
        assert kept == 24  # level 8 keeps 24 of 65^2 pairs at L = 32

    def test_plan_is_one_flat_set_whatever_the_block_size(self, plan_builds, monkeypatch):
        monkeypatch.setattr(operators, "_PAIR_BLOCK", 100)  # weighed one xi row at a time
        f = random_field(Grid(1, 256, 32.0), seed=83)
        t_j_apply(f, f, DyadicPiece(8, 2.0), BUMP)
        blocks = decomposition._last_plan[1].blocks
        assert len(blocks) == 1
        first, second, weight, target = blocks[0]
        assert first.size == second.size == weight.size == target.size == 24
        assert np.all(weight != 0)
        assert np.all(np.diff(first) >= 0)  # increasing xi, the order every target sums in

    @pytest.mark.parametrize("grid", [Grid(1, 256, 32.0), Grid(2, 16, 4.0)], ids=["1d", "2d"])
    def test_empty_plan_and_zero_input_give_positive_zeros(self, plan_builds, grid):
        # the scatter starts every target at +0.0 and no total reaches -0.0,
        # which is what makes the first block's running totals unneeded
        f = random_field(grid, seed=89)
        zero = SampledField(grid, np.zeros(grid.shape))
        outputs = [t_j_apply(f, f, DyadicPiece(40, 2.0), BUMP).values]
        assert decomposition._last_plan[1].blocks == ()
        outputs += [t_j_apply(u, v, DyadicPiece(0, 2.0), BUMP).values
                    for u, v in ((zero, zero), (f, zero), (zero, f))]
        for out in outputs:
            assert np.all(out == 0)
            assert not np.signbit(out.real).any() and not np.signbit(out.imag).any()

    def test_piece_bump_or_grid_change_rebuilds(self, plan_builds):
        grid = Grid(1, 64, 16.0)
        f, g = random_field(grid, seed=84), random_field(grid, seed=85)
        other_bump = make_bump()
        coarse = Grid(1, 64, 8.0)
        fc, gc = random_field(coarse, seed=84), random_field(coarse, seed=85)
        calls = [
            (f, g, DyadicPiece(2, 2.0), BUMP, 1),
            (f, g, DyadicPiece(2, 2), BUMP, 1),  # equal by value: a hit
            (f, g, DyadicPiece(3, 2.0), BUMP, 2),
            (f, g, DyadicPiece(3, 2.0), other_bump, 3),
            (fc, gc, DyadicPiece(3, 2.0), other_bump, 4),
            (f, g, DyadicPiece(3, 2.0), other_bump, 5),
        ]
        for u, v, piece, bump, built in calls:
            out = t_j_apply(u, v, piece, bump).values
            assert len(plan_builds) == built
            assert plan_builds[-1] == u.grid
            assert np.array_equal(out, streamed_piece(u, v, piece, bump).values)

    def test_memo_hit_still_checks_the_budget(self, plan_builds):
        grid = Grid(1, 64, 16.0)  # 33 in-ball points, 1,089 pairs
        f = random_field(grid, seed=86)
        piece = DyadicPiece(0, 2.0)
        t_j_apply(f, f, piece, BUMP)
        with pytest.raises(BudgetError):
            t_j_apply(f, f, piece, BUMP, budget=1_000)
        assert len(plan_builds) == 1

    def test_budget_is_checked_before_a_build(self, plan_builds):
        f = random_field(Grid(1, 64, 16.0), seed=87)
        with pytest.raises(BudgetError):
            t_j_apply(f, f, DyadicPiece(0, 2.0), BUMP, budget=1_000)
        assert decomposition._last_plan == [None, None]

    def test_plan_for_another_grid_is_refused(self, plan_builds):
        f = random_field(Grid(1, 64, 16.0), seed=88)
        t_j_apply(f, f, DyadicPiece(0, 2.0), BUMP)
        plan = decomposition._last_plan[1]
        other = random_field(Grid(1, 64, 8.0), seed=88)
        with pytest.raises(ValueError):
            bilinear_frequency_apply(other, other, plan, 1.0)
        with pytest.raises(ValueError):
            bilinear_frequency_apply(f, f, plan, 0.5)

    def test_decay_fit_weighs_each_level_once(self, monkeypatch):
        monkeypatch.setattr(decomposition, "_last_plan", [None, None])
        calls = []
        make_weight = decomposition.slice_weight_of_square_sum

        def counted(piece, bump):
            weight = make_weight(piece, bump)
            calls.append([piece.j, 0])

            def counted_weight(s_sq):
                calls[-1][1] += 1
                return weight(s_sq)

            return counted_weight

        monkeypatch.setattr(decomposition, "slice_weight_of_square_sum", counted)

        def family(j):
            piece = DyadicPiece(int(j), 2.0)
            return lambda u, v: t_j_apply(u, v, piece, BUMP)

        decay_fit(family, ExponentPair(1, 1), Grid(1, 256, 32.0), range(9), trials=1, seed=20)
        assert calls == [[j, 1] for j in range(9)]


class TestGammaCoeff:
    def test_k_zero_positive_on_support(self):
        # s = 0.8 puts u = 1 - s^2 t-profiles inside the level-2 window
        table = _coeff_table(DyadicPiece(2, 2.0), [0.8], 0)
        assert table[0, 0] > 0.0

    def test_even_in_k_and_s(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            j = int(rng.integers(0, 6))
            k = int(rng.integers(1, 40))
            s = float(rng.uniform(0, 1))
            table = _coeff_table(DyadicPiece(j, 1.5), [s, -s], k)
            assert table[1, k] == table[0, k]
            # the decay audit folds -k onto k
            minus, plus = (gamma_decay_check(1.5, 0.5, [j], [q]) for q in (-k, k))
            assert minus.sup_table.tolist() == plus.sup_table.tolist()

    @pytest.mark.parametrize("s,t", [(0.3, 0.5), (0.55, 0.65)])
    def test_series_reconstruction(self, s, t):
        piece = DyadicPiece(2, 2.0)
        K = 512
        coeffs = _coeff_table(piece, [s], K)[0]
        series = coeffs[0] + 2.0 * np.sum(
            coeffs[1:] * np.cos(math.pi * np.arange(1, K + 1) * t)
        )
        assert abs(series - phi_j_alpha(s, t, piece, BUMP)) < 1e-6


class TestGammaTable:
    def test_build_shape_and_dtype(self):
        table = _coeff_table(DyadicPiece(2, 2.0), np.linspace(0.0, 1.0, 257), 16)
        assert table.shape == (257, 17)
        assert table.dtype == np.float64

    def test_matches_single_coefficient_route(self):
        # a row does not depend on the other s values in the batch
        piece = DyadicPiece(3, 2.0)
        table = _coeff_table(piece, [0.2, 0.9], 8)
        single = _coeff_table(piece, [0.9], 8)
        assert table[1, 5] == single[0, 5]

    def test_k_beyond_quadrature_resolution_rejected(self):
        with pytest.raises(ValueError, match="k_max"):
            _coeff_table(DyadicPiece(0, 1.0), [0.5], COEFF_GRID // 2 + 1)


def reference_multiplier(piece, u, bump=BUMP):
    """The slice multiplier as one product over the whole array of u."""
    return np.where(u > 0, np.abs(u) ** piece.alpha, 0.0) * bump(2**piece.j * u)


def reference_table(piece, s_values, k_max, bump=BUMP, nodes=COEFF_GRID):
    """The coefficient table from one rfft of the full (s, t) integrand."""
    s_arr = np.atleast_1d(np.asarray(s_values, dtype=float))
    t = -1.0 + 2.0 * np.arange(nodes) / nodes
    u = 1.0 - np.abs(s_arr)[:, None] ** 2 - np.abs(t)[None, :] ** 2
    spectrum = np.fft.rfft(reference_multiplier(piece, u, bump), axis=1)[:, : k_max + 1].real
    signs = (-1.0) ** np.arange(k_max + 1)
    return spectrum * signs[None, :] / nodes


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.int64)


class TestBitwiseAgainstFullGrid:
    """The support-only multiplier and the mirrored, row-blocked table keep every bit."""

    LEVELS = (0, 1, 4, 8, 12)
    ALPHAS = (0.5, 2.0, 3.0)

    @pytest.mark.parametrize("rows", [1, 31, 32, 33, 257])
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_table_matches_one_full_rfft(self, alpha, rows):
        s_values = np.linspace(0.0, 1.0, rows) if rows > 1 else np.array([0.6])
        for j in self.LEVELS:
            piece = DyadicPiece(j, alpha)
            table = _coeff_table(piece, s_values, 64)
            want = reference_table(piece, s_values, 64)
            assert np.array_equal(bits(table), bits(want)), (j, rows)

    def test_default_table_matches_one_full_rfft(self):
        piece = DyadicPiece(4, 2.0)
        s_values = np.linspace(0.0, 1.0, 257)
        table = _coeff_table(piece, s_values, COEFF_GRID // 2)
        want = reference_table(piece, s_values, COEFF_GRID // 2)
        assert np.array_equal(bits(table), bits(want))

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_multiplier_matches_full_product(self, alpha):
        for j in self.LEVELS:
            piece = DyadicPiece(j, alpha)
            lo, hi = 2.0 ** (-j - 1), 2.0 ** (1 - j)
            u = np.array([-2.0, -0.5, -1e-9, 0.0, lo, np.nextafter(lo, 1.0),
                          0.75 * hi, np.nextafter(hi, 0.0), hi, 0.5, 1.0, 1.5, 3.0])
            got = piece.multiplier(u, BUMP)
            want = reference_multiplier(piece, u)
            assert np.array_equal(bits(got), bits(want)), j
            grid_u = np.linspace(-0.5, 1.25, 2001).reshape(23, 87)
            got = piece.multiplier(grid_u, BUMP)
            assert got.shape == grid_u.shape
            assert np.array_equal(bits(got), bits(reference_multiplier(piece, grid_u)))

    @pytest.mark.parametrize("u", [-0.3, 0.0, 0.25, 0.3, 1.0, 2.0])
    def test_scalar_multiplier_keeps_type_and_value(self, u):
        piece = DyadicPiece(1, 2.0)
        got = piece.multiplier(u, BUMP)
        want = reference_multiplier(piece, u)
        assert type(got) is type(want) is np.float64
        assert bits(got) == bits(want)


class TestGammaDecay:
    def test_report_bounded_and_unflagged(self):
        report = gamma_decay_check(2.0, 0.5, range(9), range(-64, 65))
        assert report.levels == tuple(range(9))
        assert report.k_values == tuple(range(65))
        assert not report.flagged
        assert report.growth_ratio < 1.1
        assert report.constant < 5.0
        assert np.max(report.normalized) == report.constant

    def test_k_profile_decays(self):
        report = gamma_decay_check(2.0, 0.5, range(5), range(65))
        # each level's profile falls along dyadic wavenumbers; the deep
        # levels flatten (their t-support thins) but never reverse
        assert np.all(report.sup_table[:, 64] < report.sup_table[:, 8])
        assert np.all(report.sup_table[:, 8] < report.sup_table[:, 0])

    def test_k_zero_column_within_constant(self):
        report = gamma_decay_check(2.0, 0.5, range(5), range(33))
        assert np.all(report.normalized[:, 0] <= report.constant)

    @pytest.mark.parametrize("delta", [0.0, 2.0, 2.5, -0.3])
    def test_delta_domain_errors(self, delta):
        with pytest.raises(ValueError):
            gamma_decay_check(2.0, delta, range(3), range(5))

    def test_csv_export(self, tmp_path):
        report = gamma_decay_check(2.0, 0.5, range(3), range(5))
        path = cli_artifact(
            ["decay", "--mode", "gamma", "--alpha", "2", "--delta", "0.5",
             "--j-range", "0:2", "--k-max", "4"],
            tmp_path, "gamma.csv",
        )
        lines = read_csv_rows(path)
        assert lines[0] == ["j", "k", "sup_gamma", "normalized"]
        assert len(lines) == 1 + 3 * 5
        first = lines[1]
        assert first[0] == "0" and first[1] == "0"
        assert float(first[2]) == report.sup_table[0, 0]


def plain_rule_sup(piece, k_max, nodes):
    """sup over the audit's 257 s-values of |gamma_{j,k}|, 0 <= k <= k_max, by a plain
    trapezoid of ``nodes`` nodes: the whole t-grid, no mirror, no support bands."""
    t = -1.0 + 2.0 * np.arange(nodes) / nodes
    signs = (-1.0) ** np.arange(k_max + 1)
    sup = np.zeros(k_max + 1)
    for s_values in np.array_split(np.linspace(0.0, 1.0, 257), max(1, 257 * nodes // 2**19)):
        u = 1.0 - s_values[:, None] ** 2 - t[None, :] ** 2
        spectrum = np.fft.rfft(piece.multiplier(u, BUMP), axis=1)[:, : k_max + 1].real
        sup = np.maximum(sup, np.max(np.abs(spectrum * signs / nodes), axis=0))
    return sup


class TestGammaRule:
    """The decay audit's trapezoid grows with the level and with k_max."""

    # (level, k_max, twice the audit's nodes there); the fixed 4,096-node rule
    # missed the level maximum by 9% at (8, 2048) and 85% at (10, 2048)
    CASES = [(8, 64, 8192), (10, 64, 32768), (8, 2048, 131072), (10, 2048, 131072),
             (12, 2048, 131072)]

    @pytest.mark.parametrize("j,k_max,nodes", CASES)
    def test_agrees_with_a_rule_of_twice_the_nodes(self, j, k_max, nodes):
        alpha, delta = 2.0, 0.5
        report = gamma_decay_check(alpha, delta, [j], range(k_max + 1))
        want = plain_rule_sup(DyadicPiece(j, alpha), k_max, nodes)
        got = report.sup_table[0]
        assert np.max(np.abs(got - want)) <= 1e-3 * np.max(want)
        weight = (1.0 + np.arange(k_max + 1)) ** (1.0 + delta) * 2.0 ** (j * (alpha - delta))
        level_max = np.max(want * weight)
        assert abs(report.per_level_max[0] - level_max) <= 1e-3 * level_max
        assert 2 * decomposition._audit_nodes(j, k_max) == nodes

    def test_default_audit_keeps_the_fixed_rule(self):
        assert {decomposition._audit_nodes(j, 64) for j in range(9)} == {COEFF_GRID}

    def test_levels_past_the_certified_range_refused(self):
        with pytest.raises(ValueError, match="j_range"):
            gamma_decay_check(2.0, 0.5, range(GAMMA_MAX_LEVEL + 2), range(5))


class TestSeparable:
    def test_matches_direct_route(self):
        f, g = gaussian_pair()
        piece = DyadicPiece(2, 2.0)
        direct = t_j_apply(f, g, piece, BUMP)
        sep = br_apply_separable(f, g, piece, 512)
        assert rel_l2(sep.values, direct.values) < 1e-4

    def test_truncation_error_improves_with_rank(self):
        f, g = gaussian_pair()
        piece = DyadicPiece(2, 2.0)
        direct = t_j_apply(f, g, piece, BUMP)
        errs = [
            rel_l2(br_apply_separable(f, g, piece, K).values, direct.values)
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
        table = _coeff_table(piece, inside, K)
        expected = np.zeros(grid.shape, dtype=np.complex128)
        for k in range(K + 1):
            gamma = BandSpec(0.0, 1.0, lambda r, k=k: table[np.searchsorted(inside, r), k])
            cosine = BandSpec(0.0, 1.0, lambda r, k=k: np.cos(math.pi * k * r))
            factor = 1.0 if k == 0 else 2.0
            ff, gg = band_operator(f, gamma), band_operator(g, cosine)
            expected += factor * ff.values * gg.values
        out = br_apply_separable(f, g, piece, K)
        assert np.array_equal(out.values, expected)

    @pytest.mark.parametrize("grid", [Grid(1, 64, 16.0), Grid(2, 32, 8.0)], ids=["1d", "2d"])
    def test_bitwise_equal_to_terms_through_sampled_fields(self, grid):
        f, g = random_field(grid, seed=61), random_field(grid, seed=62)
        piece = DyadicPiece(2, 2.0)
        out = br_apply_separable(f, g, piece, 64)
        want = separable_by_fields(f, g, piece, 64)
        assert np.array_equal(out.values.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("j", [7, 8])
    def test_table_agrees_with_a_rule_of_twice_the_nodes(self, j):
        # the fixed rule's error grows about 6x per level: 1.1e-3 at j = 8, 7.7e-3 at 9
        piece = DyadicPiece(j, 2.0)
        s_values = np.linspace(0.0, 1.0, 257)
        table = _coeff_table(piece, s_values, 256)
        want = reference_table(piece, s_values, 256, nodes=2 * COEFF_GRID)
        assert np.max(np.abs(table - want)) <= 2e-3 * np.max(np.abs(want))

    def test_refuses_what_its_table_does_not_resolve(self):
        f, g = gaussian_pair()
        with pytest.raises(ValueError, match=f"got j={SEPARABLE_MAX_LEVEL + 1}"):
            br_apply_separable(f, g, DyadicPiece(SEPARABLE_MAX_LEVEL + 1, 2.0), 64)
        with pytest.raises(ValueError, match=f"got K={COEFF_GRID // 2 + 1}"):
            br_apply_separable(f, g, DyadicPiece(2, 2.0), COEFF_GRID // 2 + 1)

    def test_zero_input_gives_zero(self):
        f, g = gaussian_pair()
        zero = SampledField(GRID, np.zeros(GRID.shape))
        out = br_apply_separable(zero, g, DyadicPiece(1, 2.0), 64)
        assert np.max(np.abs(out.values)) == 0.0

    def test_validation(self):
        f, g = gaussian_pair()
        with pytest.raises(ValueError):
            br_apply_separable(f, g, DyadicPiece(0, 1.0), 0)
        other = make_test_field("gaussian", {"width": 1.0}, Grid(1, 32, 16.0))
        with pytest.raises(ValueError):
            br_apply_separable(f, other, DyadicPiece(0, 1.0), 64)
