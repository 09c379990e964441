"""Tests for norm estimation: witness search, decay fits, scaling experiments."""

import json
import math
import os
import weakref
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from brlab import norms, operators
from brlab.decomposition import DyadicPiece, make_bump, t_j_apply
from brlab.grid import ExponentPair, Grid, SampledField, lp_norm, make_test_field
from brlab.norms import (
    DecayFit,
    NormEstimate,
    corollary_experiment,
    decay_fit,
    estimate_bilinear_norm,
    lemma1_scaling_experiment,
    recompute_ratio,
    witness_catalog,
)
from brlab.operators import MultiplierSpec, br_apply_oracle
from helpers import cli_artifact, read_csv_rows

BUMP = make_bump()
GRID = Grid(1, 256, 8.0)


def product_op(f, g):
    return SampledField(f.grid, f.values * g.values)


def zero_op(f, g):
    return SampledField(f.grid, np.zeros(f.grid.shape))


def tj_family(alpha):
    def family(j):
        def op(f, g, _j=j):
            return t_j_apply(f, g, DyadicPiece(_j, alpha), BUMP)

        return op

    return family


class TestWitnessCatalog:
    def test_finite_catalog_contents(self):
        items = witness_catalog(GRID, False, seed=0)
        ids = [item_id for item_id, _ in items]
        assert len(ids) == len(set(ids))
        assert len(items) >= 12
        assert any(item_id.startswith("gaussian") for item_id in ids)
        assert any(item_id.startswith("ball") for item_id in ids)
        assert any(item_id.startswith("band") for item_id in ids)
        assert any(item_id.startswith("packet") for item_id in ids)
        assert any("modulated" in item_id for item_id in ids)
        for _, f in items:
            assert lp_norm(f, 2) > 0

    def test_infinite_catalog_is_unimodular(self):
        for item_id, f in witness_catalog(GRID, True, seed=0):
            mags = np.abs(f.values)
            assert_allclose(mags, 1.0, atol=1e-12), item_id

    def test_deterministic(self):
        a = witness_catalog(GRID, False, seed=3)
        b = witness_catalog(GRID, False, seed=3)
        for (_, fa), (_, fb) in zip(a, b):
            assert np.array_equal(fa.values, fb.values)

    def test_modulation_radius_moves_annuli(self):
        wide = dict(witness_catalog(GRID, False, seed=0, modulation_radius=8.0))
        assert any("7.2" in item_id for item_id in wide)

    FULL_IDS = [
        "gaussian_0.5", "gaussian_1", "gaussian_2", "ball_0.0125", "ball_0.5", "ball_1",
        "band_0_0.5", "band_0.5_1", "band_0.9_1.1", "packet_0.9_1.1", "packet_0.5_1",
        "gaussian_1_modulated",
    ]

    @pytest.mark.parametrize(
        "grid,dropped",
        [
            (Grid(1, 256, 8.0), []),
            (Grid(1, 256, 4.0), ["ball_1"]),
            (Grid(1, 128, 2.0), ["ball_0.5", "ball_1"]),
        ],
    )
    def test_balls_of_radius_at_least_quarter_box_are_skipped(self, grid, dropped):
        ids = [item_id for item_id, _ in witness_catalog(grid, False, seed=0)]
        small = f"ball_{0.4 * grid.spacing:g}"
        want = [i.replace("ball_0.0125", small) for i in self.FULL_IDS if i not in dropped]
        assert ids == want


class TestEstimateBilinearNorm:
    def test_zero_operator(self):
        est = estimate_bilinear_norm(zero_op, ExponentPair(2, 2), GRID, 2, seed=1)
        assert est.value == 0.0

    def test_pointwise_product_reaches_cauchy_schwarz(self):
        # |f g|_1 <= |f|_2 |g|_2 with equality at matched moduli, so the
        # best witness ratio sits at 1
        est = estimate_bilinear_norm(product_op, ExponentPair(2, 2), GRID, 2, seed=1)
        f = make_test_field("gaussian", {"width": 1.0}, GRID)
        matched = lp_norm(product_op(f, f), 1) / lp_norm(f, 2) ** 2
        assert est.value >= matched * (1.0 - 1e-6)
        assert est.value == pytest.approx(1.0, abs=1e-9)

    def test_monotone_in_trials(self):
        lo = estimate_bilinear_norm(product_op, ExponentPair(2, 2), GRID, 2, seed=4)
        hi = estimate_bilinear_norm(product_op, ExponentPair(2, 2), GRID, 6, seed=4)
        assert hi.value >= lo.value

    def test_reproducible_and_recomputable(self):
        a = estimate_bilinear_norm(product_op, ExponentPair(1, 2), GRID, 3, seed=7)
        b = estimate_bilinear_norm(product_op, ExponentPair(1, 2), GRID, 3, seed=7)
        assert a.value == b.value
        assert np.array_equal(a.witness_f.values, b.witness_f.values)
        assert abs(recompute_ratio(product_op, a) - a.value) < 1e-12

    def test_exponent_tuple_accepted(self):
        est = estimate_bilinear_norm(product_op, ("1", "inf"), GRID, 1, seed=0)
        assert est.exponents.inv2 == 0
        assert est.value > 0

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            estimate_bilinear_norm(product_op, ExponentPair(2, 2), GRID, 0, seed=0)


class TestDecayFit:
    def test_piece_norm_decay_is_positive(self):
        grid = Grid(1, 256, 32.0)
        fit = decay_fit(tj_family(2.0), ExponentPair(1, 1), grid, range(9), 2, seed=3)
        assert isinstance(fit, DecayFit)
        assert not fit.degenerate
        assert fit.epsilon > 0.3
        assert fit.epsilon == -fit.slope

    def test_more_smoothing_does_not_slow_decay(self):
        grid = Grid(1, 256, 32.0)
        fit2 = decay_fit(tj_family(2.0), ExponentPair(1, 1), grid, range(7), 1, seed=3)
        fit3 = decay_fit(tj_family(3.0), ExponentPair(1, 1), grid, range(7), 1, seed=3)
        assert fit3.epsilon >= fit2.epsilon - 0.1

    def test_zero_family_degenerate(self):
        fit = decay_fit(
            lambda j: zero_op, ExponentPair(1, 1), GRID, range(4), 1, seed=0
        )
        assert fit.degenerate
        assert fit.epsilon == 0.0
        assert all(v == 0.0 for v in fit.norms)

    def test_needs_four_levels(self):
        with pytest.raises(ValueError):
            decay_fit(tj_family(2.0), ExponentPair(1, 1), GRID, range(3), 1, seed=0)

    def test_csv_export(self, tmp_path):
        fit = decay_fit(
            tj_family(2.0), ExponentPair(2, 2), Grid(1, 64, 8.0), range(4), 1, seed=0
        )
        path = cli_artifact(
            ["decay", "--mode", "tj", "--alpha", "2", "--p1", "2", "--p2", "2",
             "--N", "64", "--L", "8", "--j-range", "0:3", "--trials", "1",
             "--seed", "0"],
            tmp_path, "decay.csv",
        )
        lines = read_csv_rows(path)
        assert lines[0] == ["j", "estimate", "witness_f", "witness_g"]
        assert len(lines) == 5
        assert float(lines[1][1]) == fit.norms[0]


def _fresh_transforms(monkeypatch, exponents):
    """Defeat the reuse that is left: a new catalog on every call, a new
    spectrum per transform, and each ratio's norms computed afresh in one
    expression."""
    build = norms.witness_catalog
    ep = ExponentPair(*exponents)

    def fresh_ratio(op, f, g, p, den):
        den = lp_norm(f, ep.p1) * lp_norm(g, ep.p2)
        return lp_norm(op(f, g), ep.p) / den if den > 0 else 0.0

    def fresh_catalog(*args, **kwargs):
        norms._catalogs.clear()
        return build(*args, **kwargs)

    def fresh_forward(f):
        return SampledField(f.grid, np.fft.fftn(f.values) * f.grid.cell_volume)

    monkeypatch.setattr(norms, "witness_catalog", fresh_catalog)
    monkeypatch.setattr(operators, "dft_forward", fresh_forward)
    monkeypatch.setattr(norms, "_ratio", fresh_ratio)


def _assert_same_estimates(a, b):
    for x, y in zip(a, b, strict=True):
        assert x.value == y.value
        assert (x.witness_id_f, x.witness_id_g) == (y.witness_id_f, y.witness_id_g)
        assert x.witness_f.values.tobytes() == y.witness_f.values.tobytes()
        assert x.witness_g.values.tobytes() == y.witness_g.values.tobytes()


class TestTransformMemos:
    """Shared catalogs, kept spectra and precomputed norms change no bit of a
    witness search; at test 08's settings the two ball witnesses tie to
    ~4e-15 at several levels, so their ids show a numerator formed another way."""

    GRID = Grid(1, 256, 32.0)

    def _fit(self):
        return decay_fit(tj_family(2.0), ExponentPair(1, 1), self.GRID, range(9), 2, seed=20)

    def test_decay_fit_matches_fresh_transforms(self, monkeypatch):
        norms._catalogs.clear()
        cold, warm = self._fit(), self._fit()
        with monkeypatch.context() as patch:
            _fresh_transforms(patch, (1, 1))
            fresh = self._fit()
        for fit in (cold, warm):
            assert fit.norms == fresh.norms
            _assert_same_estimates(fit.estimates, fresh.estimates)

    def test_climb_noise_drawn_once_per_fit(self, monkeypatch):
        # the levels of a fit share each trial's climb noise; a second fit
        # draws its own, since nothing outlives a search
        draws, noise = [], norms._smooth_noise

        def counted(grid, rng, mask):
            draws.append(grid)
            return noise(grid, rng, mask)

        norms._catalogs.clear()
        monkeypatch.setattr(norms, "_smooth_noise", counted)
        for fits in (1, 2):
            decay_fit(tj_family(2.0), (1, 1), self.GRID, range(4), 2, seed=21)
            assert len(draws) == fits * 2 * norms.CLIMB_STEPS

    # at (2, inf) the climb's witnesses have inexact norms, so this case
    # also sees a denominator computed in another order
    @pytest.mark.parametrize("exponents", [(1, math.inf), (2, math.inf)])
    def test_infinite_catalog_estimate_matches_fresh_transforms(self, monkeypatch, exponents):
        grid = Grid(2, 16, 8.0)
        op = tj_family(2.0)(1)
        norms._catalogs.clear()
        memo = [estimate_bilinear_norm(op, exponents, grid, 2, seed=6) for _ in range(2)]
        _fresh_transforms(monkeypatch, exponents)
        fresh = estimate_bilinear_norm(op, exponents, grid, 2, seed=6)
        assert memo[0].witness_id_g.startswith(("const", "unimodular"))
        _assert_same_estimates(memo, [fresh, fresh])

    # at (1, 1) every level's sweep and climbs settle on the point mass; at
    # (4/3, 2) the levels' start pairs and accepted climbs differ
    @pytest.mark.parametrize(
        "exponents,grid",
        [((1, 1), GRID), ((2, math.inf), Grid(2, 16, 8.0)), (("4/3", 2), Grid(1, 64, 8.0))],
        ids=["1-1", "2-inf", "4/3-2"],
    )
    def test_operator_sequence_matches_one_call_per_operator(self, exponents, grid):
        ops = [tj_family(2.0)(j) for j in range(4)]
        together = estimate_bilinear_norm(ops, exponents, grid, 3, seed=8)
        assert isinstance(together, tuple)
        alone = [estimate_bilinear_norm(op, exponents, grid, 3, seed=8) for op in ops]
        assert all(isinstance(est, NormEstimate) for est in alone)
        _assert_same_estimates(together, alone)

    def test_one_forward_transform_per_field(self, monkeypatch):
        norms._catalogs.clear()
        applies, transformed = [0], []
        fftn = np.fft.fftn

        def counted_fftn(a, *args, **kwargs):
            transformed.append(a)  # kept alive, so ids stay distinct
            return fftn(a, *args, **kwargs)

        def family(j):
            apply = tj_family(2.0)(j)

            def op(f, g):
                applies[0] += 1
                return apply(f, g)

            return op

        monkeypatch.setattr(np.fft, "fftn", counted_fftn)
        decay_fit(family, ExponentPair(1, 1), self.GRID, range(9), 2, seed=20)
        assert len(transformed) == len({id(a) for a in transformed})
        assert len(transformed) < applies[0]  # two per apply without the memos

    def test_catalog_memo_is_bounded_and_returns_fresh_lists(self):
        norms._catalogs.clear()
        first = witness_catalog(GRID, False, seed=11)
        ids = [item_id for item_id, _ in first]
        first.clear()
        again = witness_catalog(GRID, False, seed=11)
        assert [item_id for item_id, _ in again] == ids
        assert again is not witness_catalog(GRID, False, seed=11)
        assert again[0][1] is witness_catalog(GRID, False, seed=11)[0][1]
        for seed in range(12, 18):
            witness_catalog(GRID, False, seed=seed)
        assert len(norms._catalogs) == norms._CATALOG_SLOTS == 4
        rebuilt = witness_catalog(GRID, False, seed=11)
        assert rebuilt[0][1] is not again[0][1]
        for (_, a), (_, b) in zip(rebuilt, again, strict=True):
            assert a.values.tobytes() == b.values.tobytes()


class TestSharedClimb:
    """The operators of one search share their climb candidates, and a climb
    starts from its pair's sweep value."""

    GRID = Grid(1, 256, 32.0)
    LEVELS = range(9)

    # at seed 9001 every level climbs from the same pair and accepts no step,
    # so each (trial, step) candidate serves all nine levels
    def test_one_candidate_per_trial_step(self, monkeypatch):
        built, perturb = [0], norms._perturb

        def counted(*args):
            built[0] += 1
            return perturb(*args)

        monkeypatch.setattr(norms, "_perturb", counted)
        decay_fit(tj_family(2.0), (1, 1), self.GRID, self.LEVELS, 2, seed=9001)
        assert built[0] == 2 * norms.CLIMB_STEPS

    def test_applies_per_level_are_sweep_and_climb(self):
        applies = [0]

        def family(j):
            apply = tj_family(2.0)(j)

            def op(f, g):
                applies[0] += 1
                return apply(f, g)

            return op

        decay_fit(family, (1, 1), self.GRID, self.LEVELS, 2, seed=9001)
        pairs = len(witness_catalog(self.GRID, False, 9001)) * len(
            witness_catalog(self.GRID, False, 9002)
        )
        assert pairs == 144
        assert applies[0] == len(self.LEVELS) * (pairs + 2 * norms.CLIMB_STEPS)

    # at (4/3, 2) the levels start from other pairs and accept other steps,
    # so slots are overwritten; a candidate outlives its slot only as the
    # witness of an estimate already made
    def test_live_candidates_bounded_by_slots(self, monkeypatch):
        refs, live, perturb = [], [], norms._perturb

        def tracked(*args):
            live.append([i for i, ref in enumerate(refs) if ref() is not None])
            cand = perturb(*args)
            refs.append(weakref.ref(cand))
            return cand

        monkeypatch.setattr(norms, "_perturb", tracked)
        trials = 2
        fit = decay_fit(tj_family(2.0), ("4/3", 2), Grid(1, 64, 8.0), self.LEVELS, trials, 9001)
        assert len(refs) > trials * norms.CLIMB_STEPS  # the slots were overwritten
        # the fit holds its witnesses; every other candidate is gone
        witnesses = {i for i, ref in enumerate(refs) if ref() is not None}
        assert len(witnesses) <= 2 * len(fit.estimates)
        assert witnesses  # some estimates are climb candidates
        peak = max(len(set(alive) - witnesses) for alive in live)
        assert 0 < peak <= trials * norms.CLIMB_STEPS

    def test_single_operator_keeps_no_slots(self, monkeypatch):
        refs, peak, perturb = [], [0], norms._perturb

        def tracked(*args):
            peak[0] = max(peak[0], sum(ref() is not None for ref in refs))
            cand = perturb(*args)
            refs.append(weakref.ref(cand))
            return cand

        monkeypatch.setattr(norms, "_perturb", tracked)
        op = tj_family(2.0)(2)
        estimate_bilinear_norm(op, ("4/3", 2), Grid(1, 64, 8.0), 2, seed=9001)
        # the climbs' current and best fields and the last step's candidates
        assert peak[0] <= 6

    @pytest.mark.parametrize(
        "exponents,grid",
        [((1, 1), GRID), (("4/3", 2), Grid(1, 64, 8.0)), ((math.inf, 1), GRID),
         ((2, math.inf), Grid(2, 16, 8.0))],
        ids=["1-1", "4/3-2", "inf-1", "2-inf-2d"],
    )
    def test_unshared_candidates_give_the_same_estimates(self, monkeypatch, exponents, grid):
        def fit():
            return decay_fit(tj_family(2.0), exponents, grid, range(5), 2, seed=9001)

        shared = fit()

        def unshared(slot, f, infinite, step_noise, p):
            cand = norms._perturb(f, infinite, *step_noise)
            return cand, lp_norm(cand, p)

        monkeypatch.setattr(norms, "_shared_perturb", unshared)
        alone = fit()
        assert shared.norms == alone.norms
        _assert_same_estimates(shared.estimates, alone.estimates)


class TestLemma1Scaling:
    @pytest.mark.parametrize(
        "p,tol", [("1", 0.15), ("4/3", 0.15), ("2", 0.1)]
    )
    def test_fitted_exponent_matches_prediction(self, p, tol):
        report = lemma1_scaling_experiment(p, 8.0, [0.5, 1.0, 2.0, 4.0], GRID, seed=5)
        assert abs(report.fitted_exponent - report.target_exponent) < tol

    def test_estimates_grow_with_width_at_p_one(self):
        report = lemma1_scaling_experiment(1, 8.0, [0.5, 1.0, 2.0, 4.0], GRID, seed=5)
        assert all(a < b for a, b in zip(report.estimates, report.estimates[1:]))

    def test_single_width_skips_fit(self):
        report = lemma1_scaling_experiment(1, 8.0, [1.0], GRID, seed=5)
        assert report.fitted_exponent is None
        assert len(report.estimates) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            lemma1_scaling_experiment(3, 8.0, [1.0], GRID, seed=0)
        # the exponent is printed as the user writes it, not as Fraction(3, 1)
        with pytest.raises(ValueError, match=r"got p=3$"):
            lemma1_scaling_experiment(Fraction(3), 8.0, [1.0], GRID, seed=0)
        with pytest.raises(ValueError, match=r"got p=5/2$"):
            lemma1_scaling_experiment(Fraction(5, 2), 8.0, [1.0], GRID, seed=0)
        with pytest.raises(ValueError):
            lemma1_scaling_experiment(1, 100.0, [1.0], GRID, seed=0)
        with pytest.raises(ValueError):
            lemma1_scaling_experiment(1, 8.0, [], GRID, seed=0)
        with pytest.raises(ValueError):
            lemma1_scaling_experiment(1, 8.0, [9.0], GRID, seed=0)

    def test_csv_export(self, tmp_path):
        report = lemma1_scaling_experiment(1, 8.0, [1.0, 2.0], GRID, seed=5)
        path = cli_artifact(
            ["norms", "--experiment", "lemma1", "--p", "1", "--b", "8",
             "--widths", "1,2", "--N", "256", "--L", "8", "--seed", "5"],
            tmp_path, "scaling.csv",
        )
        lines = read_csv_rows(path)
        assert lines[0] == ["w", "estimate", "witness"]
        assert len(lines) == 3
        assert [float(row[1]) for row in lines[1:]] == list(report.estimates)


class TestCorollary:
    def test_stable_under_grid_refinement(self):
        coarse = corollary_experiment(1.5, Grid(1, 128, 16.0), 3, seed=9)
        fine = corollary_experiment(1.5, Grid(1, 256, 16.0), 3, seed=9)
        assert coarse.value > 0 and fine.value > 0
        assert abs(fine.value - coarse.value) <= 0.2 * coarse.value

    def test_monotone_nonincreasing_in_alpha_at_fixed_witnesses(self):
        est = corollary_experiment(1.5, Grid(1, 128, 16.0), 3, seed=9)
        higher = recompute_ratio(
            lambda f, g: br_apply_oracle(f, g, MultiplierSpec(2.5)), est
        )
        assert higher <= est.value + 1e-12

    def test_infinite_side_witness_is_unimodular(self):
        est = corollary_experiment(1.5, Grid(1, 128, 16.0), 2, seed=9)
        assert_allclose(np.abs(est.witness_g.values), 1.0, atol=1e-12)

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            corollary_experiment(0.0, GRID, 1, seed=0)

    def test_json_export(self, tmp_path):
        est = corollary_experiment(1.5, Grid(1, 128, 16.0), 1, seed=2)
        path = cli_artifact(
            ["norms", "--experiment", "corollary", "--alpha", "1.5", "--N", "128",
             "--L", "16", "--trials", "1", "--seed", "2"],
            tmp_path, "estimate.json",
        )
        with open(path) as handle:
            body = json.load(handle)
        assert body["value"] == est.value
        run_dir = os.path.dirname(path)
        assert os.path.exists(os.path.join(run_dir, body["witness_f"]))
        assert os.path.exists(os.path.join(run_dir, body["witness_g"]))
        assert body["grid"] == {"n": 1, "N": 128, "L": 16.0}
