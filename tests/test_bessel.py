"""Tests for the Bessel evaluation routes and the sphere transform."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose
import scipy.special

from brlab import bessel, kernel
from brlab.bessel import (
    MAX_VALIDATED_ARGUMENT,
    MAX_VALIDATED_ORDER,
    AccuracyWarning,
    bessel_j,
    bessel_j_oracle,
    sphere_ft,
)

HALF_INTEGER_ORDERS = [0.5, 1.5, 2.5]
TEST_ORDERS = [0, 0.5, 1, 1.5, 2, 2.5]


def mp_besselj(k: float, r: float) -> float:
    """J_k(r) from mpmath at 30 digits, sharing no code with scipy or brlab."""
    with mpmath.workdps(30):
        return float(mpmath.besselj(k, r))


class TestBesselJ:
    def test_values_at_zero(self):
        assert bessel_j(0, 0.0) == 1.0
        for k in [0.5, 1, 1.5, 2]:
            assert bessel_j(k, 0.0) == 0.0

    def test_negative_order_diverges_at_zero(self):
        # J_k(r) ~ (r/2)^k / Gamma(k+1) blows up at r = 0 for -1/2 < k < 0
        assert bessel_j(-0.25, 0.0) == math.inf
        assert_allclose(bessel_j(-0.25, 1e-3), mp_besselj(-0.25, 1e-3), rtol=1e-13)
        both = bessel_j(-0.25, np.array([0.0, 1e-3]))
        assert both[0] == math.inf and both[1] == bessel_j(-0.25, 1e-3)

    def test_small_argument_series_reference(self):
        # J_0(x) = 1 - x^2/4 + x^4/64 - ... at x small enough for 3 terms
        x = 0.02
        expected = 1.0 - x**2 / 4.0 + x**4 / 64.0
        assert_allclose(bessel_j(0, x), expected, rtol=1e-12)

    def test_half_integer_closed_form(self):
        # J_{1/2}(r) = sqrt(2/(pi r)) sin r
        r = np.concatenate([np.linspace(0.05, 11.9, 37), np.linspace(12.1, 180.0, 41)])
        exact = np.sqrt(2.0 / (math.pi * r)) * np.sin(r)
        assert np.max(np.abs(bessel_j(0.5, r) - exact)) < 1e-10

    def test_three_halves_closed_form(self):
        # J_{3/2}(r) = sqrt(2/(pi r)) (sin r / r - cos r)
        r = np.linspace(0.5, 150.0, 97)
        exact = np.sqrt(2.0 / (math.pi * r)) * (np.sin(r) / r - np.cos(r))
        assert np.max(np.abs(bessel_j(1.5, r) - exact)) < 1e-10

    def test_agrees_with_oracle_across_orders(self):
        r = np.logspace(np.log10(0.01), np.log10(200.0), 40)
        for k in TEST_ORDERS:
            diff = np.abs(bessel_j(k, r) - bessel_j_oracle(k, r))
            assert np.max(diff) < 1e-9, f"order {k}: worst {np.max(diff):.3e}"

    def test_recurrence_consistency(self):
        # J_{k-1}(r) + J_{k+1}(r) = (2k/r) J_k(r), couples independent orders
        rng = np.random.default_rng(7)
        r = rng.uniform(1.0, 60.0, size=50)
        for k in [1, 1.5, 2]:
            lhs = bessel_j(k - 1, r) + bessel_j(k + 1, r)
            rhs = (2.0 * k / r) * bessel_j(k, r)
            assert_allclose(lhs, rhs, atol=1e-10)

    def test_scalar_in_scalar_out(self):
        out = bessel_j(1, 2.5)
        assert isinstance(out, float)

    def test_envelope_bound(self):
        # sqrt(r) |J_k(r)| stays bounded along the tail
        r = np.logspace(0, 4, 300)
        for k in TEST_ORDERS:
            assert np.max(np.sqrt(r) * np.abs(bessel_j(k, r))) < 1.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            bessel_j(-0.5, 1.0)
        with pytest.raises(ValueError):
            bessel_j(0, -1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_argument(self, bad):
        # nan used to raise a misleading OverflowError, inf a RuntimeWarning in cos
        for r in (bad, np.array([1.0, 20.0, bad])):
            with pytest.raises(ValueError, match=f"finite, got r={bad}"):
                bessel_j(0, r)

    def test_rejects_orders_above_validated_range(self):
        assert MAX_VALIDATED_ORDER == 8.0
        assert math.isfinite(bessel_j(8.0, 16.0))
        for k in (8.0 + 1e-9, 8.5, 9, 10, 20):
            with pytest.raises(ValueError, match="validated"):
                bessel_j(k, np.array([1.0, 20.0]))

    @given(
        k=st.floats(
            min_value=-0.5, max_value=MAX_VALIDATED_ORDER, exclude_min=True,
            allow_subnormal=False,
        )
        | st.sampled_from([0.0, 1.0] + [m + 0.5 for m in range(8)]),
        r=st.floats(min_value=1e-300, max_value=MAX_VALIDATED_ARGUMENT),
    )
    def test_matches_independent_reference(self, k, r):
        # mpmath shares no code with scipy, which bessel_j calls (j0 and j1
        # at orders 0 and 1, jv elsewhere), or with the oracle.  The kernel
        # uses orders n + alpha up to 7, and the piece kernels orders 0 and 1
        # out to r ~ 1.7e6.  Measured worst: 1.5e-14 for 1e-8 <= r <= 2e4
        # (6,000 random draws), 3e-14 at orders 0 and 1 on [2e4, 2e6] (4,530
        # draws), and 4.4e-14 on the leading-term branch below 1e-8.
        want = mp_besselj(k, r)
        assert abs(bessel_j(k, r) - want) <= 1e-13 * max(1.0, abs(want))

    def test_warns_past_the_validated_argument(self):
        assert MAX_VALIDATED_ARGUMENT == 2e6
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bessel_j(0, 2e6)
            bessel_j(2.5, np.array([1.0, 2e6]))
        past = math.nextafter(2e6, math.inf)
        for k in (0, 2.5):
            with pytest.warns(AccuracyWarning, match="validated"):
                bessel_j(k, np.array([1.0, past]))

    def test_subnormal_arguments(self):
        # values from mpmath.besselj at 30 digits; below the normal range r/2
        # rounds (5e-324 halves to 0), and jv returns 0, inf or lost digits
        cases = [
            (0.0, 5e-324, 1.0),
            (1e-300, 5e-324, 1.0),
            (5e-324, 5e-324, 1.0),
            (-2.2250738585e-313, 1e-300, 1.0),
            (0.03125, 5e-324, 7.848086161605232e-11),
            (0.03125, 1.5e-323, 8.122202287080489e-11),
            (0.03125, 2.2250738585072014e-308, 2.4206806874323684e-10),
            (-0.25, 5e-324, 6.509198852597572e80),
            (-0.49, 1.5e-323, 1.2405301486907302e158),
            (-0.25, 1e-310, 3.0688361644828e77),
        ]
        for k, r, want in cases:
            assert_allclose(bessel_j(k, r), want, rtol=1e-13)


class TestSeriesStopRule:
    def test_single_branch_batch_equals_mixed_batch(self):
        # no value depends on its batch mates, a leading-term radius included
        # (J_{-1/4}(11) ~ -0.093 must not move when r = 1e-300 joins it)
        rng = np.random.default_rng(12)
        for k in (-0.25, 0.0, 1.5, 7.0):
            switch = max(12.0, 2.0 * k)
            series = np.sort(switch * rng.random(50))
            expansion = switch + 300.0 * rng.random(50)
            mixed = bessel_j(k, np.concatenate([series, expansion, [1e-300, 11.0]]))
            assert np.array_equal(bessel_j(k, series), mixed[:50])
            assert np.array_equal(bessel_j(k, expansion), mixed[50:100])
            assert mixed[100] == bessel_j(k, 1e-300) and mixed[101] == bessel_j(k, 11.0)


class TestBesselOracle:
    def test_known_zero_of_j0(self):
        # first positive zero of J_0
        z0 = 2.404825557695773
        assert abs(bessel_j_oracle(0, z0)) < 1e-12

    def test_half_integer_closed_form(self):
        r = np.linspace(0.1, 150.0, 83)
        exact = np.sqrt(2.0 / (math.pi * r)) * np.sin(r)
        assert np.max(np.abs(bessel_j_oracle(0.5, r) - exact)) < 1e-10

    def test_warns_beyond_budget(self):
        with pytest.warns(AccuracyWarning):
            bessel_j_oracle(0, 250.0)

    def test_silent_within_budget(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bessel_j_oracle(0, 199.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_argument(self, bad):
        # nan used to come back as nan without a word
        for r in (bad, np.array([1.0, bad])):
            with pytest.raises(ValueError, match=f"finite, got r={bad}"):
                bessel_j_oracle(1, r)

    def test_independent_of_call_history(self, monkeypatch):
        # a nearby order asked for first must not lend its rule to a later one
        r = np.linspace(0.5, 150.0, 61)
        monkeypatch.setattr(bessel, "_RULES", {})
        fresh = bessel_j_oracle(2.0, r)
        monkeypatch.setattr(bessel, "_RULES", {})
        bessel_j_oracle(2.0 + 4e-13, r)
        assert bessel_j_oracle(2.0, r).tobytes() == fresh.tobytes()


class TestGaussRules:
    """The one Gauss-rule provider: ``roots_jacobi`` and ``roots_legendre``."""

    @pytest.fixture
    def builds(self, monkeypatch):
        """A fresh memo, with every scipy build recorded by provider and args."""
        log = []
        monkeypatch.setattr(bessel, "_RULES", {})
        for provider in (bessel.roots_jacobi, kernel.roots_legendre):
            build = getattr(scipy.special, provider.name)

            def builder(*args, name=provider.name, build=build):
                log.append((name, *args))
                return build(*args)

            monkeypatch.setattr(provider, "fn", builder)
        return log

    def test_one_build_per_distinct_request(self, builds):
        requests = [(8, 1.0, 1.0), (8, 1.0, 1.0 + 4e-13), (8, 1.0, 1.0), (9, 1.0, 1.0)]
        rules = [bessel.roots_jacobi(*args) for args in requests]
        assert rules[2] is rules[0] and rules[1] is not rules[0]
        legendre = kernel.roots_legendre(8)
        assert kernel.roots_legendre(8) is legendre
        assert builds == [
            ("roots_jacobi", 8, 1.0, 1.0),
            ("roots_jacobi", 8, 1.0, 1.0 + 4e-13),
            ("roots_jacobi", 9, 1.0, 1.0),
            ("roots_legendre", 8),
        ]

    def test_rules_are_read_only(self, builds):
        for nodes, weights in (bessel.roots_jacobi(6, 0.5, 0.0), kernel.roots_legendre(6)):
            for array in (nodes, weights):
                with pytest.raises(ValueError):
                    array[0] = 0.0

    def test_least_recently_used_rule_goes_past_the_budget(self, builds, monkeypatch):
        # an 8-node rule holds 128 bytes of nodes and weights: room for two
        monkeypatch.setattr(bessel, "RULE_BUDGET_BYTES", 256)
        a, b, c = (8, 0.0, 0.0), (8, 1.0, 0.0), (8, 2.0, 0.0)
        for args in (a, b, a, c):
            bessel.roots_jacobi(*args)
        assert list(bessel._RULES) == [("roots_jacobi", *a), ("roots_jacobi", *c)]
        bessel.roots_jacobi(*b)  # rebuilt, and a goes in turn
        assert list(bessel._RULES) == [("roots_jacobi", *c), ("roots_jacobi", *b)]
        assert [args[1:] for args in builds] == [a, b, c, b]
        # a rule larger than the whole budget is still kept, alone
        bessel.roots_jacobi(40, 0.0, 0.0)
        assert list(bessel._RULES) == [("roots_jacobi", 40, 0.0, 0.0)]

    def test_one_provider_for_every_module(self):
        assert kernel.roots_jacobi is bessel.roots_jacobi
        assert isinstance(kernel.roots_legendre, bessel._GaussRules)


class TestSphereFt:
    def test_value_at_origin_matches_surface_area(self):
        assert_allclose(sphere_ft(1.0, [0.0, 0.0], 2), 2.0 * math.pi, rtol=1e-12)
        assert_allclose(sphere_ft(1.0, [0.0] * 3, 3), 4.0 * math.pi, rtol=1e-12)
        assert_allclose(sphere_ft(1.0, 0.0, 1), 2.0, rtol=1e-12)

    def test_one_dimensional_two_point_measure(self):
        rng = np.random.default_rng(3)
        for x in rng.uniform(0.0, 5.0, size=20):
            assert_allclose(
                sphere_ft(1.0, x, 1), 2.0 * math.cos(2.0 * math.pi * x), rtol=0, atol=1e-12
            )

    def test_dilation_identity(self):
        # the lambda-dilated measure transforms to the unit transform at lam*x
        rng = np.random.default_rng(11)
        for _ in range(20):
            lam = rng.uniform(0.2, 4.0)
            x = rng.uniform(-2.0, 2.0, size=2)
            assert_allclose(
                sphere_ft(lam, x, 2), sphere_ft(1.0, lam * x, 2), rtol=1e-12, atol=1e-12
            )

    def test_radial(self):
        a = sphere_ft(1.0, [0.6, 0.8], 2)
        b = sphere_ft(1.0, [1.0, 0.0], 2)
        assert_allclose(a, b, rtol=1e-12)

    def test_vectorized_over_lambda(self):
        lams = np.linspace(0.5, 3.0, 17)
        out = sphere_ft(lams, [0.3, 0.4], 2)
        assert out.shape == lams.shape
        singles = np.array([sphere_ft(l, [0.3, 0.4], 2) for l in lams])
        assert_allclose(out, singles, rtol=1e-12)

    @pytest.mark.parametrize("n", [2, 3])
    def test_tiny_arguments_leave_the_others_bitwise(self, n):
        lams = np.linspace(0.5, 3.0, 17)
        alone = sphere_ft(lams, [0.3, 0.4], n)
        mixed = sphere_ft(np.concatenate([[1e-9], lams]), [0.3, 0.4], n)
        assert mixed[0] == pytest.approx(sphere_ft(1.0, [0.0, 0.0], n), rel=1e-12)
        assert mixed[1:].tobytes() == alone.tobytes()

    def test_continuity_at_small_argument(self):
        # the series branch and Bessel branch meet smoothly near z ~ 1e-6
        below = sphere_ft(1.0, [1e-7 / (2 * math.pi), 0.0], 2)
        above = sphere_ft(1.0, [2e-6 / (2 * math.pi), 0.0], 2)
        assert abs(below - above) < 1e-9

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            sphere_ft(0.0, [1.0, 0.0], 2)
        with pytest.raises(ValueError):
            sphere_ft(1.0, [1.0], 0)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_dilation(self, bad, n):
        # nan used to pass the lambda > 0 check
        for lam in (bad, np.array([0.5, bad])):
            with pytest.raises(ValueError, match=f"got lam={bad}"):
                sphere_ft(lam, [1.0] * n, n)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_point(self, bad, n):
        with pytest.raises(ValueError, match="finite norm, got x="):
            sphere_ft(np.array([0.5, 1.0]), [bad] + [0.0] * (n - 1), n)
