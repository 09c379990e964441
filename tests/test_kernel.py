"""Tests for the kernel module: closed form, quadrature, pieces, envelopes."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.special
from numpy.testing import assert_allclose
from scipy.special import gammaln, roots_legendre
from helpers import cli_artifact, polar_kj_kernel, read_csv_rows, uniform_angle_quadrature

from brlab import bessel, kernel
from brlab.bessel import AccuracyWarning
from brlab.decomposition import DyadicPiece, make_bump
from brlab.kernel import (
    MAX_CYCLES,
    NODE_CAP,
    EnvelopeReport,
    KernelPoint,
    dilation_check,
    envelope_fit,
    kernel_decay_fit,
    kernel_quadrature,
    kernel_radial,
    kj_kernel,
)

BUMP = make_bump()


def origin_value(alpha, n):
    """Integral of (1 - |z|^2)_+^alpha over R^{2n}: pi^n Gamma(a+1)/Gamma(a+n+1)."""
    return math.pi**n * math.exp(gammaln(alpha + 1.0) - gammaln(alpha + n + 1.0))


def brute_force_1d(x1, x2, alpha, nodes=1201):
    """Midpoint Riemann sum of the defining integral over the unit disk, n=1."""
    edges = np.linspace(-1.0, 1.0, nodes + 1)
    mid = (edges[:-1] + edges[1:]) / 2.0
    h = edges[1] - edges[0]
    xi, eta = np.meshgrid(mid, mid, indexing="ij")
    u = 1.0 - xi**2 - eta**2
    weight = np.where(u > 0, np.abs(u) ** alpha, 0.0)
    phase = np.cos(2.0 * math.pi * (x1 * xi + x2 * eta))
    return float(np.sum(weight * phase) * h * h)


class TestKernelPoint:
    def test_norms_and_rho(self):
        pt = KernelPoint((3.0, 0.0), (0.0, 4.0))
        assert pt.norm1 == 3.0
        assert pt.norm2 == 4.0
        assert pt.rho == 5.0

    def test_scalar_components_promote(self):
        pt = KernelPoint(1.5, -2.0)
        assert pt.x1 == (1.5,)
        assert pt.rho == pytest.approx(2.5)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            KernelPoint((1.0, 2.0), (3.0,))

    def test_scaled(self):
        pt = KernelPoint((1.0,), (2.0,)).scaled(3.0)
        assert pt.x1 == (3.0,) and pt.x2 == (6.0,)


class TestClosedForm:
    def test_origin_matches_volume_integral(self):
        for n in (1, 2, 3):
            for alpha in (1.0, 2.0, 5.0):
                assert_allclose(
                    kernel_radial(0.0, alpha, n), origin_value(alpha, n), rtol=1e-12
                )

    def test_origin_n1_alpha1_is_half_pi(self):
        assert_allclose(kernel_radial(0.0, 1.0, 1), math.pi / 2.0, rtol=1e-14)

    def test_series_bessel_branch_continuity(self):
        # values straddling the internal series cutoff must agree smoothly
        rhos = np.array([9.99e-4, 1.001e-3])
        vals = kernel_radial(rhos, 2.0, 2)
        assert abs(vals[1] - vals[0]) < 1e-8 * abs(vals[0])

    def test_matches_brute_force_integral(self):
        for x1, x2 in [(0.5, 0.0), (0.7, 1.1)]:
            pt = KernelPoint(x1, x2)
            expected = brute_force_1d(x1, x2, 2.0)
            assert_allclose(kernel_radial(pt.rho, 2.0, 1), expected, rtol=0, atol=2e-6)

    def test_vectorized_matches_scalar(self):
        rhos = np.linspace(0.0, 4.0, 17)
        vals = kernel_radial(rhos, 1.5, 2)
        singles = [kernel_radial(float(r), 1.5, 2) for r in rhos]
        assert_allclose(vals, singles, rtol=1e-15)

    def test_higher_alpha_decays_faster(self):
        # more smoothing flattens the tail: at rho = 5 the alpha = 7 kernel
        # (Bessel order 8, the largest validated) is orders of magnitude
        # below the alpha = 1 kernel
        lo = abs(kernel_radial(5.0, 7.0, 1))
        hi = abs(kernel_radial(5.0, 1.0, 1))
        assert lo < 1e-3 * hi

    def test_dilation_rule_in_radius_argument(self):
        rho = 1.3
        assert_allclose(
            kernel_radial(rho, 2.0, 1, radius=3.0),
            3.0**2 * kernel_radial(3.0 * rho, 2.0, 1),
            rtol=1e-13,
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            kernel_radial(1.0, -0.5, 1)
        with pytest.raises(ValueError):
            kernel_radial(1.0, 1.0, 0)
        with pytest.raises(ValueError):
            kernel_radial(1.0, 1.0, 1, radius=0.0)
        with pytest.raises(ValueError, match="dimension"):
            dilation_check(KernelPoint((1.0, 0.0), (0.0, 1.0)), 1.0, 1, 2.0)

    def test_refuses_bessel_order_above_validated_range(self):
        # J_{n+alpha} with n + alpha = 8.5, refused at every rho (rho = 0
        # needs no Bessel value) and named by alpha
        for rho in (0.0, 5.0):
            with pytest.raises(ValueError, match="alpha"):
                kernel_radial(rho, 6.5, 2)


class TestQuadrature:
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("alpha", [1.0, 2.0, 5.0])
    def test_cross_validates_closed_form(self, n, alpha):
        rhos = np.linspace(0.1, 10.0, 20)
        scale = max(abs(kernel_radial(r, alpha, n)) for r in rhos)
        for rho in rhos:
            pt = KernelPoint((rho,) + (0.0,) * (n - 1), (0.0,) * n)
            got = kernel_quadrature(pt, alpha, n)
            want = kernel_radial(float(rho), alpha, n)
            assert abs(got - want) <= 1e-6 * scale

    def test_depends_only_on_combined_radius(self):
        # same rho split three ways across the two slots
        rho = 1.7
        values = []
        for a in (0.0, 0.9, rho):
            b = math.sqrt(rho**2 - a**2)
            values.append(kernel_quadrature(KernelPoint(a, b), 2.0, 1))
        assert_allclose(values[1:], values[0], rtol=1e-10)

    def test_argument_swap_symmetry(self):
        v1 = kernel_quadrature(KernelPoint(0.4, 1.2), 1.5, 1)
        v2 = kernel_quadrature(KernelPoint(1.2, 0.4), 1.5, 1)
        assert_allclose(v1, v2, rtol=1e-12)

    @pytest.mark.parametrize("x1,x2,tables", [(0.9, 0.9, 1), (-0.9, 0.9, 1), (0.4, 1.2, 2)])
    def test_one_sphere_table_per_distinct_radius(self, monkeypatch, x1, x2, tables):
        # per block of radial rows: one block at the default 128 nodes, many at 800
        calls, sphere_ft = [], kernel.sphere_ft

        def counted(lam, x, n):
            calls.append(np.size(lam))
            return sphere_ft(lam, x, n)

        monkeypatch.setattr(kernel, "sphere_ft", counted)
        for G, nodes in ((128, None), (800, 800)):
            calls.clear()
            kernel_quadrature(KernelPoint(x1, x2), 2.0, 1, nodes=nodes)
            rows = kernel._TABLE_BLOCK // G
            blocks = -(-G // rows)
            assert (blocks > 1) == (nodes is not None)
            assert len(calls) == tables * blocks
            assert max(calls) <= kernel._TABLE_BLOCK
            assert sum(calls) == tables * G * G

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("x1,x2", [(3.0, 3.0), (3.0, 1.2)])
    def test_blocked_tables_match_one_block(self, monkeypatch, n, x1, x2):
        # the block shape changes only the summation order and the Bessel
        # batches, so the values agree to rounding of the cancelling sum
        pad = (0.0,) * (n - 1)
        pt = KernelPoint((x1,) + pad, (x2,) + pad)
        blocked = kernel_quadrature(pt, 2.0, n, nodes=800)
        monkeypatch.setattr(kernel, "_TABLE_BLOCK", 800 * 800 + 1)
        whole = kernel_quadrature(pt, 2.0, n, nodes=800)
        sphere_ft = kernel.sphere_ft
        monkeypatch.setattr(kernel, "sphere_ft", lambda lam, x, dim: np.abs(sphere_ft(lam, x, dim)))
        magnitude = kernel_quadrature(pt, 2.0, n, nodes=800)
        assert abs(blocked - whole) <= 1e-15 * magnitude

    @pytest.mark.parametrize("nodes", [5, 128, 129, 800])
    def test_angle_rule_sine_is_the_reversed_cosine(self, nodes):
        cos_t, sin_t, _ = kernel._polar_angle_rule(nodes, 2)
        theta = (math.pi / 4.0) * (roots_legendre(nodes)[0] + 1.0)
        assert np.array_equal(sin_t, cos_t[::-1])
        # 2 ulp of 1, the scale of the values: near theta = 0 the angle itself
        # carries an absolute rounding of that size, whichever way it is taken
        assert np.max(np.abs(sin_t - np.sin(theta))) <= 2 * np.finfo(float).eps

    @pytest.mark.parametrize("nodes", [128, 129, 192, 640, 800, NODE_CAP])
    def test_legendre_rule_is_bitwise_mirror_symmetric(self, nodes):
        # the shared sphere tables rely on this; a scipy change must fail here
        t, v = roots_legendre(nodes)
        assert np.array_equal(t, -t[::-1])
        assert np.array_equal(v, v[::-1])

    def test_oscillation_budget_warns(self):
        with pytest.warns(AccuracyWarning):
            kernel_quadrature(KernelPoint(60.0, 0.0), 1.0, 1)

    def test_node_cap_warns(self):
        with pytest.warns(AccuracyWarning):
            kernel_quadrature(KernelPoint(40.0, 0.0), 1.0, 1, radius=30.0)

    @pytest.mark.parametrize("n,nodes", [(1, NODE_CAP), (2, 1520)])
    def test_working_memory_is_bounded(self, n, nodes):
        # whole G x G tables would take ~270 MiB at each of these; alpha = 1 at
        # NODE_CAP shares the Gauss rules of the node-cap test above
        pad = (0.0,) * (n - 1)
        pt = KernelPoint((3.0,) + pad, (1.0,) + pad)
        kernel_quadrature(pt, 1.0, n, nodes=nodes)  # build the Gauss rules first
        tracemalloc.start()
        try:
            kernel_quadrature(pt, 1.0, n, nodes=nodes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 << 20

    def test_max_cycles_is_where_the_node_cap_binds(self):
        assert kernel._auto_nodes(None, MAX_CYCLES) == NODE_CAP
        with pytest.warns(AccuracyWarning, match="capping"):
            kernel._auto_nodes(None, math.nextafter(MAX_CYCLES, math.inf))

    def test_explicit_nodes_accepted(self):
        pt = KernelPoint(0.5, 0.5)
        coarse = kernel_quadrature(pt, 2.0, 1, nodes=96)
        fine = kernel_quadrature(pt, 2.0, 1, nodes=256)
        assert_allclose(coarse, fine, rtol=1e-10)

    def test_validation(self):
        pt = KernelPoint(0.5, 0.5)
        with pytest.raises(ValueError):
            kernel_quadrature(pt, -1.0, 1)
        with pytest.raises(ValueError):
            kernel_quadrature(pt, 1.0, 2)
        with pytest.raises(ValueError):
            kernel_quadrature(pt, 1.0, 1, radius=-2.0)


def split_point(rho, share, n):
    """The point with |x1| = sqrt(share) rho and |x2| = sqrt(1 - share) rho."""
    pad = (0.0,) * (n - 1)
    return KernelPoint((rho * math.sqrt(share),) + pad, (rho * math.sqrt(1.0 - share),) + pad)


class TestAngularRuleSizes:
    """Each radial node r gets the angular rule its own r * rho cycles need."""

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("rho,R,nodes,alpha", [(3.3, 4.0, None, 0.5), (13.3, 1.0, None, 2.0),
                                                   (20.0, 2.0, 224, 5.0), (40.0, 0.5, 800, 1.0)])
    def test_bitwise_the_uniform_rule_where_the_floor_binds(self, n, rho, R, nodes, alpha):
        # R rho <= 13.3 at the default floor of 128, or nodes >= 80 + 3.6 R rho:
        # every radius gets the G-node rule
        for share in (0.5, 0.2):
            pt = split_point(rho, share, n)
            got = kernel_quadrature(pt, alpha, n, nodes=nodes, radius=R)
            assert got == uniform_angle_quadrature(pt, alpha, n, nodes=nodes, radius=R)[0]

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 5.0])
    def test_agrees_with_the_uniform_rule(self, n, alpha):
        # measured: <= 1.6e-15 of the absolute-value sum, equal or unequal |x1|, |x2|
        for rho, R, share in ((50.0, 4.0, 0.5), (50.0, 4.0, 0.1), (20.0, 2.0, 0.3),
                              (50.0, 0.5, 0.5)):
            pt = split_point(rho, share, n)
            got = kernel_quadrature(pt, alpha, n, radius=R)
            want, magnitude = uniform_angle_quadrature(pt, alpha, n, radius=R)
            assert abs(got - want) <= 1e-13 * magnitude

    @pytest.mark.parametrize("n,alpha", [(1, 0.5), (2, 5.0)])
    def test_both_rules_agree_with_a_doubled_uniform_rule(self, n, alpha):
        pt = split_point(50.0, 0.1, n)
        G = kernel._auto_nodes(None, 4.0 * pt.rho)
        reference = uniform_angle_quadrature(pt, alpha, n, nodes=2 * G, radius=4.0)[0]
        uniform, magnitude = uniform_angle_quadrature(pt, alpha, n, radius=4.0)
        for value in (kernel_quadrature(pt, alpha, n, radius=4.0), uniform):
            assert abs(value - reference) <= 1e-13 * magnitude

    def test_fewer_table_entries_in_bounded_calls(self, monkeypatch):
        calls, sphere_ft = [], kernel.sphere_ft

        def counted(lam, x, n):
            calls.append(np.size(lam))
            return sphere_ft(lam, x, n)

        monkeypatch.setattr(kernel, "sphere_ft", counted)
        G = 800  # rho = 50, R = 4: 200 cycles
        # |x1| = |x2|: one table, 0.59 G^2 entries; |x1| != |x2|: two such tables
        for share, tables in ((0.5, 1), (0.3, 2)):
            calls.clear()
            kernel_quadrature(split_point(50.0, share, 2), 2.0, 2, radius=4.0)
            assert sum(calls) < tables * G * G * 0.6
            assert max(calls) <= kernel._TABLE_BLOCK

    def test_rule_sizes_stay_on_the_ladder(self):
        assert kernel._ladder(np.array([1, 64, 65, 1024, 1025, 2048, 2049, 2944])).tolist() == [
            64, 64, 128, 1024, 1152, 2048, 2112, 3072]
        # a quadrature at the node cap asks for 29 angular rule sizes
        sizes = {min(NODE_CAP, int(kernel._ladder(k))) for k in range(128, NODE_CAP + 1)}
        assert len(sizes) == 29 and all(k % 64 == 0 for k in sizes - {NODE_CAP})

    def test_rule_memo_does_not_churn(self, monkeypatch):
        # the size classes of one G = 800 quadrature, its radial rule and its
        # G rule all stay in the memo: a repeat builds nothing
        builds = []
        monkeypatch.setattr(bessel, "_RULES", {})
        for provider in (bessel.roots_jacobi, kernel.roots_legendre):
            build = getattr(scipy.special, provider.name)
            monkeypatch.setattr(provider, "fn",
                                lambda *args, build=build: builds.append(args) or build(*args))
        pt = split_point(50.0, 0.5, 1)
        first = kernel_quadrature(pt, 1.0, 1, radius=4.0)
        assert 2 < len(builds) <= -(-800 // 64) + 2
        builds.clear()
        assert kernel_quadrature(pt, 1.0, 1, radius=4.0) == first
        assert builds == []


class TestDilation:
    @pytest.mark.parametrize("R", [0.5, 2.0, 4.0])
    def test_residual_small(self, R):
        pt = KernelPoint(0.8, 0.5)
        assert dilation_check(pt, 2.0, 1, R) < 1e-6

    def test_trivial_dilation_matches_to_roundoff(self):
        # R = 1 compares the two evaluation routes directly; they are
        # independent algorithms, so agreement is to quadrature accuracy,
        # not bitwise
        assert dilation_check(KernelPoint(0.8, 0.5), 2.0, 1, 1.0) < 1e-10

    def test_rejects_nonpositive_R(self):
        with pytest.raises(ValueError):
            dilation_check(KernelPoint(0.5, 0.5), 1.0, 1, 0.0)


class TestKjKernel:
    def test_piece_sum_telescopes_to_closed_form(self):
        alpha = 2.0
        for rho in (0.4, 1.0):
            pt = KernelPoint(rho, 0.0)
            total = sum(
                kj_kernel(pt, DyadicPiece(j, alpha), 1, BUMP) for j in range(13)
            )
            want = kernel_radial(pt.rho, alpha, 1)
            assert abs(total - want) < 1e-4 * max(abs(want), 1e-3)

    def test_deep_slice_is_negligible(self):
        # at level 30 the profile u^alpha is ~2^{-60} on the support annulus
        value = kj_kernel(KernelPoint(1.0, 0.0), DyadicPiece(30, 2.0), 1, BUMP)
        assert abs(value) < 1e-12

    def test_argument_swap_symmetry(self):
        piece = DyadicPiece(2, 2.0)
        v1 = kj_kernel(KernelPoint(0.3, 1.1), piece, 1, BUMP)
        v2 = kj_kernel(KernelPoint(1.1, 0.3), piece, 1, BUMP)
        assert_allclose(v1, v2, rtol=1e-10)

    def test_oscillation_budget_warns(self):
        with pytest.warns(AccuracyWarning):
            kj_kernel(KernelPoint(60.0, 0.0), DyadicPiece(1, 1.0), 1, BUMP)

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            kj_kernel(KernelPoint((1.0, 0.0), (0.0, 0.0)), DyadicPiece(0, 1.0), 1, BUMP)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0])
    def test_matches_polar_quadrature(self, n, alpha):
        # the polar double quadrature of sphere transforms is the independent
        # route; points split rho between x1 and x2 in several ways
        pad = (0.0,) * (n - 1)
        splits = [(0.0, 0.0), (0.5, 0.0), (2.1, 2.1), (7.2, 9.6), (0.0, 23.0), (30.0, 40.0)]
        points = [KernelPoint((a,) + pad, (b,) + pad) for a, b in splits]
        for j in (0, 3, 6):
            piece = DyadicPiece(j, alpha)
            got = kj_kernel(points, piece, n, BUMP)
            want = np.array([polar_kj_kernel(pt, piece, n, BUMP) for pt in points])
            assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))

    def test_one_bessel_evaluation_per_distinct_nonzero_rho(self, monkeypatch):
        orders, bessel_j = [], kernel.bessel_j

        def counted(k, r):
            orders.append(k)
            return bessel_j(k, r)

        monkeypatch.setattr(kernel, "bessel_j", counted)
        # rho = 0, 5 (twice, swapped) and 1.25
        points = [KernelPoint(0.0, 0.0), KernelPoint(3.0, 4.0), KernelPoint(4.0, 3.0),
                  KernelPoint(0.75, 1.0), KernelPoint(0.0, 0.0)]
        kj_kernel(points, DyadicPiece(2, 2.0), 1, BUMP)
        assert orders == [0, 0]

    @pytest.mark.filterwarnings("ignore::brlab.bessel.AccuracyWarning")
    @pytest.mark.parametrize("n", [1, 2])
    def test_batch_matches_single_points_bitwise(self, n):
        # a product grid with the origin and swapped pairs, plus a rho beyond
        # the budget that needs more nodes than the floor, so two rules form
        pad = (0.0,) * (n - 1)
        radii = (0.0, 0.7, 3.5, 14.0, 28.0)
        points = [KernelPoint((a,) + pad, (b,) + pad) for a in radii for b in radii]
        points.append(KernelPoint((200.0,) + pad, (0.0,) + pad))
        for piece in (DyadicPiece(0, 2.0), DyadicPiece(3, 1.5)):
            batch = kj_kernel(points, piece, n, BUMP)
            single = np.array([kj_kernel(pt, piece, n, BUMP) for pt in points])
            assert isinstance(batch, np.ndarray)
            assert np.array_equal(batch, single)

    def test_node_ladder_past_120_cycles(self, monkeypatch):
        # j = 0 spans (r_hi - r_lo) = 0.707, so rho in [200, 400] is 141..283
        # cycles, 589..1100 nodes unrounded; rho = 0 sets max|K_j|
        rhos = [0.0, *np.linspace(200.0, 400.0, 9)]
        points = [KernelPoint(rho, 0.0) for rho in rhos]
        piece = DyadicPiece(0, 2.0)
        requested, roots = [], kernel.roots_legendre
        monkeypatch.setattr(kernel, "roots_legendre", lambda k: requested.append(k) or roots(k))
        with pytest.warns(AccuracyWarning, match="oscillation budget"):
            rounded = kj_kernel(points, piece, 1, BUMP)
        assert sum(k > 512 for k in requested) >= 2
        assert all(k % 64 == 0 for k in requested)
        monkeypatch.setattr(kernel, "_ladder", lambda k: k)
        with pytest.warns(AccuracyWarning):
            unrounded = kj_kernel(points, piece, 1, BUMP)
        assert np.max(np.abs(rounded - unrounded)) <= 1e-13 * np.max(np.abs(unrounded))

    def test_batch_warns_once_per_out_of_budget_point(self):
        points = [KernelPoint(60.0, 0.0), KernelPoint(1.0, 0.5), KernelPoint(0.0, 70.0)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            kj_kernel(points, DyadicPiece(1, 1.0), 1, BUMP)
        assert [issubclass(w.category, AccuracyWarning) for w in caught] == [True, True]

    def test_batch_rejects_a_wrong_dimension_point_anywhere(self):
        points = [KernelPoint(1.0, 0.0), KernelPoint((1.0, 0.0), (0.0, 0.0))]
        with pytest.raises(ValueError):
            kj_kernel(points, DyadicPiece(0, 1.0), 1, BUMP)

    def test_empty_annulus_gives_zeros(self):
        # at j = 60 both slice edges round to 1, so the support is empty
        points = [KernelPoint(0.0, 0.0), KernelPoint(1.0, 2.0)]
        values = kj_kernel(points, DyadicPiece(60, 2.0), 1, BUMP)
        assert np.array_equal(values, np.zeros(2))
        assert kj_kernel(points[1], DyadicPiece(60, 2.0), 1, BUMP) == 0.0


def sample_points():
    radii = [0.0, 0.7, 2.1, 3.5]
    return [KernelPoint(a, b) for a in radii for b in radii]


class TestEnvelope:
    def test_constants_flat_across_levels(self):
        pieces = [DyadicPiece(j, 2.0) for j in range(7)]
        for M in (2.0, 3.0):
            report = envelope_fit(pieces, 1, M, sample_points(), BUMP)
            assert isinstance(report, EnvelopeReport)
            assert not report.flagged
            assert report.slope <= 0.1
            assert all(c > 0 for c in report.constants)

    def test_origin_constant_independent_of_M(self):
        # at the origin the spatial factors are 1, so the fitted constant
        # must not move when M changes
        pieces = [DyadicPiece(j, 2.0) for j in range(4)]
        origin = [KernelPoint(0.0, 0.0)]
        c2 = envelope_fit(pieces, 1, 2.0, origin, BUMP).constants
        c4 = envelope_fit(pieces, 1, 4.0, origin, BUMP).constants
        assert_allclose(c2, c4, rtol=1e-14)

    def test_pieces_share_one_legendre_rule(self, monkeypatch):
        pieces = [DyadicPiece(j, 2.0) for j in range(7)]
        points = sample_points()
        builds, inside = [], []

        def counted_build(nodes):
            builds.append(nodes)
            return roots_legendre(nodes)

        def recorded(*args):
            inside.append(kj_kernel(*args))
            return inside[-1]

        monkeypatch.setattr(bessel, "_RULES", {})
        monkeypatch.setattr(kernel.roots_legendre, "fn", counted_build)
        monkeypatch.setattr(kernel, "kj_kernel", recorded)
        envelope_fit(pieces, 1, 2.0, points, BUMP)
        assert builds == [kernel.PIECE_NODES]
        # per-piece calls after the fit reuse that rule, to the same bits
        for piece, values in zip(pieces, inside, strict=True):
            assert kj_kernel(points, piece, 1, BUMP).tobytes() == values.tobytes()
        assert builds == [kernel.PIECE_NODES]
        # a fresh memo rebuilds the rule, to the same bits again
        monkeypatch.setattr(bessel, "_RULES", {})
        assert kj_kernel(points, pieces[3], 1, BUMP).tobytes() == inside[3].tobytes()
        assert builds == [kernel.PIECE_NODES] * 2

    def test_underflowing_envelope_names_its_factor(self):
        # 2^(-400 * 3) is 0 whatever M is; at j=0 only M can reach 0
        with pytest.raises(ValueError, match=r"level j=400 underflows the envelope scale"):
            envelope_fit(DyadicPiece(400, 2.0), 1, 2.0, sample_points(), BUMP)
        with pytest.raises(ValueError, match=r"envelope power M=1000 underflows"):
            envelope_fit(DyadicPiece(0, 2.0), 1, 1000.0, sample_points(), BUMP)

    def test_single_piece_accepted(self):
        report = envelope_fit(DyadicPiece(1, 2.0), 1, 2.0, sample_points(), BUMP)
        assert report.levels == (1,)
        assert report.slope == 0.0

    def test_validation(self):
        pieces = [DyadicPiece(0, 1.0), DyadicPiece(1, 2.0)]
        with pytest.raises(ValueError):
            envelope_fit(pieces, 1, 2.0, sample_points(), BUMP)
        with pytest.raises(ValueError):
            envelope_fit(DyadicPiece(0, 1.0), 1, 0.0, sample_points(), BUMP)

    def test_csv_export(self, tmp_path):
        # the CLI samples K_j on this radius grid in both variables
        radii = [0.0, 0.7, 2.1, 3.5, 7.0, 14.0, 28.0]
        points = [KernelPoint(a, b) for a in radii for b in radii]
        report = envelope_fit(
            [DyadicPiece(j, 2.0) for j in range(3)], 1, 2.0, points, BUMP
        )
        path = cli_artifact(
            ["kernel", "--check", "envelope", "--alpha", "2", "--M", "2",
             "--j-range", "0:2"],
            tmp_path, "envelope.csv",
        )
        lines = read_csv_rows(path)
        assert lines[0] == ["j", "constant"]
        assert len(lines) == 4
        assert float(lines[1][1]) == report.constants[0]


class TestDecayFit:
    @pytest.mark.parametrize("n,alpha", [(1, 1.0), (1, 2.0), (2, 2.0)])
    def test_exponent_matches_oscillatory_rate(self, n, alpha):
        fit = kernel_decay_fit(alpha, n)
        assert abs(fit.decay_exponent - (n + alpha + 0.5)) < 0.1

    def test_peaks_are_decreasing(self):
        fit = kernel_decay_fit(2.0, 1)
        peaks = np.asarray(fit.peak_values)
        assert np.all(np.diff(peaks) < 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            kernel_decay_fit(1.0, 1, rho_lo=5.0, rho_hi=2.0)
