"""Convolution kernel of the bilinear means: closed form, quadrature, decay.

The kernel is radial on the doubled space: its value at (x1, x2) in
R^n x R^n depends only on rho = sqrt(|x1|^2 + |x2|^2).  Three routes:
the Bessel closed form of the full kernel; the polar double quadrature of
the defining integral against sphere transforms (angular rules sized per
radius), its independent check; and the 1-D radial transform on R^{2n} for
the dyadic piece kernels, whose polar-quadrature check lives with the tests.
Their agreement, the dilation identity, the asymptotic decay rate, and the
dyadic piece-kernel envelope are the checks this module exposes.

``gammaln``, ``roots_jacobi`` and ``roots_legendre`` are the deferred
``scipy.special`` functions of :mod:`brlab.bessel`: scipy is loaded by the
first Gauss rule, log-gamma or Bessel call in either module, not by importing
them, and the two rule functions build each rule once per process.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._fit import least_squares_slope
from .bessel import (
    MAX_VALIDATED_ORDER,
    AccuracyWarning,
    _GaussRules,
    _point_radius,
    bessel_j,
    gammaln,
    roots_jacobi,
    sphere_ft,
)

roots_legendre = _GaussRules("roots_legendre")

#: hard cap on per-axis quadrature nodes
NODE_CAP = 3000
#: most sphere-transform entries ``kernel_quadrature`` builds at once: it walks
#: the rows of each angular rule size in blocks of max(1, _TABLE_BLOCK // size),
#: so its working memory is O(_TABLE_BLOCK) (about 2 MiB) at any G
_TABLE_BLOCK = 1 << 14
#: node density of every quadrature rule: a base plus so many per cycle
_BASE_NODES, _NODES_PER_CYCLE = 80, 3.6
#: most oscillation cycles (radius * rho) the quadratures resolve: past it
#: ``_cycle_nodes`` wants more than NODE_CAP nodes and values mean nothing
MAX_CYCLES = (NODE_CAP - _BASE_NODES) / _NODES_PER_CYCLE
#: Gauss-Legendre node floor of the piece kernels' radial rule
PIECE_NODES = 512
_SERIES_RHO = 1e-3


def _as_point(x) -> tuple[float, ...]:
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if arr.ndim != 1:
        raise ValueError("kernel point components must be scalars or 1-d")
    return tuple(float(c) for c in arr)


@dataclass(frozen=True)
class KernelPoint:
    """A point (x1, x2) in R^n x R^n; the kernel sees only its radius rho."""

    x1: tuple[float, ...]
    x2: tuple[float, ...]

    def __init__(self, x1, x2):
        object.__setattr__(self, "x1", _as_point(x1))
        object.__setattr__(self, "x2", _as_point(x2))
        if len(self.x1) != len(self.x2):
            raise ValueError("x1 and x2 must have the same dimension")

    @property
    def norm1(self) -> float:
        return math.sqrt(sum(c * c for c in self.x1))

    @property
    def norm2(self) -> float:
        return math.sqrt(sum(c * c for c in self.x2))

    @property
    def rho(self) -> float:
        return math.sqrt(self.norm1**2 + self.norm2**2)

    def scaled(self, factor: float) -> "KernelPoint":
        return KernelPoint(
            tuple(factor * c for c in self.x1), tuple(factor * c for c in self.x2)
        )


def check_closed_form(alpha: float, n: int) -> None:
    """Refuse an (alpha, n) the closed form cannot evaluate.

    The closed form takes J_{n+alpha}, so n + alpha may not exceed the
    validated Bessel order; the message names alpha.
    """
    if alpha < 0:
        raise ValueError(f"smoothness index must satisfy alpha >= 0, got alpha={alpha}")
    if n < 1:
        raise ValueError(f"dimension must satisfy n >= 1, got n={n}")
    if n + alpha > MAX_VALIDATED_ORDER:
        raise ValueError(
            f"in dimension n={n} the closed form needs Bessel order {n + alpha:g}"
            f" > {MAX_VALIDATED_ORDER:g}, the validated maximum, got alpha={alpha:g}"
        )


def kernel_radial(rho, alpha: float, n: int, radius: float = 1.0):
    """Vectorized closed-form kernel as a function of rho = |(x1, x2)|.

    Evaluates Gamma(1+alpha) pi^{-alpha} rho^{-(n+alpha)} J_{n+alpha}(2 pi rho)
    for the unit radius, with the removable singularity at rho = 0 filled by
    the ascending series, and the general radius obtained from the dilation
    rule value(R, rho) = R^{2n} value(1, R rho).  Raises ``ValueError`` where
    :func:`check_closed_form` refuses (alpha, n).
    """
    check_closed_form(alpha, n)
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    rho_arr = np.atleast_1d(np.asarray(rho, dtype=float))
    scalar = np.ndim(rho) == 0
    z = radius * rho_arr
    out = np.empty_like(z)
    nu = n + alpha
    lead = math.pi**n * math.exp(gammaln(alpha + 1.0) - gammaln(nu + 1.0))
    small = z < _SERIES_RHO
    if np.any(small):
        q = (math.pi * z[small]) ** 2
        out[small] = lead * (1.0 - q / (nu + 1.0) + q**2 / (2.0 * (nu + 1.0) * (nu + 2.0)))
    big = ~small
    if np.any(big):
        zb = z[big]
        out[big] = (
            math.exp(gammaln(alpha + 1.0))
            * math.pi ** (-alpha)
            * zb ** (-nu)
            * bessel_j(nu, 2.0 * math.pi * zb)
        )
    out *= radius ** (2 * n)
    return float(out[0]) if scalar else out


def _cycle_nodes(requested, cycles):
    """Nodes (as floats) that resolve ``cycles``, at least ``requested`` (128 if None)."""
    wanted = _BASE_NODES + np.ceil(_NODES_PER_CYCLE * np.asarray(cycles))
    return np.maximum(128 if requested is None else int(requested), wanted)


def _ladder(nodes):
    """``nodes`` up to a multiple of 64 (to 1,024), 128 (to 2,048) or 192, to share rules."""
    # coarser rungs past 1,024: a climb to the node cap builds 29 rules, not 46
    step = 64 * np.maximum(1, -(-nodes // 1024))
    return -(-nodes // step) * step


def _auto_nodes(requested, cycles: float) -> int:
    """Nodes for ``cycles``, capped at NODE_CAP with the kernel routes' one warning."""
    nodes = int(_cycle_nodes(requested, cycles))
    if nodes > NODE_CAP:
        warnings.warn(
            f"quadrature wants {nodes} nodes per axis for {cycles:g} oscillation cycles,"
            f" more than the {MAX_CYCLES:.0f} that {NODE_CAP} resolve; capping at"
            f" {NODE_CAP}, so the value may be unresolved",
            AccuracyWarning,
            stacklevel=3,
        )
        nodes = NODE_CAP
    return nodes


def _polar_angle_rule(nodes: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauss-Legendre rule in theta on [0, pi/2]: cos, sin and weights.

    The Legendre rule is mirror-symmetric, so ``sin_t`` is returned as
    ``cos_t`` reversed.  The weights carry the Jacobian factor
    (cos th sin th)^{n-1}.
    """
    t, v = roots_legendre(nodes)
    cos_t = np.cos((math.pi / 4.0) * (t + 1.0))
    sin_t = cos_t[::-1]
    return cos_t, sin_t, (cos_t * sin_t) ** (n - 1) * ((math.pi / 4.0) * v)


def kernel_quadrature(
    pt: KernelPoint, alpha: float, n: int, nodes=None, radius: float = 1.0
) -> float:
    """Kernel by polar double quadrature of the defining radial integral.

    Integrates (1 - r^2/R^2)^alpha phi_{r cos th}(x1) phi_{r sin th}(x2)
    (r cos th)^{n-1} (r sin th)^{n-1} r dr dth over the quarter disk of
    radius R.  The radial edge factor (1 - r/R)^alpha is absorbed into a
    Gauss-Jacobi weight so the boundary kink costs no accuracy; the angular
    direction uses Gauss-Legendre.  G radial nodes scale with the R*rho
    cycles and warn past ``MAX_CYCLES``; node r gets the angular rule of its
    own r*rho cycles, laddered, floored like G and at most G (bitwise a
    G-node rule where all get G).  The sphere transform depends only on
    |x|, so one table phi_{r cos th}(|x1|) is built, and the x2 table is a
    second one only when |x2| differs; either serves the sin slot reversed.  Each rule size's rows
    go in blocks of at most ``_TABLE_BLOCK`` entries: memory does not grow.
    """
    if alpha < 0:
        raise ValueError(f"smoothness index must satisfy alpha >= 0, got alpha={alpha}")
    if len(pt.x1) != n:
        raise ValueError(f"point has dimension {len(pt.x1)}, expected n={n}")
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    G = _auto_nodes(nodes, radius * pt.rho)
    # radial rule: t in [-1,1] -> r = R(t+1)/2 with weight (1-t)^alpha
    t, w = roots_jacobi(G, alpha, 0.0)
    r = radius * (t + 1.0) / 2.0
    smooth = (1.0 + r / radius) ** alpha * r ** (2 * n - 1)
    # the angular integrand at radius r has r * rho cycles
    sizes = np.minimum(G, _ladder(_cycle_nodes(nodes, r * pt.rho))).astype(int)
    same = _point_radius(pt.x2) == _point_radius(pt.x1)
    # for each radial node, the theta-integral of the sphere-transform pair
    angular = np.empty(G)
    for size in np.unique(sizes).tolist():
        cos_t, _, theta_w = _polar_angle_rule(size, n)
        members = np.flatnonzero(sizes == size)
        rows = max(1, _TABLE_BLOCK // size)
        for start in range(0, members.size, rows):
            block = members[start:start + rows]
            lam = np.outer(r[block], cos_t).ravel()
            first = sphere_ft(lam, pt.x1, n).reshape(-1, size)
            second = first if same else sphere_ft(lam, pt.x2, n).reshape(-1, size)
            angular[block] = (first * second[:, ::-1]) @ theta_w
    radial_factor = (radius / 2.0) * 2.0 ** (-alpha)
    return float(radial_factor * np.sum(w * smooth * angular))


def dilation_check(pt: KernelPoint, alpha: float, n: int, R: float) -> float:
    """Residual of the dilation identity at one point.

    Compares the radius-R quadrature value against R^{2n} times the unit
    closed form at the scaled point, normalized by the reference magnitude
    with a unit floor so the residual is relative where the kernel is large
    and absolute where it vanishes.
    """
    if not R > 0:
        raise ValueError(f"dilation parameter must be positive, got R={R}")
    measured = kernel_quadrature(pt, alpha, n, radius=R)
    reference = R ** (2 * n) * kernel_radial(pt.scaled(R).rho, alpha, n)
    return abs(measured - reference) / (abs(reference) + 1.0)


def _slice_edges(j: int) -> tuple[float, float]:
    """Radial support [r_lo, r_hi] of the level-j multiplier slice."""
    r_lo = math.sqrt(max(0.0, 1.0 - 2.0 ** (1 - j)))
    r_hi = math.sqrt(1.0 - 2.0 ** (-j - 1))
    return r_lo, r_hi


def kj_kernel(points, piece, n: int, bump):
    """Kernel of one dyadic piece by the 1-D radial Fourier transform.

    ``points`` is one :class:`KernelPoint` (giving a float) or a sequence of
    them (giving an ndarray whose entry i is bitwise the value at
    ``points[i]`` alone).  ``piece`` carries the level j and smoothness
    alpha; ``bump`` is the partition profile.  The multiplier m_j(r) =
    (1 - r^2)^alpha bump(2^j (1 - r^2)) is radial on R^{2n}, so (Stein-Weiss,
    ch. IV) K_j(rho) = 2 pi rho^{1-n} int m_j(r) J_{n-1}(2 pi rho r) r^n dr
    and K_j(0) = (2 pi^n / Gamma(n)) int m_j(r) r^{2n-1} dr over the slice
    annulus, where m_j vanishes to all orders at both edges.  Node rule:
    Gauss-Legendre on the annulus, max(512, 80 + ceil(3.6 (r_hi - r_lo) rho))
    nodes on the node ladder, capped at ``NODE_CAP`` with a warning past
    ``MAX_CYCLES``; below it a value is within ~6e-15 |K_j(0)| of a doubled
    rule's.  One transform per distinct rho; J_{n-1} needs n <= 9.
    """
    single = isinstance(points, KernelPoint)
    points = [points] if single else list(points)
    for pt in points:
        if len(pt.x1) != n:
            raise ValueError(f"point has dimension {len(pt.x1)}, expected n={n}")
    r_lo, r_hi = _slice_edges(int(piece.j))
    rules, values = {}, {}
    # at large j both edges round to 1: the annulus is empty and K_j is 0
    distinct = dict.fromkeys(pt.rho for pt in points) if r_hi > r_lo else {}
    for rho in distinct:
        G = min(NODE_CAP, int(_ladder(_auto_nodes(PIECE_NODES, (r_hi - r_lo) * rho))))
        if G not in rules:
            t, w = roots_legendre(G)
            r = r_lo + (r_hi - r_lo) * (t + 1.0) / 2.0
            profile = piece.multiplier(1.0 - r**2, bump) * r**n
            rules[G] = (r, (r_hi - r_lo) / 2.0 * w * profile)
        r, weighted = rules[G]
        if rho < 1e-9:  # K_j(rho) is K_j(0) there, to a relative (2 pi rho)^2 / 4n < 1e-17
            values[rho] = 2.0 * math.pi**n / math.gamma(n) * np.dot(weighted, r ** (n - 1))
        else:
            transform = bessel_j(n - 1, 2.0 * math.pi * rho * r)
            values[rho] = 2.0 * math.pi * rho ** (1 - n) * np.dot(weighted, transform)
    out = np.array([values.get(pt.rho, 0.0) for pt in points])
    return float(out[0]) if single else out


@dataclass(frozen=True)
class EnvelopeReport:
    """Empirical constants of the piece-kernel spatial envelope.

    For each level j, ``constants[i]`` is the max over sample points of
    |K_j| divided by 2^{-j(alpha+1)} (1 + 2^{-j}|x1|)^{-M} (1 + 2^{-j}|x2|)^{-M}.
    ``slope`` is the fitted common-log trend of the constants in j; a
    positive trend beyond 0.1 per level sets ``flagged``.  The level-0
    constant sits structurally below the others (that slice sees only the
    rising half of the partition profile), so the trend fit, not any single
    ratio, is the boundedness signal.
    """

    alpha: float
    n: int
    M: float
    levels: tuple[int, ...]
    constants: tuple[float, ...]
    slope: float
    flagged: bool


def envelope_fit(pieces, n: int, M: float, points, bump) -> EnvelopeReport:
    """Fit the spatial-envelope constants of the dyadic piece kernels.

    Each piece's kernel is taken at all sample points in one
    :func:`kj_kernel` call (its 1-D radial route: at least 512 Gauss-Legendre
    nodes on the slice annulus, ~6e-15 of |K_j(0)| up to ``MAX_CYCLES``); the
    constants are bitwise those of per-point calls.  Its Legendre rules come
    from the process-wide Gauss-rule memo, so the pieces share one rule per
    node count with every other kernel route.

    Parameters
    ----------
    pieces : DyadicPiece or sequence of DyadicPiece
        All pieces must share one alpha.
    n : int
        Spatial dimension.
    M : float
        Envelope power, M > 0.  A level whose scale 2^(-j (alpha + 1))
        underflows to 0, or an M so large that an envelope value does,
        raises ``ValueError``.
    points : sequence of KernelPoint
        Sample points, inside the quadrature's reliable range.
    bump : BumpFunction
    """
    if not M > 0:
        raise ValueError(f"envelope power must be positive, got M={M}")
    if hasattr(pieces, "j"):
        pieces = [pieces]
    pieces = list(pieces)
    points = list(points)
    alphas = {float(p.alpha) for p in pieces}
    if len(alphas) != 1:
        raise ValueError("all pieces in one envelope fit must share alpha")
    alpha = alphas.pop()
    levels = tuple(int(p.j) for p in pieces)
    constants = []
    for piece in pieces:
        scale = 2.0 ** (-float(piece.j))
        decay = scale ** (alpha + 1.0)
        if not decay > 0:
            raise ValueError(
                f"level j={piece.j} underflows the envelope scale 2^(-j (alpha + 1))"
                f" at alpha={alpha:g}"
            )
        best = 0.0
        values = kj_kernel(points, piece, n, bump)
        for pt, value in zip(points, values):
            envelope = (
                decay
                * (1.0 + scale * pt.norm1) ** (-M)
                * (1.0 + scale * pt.norm2) ** (-M)
            )
            if not envelope > 0:
                raise ValueError(
                    f"envelope power M={M:g} underflows the envelope at j={piece.j},"
                    f" rho={pt.rho:g}"
                )
            best = max(best, abs(float(value)) / envelope)
        constants.append(best)
    if len(levels) >= 2:
        slope, _, _ = least_squares_slope(
            np.asarray(levels, float), np.log10(constants)
        )
    else:
        slope = 0.0
    return EnvelopeReport(
        alpha=alpha,
        n=n,
        M=float(M),
        levels=levels,
        constants=tuple(constants),
        slope=slope,
        flagged=slope > 0.1,
    )


@dataclass(frozen=True)
class KernelDecayFit:
    """Log-log fit of the oscillation envelope of |kernel| against rho."""

    alpha: float
    n: int
    decay_exponent: float
    residual: float
    peak_rhos: tuple[float, ...]
    peak_values: tuple[float, ...]


def kernel_decay_fit(
    alpha: float, n: int, rho_lo: float = 10.0, rho_hi: float = 100.0, samples: int = 4500
) -> KernelDecayFit:
    """Measure the asymptotic decay rate of the closed-form kernel.

    The kernel oscillates, so the fit runs on the envelope of local maxima
    of |value| over [rho_lo, rho_hi].  The returned ``decay_exponent`` is
    the positive rate: values behave like rho^{-decay_exponent}.
    """
    if not 0 < rho_lo < rho_hi:
        raise ValueError("need 0 < rho_lo < rho_hi")
    rho = np.linspace(rho_lo, rho_hi, samples)
    vals = np.abs(kernel_radial(rho, alpha, n))
    interior = (vals[1:-1] > vals[:-2]) & (vals[1:-1] >= vals[2:])
    idx = np.nonzero(interior)[0] + 1
    if idx.size < 8:
        raise ValueError("too few oscillation peaks in the requested range")
    slope, _, residual = least_squares_slope(np.log(rho[idx]), np.log(vals[idx]))
    return KernelDecayFit(
        alpha=float(alpha),
        n=int(n),
        decay_exponent=-slope,
        residual=residual,
        peak_rhos=tuple(float(r) for r in rho[idx]),
        peak_values=tuple(float(v) for v in vals[idx]),
    )
