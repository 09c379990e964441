"""Bessel functions of real order and the sphere surface-measure transform.

Two independent evaluation routes are kept side by side on purpose:
``bessel_j`` is the production path, a thin layer over ``scipy.special``
(``j0``, ``j1``, ``jv``) within 5e-14 max(1, |J|) of mpmath at 30 digits,
while ``bessel_j_oracle`` evaluates the Poisson integral representation by
Gauss-Jacobi quadrature.  Their agreement is the correctness anchor for every
kernel and restriction computation built on top of them.  ``bessel_j`` refuses
orders above ``MAX_VALIDATED_ORDER``, which the oracle cannot certify, and
warns past ``MAX_VALIDATED_ARGUMENT``, where the mpmath check stops.

``scipy.special`` is loaded at the first Bessel, ``gammaln`` or Gauss-rule
call (see :class:`_SpecialFunction`), never at import: importing it costs
~0.3 s, and most experiments never evaluate any of them.  ``roots_jacobi``
here and ``roots_legendre`` in :mod:`brlab.kernel` are the one Gauss-rule
provider (:class:`_GaussRules`), which builds each rule once per process.
"""

from __future__ import annotations

import math
import warnings

import numpy as np


class _SpecialFunction:
    """``scipy.special.<name>``, imported at its first call.

    The proxy is a module attribute that callers reach through their module
    globals, so it can be replaced or wrapped like the function it stands for.
    """

    __slots__ = ("name", "fn")

    def __init__(self, name: str):
        self.name, self.fn = name, None

    def __call__(self, *args, **kwargs):
        if self.fn is None:
            import scipy.special

            self.fn = getattr(scipy.special, self.name)
        return self.fn(*args, **kwargs)


#: bytes of node and weight arrays the Gauss-rule memo keeps (2^18 nodes)
RULE_BUDGET_BYTES = 4 << 20
#: Gauss rules by (provider name, *arguments), least recently used first
_RULES: dict = {}


class _GaussRules(_SpecialFunction):
    """A deferred ``scipy.special.roots_<kind>`` that builds each rule once.

    A rule is kept under the provider's name and its exact positional
    arguments, so every request gets the rule built from its own arguments,
    whatever was asked before.  All providers share one memo of at most
    ``RULE_BUDGET_BYTES`` of arrays, dropping the least recently used rules
    past it; the arrays are returned read-only.
    """

    __slots__ = ()

    def __call__(self, *args):
        key = (self.name, *args)
        rule = _RULES.pop(key, None)
        if rule is None:
            rule = super().__call__(*args)
            for array in rule:
                array.flags.writeable = False
            kept = sum(a.nbytes for r in (rule, *_RULES.values()) for a in r)
            while _RULES and kept > RULE_BUDGET_BYTES:
                kept -= sum(a.nbytes for a in _RULES.pop(next(iter(_RULES))))
        _RULES[key] = rule
        return rule


gammaln = _SpecialFunction("gammaln")
j0 = _SpecialFunction("j0")
j1 = _SpecialFunction("j1")
jv = _SpecialFunction("jv")
roots_jacobi = _GaussRules("roots_jacobi")


class AccuracyWarning(UserWarning):
    """A quadrature or expansion was asked to run outside its reliable range."""


#: number of Gauss-Jacobi nodes used by the oracle
ORACLE_NODES = 256
#: largest argument the 256-node oracle rule resolves comfortably
ORACLE_BUDGET = 200.0
#: largest order ``bessel_j`` accepts: the oracle, its independent check,
#: cannot certify orders above 8 (ROADMAP item 5 decides whether to lift it)
MAX_VALIDATED_ORDER = 8.0
#: largest argument at which ``bessel_j`` is checked against mpmath
MAX_VALIDATED_ARGUMENT = 2e6
#: below this argument the second series term, (r/2)^2 / (k+1) <= 5e-17 of
#: the first for every k > -1/2, is lost to rounding
_TINY_ARGUMENT = 1e-8


def _validate_order(k: float) -> float:
    k = float(k)
    if not k > -0.5:
        raise ValueError(f"Bessel order must satisfy k > -1/2, got k={k}")
    return k


def _as_radii(r) -> tuple[np.ndarray, bool]:
    scalar = np.isscalar(r) or np.ndim(r) == 0
    arr = np.atleast_1d(np.asarray(r, dtype=float))
    finite = np.isfinite(arr)
    if not finite.all():
        raise ValueError(f"Bessel argument must be finite, got r={float(arr[~finite][0])}")
    if np.any(arr < 0):
        raise ValueError("Bessel argument must satisfy r >= 0")
    return arr, scalar


def _leading_term(k: float, r: np.ndarray) -> np.ndarray:
    """(r/2)^k / Gamma(k+1), the first term of the ascending series."""
    out = np.full_like(r, 1.0 if k == 0 else math.inf if k < 0 else 0.0)
    pos = r > 0
    rp = r[pos]
    # in log space; below the normal range r/2 is rounded (5e-324 halves to
    # 0), so log r - log 2 there
    lost = rp < 2.0 * np.finfo(float).tiny
    log_half = np.log(np.where(lost, 1.0, rp / 2.0))
    log_half[lost] = np.log(rp[lost]) - math.log(2.0)
    out[pos] = np.exp(k * log_half - gammaln(k + 1.0))
    return out


def bessel_j(k: float, r):
    """Bessel function J_k(r) for real order -1/2 < k <= 8 and r >= 0.

    Parameters
    ----------
    k : float
        Order, must satisfy -1/2 < k <= ``MAX_VALIDATED_ORDER`` (8); larger
        orders raise ``ValueError`` rather than return an uncertified value.
    r : float or array_like
        Finite nonnegative argument(s); past ``MAX_VALIDATED_ARGUMENT`` (2e6)
        an ``AccuracyWarning`` says the values are uncertified.

    Returns
    -------
    float or ndarray
        J_k evaluated elementwise by ``scipy.special`` (``j0`` at order 0,
        ``j1`` at order 1, ``jv`` otherwise), within 5e-14 max(1, |J|) of
        mpmath's ``besselj`` at 30 digits on r in [1e-8, 2e6].  Below
        r = 1e-8 it is the leading series term, J_k there to rounding
        (within 5e-14 relative, subnormal r included, where ``jv`` returns
        0 or inf); +inf at r = 0 for k < 0.
    """
    k = _validate_order(k)
    if k > MAX_VALIDATED_ORDER:
        raise ValueError(f"Bessel order k={k} > {MAX_VALIDATED_ORDER:g}, the validated maximum")
    r, scalar = _as_radii(r)
    if np.any(r > MAX_VALIDATED_ARGUMENT):
        warnings.warn(
            f"bessel_j asked for r up to {np.max(r):g}, beyond"
            f" {MAX_VALIDATED_ARGUMENT:g}, the validated maximum",
            AccuracyWarning,
            stacklevel=2,
        )
    out = j0(r) if k == 0 else j1(r) if k == 1 else jv(k, r)
    tiny = r < _TINY_ARGUMENT
    if np.any(tiny):
        out[tiny] = _leading_term(k, r[tiny])
    if not np.all(np.isfinite(out)) and k >= 0:
        raise OverflowError("Bessel evaluation produced a non-finite intermediate")
    return float(out[0]) if scalar else out


def bessel_j_oracle(k: float, r):
    """Reference J_k(r) via quadrature of the Poisson integral form.

    Evaluates (r/2)^k / (Gamma(k+1/2) sqrt(pi)) * int_{-1}^{1} cos(r t)
    (1-t^2)^(k-1/2) dt with a fixed 256-node Gauss-Jacobi rule whose weight
    absorbs the edge singularity.  Entirely independent of :func:`bessel_j`.

    A warning is issued for r beyond the rule's oscillation budget (r > 200),
    where node resolution is no longer guaranteed.
    """
    k = _validate_order(k)
    r, scalar = _as_radii(r)
    if np.any(r > ORACLE_BUDGET * (1.0 + 1e-9)):
        warnings.warn(
            f"bessel_j_oracle asked for r up to {np.max(r):g}, beyond its"
            f" reliable oscillation budget of {ORACLE_BUDGET:g}",
            AccuracyWarning,
            stacklevel=2,
        )
    # Gauss-Jacobi rule absorbing the (1-t^2)^(k-1/2) weight exactly
    nodes, weights = roots_jacobi(ORACLE_NODES, k - 0.5, k - 0.5)
    integral = np.cos(np.outer(r, nodes)) @ weights
    with np.errstate(divide="ignore"):
        prefactor = (r / 2.0) ** k / (math.exp(gammaln(k + 0.5)) * math.sqrt(math.pi))
    out = prefactor * integral
    return float(out[0]) if scalar else out


def _surface_area(n: int) -> float:
    """Surface measure of the unit sphere S^{n-1}."""
    return 2.0 * math.pi ** (n / 2.0) / math.exp(gammaln(n / 2.0))


def _point_radius(x) -> float:
    """|x| exactly as :func:`sphere_ft` computes it (a scalar is a 1-d point)."""
    return float(np.linalg.norm(np.atleast_1d(np.asarray(x, dtype=float))))


def sphere_ft(lam, x, n: int):
    """Fourier transform of the dilated sphere surface measure.

    For the unit-sphere surface measure sigma the transform is radial:
    sigma-hat(x) = 2 pi |x|^{-(n-2)/2} J_{(n-2)/2}(2 pi |x|), and the lambda
    dilation evaluates it at lambda*x.  n=1 reduces to the two-point measure,
    2 cos(2 pi lambda |x|); at x=0 every n returns the surface area of
    S^{n-1}.

    Parameters
    ----------
    lam : float or array_like
        Dilation parameter(s), 0 < lambda < inf.
    x : float or array_like
        Point in R^n (a scalar is treated as a 1-d point) with finite |x|.
    n : int
        Spatial dimension, n >= 1.

    Returns
    -------
    float or ndarray
        Transform value; broadcasts over an array of lambdas.
    """
    if n < 1:
        raise ValueError(f"dimension must satisfy n >= 1, got n={n}")
    lam_arr, scalar = np.atleast_1d(np.asarray(lam, dtype=float)), np.ndim(lam) == 0
    usable = (lam_arr > 0) & (lam_arr < math.inf)
    if not usable.all():
        bad = float(lam_arr[~usable][0])
        raise ValueError(f"dilation parameter must satisfy 0 < lambda < inf, got lam={bad}")
    radius = _point_radius(x)
    if not math.isfinite(radius):
        raise ValueError(f"point must have a finite norm, got x={x!r}")
    z = 2.0 * math.pi * lam_arr * radius
    if n == 1:
        out = 2.0 * np.cos(z)
        return float(out[0]) if scalar else out
    nu = (n - 2) / 2.0
    tiny = z < 1e-6
    big = ~tiny if tiny.any() else slice(None)  # no masked copies when nothing is tiny
    scale = 2.0 * math.pi  # (lam |x|)^(-nu) is 1 at n = 2
    if nu != 0:
        scale = scale * (lam_arr[big] * radius) ** (-nu)
    far = scale * bessel_j(nu, z[big])
    if isinstance(big, slice):
        return float(far[0]) if scalar else far
    out = np.empty_like(lam_arr)
    # removable singularity: the transform tends to the sphere's surface area
    out[tiny] = _surface_area(n) * (1.0 - (z[tiny] ** 2) / (4.0 * (nu + 1.0)))
    out[big] = far
    return float(out[0]) if scalar else out
