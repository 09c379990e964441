"""Bessel functions of real order and the sphere surface-measure transform.

Two independent evaluation routes are kept side by side on purpose:
``bessel_j`` is the production path (power series for small argument, a
large-argument expansion evaluated by Horner's rule beyond), while
``bessel_j_oracle`` evaluates the Poisson integral representation by
Gauss-Jacobi quadrature.  Their agreement is the correctness anchor for every
kernel and restriction computation built on top of them.  ``bessel_j`` refuses
orders above ``MAX_VALIDATED_ORDER``, where its dispatch goes wrong.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy.special import gammaln, roots_jacobi


class AccuracyWarning(UserWarning):
    """A quadrature or expansion was asked to run outside its reliable range."""


#: number of Gauss-Jacobi nodes used by the oracle
ORACLE_NODES = 256
#: largest argument the 256-node oracle rule resolves comfortably
ORACLE_BUDGET = 200.0
#: largest order ``bessel_j`` accepts (error <= 7e-12 on r in [0, 400]); from
#: order 8.5 up its large-argument expansion is off by up to 0.76 near r = 2k
MAX_VALIDATED_ORDER = 8.0

_SERIES_MAX_TERMS = 160
_ASYMPTOTIC_MAX_TERMS = 60


def _validate_order(k: float) -> float:
    k = float(k)
    if not k > -0.5:
        raise ValueError(f"Bessel order must satisfy k > -1/2, got k={k}")
    return k


def _as_radii(r) -> tuple[np.ndarray, bool]:
    scalar = np.isscalar(r) or np.ndim(r) == 0
    arr = np.atleast_1d(np.asarray(r, dtype=float))
    if np.any(arr < 0):
        raise ValueError("Bessel argument must satisfy r >= 0")
    return arr, scalar


def _series_small(k: float, r: np.ndarray) -> np.ndarray:
    """Ascending power series, adequate below the dispatch radius."""
    out = np.zeros_like(r)
    pos = r > 0
    if k <= 0:
        out[~pos] = 1.0 if k == 0 else math.inf  # J_k(0) diverges for k < 0
    if not np.any(pos):
        return out
    rp = r[pos]
    # leading term (r/2)^k / Gamma(k+1), computed in log space; below the
    # normal range r/2 is rounded (5e-324 halves to 0), so log r - log 2 there
    lost = rp < 2.0 * np.finfo(float).tiny
    log_half = np.log(np.where(lost, 1.0, rp / 2.0))
    log_half[lost] = np.log(rp[lost]) - math.log(2.0)
    term = np.exp(k * log_half - gammaln(k + 1.0), out=log_half)
    total = term.copy()
    neg_quarter_sq = -((rp / 2.0) ** 2)
    buf = np.empty_like(rp)
    # For m >= 1, |term_m| grows with r, so the largest-r entry's term bounds
    # max|term| below and 2 (max|term_0| + its later |terms|) bounds
    # max|total| above; the full-array stop test runs only once those
    # scalars allow it to pass, so it stops at the same m.
    top = int(np.argmax(rp))
    bound = 2.0 * float(np.abs(term).max())
    for m in range(1, _SERIES_MAX_TERMS):
        term *= neg_quarter_sq
        term /= m * (k + m)
        total += term
        top_term = abs(float(term[top]))
        bound += 2.0 * top_term
        if top_term >= 1e-18 * max(bound, 1e-300):
            continue
        if np.abs(term, out=buf).max() < 1e-18 * max(np.abs(total, out=buf).max(), 1e-300):
            break
    out[pos] = total
    return out


def _asymptotic_large(k: float, r: np.ndarray) -> np.ndarray:
    """Large-argument expansion J_k(r) ~ sqrt(2/(pi r)) (P cos w - Q sin w).

    The modulus/phase series is truncated once per batch, at its smallest term
    at the batch's smallest r or the first term below 1e-18 there; for
    half-integer orders it terminates and is exact.  With x = 1/r, the kept
    signed coefficients c_m give P = sum c_2j x^2j and Q = x sum c_2j+1 x^2j,
    both evaluated in place by Horner's rule in x^2.
    """
    mu = 4.0 * k * k
    coeffs = [1.0]  # c_m = (-1)^(m//2) a_m
    a = 1.0  # a_0
    r_min = float(np.min(r))
    prev = math.inf
    for m in range(1, _ASYMPTOTIC_MAX_TERMS):
        a = a * (mu - (2 * m - 1) ** 2) / (8.0 * m)
        if a == 0.0:
            break  # terminating (half-integer) series
        size = abs(a) / r_min**m
        if size >= prev:
            break  # smallest-term truncation reached
        prev = size
        coeffs.append((-1.0) ** (m // 2) * a)
        if size < 1e-18:
            break
    x2 = 1.0 / (r * r)
    p_sum, q_sum = np.zeros_like(r), np.zeros_like(r)
    for m in range(len(coeffs) - 1, -1, -1):
        acc = q_sum if m % 2 else p_sum
        acc *= x2
        acc += coeffs[m]
    q_sum /= r
    omega = np.subtract(r, (0.5 * k + 0.25) * math.pi, out=x2)  # reuse the spent x2
    amp = np.sqrt(2.0 / (math.pi * r))
    return amp * (p_sum * np.cos(omega) - q_sum * np.sin(omega))


def bessel_j(k: float, r):
    """Bessel function J_k(r) for real order -1/2 < k <= 8 and r >= 0.

    Parameters
    ----------
    k : float
        Order, must satisfy -1/2 < k <= ``MAX_VALIDATED_ORDER`` (8); larger
        orders raise ``ValueError`` rather than return a wrong value.
    r : float or array_like
        Nonnegative argument(s).

    Returns
    -------
    float or ndarray
        J_k evaluated elementwise, within 7e-12 of an independent reference
        on r in [0, 400]; +inf at r = 0 for k < 0.  Dispatches internally
        between the ascending power series for r < max(12, 2k) and the
        Horner-evaluated large-argument expansion beyond the switch radius.
    """
    k = _validate_order(k)
    if k > MAX_VALIDATED_ORDER:
        raise ValueError(f"Bessel order k={k} > {MAX_VALIDATED_ORDER:g}, the validated maximum")
    r, scalar = _as_radii(r)
    switch = max(12.0, 2.0 * k)
    out = np.empty_like(r)
    small = r < switch
    if np.any(small):
        out[small] = _series_small(k, r[small])
    if np.any(~small):
        out[~small] = _asymptotic_large(k, r[~small])
    if not np.all(np.isfinite(out)) and k >= 0:
        raise OverflowError("Bessel evaluation produced a non-finite intermediate")
    return float(out[0]) if scalar else out


_ORACLE_RULES: dict[float, tuple[np.ndarray, np.ndarray]] = {}


def _oracle_rule(k: float) -> tuple[np.ndarray, np.ndarray]:
    key = round(k, 12)
    if key not in _ORACLE_RULES:
        # Gauss-Jacobi rule absorbing the (1-t^2)^(k-1/2) weight exactly
        nodes, weights = roots_jacobi(ORACLE_NODES, k - 0.5, k - 0.5)
        _ORACLE_RULES[key] = (nodes, weights)
    return _ORACLE_RULES[key]


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
    nodes, weights = _oracle_rule(k)
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
        Dilation parameter(s), lambda > 0.
    x : float or array_like
        Point in R^n (a scalar is treated as a 1-d point).
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
    if np.any(lam_arr <= 0):
        raise ValueError("dilation parameter must satisfy lambda > 0")
    radius = _point_radius(x)
    z = 2.0 * math.pi * lam_arr * radius
    if n == 1:
        out = 2.0 * np.cos(z)
        return float(out[0]) if scalar else out
    nu = (n - 2) / 2.0
    out = np.empty_like(lam_arr)
    tiny = z < 1e-6
    # removable singularity: the transform tends to the sphere's surface area
    out[tiny] = _surface_area(n) * (1.0 - (z[tiny] ** 2) / (4.0 * (nu + 1.0)))
    big = ~tiny
    if np.any(big):
        zr = z[big]
        out[big] = 2.0 * math.pi * (lam_arr[big] * radius) ** (-nu) * bessel_j(nu, zr)
    return float(out[0]) if scalar else out
