"""Special functions: complex dilogarithm, Clausen and Lobachevsky
functions, guarded arccosh, and 1-D adaptive quadrature.

All functions are pure and reentrant.
"""

import cmath
import heapq
import math
from fractions import Fraction

import numpy as np

from .errors import AccuracyError, DomainError, InvalidArgumentError

PI2_OVER_6 = math.pi * math.pi / 6.0

EPS_CLAMP = 1e-12

#: 2*pi as the sum of a double and the double nearest its rounding error,
#: for an argument reduction that keeps the digits of small remainders
_TWO_PI = 2.0 * math.pi
_TWO_PI_LOW = 2.4492935982947064e-16

#: floor of |t| under the logarithm of the Clausen series
_TINY = 1e-300


def _bernoulli(n_max):
    # exact B_0..B_n_max (B_1 = -1/2) from sum_{k<=m} C(m+1, k) B_k = 0
    b = [Fraction(1)]
    for m in range(1, n_max + 1):
        b.append(-sum(math.comb(m + 1, k) * b[k] for k in range(m)) / (m + 1))
    return b


_BERNOULLI = _bernoulli(48)

# Coefficients B_n / (n+1)! of the dilogarithm series in u = -log(1-z),
# each rounded once from its exact value. Odd-index coefficients vanish
# beyond n = 1.
_LOG_SERIES_COEFFS = tuple(
    float(b / math.factorial(n + 1)) for n, b in enumerate(_BERNOULLI)
)


#: reciprocal squares 1/k^2 for the defining series, Horner order
_TAYLOR_COEFFS = tuple(1.0 / (k * k) for k in range(32, 0, -1))

#: even-index log-series coefficients B_{2m} / (2m+1)!, Horner order
_LOG_EVEN_COEFFS = tuple(_LOG_SERIES_COEFFS[n] for n in range(48, 1, -2))


#: |B_2k| / (2k (2k+1)!) for k = 23, ..., 1, Horner order: the Clausen
#: series in t^2, whose 24th term is below 1e-17 on |t| <= pi
_CLAUSEN_COEFFS = tuple(
    float(abs(_BERNOULLI[2 * k]) / (2 * k * math.factorial(2 * k + 1)))
    for k in range(23, 0, -1)
)
_CLAUSEN_HEAD, _CLAUSEN_TAIL = _CLAUSEN_COEFFS[0], _CLAUSEN_COEFFS[1:]


def _dilog_taylor(z):
    # Defining series sum z^k / k^2 by fixed-length Horner evaluation, on a
    # complex scalar or array; used for |z| <= 1/4 where 32 terms reach full
    # double precision.
    acc = 0j
    for coeff in _TAYLOR_COEFFS:
        acc = (acc + coeff) * z
    return acc


def _dilog_log_series(u):
    # Series in u = -log(1-z), on a complex scalar or array; converges for
    # |u| < 2*pi and is used on the region |z| <= 1, Re z <= 1/2 where |u|
    # stays below ~1.8.
    u2 = u * u
    acc = 0j
    for coeff in _LOG_EVEN_COEFFS:
        acc = (acc + coeff) * u2
    return _LOG_SERIES_COEFFS[0] * u + _LOG_SERIES_COEFFS[1] * u2 + acc * u


def dilog(z):
    """Principal-branch dilogarithm Li2(z) for a finite complex argument.

    Arguments of large modulus are mapped into the unit disc by the
    inversion identity and, when Re z > 1/2, reflected by Euler's identity;
    the remaining region is summed by the defining series (|z| <= 1/4) or
    by the log-argument series otherwise.

    A numpy array is evaluated elementwise with the same branch cuts and
    thresholds, each element by one branch, and gives a complex array of
    the same shape; any non-finite element raises InvalidArgumentError.
    """
    if isinstance(z, np.ndarray):
        return _dilog_array(z)
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise InvalidArgumentError(f"dilog: non-finite argument {z!r}")
    if z == 0:
        return 0j
    if z == 1:
        return complex(PI2_OVER_6, 0.0)

    offset = 0j
    sign = 1.0
    if abs(z) > 1.0:
        # Li2(z) = -Li2(1/z) - pi^2/6 - log(-z)^2 / 2
        log_neg = cmath.log(-z)
        offset = -PI2_OVER_6 - 0.5 * log_neg * log_neg
        sign = -1.0
        z = 1.0 / z
    if z.real > 0.5:
        # Li2(z) = pi^2/6 - log(z) log(1-z) - Li2(1-z)
        offset += sign * (PI2_OVER_6 - cmath.log(z) * cmath.log(1.0 - z))
        sign = -sign
        z = 1.0 - z
        if z == 0:
            return offset
    if abs(z) <= 0.25:
        core = _dilog_taylor(z)
    else:
        core = _dilog_log_series(-cmath.log(1.0 - z))
    return offset + sign * core


def _dilog_array(z):
    # the scalar branches as index masks over a flat copy; both series give
    # exactly 0 at 0, so only z = 1 (whose reflection needs log 0) is set
    # aside, as 0 with offset pi^2/6
    shape = z.shape
    z = np.array(z, dtype=complex).reshape(-1)
    if not np.isfinite(z).all():
        bad = z[~np.isfinite(z)][0]
        raise InvalidArgumentError(f"dilog: non-finite argument {bad!r}")
    offset = np.zeros_like(z)
    sign = np.ones(z.shape)
    one = z == 1.0
    offset[one] = PI2_OVER_6
    z[one] = 0.0

    inv = np.flatnonzero(np.abs(z) > 1.0)
    log_neg = np.log(-z[inv])
    offset[inv] = -PI2_OVER_6 - 0.5 * log_neg * log_neg
    sign[inv] = -1.0
    z[inv] = 1.0 / z[inv]
    refl = np.flatnonzero(z.real > 0.5)
    w = z[refl]
    offset[refl] += sign[refl] * (PI2_OVER_6 - np.log(w) * np.log(1.0 - w))
    sign[refl] = -sign[refl]
    z[refl] = 1.0 - w

    core = np.empty_like(z)
    small = np.abs(z) <= 0.25
    core[small] = _dilog_taylor(z[small])
    core[~small] = _dilog_log_series(-np.log(1.0 - z[~small]))
    return (offset + sign * core).reshape(shape)


def clausen(theta):
    """Clausen function Cl2(theta) = Im Li2(e^{i theta}) of a finite float or
    a float ndarray (elementwise, same shape).

    The argument is reduced to t in [-pi, pi] modulo 2*pi, and Cl2(t) is
    summed as t - t log|t| + sum_k |B_2k| t^(2k+1) / (2k (2k+1)!).
    """
    if isinstance(theta, np.ndarray):
        k = np.round(theta / _TWO_PI)
        t = theta - k * _TWO_PI
        t -= k * _TWO_PI_LOW
        # t log|t| -> 0 as t -> 0; the floor keeps the logarithm finite at 0
        log_abs = np.log(np.maximum(np.abs(t), _TINY))
    else:
        k = round(theta / _TWO_PI)
        t = theta - k * _TWO_PI - k * _TWO_PI_LOW
        log_abs = math.log(max(abs(t), _TINY))
    t2 = t * t
    acc = t2 * _CLAUSEN_HEAD
    for coeff in _CLAUSEN_TAIL:
        acc += coeff
        acc *= t2
    acc += 1.0
    acc -= log_abs
    acc *= t
    return acc


def lobachevsky(theta):
    """Lobachevsky function Lob(t) = Cl2(2t) / 2; odd and pi-periodic."""
    theta = float(theta)
    if not math.isfinite(theta):
        raise InvalidArgumentError(f"lobachevsky: non-finite argument {theta!r}")
    return 0.5 * clausen(2.0 * theta)


def acosh_checked(x, eps_clamp=EPS_CLAMP):
    """arccosh(max(x, 1)), rejecting arguments below 1 - eps_clamp."""
    x = float(x)
    if not math.isfinite(x):
        raise InvalidArgumentError(f"acosh_checked: non-finite argument {x!r}")
    if x < 1.0 - eps_clamp:
        raise DomainError(f"acosh_checked: argument {x!r} below 1", value=x)
    return math.acosh(max(x, 1.0))


_GAUSS15_NODES, _GAUSS15_WEIGHTS = np.polynomial.legendre.leggauss(15)
_GAUSS7_NODES, _GAUSS7_WEIGHTS = np.polynomial.legendre.leggauss(7)


def _panel(f, a, b):
    # 15-point Gauss-Legendre estimate and a 7-point based error estimate.
    # Endpoints are never evaluated, so integrable endpoint singularities
    # (the Lobachevsky integrand at 0) are handled by refinement alone.
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    g15 = half * math.fsum(
        w * f(mid + half * x) for x, w in zip(_GAUSS15_NODES, _GAUSS15_WEIGHTS)
    )
    g7 = half * math.fsum(
        w * f(mid + half * x) for x, w in zip(_GAUSS7_NODES, _GAUSS7_WEIGHTS)
    )
    return g15, abs(g15 - g7)


def integrate(f, a, b, tol=1e-10, max_depth=60, max_panels=8192):
    """Adaptive quadrature of f on [a, b] to estimated absolute error tol.

    Globally adaptive bisection: the panel with the largest 15-vs-7-point
    Gauss discrepancy is split until the summed discrepancies fall below
    tol. Raises AccuracyError (best estimate attached) if the bisection
    depth or panel budget is exhausted first.
    """
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)) or a > b:
        raise InvalidArgumentError(f"integrate: bad interval [{a!r}, {b!r}]")
    if tol <= 0:
        raise InvalidArgumentError("integrate: tol must be positive")
    if a == b:
        return 0.0

    est, err = _panel(f, a, b)
    heap = [(-err, a, b, est, 0)]
    total_est = est
    total_err = err
    while total_err > tol:
        neg_err, lo, hi, est, depth = heapq.heappop(heap)
        if depth >= max_depth or len(heap) + 2 > max_panels:
            heapq.heappush(heap, (neg_err, lo, hi, est, depth))
            raise AccuracyError(
                f"integrate: tolerance {tol} not reached "
                f"(residual error estimate {total_err:.3g})",
                best_estimate=total_est,
            )
        mid = 0.5 * (lo + hi)
        left_est, left_err = _panel(f, lo, mid)
        right_est, right_err = _panel(f, mid, hi)
        total_est += left_est + right_est - est
        total_err += left_err + right_err - (-neg_err)
        heapq.heappush(heap, (-left_err, lo, mid, left_est, depth + 1))
        heapq.heappush(heap, (-right_err, mid, hi, right_est, depth + 1))
    if not math.isfinite(total_est):
        raise InvalidArgumentError("integrate: integrand produced non-finite values")
    return total_est
