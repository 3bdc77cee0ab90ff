"""Special functions: complex dilogarithm, Clausen and Lobachevsky
functions, guarded arccosh, and 1-D adaptive quadrature.

The dilogarithm sums series whose coefficients are rounded once from exact
Bernoulli numbers; the Clausen function evaluates a 13-coefficient
polynomial interpolated at Chebyshev nodes and stored as double literals,
on a float as one written-out expression. An argument too large for a
float raises InvalidArgumentError.

All functions are pure and reentrant.
"""

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

#: floor of |t| under the logarithm of the Clausen function
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


#: Q(s) = (Cl2(t) / t - 1 + log|t|) / s with s = t^2, as its polynomial of
#: degree 12 interpolating Q at the 13 Chebyshev nodes of [0, pi^2],
#: s_k = (pi^2 / 2) (1 + cos(pi (k + 1/2) / 13)), k = 0..12. The 13 x 13
#: system was solved in mpmath at 50 digits and each coefficient rounded to
#: a double once; Horner order, highest degree first. In exact arithmetic
#: these coefficients give Cl2 within 3e-17 on [-pi, pi], below the
#: rounding of the double evaluation
_CLAUSEN_COEFFS = (
    2.3710833242171887e-23,
    -4.446698517072681e-22,
    2.35059128293395e-20,
    3.733194177512254e-19,
    2.6195481983755168e-17,
    1.240643100703569e-15,
    6.374561018604873e-14,
    3.3872570555123936e-12,
    1.8978876505639245e-10,
    1.148221628652533e-08,
    7.873519778538069e-07,
    6.94444444444399e-05,
    0.01388888888888889,
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
    """Principal-branch dilogarithm Li2(z) of a finite complex argument, or
    elementwise of a numpy array, giving a complex array of the same shape.

    Arguments of large modulus are mapped into the unit disc by the
    inversion identity and, when Re z > 1/2, reflected by Euler's identity;
    the remaining region is summed by the defining series (|z| <= 1/4) or
    by the log-argument series otherwise. Each element takes one branch; a
    scalar is evaluated as a one-element array. Any non-finite argument
    raises InvalidArgumentError.
    """
    if isinstance(z, np.ndarray):
        return _dilog_array(z)
    return complex(_dilog_array(np.array([_number(complex, z, "dilog: argument")]))[0])


def _dilog_array(z):
    # the branches as index masks over a flat copy; both series give
    # exactly 0 at 0, so only z = 1 (whose reflection needs log 0) is set
    # aside, as 0 with offset pi^2/6
    shape = z.shape
    z = np.array(z, dtype=complex).reshape(-1)
    if not np.isfinite(z).all():
        bad = z[~np.isfinite(z)][0]
        raise InvalidArgumentError(f"dilog: non-finite argument {complex(bad)!r}")
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
    evaluated as t ((1 - log|t|) + s Q(s)), s = t^2, with Q the degree-12
    polynomial ``_CLAUSEN_COEFFS`` (13 Horner steps); within 6e-16 of Cl2 on
    [-pi, pi]. A float (sixteen per volume) takes the array loop's steps
    written out in one expression, in its order; its logarithm is libm's,
    where numpy's may differ in the last bit.
    """
    if not isinstance(theta, np.ndarray):
        k = round(theta / _TWO_PI)
        t = theta - k * _TWO_PI - k * _TWO_PI_LOW
        s = t * t
        c0, c1, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11, c12 = _CLAUSEN_COEFFS
        acc = ((((((((((((s * c0 + c1) * s + c2) * s + c3) * s + c4) * s + c5) * s + c6) * s
                     + c7) * s + c8) * s + c9) * s + c10) * s + c11) * s + c12) * s
        # t log|t| -> 0 as t -> 0; the floor keeps the logarithm finite at 0
        return (acc - (math.log(max(abs(t), _TINY)) - 1.0)) * t
    if not theta.ndim:
        return clausen(theta.reshape(1))[0]
    # in place where a buffer is free, so that a call holds four arrays of
    # theta's size (theta, t, t^2 and then log|t| - 1 in its buffer, acc),
    # not six: a 759-row volume call peaks at 473 KiB, not 663 KiB
    k = theta / _TWO_PI
    np.round(k, out=k)
    t = k * _TWO_PI
    np.subtract(theta, t, out=t)
    k *= _TWO_PI_LOW
    t -= k
    t2 = np.multiply(t, t, out=k)
    acc = t2 * _CLAUSEN_HEAD
    for coeff in _CLAUSEN_TAIL:
        acc += coeff
        acc *= t2
    log_less_one = np.abs(t, out=t2)
    np.maximum(log_less_one, _TINY, out=log_less_one)
    np.log(log_less_one, out=log_less_one)
    log_less_one -= 1.0
    # acc - (log|t| - 1) has the bits of (1 - log|t|) + acc; log|t| - 1 is
    # exact for |t| in [1.65, 7.3], so where the sum cancels (|t| near pi)
    # it rounds once
    acc -= log_less_one
    acc *= t
    return acc


def _number(kind, x, what):
    # float(x) or complex(x), with an int beyond the floats a typed error
    try:
        return kind(x)
    except OverflowError:
        raise InvalidArgumentError(f"{what} is too large for a float") from None


def lobachevsky(theta):
    """Lobachevsky function Lob(t) = Cl2(2t) / 2; odd and pi-periodic."""
    theta = _number(float, theta, "lobachevsky: argument")
    if not math.isfinite(theta):
        raise InvalidArgumentError(f"lobachevsky: non-finite argument {theta!r}")
    return 0.5 * clausen(2.0 * theta)


def acosh_checked(x):
    """arccosh(max(x, 1)), rejecting arguments below 1 - EPS_CLAMP."""
    x = _number(float, x, "acosh_checked: argument")
    if not math.isfinite(x):
        raise InvalidArgumentError(f"acosh_checked: non-finite argument {x!r}")
    if x < 1.0 - EPS_CLAMP:
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


#: bisection depth and panel count at which ``integrate`` gives up
_MAX_DEPTH = 60
_MAX_PANELS = 8192


def integrate(f, a, b, tol=1e-10):
    """Adaptive quadrature of f on [a, b] to estimated absolute error tol.

    Globally adaptive bisection: the panel with the largest 15-vs-7-point
    Gauss discrepancy is split until the summed discrepancies fall below
    tol. Raises AccuracyError (best estimate attached) if the bisection
    depth or panel budget is exhausted first.
    """
    a, b = _number(float, a, "integrate: a"), _number(float, b, "integrate: b")
    if not (math.isfinite(a) and math.isfinite(b)) or a > b:
        raise InvalidArgumentError(f"integrate: bad interval [{a!r}, {b!r}]")
    if not _number(float, tol, "integrate: tol") > 0:
        raise InvalidArgumentError("integrate: tol must be positive")
    if a == b:
        return 0.0

    est, err = _panel(f, a, b)
    heap = [(-err, a, b, est, 0)]
    total_est = est
    total_err = err
    while total_err > tol:
        neg_err, lo, hi, est, depth = heapq.heappop(heap)
        if depth >= _MAX_DEPTH or len(heap) + 2 > _MAX_PANELS:
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
