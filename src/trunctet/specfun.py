"""Special functions: Clausen and Lobachevsky functions, guarded arccosh,
and 1-D adaptive quadrature.

The Clausen function evaluates a 13-coefficient polynomial interpolated at
Chebyshev nodes and stored as double literals, on a float as one
written-out expression. An argument too large for a float raises
InvalidArgumentError.

All functions are pure and reentrant.
"""

import heapq
import math

import numpy as np

from .errors import AccuracyError, DomainError, InvalidArgumentError

EPS_CLAMP = 1e-12

#: 2*pi as the sum of a double and the double nearest its rounding error,
#: for an argument reduction that keeps the digits of small remainders
_TWO_PI = 2.0 * math.pi
_TWO_PI_LOW = 2.4492935982947064e-16

#: floor of |t| under the logarithm of the Clausen function
_TINY = 1e-300


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


def _number(x, what):
    # float(x), with an int beyond the floats a typed error
    try:
        return float(x)
    except OverflowError:
        raise InvalidArgumentError(f"{what} is too large for a float") from None


def lobachevsky(theta):
    """Lobachevsky function Lob(t) = Cl2(2t) / 2; odd and pi-periodic.

    Raises AccuracyError from |2t| = 2^20 on: the reduction of 2t modulo
    2 pi loses the digits of k * 2 pi beyond a double, so the error grows
    with t (7.2e-10 just below 2^20, against 40-digit values).
    """
    theta = _number(theta, "lobachevsky: argument")
    if not math.isfinite(theta):
        raise InvalidArgumentError(f"lobachevsky: non-finite argument {theta!r}")
    if abs(theta) >= 2.0**19:
        raise AccuracyError(f"lobachevsky: argument {theta!r} too large: |2 theta| reaches 2**20")
    return 0.5 * clausen(2.0 * theta)


def acosh_checked(x):
    """arccosh(max(x, 1)), rejecting arguments below 1 - EPS_CLAMP."""
    x = _number(x, "acosh_checked: argument")
    if not math.isfinite(x):
        raise InvalidArgumentError(f"acosh_checked: non-finite argument {x!r}")
    if x < 1.0 - EPS_CLAMP:
        raise DomainError(f"acosh_checked: argument {x!r} below 1", value=x)
    return math.acosh(max(x, 1.0))


_GAUSS15_NODES, _GAUSS15_WEIGHTS = np.polynomial.legendre.leggauss(15)
_GAUSS7_NODES, _GAUSS7_WEIGHTS = np.polynomial.legendre.leggauss(7)


def _panel(f, a, b):
    # 15-point Gauss-Legendre estimate and a 7-point based error estimate of at
    # least 8 ulps of it. Endpoints are never evaluated, so integrable endpoint
    # singularities (the Lobachevsky integrand at 0) are handled by refinement.
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    g15 = half * math.fsum(
        w * f(mid + half * x) for x, w in zip(_GAUSS15_NODES, _GAUSS15_WEIGHTS)
    )
    g7 = half * math.fsum(
        w * f(mid + half * x) for x, w in zip(_GAUSS7_NODES, _GAUSS7_WEIGHTS)
    )
    return g15, max(abs(g15 - g7), 8.0 * math.ulp(g15))


#: bisection depth and panel count at which ``integrate`` gives up
_MAX_DEPTH = 60
_MAX_PANELS = 8192


def integrate(f, a, b, tol=1e-10):
    """Adaptive quadrature of f on [a, b] to estimated absolute error tol.

    Globally adaptive bisection: the panel with the largest 15-vs-7-point
    Gauss discrepancy, floored at 8 ulps of its 15-point sum, is split until
    the summed discrepancies fall below tol. Raises AccuracyError (best
    estimate attached) if the bisection depth or panel budget is exhausted
    first, as it is for a tol below the rounding of the sums.
    """
    a, b = _number(a, "integrate: a"), _number(b, "integrate: b")
    # finite 2a and 2b keep every panel's lo + hi and hi - lo finite
    if not (math.isfinite(2.0 * a) and math.isfinite(2.0 * b)) or a > b:
        raise InvalidArgumentError(f"integrate: bad interval [{a!r}, {b!r}]")
    if not _number(tol, "integrate: tol") > 0:
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
