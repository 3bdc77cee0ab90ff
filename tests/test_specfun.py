"""Special functions: Clausen and Lobachevsky functions, guarded acosh,
adaptive quadrature; mpmath's dilogarithm is the reference for the Clausen
and Lobachevsky identities."""

import math

import numpy as np
import pytest

from trunctet import specfun
from trunctet.errors import AccuracyError, DomainError, InvalidArgumentError
from trunctet.specfun import acosh_checked, clausen, integrate, lobachevsky
from trunctet.volume import regular_volume_l0


class TestClausen:
    @staticmethod
    def grid():
        # [-4pi, 4pi] with its multiples of pi, their neighbouring doubles,
        # and |theta| < 1e-8 down to subnormal size
        points = list(np.linspace(-4 * math.pi, 4 * math.pi, 401))
        for k in range(-4, 5):
            x = k * math.pi
            points += [x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)]
        tiny = np.random.default_rng(6).uniform(-1e-8, 1e-8, 40)
        points += list(tiny) + [1e-8, -1e-8, 1e-15, -1e-15, 1e-300, 5e-324]
        return np.array(points)

    def test_matches_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        theta = self.grid()
        with mpmath.workdps(30):
            exact = np.array([float(mpmath.clsin(2, mpmath.mpf(x))) for x in theta])
        got = clausen(theta)
        assert np.abs(got - exact).max() <= 1e-15
        scalar = np.array([clausen(float(x)) for x in theta])
        assert np.abs(scalar - exact).max() <= 1e-15

    def test_coefficients_are_the_chebyshev_interpolant(self):
        # Q(s) = (Cl2(t) / t - 1 + log|t|) / s, s = t^2, interpolated by a
        # degree-12 polynomial at the 13 Chebyshev nodes of [0, pi^2]; the
        # system solved at 50 digits, each coefficient rounded once
        mpmath = pytest.importorskip("mpmath")
        n = 13
        with mpmath.workdps(50):
            half = mpmath.pi**2 / 2
            nodes = [half * (1 + mpmath.cos(mpmath.pi * (k + mpmath.mpf(1) / 2) / n))
                     for k in range(n)]
            values = []
            for s in nodes:
                t = mpmath.sqrt(s)
                values.append((mpmath.clsin(2, t) / t - 1 + mpmath.log(t)) / s)
            system = mpmath.matrix([[s**j for j in range(n)] for s in nodes])
            q = mpmath.lu_solve(system, mpmath.matrix(values))
            expected = tuple(float(q[j]) for j in range(n - 1, -1, -1))
        assert specfun._CLAUSEN_COEFFS == expected

    def test_dense_accuracy_on_the_principal_interval(self):
        # 6001 points of [-pi, pi] against the series t - t log|t| +
        # sum_k |B_2k| t^(2k+1) / (2k (2k+1)!) at 30 digits, 45 terms (the
        # next below 1e-30 there), itself checked against clsin
        mpmath = pytest.importorskip("mpmath")
        theta = np.linspace(-math.pi, math.pi, 6001)
        with mpmath.workdps(30):
            coeffs = [abs(mpmath.bernoulli(2 * k)) / (2 * k * mpmath.factorial(2 * k + 1))
                      for k in range(45, 0, -1)]

            def series(x):
                if x == 0:
                    return mpmath.mpf(0)
                t = mpmath.mpf(x)
                s = t * t
                acc = mpmath.mpf(0)
                for coeff in coeffs:
                    acc = (acc + coeff) * s
                return t * (1 - mpmath.log(abs(t)) + acc)

            for x in theta[::1000]:
                assert abs(series(x) - mpmath.clsin(2, mpmath.mpf(x))) < 1e-25
            exact = np.array([float(series(x)) for x in theta])
        assert np.abs(clausen(theta) - exact).max() <= 6e-16
        scalar = np.array([clausen(x) for x in theta.tolist()])
        assert np.abs(scalar - exact).max() <= 6e-16

    def test_is_the_imaginary_part_of_dilog_on_the_circle(self):
        mpmath = pytest.importorskip("mpmath")
        theta = np.random.default_rng(7).uniform(-20.0, 20.0, 300)
        with mpmath.workdps(30):
            expected = np.array([float(mpmath.polylog(2, mpmath.expj(mpmath.mpf(x))).imag)
                                 for x in theta])
        assert np.abs(clausen(theta) - expected).max() < 1e-14

    def test_values_and_shape(self):
        assert clausen(0.0) == 0.0
        assert abs(clausen(math.pi)) < 1e-15
        # the maximum, at pi/3, is 1.01494160640965362502...
        assert abs(clausen(math.pi / 3) - 1.0149416064096536) < 1e-15
        got = clausen(np.linspace(-1.0, 1.0, 12).reshape(3, 4))
        assert got.shape == (3, 4)
        assert clausen(np.zeros(0)).shape == (0,)

    @staticmethod
    def fresh_arrays(theta):
        # the array path with a fresh array per operation, as written before
        # it reused its buffers
        k = np.round(theta / specfun._TWO_PI)
        t = theta - k * specfun._TWO_PI
        t -= k * specfun._TWO_PI_LOW
        log_less_one = np.log(np.maximum(np.abs(t), specfun._TINY)) - 1.0
        t2 = t * t
        acc = t2 * specfun._CLAUSEN_HEAD
        for coeff in specfun._CLAUSEN_TAIL:
            acc += coeff
            acc *= t2
        acc -= log_less_one
        acc *= t
        return acc

    def test_buffers_reused_in_place_change_no_bit(self):
        rng = np.random.default_rng(8)
        for theta in (self.grid(), rng.uniform(-20.0, 20.0, (2, 8, 301)),
                      rng.uniform(-5.0, 5.0, 7).astype(np.float32), np.arange(-9, 9)):
            before = theta.copy()
            got = clausen(theta)
            expected = self.fresh_arrays(theta)
            assert got.dtype == expected.dtype and np.array_equal(got, expected)
            assert np.array_equal(theta, before)
        zero_d = clausen(np.array(1.3))
        assert type(zero_d) is np.float64 and zero_d == self.fresh_arrays(np.array([1.3]))[0]


class TestLobachevsky:
    def test_zero(self):
        assert lobachevsky(0.0) == 0.0

    def test_half_pi(self):
        # oddness plus pi-periodicity force the value at pi/2 to vanish
        assert abs(lobachevsky(math.pi / 2)) < 1e-15

    def test_quarter_pi_matches_quadrature(self):
        oracle = integrate(
            lambda u: -math.log(abs(2.0 * math.sin(u))), 0.0, math.pi / 4, 1e-12
        )
        assert abs(lobachevsky(math.pi / 4) - oracle) < 1e-10

    def test_is_half_clausen_of_twice_the_argument(self):
        for theta in np.random.default_rng(8).uniform(-10.0, 10.0, size=100):
            assert lobachevsky(theta) == 0.5 * clausen(2.0 * theta)

    def test_matches_dilog_identity(self):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(4)
        for theta in rng.uniform(-10.0, 10.0, size=100):
            with mpmath.workdps(30):
                z = mpmath.expj(2 * mpmath.mpf(theta))
                reference = float(0.5 * mpmath.polylog(2, z).imag)
            assert abs(lobachevsky(theta) - reference) < 1e-12

    def test_odd_and_periodic(self):
        rng = np.random.default_rng(5)
        for theta in rng.uniform(-5.0, 5.0, size=100):
            assert abs(lobachevsky(theta + math.pi) - lobachevsky(theta)) < 1e-12
            assert abs(lobachevsky(-theta) + lobachevsky(theta)) < 1e-12

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidArgumentError):
            lobachevsky(float("inf"))

    @pytest.mark.parametrize("theta", [1e17, -1e20, 1e300, 1e308, 2.0**19, -2.0**19])
    def test_rejects_arguments_whose_reduction_loses_the_value(self, theta):
        # |Lob| <= 0.5075, but the reduction of 2 theta modulo 2 pi loses that
        # from about 2^40 on and overflows at 1e308
        with pytest.raises(AccuracyError, match="2\\*\\*20"):
            lobachevsky(theta)

    def test_just_below_the_bound_matches_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        for theta in (np.nextafter(2.0**19, 0.0), 2.0**19 - 0.3, 166_000 * math.pi):
            with mpmath.workdps(40):
                exact = float(mpmath.clsin(2, 2 * mpmath.mpf(theta)) / 2)
            assert abs(lobachevsky(theta) - exact) < 1e-9


class TestAcoshChecked:
    def test_at_one(self):
        assert acosh_checked(1.0) == 0.0

    def test_closed_form_value(self):
        x = (3.0 + math.sqrt(3.0)) / 4.0
        oracle = math.log(x + math.sqrt(x * x - 1.0))
        assert abs(acosh_checked(x) - oracle) < 1e-15

    def test_clamps_just_below_one(self):
        assert acosh_checked(1.0 - 1e-13) == 0.0

    def test_rejects_below_clamp(self):
        with pytest.raises(DomainError) as err:
            acosh_checked(0.5)
        assert err.value.value == 0.5


class TestIntegrate:
    def test_constant(self):
        assert abs(integrate(lambda x: 1.0, 0.0, 1.0, 1e-12) - 1.0) < 1e-12

    def test_lobachevsky_consistency(self):
        value = integrate(
            lambda u: -math.log(abs(2.0 * math.sin(u))), 0.0, math.pi / 4, 1e-12
        )
        assert abs(value - lobachevsky(math.pi / 4)) < 1e-10

    def test_regular_volume_integral(self):
        # 8 * Lobachevsky(pi/4) minus three times this integral is the volume
        # of the regular tetrahedron with all angles pi/6, about 3.226
        def integrand(t):
            return acosh_checked(math.cos(t) / (2.0 * math.cos(t) - 1.0))

        value = integrate(integrand, 0.0, math.pi / 6, 1e-12)
        combined = 8.0 * lobachevsky(math.pi / 4) - 3.0 * value
        assert abs(combined - 3.226) < 1e-3

    def test_linearity(self):
        tol = 1e-10
        f = math.sin
        g = math.exp
        a, b = 0.25, 2.0
        alpha, beta = 1.7, -0.4
        left = integrate(lambda x: alpha * f(x) + beta * g(x), a, b, tol)
        right = alpha * integrate(f, a, b, tol) + beta * integrate(g, a, b, tol)
        assert abs(left - right) < 10 * tol

    def test_rejects_bad_bounds(self):
        with pytest.raises(InvalidArgumentError):
            integrate(math.sin, 1.0, 0.0, 1e-10)

    @pytest.mark.parametrize("f", [lambda x: 0.0, math.sin])
    @pytest.mark.parametrize("a, b", [(-1e308, 1e308), (0.8e308, 0.9e308)])
    def test_rejects_an_interval_whose_width_or_midpoint_overflows(self, f, a, b):
        # b - a, or a panel's lo + hi near b, beyond the floats puts Gauss
        # nodes on +-inf
        with pytest.raises(InvalidArgumentError, match="bad interval"):
            integrate(f, a, b)

    @pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan])
    def test_rejects_a_tolerance_that_is_not_positive(self, tol):
        # a NaN tol fails every comparison: it once returned the one-panel estimate
        with pytest.raises(InvalidArgumentError, match="tol must be positive"):
            integrate(math.sin, 0.0, 100.0, tol)

    @pytest.mark.parametrize("tol", [5e-324, 1e-300, 1e-18])
    def test_a_tolerance_below_the_rounding_of_the_sums_is_not_met(self, tol):
        # the 15- and 7-point sums of sin agree to the last bit on every panel,
        # so an unfloored error estimate read 0 and any tol was "met"
        with pytest.raises(AccuracyError, match="not reached") as err:
            integrate(math.sin, 0.0, 1.0, tol)
        assert abs(err.value.best_estimate - (1.0 - math.cos(1.0))) < 1e-15

    def test_the_floor_leaves_the_regular_volume_quadrature(self):
        # eight ulps of each panel's sum are far below its tolerance of 1e-9:
        # the same panels are split, and the closed form keeps its bits
        assert regular_volume_l0.__wrapped__() == 3.2259951354175156
        assert integrate(math.sin, 0.0, 1.0) == 0.45969769413186023

    def test_non_convergence_carries_estimate(self):
        # an integrable singularity with an absurd tolerance must fail
        # but still report its best estimate
        with pytest.raises(AccuracyError) as err:
            integrate(lambda x: x**-0.5 if x > 0 else 0.0, 0.0, 1.0, 1e-15)
        assert abs(err.value.best_estimate - 2.0) < 1e-6
