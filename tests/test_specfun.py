"""Special functions: dilogarithm, Clausen and Lobachevsky functions,
guarded acosh, adaptive quadrature."""

import cmath
import math

import numpy as np
import pytest

from trunctet import specfun
from trunctet.errors import AccuracyError, DomainError, InvalidArgumentError
from trunctet.specfun import acosh_checked, clausen, dilog, integrate, lobachevsky

PI2_OVER_6 = math.pi**2 / 6.0


def series_dilog(z, terms=2000):
    """Brute-force defining series, valid for |z| <= 1/2."""
    total = 0.0 + 0.0j
    for k in range(terms, 0, -1):
        total += z**k / k**2
    return total


class TestDilog:
    def test_zero(self):
        assert dilog(0.0) == 0.0

    def test_one(self):
        assert abs(dilog(1.0) - PI2_OVER_6) < 1e-14

    def test_half_matches_series(self):
        assert abs(dilog(0.5) - series_dilog(0.5)) < 1e-14

    def test_small_disk_matches_series(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            r = rng.uniform(0.0, 0.5)
            phi = rng.uniform(0.0, 2 * math.pi)
            z = r * cmath.exp(1j * phi)
            assert abs(dilog(z) - series_dilog(z)) < 1e-14

    def test_inversion_identity(self):
        # Li2(z) + Li2(1/z) = -pi^2/6 - log^2(-z)/2 off [0, 1]
        rng = np.random.default_rng(2)
        for _ in range(200):
            r = rng.uniform(1.1, 10.0)
            phi = rng.uniform(0.0, 2 * math.pi)
            z = r * cmath.exp(1j * phi)
            lhs = dilog(z) + dilog(1.0 / z)
            rhs = -PI2_OVER_6 - 0.5 * cmath.log(-z) ** 2
            assert abs(lhs - rhs) < 1e-10

    def test_unit_modulus_arguments(self):
        # the volume formula evaluates Li2 on and near the unit circle
        rng = np.random.default_rng(3)
        for _ in range(50):
            phi = rng.uniform(0.0, 2 * math.pi)
            value = dilog(cmath.exp(1j * phi))
            assert cmath.isfinite(value)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidArgumentError):
            dilog(float("nan"))
        with pytest.raises(InvalidArgumentError):
            dilog(complex(1.0, float("inf")))


class TestDilogArray:
    @staticmethod
    def branch_points():
        # 0, 1, the unit circle, |z| just either side of 1/4 and of 1, the
        # reflection half-plane Re z > 1/2, and large moduli
        rng = np.random.default_rng(4)
        phis = rng.uniform(0.0, 2 * math.pi, 64)
        radii = (0.1, 0.25 * (1 - 1e-12), 0.25, 0.25 * (1 + 1e-12), 0.6,
                 1 - 1e-12, 1.0, 1 + 1e-12, 1.7, 40.0, 1e9)
        points = [r * cmath.exp(1j * phi) for r in radii for phi in phis]
        points += [0.0, 1.0, -1.0, 0.5, 0.5 + 1e-16, 1j, -1j, 2.0, -3.0, 0.6 + 0.8j]
        return np.array(points, dtype=complex)

    def test_matches_mpmath_on_every_branch(self):
        # on the cut [1, inf) a zero imaginary part takes the side of its
        # sign, so the 30-digit reference is nudged 1e-40 to that side
        mpmath = pytest.importorskip("mpmath")
        z = self.branch_points()
        with mpmath.workdps(30):
            nudged = [mpmath.mpc(zk.real, zk.imag or math.copysign(1e-40, zk.imag)) for zk in z]
            exact = [complex(mpmath.polylog(2, w)) for w in nudged]
        for zk, value, expected in zip(z, dilog(z), exact):
            bound = 1e-14 * max(1.0, abs(expected))
            assert abs(value - expected) <= bound
            assert abs(dilog(complex(zk)) - expected) <= bound

    def test_keeps_shape(self):
        z = self.branch_points()[:60].reshape(3, 4, 5)
        got = dilog(z)
        assert got.shape == (3, 4, 5)
        assert abs(dilog(complex(z[1, 2, 3])) - got[1, 2, 3]) < 1e-15
        assert dilog(np.zeros(0, dtype=complex)).shape == (0,)

    def test_rejects_non_finite_element(self):
        with pytest.raises(InvalidArgumentError):
            dilog(np.array([0.5, complex(1.0, float("inf"))]))


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
        theta = np.random.default_rng(7).uniform(-20.0, 20.0, 300)
        expected = dilog(np.exp(1j * theta)).imag
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
        rng = np.random.default_rng(4)
        for theta in rng.uniform(-10.0, 10.0, size=100):
            reference = 0.5 * dilog(cmath.exp(2j * theta)).imag
            assert abs(lobachevsky(theta) - reference) < 1e-12

    def test_odd_and_periodic(self):
        rng = np.random.default_rng(5)
        for theta in rng.uniform(-5.0, 5.0, size=100):
            assert abs(lobachevsky(theta + math.pi) - lobachevsky(theta)) < 1e-12
            assert abs(lobachevsky(-theta) + lobachevsky(theta)) < 1e-12

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidArgumentError):
            lobachevsky(float("inf"))


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

    @pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan])
    def test_rejects_a_tolerance_that_is_not_positive(self, tol):
        # a NaN tol fails every comparison: it once returned the one-panel estimate
        with pytest.raises(InvalidArgumentError, match="tol must be positive"):
            integrate(math.sin, 0.0, 100.0, tol)

    def test_non_convergence_carries_estimate(self):
        # an integrable singularity with an absurd tolerance must fail
        # but still report its best estimate
        with pytest.raises(AccuracyError) as err:
            integrate(lambda x: x**-0.5 if x > 0 else 0.0, 0.0, 1.0, 1e-15)
        assert abs(err.value.best_estimate - 2.0) < 1e-6
