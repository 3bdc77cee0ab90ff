"""Volume gradients in both charts and the maximal-edge sign expressions."""

import math
import os

import numpy as np
import pytest

from trunctet import (
    ALL_PERMUTATIONS,
    NearDegenerateError,
    L0,
    Tetrahedron,
    angles_to_lengths_batch,
    dvol_dangles,
    dvol_dlengths,
    empirical_k,
    jacobian_angles_of_lengths,
    jacobian_lengths_of_angles,
    key_bracket,
    lemma_gaps,
    permutation_moving_edge_to_front,
    regular_from_angle,
    regular_from_length,
    regular_volume_l0,
    sample_O_batch,
    tecnicofinale_gap,
    ushijima_volume,
)
from trunctet import convert
from trunctet.errors import InconsistencyError
from trunctet.indexing import EDGE_PAIRS, edge_position
from trunctet.schlafli import volume_of_lengths

from test_convert import octagon_boundary_tuple

REGULAR = (math.pi / 6,) * 6
BENCH = os.path.join(os.path.dirname(__file__), os.pardir, "bench")


def fd_jacobian(func, x, h=1e-5):
    """4th-order central differences, (f(x-2h) - 8 f(x-h) + 8 f(x+h) -
    f(x+2h)) / 12h column by column: the reference for the exact Jacobians."""
    x = np.asarray(x, dtype=float)
    cols = []
    for q in range(6):
        step = np.zeros(6)
        step[q] = h
        f_m2 = func(x - 2 * step)
        f_m1 = func(x - step)
        f_p1 = func(x + step)
        f_p2 = func(x + 2 * step)
        cols.append((f_m2 - 8.0 * f_m1 + 8.0 * f_p1 - f_p2) / (12.0 * h))
    return np.column_stack(cols)


def permutation_matrix(sigma):
    """Action of sigma on edge positions, as a 6x6 permutation matrix."""
    mat = np.zeros((6, 6))
    for pos, (i, j) in enumerate(EDGE_PAIRS):
        mat[pos, edge_position(sigma[i - 1], sigma[j - 1])] = 1.0
    return mat


class TestAngleGradient:
    def test_regular_closed_form(self):
        tet = regular_from_length(L0)
        grad = dvol_dangles(tet)
        assert grad.chart == "angles"
        assert np.allclose(grad.values, -L0 / 2.0, atol=1e-9)

    def test_regular_components_equal(self):
        grad = dvol_dangles(regular_from_angle(0.4))
        assert np.ptp(grad.values) < 1e-12

    def test_matches_finite_differences(self, acute_points):
        h = 1e-5
        for a in acute_points[:10]:
            tet = Tetrahedron.from_angles(a)
            grad = dvol_dangles(tet)
            for q in range(6):
                step = np.zeros(6)
                step[q] = h
                fd = (ushijima_volume(a + step) - ushijima_volume(a - step)) / (2 * h)
                assert abs(fd - grad[q]) < 1e-6


class TestJacobians:
    def test_inverse_consistency(self, acute_points):
        for a in acute_points[:10]:
            tet = Tetrahedron.from_angles(a)
            j_angles = jacobian_angles_of_lengths(tet.lengths)
            j_lengths = jacobian_lengths_of_angles(tet.angles)
            assert np.max(np.abs(j_angles @ j_lengths - np.eye(6))) < 1e-10

    def test_match_finite_differences(self, acute_points):
        for a in acute_points[:50]:
            tet = Tetrahedron.from_angles(a)
            fd_angles = fd_jacobian(convert.lengths_to_angles, tet.lengths)
            fd_lengths = fd_jacobian(convert.angles_to_lengths, tet.angles)
            assert np.max(np.abs(jacobian_angles_of_lengths(tet.lengths) - fd_angles)) <= 1e-8
            assert np.max(np.abs(jacobian_lengths_of_angles(tet.angles) - fd_lengths)) <= 1e-8

    def test_lengths_of_angles_symmetric_positive_definite(self, acute_points):
        # Schlafli: d l / d theta = -2 Hess_theta V, and V is strictly concave
        for a in acute_points[:300]:
            jac = jacobian_lengths_of_angles(a)
            assert np.max(np.abs(jac - jac.T)) <= 1e-12
            assert np.linalg.eigvalsh(0.5 * (jac + jac.T)).min() > 0.0

    def test_batch_kernels_match_scalar(self, acute_points):
        angles = np.array(acute_points[:20])
        lengths = angles_to_lengths_batch(angles)
        batch = convert.angles_jacobian(lengths)
        for row, l in zip(batch, lengths):
            assert np.array_equal(row, jacobian_angles_of_lengths(l, check=False))
        batch = convert.lengths_jacobian(angles)
        for row, a in zip(batch, angles):
            assert np.array_equal(row, jacobian_lengths_of_angles(a))

    def test_equivariance_at_regular_point(self):
        tet = regular_from_length(0.8)
        jac = jacobian_angles_of_lengths(tet.lengths)
        for sigma in ALL_PERMUTATIONS:
            mat = permutation_matrix(sigma)
            assert np.max(np.abs(mat @ jac - jac @ mat)) < 1e-7

    def test_equivariance(self, acute_points):
        # relabelled lengths P l have the Jacobian P J P^T
        for a in acute_points[:5]:
            tet = Tetrahedron.from_angles(a)
            jac = jacobian_angles_of_lengths(tet.lengths)
            for sigma in ALL_PERMUTATIONS:
                mat = permutation_matrix(sigma)
                moved = jacobian_angles_of_lengths(mat @ np.asarray(tet.lengths))
                assert np.max(np.abs(moved - mat @ jac @ mat.T)) <= 1e-12

    def test_diagonal_positive_at_regular_points(self):
        # numerical observation on the regular family, kept as a regression
        for ell in (0.3, L0, 1.5):
            jac = jacobian_angles_of_lengths(regular_from_length(ell).lengths)
            assert np.all(np.diag(jac) > 0)

    @pytest.mark.parametrize("check", [True, False])
    def test_flat_limit_is_near_degenerate(self, check):
        with pytest.raises(NearDegenerateError):
            jacobian_angles_of_lengths(octagon_boundary_tuple(0.8), check=check)

    def test_check_rejects_inconsistent_inverse(self, monkeypatch):
        tet = regular_from_length(0.8)
        kernel = convert.lengths_jacobian
        monkeypatch.setattr(convert, "lengths_jacobian", lambda a: 1.001 * kernel(a))
        with pytest.raises(InconsistencyError):
            jacobian_angles_of_lengths(tet.lengths, check=True)
        jacobian_angles_of_lengths(tet.lengths, check=False)


class TestLengthGradient:
    def test_regular_components_equal_negative(self):
        tet = regular_from_length(0.8)
        grad = dvol_dlengths(tet)
        assert grad.chart == "lengths"
        assert np.ptp(grad.values) < 1e-7
        assert all(v < 0 for v in grad.values)

    def test_regular_matches_scalar_family_derivative(self):
        h = 1e-5
        ell = 0.8
        grad = dvol_dlengths(regular_from_length(ell))
        scalar_fd = (
            regular_from_length(ell + h).volume - regular_from_length(ell - h).volume
        ) / (2 * h)
        assert sum(grad.values) == pytest.approx(scalar_fd, abs=1e-5)

    def test_matches_finite_differences(self, acute_points):
        h = 1e-5
        for a in acute_points[:10]:
            tet = Tetrahedron.from_angles(a)
            grad = dvol_dlengths(tet)
            l = np.asarray(tet.lengths)
            for q in range(6):
                step = np.zeros(6)
                step[q] = h
                fd = (volume_of_lengths(l + step) - volume_of_lengths(l - step)) / (
                    2 * h
                )
                assert abs(fd - grad[q]) < 1e-5


    def test_matches_high_precision_oracle(self, acute_points, monkeypatch):
        pytest.importorskip("mpmath")
        monkeypatch.syspath_prepend(os.path.abspath(BENCH))
        import oracle

        rng = np.random.default_rng(52)
        for a in acute_points[:4]:
            tet = Tetrahedron.from_angles(a)
            v = rng.normal(size=6)
            v /= np.linalg.norm(v)
            exact = float(oracle.directional_derivative(tet.lengths, v))
            assert abs(dvol_dlengths(tet).as_array() @ v - exact) <= 1e-10

    def test_makes_one_conversion(self, acute_points, monkeypatch):
        # guards against finite differences coming back
        tet = Tetrahedron.from_angles(acute_points[0])
        calls = []
        for name in ("lengths_to_angles", "angles_to_lengths"):
            original = getattr(convert, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(convert, name, counted)
        dvol_dlengths(tet)
        assert calls == ["lengths_to_angles"]


class TestKeyBracket:
    def test_sign_anti_agreement(self, acute_points):
        for a in acute_points[:100]:
            tet = Tetrahedron.from_angles(a)
            bracket = key_bracket(tet)
            derivative = dvol_dlengths(tet)[0]
            if abs(bracket) > 1e-8 and abs(derivative) > 1e-8:
                assert np.sign(bracket) == -np.sign(derivative)

    def test_positive_at_high_volume_maximal_edge(self):
        rng = np.random.default_rng(50)
        floor = regular_volume_l0()
        for a in sample_O_batch(rng, 50, constraint="volume_floor", floor=floor):
            tet = Tetrahedron.from_angles(a)
            pos = int(np.argmax(tet.lengths))
            tet = tet.permuted(permutation_moving_edge_to_front(pos))
            assert tet.lengths[0] == pytest.approx(tet.max_length, abs=1e-12)
            assert key_bracket(tet) > 0

    def test_regular_value_recorded(self):
        tet = regular_from_length(L0)
        t = tet.angles[0]
        ell = tet.lengths[0]
        explicit = ell * (
            math.cos(t) * 2.0 * math.cos(t) ** 2
            + 2.0 * math.cos(t) ** 2
            - 4.0 * math.sin(t) ** 2 * math.cos(t)
            + math.sin(t) ** 2
        )
        assert key_bracket(tet) == pytest.approx(explicit, abs=1e-12)

    def test_empirical_k_negative(self, acute_points):
        ks = [empirical_k(Tetrahedron.from_angles(a)) for a in acute_points[:20]]
        assert all(k < 0 for k in ks if math.isfinite(k))


class TestInequalityExpressions:
    def test_tecnicofinale_regular_value(self):
        c, s = math.cos(math.pi / 6), math.sin(math.pi / 6)
        expected = c * (2.0 * c * c) + 2.0 * c * c - s * 2.0 * math.sin(math.pi / 3)
        assert tecnicofinale_gap(REGULAR) == pytest.approx(expected, abs=1e-14)

    def test_tecnicofinale_nonnegative_at_high_volume(self):
        rng = np.random.default_rng(51)
        floor = regular_volume_l0()
        for a in sample_O_batch(rng, 100, constraint="volume_floor", floor=floor):
            assert tecnicofinale_gap(a) >= -1e-12

    def test_lemma_gaps_regular(self):
        g1, g2, g3 = lemma_gaps(REGULAR)
        assert g2 == pytest.approx(1.5 - (1.0 - math.sin(math.pi / 12)), abs=1e-14)
        assert g1 > 0 and g3 > 0

    def test_lemma_gaps_small_leading_angle(self):
        g1, g2, g3 = lemma_gaps((1e-9, 0.05, 0.05, 0.05, 0.05, 0.05))
        assert g3 >= 0.0

    def test_sufficiency_chain(self, acute_points):
        # nonnegative gap forces a positive bracket when edge 12 is maximal
        # and the opposite-edge term contributes positively
        for a in acute_points[:100]:
            tet = Tetrahedron.from_angles(a)
            pos = int(np.argmax(tet.lengths))
            tet = tet.permuted(permutation_moving_edge_to_front(pos))
            t12, _, _, t34, _, _ = tet.angles
            if (
                tecnicofinale_gap(tet.angles) >= 0.0
                and tet.lengths[3] * math.sin(t12) * math.sin(t34) > 0.0
            ):
                assert key_bracket(tet) > 0.0
