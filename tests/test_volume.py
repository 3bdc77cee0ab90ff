"""Volume evaluation: the dilogarithm formula, the closed form for the
canonical regular tetrahedron, Gram matrices, and truncation area."""

import cmath
import math

import numpy as np
import pytest

from trunctet import (
    ALL_PERMUTATIONS,
    angles_to_lengths,
    gram,
    gram_det,
    lobachevsky,
    permute,
    regular_volume_l0,
    sample_O_batch,
    sample_T_ell,
    truncation_area,
    ushijima_intermediates,
    ushijima_volume,
)
from trunctet.errors import EvaluationError

REGULAR = (math.pi / 6,) * 6
ASYMMETRIC = (math.pi / 2, 0.0, 0.0, 0.0, 0.0, 0.0)
TWO_ANGLE = (7 * math.pi / 24, 7 * math.pi / 24, 0.0, 0.0, 0.0, 0.0)
FLAT = (0.0, 0.0, math.pi, 0.0, 0.0, math.pi)


class TestGram:
    def test_regular_entries_and_det(self):
        g = gram(REGULAR)
        off = -math.sqrt(3.0) / 2.0
        assert np.allclose(np.diag(g), 1.0)
        assert np.allclose(g, g.T)
        assert np.allclose(g[np.triu_indices(4, 1)], off, atol=1e-15)
        assert gram_det(REGULAR) == pytest.approx(np.linalg.det(g), abs=1e-12)

    def test_single_right_angle_det(self):
        assert gram_det(ASYMMETRIC) == pytest.approx(-8.0, abs=1e-12)

    def test_all_zero_angles(self):
        # off-diagonals all -1: the matrix is 2I - J with eigenvalues
        # (2, 2, 2, -2), so the determinant is -16
        g = gram(np.zeros(6))
        assert np.allclose(np.abs(g), 1.0)
        assert gram_det(np.zeros(6)) == pytest.approx(np.linalg.det(g), abs=1e-12)
        assert gram_det(np.zeros(6)) == pytest.approx(-16.0, abs=1e-12)


class TestIntermediates:
    def test_unit_modulus(self):
        inter = ushijima_intermediates(REGULAR)
        for x in (inter.a, inter.b, inter.c, inter.d, inter.e, inter.f):
            assert abs(abs(x) - 1.0) < 1e-12
        assert cmath.isfinite(inter.z1) and cmath.isfinite(inter.z2)

    def test_worked_example_roots(self):
        inter = ushijima_intermediates(ASYMMETRIC)
        expected = (math.sqrt(2.0) / 2.0) * (1.0 + 1.0j)
        assert abs(inter.z1 - expected) < 1e-12
        assert abs(inter.z2 + expected) < 1e-12

    def test_volume_rejects_far_exterior(self):
        with pytest.raises(EvaluationError):
            ushijima_volume((2.0, 2.0, 2.0, 2.0, 2.0, 2.0))


class TestVolume:
    def test_golden_regular(self):
        assert 3.225 < ushijima_volume(REGULAR) < 3.227

    def test_golden_single_right_angle(self):
        assert 3.010 < ushijima_volume(ASYMMETRIC) < 3.012

    def test_golden_two_angles(self):
        assert 3.209 < ushijima_volume(TWO_ANGLE) < 3.211

    def test_closed_form_cross_check(self):
        assert abs(regular_volume_l0() - ushijima_volume(REGULAR)) < 1e-6

    def test_lobachevsky_term_dominates(self):
        # the closed form subtracts a positive integral from 8 * lob(pi/4)
        assert 8.0 * lobachevsky(math.pi / 4) > regular_volume_l0()

    def test_marking_invariance(self, acute_points):
        for a in acute_points[:50]:
            reference = ushijima_volume(a)
            for sigma in ALL_PERMUTATIONS:
                assert abs(ushijima_volume(permute(sigma, a)) - reference) < 1e-10

    def test_schlafli_consistency(self, acute_points):
        h = 1e-5
        for a in acute_points[:20]:
            lengths = angles_to_lengths(a)
            for q in range(6):
                step = np.zeros(6)
                step[q] = h
                fd = (ushijima_volume(a + step) - ushijima_volume(a - step)) / (2 * h)
                assert abs(fd + lengths[q] / 2.0) < 1e-6

    def test_componentwise_monotonicity(self, interior_points):
        rng = np.random.default_rng(40)
        for a in interior_points[:200]:
            smaller = rng.uniform(0.3, 0.95) * np.asarray(a)
            assert ushijima_volume(smaller) > ushijima_volume(a)

    def test_midpoint_concavity(self, interior_points):
        for k in range(0, 200, 2):
            a = np.asarray(interior_points[k])
            b = np.asarray(interior_points[k + 1])
            mid = ushijima_volume(0.5 * (a + b))
            avg = 0.5 * (ushijima_volume(a) + ushijima_volume(b))
            assert mid >= avg - 1e-10

    def test_flat_path_vanishing(self):
        previous = math.inf
        for eps in (0.1, 0.01, 0.001, 0.0001):
            angles = (eps, eps, math.pi - 2.5 * eps, eps, eps, math.pi - 2.5 * eps)
            vol = ushijima_volume(angles)
            assert 0.0 <= vol < previous
            previous = vol
        assert previous < 1e-3
        assert ushijima_volume(FLAT) == pytest.approx(0.0, abs=1e-9)

    def test_nonnegative_on_closure(self):
        assert ushijima_volume((0.0,) * 6) > 0.0


class TestVolumeRows:
    @staticmethod
    def rows():
        # 1000 interior rows, 1000 rows of T_0.1, the flat limit and rows
        # near each kind of boundary of the polytope
        rng = np.random.default_rng(41)
        interior = sample_O_batch(rng, 1000)
        short = [tet.angles for tet in sample_T_ell(rng, 0.1, 1000)]
        eps = 1e-4
        boundary = [
            FLAT,
            (eps, eps, math.pi - 2.5 * eps, eps, eps, math.pi - 2.5 * eps),
            (0.0,) * 6,
            (1e-9,) * 6,
            ASYMMETRIC,
            TWO_ANGLE,
            (math.pi / 3 - 1e-9,) * 6,
            (1.0, 1.0, math.pi - 2.0 - 1e-9, 0.5, 0.5, 0.5),
        ]
        return np.array(list(interior) + short + boundary, dtype=float)

    def test_matches_scalar(self):
        rows = self.rows()
        got = ushijima_volume(rows)
        assert got.shape == (len(rows),)
        for a, value in zip(rows, got):
            assert abs(value - ushijima_volume(a)) < 1e-13

    def test_empty_batch(self):
        got = ushijima_volume(np.zeros((0, 6)))
        assert isinstance(got, np.ndarray) and got.shape == (0,)

    def test_row_outside_closure_names_the_row(self):
        rows = np.array([REGULAR, TWO_ANGLE, (2.0,) * 6, REGULAR])
        with pytest.raises(EvaluationError, match="row 2"):
            ushijima_volume(rows)
        # large batches are evaluated in blocks; the row number is global
        rows = np.tile(REGULAR, (5000, 1))
        rows[4500] = 2.0
        with pytest.raises(EvaluationError, match="row 4500"):
            ushijima_volume(rows)

    def test_rejects_non_finite_and_wrong_width(self):
        with pytest.raises(EvaluationError, match="row 1"):
            ushijima_volume(np.array([REGULAR, (math.nan,) * 6]))
        with pytest.raises(EvaluationError):
            ushijima_volume(np.zeros((3, 5)))


class TestTruncationArea:
    def test_regular(self):
        assert truncation_area(REGULAR) == pytest.approx(2.0 * math.pi, abs=1e-12)

    def test_ideal_limit(self):
        assert truncation_area((1e-9,) * 6) == pytest.approx(4.0 * math.pi, abs=1e-7)

    def test_affine_in_angle_sum(self, interior_points):
        for k in range(0, 100, 2):
            a, b = interior_points[k], interior_points[k + 1]
            if sum(a) < sum(b):
                assert truncation_area(a) > truncation_area(b)
            elif sum(b) < sum(a):
                assert truncation_area(b) > truncation_area(a)
