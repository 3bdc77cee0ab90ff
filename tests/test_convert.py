"""Closed-form angle/length conversions and length-chart membership."""

import math

import numpy as np
import pytest

from trunctet import (
    ALL_PERMUTATIONS,
    COSH_L0,
    L0,
    angles_to_lengths,
    angles_to_lengths_batch,
    in_L,
    lengths_to_angles,
    permute,
    sample_T_ell,
)
from trunctet.convert import ConversionCoefficients, coefficients_from_angles
from trunctet.errors import NotATetrahedronError
from trunctet.indexing import EDGE_PAIRS, edge_position

REGULAR = (math.pi / 6,) * 6


def octagon_boundary_tuple(alpha):
    """Edge lengths of the flat limit built from a symmetric right-angled
    octagon with the four primary sides of length alpha.

    Quartering the octagon along its two mid diagonals yields right-angled
    pentagons with sides (diag/2, beta/2, alpha, beta/2, diag/2), so the
    standard pentagon identities determine beta and the diagonals.
    """
    beta = 2.0 * math.atanh(1.0 / math.sqrt(math.cosh(alpha)))
    diag = 2.0 * math.acosh(math.sinh(alpha) * math.sinh(beta / 2.0))
    return (alpha, alpha, diag, alpha, alpha, diag)


def reference_c(angles, i, j, k, l):
    """The c coefficient with an explicit (k, l) role assignment."""
    cos = {}
    for pos, (p, q) in enumerate(EDGE_PAIRS):
        cos[(p, q)] = cos[(q, p)] = math.cos(angles[pos])
    sin_ij = math.sin(angles[edge_position(i, j)])
    return (
        cos[(i, j)] * (cos[(i, l)] * cos[(j, k)] + cos[(i, k)] * cos[(j, l)])
        + cos[(i, l)] * cos[(j, l)]
        + cos[(i, k)] * cos[(j, k)]
        + cos[(k, l)] * sin_ij**2
    )


class TestCoefficients:
    def test_regular_d(self):
        d, _ = coefficients_from_angles(REGULAR)
        expected = (3.0 * math.sqrt(3.0) + 5.0) / 4.0
        assert np.allclose(d, expected, atol=1e-14)

    def test_right_angles_d(self):
        d, _ = coefficients_from_angles((math.pi / 2,) * 6)
        assert np.allclose(d, -1.0, atol=1e-14)

    def test_c_symmetric_in_complementary_pair(self):
        rng = np.random.default_rng(30)
        angles = rng.uniform(0.1, 0.5, size=6)
        _, c = coefficients_from_angles(angles)
        for pos, (i, j) in enumerate(EDGE_PAIRS):
            k, l = (p for p in (1, 2, 3, 4) if p not in (i, j))
            assert c[pos] == pytest.approx(reference_c(angles, i, j, k, l), abs=1e-14)
            assert c[pos] == pytest.approx(reference_c(angles, i, j, l, k), abs=1e-14)

    def test_positive_on_valid_tetrahedra(self, acute_points):
        for a in acute_points[:200]:
            pair = ConversionCoefficients.from_pair(a, angles_to_lengths(a))
            assert all(x > 0 for x in pair.d)
            assert all(x > 0 for x in pair.z)


class TestAnglesToLengths:
    def test_regular_gives_l0(self):
        lengths = angles_to_lengths(REGULAR)
        assert np.allclose(np.cosh(lengths), COSH_L0, atol=1e-12)
        assert np.allclose(lengths, L0, atol=1e-12)

    def test_near_flat_regular_diverges(self):
        lengths = angles_to_lengths((math.pi / 3 - 1e-8,) * 6)
        assert np.all(np.asarray(lengths) > 8.0)

    def test_rejects_invalid_angles(self):
        with pytest.raises(NotATetrahedronError):
            angles_to_lengths((math.pi / 2,) * 6)

    def test_batch_matches_scalar(self, acute_points):
        block = np.asarray(acute_points[:50])
        batch = angles_to_lengths_batch(block)
        for row, a in zip(batch, block):
            assert np.allclose(row, angles_to_lengths(a), atol=1e-14)

    def test_scalar_is_bitwise_the_batch_row(self):
        # one kernel serves both entry points, so length-floor decisions
        # made on batch rows hold for the scalar lengths too
        tets = sample_T_ell(np.random.default_rng(31), 0.3, 300)
        block = np.array([tet.angles for tet in tets])
        batch = angles_to_lengths_batch(block)
        for row, a, tet in zip(batch, block, tets):
            assert np.array_equal(angles_to_lengths(a), row)
            assert np.array_equal(row, tet.lengths)


class TestLengthsToAngles:
    def test_l0_gives_regular(self):
        angles = lengths_to_angles((L0,) * 6)
        assert np.allclose(angles, math.pi / 6, atol=1e-12)

    @pytest.mark.parametrize("ell", [0.1, 1.0, 3.0])
    def test_regular_family(self, ell):
        angles = lengths_to_angles((ell,) * 6)
        assert np.ptp(angles) < 1e-12
        assert 0.0 < angles[0] < math.pi / 3

    @pytest.mark.parametrize("alpha", [0.6, 0.8, 1.2])
    def test_octagon_limit_is_flat(self, alpha):
        angles = lengths_to_angles(octagon_boundary_tuple(alpha))
        expected = (0.0, 0.0, math.pi, 0.0, 0.0, math.pi)
        assert np.allclose(angles, expected, atol=1e-6)


class TestRoundTrip:
    def test_both_directions(self, acute_points):
        for a in acute_points:
            lengths = angles_to_lengths(a)
            back = lengths_to_angles(lengths)
            assert np.max(np.abs(back - a)) < 1e-9
            assert np.max(np.abs(angles_to_lengths(back) - lengths)) < 1e-9

    def test_monotone_regular_family(self):
        thetas = np.linspace(0.01, math.pi / 3 - 0.01, 100)
        lengths = [angles_to_lengths((t,) * 6)[0] for t in thetas]
        assert np.all(np.diff(lengths) > 0)

    def test_equivariance(self, acute_points):
        for a in acute_points[:20]:
            lengths = angles_to_lengths(a)
            for sigma in ALL_PERMUTATIONS:
                left = angles_to_lengths(permute(sigma, a))
                right = permute(sigma, lengths)
                assert np.allclose(left, right, atol=1e-12)


class TestInL:
    def test_regular_point(self):
        assert in_L((L0,) * 6)

    def test_extreme_tuple_is_decided(self):
        # no a-priori status; the round-trip criterion decides: this tuple
        # fails to land in the polytope interior
        assert in_L((10.0, 0.01, 0.01, 10.0, 0.01, 0.01)) is False

    def test_octagon_tuple_outside(self):
        assert not in_L(octagon_boundary_tuple(0.8))
