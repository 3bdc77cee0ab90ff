"""Closed-form angle/length conversions and length-chart membership."""

import math

import numpy as np
import pytest

from trunctet import (
    ALL_PERMUTATIONS,
    COSH_L0,
    L0,
    Tetrahedron,
    angles_to_lengths,
    angles_to_lengths_batch,
    in_L,
    in_O,
    lengths_to_angles,
    lengths_to_angles_batch,
    permute,
    sample_O_batch,
    sample_T_ell,
)
from trunctet.convert import (
    _OPPOSITE_ENDS,
    _OPPOSITE_FACE_EDGES,
    ConversionCoefficients,
    _pair_ratio,
    _vertex_poly,
    _w_poly,
    chart_angles,
    coefficients_from_angles,
)
from trunctet.errors import (
    AccuracyError,
    DomainError,
    InconsistencyError,
    InvalidArgumentError,
    NotATetrahedronError,
    NotInClosureError,
)
from trunctet.specfun import EPS_CLAMP
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


# --- the batch length-chart test against the scalar code it replaced ------


def reference_lengths_to_angles(lengths, eps_clamp=EPS_CLAMP, closure_tol=1e-9):
    """The per-row conversion as written before the batch kernel: guards
    checked and typed errors raised one 6-vector at a time (overflow
    warnings silenced)."""
    with np.errstate(over="ignore", invalid="ignore"):
        ch = np.cosh(np.asarray(lengths, dtype=float))
        z = _vertex_poly(ch, _OPPOSITE_FACE_EDGES)
        if (z <= 0.0).any():
            vertex = int(np.argmin(z)) + 1
            raise NotInClosureError(
                f"vertex coefficient z_{vertex} = {z[vertex - 1]:.6g} is not positive",
                value=z[vertex - 1],
            )
        arg = _pair_ratio(_w_poly(ch), z, _OPPOSITE_ENDS)
    bad = ~(np.abs(arg) <= 1.0 + eps_clamp)
    if bad.any():
        pos = int(np.argmax(bad))
        i, j = EDGE_PAIRS[pos]
        raise NotInClosureError(
            f"cosine argument {arg[pos]:.6g} exceeds 1 at edge {{{i},{j}}}",
            value=arg[pos],
        )
    angles = np.arccos(np.minimum(np.maximum(arg, -1.0), 1.0))
    if not in_O(angles, strict=False, tol=closure_tol):
        raise InconsistencyError("angles outside the closure")
    return angles


def reference_chart_angles(lengths, tol=1e-9):
    """The per-row length-chart test as written before the batch kernel."""
    try:
        angles = reference_lengths_to_angles(lengths)
        if not in_O(angles, strict=True):
            return None
        back = angles_to_lengths(angles)
    except (DomainError, InvalidArgumentError, InconsistencyError):
        return None
    if np.abs(back - lengths).max() >= tol:
        return None
    return angles


def chart_test_rows():
    """Length rows inside, outside and at the edge of the length chart."""
    rows = []
    for seed, ell, n in ((40, 0.1, 700), (41, 0.3, 700), (42, L0, 600)):
        rows += [tet.lengths for tet in sample_T_ell(np.random.default_rng(seed), ell, n)]
    rng = np.random.default_rng(43)
    rows += list(rng.uniform(0.01, 3.0, size=(300, 6)))  # about a third outside
    rows += list(-rng.uniform(0.1, 1.0, size=(5, 6)))  # negative lengths
    # lengths of angle rows on the face theta_12 = 0 of the polytope: the
    # conversion often returns exactly 0 there and the round trip holds,
    # so only the strict polytope test rejects them
    face = np.array(sample_O_batch(np.random.default_rng(44), 60, constraint="acute"))
    face[:, 0] = 0.0
    rows += list(angles_to_lengths_batch(face))
    for alpha in (0.6, 0.8, 1.2, 2.0):
        # the octagon flat limit (cos = +-1) and rows closing in on it from
        # both sides, where |cos| -> 1
        flat = np.array(octagon_boundary_tuple(alpha))
        rows.append(flat)
        for k in range(2, 15):
            for sign in (1.0, -1.0):
                row = flat.copy()
                row[[2, 5]] *= 1.0 + sign * 10.0 ** -k
                rows.append(row)
    # z_k = 2xyz + x^2 + y^2 + z^2 - 1 >= 4 on cosh values x, y, z >= 1, so
    # real lengths never reach z_k = 0; z_k is smallest (-> 4) as every
    # length -> 0, and these rows approach it
    rows += [np.full(6, 10.0 ** -k) for k in range(1, 9)]
    rows += [(10.0, 0.01, 0.01, 10.0, 0.01, 0.01), (3.0, 0.2, 0.2, 0.2, 0.2, 0.2)]
    # long edges up to and past the overflow of cosh (near 710.5)
    for big in (30.0, 300.0, 709.0, 711.0, 800.0):
        rows.append(np.full(6, big))
        rows.append((big, 0.5, 0.5, 0.5, 0.5, 0.5))
    return np.array(rows, dtype=float)


class TestBatchChartMatchesScalar:
    @pytest.fixture(scope="class")
    def rows(self):
        return chart_test_rows()

    def test_accept_mask_and_angles_are_bitwise(self, rows):
        angles, ok = chart_angles(rows)
        assert angles.shape == rows.shape and ok.shape == (len(rows),)
        accepted = 0
        for row, got, inside in zip(rows, angles, ok):
            expected = reference_chart_angles(row)
            assert inside == (expected is not None), row
            scalar = chart_angles(row)
            if expected is None:
                assert scalar is None
                assert np.isnan(got).all()
            else:
                accepted += 1
                assert np.array_equal(got, expected)
                assert np.array_equal(scalar, expected)
        # both outcomes are well represented
        assert accepted >= 2000 and len(rows) - accepted >= 150

    def test_in_L_batch_is_the_scalar_decision(self, rows):
        mask = in_L(rows)
        assert mask.dtype == bool
        assert list(mask) == [in_L(row) for row in rows]

    # the per-row reference warns when cosh overflows
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_conversion_raises_or_returns_as_before(self, rows):
        batch = lengths_to_angles_batch(rows)
        for row, got in zip(rows, batch):
            try:
                expected = reference_lengths_to_angles(row)
            except NotInClosureError as exc:
                assert np.isnan(got).all()
                with pytest.raises(NotInClosureError) as raised:
                    lengths_to_angles(row)
                assert str(raised.value) == str(exc)
                assert raised.value.value == exc.value or np.isnan(exc.value)
                continue
            except InconsistencyError:
                # the batch kernel leaves the closure test to in_O_mask
                assert np.isfinite(got).all()
                with pytest.raises(InconsistencyError):
                    lengths_to_angles(row)
                continue
            assert np.array_equal(got, expected)
            assert np.array_equal(lengths_to_angles(row), expected)

    # rejected without a numpy warning, by the batch and the scalar call
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_cosh_is_rejected(self):
        rows = np.array([(800.0, 0.5, 0.5, 0.5, 0.5, 0.5), (L0,) * 6])
        angles, ok = chart_angles(rows)
        assert list(ok) == [False, True]
        assert np.isnan(lengths_to_angles_batch(rows)[0]).all()
        with pytest.raises(NotInClosureError, match="cosine argument nan"):
            lengths_to_angles(rows[0])
        # an edge far beyond the length the kernel takes without overflow,
        # and one whose cosh itself overflows
        for first in (200.0, -800.0):
            with pytest.raises(NotInClosureError, match="cosine argument"):
                lengths_to_angles((first, 0.5, 0.5, 0.5, 0.5, 0.5))
        # all six edges long, regular rows of edge L: z_k z_l stays finite at
        # 100 and 118, overflows to inf at 120 and 150 (where the cosine
        # arguments used to read 0, right angles) and is NaN at 300, where
        # cosh^3 overflows; the overflowing rows fail the chart guard
        lengths = (100.0, 118.0, 120.0, 150.0, 300.0)
        rows = np.array([(L,) * 6 for L in lengths] + [(L0,) * 6])
        batch = lengths_to_angles_batch(rows)
        reference = [reference_lengths_to_angles(row) for row in rows[[0, 1, 5]]]
        for got, expected in zip(batch[[0, 1, 5]], reference):
            assert np.array_equal(got, expected)
        assert np.isnan(batch[2:5]).all()
        assert list(chart_angles(rows)[1]) == [False] * 5 + [True]
        for row, expected in zip(rows[[0, 1, 5]], reference):
            assert np.array_equal(lengths_to_angles(row), expected)
        for L in (120.0, 150.0):
            with pytest.raises(AccuracyError, match=r"overflows at edge \{1,2\}"):
                lengths_to_angles((L,) * 6)
            with pytest.raises(AccuracyError):
                Tetrahedron.from_lengths((L,) * 6)
        # a NaN cosine argument fails its closure guard first, as before
        with pytest.raises(NotInClosureError, match="cosine argument nan"):
            lengths_to_angles((300.0,) * 6)

    def test_shapes(self):
        empty = np.empty((0, 6))
        angles, ok = chart_angles(empty)
        assert angles.shape == (0, 6) and ok.shape == (0,)
        assert in_L(empty).shape == (0,)
        with pytest.raises(InvalidArgumentError):
            chart_angles(np.ones((3, 5)))
        with pytest.raises(InvalidArgumentError):
            lengths_to_angles_batch(np.ones(6))
        # a malformed 6-vector is not in the chart, as before
        assert chart_angles((1.0, 2.0, 3.0)) is None
        assert chart_angles((L0, L0, L0, L0, L0, math.nan)) is None
