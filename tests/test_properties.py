"""Property tests: the permutation table, invariance of the volume and
equivariance of both gradients under the 24 relabellings, the Python
floats every Tetrahedron construction path stores, the 6-vector
conversions and Jacobians as the batch rows, and a tuple of Python floats
as the ndarray of the same vector."""

import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trunctet import (
    ALL_PERMUTATIONS,
    InvalidArgumentError,
    NearDegenerateError,
    Tetrahedron,
    TruncTetError,
    acute_constraints_hold,
    angles_to_lengths,
    angles_to_lengths_batch,
    deformation_flow,
    dvol_dangles,
    dvol_dlengths,
    jacobian_angles_of_lengths,
    jacobian_lengths_of_angles,
    lengths_to_angles,
    lengths_to_angles_batch,
    permute,
    regular_from_angle,
    regular_from_length,
    regular_volume_l0,
    sample_T_ell,
    ushijima_volume,
    verify_theorem,
    vertex_sums,
)
from trunctet import convert
from trunctet.schlafli import volume_of_lengths
from trunctet.domain import in_O_mask
from trunctet.indexing import EDGE_PAIRS, edge_position

SETTINGS = settings(max_examples=60, deadline=None)

six_floats = st.lists(
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False), min_size=6, max_size=6
)
permutations = st.sampled_from(ALL_PERMUTATIONS)
acute_angles = st.lists(st.floats(0.01, 1.0), min_size=6, max_size=6).filter(
    acute_constraints_hold
)
#: interior rows kept 0.05 away from the faces where a vertex sum reaches pi
interior_angles = st.lists(st.floats(0.01, 2.0), min_size=6, max_size=6).filter(
    lambda angles: max(vertex_sums(angles)) <= math.pi - 0.05
)


def loop_permute(sigma, values):
    """The per-edge loop the permutation table replaced."""
    out = np.empty(6)
    for pos, (i, j) in enumerate(EDGE_PAIRS):
        out[pos] = values[edge_position(sigma[i - 1], sigma[j - 1])]
    return out


def all_floats(tet):
    return all(type(x) is float for x in (*tet.angles, *tet.lengths, tet.volume))


class TestPermuteTable:
    @SETTINGS
    @given(six_floats)
    def test_matches_the_loop_for_every_permutation(self, values):
        for sigma in ALL_PERMUTATIONS:
            expected = loop_permute(sigma, values)
            assert np.array_equal(permute(sigma, values), expected)
            assert np.array_equal(permute(list(sigma), np.array(values)), expected)

    @SETTINGS
    @given(st.lists(st.integers(-2, 6), min_size=3, max_size=5))
    def test_rejects_a_bad_permutation(self, sigma):
        assume(sorted(sigma) != [1, 2, 3, 4])
        with pytest.raises(InvalidArgumentError):
            permute(sigma, (0.1,) * 6)


class TestVolumeInvariance:
    @SETTINGS
    @given(st.one_of(acute_angles, interior_angles))
    def test_every_relabelling_has_the_same_volume(self, angles):
        volume = ushijima_volume(angles)
        rows = np.array([permute(sigma, angles) for sigma in ALL_PERMUTATIONS])
        bound = 1e-13 * max(1.0, volume)
        assert max(abs(ushijima_volume(row) - volume) for row in rows) <= bound
        assert np.max(np.abs(ushijima_volume(rows) - volume)) <= bound


class TestGradientEquivariance:
    @SETTINGS
    @given(st.one_of(acute_angles, interior_angles), permutations)
    def test_relabelled_angles_relabel_the_angle_gradient(self, angles, sigma):
        # dvol_dangles(P tet) = P dvol_dangles(tet), exactly
        tet = Tetrahedron.from_angles(angles)
        moved = dvol_dangles(tet.permuted(sigma)).values
        assert moved == tuple(permute(sigma, dvol_dangles(tet).as_array()).tolist())

    @SETTINGS
    @given(acute_angles, permutations)
    def test_relabelled_lengths_relabel_the_gradient(self, angles, sigma):
        # dvol_dlengths(P l) = P dvol_dlengths(l)
        tet = Tetrahedron.from_angles(angles)
        grad = dvol_dlengths(tet).as_array()
        moved = dvol_dlengths(tet.permuted(sigma)).as_array()
        assert np.max(np.abs(moved - permute(sigma, grad))) <= 1e-12 * max(1.0, np.max(np.abs(grad)))


class TestRecordsHoldFloats:
    @SETTINGS
    @given(acute_angles, permutations)
    def test_from_angles_from_lengths_and_permuted(self, angles, sigma):
        tet = Tetrahedron.from_angles(angles)
        assert all_floats(tet)
        assert all_floats(tet.permuted(sigma))
        assert all_floats(Tetrahedron.from_lengths(tet.lengths))
        for grad in (dvol_dangles(tet), dvol_dlengths(tet)):
            assert all(type(x) is float for x in grad.values)

    def test_regular_family(self):
        assert all_floats(regular_from_angle(0.4))
        assert all_floats(regular_from_length(0.8))

    def test_sampler_campaign_and_flow(self):
        starts = sample_T_ell(np.random.default_rng(5), 0.3, 20, require_volume_floor=regular_volume_l0())
        assert all(all_floats(tet) for tet in starts)
        report = verify_theorem(0.3, 200, seed=6)
        assert report.witnesses and all(all_floats(tet) for _, tet in report.witnesses)
        start = next(tet for tet in starts if not tet.is_regular())
        traj = deformation_flow(start, 0.3, dt=1e-2)
        assert len(traj.points) > 2
        assert all(all_floats(tet) and type(t) is float for t, tet in traj.points)


def assert_the_batch_row(convert_vector, jacobian_vector, values, fails, converted, jacobian_row):
    """A 6-vector's conversion and Jacobian raise the same error where the
    batch row fails and are its bits elsewhere; the Jacobian raises
    NearDegenerateError where the batch one is not finite."""
    if fails:
        with pytest.raises(TruncTetError) as expected:
            convert_vector(values)
        with pytest.raises(type(expected.value), match=re.escape(str(expected.value))):
            jacobian_vector(values)
        return
    assert convert_vector(values).tobytes() == converted.tobytes()
    if np.isfinite(jacobian_row).all():
        assert jacobian_vector(values).tobytes() == jacobian_row.tobytes()
    else:
        with pytest.raises(NearDegenerateError):
            jacobian_vector(values)


def outcome(function, values):
    """The bits of ``function(values)``, or the type, message, diagnostics,
    index and value of the typed error it raises."""
    try:
        return np.asarray(function(values)).tobytes()
    except TruncTetError as exc:
        return (type(exc), str(exc), getattr(exc, "diagnostics", None),
                getattr(exc, "index", None), repr(getattr(exc, "value", None)))


def assert_the_tuple_is_the_array(functions, values):
    """The tuple of Python floats that a Tetrahedron holds gives each
    function the bits or the error of the ndarray of the same vector."""
    for function in functions:
        assert outcome(function, tuple(values)) == outcome(function, np.array(values))


#: angles in [0, pi], often exactly 0 or pi, where cosines are +-1 and
#: vertex coefficients and sines can vanish
ends_or_angles = st.one_of(st.sampled_from([0.0, math.pi]), st.floats(0.0, math.pi))


class TestVectorsAreTheBatchRows:
    @SETTINGS
    @given(st.lists(ends_or_angles, min_size=6, max_size=6))
    def test_angles(self, angles):
        lengths = angles_to_lengths_batch([angles])[0]
        with np.errstate(all="ignore"):
            jacobian_row = convert.lengths_jacobian([angles])[0]
        assert_the_batch_row(angles_to_lengths, jacobian_lengths_of_angles, angles,
                             np.isnan(lengths).any(), lengths, jacobian_row)
        assert_the_tuple_is_the_array(
            (angles_to_lengths, jacobian_lengths_of_angles, ushijima_volume), angles)

    @SETTINGS
    @given(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 150.0)), min_size=6, max_size=6))
    def test_lengths(self, lengths):
        # the batch leaves the closure test of the angles to in_O_mask
        angles = lengths_to_angles_batch([lengths])[0]
        with np.errstate(all="ignore"):
            jacobian_row = convert.angles_jacobian([lengths])[0]
        fails = not in_O_mask([angles], strict=False, tol=1e-9)[0]
        jacobian = lambda l: jacobian_angles_of_lengths(l, check=False)  # noqa: E731
        assert_the_batch_row(lengths_to_angles, jacobian, lengths, fails, angles, jacobian_row)
        assert_the_tuple_is_the_array((lengths_to_angles, jacobian, volume_of_lengths), lengths)
