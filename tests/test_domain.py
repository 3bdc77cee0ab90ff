"""Angle polytope membership, acuteness constraints, the marking action,
the regular family, samplers, and the Tetrahedron record."""

import math
import re

import numpy as np
import pytest

from trunctet import (
    ALL_PERMUTATIONS,
    AccuracyError,
    L0,
    Tetrahedron,
    acute_constraints_hold,
    angles_to_lengths,
    angles_to_lengths_batch,
    deformation_flow,
    in_L,
    in_O,
    lengths_to_angles_batch,
    permute,
    regular_from_angle,
    regular_from_length,
    regular_volume_l0,
    sample_O,
    sample_O_batch,
    sample_T_ell,
    ushijima_volume,
    verify_theorem,
    vertex_sums,
)
from trunctet import domain as domain_module
from trunctet.convert import chart_angles
from trunctet.domain import (
    _in_O_index,
    acute_mask,
    as_finite,
    as_rows,
    as_vector,
    compose,
    in_O_mask,
)
from trunctet.indexing import VERTEX_EDGES
from trunctet.errors import (
    DomainError,
    EvaluationError,
    InconsistencyError,
    InvalidArgumentError,
    SamplingError,
    TruncTetError,
)

REGULAR = (math.pi / 6,) * 6
FLAT = (0.0, 0.0, math.pi, 0.0, 0.0, math.pi)


class TestAsFinite:
    @pytest.mark.parametrize("value", ["0.3", None, 0.3 + 0j, 1j], ids=repr)
    @pytest.mark.parametrize("call", [
        lambda v: as_finite(v, "ell"),
        lambda v: verify_theorem(v, 3, 0),
        lambda v: regular_from_length(v),
        lambda v: deformation_flow(regular_from_length(0.5), 0.3, dt=v),
        lambda v: in_O(REGULAR, tol=v),
    ], ids=["as_finite", "verify_theorem", "regular_from_length", "flow_dt", "in_O_tol"])
    def test_non_numbers_raise_invalid_argument(self, call, value):
        with pytest.raises(InvalidArgumentError, match=f"must be a real number, got {re.escape(repr(value))}$"):
            call(value)

    @pytest.mark.parametrize("value", [10**400, -10**400], ids=["+10**400", "-10**400"])
    @pytest.mark.parametrize("call", [
        lambda v: as_finite(v, "ell"),
        lambda v: as_finite(v, "ell", nonnegative=True),
        lambda v: verify_theorem(v, 3, 0),
        lambda v: regular_from_length(v),
        lambda v: deformation_flow(regular_from_length(0.5), 0.3, dt=v),
        lambda v: in_O(REGULAR, tol=v),
    ], ids=["as_finite", "as_finite_nonnegative", "verify_theorem", "regular_from_length",
            "flow_dt", "in_O_tol"])
    def test_ints_beyond_the_floats_raise_invalid_argument(self, call, value):
        # math.isfinite and float() raise OverflowError on them; the message
        # names no digits, which may run past int's repr limit (10**5000)
        with pytest.raises(InvalidArgumentError, match="must be finite.*, got a number too "
                                                       "large for a float$"):
            call(value)

    def test_numpy_scalars_nan_and_inf_keep_their_outcomes(self):
        assert as_finite(np.float32(0.5), "x") == 0.5 and as_finite(np.int64(3), "x") == 3.0
        assert type(as_finite(np.float64(0.25), "x")) is float
        for value in (np.float64(math.nan), math.inf, -math.inf):
            with pytest.raises(InvalidArgumentError, match="^x must be finite, got"):
                as_finite(value, "x")
        with pytest.raises(InvalidArgumentError, match="^x must be finite and nonnegative"):
            as_finite(np.float64(-1.0), "x", nonnegative=True)


class TestInO:
    def test_regular_point(self):
        assert in_O(REGULAR)

    def test_vertex_sum_violation(self):
        assert not in_O((math.pi / 2, math.pi / 2, math.pi / 2, 0.1, 0.1, 0.1))

    def test_flat_closure_point(self):
        assert in_O(FLAT, strict=False)
        assert not in_O(FLAT, strict=True)

    def test_vertex_sums_layout(self):
        sums = vertex_sums((1.0, 2.0, 3.0, 4.0, 5.0, 6.0))
        assert np.allclose(sums, [1 + 2 + 3, 1 + 5 + 6, 2 + 4 + 6, 3 + 4 + 5])

    @pytest.mark.parametrize("tol", [math.inf, -math.inf])
    def test_tolerance_must_be_finite(self, tol):
        # an infinite slack made every row pass or fail (NaN: see test_tooling)
        with pytest.raises(InvalidArgumentError, match="tol must be finite"):
            in_O(REGULAR, tol=tol)
        with pytest.raises(InvalidArgumentError, match="tol must be finite"):
            in_O_mask([REGULAR], tol=tol)

    def test_convexity(self):
        rng = np.random.default_rng(10)
        points = sample_O_batch(rng, 100)
        for k in range(0, 100, 2):
            a, b = points[k], points[k + 1]
            t = rng.uniform()
            assert in_O(t * a + (1 - t) * b)


@pytest.mark.parametrize(
    "call",
    [lambda v: as_vector(v, "angles"), in_O, angles_to_lengths, lambda v: permute((1, 2, 3, 4), v)],
    ids=["as_vector", "in_O", "angles_to_lengths", "permute"],
)
@pytest.mark.parametrize(
    "values, message",
    [
        (["a"] * 6, "expected 6 numbers"),
        ([0.1, 0.2, [0.3, 0.4], 0.5, 0.6, 0.7], "expected 6 numbers"),
        ([0.5] * 5, r"expected 6 entries, got shape \(5,\)"),
        ([math.nan] + [0.5] * 5, "non-finite entries"),
        (np.array([0.5 + 1j] * 6), "expected 6 numbers"),
        ([0.5 + 0j] * 6, "expected 6 numbers"),
    ],
    ids=["non-numeric", "ragged", "short", "nan", "complex", "complex_real_valued"],
)
def test_malformed_vectors_raise_one_typed_error(call, values, message):
    # complex entries are rejected, not cut to their real parts (numpy's
    # ComplexWarning is a RuntimeWarning, which the suite turns into an error)
    with pytest.raises(InvalidArgumentError, match=f"^angles: {message}"):
        call(values)


#: the entry points that take (m, 6) rows, validated by ``as_rows``
ROW_CALLS = {
    "as_rows": lambda rows: as_rows(rows, "angles"),
    "angles_to_lengths_batch": angles_to_lengths_batch,
    "lengths_to_angles_batch": lengths_to_angles_batch,
    "chart_angles": chart_angles,
    "in_L": in_L,
    "ushijima_volume": ushijima_volume,
    "in_O_mask": in_O_mask,
    "acute_mask": acute_mask,
}


@pytest.mark.parametrize("call", ROW_CALLS.values(), ids=ROW_CALLS.keys())
@pytest.mark.parametrize(
    "rows, message",
    [
        (np.array([["a"] * 6]), "rows of numbers"),
        (np.array([[0.5 + 1j] * 6]), "rows of numbers"),
        (np.array([[0.5 + 0j] * 6]), "rows of numbers"),
        (np.array([[0.5] * 5]), r"rows, got shape \(1, 5\)"),
        ([[0.5] * 6, [0.5]], "rows of numbers"),
    ],
    ids=["non-numeric", "complex", "complex_real_valued", "five_columns", "ragged"],
)
def test_malformed_rows_raise_one_typed_error(call, rows, message):
    # a volume raises EvaluationError, with the message of the validator
    error = EvaluationError if call is ushijima_volume else InvalidArgumentError
    with pytest.raises(error, match=rf": expected \(m, 6\) {message}"):
        call(rows)


def test_complex_6_vectors_are_outside_the_length_chart():
    row = np.array([0.7 + 1j] * 6)
    assert chart_angles(row) is None
    with pytest.raises(InvalidArgumentError, match="^lengths: expected 6 numbers"):
        in_L(row)


def same_outputs(a, b):
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(same_outputs, a, b))
    return np.array_equal(a, b, equal_nan=True) and np.asarray(a).dtype == np.asarray(b).dtype


@pytest.mark.parametrize("call", ROW_CALLS.values(), ids=ROW_CALLS.keys())
def test_real_rows_of_any_numeric_dtype_are_accepted(call):
    # integer, float32 and boolean rows (in the closure of the angle
    # polytope, for the volume) give what their float64 rows give
    rows = np.array([[1, 1, 1, 1, 1, 1], [0, 1, 1, 1, 1, 1], [1, 0, 1, 0, 1, 1]])
    expected = call(rows.astype(float))
    for cast in (rows, rows.astype(np.float32), rows > 0):
        assert same_outputs(call(cast), call(np.asarray(cast, dtype=float)))
    assert same_outputs(call(rows), expected)


def per_vertex_in_O_mask(batch, strict=True, tol=0.0):
    """``in_O_mask`` as written before it gathered the rows once: the
    surviving row indices fancy-index the batch again for each vertex."""
    A = np.asarray(batch, dtype=float)
    below = np.less if strict else np.less_equal
    bound = math.pi + tol
    (p, q, r), *rest = VERTEX_EDGES
    idx = np.flatnonzero(below(A[:, p] + A[:, q] + A[:, r], bound))
    for p, q, r in rest:
        idx = idx[below(A[idx, p] + A[idx, q] + A[idx, r], bound)]
    rows = A[idx]
    idx = idx[np.all(rows > -tol if strict else rows >= -tol, axis=1)]
    ok = np.zeros(len(A), dtype=bool)
    ok[idx] = True
    return ok


def mask_test_batches():
    """Uniform batches, rows with a vertex sum of exactly pi, rows with zero,
    -0.0 and negative entries, rows just past the bound, and empty batches."""
    rng = np.random.default_rng(21)
    batches = [rng.uniform(0.0, math.pi, size=(4096, 6)), rng.uniform(0.0, 1.2, size=(300, 6))]
    # (1 + 1) + (pi - 2) is pi exactly; put such a vertex at every vertex,
    # alone and with the others below the bound
    exact = []
    for p, q, r in VERTEX_EDGES:
        row = np.full(6, 0.5)
        row[[p, q, r]] = (1.0, 1.0, math.pi - 2.0)
        exact.append(row)
        over = row.copy()
        over[p] = 1.0 + 2.0 ** -51  # the sum is then pi plus one ulp
        exact.append(over)
    batches.append(np.array(exact))
    signs = rng.uniform(0.0, 1.0, size=(400, 6))
    picks = rng.integers(0, 6, size=(400, 2))
    signs[np.arange(400), picks[:, 0]] = rng.choice([0.0, -0.0, -1e-12, -0.3], size=400)
    signs[:100, picks[:100, 1]] = np.nan
    batches.append(signs)
    batches += [np.empty((0, 6)), np.array([(0.0,) * 6, (-0.0,) * 6, (math.pi / 3,) * 6])]
    return batches


class TestInOMaskMatchesPerVertexGather:
    @pytest.mark.parametrize("strict", [True, False])
    @pytest.mark.parametrize("tol", [0.0, 1e-12, 1e-9])
    def test_same_decisions(self, strict, tol):
        decided = set()
        for batch in mask_test_batches():
            got = in_O_mask(batch, strict=strict, tol=tol)
            expected = per_vertex_in_O_mask(batch, strict=strict, tol=tol)
            assert got.dtype == bool and got.shape == (len(batch),)
            assert np.array_equal(got, expected)
            decided |= set(got.tolist())
        assert decided == {False, True}

    @pytest.mark.parametrize("strict", [True, False])
    @pytest.mark.parametrize("tol", [0.0, 1e-9])
    def test_rows_gathered_by_index_are_the_masked_rows(self, strict, tol):
        # the samplers gather np.take(batch, _in_O_index(batch)); the rows and
        # their bits are those of the boolean gather, NaN and inf rows included
        rng = np.random.default_rng(22)
        special = rng.uniform(0.0, 1.0, size=(60, 6))
        special[rng.integers(0, 60, 20), rng.integers(0, 6, 20)] = np.nan
        special[rng.integers(0, 60, 20), rng.integers(0, 6, 20)] = np.inf
        special[rng.integers(0, 60, 10), rng.integers(0, 6, 10)] = -np.inf
        for batch in mask_test_batches() + [special]:
            got = np.take(batch, _in_O_index(batch, strict, tol), axis=0)
            expected = batch[in_O_mask(batch, strict, tol)]
            assert got.shape == expected.shape and got.tobytes() == expected.tobytes()

    def test_rows_on_the_bound(self):
        rows = mask_test_batches()[2]
        # a vertex sum of exactly pi is outside the open polytope and inside
        # its closure; one ulp more is outside both
        assert not in_O_mask(rows[0::2]).any()
        assert in_O_mask(rows[0::2], strict=False).all()
        assert not in_O_mask(rows[1::2], strict=False).any()


class TestAcuteConstraints:
    def test_regular_point(self):
        assert acute_constraints_hold(REGULAR)

    def test_right_angle_violation(self):
        assert not acute_constraints_hold(
            (math.pi / 2 + 0.01, 0.1, 0.1, 0.1, 0.1, 0.1)
        )

    def test_high_volume_samples_are_acute(self):
        rng = np.random.default_rng(11)
        for a in sample_O_batch(rng, 50, constraint="volume_floor", floor=3.226):
            assert acute_constraints_hold(a)

    def test_huge_finite_angles_fail_quietly(self):
        # the sums overflow to inf, which fails the test; the suite turns a
        # numpy overflow warning into an error
        assert not acute_constraints_hold((1e308,) * 6)


class TestPermute:
    def test_identity(self):
        a = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
        assert permute((1, 2, 3, 4), a) == pytest.approx(a)

    def test_transposition_12(self):
        a = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
        assert permute((2, 1, 3, 4), a) == pytest.approx((1.0, 6.0, 5.0, 4.0, 3.0, 2.0))

    def test_volume_invariance(self):
        rng = np.random.default_rng(12)
        for a in sample_O_batch(rng, 50, constraint="acute"):
            reference = ushijima_volume(a)
            for sigma in ALL_PERMUTATIONS:
                assert abs(ushijima_volume(permute(sigma, a)) - reference) < 1e-10

    def test_group_action(self):
        rng = np.random.default_rng(13)
        a = sample_O(rng)
        perms = list(ALL_PERMUTATIONS)
        for k in range(len(perms)):
            sigma, tau = perms[k], perms[(7 * k + 3) % 24]
            left = permute(compose(tau, sigma), a)
            right = permute(sigma, permute(tau, a))
            assert np.allclose(left, right, atol=0.0)

    @pytest.mark.parametrize("constraint", ["acute", "volume_floor"])
    def test_permuted_record_is_the_permuted_tuples(self, constraint):
        # Tetrahedron.permuted gathers its tuples itself: the bits of
        # permute, and the same volume, under all 24 markings
        floor = regular_volume_l0() if constraint == "volume_floor" else None
        rng = np.random.default_rng(15)
        for a in sample_O_batch(rng, 20, constraint=constraint, floor=floor):
            tet = Tetrahedron.from_angles(a)
            for sigma in ALL_PERMUTATIONS:
                moved = tet.permuted(sigma)
                assert np.array(moved.angles).tobytes() == permute(sigma, tet.angles).tobytes()
                assert np.array(moved.lengths).tobytes() == permute(sigma, tet.lengths).tobytes()
                assert moved.volume == tet.volume

    @pytest.mark.parametrize("sigma", [(1, 1, 2, 3), (1, 2, 3), (0, 1, 2, 3),
                                       (1, 2, 3, 4.7), (2.9, 1, 3, 4), ("2", "1", "3", "4")])
    def test_permuted_rejects_what_is_not_a_permutation(self, sigma):
        # entries are not truncated: (1, 2, 3, 4.7) is not the identity
        tet = regular_from_length(0.8)
        for call in (tet.permuted, lambda s: permute(s, tet.angles), lambda s: compose(s, s)):
            with pytest.raises(InvalidArgumentError, match="not a permutation of 1..4"):
                call(sigma)

    def test_numpy_integers_are_entries(self):
        a = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
        sigma = np.array([2, 1, 3, 4])
        assert permute(sigma, a).tobytes() == permute((2, 1, 3, 4), a).tobytes()
        assert compose(sigma, sigma) == (1, 2, 3, 4)

    def test_regular_iff_fixed_by_all_markings(self):
        tet = regular_from_length(0.8)
        assert all(
            np.allclose(permute(sigma, tet.angles), tet.angles)
            for sigma in ALL_PERMUTATIONS
        )
        rng = np.random.default_rng(14)
        irregular = Tetrahedron.from_angles(sample_O(rng, constraint="acute"))
        assert not all(
            np.allclose(permute(sigma, irregular.angles), irregular.angles)
            for sigma in ALL_PERMUTATIONS
        )


class TestRegularFamily:
    def test_angle_pi_over_6_gives_l0(self):
        tet = regular_from_angle(math.pi / 6)
        assert np.allclose(tet.lengths, L0, atol=1e-12)

    def test_ideal_limit_lengths_finite(self):
        tet = regular_from_angle(1e-6)
        assert all(math.isfinite(l) and l > 0 for l in tet.lengths)

    def test_flat_limit_lengths_diverge(self):
        tet = regular_from_angle(math.pi / 3 - 1e-6)
        assert all(l > 10 for l in tet.lengths)

    def test_length_l0_gives_pi_over_6(self):
        tet = regular_from_length(L0)
        assert np.allclose(tet.angles, math.pi / 6, atol=1e-10)

    @pytest.mark.parametrize("theta", [0.1, 0.5, 1.0])
    def test_round_trip(self, theta):
        ell = regular_from_angle(theta).lengths[0]
        assert regular_from_length(ell).angles[0] == pytest.approx(theta, abs=1e-10)

    @pytest.mark.parametrize("ell", [0.05, 0.3, L0, 1.0, 2.5, 8.0])
    def test_length_is_reproduced(self, ell):
        assert abs(regular_from_length(ell).lengths[0] - ell) < 1e-11

    def test_flat_limit_length_is_an_accuracy_error(self):
        with pytest.raises(AccuracyError):
            regular_from_length(40.0)

    @pytest.mark.parametrize("ell", [25.0, 30.0, 35.0, 1e-9, 1e-8])
    def test_inaccurate_length_is_an_accuracy_error(self, ell):
        # the closed form returns an edge length off by 1e-5 to 0.09 at
        # 25 to 35; below 1.5e-8 it gives the angle 0, no tetrahedron
        with pytest.raises(AccuracyError):
            regular_from_length(ell)

    def test_short_regular_angles_below_pi6(self):
        # theta(ell) is strictly increasing with theta(l0) = pi/6, so a
        # length below l0 must give six equal angles in (0, pi/6)
        tet = regular_from_length(0.3)
        assert np.ptp(tet.angles) < 1e-10
        assert 0.0 < tet.angles[0] < math.pi / 6

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            regular_from_angle(0.0)
        with pytest.raises(DomainError):
            regular_from_angle(math.pi / 3)
        with pytest.raises(DomainError):
            regular_from_length(-1.0)


class TestSamplers:
    def test_interior_postcondition(self):
        rng = np.random.default_rng(15)
        assert in_O(sample_O(rng, constraint="interior"), strict=True)

    def test_acute_postcondition(self):
        rng = np.random.default_rng(16)
        assert acute_constraints_hold(sample_O(rng, constraint="acute"))

    def test_volume_floor_postcondition(self):
        rng = np.random.default_rng(17)
        a = sample_O(rng, constraint="volume_floor", floor=3.226)
        assert ushijima_volume(a) >= 3.226
        assert acute_constraints_hold(a)

    def test_determinism(self):
        a = sample_O(np.random.default_rng(18))
        b = sample_O(np.random.default_rng(18))
        assert np.array_equal(a, b)

    def test_budget_exhaustion(self):
        rng = np.random.default_rng(19)
        with pytest.raises(SamplingError):
            sample_O_batch(rng, 10, constraint="volume_floor", floor=3.66, budget=8192)

    def test_default_budget_scales_with_n(self):
        # about 1.4% of interior proposals are accepted, so 2 * 10^4 rows
        # need more than a fixed 10^6 draws
        rows = sample_O_batch(np.random.default_rng(0), 20_000, constraint="interior")
        assert len(rows) == 20_000

    def test_unknown_constraint(self):
        with pytest.raises(InvalidArgumentError):
            sample_O(np.random.default_rng(20), constraint="nope")

    @pytest.mark.parametrize("floor", [math.nan, math.inf, -math.inf])
    def test_non_finite_floor_is_rejected_before_any_draw(self, floor):
        rng = np.random.default_rng(21)
        state = rng.bit_generator.state
        with pytest.raises(InvalidArgumentError, match="volume floor must be finite"):
            sample_O_batch(rng, 1, constraint="volume_floor", floor=floor)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("budget", [math.nan, math.inf, -1, 1.5])
    def test_budget_that_is_not_a_count_is_rejected_before_any_draw(self, budget):
        # a NaN or infinite budget once sampled forever
        rng = np.random.default_rng(22)
        state = rng.bit_generator.state
        with pytest.raises(InvalidArgumentError, match="budget must be a nonnegative integer"):
            sample_O_batch(rng, 1, constraint="volume_floor", floor=100.0, budget=budget)
        with pytest.raises(InvalidArgumentError, match="budget must be a nonnegative integer"):
            sample_T_ell(rng, 50.0, 1, budget=budget)
        assert rng.bit_generator.state == state
        with pytest.raises(InvalidArgumentError, match="budget must be a nonnegative integer"):
            sample_T_ell(0, 50.0, 1, budget=budget)


def composed_from_angles(angles):
    """``Tetrahedron.from_angles`` as a composition of public calls, each of
    which validates the row: the reference for its records and errors."""
    a = as_vector(angles, "angles")
    if not in_O(a, strict=True):
        raise DomainError(f"angles {a!r} not interior to the angle polytope")
    return Tetrahedron(tuple(a.tolist()), tuple(angles_to_lengths(a).tolist()), ushijima_volume(a))


def record_or_error(function, row):
    # repr gives every float of a record exactly
    try:
        return repr(function(row))
    except TruncTetError as exc:
        return type(exc), str(exc)


class TestTetrahedronRecord:
    def test_from_angles_is_the_composition_validating_once(self, monkeypatch):
        # the record, or the type and message of the error, of the public
        # composition on interior, exterior, boundary and malformed rows; the
        # row is validated by from_angles and again only by ushijima_volume,
        # which from_angles still calls on the module
        rng = np.random.default_rng(29)
        rows = [*rng.uniform(0.0, math.pi, (200, 6)), *sample_O_batch(rng, 100),
                *rng.uniform(0.0, 1e-3, (20, 6)), REGULAR, FLAT, (0.0,) * 6, (1e-300,) * 6,
                (1.0, 1.0, 1.0, 1.0, 1.0, math.pi - 2.0), (math.nan,) * 6, (0.5,) * 5 + (math.inf,),
                (0.5,) * 5, "angles"]
        outcomes = [record_or_error(Tetrahedron.from_angles, row) for row in rows]
        assert outcomes == [record_or_error(composed_from_angles, row) for row in rows]
        assert {type(o) for o in outcomes} == {str, tuple}
        calls = []
        original = domain_module.as_vector
        monkeypatch.setattr(domain_module, "as_vector", lambda *args: calls.append(args) or original(*args))
        Tetrahedron.from_angles(REGULAR)
        assert len(calls) == 2

    def test_coherent_fields(self):
        tet = Tetrahedron.from_angles(REGULAR)
        assert tet.volume == pytest.approx(3.226, abs=1e-3)
        assert tet.is_regular()
        assert tet.maximal_edge_count() == 6

    def test_from_lengths_matches_from_angles(self):
        tet = Tetrahedron.from_angles(REGULAR)
        again = Tetrahedron.from_lengths(tet.lengths)
        assert np.allclose(again.angles, tet.angles, atol=1e-9)

    def test_from_lengths_rejects_a_row_outside_the_length_chart(self):
        # its angles lie strictly inside the angle polytope, but they convert
        # back 3.3e-9 away from it, so the record would fail its own round trip
        row = (2.651957293466562, 2.614016170158948, 2.8056799092691507,
               0.006183145337208207, 0.1598965149906323, 2.461917259130263)
        assert not in_L(row)
        with pytest.raises(DomainError, match="outside the length chart"):
            Tetrahedron.from_lengths(row)

    def test_from_lengths_accepts_what_in_L_accepts(self):
        # uniform on [0, 3]^6, Exp(0.3), uniform on [0, 0.05]^6, and the
        # first family with one length set to 0, whose angles can round to
        # strictly inside the polytope; every accepted record round-trips
        rng = np.random.default_rng(23)
        families = [rng.uniform(0.0, 3.0, (2500, 6)), rng.exponential(0.3, (2500, 6)),
                    rng.uniform(0.0, 0.05, (2500, 6)), rng.uniform(0.0, 3.0, (2500, 6))]
        families[3][np.arange(2500), rng.integers(0, 6, 2500)] = 0.0
        rows = np.concatenate(families)
        accepted = 0
        for row, inside in zip(rows, in_L(rows)):
            try:
                tet = Tetrahedron.from_lengths(row)
            except TruncTetError:
                assert not inside, row
                continue
            assert inside, row
            accepted += 1
            back = Tetrahedron.from_json_dict(tet.to_json_dict())
            assert (back.angles, back.volume) == (tet.angles, tet.volume)
        assert 0 < accepted < len(rows)

    def test_json_round_trip(self):
        tet = Tetrahedron.from_angles((0.3, 0.4, 0.5, 0.35, 0.45, 0.55))
        record = tet.to_json_dict()
        assert set(record) == {"angles", "lengths", "volume"}
        back = Tetrahedron.from_json_dict(record)
        assert np.allclose(back.angles, tet.angles, atol=1e-15)
        assert back.volume == pytest.approx(tet.volume, abs=1e-15)

    def test_json_rejects_tampered_volume(self):
        record = Tetrahedron.from_angles((0.3, 0.4, 0.5, 0.35, 0.45, 0.55)).to_json_dict()
        record["volume"] += 1e-6
        with pytest.raises(InconsistencyError):
            Tetrahedron.from_json_dict(record)

    def test_json_rejects_nan_volume(self):
        # max(defect, nan) would keep the first argument
        record = Tetrahedron.from_angles((0.3, 0.4, 0.5, 0.35, 0.45, 0.55)).to_json_dict()
        record["volume"] = math.nan
        with pytest.raises(InconsistencyError):
            Tetrahedron.from_json_dict(record)

    @pytest.mark.parametrize("stored", ["3.37", None, [3.37]])
    def test_json_rejects_non_number_volume(self, stored):
        record = Tetrahedron.from_angles((0.3, 0.4, 0.5, 0.35, 0.45, 0.55)).to_json_dict()
        record["volume"] = stored
        with pytest.raises(InvalidArgumentError, match="volume: expected a number"):
            Tetrahedron.from_json_dict(record)

    def test_json_rejects_tampered_lengths(self):
        record = Tetrahedron.from_angles((0.3, 0.4, 0.5, 0.35, 0.45, 0.55)).to_json_dict()
        record["lengths"][2] *= 1.01
        with pytest.raises(InconsistencyError):
            Tetrahedron.from_json_dict(record)

    @pytest.mark.parametrize("record, message", [
        ([1, 2], r"^record: expected a mapping, got \[1, 2\]$"),
        ("angles", "^record: expected a mapping, got 'angles'$"),
        ({"angles": REGULAR}, "^record: missing lengths, volume$"),
        ({"lengths": REGULAR, "volume": 1.0}, "^record: missing angles$"),
        ({"angles": REGULAR, "lengths": REGULAR}, "^record: missing volume$"),
    ])
    def test_json_rejects_what_is_not_a_record(self, record, message):
        with pytest.raises(InvalidArgumentError, match=message):
            Tetrahedron.from_json_dict(record)

    def test_permuted_matches_rebuilt_record(self, acute_points):
        for a in acute_points[:40]:
            tet = Tetrahedron.from_angles(a)
            for sigma in ALL_PERMUTATIONS:
                moved = tet.permuted(sigma)
                rebuilt = Tetrahedron.from_angles(permute(sigma, a))
                assert np.array_equal(moved.angles, rebuilt.angles)
                assert np.max(np.abs(np.subtract(moved.lengths, rebuilt.lengths))) <= 1e-12
                assert abs(moved.volume - rebuilt.volume) <= 1e-12

    def test_rejects_exterior_angles(self):
        with pytest.raises(DomainError):
            Tetrahedron.from_angles((1.5, 1.5, 1.5, 1.5, 1.5, 1.5))
