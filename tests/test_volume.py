"""Volume evaluation: Ushijima's formula in its Clausen form, checked
against the complex-dilogarithm evaluation it replaced; the closed form for
the canonical regular tetrahedron, Gram matrices, and truncation area."""

import cmath
import math
import os

import numpy as np
import pytest

from trunctet import (
    ALL_PERMUTATIONS,
    angles_to_lengths,
    gram,
    gram_det,
    lobachevsky,
    permute,
    regular_from_angle,
    regular_volume_l0,
    sample_O_batch,
    sample_T_ell,
    truncation_area,
    ushijima_intermediates,
    ushijima_volume,
)
import trunctet.volume as volume_module
from trunctet.errors import EvaluationError
from trunctet.indexing import VERTEX_EDGES
from trunctet.specfun import dilog
from trunctet.volume import L0, _gram_det_fast

REGULAR = (math.pi / 6,) * 6
ASYMMETRIC = (math.pi / 2, 0.0, 0.0, 0.0, 0.0, 0.0)
TWO_ANGLE = (7 * math.pi / 24, 7 * math.pi / 24, 0.0, 0.0, 0.0, 0.0)
FLAT = (0.0, 0.0, math.pi, 0.0, 0.0, math.pi)

BENCH = os.path.join(os.path.dirname(__file__), os.pardir, "bench")


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

    @pytest.mark.parametrize("seed", range(5))
    def test_ushijima_layout_on_asymmetric_rows(self, seed):
        # vertex 1 carries t12, t13, t14 in row 0, and (0, 3) holds t23, the
        # edge opposite to t14: a layout that swaps t14 and t23 turns the
        # determinant's vertex triples into face triples
        rows = [(0.0, 0.0, 0.0, math.pi / 2, math.pi / 2, math.pi / 2)]
        rows += list(sample_O_batch(np.random.default_rng(seed), 20))
        for angles in rows:
            c12, c13, c14, c34, c24, c23 = np.cos(angles)
            expected = np.array([
                [1.0, -c12, -c13, -c23],
                [-c12, 1.0, -c14, -c24],
                [-c13, -c14, 1.0, -c34],
                [-c23, -c24, -c34, 1.0],
            ])
            g = gram(angles)
            assert g.tobytes() == expected.tobytes()
            assert gram_det(angles) == pytest.approx(np.linalg.det(g), abs=1e-12)
        assert gram_det(rows[0]) == pytest.approx(-4.0, abs=1e-12)


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

    @pytest.mark.parametrize("angles", [
        [0.5] * 5, (math.nan,) * 6, ("a",) * 6, (2.0,) * 6, (1e308,) * 6, np.array([0.5 + 1j] * 6),
    ], ids=["five_entries", "nan", "non_numeric", "outside", "huge", "complex"])
    def test_rejects_what_the_volume_rejects(self, angles):
        # malformed, non-finite and out-of-closure input, quietly: the suite
        # turns a RuntimeWarning into an error
        with pytest.raises(EvaluationError) as volume_raised:
            ushijima_volume(angles)
        with pytest.raises(EvaluationError) as raised:
            ushijima_intermediates(angles)
        assert str(raised.value) == str(volume_raised.value)
        assert raised.value.diagnostics == volume_raised.value.diagnostics


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


class TestApplicationLengths:
    """The lengths at which the paper's application uses the theorem: l_g,
    the edge length of the regular tetrahedron with all angles pi/(3g)."""

    @staticmethod
    def regular(g):
        return regular_from_angle(math.pi / (3 * g))

    def test_l2_is_l0_and_the_others_lie_below(self):
        lengths = [self.regular(g).lengths[0] for g in range(2, 9)]
        assert abs(lengths[0] - L0) <= 1e-12
        assert all(ell < L0 for ell in lengths[1:])
        assert all(np.diff(lengths) < 0)

    def test_twice_the_regular_volume_at_l0_is_the_oracle_value(self, monkeypatch):
        pytest.importorskip("mpmath")
        monkeypatch.syspath_prepend(os.path.abspath(BENCH))
        import oracle

        exact = float(2 * oracle.regular_volume(L0))
        assert abs(2 * self.regular(2).volume - exact) <= 1e-13


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

    def test_row_volume_is_independent_of_its_place(self):
        # elementwise operations only: a row's volume is the same bits alone
        # and at offsets 0..7 of blocks of any size (a matrix product would
        # round the tail columns of a block differently)
        rows = self.rows()
        subjects = np.concatenate([rows[:8], rows[1000:1008], rows[-8:]])
        pool = np.concatenate([rows[100:107], subjects, rows[200:711]])
        alone = [ushijima_volume(row[None, :])[0] for row in subjects]
        for size in (*range(1, 10), 129, 511):
            for start in range(len(subjects) + 7):
                got = ushijima_volume(pool[start:start + size])
                for offset in range(min(size, 8)):
                    i = start + offset - 7
                    if 0 <= i < len(subjects):
                        assert got[offset] == alone[i], (size, offset, i)

    def test_nested_sequences_are_rows(self):
        rows = self.rows()[::40]
        assert np.array_equal(ushijima_volume(rows.tolist()), ushijima_volume(rows))

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

    def test_huge_finite_row_fails_the_closure_test_quietly(self):
        # its vertex sums overflow to inf, which fails the closure test; the
        # suite turns a numpy overflow warning into an error
        with pytest.raises(EvaluationError, match=r"^row 0, .*: outside the closure") as raised:
            ushijima_volume(np.array([(1e308,) * 6]))
        assert raised.value.diagnostics == {"row": 0}


def volume_error(angles):
    """The EvaluationError that ``ushijima_volume(angles)`` raises, or None."""
    try:
        with np.errstate(invalid="ignore"):  # inf - inf under an infinite clausen
            ushijima_volume(angles)
    except EvaluationError as exc:
        return exc
    return None


CLOSURE = "outside the closure of the angle polytope"


class TestVolumeGuards:
    """The guards of the volume: the closure of the polytope on real rows
    outside it, the others forced through module attributes. A 6-vector
    raises the error of its one-row batch without the row prefix and
    without the ``row`` diagnostic, and a batch raises at its first failing
    row, named by its global index."""

    FORCED = {
        CLOSURE: None,
        "degenerate configuration: vanishing denominator in the volume formula":
            ("_DENOMINATOR_GUARD", 10.0),
        "non-finite volume": ("clausen", lambda x: 0.0 * x + math.inf),
        "volume is negative beyond round-off": ("_NEGATIVE_VOLUME_CLAMP", 10.0),
    }

    #: rows outside the closure, last in ``rows``: far out, an entry of
    #: -1e-5, a vertex sum of pi + 1e-5
    OUTSIDE = [(2.0,) * 6, (-1e-5, 0.5, 0.5, 0.5, 0.5, 0.5),
               (1.0, 1.0, math.pi - 2.0 + 1e-5, 0.5, 0.5, 0.5)]

    @staticmethod
    def rows():
        rows = TestVolumeRows.rows()
        return np.concatenate([rows[:2000:25], rows[-8:], TestVolumeGuards.OUTSIDE])

    @pytest.mark.parametrize("message", list(FORCED))
    def test_vector_error_is_the_row_error(self, message, monkeypatch):
        rows = self.rows()
        inside = len(rows) - len(self.OUTSIDE)
        # the flat rows, whose volume is 0, pass the first three guards only
        flat = [i for i, row in enumerate(rows[:inside]) if ushijima_volume(tuple(row)) == 0.0]
        if self.FORCED[message]:
            monkeypatch.setattr(volume_module, *self.FORCED[message])
        failed = []
        for i, row in enumerate(rows):
            vector, single = volume_error(tuple(row)), volume_error(row[None, :])
            assert (vector is None) == (single is None), i
            if vector is None:
                continue
            failed.append(i)
            assert str(vector) == (message if i < inside else CLOSURE)
            assert str(single) == f"row 0, angles {row!r}: {vector}"
            expected = {"row": 0, **vector.diagnostics}
            if "volume" in expected:
                # the paths' volumes may differ in the last bit (scalar clausen)
                assert abs(single.diagnostics["volume"] - expected["volume"]) < 1e-13
                expected["volume"] = single.diagnostics["volume"]
            assert single.diagnostics == expected
        passed = {CLOSURE: inside, "volume is negative beyond round-off": 0}.get(message, len(flat))
        assert flat and len(failed) == len(rows) - passed
        # the closure guard runs first: the forced guards' batch ends at the
        # rows inside
        batch = volume_error(rows if message == CLOSURE else rows[:inside])
        single = volume_error(rows[failed[0]][None, :])
        assert str(batch) == str(single).replace("row 0", f"row {failed[0]}", 1)
        assert batch.diagnostics == {**single.diagnostics, "row": failed[0]}

    @pytest.mark.parametrize("attr, value", [("_DENOMINATOR_GUARD", 6.0),
                                             ("_NEGATIVE_VOLUME_CLAMP", 3.1)])
    def test_batch_names_the_global_row(self, attr, value, monkeypatch):
        # the regular rows pass (|denominator| 6.62, volume 3.23), the
        # ASYMMETRIC ones fail (5.66, 3.01); 5000 rows are two blocks
        monkeypatch.setattr(volume_module, attr, value)
        rows = np.tile(REGULAR, (5000, 1))
        rows[[4500, 4700]] = ASYMMETRIC
        error = volume_error(rows)
        assert str(error).startswith("row 4500, ") and error.diagnostics["row"] == 4500
        assert volume_error(ASYMMETRIC) is not None and volume_error(REGULAR) is None


def reference_terms(rows):
    """Ushijima's formula as complex arithmetic on (m, 6) rows, the way the
    package evaluated it before the Clausen form: the unit-modulus
    exponentials a..f of the angles, det G, the sine sum S, the denominator
    and z_1, z_2 = -2 (S -+ sqrt(det G)) / denominator (rows with a
    vanishing denominator excepted)."""
    cos, sin = np.cos(rows), np.sin(rows)
    a, b, c, d, e, f = (cos + 1j * sin).T
    det_g = _gram_det_fast(*cos.T)
    sin_sum = sin[:, 0] * sin[:, 3] + sin[:, 1] * sin[:, 4] + sin[:, 2] * sin[:, 5]
    sqrt_det = np.sqrt(det_g + 0j)
    denom = a * d + b * e + c * f + a * b * f + a * c * e + b * c * d + d * e * f + a * b * c * d * e * f
    z = -2.0 * np.stack([sin_sum - sqrt_det, sin_sum + sqrt_det], axis=1) / denom[:, None]
    return (a, b, c, d, e, f), det_g, sin_sum, denom, z


def reference_volume(rows):
    """The replaced evaluator: Im(U(z_1) - U(z_2)) / 2 with U the sum of
    eight complex dilogarithms, all 16 arguments in one ``dilog`` call."""
    (a, b, c, d, e, f), _, _, _, z = reference_terms(rows)
    factors = np.stack(
        [np.ones_like(a), a * b * d * e, a * c * d * f, b * c * e * f,
         -a * b * c, -a * e * f, -b * d * f, -c * d * e],
        axis=1,
    )
    li = dilog(z[:, :, None] * factors[:, None, :]).imag
    u = 0.5 * (li[..., 0] + li[..., 1] + li[..., 2] + li[..., 3]
               - li[..., 4] - li[..., 5] - li[..., 6] - li[..., 7])
    return np.maximum(0.5 * (u[:, 0] - u[:, 1]), 0.0)


def vertex_sums(rows):
    return np.stack([rows[:, list(edges)].sum(axis=1) for edges in VERTEX_EDGES], axis=1)


def toward_ideal_vertex(rows, deltas):
    """Each row scaled so that its largest vertex sum is pi (1 - delta), for
    each delta in turn: a vertex of the truncated tetrahedron becomes ideal."""
    top = vertex_sums(rows).max(axis=1)
    return np.concatenate([rows * (math.pi * (1.0 - d) / top)[:, None] for d in deltas])


class TestClausenFormMatchesDilogForm:
    """The Clausen form against the complex-dilogarithm evaluator it
    replaced, to 1e-14 absolute. Where they differ by more, the 30-digit
    oracle of ``bench/oracle.py`` must find the Clausen value the closer of
    the two and within 1e-14: near an ideal vertex the complex products lose
    more digits than the real phase sums."""

    @staticmethod
    def assert_matches(rows, monkeypatch, scalar_rows=300):
        got = ushijima_volume(rows)
        expected = reference_volume(rows)
        off = np.flatnonzero(np.abs(got - expected) > 1e-14)
        if len(off):
            pytest.importorskip("mpmath")
            monkeypatch.syspath_prepend(os.path.abspath(BENCH))
            import oracle

            for i in off:
                exact = float(oracle.volume(tuple(rows[i])))
                assert abs(got[i] - exact) <= 1e-14
                assert abs(got[i] - exact) < abs(expected[i] - exact)
        # the scalar path is a second implementation
        for a, vol in zip(rows[:scalar_rows], expected[:scalar_rows]):
            assert abs(ushijima_volume(tuple(a)) - vol) <= 1e-14

    @pytest.mark.parametrize("ell", [0.1, 0.3, L0])
    def test_T_ell(self, ell, monkeypatch):
        rng = np.random.default_rng(44)
        rows = np.array([tet.angles for tet in sample_T_ell(rng, ell, 2000)])
        self.assert_matches(rows, monkeypatch)

    def test_volume_floor(self, monkeypatch):
        rng = np.random.default_rng(45)
        tets = sample_T_ell(rng, 0.3, 2000, require_volume_floor=regular_volume_l0())
        self.assert_matches(np.array([tet.angles for tet in tets]), monkeypatch)

    def test_uniform(self, monkeypatch):
        rows = np.array(sample_O_batch(np.random.default_rng(46), 2000))
        self.assert_matches(rows, monkeypatch)

    def test_toward_an_ideal_vertex(self, monkeypatch):
        rows = np.array(sample_O_batch(np.random.default_rng(47), 400))
        rows = toward_ideal_vertex(rows, (1e-3, 1e-6, 1e-9, 1e-12, 0.0))
        self.assert_matches(rows, monkeypatch, scalar_rows=len(rows))

    def test_intermediates_are_the_complex_ones(self):
        rows = np.array(sample_O_batch(np.random.default_rng(48), 200))
        _, det_g, _, _, z = reference_terms(rows)
        for a, d, (z1, z2) in zip(rows, det_g, z):
            inter = ushijima_intermediates(a)
            assert inter.det_gram == d
            assert abs(inter.z1 - z1) < 1e-13 and abs(inter.z2 - z2) < 1e-13


class TestUnitModulus:
    """The identity behind the Clausen form: |denominator|^2 = 4 (S^2 - det G)
    for all real angles, with det G < 0 on the closure of the polytope, so
    that |z_1| = |z_2| = 1."""

    @staticmethod
    def closure_rows():
        rng = np.random.default_rng(49)
        interior = np.array(sample_O_batch(rng, 4000))
        faces = interior[:1000].copy()
        faces[np.arange(1000), rng.integers(0, 6, 1000)] = 0.0
        ideal = toward_ideal_vertex(interior[1000:2000], (0.0,))
        return np.concatenate([interior, faces, ideal])

    def test_identity(self):
        rows = self.closure_rows()
        rows = np.concatenate([rows, np.random.default_rng(50).uniform(-10.0, 10.0, (4000, 6))])
        _, det_g, sin_sum, denom, _ = reference_terms(rows)
        residual = np.abs(denom) ** 2 - 4.0 * (sin_sum**2 - det_g)
        assert np.abs(residual).max() < 1e-13

    def test_negative_gram_determinant_on_the_closure(self):
        _, det_g, _, _, z = reference_terms(self.closure_rows())
        assert det_g.max() < 0.0
        assert np.abs(np.abs(z) - 1.0).max() < 1e-13


class TestNearFlatAccuracy:
    """Volumes along the flattening family of ``degeneration_path``,
    (e, e, pi - 2.5e, e, e, pi - 2.5e), against the 30-digit mpmath oracle
    of ``bench/oracle.py``. The Gram determinant and Ushijima's denominator
    lose their digits to cancellation there, so both paths give a volume
    0.76% low at e = 1e-4, and 0 at 1e-5 and 1e-6, where the oracle gives
    3.06e-5 and 3.06e-6 (ROADMAP item A)."""

    @pytest.mark.xfail(
        strict=True, reason="cancellation near the flat limit (ROADMAP item A)"
    )
    @pytest.mark.parametrize("e", [1e-4, 1e-5, 1e-6])
    def test_matches_oracle(self, e, monkeypatch):
        pytest.importorskip("mpmath")
        monkeypatch.syspath_prepend(os.path.abspath(BENCH))
        import oracle

        angles = (e, e, math.pi - 2.5 * e, e, e, math.pi - 2.5 * e)
        exact = float(oracle.volume(angles))
        for vol in (ushijima_volume(angles), ushijima_volume(np.array([angles]))[0]):
            assert abs(vol - exact) <= 1e-9 * exact


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
