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
from trunctet import convert, domain
from trunctet.errors import InconsistencyError, InvalidArgumentError, TruncTetError
from trunctet.indexing import EDGE_PAIRS, VERTEX_EDGES, edge_position
from trunctet.schlafli import volume_of_lengths

from test_convert import (
    FACE_TRIPLES,
    OPPOSITE_ENDS,
    ROLES,
    ZERO_VERTEX_ROWS,
    chart_test_rows,
    octagon_boundary_tuple,
    reference_cos_args,
    reference_w,
)

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
        kernel = convert._cosh_lengths_grad

        def perturbed(a):
            *outputs, jac = kernel(a)
            return *outputs, 1.001 * jac

        monkeypatch.setattr(convert, "_cosh_lengths_grad", perturbed)
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

    def test_evaluates_the_length_kernel_once(self, acute_points, monkeypatch):
        # one pass of the length -> angle kernel gives the guards, the angles
        # and their derivative along the ray: no conversion call, no Jacobian,
        # and no second evaluation of the kernel, which also rules out finite
        # differences
        tet = Tetrahedron.from_angles(acute_points[0])
        calls = []
        names = ("lengths_to_angles", "angles_to_lengths", "_cos_angles", "_cos_angles_grad",
                 "_cos_angles_along", "_ratio_grad", "_edge_poly")
        for name in names:
            original = getattr(convert, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(convert, name, counted)
        dvol_dlengths(tet)
        assert sorted(calls) == ["_cos_angles_along", "_edge_poly"]

    def test_lengths_of_angles_evaluates_the_angle_kernel_once(self, acute_points, monkeypatch):
        # the guards and the Jacobian d l / d theta come from one _ratio_grad
        # pass (which evaluates _ratio once): no conversion call for the
        # typed errors, and no second pass through the batch Jacobian
        calls = []
        for name in ("angles_to_lengths", "lengths_jacobian", "_ratio", "_ratio_grad"):
            original = getattr(convert, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(convert, name, counted)
        jacobian_lengths_of_angles(acute_points[0])
        assert sorted(calls) == ["_ratio", "_ratio_grad"]


# --- the Jacobian as computed before the one-pass kernel ------------------


def reference_vertex_poly_grad(x, triples):
    """d z_k / d x (or d d_i / d x) as a (..., 4, 6) array, scattered."""
    x, y, z = (x[..., members] for members in triples)
    grad = np.zeros(x.shape[:-1] + (4, 6))
    vertices = np.arange(4)
    for members, partial in zip(triples, (x + y * z, y + x * z, z + x * y)):
        grad[..., vertices, members] = 2.0 * partial
    return grad


def reference_edge_poly_grad(partials):
    """The partials of c_ij or w_ij in the roles ij, ik, il, jk, jl, kl as a
    (..., 6, 6) array, scattered role by role."""
    grad = np.empty(partials[0].shape[:-1] + (6, 6))
    edges = np.arange(6)
    for roles, partial in zip(ROLES, partials):
        grad[..., edges, roles] = partial
    return grad


def reference_w_poly_grad(ch):
    """d w_ij / d x as a (..., 6, 6) array."""
    hij, hik, hil, hjk, hjl, hkl = (ch[..., roles] for roles in ROLES)
    return reference_edge_poly_grad(
        (
            hil * hjk + hik * hjl - 2.0 * hij * hkl,
            hij * hjl + hil,
            hij * hjk + hik,
            hij * hil + hjl,
            hij * hik + hjk,
            1.0 - hij * hij,
        )
    )


def reference_cos_args_grad(ch):
    """The cosine arguments w_ij / sqrt(z_k z_l) and their derivative in
    the hyperbolic cosines, (..., 6, 6), from the scattered partials."""
    z, products, cos_angles = reference_cos_args(ch)
    log_grad = reference_vertex_poly_grad(ch, FACE_TRIPLES) / z[..., None]
    log_sum = log_grad[..., OPPOSITE_ENDS[0], :] + log_grad[..., OPPOSITE_ENDS[1], :]
    grad = reference_w_poly_grad(ch) / np.sqrt(products)[..., None] - 0.5 * cos_angles[..., None] * log_sum
    return cos_angles, grad


def two_pass_jacobian(lengths):
    """d theta / d l as computed before the one-pass kernel: a validating
    ``lengths_to_angles`` call, then a second evaluation of the kernel and
    its derivatives, NearDegenerateError where the result is not finite."""
    l = np.asarray(lengths, dtype=float)
    convert.lengths_to_angles(l)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        cos_angles, grad = reference_cos_args_grad(np.cosh(l))
        sin_angles = np.sqrt((1.0 - cos_angles) * (1.0 + cos_angles))
        jac = grad * np.sinh(l)[..., None, :] / -sin_angles[..., None]
    if not np.isfinite(jac).all():
        raise NearDegenerateError("angle/length Jacobian is not finite")
    return jac


def edge_major(reference, x):
    """A reference computed on (m, 6) rows x, in the kernels' layout: its
    leading row axis moved last; a reference on a 6-vector x as it is."""
    return np.moveaxis(reference, 0, -1) if x.ndim == 2 else reference


def criterion_8_records(n):
    """The first n certificates' tetrahedra of acceptance criterion 8,
    longest edge first."""
    rng = np.random.default_rng(108)
    floor = regular_volume_l0()
    tets = []
    for a in sample_O_batch(rng, n, constraint="volume_floor", floor=floor):
        tet = Tetrahedron.from_angles(a)
        pos = int(np.argmax(tet.lengths))
        tets.append(tet.permuted(permutation_moving_edge_to_front(pos)))
    return tets


#: rows where a 6-vector's Python floats would raise or differ from numpy:
#: for the lengths a kernel overflow, negative zeros, sin theta = 0 (the
#: octagon) and zero lengths (0 / 0); for the angles zero vertex coefficients
#: (a zero divisor), a negative product d_1 d_j under a root, cosh arguments
#: exactly 1 and the octagon flat limit (0 / 0)
EDGE_ROWS = {
    convert.angles_jacobian:
        [(120.0,) * 6, (-0.0,) * 6, (-0.0, 0.7, 0.8, 0.7, 0.7, 0.8), octagon_boundary_tuple(0.8),
         (0.0,) * 6],
    convert.lengths_jacobian: [*ZERO_VERTEX_ROWS, (1.5, 1.5, 1.5, 0.2, 0.2, 0.2), (0.0,) * 6,
                               (0.0, 0.0, math.pi, 0.0, 0.0, math.pi)],
}


class TestOnePassJacobian:
    @pytest.fixture(scope="class")
    def rows(self):
        return [tuple(row) for row in chart_test_rows()] + [
            (L0, L0, L0, L0, L0, math.nan),
            (math.inf,) + (0.5,) * 5,
            (-math.inf,) + (0.5,) * 5,
            (1.0, 2.0, 3.0),
            (120.0,) * 6,
            (-0.5, 0.5, 0.5, 0.5, 0.5, 0.5),
        ]

    @pytest.fixture(scope="class")
    def records(self):
        return criterion_8_records(2000)

    def test_bitwise_the_two_pass_jacobian(self, records):
        # on criterion 8's rows the one-pass Jacobian and its batch form are
        # bitwise those of the two-pass computation; the gradient, taken
        # along the ray, is -1/2 l^T J within 1e-11 of its largest component
        lengths = np.array([tet.lengths for tet in records])
        batch = convert.angles_jacobian(lengths)
        for tet, row in zip(records, batch):
            expected = two_pass_jacobian(tet.lengths)
            assert np.array_equal(jacobian_angles_of_lengths(tet.lengths, check=False), expected)
            assert np.array_equal(row, expected)
            grad = -0.5 * (np.asarray(tet.lengths) @ expected)
            assert np.max(np.abs(dvol_dlengths(tet).as_array() - grad)) <= 1e-11 * np.max(np.abs(grad))

    def test_the_jacobian_is_symmetric(self, records):
        # d theta / d l is -2 times the inverse of the Hessian of the volume
        # in the angles, so symmetric: what dvol_dlengths rests on
        for tet in records:
            jac = jacobian_angles_of_lengths(tet.lengths, check=False)
            assert np.max(np.abs(jac - jac.T)) <= 1e-11 * np.max(np.abs(jac))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("check", [True, False])
    def test_rejects_as_the_conversion_does(self, rows, check):
        # same error type and message as lengths_to_angles on every row it
        # rejects (the octagon flat limit and rows closing in on it, negative,
        # overflowing, non-finite and malformed rows among them); on the rows
        # it accepts, the two-pass outcome (a bitwise equal Jacobian, or
        # NearDegenerateError)
        rejected = []
        for row in rows:
            try:
                convert.lengths_to_angles(row)
            except TruncTetError as exc:
                rejected.append(type(exc).__name__)
                with pytest.raises(type(exc)) as raised:
                    jacobian_angles_of_lengths(row, check=check)
                assert str(raised.value) == str(exc)
                continue
            try:
                expected = two_pass_jacobian(row)
            except NearDegenerateError:
                with pytest.raises(NearDegenerateError):
                    jacobian_angles_of_lengths(row, check=False)
                continue
            assert np.array_equal(jacobian_angles_of_lengths(row, check=False), expected)
        assert len(rejected) >= 100
        assert set(rejected) == {"NotInClosureError", "AccuracyError", "InvalidArgumentError"}

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_gradient_raises_as_the_jacobian_route_does(self):
        # dvol_dlengths raises exactly where -1/2 l^T J from
        # jacobian_angles_of_lengths(check=False) raises, with the same type
        # and message: on the chart's test rows, the kernel's edge rows (sin
        # theta = 0 at the octagon, negative zeros, zero lengths, a kernel
        # overflow) and lengths where cosh overflows; elsewhere it is finite
        rows = [tuple(row) for row in chart_test_rows()] + EDGE_ROWS[convert.angles_jacobian]
        raised = []
        for row in rows + [(800.0,) * 6]:
            tet = Tetrahedron((), row, 0.0)
            try:
                -0.5 * (np.asarray(row) @ jacobian_angles_of_lengths(row, check=False))
            except TruncTetError as exc:
                raised.append(type(exc).__name__)
                with pytest.raises(type(exc)) as got:
                    dvol_dlengths(tet)
                assert str(got.value) == str(exc)
                continue
            assert all(map(math.isfinite, dvol_dlengths(tet).values))
        assert len(raised) >= 100
        assert set(raised) == {"NotInClosureError", "AccuracyError", "NearDegenerateError"}

    def test_closure_failure_as_the_conversion_does(self, monkeypatch):
        # no row of the length chart's guards has been seen to fail the
        # closure test; a polytope test that rejects every row shows that
        # the Jacobian and the gradient raise the conversion's error there
        tet = regular_from_length(0.8)
        monkeypatch.setattr(convert.domain, "_in_polytope", lambda *args, **kwargs: False)
        with pytest.raises(InconsistencyError) as expected:
            convert.lengths_to_angles(tet.lengths)
        for call in (lambda: jacobian_angles_of_lengths(tet.lengths), lambda: dvol_dlengths(tet)):
            with pytest.raises(InconsistencyError) as raised:
                call()
            assert str(raised.value) == str(expected.value)

    def test_kernel_on_the_length_tables_is_the_written_out_polynomial(self):
        # the shared kernel, fed the length tables, is bitwise w_ij, z_k and
        # the cosine arguments as written out above, and its gathered
        # partials are the scattered ones, on (6, m) columns and on 6-vectors
        rng = np.random.default_rng(8)
        ch = np.cosh(rng.uniform(0.0, 3.0, size=(200, 6)))
        for x in (ch, ch[0]):
            expected_w = edge_major(reference_w(x), x)
            assert np.array_equal(convert._edge_poly(x.T, convert._LENGTHS.roles), expected_w)
            z, products, cos_angles, grad = convert._ratio_grad(x.T, convert._LENGTHS)
            for got, expected in zip((z, products, cos_angles), reference_cos_args(x)):
                assert np.array_equal(got, edge_major(expected, x))
            assert np.array_equal(grad, edge_major(reference_cos_args_grad(x)[1], x))

    def test_kernel_on_the_angle_tables_is_the_written_out_polynomial(self):
        # c_ij and its partials on the angle tables, for cosines anywhere in
        # [-1, 1]: w_ij is c_ij with the roles ik and jl exchanged; on (6, m)
        # columns and on 6-vectors
        rng = np.random.default_rng(9)
        cosines = rng.uniform(-1.0, 1.0, size=(200, 6))
        triples = np.array(VERTEX_EDGES).T
        ends = np.array(EDGE_PAIRS).T - 1
        for x in (cosines, cosines[0]):
            cij, cik, cil, cjk, cjl, ckl = (x[..., roles] for roles in ROLES)
            c = cij * (cil * cjk + cik * cjl) + cil * cjl + cik * cjk + ckl * (1.0 - cij * cij)
            partials = (
                cil * cjk + cik * cjl - 2.0 * cij * ckl,
                cij * cjl + cjk,
                cij * cjk + cjl,
                cij * cil + cik,
                cij * cik + cil,
                1.0 - cij * cij,
            )
            a, b, e = (x[..., members] for members in triples)
            d = 2.0 * a * b * e + a * a + b * b + e * e - 1.0
            with np.errstate(invalid="ignore", divide="ignore"):
                root = np.sqrt(d[..., ends[0]] * d[..., ends[1]])
                ratio = c / root
                log_grad = reference_vertex_poly_grad(x, triples) / d[..., None]
                log_sum = log_grad[..., ends[0], :] + log_grad[..., ends[1], :]
                expected = reference_edge_poly_grad(partials) / root[..., None] - 0.5 * ratio[..., None] * log_sum
                got = convert._ratio_grad(x.T, convert._ANGLES)
            assert np.array_equal(convert._edge_poly(x.T, convert._ANGLES.roles), edge_major(c, x))
            assert np.array_equal(got[0], edge_major(d, x))
            assert np.array_equal(got[2], edge_major(ratio, x), equal_nan=True)
            assert np.array_equal(got[3], edge_major(expected, x), equal_nan=True)

    @pytest.mark.parametrize("jacobian, high", [(convert.angles_jacobian, 3.0),
                                                (convert.lengths_jacobian, math.pi)])
    def test_batch_jacobians_are_the_same_bits_in_every_shape(self, jacobian, high):
        # (m, 6) rows, the same rows as (2, m/2, 6) and row by row as
        # 6-vectors: one (..., 6, 6) result, NaN and inf in the same places,
        # and no RuntimeWarning (the suite's filter fails one)
        rows = np.random.default_rng(10).uniform(0.0, high, size=(399, 6))
        rows = np.concatenate([rows, EDGE_ROWS[jacobian]])
        flat = jacobian(rows)
        stacked = jacobian(rows.reshape(2, 202, 6))
        single = np.array([jacobian(row) for row in rows])
        assert flat.shape == (404, 6, 6) and stacked.shape == (2, 202, 6, 6)
        assert np.isfinite(flat).any() and not np.isfinite(flat).all()
        assert np.array_equal(stacked, flat.reshape(2, 202, 6, 6), equal_nan=True)
        assert np.array_equal(single, flat, equal_nan=True)

    @pytest.mark.parametrize("jacobian", [convert.angles_jacobian, convert.lengths_jacobian])
    @pytest.mark.parametrize(
        "values, message",
        [
            (np.array([[0.5 + 1j] * 6]), "arrays of numbers"),
            (np.array([[[0.5 + 0j] * 6]] * 2), "arrays of numbers"),
            (np.array([["a"] * 6]), "arrays of numbers"),
            (np.array([[0.5] * 5]), r"arrays, got shape \(1, 5\)"),
            (np.float64(0.5), r"arrays, got shape \(\)"),
        ],
        ids=["complex", "complex_real_valued_stacked", "non-numeric", "five_columns", "scalar"],
    )
    def test_batch_jacobians_reject_what_is_not_real_rows(self, jacobian, values, message):
        # complex entries raise instead of losing their imaginary parts
        with pytest.raises(InvalidArgumentError, match=rf": expected \(\.\.\., 6\) {message}"):
            jacobian(values)

    def test_flat_limit_two_pass_agrees(self):
        # the two-pass reference also finds the flat limit near-degenerate
        with pytest.raises(NearDegenerateError):
            two_pass_jacobian(octagon_boundary_tuple(0.8))


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


def reference_key_bracket(tet):
    """``key_bracket`` as written before its terms were shared."""
    t12, t13, t14, t34, t24, t23 = tet.angles
    l12, l13, l14, l34, l24, l23 = tet.lengths
    return (
        l12
        * (
            math.cos(t12) * (math.cos(t13) * math.cos(t23) + math.cos(t14) * math.cos(t24))
            + math.cos(t13) * math.cos(t24)
            + math.cos(t14) * math.cos(t23)
        )
        - l13 * math.sin(t12) * math.sin(t13) * math.cos(t23)
        - l14 * math.sin(t12) * math.sin(t14) * math.cos(t24)
        + l34 * math.sin(t12) * math.sin(t34)
        - l24 * math.sin(t12) * math.sin(t24) * math.cos(t14)
        - l23 * math.sin(t12) * math.sin(t23) * math.cos(t13)
    )


def reference_tecnicofinale_gap(angles):
    """``tecnicofinale_gap`` as written before its terms were shared."""
    t12, t13, t14, _, t24, t23 = angles
    lhs = (
        math.cos(t12) * (math.cos(t13) * math.cos(t23) + math.cos(t14) * math.cos(t24))
        + math.cos(t13) * math.cos(t24)
        + math.cos(t14) * math.cos(t23)
    )
    rhs = math.sin(t12) * (math.sin(t13 + t23) + math.sin(t14 + t24))
    return lhs - rhs


def reference_lemma_gaps(angles):
    """``lemma_gaps`` as written before its terms were shared."""
    t12, t13, t14, _, t24, t23 = angles
    cross = math.cos(t13) * math.cos(t24) + math.cos(t14) * math.cos(t23)
    g1 = cross - 2.0 * math.sin(0.5 * t12)
    g2 = cross - (1.0 - math.sin(math.pi / 12.0))
    g3 = (
        math.cos(t12) * (math.cos(t13) * math.cos(t23) + math.cos(t14) * math.cos(t24))
        - math.sin(t12) * (math.sin(t13 + t23) + math.sin(t14 + t24))
        + 2.0 * math.sin(0.5 * t12)
    )
    return g1, g2, g3


class TestSharedTermsMatchReference:
    def test_bitwise_on_criterion_8_rows(self):
        # the 10^4 rows of criterion 8, longest edge first, from the batch
        # conversion (bitwise the scalar one that criterion 8 uses)
        floor = regular_volume_l0()
        rows = np.array(sample_O_batch(np.random.default_rng(108), 10_000,
                                       constraint="volume_floor", floor=floor))
        lengths = angles_to_lengths_batch(rows)
        got, expected = [], []
        for a, l in zip(rows, lengths):
            front = domain._EDGE_IMAGES[permutation_moving_edge_to_front(int(np.argmax(l)))]
            tet = Tetrahedron(tuple(a[front].tolist()), tuple(l[front].tolist()), 0.0)
            got.append((key_bracket(tet), tecnicofinale_gap(tet.angles), *lemma_gaps(tet.angles)))
            expected.append((reference_key_bracket(tet), reference_tecnicofinale_gap(tet.angles),
                             *reference_lemma_gaps(tet.angles)))
        assert np.array(got).tobytes() == np.array(expected).tobytes()
