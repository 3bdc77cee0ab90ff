"""Closed-form conversion between dihedral angles and edge lengths, and the
operational membership test for the length chart.

With {i,j,k,l} = {1,2,3,4} the conversions are

    cosh l_ij = c_ij / sqrt(d_i d_j)        (angles -> lengths)
    cos theta_ij = w_ij / sqrt(z_k z_l)     (lengths -> angles)

where d_i, c_ij are polynomial in the cosines of the angles and z_i, w_ij
mirror them in the hyperbolic cosines of the lengths. Each polynomial is one
kernel on (..., 6) arrays; the scalar functions validate their input and
turn failed guards into typed errors, the batch functions into NaN rows.

Both directions have a batch form on (m, 6) arrays, bitwise equal row by
row to the scalar one: ``angles_to_lengths_batch`` and
``lengths_to_angles_batch``. The length -> angle direction is one kernel
(z_k and the cosine arguments) with one set of guards (z_k > 0,
|cos theta_ij| <= 1 + EPS_CLAMP, and no overflow of z_k z_l);
``lengths_to_angles`` raises ``NotInClosureError`` on the first failed
closure guard of its row, or else ``AccuracyError`` on an overflow, and the
batch gives NaN there. The length-chart test ``chart_angles`` (and ``in_L``
on top of it) runs on (m, 6) arrays too: the batch conversion, the strict
polytope test ``domain.in_O_mask`` and the round trip through
``angles_to_lengths_batch``; a single 6-vector is a batch of one row.

Each kernel has a ``_grad`` twin holding its exact partial derivatives as a
(..., rows, 6) array, entry (r, q) being d row_r / d x_q; ``lengths_jacobian``
and ``angles_jacobian`` chain them into the exact Jacobians of the two
conversions.
"""

from dataclasses import dataclass

import numpy as np

from . import domain
from .errors import (
    AccuracyError,
    InconsistencyError,
    InvalidArgumentError,
    NotATetrahedronError,
    NotInClosureError,
)
from .indexing import (
    EDGE_PAIRS,
    OPPOSITE,
    OPPOSITE_FACE_EDGES,
    VERTEX_EDGES,
    edge_position,
)
from .specfun import EPS_CLAMP

#: edge positions at each vertex (VERTEX_EDGES) and on each opposite face
#: (OPPOSITE_FACE_EDGES), one row per member of the triple
_VERTEX_EDGES = np.array(VERTEX_EDGES).T
_OPPOSITE_FACE_EDGES = np.array(OPPOSITE_FACE_EDGES).T

#: the opposite edge kl of each edge ij, as a vertex pair
_OPPOSITE_PAIRS = [EDGE_PAIRS[opp] for opp in OPPOSITE]

#: for each edge ij with opposite edge kl, the positions of ij, ik, il, jk,
#: jl and kl (rows), edge by edge (columns)
_EDGE_ROLES = np.array(
    [
        (pos, edge_position(i, k), edge_position(i, l), edge_position(j, k), edge_position(j, l), opp)
        for pos, ((i, j), (k, l), opp) in enumerate(zip(EDGE_PAIRS, _OPPOSITE_PAIRS, OPPOSITE))
    ]
).T

#: 0-based endpoints of each edge, and of its opposite edge
_ENDS = np.array(EDGE_PAIRS).T - 1
_OPPOSITE_ENDS = np.array(_OPPOSITE_PAIRS).T - 1


def _gather(x, table):
    # one (..., n) array per row of an index table with n columns
    g = x[..., table]
    return [g[..., row, :] for row in range(len(table))]


def _vertex_poly(x, triples):
    # 2xyz + x^2 + y^2 + z^2 - 1 over the edge triples of each vertex: the
    # d_i of the angle cosines (_VERTEX_EDGES), or the z_i of the length
    # hyperbolic cosines (_OPPOSITE_FACE_EDGES)
    x, y, z = _gather(x, triples)
    return 2.0 * x * y * z + x * x + y * y + z * z - 1.0


def _vertex_poly_grad(x, triples):
    # each member of a vertex triple has partial 2 (member + product of the
    # other two); the three members of a triple are distinct edges
    x, y, z = _gather(x, triples)
    grad = np.zeros(x.shape[:-1] + (4, 6))
    vertices = np.arange(4)
    for members, partial in zip(triples, (x + y * z, y + x * z, z + x * y)):
        grad[..., vertices, members] = 2.0 * partial
    return grad


def _edge_poly_grad(partials):
    # scatter the partials of c_ij or w_ij in the roles ij, ik, il, jk, jl,
    # kl (the rows of _EDGE_ROLES, a permutation of the edges for each ij)
    grad = np.empty(partials[0].shape[:-1] + (6, 6))
    edges = np.arange(6)
    for roles, partial in zip(_EDGE_ROLES, partials):
        grad[..., edges, roles] = partial
    return grad


def _c_poly(cos_angles):
    cij, cik, cil, cjk, cjl, ckl = _gather(cos_angles, _EDGE_ROLES)
    return cij * (cil * cjk + cik * cjl) + cil * cjl + cik * cjk + ckl * (1.0 - cij * cij)


def _c_poly_grad(cos_angles):
    cij, cik, cil, cjk, cjl, ckl = _gather(cos_angles, _EDGE_ROLES)
    return _edge_poly_grad(
        (
            cil * cjk + cik * cjl - 2.0 * cij * ckl,
            cij * cjl + cjk,
            cij * cjk + cjl,
            cij * cil + cik,
            cij * cik + cil,
            1.0 - cij * cij,
        )
    )


def _w_poly(cosh_lengths):
    hij, hik, hil, hjk, hjl, hkl = _gather(cosh_lengths, _EDGE_ROLES)
    return hij * (hil * hjk + hik * hjl) + hik * hil + hjk * hjl - (hij * hij - 1.0) * hkl


def _w_poly_grad(cosh_lengths):
    hij, hik, hil, hjk, hjl, hkl = _gather(cosh_lengths, _EDGE_ROLES)
    return _edge_poly_grad(
        (
            hil * hjk + hik * hjl - 2.0 * hij * hkl,
            hij * hjl + hil,
            hij * hjk + hik,
            hij * hil + hjl,
            hij * hik + hjk,
            1.0 - hij * hij,
        )
    )


def _pair_ratio(edge_coeffs, vertex_coeffs, ends):
    # edge coefficient over the geometric mean of its two vertex coefficients
    first, second = _gather(vertex_coeffs, ends)
    return edge_coeffs / np.sqrt(first * second)


def _pair_ratio_grad(x, edge_poly, edge_poly_grad, triples, ends):
    # _pair_ratio of the kernels at x and its derivative in x:
    # d(e / sqrt(a b)) = de / sqrt(a b) - (e / sqrt(a b)) (da / a + db / b) / 2
    vertex_coeffs = _vertex_poly(x, triples)
    first, second = _gather(vertex_coeffs, ends)
    root = np.sqrt(first * second)
    ratio = edge_poly(x) / root
    log_grad = _vertex_poly_grad(x, triples) / vertex_coeffs[..., None]
    log_sum = log_grad[..., ends[0], :] + log_grad[..., ends[1], :]
    return ratio, edge_poly_grad(x) / root[..., None] - 0.5 * ratio[..., None] * log_sum


def lengths_jacobian(angles):
    """Exact Jacobian d l / d theta of ``angles_to_lengths`` on (..., 6)
    angle arrays: entry (ij, q) is d l_ij / d theta_q.

    Differentiates cosh l_ij = c_ij / sqrt(d_i d_j) in the cosines and
    chains with d cos theta = -sin theta d theta and d l = d cosh l / sinh l.
    Inputs are not validated; rows off the polytope give NaN or inf.
    """
    angles = np.asarray(angles, dtype=float)
    cosh_lengths, grad = _pair_ratio_grad(
        np.cos(angles), _c_poly, _c_poly_grad, _VERTEX_EDGES, _ENDS
    )
    sinh_lengths = np.sqrt((cosh_lengths - 1.0) * (cosh_lengths + 1.0))
    return grad * -np.sin(angles)[..., None, :] / sinh_lengths[..., None]


def angles_jacobian(lengths):
    """Exact Jacobian d theta / d l of ``lengths_to_angles`` on (..., 6)
    length arrays: entry (ij, q) is d theta_ij / d l_q.

    Differentiates cos theta_ij = w_ij / sqrt(z_k z_l) in the hyperbolic
    cosines and chains with d cosh l = sinh l d l and
    d theta = -d cos theta / sin theta. Inputs are not validated; rows off
    the length chart give NaN or inf.
    """
    lengths = np.asarray(lengths, dtype=float)
    cos_angles, grad = _pair_ratio_grad(
        np.cosh(lengths), _w_poly, _w_poly_grad, _OPPOSITE_FACE_EDGES, _OPPOSITE_ENDS
    )
    sin_angles = np.sqrt((1.0 - cos_angles) * (1.0 + cos_angles))
    return grad * np.sinh(lengths)[..., None, :] / -sin_angles[..., None]


@dataclass(frozen=True)
class ConversionCoefficients:
    """The intermediate quantities of both conversion directions for one
    coherent (angles, lengths) pair."""

    d: np.ndarray
    c: np.ndarray
    z: np.ndarray
    w: np.ndarray

    @classmethod
    def from_pair(cls, angles, lengths):
        d, c = coefficients_from_angles(angles)
        ch = np.cosh(domain.as_vector(lengths, "lengths"))
        return cls(d=d, c=c, z=_vertex_poly(ch, _OPPOSITE_FACE_EDGES), w=_w_poly(ch))


def coefficients_from_angles(angles):
    """The vertex coefficients d_1..d_4 and edge coefficients c_ij."""
    cos_angles = np.cos(domain.as_vector(angles, "angles"))
    return _vertex_poly(cos_angles, _VERTEX_EDGES), _c_poly(cos_angles)


def angles_to_lengths(angles, eps_clamp=EPS_CLAMP):
    """Edge lengths of the tetrahedron with the given dihedral angles."""
    d, c = coefficients_from_angles(angles)
    if (d <= 0.0).any():
        vertex = int(np.argmin(d)) + 1
        raise NotATetrahedronError(
            f"vertex coefficient d_{vertex} = {d[vertex - 1]:.6g} is not positive",
            index=vertex,
            value=d[vertex - 1],
        )
    arg = _pair_ratio(c, d, _ENDS)
    low = arg < 1.0 - eps_clamp
    if low.any():
        pos = int(np.argmax(low))
        i, j = EDGE_PAIRS[pos]
        raise NotATetrahedronError(
            f"cosh argument {arg[pos]:.6g} < 1 at edge {{{i},{j}}}",
            index=(i, j),
            value=arg[pos],
        )
    return np.arccosh(np.maximum(arg, 1.0))


#: |length| below which _cos_angles cannot overflow: z_k z_l, its largest
#: intermediate, grows like cosh(l)^6 and stays finite up to |l| ~ 118
_NO_OVERFLOW = 100.0


def _cos_angles(lengths):
    # the length -> angle kernel on (..., 6) arrays: the vertex coefficients
    # z_k, (..., 4), the products z_k z_l under each edge's root, (..., 6),
    # and the cosine arguments w_ij / sqrt(z_k z_l), (..., 6). Long edges
    # overflow the products to inf, and the arguments then read 0 or NaN;
    # _chart_guards rejects those rows
    ch = np.cosh(lengths)
    z = _vertex_poly(ch, _OPPOSITE_FACE_EDGES)
    first, second = _gather(z, _OPPOSITE_ENDS)
    products = first * second
    return z, products, _w_poly(ch) / np.sqrt(products)


def _chart_guards(z, products, arg, eps_clamp):
    # rows whose z_k are all positive, whose cosine arguments all lie within
    # 1 + eps_clamp in size, and whose kernel did not overflow; written so
    # that a NaN argument fails
    return (
        (z > 0.0).all(axis=-1)
        & (np.abs(arg) <= 1.0 + eps_clamp).all(axis=-1)
        & np.isfinite(products).all(axis=-1)
    )


def _guard_error(z, products, arg, eps_clamp):
    # the typed error of the first guard a single row fails: a row outside
    # the closure, or else one the kernel cannot evaluate
    if (z <= 0.0).any():
        vertex = int(np.argmin(z)) + 1
        return NotInClosureError(
            f"vertex coefficient z_{vertex} = {z[vertex - 1]:.6g} is not positive",
            value=z[vertex - 1],
        )
    bad = ~(np.abs(arg) <= 1.0 + eps_clamp)
    if bad.any():
        pos = int(np.argmax(bad))
        i, j = EDGE_PAIRS[pos]
        return NotInClosureError(
            f"cosine argument {arg[pos]:.6g} exceeds 1 at edge {{{i},{j}}}",
            value=arg[pos],
        )
    i, j = EDGE_PAIRS[int(np.argmax(~np.isfinite(products)))]
    return AccuracyError(f"length kernel overflows at edge {{{i},{j}}}: z_k z_l is not finite")


def _arccos(arg):
    return np.arccos(np.minimum(np.maximum(arg, -1.0), 1.0))


def lengths_to_angles(lengths, eps_clamp=EPS_CLAMP, closure_tol=1e-9):
    """Dihedral angles of the tetrahedron with the given edge lengths.

    On interior points of the length chart the result lies strictly inside
    the angle polytope; closure points (e.g. flattening families) land on
    its boundary and are accepted within ``closure_tol``. Lengths so long
    that the kernel's z_k z_l overflows (all six edges from about 118 on)
    raise ``AccuracyError`` naming the edge, unless a guard of the closure
    fails first.
    """
    lengths = domain.as_vector(lengths, "lengths")
    values = lengths.tolist()
    if -_NO_OVERFLOW < min(values) and max(values) < _NO_OVERFLOW:
        z, products, arg = _cos_angles(lengths)
    else:
        # an overflowing kernel fails the guards below; numpy need not warn
        # first (the test above is cheaper than np.errstate on every call)
        with np.errstate(over="ignore", invalid="ignore"):
            z, products, arg = _cos_angles(lengths)
    if not _chart_guards(z, products, arg, eps_clamp):
        raise _guard_error(z, products, arg, eps_clamp)
    angles = _arccos(arg)
    if not domain.in_O(angles, strict=False, tol=closure_tol):
        raise InconsistencyError(
            f"angles {angles!r} computed from lengths lie outside the closure "
            "of the angle polytope"
        )
    return angles


def _as_rows(batch):
    rows = np.asarray(batch, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != 6:
        raise InvalidArgumentError(f"lengths: expected (m, 6) rows, got shape {rows.shape}")
    return rows


def lengths_to_angles_batch(batch):
    """Vectorized lengths -> angles for an (m, 6) batch.

    Rows that fail the guards of ``lengths_to_angles`` (a vertex
    coefficient z_k <= 0, a cosine argument beyond 1 + EPS_CLAMP in size, or
    a kernel overflow: a product z_k z_l, or cosh itself, beyond the largest
    float) come back as NaN instead of raising.
    The other rows agree bitwise with ``lengths_to_angles``.
    """
    rows = _as_rows(batch)
    with np.errstate(over="ignore", invalid="ignore"):
        z, products, arg = _cos_angles(rows)
    angles = _arccos(arg)
    angles[~_chart_guards(z, products, arg, EPS_CLAMP)] = np.nan
    return angles


def _chart_rows(lengths, tol):
    # the batch length-chart test on validated (m, 6) rows
    angles = lengths_to_angles_batch(lengths)
    ok = domain.in_O_mask(angles, strict=True)
    back = angles_to_lengths_batch(angles)
    ok &= (np.abs(back - lengths) < tol).all(axis=1)
    angles[~ok] = np.nan
    return angles, ok


def chart_angles(lengths, tol=1e-9):
    """The angles of ``lengths`` if they lie in the length chart, else None.

    Operational membership: the angle conversion must succeed, land strictly
    inside the angle polytope, and convert back to the input within ``tol``.
    An (m, 6) array of length rows gives ``(angles, ok)``: the (m, 6) angles,
    NaN on the rows outside the chart, and the (m,) accept mask.
    """
    if np.ndim(lengths) == 2:
        return _chart_rows(_as_rows(lengths), tol)
    try:
        l = domain.as_vector(lengths, "lengths")
    except InvalidArgumentError:
        return None
    angles, ok = _chart_rows(l[np.newaxis], tol)
    return angles[0] if ok[0] else None


def in_L(lengths, tol=1e-9):
    """Membership in the length chart, decided by ``chart_angles``; an
    (m, 6) array of length rows gives an (m,) boolean mask."""
    if np.ndim(lengths) == 2:
        rows = _as_rows(lengths)
        return (rows > 0.0).all(axis=1) & chart_angles(rows, tol)[1]
    l = domain.as_vector(lengths, "lengths")
    return bool(np.all(l > 0.0)) and chart_angles(l, tol) is not None


def angles_to_lengths_batch(batch):
    """Vectorized angles -> lengths for an (m, 6) batch.

    Rows that fail the positivity guards come back as NaN instead of
    raising; campaign samplers treat those rows as rejected.
    """
    cos_angles = np.cos(np.asarray(batch, dtype=float))
    d = _vertex_poly(cos_angles, _VERTEX_EDGES)
    with np.errstate(invalid="ignore", divide="ignore"):
        arg = _pair_ratio(_c_poly(cos_angles), d, _ENDS)
    lengths = np.arccosh(np.maximum(arg, 1.0))
    ok = (
        (d > 0.0).all(axis=-1)
        & (arg >= 1.0 - EPS_CLAMP).all(axis=-1)
        & np.isfinite(lengths).all(axis=-1)
    )
    lengths[~ok] = np.nan
    return lengths
