"""Closed-form conversion between dihedral angles and edge lengths, and the
operational membership test for the length chart.

With {i,j,k,l} = {1,2,3,4} the conversions are

    cosh l_ij = c_ij / sqrt(d_i d_j)        (angles -> lengths)
    cos theta_ij = w_ij / sqrt(z_k z_l)     (lengths -> angles)

where d_i, c_ij are polynomial in the cosines of the angles and z_i, w_ij
in the hyperbolic cosines of the lengths. Both are the same map in two
index layouts, so one kernel family on (..., 6) arrays serves both
directions, and each direction is one set of index tables built from
``indexing.py`` (``_ANGLES``, ``_LENGTHS``):

- ``_vertex_poly``: 2xyz + x^2 + y^2 + z^2 - 1 over the edges at each
  vertex (d_i), or on the opposite face (z_i);
- ``_edge_poly``: c_ij in the roles ij, ik, il, jk, jl, kl of each edge.
  w_ij is bitwise c_ij with the roles ik and jl exchanged, which is all
  that the length tables change;
- ``_ratio``: the vertex coefficients, the products under each edge's root
  and the ratio edge / root; ``_ratio_grad`` adds its exact partials, entry
  (ij, q) = d ratio_ij / d x_q, gathered in one step through the tables.

Each direction has one guard table (``_LENGTH_GUARDS``, ``_ANGLE_GUARDS``)
of conditions on a kernel pass and their typed errors. ``_guarded`` applies
it: a 6-vector raises the error of the first guard it fails, a batch row
that fails any turns NaN, so the batch functions (``angles_to_lengths_batch``,
``lengths_to_angles_batch``) are NaN exactly where the scalar ones raise and
bitwise equal elsewhere. The length-chart test ``chart_angles`` (and
``in_L``) runs on (m, 6) arrays too. One pass of ``_ratio_grad`` gives the
guards, the conversion and its Jacobian together (``jacobian_*`` in
``schlafli``); ``angles_jacobian`` and ``lengths_jacobian`` are the batch
Jacobians.
"""

from collections import namedtuple
from typing import NamedTuple

import numpy as np

from . import domain
from .errors import (
    AccuracyError,
    InconsistencyError,
    InvalidArgumentError,
    NotATetrahedronError,
    NotInClosureError,
)
from .indexing import EDGE_PAIRS, OPPOSITE, OPPOSITE_FACE_EDGES, VERTEX_EDGES, edge_position
from .specfun import EPS_CLAMP


class _Tables(NamedTuple):
    """The index tables of one conversion direction."""

    #: edge positions of each vertex's triple, one row per member (3 x 4)
    triples: np.ndarray
    #: entry (vertex, q): the place of d/dx_q among the stacked member
    #: partials (3 x 4, member-major), or of the zero stacked last
    vertex_grad: np.ndarray
    #: positions of the roles ij, ik, il, jk, jl, kl (rows), edge by edge
    roles: np.ndarray
    #: entry (ij, q): the place of d/dx_q among the stacked role partials
    #: (6 x 6, role-major)
    edge_grad: np.ndarray
    #: the two vertices under each edge's root, 0-based (2 x 6)
    ends: np.ndarray


def _tables(vertex_edges, roles, ends):
    triples = np.array(vertex_edges).T
    members, vertices = np.indices(triples.shape)
    vertex_grad = np.full((4, 6), triples.size)
    vertex_grad[vertices, triples] = members * 4 + vertices
    # argsort inverts each edge's column of roles
    edge_grad = np.argsort(roles, axis=0).T * 6 + np.arange(6)[:, None]
    return _Tables(triples, vertex_grad, roles, edge_grad, np.array(ends).T - 1)


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

_ANGLES = _tables(VERTEX_EDGES, _EDGE_ROLES, EDGE_PAIRS)
#: w_ij is c_ij with the roles ik and jl exchanged, under z_k z_l
_LENGTHS = _tables(OPPOSITE_FACE_EDGES, _EDGE_ROLES[[0, 4, 2, 3, 1, 5]], _OPPOSITE_PAIRS)


def _gather(x, table):
    # one (..., n) array per row of an index table with n columns
    g = x[..., table]
    return [g[..., row, :] for row in range(len(table))]


def _vertex_poly(x, triples):
    x, y, z = _gather(x, triples)
    return 2.0 * x * y * z + x * x + y * y + z * z - 1.0


def _edge_poly(x, roles):
    ij, ik, il, jk, jl, kl = _gather(x, roles)
    return ij * (il * jk + ik * jl) + il * jl + ik * jk + kl * (1.0 - ij * ij)


def _ratio(x, tables):
    # the vertex coefficients, (..., 4), their products under each edge's
    # root, (..., 6), and the ratios edge / root, (..., 6). The edge
    # polynomial goes first: in the other order the allocator gave the
    # gathers' memory back between calls, and 4096-row batches took 2.5x as
    # long in page faults
    edge = _edge_poly(x, tables.roles)
    vertex = _vertex_poly(x, tables.triples)
    first, second = _gather(vertex, tables.ends)
    products = first * second
    return vertex, products, edge / np.sqrt(products)


def _ratio_grad(x, tables):
    # _ratio (bitwise) and its derivative in x, (..., 6, 6):
    # d(e / sqrt(a b)) = de / sqrt(a b) - (e / sqrt(a b)) (da / a + db / b) / 2
    vertex, products, ratio = _ratio(x, tables)
    a, b, c = _gather(x, tables.triples)
    zero = np.zeros(a.shape[:-1] + (1,))
    vertex_partials = (a + b * c, b + a * c, c + a * b, zero)
    vertex_grad = 2.0 * np.concatenate(vertex_partials, axis=-1)[..., tables.vertex_grad]
    ij, ik, il, jk, jl, kl = _gather(x, tables.roles)
    edge_partials = (
        il * jk + ik * jl - 2.0 * ij * kl,
        ij * jl + jk,
        ij * jk + jl,
        ij * il + ik,
        ij * ik + il,
        1.0 - ij * ij,
    )
    edge_grad = np.concatenate(edge_partials, axis=-1)[..., tables.edge_grad]
    log_grad = vertex_grad / vertex[..., None]
    log_sum = log_grad[..., tables.ends[0], :] + log_grad[..., tables.ends[1], :]
    grad = edge_grad / np.sqrt(products)[..., None] - 0.5 * ratio[..., None] * log_sum
    return vertex, products, ratio, grad


def _cosh_lengths(angles):
    # the angle -> length kernel on (..., 6) arrays: d_i, the products
    # d_i d_j and the cosh arguments c_ij / sqrt(d_i d_j)
    return _ratio(np.cos(angles), _ANGLES)


def _cosh_lengths_grad(angles):
    # _cosh_lengths (bitwise) and, from the same pass, lengths_jacobian
    d, products, arg, grad = _ratio_grad(np.cos(angles), _ANGLES)
    sinh_lengths = np.sqrt((arg - 1.0) * (arg + 1.0))
    return d, products, arg, grad * -np.sin(angles)[..., None, :] / sinh_lengths[..., None]


def lengths_jacobian(angles):
    """Exact Jacobian d l / d theta of ``angles_to_lengths`` on (..., 6)
    angle arrays: entry (ij, q) is d l_ij / d theta_q.

    Differentiates cosh l_ij = c_ij / sqrt(d_i d_j) in the cosines and
    chains with d cos theta = -sin theta d theta and d l = d cosh l / sinh l.
    Inputs are not validated; rows off the polytope give NaN or inf.
    """
    return _cosh_lengths_grad(np.asarray(angles, dtype=float))[3]


def _cos_angles(lengths):
    # the length -> angle kernel on (..., 6) arrays: z_k, the products
    # z_k z_l and the cosine arguments w_ij / sqrt(z_k z_l)
    return _ratio(np.cosh(lengths), _LENGTHS)


def _cos_angles_grad(lengths):
    # _cos_angles (bitwise) and, from the same pass, angles_jacobian
    z, products, arg, grad = _ratio_grad(np.cosh(lengths), _LENGTHS)
    sin_angles = np.sqrt((1.0 - arg) * (1.0 + arg))
    return z, products, arg, grad * np.sinh(lengths)[..., None, :] / -sin_angles[..., None]


def angles_jacobian(lengths):
    """Exact Jacobian d theta / d l of ``lengths_to_angles`` on (..., 6)
    length arrays: entry (ij, q) is d theta_ij / d l_q.

    Differentiates cos theta_ij = w_ij / sqrt(z_k z_l) in the hyperbolic
    cosines and chains with d cosh l = sinh l d l and
    d theta = -d cos theta / sin theta. Inputs are not validated; rows off
    the length chart give NaN or inf.
    """
    return _cos_angles_grad(np.asarray(lengths, dtype=float))[3]


#: one kernel pass: the input angles or lengths, the vertex coefficients
#: (..., 4), their products under each edge's root and the ratios (..., 6)
_Pass = namedtuple("_Pass", "x vertex products ratio")

_EDGES = [f"edge {{{i},{j}}}" for i, j in EDGE_PAIRS]

# A guard table lists (condition, error) in the order a 6-vector raises them:
# the condition holds elementwise on a _Pass, over its vertices or edges, and
# NaN fails it; error(pass, pos) is the typed error of a 6-vector failing at pos.

#: lengths -> angles: a kernel overflow (long edges overflow z_k z_l to inf,
#: and the cosine arguments then read 0 or NaN), a negative length,
#: |cos theta_ij| > 1 + EPS_CLAMP. z_k >= 4 on cosh values >= 1, so z_k
#: needs no guard of its own
_LENGTH_GUARDS = (
    (lambda k: np.isfinite(k.products) & np.isfinite(k.ratio), lambda k, pos: AccuracyError(
        f"length kernel overflows at {_EDGES[pos]}: z_k z_l = {k.products[pos]:.6g}, "
        f"cosine argument {k.ratio[pos]:.6g}")),
    (lambda k: k.x >= 0.0, lambda k, pos: NotInClosureError(
        f"length {k.x[pos]:.6g} is negative at {_EDGES[pos]}", value=k.x[pos])),
    (lambda k: np.abs(k.ratio) <= 1.0 + EPS_CLAMP, lambda k, pos: NotInClosureError(
        f"cosine argument {k.ratio[pos]:.6g} exceeds 1 at {_EDGES[pos]}", value=k.ratio[pos])),
)

#: angles -> lengths: a vertex coefficient d_i not positive, then a cosh
#: argument below 1 - EPS_CLAMP. A row that passes has finite lengths: d_i
#: is the float s - 1.0, exact for s in [1/2, 2], so d_i > 0 means
#: d_i >= 2^-52, and |c_ij| <= 5 over sqrt(d_i d_j) >= 2^-52 is finite
_ANGLE_GUARDS = (
    (lambda k: k.vertex > 0.0, lambda k, pos: NotATetrahedronError(
        f"vertex coefficient d_{pos + 1} = {k.vertex[pos]:.6g} is not positive",
        index=pos + 1, value=k.vertex[pos])),
    (lambda k: k.ratio >= 1.0 - EPS_CLAMP, lambda k, pos: NotATetrahedronError(
        f"cosh argument {k.ratio[pos]:.6g} < 1 at {_EDGES[pos]}",
        index=EDGE_PAIRS[pos], value=k.ratio[pos])),
)


def _guarded(guards, kernel, finish, x):
    # a validated 6-vector, or (m, 6) rows, through a kernel of the guards'
    # direction: finish(ratios) and what else the kernel returns. A row that
    # fails a guard turns NaN; a 6-vector raises the error of the first, at
    # the vertex with the smallest coefficient or the first failing edge
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        vertex, products, ratio, *rest = kernel(x)
    k = _Pass(x, vertex, products, ratio)
    out = finish(ratio)
    for condition, error in guards:
        holds = condition(k)
        if x.ndim == 2:
            out[~holds.all(axis=1)] = np.nan
        elif not all(holds.tolist()):  # on a few entries, faster than .all()
            raise error(k, int(np.argmin(vertex) if holds.size == 4 else np.argmax(~holds)))
    return out, *rest


def _as_rows(batch, name):
    rows = np.asarray(batch, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != 6:
        raise InvalidArgumentError(f"{name}: expected (m, 6) rows, got shape {rows.shape}")
    return rows


def _arccosh(arg):
    return np.arccosh(np.maximum(arg, 1.0))


def angles_to_lengths(angles):
    """Edge lengths of the tetrahedron with the given dihedral angles.

    Raises ``NotATetrahedronError`` for a vertex coefficient d_i <= 0,
    naming the vertex with the smallest (``index`` 1-4), then for a cosh
    argument below 1 - EPS_CLAMP, naming the edge (``index`` (i, j)); its
    ``value`` is the failing coefficient or argument.
    """
    return _guarded(_ANGLE_GUARDS, _cosh_lengths, _arccosh, domain.as_vector(angles, "angles"))[0]


def angles_to_lengths_batch(batch):
    """Vectorized angles -> lengths for an (m, 6) batch.

    Rows that fail the guards of ``angles_to_lengths`` come back as NaN
    instead of raising; campaign samplers treat those rows as rejected.
    The other rows agree bitwise with ``angles_to_lengths``.
    """
    return _guarded(_ANGLE_GUARDS, _cosh_lengths, _arccosh, _as_rows(batch, "angles"))[0]


def _arccos(arg):
    return np.arccos(np.minimum(np.maximum(arg, -1.0), 1.0))


#: slack of the closure test on the angles of a length row
_CLOSURE_TOL = 1e-9


def _row_angles(kernel, lengths):
    # a validated 6-vector through a length kernel (_cos_angles, or
    # _cos_angles_grad): its angles and whatever else the kernel returns,
    # the closure test of the angles coming after the guards
    angles, *rest = _guarded(_LENGTH_GUARDS, kernel, _arccos, lengths)
    if not domain.in_O(angles, strict=False, tol=_CLOSURE_TOL):
        raise InconsistencyError(
            f"angles {angles!r} computed from lengths lie outside the closure "
            "of the angle polytope"
        )
    return angles, *rest


def lengths_to_angles(lengths):
    """Dihedral angles of the tetrahedron with the given edge lengths.

    On interior points of the length chart the result lies strictly inside
    the angle polytope; closure points (e.g. flattening families) land on
    its boundary and are accepted within a slack of 1e-9. Lengths so long
    that the kernel overflows (all six edges from about 118 on, one among
    short edges from about 180) raise ``AccuracyError`` naming the edge;
    then a negative length, or a cosine argument beyond 1 + EPS_CLAMP in
    size, raises ``NotInClosureError`` naming the edge.
    """
    return _row_angles(_cos_angles, domain.as_vector(lengths, "lengths"))[0]


def lengths_to_angles_batch(batch):
    """Vectorized lengths -> angles for an (m, 6) batch.

    Rows that fail the guards of ``lengths_to_angles`` come back as NaN
    instead of raising. The other rows agree bitwise with
    ``lengths_to_angles``.
    """
    return _guarded(_LENGTH_GUARDS, _cos_angles, _arccos, _as_rows(batch, "lengths"))[0]


#: round-trip tolerance of the length-chart test
_CHART_TOL = 1e-9


def _chart_rows(lengths):
    # the batch length-chart test on validated (m, 6) rows
    angles = lengths_to_angles_batch(lengths)
    ok = domain.in_O_mask(angles, strict=True)
    back = angles_to_lengths_batch(angles)
    ok &= (np.abs(back - lengths) < _CHART_TOL).all(axis=1)
    angles[~ok] = np.nan
    return angles, ok


def chart_angles(lengths):
    """The angles of ``lengths`` if they lie in the length chart, else None.

    Operational membership: the angle conversion must succeed, land strictly
    inside the angle polytope, and convert back to the input within 1e-9.
    An (m, 6) array of length rows gives ``(angles, ok)``: the (m, 6) angles,
    NaN on the rows outside the chart, and the (m,) accept mask.
    """
    if np.ndim(lengths) == 2:
        return _chart_rows(_as_rows(lengths, "lengths"))
    try:
        l = domain.as_vector(lengths, "lengths")
    except InvalidArgumentError:
        return None
    angles, ok = _chart_rows(l[np.newaxis])
    return angles[0] if ok[0] else None


def in_L(lengths):
    """Membership in the length chart, decided by ``chart_angles``; an
    (m, 6) array of length rows gives an (m,) boolean mask."""
    if np.ndim(lengths) == 2:
        rows = _as_rows(lengths, "lengths")
        return (rows > 0.0).all(axis=1) & chart_angles(rows)[1]
    l = domain.as_vector(lengths, "lengths")
    return bool(np.all(l > 0.0)) and chart_angles(l) is not None
