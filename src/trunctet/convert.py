"""Closed-form conversion between dihedral angles and edge lengths, and the
operational membership test for the length chart.

With {i,j,k,l} = {1,2,3,4} the conversions are

    cosh l_ij = c_ij / sqrt(d_i d_j)        (angles -> lengths)
    cos theta_ij = w_ij / sqrt(z_k z_l)     (lengths -> angles)

where d_i, c_ij are polynomial in the cosines of the angles and z_i, w_ij
in the hyperbolic cosines of the lengths. Both are the same map in two
index layouts, so one kernel family serves both directions, each a set of
index tables built from ``indexing.py`` (``_ANGLES``, ``_LENGTHS``). Each
formula is written once, as a function of its operands: ``_vertex_term``
2xyz + x^2 + y^2 + z^2 - 1 over the edges at a vertex (d_i) or on the
opposite face (z_i), ``_edge_term`` c_ij in the roles ij, ik, il, jk, jl,
kl of an edge (w_ij is bitwise c_ij with the roles ik and jl exchanged,
which is all that the length tables change), their partials, and the ratio
edge / sqrt(product) with its derivative. There are two ways to evaluate
them, with the same operations in the same order, so a 6-vector gives the
bits of its batch row:

- (6, m) columns, one row per column: each table row gathers one (n, m)
  block by ``x[table]`` and a formula runs once on the blocks;
- a 6-vector, after one ``np.cos`` or ``np.cosh``: a formula runs with
  ``map`` over Python floats, once per vertex or edge, since a one-row
  array pays numpy's dispatch on each of 30 to 80 operations. A root of a
  negative reads NaN there (``_sqrt``), and where a float division by zero
  raises, ``_in_floats`` evaluates the vector again as one column, which
  gives numpy's inf or NaN.

``_ratio`` gives the vertex coefficients, the products under each edge's
root and the ratio edge / root. Its derivative is written once, as
``_ratio_along``: each partial contracted with a direction as it is formed,
on a 6-vector in floats or on columns. Along the ray d cosh l = l sinh l it
is the gradient's six numbers; along the six unit directions (``_UNIT``) it
is ``_ratio_grad``, entry (ij, q) = d ratio_ij / d x_q (a 6-vector runs as
one column).

Each direction has one guard table (``_LENGTH_GUARDS``, ``_ANGLE_GUARDS``)
of conditions on a kernel pass, entry by entry on the floats of a 6-vector
or elementwise on columns, and their typed errors. ``_guarded`` applies it:
a 6-vector raises the error of the first guard it fails, the columns that
fail any turn NaN in one write; only a 6-vector past them is finished,
clamped in floats. The batch functions (``angles_to_lengths_batch``,
``lengths_to_angles_batch``, ``chart_angles``) transpose (m, 6) rows on
entry and back on return, and are NaN exactly where the scalar ones raise
and bitwise equal elsewhere; ``chart_angles`` converts, tests the polytope
and converts back on the same columns. One kernel pass gives the guards,
the conversion and its derivative together: ``_ratio_grad`` for the
Jacobians (``jacobian_*`` in ``schlafli``, and ``angles_jacobian`` and
``lengths_jacobian`` on (..., 6) rows, flattened to columns), and
``_cos_angles_along`` for ``schlafli.dvol_dlengths``; the chain rule through
the sines or hyperbolic sines follows.
"""

import functools
import math
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
    #: positions of the roles ij, ik, il, jk, jl, kl (rows), edge by edge
    roles: np.ndarray
    #: the two vertices under each edge's root, 0-based (2 x 6)
    ends: np.ndarray
    #: for the Python floats of a 6-vector: the two vertices under each
    #: edge's root, as a list of pairs
    end_pairs: list


def _tables(vertex_edges, roles, ends):
    ends = np.array(ends).T - 1
    return _Tables(np.array(vertex_edges).T, roles, ends, ends.T.tolist())


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


#: the six unit directions (6, 6, 1), along which (6, 1, m) columns give the Jacobian
_UNIT = np.eye(6)[:, :, None]


def _each(term, table, x, *directions):
    # a term on the operands that the rows of an index table gather from x,
    # then from each direction: once on (n, ...) blocks of columns, or n times
    # on the Python floats of a 6-vector
    if x.ndim == 1:
        rows = x[table].tolist()
        for direction in directions:
            rows += direction[table].tolist()
        return list(map(term, *rows))
    return term(*x[table], *[row for direction in directions for row in direction[table]])


def _each_entry(term, *operands):
    # a term entry by entry on lists of Python floats, or once on arrays
    if isinstance(operands[0], list):
        return list(map(term, *operands))
    return term(*operands)


def _sqrt(v):
    # math.sqrt on a Python float, NaN below zero as np.sqrt gives; else np.sqrt
    if isinstance(v, float):
        return math.sqrt(v) if v >= 0.0 else math.nan
    return np.sqrt(v)


def _in_floats(kernel):
    # a kernel on (6, m) columns or on a 6-vector, which it evaluates in
    # Python floats. A float division by zero raises where numpy returns inf
    # or NaN; there the vector is evaluated as one column, its batch row
    @functools.wraps(kernel)
    def evaluate(x, *args):
        try:
            return kernel(x, *args)
        except ZeroDivisionError:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                return [np.asarray(part)[..., 0] for part in kernel(x[:, None], *args)]

    return evaluate


# The kernel formulas, on Python floats or elementwise on blocks. In the
# angle direction the x are cosines, in the length direction hyperbolic
# cosines.

def _vertex_term(x, y, z):
    # d_i over the edges at a vertex, or z_k over the opposite face
    return 2.0 * x * y * z + x * x + y * y + z * z - 1.0


def _vertex_partials(x, y, z):
    # half the partials of _vertex_term in x, y and z
    return x + y * z, y + x * z, z + x * y


def _vertex_along(x, y, z, dx, dy, dz):
    # half the derivative of _vertex_term along the direction (dx, dy, dz)
    px, py, pz = _vertex_partials(x, y, z)
    return px * dx + py * dy + pz * dz


def _edge_term(ij, ik, il, jk, jl, kl):
    # c_ij, or w_ij with the roles ik and jl exchanged
    return ij * (il * jk + ik * jl) + il * jl + ik * jk + kl * (1.0 - ij * ij)


def _edge_partials(ij, ik, il, jk, jl, kl):
    # the partials of _edge_term in its six roles
    return (
        il * jk + ik * jl - 2.0 * ij * kl,
        ij * jl + jk,
        ij * jk + jl,
        ij * il + ik,
        ij * ik + il,
        1.0 - ij * ij,
    )


def _edge_along(ij, ik, il, jk, jl, kl, dij, dik, dil, djk, djl, dkl):
    # the derivative of _edge_term along the direction of its six roles
    pij, pik, pil, pjk, pjl, pkl = _edge_partials(ij, ik, il, jk, jl, kl)
    return pij * dij + pik * dik + pil * dil + pjk * djk + pjl * djl + pkl * dkl


def _ratio_term(edge, product):
    return edge / _sqrt(product)


def _log_partial(half_partial, vertex):
    # a partial of log(vertex), from half the partial of the vertex term
    return 2.0 * half_partial / vertex


def _ratio_partial(edge_partial, root, ratio, first, second):
    # d(e / sqrt(a b)) = de / sqrt(a b) - (e / sqrt(a b)) (da / a + db / b) / 2
    return edge_partial / root - 0.5 * ratio * (first + second)


def _angle_partial(cos_partial, sin):
    # d theta = -d cos theta / sin theta
    return cos_partial / -sin


def _sinh_of_cosh(c):
    return _sqrt((c - 1.0) * (c + 1.0))


def _sin_of_cos(c):
    return _sqrt((1.0 - c) * (1.0 + c))


def _vertex_poly(x, triples):
    return _each(_vertex_term, triples, x)


def _edge_poly(x, roles):
    return _each(_edge_term, roles, x)


@_in_floats
def _ratio(x, tables):
    # the vertex coefficients, (4, ...), their products under each edge's
    # root, (6, ...), and the ratios edge / root, (6, ...). Edge first: the
    # other order costs chart_angles on 10^4 rows 1.6x its time in page faults
    edge = _edge_poly(x, tables.roles)
    vertex = _vertex_poly(x, tables.triples)
    if x.ndim == 1:
        products = [vertex[a] * vertex[b] for a, b in tables.end_pairs]
    else:
        first, second = vertex[tables.ends]
        products = first * second
    return vertex, products, _each_entry(_ratio_term, edge, products)


def _ratio_along(x, tables, direction):
    # _ratio (bitwise) and its derivative along a direction, (6, ...), each partial
    # contracted with it as it is formed: on a 6-vector and a direction in Python
    # floats, or on columns and directions that broadcast against them
    vertex, products, ratio = _ratio(x, tables)
    logs = _each_entry(_log_partial, _each(_vertex_along, tables.triples, x, direction), vertex)
    if x.ndim == 1:
        first, second = ([logs[v] for v in ends] for ends in zip(*tables.end_pairs))
    else:
        first, second = logs[tables.ends]
    edge = _each(_edge_along, tables.roles, x, direction)
    return vertex, products, ratio, _each_entry(
        _ratio_partial, edge, _each_entry(_sqrt, products), ratio, first, second)


def _ratio_grad(x, tables):
    # _ratio (bitwise) and its derivative in x, (6, 6, ...): _ratio_along the
    # six unit directions. A 6-vector runs as one column, its batch row: one
    # tetrahedron's gradient takes _cos_angles_along
    columns = x[:, None] if x.ndim == 1 else x
    vertex, products, ratio, grad = _ratio_along(columns[:, None], tables, _UNIT)
    parts = vertex[:, 0], products[:, 0], ratio[:, 0], grad
    return [part[..., 0] for part in parts] if x.ndim == 1 else parts


def _cosh_lengths(angles):
    # the angle -> length kernel on a 6-vector or (6, m) columns: d_i, the
    # products d_i d_j and the cosh arguments c_ij / sqrt(d_i d_j)
    return _ratio(np.cos(angles), _ANGLES)


def _cosh_lengths_grad(angles):
    # _cosh_lengths (bitwise) and, from the same pass, lengths_jacobian; inf or NaN
    # where a sinh vanishes
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        d, products, arg, grad = _ratio_grad(np.cos(angles), _ANGLES)
        return d, products, arg, grad * -np.sin(angles) / _sinh_of_cosh(arg)[:, None]


def lengths_jacobian(angles):
    """Exact Jacobian d l / d theta of ``angles_to_lengths`` on (..., 6)
    angle arrays: entry (ij, q) is d l_ij / d theta_q.

    Differentiates cosh l_ij = c_ij / sqrt(d_i d_j) in the cosines and
    chains with d cos theta = -sin theta d theta and d l = d cosh l / sinh l.
    Inputs must be real; rows off the polytope give NaN or inf.
    """
    return _stacked_jacobian(_cosh_lengths_grad, angles, "angles")


def _cos_angles(lengths):
    # the length -> angle kernel on a 6-vector or (6, m) columns: z_k, the
    # products z_k z_l and the cosine arguments w_ij / sqrt(z_k z_l); cosh is
    # inf from about 710, which the guards reject
    with np.errstate(over="ignore"):
        return _ratio(np.cosh(lengths), _LENGTHS)


def _cos_angles_grad(lengths):
    # _cos_angles (bitwise) and, from the same pass, angles_jacobian, inf or
    # NaN where a sine vanishes
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        z, products, arg, grad = _ratio_grad(np.cosh(lengths), _LENGTHS)
        return z, products, arg, _angle_partial(grad * np.sinh(lengths), _sin_of_cos(arg)[:, None])


@_in_floats
def _cos_angles_along(lengths):
    # _cos_angles (bitwise) and the angles' derivative along the ray (1 + s) l,
    # angles_jacobian(l) @ l: _ratio_along the direction d cosh l = l sinh l;
    # inf or NaN where a sine vanishes (a float division by zero reruns a column)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        direction = lengths * np.sinh(lengths)
        z, products, arg, cos_along = _ratio_along(np.cosh(lengths), _LENGTHS, direction)
        return z, products, arg, _each_entry(_angle_partial, cos_along, _each_entry(_sin_of_cos, arg))


def angles_jacobian(lengths):
    """Exact Jacobian d theta / d l of ``lengths_to_angles`` on (..., 6)
    length arrays: entry (ij, q) is d theta_ij / d l_q.

    Differentiates cos theta_ij = w_ij / sqrt(z_k z_l) in the hyperbolic
    cosines and chains with d cosh l = sinh l d l and
    d theta = -d cos theta / sin theta. Inputs must be real; rows off the
    length chart give NaN or inf.
    """
    return _stacked_jacobian(_cos_angles_grad, lengths, "lengths")


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _stacked_jacobian(kernel, values, name):
    # the Jacobian of a kernel pass on (..., 6) arrays of real numbers (NaN,
    # inf pass), validated, as (6, n) columns, with its (6, 6) axes moved
    # behind the rows of the input's shape
    arr = domain._as_floats(values, name, "(..., 6) arrays of numbers")
    if arr.shape[-1:] != (6,):
        raise InvalidArgumentError(f"{name}: expected (..., 6) arrays, got shape {arr.shape}")
    jacobian = kernel(np.moveaxis(arr, -1, 0).reshape(6, -1))[3]
    return np.moveaxis(jacobian, (0, 1), (-2, -1)).reshape(arr.shape + (6,))


#: one kernel pass: the input angles or lengths, the vertex coefficients
#: (4, ...), their products under each edge's root and the ratios (6, ...)
_Pass = namedtuple("_Pass", "x vertex products ratio")

_EDGES = [f"edge {{{i},{j}}}" for i, j in EDGE_PAIRS]

# A guard table lists (fields, condition, error) in the order a 6-vector
# raises them: the condition holds entry by entry on the named fields of a
# _Pass, over its vertices or edges, on Python floats or elementwise on
# blocks, and NaN fails it; error(pass, pos) is the typed error of a 6-vector
# failing at pos, on the pass as arrays.

#: lengths -> angles: a kernel overflow (long edges overflow z_k z_l to inf,
#: and the cosine arguments then read 0 or NaN), a negative length,
#: |cos theta_ij| > 1 + EPS_CLAMP. z_k >= 4 on cosh values >= 1, so z_k
#: needs no guard of its own
_LENGTH_GUARDS = (
    (("products", "ratio"), lambda p, r: (abs(p) < math.inf) & (abs(r) < math.inf),
     lambda k, pos: AccuracyError(
        f"length kernel overflows at {_EDGES[pos]}: z_k z_l = {k.products[pos]:.6g}, "
        f"cosine argument {k.ratio[pos]:.6g}")),
    (("x",), lambda x: x >= 0.0, lambda k, pos: NotInClosureError(
        f"length {k.x[pos]:.6g} is negative at {_EDGES[pos]}", value=k.x[pos])),
    (("ratio",), lambda r: abs(r) <= 1.0 + EPS_CLAMP, lambda k, pos: NotInClosureError(
        f"cosine argument {k.ratio[pos]:.6g} exceeds 1 at {_EDGES[pos]}", value=k.ratio[pos])),
)

#: angles -> lengths: a vertex coefficient d_i not positive, then a cosh
#: argument below 1 - EPS_CLAMP. A row that passes has finite lengths: d_i
#: is the float s - 1.0, exact for s in [1/2, 2], so d_i > 0 means
#: d_i >= 2^-52, and |c_ij| <= 5 over sqrt(d_i d_j) >= 2^-52 is finite
_ANGLE_GUARDS = (
    (("vertex",), lambda d: d > 0.0, lambda k, pos: NotATetrahedronError(
        f"vertex coefficient d_{pos + 1} = {k.vertex[pos]:.6g} is not positive",
        index=pos + 1, value=k.vertex[pos])),
    (("ratio",), lambda r: r >= 1.0 - EPS_CLAMP, lambda k, pos: NotATetrahedronError(
        f"cosh argument {k.ratio[pos]:.6g} < 1 at {_EDGES[pos]}",
        index=EDGE_PAIRS[pos], value=k.ratio[pos])),
)


def _guarded(guards, kernel, finish, x):
    # a validated 6-vector, or (6, m) columns, through a kernel of the guards'
    # direction: finish(ratios) and what else the kernel returns. Columns
    # that fail a guard turn NaN, quietly, in one write; a 6-vector raises the
    # error of the first, at the vertex with the smallest coefficient or the
    # first failing edge, else is finished. Its float pass needs no np.errstate
    if x.ndim == 2:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            vertex, products, ratio, *rest = kernel(x)
        k = _Pass(x, vertex, products, ratio)
        out, ok = finish(ratio), True
        for fields, condition, _ in guards:
            ok &= condition(*[getattr(k, field) for field in fields]).all(axis=0)
        if not ok.all():
            out[:, ~ok] = np.nan
        return out, *rest
    vertex, products, ratio, *rest = kernel(x)
    k = _Pass(x.tolist(), vertex, products, ratio)
    for fields, condition, error in guards:
        if not all(map(condition, *[getattr(k, field) for field in fields])):
            k = _Pass(*map(np.array, k))
            holds = condition(*[getattr(k, field) for field in fields])
            raise error(k, int(np.argmin(k.vertex) if holds.size == 4 else np.argmax(~holds)))
    return finish(ratio), *rest


def _arccosh(arg):
    # a 6-vector's floats, past the guards (no NaN), clamped without numpy
    if isinstance(arg, list):
        return np.arccosh([1.0 if r < 1.0 else r for r in arg])
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
    columns = domain.as_rows(batch, "angles").T
    return _guarded(_ANGLE_GUARDS, _cosh_lengths, _arccosh, columns)[0].T


def _arccos(arg):
    if isinstance(arg, list):
        return np.arccos([-1.0 if r < -1.0 else 1.0 if r > 1.0 else r for r in arg])
    return np.arccos(np.minimum(np.maximum(arg, -1.0), 1.0))


#: slack of the closure test on the angles of a length row
_CLOSURE_TOL = 1e-9


def _row_angles(kernel, lengths):
    # a validated 6-vector through a length kernel (_cos_angles, or
    # _cos_angles_grad): its angles and whatever else the kernel returns,
    # the closure test of the angles coming after the guards
    angles, *rest = _guarded(_LENGTH_GUARDS, kernel, _arccos, lengths)
    xs = angles.tolist()
    if not domain._in_polytope(xs, domain._vertex_sums(xs), False, _CLOSURE_TOL):
        raise InconsistencyError(f"angles {angles!r} computed from lengths lie outside the "
                                 "closure of the angle polytope")
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
    columns = domain.as_rows(batch, "lengths").T
    return _guarded(_LENGTH_GUARDS, _cos_angles, _arccos, columns)[0].T


#: round-trip tolerance of the length-chart test
_CHART_TOL = 1e-9


def _chart_rows(columns):
    # the batch length-chart test on validated (6, m) columns: (m, 6) angles, the mask
    angles, = _guarded(_LENGTH_GUARDS, _cos_angles, _arccos, columns)
    ok = domain._in_polytope(angles, domain._vertex_sums(angles), True, 0.0)
    back, = _guarded(_ANGLE_GUARDS, _cosh_lengths, _arccosh, angles)
    ok &= (np.abs(back - columns) < _CHART_TOL).all(axis=0)
    # a zero length can convert to angles strictly inside the polytope
    # that convert back to it
    ok &= (columns > 0.0).all(axis=0)
    if not ok.all():
        angles[:, ~ok] = np.nan
    return angles.T, ok


def chart_angles(lengths):
    """The angles of ``lengths`` if they lie in the length chart, else None.

    Operational membership: every length must be positive, and the angle
    conversion must succeed, land strictly inside the angle polytope, and
    convert back to the input within 1e-9.
    An (m, 6) array of length rows gives ``(angles, ok)``: the (m, 6) angles,
    NaN on the rows outside the chart, and the (m,) accept mask.
    """
    if domain._ndim(lengths) == 2:
        return _chart_rows(domain.as_rows(lengths, "lengths").T)
    try:
        l = domain.as_vector(lengths, "lengths")
    except InvalidArgumentError:
        return None
    angles, ok = _chart_rows(l[:, np.newaxis])
    return angles[0] if ok[0] else None


def in_L(lengths):
    """Membership in the length chart, decided by ``chart_angles``; an
    (m, 6) array of length rows gives an (m,) boolean mask."""
    if domain._ndim(lengths) != 2:
        return bool(in_L(domain.as_vector(lengths, "lengths")[np.newaxis])[0])
    return chart_angles(domain.as_rows(lengths, "lengths"))[1]
