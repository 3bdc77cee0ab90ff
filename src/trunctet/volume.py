"""Volume of a compact truncated tetrahedron from its dihedral angles.

The evaluator is Ushijima's formula. From the Gram matrix G of the angles
it builds two complex numbers z1, z2, and the volume is
Im(U(z1) - U(z2))/2, where U is a sum of eight dilogarithms. The formula
extends continuously to the closure of the angle polytope, so boundary
evaluations (flat degenerations, ideal limits) are meaningful.

For compact truncated tetrahedra the formula is real. The denominator of
z1, z2 is a sum of eight unit-modulus terms exp(i psi_k), with psi_k the
angle sums of the three opposite edge pairs, of the four faces and of all
six edges, and |denominator|^2 = 4 (S^2 - det G) with
S = sum_p sin theta_p sin theta_opp(p). On the closure det G <= 0, so
|z1| = |z2| = 1 and z_j = exp(i alpha_j) with

    alpha_j = atan2(+-sqrt(-det G), -S) - arg(denominator).

Each of the sixteen dilogarithm arguments is then exp(i (alpha_j + sigma_k)),
where sigma_k is 0, the angle sum of the four edges outside an opposite
pair, or a vertex's angle sum plus pi (those four terms enter with a minus
sign). Im Li2(exp(i phi)) is the Clausen function Cl2(phi), so the volume
is a signed sum of sixteen real Clausen values:

    V = (u_1 - u_2) / 2,   u_j = sum_k eps_k Cl2(alpha_j + sigma_k) / 2.

``ushijima_volume`` takes one 6-vector, in Python floats with sixteen
scalar ``clausen`` calls and no np.errstate, or (m, 6) rows, as (6, m)
columns (``_volume_columns``, which the flow calls too) with one ``clausen``
call per block; a one-row array call costs several times the 6-vector path.
``_phases`` evaluates both shapes up to the phases by the same operations,
on lists of floats or on columns with stacked sums and offsets, so a row's
phases are the same bits on both paths and an array row's volume is the
same bits at any place in any block (the scalar ``clausen`` takes its
logarithm from libm, so the volumes may differ in the last bit). Both shapes
and ``ushijima_intermediates`` run ``_PHASE_GUARDS`` (the closure test, read
from the vertex sums of the offsets, then the denominator) before any
Clausen call, and a volume then runs ``_VOLUME_GUARDS``. A 6-vector raises
the first guard it fails, a block the same at its first failing row, behind
a ``row r, angles ...:`` prefix and with ``row`` in the diagnostics.
"""

import cmath
import math
import operator
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from . import domain
from .errors import EvaluationError, InvalidArgumentError
from .indexing import OPPOSITE, OPPOSITE_FACE_EDGES
from .specfun import acosh_checked, clausen, integrate, lobachevsky

# a placeholder for the ``specfun.dilog`` trace point of ``bench/tracer.py``
dilog = None

#: cosh of the edge length of the regular tetrahedron with all angles pi/6
COSH_L0 = (3.0 + math.sqrt(3.0)) / 4.0

#: edge length of the regular tetrahedron with all angles pi/6
L0 = math.acosh(COSH_L0)

_DENOMINATOR_GUARD = 1e-14
_NEGATIVE_VOLUME_CLAMP = -1e-9

#: slack of the closure test; the formula is analytic slightly past the boundary
_CLOSURE_SLACK = 1e-6

#: pi - math.pi, the rounding error of the double nearest pi
_PI_LOW = 1.2246467991473532e-16


def _left_sum(terms):
    # floats or array rows added left to right: with elementwise operations
    # only, one row gives the same bits alone and in a batch
    return reduce(operator.add, terms)


def _alpha(sin_sum, re, im, root):
    # (2, ...): the phases of z_j = -2 (S -+ i sqrt(-det G)) / denominator,
    # as arg((-S +- i root) conj(denominator)) in one arctan2 each, so that
    # they carry one rounding of (-pi, pi] rather than the difference of two
    # angles; root is sqrt(max(-det G, 0)), 0 where rounding makes det G > 0
    s_re, s_im, r_re, r_im = sin_sum * re, sin_sum * im, root * re, root * im
    return np.arctan2((s_im + r_re, s_im - r_re), (r_im - s_re, -r_im - s_re))


#: one evaluation of the formula up to the phases, in Python floats for a
#: 6-vector or (m,) columns for a block of rows
_Evaluation = namedtuple("_Evaluation", "inside det_g sin_sum re im vanishing flat alpha")

#: the three edges of each vertex's opposite face, one row per member (3 x 4)
_FACE_TRIPLES = np.array(OPPOSITE_FACE_EDGES).T


def _phases(t, cos, sin, sums):
    # the evaluation up to the phases and the eight offsets sigma_k of the
    # angles t, given their cosines, sines and vertex sums as Python floats
    # (one 6-vector) or (6, m) columns and (4, m) sums, by the same operations
    # on both. The denominator sums exp(i psi_k) over the opposite pairs, the
    # faces and the total T, with numpy's cosines and sines, since libm's may
    # differ in the last bit. The offsets are 0, T minus each opposite pair and
    # each vertex sum minus pi. A phase of pi is taken as -pi, in two parts: a
    # vertex sum near pi then gives an offset near 0 with no rounding of its
    # own, where Cl2 has its steep log |t| slope. Columns run under
    # _volume_columns' np.errstate; a 6-vector's floats overflow quietly, and
    # only outside the closure, which raises before the denominator is read:
    # there its psi_k are NaN, quiet in numpy
    if isinstance(t, list):
        pairs = [t[p] + t[OPPOSITE[p]] for p in range(3)]
        faces = [t[p] + t[q] + t[r] for p, q, r in OPPOSITE_FACE_EDGES]
    else:
        pairs, faces = t[:3] + t[3:], _left_sum(t[_FACE_TRIPLES])  # OPPOSITE[p] is p + 3
    det_g = _gram_det_fast(*cos)
    sin_sum = sin[0] * sin[3] + sin[1] * sin[4] + sin[2] * sin[5]
    total = pairs[0] + pairs[1] + pairs[2]
    inside = domain._in_polytope(t, sums, strict=False, tol=_CLOSURE_SLACK)
    if isinstance(t, list):
        vertices = [s - math.pi - _PI_LOW for s in sums]
        offsets = [0.0 * total] + [total - pair for pair in pairs] + vertices
        psi = np.array(pairs + faces + [total] if inside else [math.nan] * 7)
        re, im = _left_sum(np.cos(psi).tolist()), _left_sum(np.sin(psi).tolist())
        magnitude, root = abs(complex(re, im)), math.sqrt(max(-det_g, 0.0))
    else:
        offsets = np.concatenate(([0.0 * total], total - pairs, sums - math.pi - _PI_LOW))
        psi = np.concatenate((pairs, faces, [total]))
        re, im = _left_sum(np.cos(psi)), _left_sum(np.sin(psi))
        magnitude, root = np.hypot(re, im), np.sqrt(np.maximum(-det_g, 0.0))
    # the flat configurations, where both numerators vanish with the
    # denominator and the volume is its continuous extension 0
    vanishing = magnitude < _DENOMINATOR_GUARD
    flat = vanishing & (abs(sin_sum) < 1e-9) & (abs(det_g) < 1e-9)
    alpha = _alpha(sin_sum, re, im, root)
    return _Evaluation(inside, det_g, sin_sum, re, im, vanishing, flat, alpha), offsets


def gram(angles):
    """Gram matrix: unit diagonal, off-diagonal entries -cos(theta_ij)."""
    a = domain.as_vector(angles, "angles")
    t12, t13, t14, t34, t24, t23 = np.cos(a)
    return np.array(
        [
            [1.0, -t12, -t13, -t23],
            [-t12, 1.0, -t14, -t24],
            [-t13, -t14, 1.0, -t34],
            [-t23, -t24, -t34, 1.0],
        ]
    )


def gram_det(angles):
    return float(_gram_det_fast(*np.cos(domain.as_vector(angles, "angles"))))


def _gram_det_fast(c12, c13, c14, c34, c24, c23):
    # cofactor expansion of the 4x4 Gram determinant along the first row, its
    # entries -c bounded by 1 so that no pivoting is needed; the minus signs
    # are folded into the products and sums, which changes no bit because
    # IEEE negation is exact, and the shared 2x2 minors are formed once
    a = 1.0 - c34 * c34
    k = c14 + c34 * c24
    e = c13 + c34 * c23
    f1 = c14 * c34 + c24
    f = c13 * c34 + c23
    h = c13 * c24 - c14 * c23
    d1 = (a - c14 * k) - c24 * f1
    g2 = (c12 * a + c14 * e) + c24 * f
    d3 = (c12 * k + e) - c24 * h
    g4 = (c12 * f1 + f) + c14 * h
    return ((d1 - c12 * g2) - c13 * d3) - c23 * g4


@dataclass(frozen=True)
class UshijimaIntermediates:
    """Unit-modulus exponentials of the angles, the Gram determinant and the
    two dilogarithm arguments; kept around for diagnostics."""

    a: complex
    b: complex
    c: complex
    d: complex
    e: complex
    f: complex
    det_gram: float
    z1: complex
    z2: complex


def _roots(e, **diagnostics):
    # detG and z_j = exp(i alpha_j), 0 on the flat branch, as numpy values
    z1, z2 = np.where(e.flat, 0j, np.exp(1j * np.asarray(e.alpha)))
    return {**diagnostics, "detG": e.det_g, "z1": z1, "z2": z2}


#: the guards of an evaluation e before any Clausen call, then of its volume
#: (0 on the flat branch), as (condition, message, diagnostics) in the order
#: they raise; a condition holds where the input passes, and NaN fails it:
#: the closure, a vanishing denominator only on the flat branch (<= on
#: booleans is implication), a finite volume, none below the clamp
_PHASE_GUARDS = (
    (lambda e: e.inside, "outside the closure of the angle polytope", lambda e: {}),
    (lambda e: e.vanishing <= e.flat,
     "degenerate configuration: vanishing denominator in the volume formula",
     lambda e: {"detG": e.det_g, "denominator": e.re + 1j * e.im, "sin_sum": e.sin_sum}),
)
_VOLUME_GUARDS = (
    (lambda e, vol: abs(vol) < math.inf, "non-finite volume", lambda e, vol: _roots(e)),
    (lambda e, vol: vol >= _NEGATIVE_VOLUME_CLAMP, "volume is negative beyond round-off",
     lambda e, vol: _roots(e, volume=vol)),
)


def _raise_first(guards, *args, rows=None, first=0):
    # raise EvaluationError for the first of the guards that args fail: as is
    # for a 6-vector (rows None); for a block, whose columns hold the rows
    # first, first + 1, ..., naming its first failing row
    for holds, message, diagnostics in guards:
        ok = holds(*args)
        if not (ok.all() if rows is not None else ok):
            r = int(np.argmin(ok))
            values = {k: np.atleast_1d(v)[r].item() for k, v in diagnostics(*args).items()}
            if rows is not None:
                message = f"row {first + r}, angles {rows[r]!r}: {message}"
                values = {"row": first + r, **values}
            raise EvaluationError(message, diagnostics=values)


def _checked(validate, angles):
    # angles through a domain validator; its InvalidArgumentError becomes EvaluationError
    try:
        return validate(angles, "angles")
    except InvalidArgumentError as exc:
        raise EvaluationError(str(exc)) from exc


def _row_phases(angles):
    # _phases of one 6-vector, validated, past _PHASE_GUARDS
    a = _checked(domain.as_vector, angles)
    t = a.tolist()
    e, offsets = _phases(t, np.cos(a).tolist(), np.sin(a).tolist(), domain._vertex_sums(t))
    _raise_first(_PHASE_GUARDS, e)
    return e, offsets


def ushijima_intermediates(angles):
    """Ushijima's quantities for one 6-vector, z_j = exp(i alpha_j) (0 when
    flat), past the guards that the volume runs before any Clausen call."""
    phases, _ = _row_phases(angles)
    a, b, c, d, e, f = (cmath.exp(1j * float(x)) for x in angles)
    z = _roots(phases)
    return UshijimaIntermediates(a, b, c, d, e, f, phases.det_g, z["z1"].item(), z["z2"].item())


def ushijima_volume(angles):
    """Volume from dihedral angles; valid on the closure of the angle
    polytope, nonnegative, and continuous up to the boundary.

    (m, 6) angle rows, an ndarray or nested sequences, give an (m,) array
    of volumes from an array evaluation in blocks of rows, with the guard
    tables of the scalar path applied row by row; the first failing row
    raises EvaluationError naming that row.
    """
    if domain._ndim(angles) == 2:
        return _volume_rows(angles)
    e, offsets = _row_phases(angles)
    vol = 0.0
    if not e.flat:
        alpha_1, alpha_2 = e.alpha.tolist()
        vol = _clausen_sum([clausen(alpha_1 + s) - clausen(alpha_2 + s) for s in offsets])
    _raise_first(_VOLUME_GUARDS, e, vol)
    return max(vol, 0.0)


def _clausen_sum(d):
    # the volume from the eight Clausen differences, floats or (8, m) rows
    return 0.25 * (d[0] + d[1] + d[2] + d[3] - d[4] - d[5] - d[6] - d[7])


#: rows evaluated together, which bounds the temporaries of a large batch
#: to a few megabytes
_BLOCK_ROWS = 4096


def _volume_rows(angles):
    # _volume_columns on (m, 6) rows a block at a time, one row per column of
    # (6, m) working arrays
    rows = _checked(domain.as_rows, angles)
    vols = np.empty(len(rows))
    for first in range(0, len(rows), _BLOCK_ROWS):
        t = np.ascontiguousarray(rows[first:first + _BLOCK_ROWS].T)
        with np.errstate(over="ignore", invalid="ignore"):
            cos, sums = np.cos(t), domain._vertex_sums(t)
        vols[first:first + t.shape[1]] = _volume_columns(t, cos, sums, first)
    return vols


def _volume_columns(t, cos, sums, first):
    # the (m,) volumes of (6, m) angle columns t, given their cosines and (4, m)
    # vertex sums, by one clausen call; a failing column raises as row first + r
    with np.errstate(over="ignore", invalid="ignore"):
        e, offsets = _phases(t, cos, np.sin(t), sums)
    _raise_first(_PHASE_GUARDS, e, rows=t.T, first=first)
    vol = _clausen_sum(np.subtract(*clausen(e.alpha[:, None, :] + offsets)))
    if e.flat.any():
        vol[e.flat] = 0.0
    _raise_first(_VOLUME_GUARDS, e, vol, rows=t.T, first=first)
    return np.maximum(vol, 0.0)


#: absolute error target of the quadrature in ``regular_volume_l0``
_REGULAR_QUADRATURE_TOL = 1e-9


@lru_cache(maxsize=1)
def regular_volume_l0():
    """Closed form for the volume of the regular tetrahedron of edge length
    l0: eight Lobachevsky values minus three copies of an arccosh integral."""

    def integrand(t):
        return acosh_checked(math.cos(t) / (2.0 * math.cos(t) - 1.0))

    return 8.0 * lobachevsky(math.pi / 4.0) - 3.0 * integrate(
        integrand, 0.0, math.pi / 6.0, tol=_REGULAR_QUADRATURE_TOL
    )


def truncation_area(angles):
    """Total area of the four truncation triangles: 4*pi - 2*sum(angles).

    Each dihedral angle appears as a triangle angle at both endpoints of its
    edge, hence contributes twice.
    """
    a = domain.as_vector(angles, "angles")
    return 4.0 * math.pi - 2.0 * float(a.sum())
