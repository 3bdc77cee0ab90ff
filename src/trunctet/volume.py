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

``ushijima_volume`` takes one 6-vector, evaluated in Python floats, or an
(m, 6) ndarray of rows, evaluated as arrays with one ``clausen`` call per
block of rows; the scalar form is kept because it is the cheaper one for a
single tetrahedron. Both form the phases by the same operations in the same
order, so a row's phases are the same bits either way; this matters near
the flat limit, where the denominator cancels.
"""

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import domain
from .errors import EvaluationError, InvalidArgumentError
from .indexing import OPPOSITE, OPPOSITE_FACE_EDGES, VERTEX_EDGES
# ``dilog`` is not called here; it stays a module attribute because the
# benchmark's tracer wraps ``trunctet.volume.dilog``
from .specfun import acosh_checked, clausen, dilog, integrate, lobachevsky  # noqa: F401

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

#: signs of the eight Clausen terms of each z_j
_SIGNS = np.array([1.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0, -1.0])


def _left_sum(terms):
    # terms added left to right: with elementwise operations only, one row
    # gives the same bits alone and in a batch
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


def _phase_sums(t):
    # the eight psi_k (the opposite pairs, the faces, the total T) and the
    # eight sigma_k (0, T minus each opposite pair, each vertex sum minus pi)
    # of six angles t, floats or (m,) arrays alike. A phase of pi is taken as
    # -pi, in two parts: a vertex sum near pi then gives an offset near 0
    # with no rounding of its own, where Cl2 has its steep log |t| slope
    pairs = [t[p] + t[OPPOSITE[p]] for p in range(3)]
    total = pairs[0] + pairs[1] + pairs[2]
    faces = [t[p] + t[q] + t[r] for p, q, r in OPPOSITE_FACE_EDGES]
    vertices = [t[p] + t[q] + t[r] - math.pi - _PI_LOW for p, q, r in VERTEX_EDGES]
    offsets = [0.0 * total] + [total - pair for pair in pairs] + vertices
    return pairs + faces + [total], offsets


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


def _flat(sin_sum, det_g):
    # fully flat configuration: both numerators vanish with the denominator
    # and the continuous extension of the volume is 0
    return (abs(sin_sum) < 1e-9) & (abs(det_g) < 1e-9)


_VANISHING = "degenerate configuration: vanishing denominator in the volume formula"


def _alpha(sin_sum, re, im, root):
    # (2, ...): the phases of z_j = -2 (S -+ i sqrt(-det G)) / denominator,
    # as arg((-S +- i root) conj(denominator)) in one arctan2 each, so that
    # they carry one rounding of (-pi, pi] rather than the difference of two
    # angles; root is sqrt(max(-det G, 0)), 0 where rounding makes det G > 0
    s_re, s_im, r_re, r_im = sin_sum * re, sin_sum * im, root * re, root * im
    return np.arctan2(np.array([s_im + r_re, s_im - r_re]), np.array([r_im - s_re, -r_im - s_re]))


def _phases(angles):
    # det G, the phases (alpha_1, alpha_2) of z_1, z_2 (None on a flat row)
    # and the eight offsets sigma_k of one 6-vector, by the operations of
    # _volume_block on one row; its transcendental functions are numpy's,
    # since libm's may differ in the last bit
    t = np.array(angles, dtype=float)
    cos, sin = np.cos(t).tolist(), np.sin(t).tolist()
    det_g = _gram_det_fast(*cos)
    sin_sum = sin[0] * sin[3] + sin[1] * sin[4] + sin[2] * sin[5]
    psi, offsets = _phase_sums(t.tolist())
    denom = complex(_left_sum(np.cos(psi).tolist()), _left_sum(np.sin(psi).tolist()))
    if abs(denom) < _DENOMINATOR_GUARD:
        if _flat(sin_sum, det_g):
            return det_g, None, offsets
        raise EvaluationError(
            _VANISHING,
            diagnostics={"detG": det_g, "denominator": denom, "sin_sum": sin_sum},
        )
    alpha = _alpha(sin_sum, denom.real, denom.imag, math.sqrt(max(-det_g, 0.0)))
    return det_g, tuple(alpha.tolist()), offsets


def _arguments(alpha):
    # z_1, z_2 from their phases; 0 on a flat row
    if alpha is None:
        return 0j, 0j
    return cmath.exp(1j * alpha[0]), cmath.exp(1j * alpha[1])


def ushijima_intermediates(angles):
    """The quantities of Ushijima's formula for one 6-vector, with
    z_j = exp(i alpha_j) (both 0 on a flat configuration)."""
    det_g, alpha, _ = _phases(angles)
    a, b, c, d, e, f = (cmath.exp(1j * float(x)) for x in angles)
    return UshijimaIntermediates(a, b, c, d, e, f, det_g, *_arguments(alpha))


def ushijima_volume(angles):
    """Volume from dihedral angles; valid on the closure of the angle
    polytope, nonnegative, and continuous up to the boundary.

    An (m, 6) ndarray of angle rows gives an (m,) array of volumes from an
    array evaluation in blocks of rows, with every guard of the scalar path
    applied row by row; the first failing row raises EvaluationError naming
    that row.
    """
    if isinstance(angles, np.ndarray) and angles.ndim == 2:
        return _volume_rows(angles)
    try:
        inside = domain.in_O(angles, strict=False, tol=_CLOSURE_SLACK)
    except InvalidArgumentError as exc:
        raise EvaluationError(str(exc)) from exc
    if not inside:
        raise EvaluationError(
            f"angles {angles!r} outside the closure of the angle polytope"
        )
    det_g, alpha, offsets = _phases(angles)
    if alpha is None:
        return 0.0
    alpha_1, alpha_2 = alpha
    vol = 0.25 * sum(
        sign * (clausen(alpha_1 + sigma) - clausen(alpha_2 + sigma))
        for sign, sigma in zip(_SIGNS.tolist(), offsets)
    )
    if not math.isfinite(vol) or vol < _NEGATIVE_VOLUME_CLAMP:
        z1, z2 = _arguments(alpha)
        message = (
            "non-finite volume" if not math.isfinite(vol)
            else f"volume {vol!r} is negative beyond round-off"
        )
        raise EvaluationError(message, diagnostics={"detG": det_g, "z1": z1, "z2": z2})
    return max(vol, 0.0)


#: rows evaluated together, which bounds the temporaries of a large batch
#: to a few megabytes
_BLOCK_ROWS = 4096


def _volume_rows(angles):
    if angles.shape[1] != 6:
        raise EvaluationError(f"angles: expected (m, 6) rows, got shape {angles.shape}")
    rows = np.asarray(angles, dtype=float)
    vols = np.empty(len(rows))
    for first in range(0, len(rows), _BLOCK_ROWS):
        block = slice(first, first + _BLOCK_ROWS)
        vols[block] = _volume_block(rows[block], first)
    return vols


def _volume_block(rows, first):
    # _phases, the Clausen sum and the scalar guards on (m, 6) rows, one row
    # per column of the (6, m) working arrays; the 16 phases of all rows go
    # to one clausen call
    def check(bad, message, **diagnostics):
        if bad.any():
            row = int(np.flatnonzero(bad)[0])
            raise EvaluationError(
                f"row {first + row}, angles {rows[row]!r}: {message}",
                diagnostics={"row": first + row,
                             **{k: v[row].item() for k, v in diagnostics.items()}},
            )

    check(~np.isfinite(rows).all(axis=1), "non-finite angles")
    inside = domain.in_O_mask(rows, strict=False, tol=_CLOSURE_SLACK)
    check(~inside, "outside the closure of the angle polytope")

    t = np.ascontiguousarray(rows.T)
    cos, sin = np.cos(t), np.sin(t)
    det_g = _gram_det_fast(*cos)
    sin_sum = sin[0] * sin[3] + sin[1] * sin[4] + sin[2] * sin[5]
    psi, offsets = _phase_sums(t)
    psi = np.array(psi)
    re, im = _left_sum(np.cos(psi)), _left_sum(np.sin(psi))
    vanishing = np.hypot(re, im) < _DENOMINATOR_GUARD
    flat = vanishing & _flat(sin_sum, det_g)
    check(vanishing & ~flat, _VANISHING,
          detG=det_g, denominator=re + 1j * im, sin_sum=sin_sum)

    alpha = _alpha(sin_sum, re, im, np.sqrt(np.maximum(-det_g, 0.0)))
    cl = clausen(alpha[:, None, :] + np.array(offsets))
    vol = 0.25 * (_SIGNS @ (cl[0] - cl[1]))
    # flat rows: the volume is its continuous extension 0
    vol[flat] = 0.0
    bad = ~np.isfinite(vol) | (vol < _NEGATIVE_VOLUME_CLAMP)
    if bad.any():
        z = np.exp(1j * alpha)
        z[:, flat] = 0.0
        diagnostics = {"detG": det_g, "z1": z[0], "z2": z[1]}
        check(~np.isfinite(vol), "non-finite volume", **diagnostics)
        check(vol < _NEGATIVE_VOLUME_CLAMP, "volume is negative beyond round-off",
              volume=vol, **diagnostics)
    return np.maximum(vol, 0.0)


@lru_cache(maxsize=1)
def regular_volume_l0(tol=1e-9):
    """Closed form for the volume of the regular tetrahedron of edge length
    l0: eight Lobachevsky values minus three copies of an arccosh integral."""

    def integrand(t):
        return acosh_checked(math.cos(t) / (2.0 * math.cos(t) - 1.0))

    return 8.0 * lobachevsky(math.pi / 4.0) - 3.0 * integrate(
        integrand, 0.0, math.pi / 6.0, tol=tol
    )


def truncation_area(angles):
    """Total area of the four truncation triangles: 4*pi - 2*sum(angles).

    Each dihedral angle appears as a triangle angle at both endpoints of its
    edge, hence contributes twice.
    """
    a = domain.as_vector(angles, "angles")
    return 4.0 * math.pi - 2.0 * float(a.sum())
