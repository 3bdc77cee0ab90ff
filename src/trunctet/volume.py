"""Volume of a compact truncated tetrahedron from its dihedral angles.

The main evaluator is the dilogarithm formula of Ushijima: from the Gram
matrix of the configuration one builds two complex arguments z1, z2 and the
volume is Im(U(z1) - U(z2))/2 where U is an eight-term dilogarithm sum. The
formula extends continuously to the closure of the angle polytope, which is
what makes boundary evaluations (flat degenerations, ideal limits)
meaningful.

``ushijima_volume`` takes one 6-vector, evaluated in plain Python complex
arithmetic, or an (m, 6) ndarray of rows, evaluated as arrays with one
``dilog`` call for the 16 dilogarithms of every row of a block of rows; the
scalar form is kept because it is the cheaper one for a single tetrahedron.
"""

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import domain
from .errors import EvaluationError, InvalidArgumentError
from .specfun import acosh_checked, dilog, integrate, lobachevsky

#: cosh of the edge length of the regular tetrahedron with all angles pi/6
COSH_L0 = (3.0 + math.sqrt(3.0)) / 4.0

#: edge length of the regular tetrahedron with all angles pi/6
L0 = math.acosh(COSH_L0)

_DENOMINATOR_GUARD = 1e-14
_NEGATIVE_VOLUME_CLAMP = -1e-9

#: slack of the closure test; the formula is analytic slightly past the boundary
_CLOSURE_SLACK = 1e-6


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


def _det3(a11, a12, a13, a21, a22, a23, a31, a32, a33):
    return (
        a11 * (a22 * a33 - a23 * a32)
        - a12 * (a21 * a33 - a23 * a31)
        + a13 * (a21 * a32 - a22 * a31)
    )


def _gram_det_fast(c12, c13, c14, c34, c24, c23):
    # cofactor expansion of the 4x4 Gram determinant along the first row;
    # entries are bounded by 1 so no pivoting concerns arise
    return (
        _det3(1.0, -c14, -c24, -c14, 1.0, -c34, -c24, -c34, 1.0)
        + c12 * _det3(-c12, -c14, -c24, -c13, 1.0, -c34, -c23, -c34, 1.0)
        - c13 * _det3(-c12, 1.0, -c24, -c13, -c14, -c34, -c23, -c24, 1.0)
        + c23 * _det3(-c12, 1.0, -c14, -c13, -c14, 1.0, -c23, -c24, -c34)
    )


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


def ushijima_intermediates(angles):
    t12, t13, t14, t34, t24, t23 = (float(t) for t in angles)
    a = cmath.exp(1j * t12)
    b = cmath.exp(1j * t13)
    c = cmath.exp(1j * t14)
    d = cmath.exp(1j * t34)
    e = cmath.exp(1j * t24)
    f = cmath.exp(1j * t23)
    det_g = _gram_det_fast(a.real, b.real, c.real, d.real, e.real, f.real)
    sin_sum = a.imag * d.imag + b.imag * e.imag + c.imag * f.imag
    # principal square root: i*sqrt(|det G|) for the compact case det G < 0
    sqrt_det = cmath.sqrt(complex(det_g, 0.0))
    denom = a * d + b * e + c * f + a * b * f + a * c * e + b * c * d + d * e * f + a * b * c * d * e * f
    if abs(denom) < _DENOMINATOR_GUARD:
        if abs(sin_sum) < 1e-9 and abs(det_g) < 1e-9:
            # fully flat configuration: both numerators vanish with the
            # denominator and the continuous extension of the volume is 0
            return UshijimaIntermediates(a, b, c, d, e, f, det_g, 0j, 0j)
        raise EvaluationError(
            "degenerate configuration: vanishing denominator in the volume formula",
            diagnostics={"detG": det_g, "denominator": denom, "sin_sum": sin_sum},
        )
    z1 = -2.0 * (sin_sum - sqrt_det) / denom
    z2 = -2.0 * (sin_sum + sqrt_det) / denom
    return UshijimaIntermediates(a, b, c, d, e, f, det_g, z1, z2)


def _u_term(inter, z):
    a, b, c, d, e, f = inter.a, inter.b, inter.c, inter.d, inter.e, inter.f
    return 0.5 * (
        dilog(z)
        + dilog(a * b * d * e * z)
        + dilog(a * c * d * f * z)
        + dilog(b * c * e * f * z)
        - dilog(-a * b * c * z)
        - dilog(-a * e * f * z)
        - dilog(-b * d * f * z)
        - dilog(-c * d * e * z)
    )


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
    inter = ushijima_intermediates(angles)
    if inter.z1 == 0 and inter.z2 == 0:
        return 0.0
    vol = 0.5 * (_u_term(inter, inter.z1) - _u_term(inter, inter.z2)).imag
    if not math.isfinite(vol):
        raise EvaluationError(
            "non-finite volume",
            diagnostics={"detG": inter.det_gram, "z1": inter.z1, "z2": inter.z2},
        )
    if vol < _NEGATIVE_VOLUME_CLAMP:
        raise EvaluationError(
            f"volume {vol!r} is negative beyond round-off",
            diagnostics={"detG": inter.det_gram, "z1": inter.z1, "z2": inter.z2},
        )
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
    # ushijima_intermediates, _u_term and the scalar guards on (m, 6) rows,
    # in the same order of operations; the 16 dilogarithm arguments of all
    # rows go to one dilog call
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

    cos, sin = np.cos(rows), np.sin(rows)
    a, b, c, d, e, f = (cos + 1j * sin).T
    det_g = _gram_det_fast(*cos.T)
    sin_sum = sin[:, 0] * sin[:, 3] + sin[:, 1] * sin[:, 4] + sin[:, 2] * sin[:, 5]
    sqrt_det = np.sqrt(det_g + 0j)
    denom = a * d + b * e + c * f + a * b * f + a * c * e + b * c * d + d * e * f + a * b * c * d * e * f
    vanishing = np.abs(denom) < _DENOMINATOR_GUARD
    flat = vanishing & (np.abs(sin_sum) < 1e-9) & (np.abs(det_g) < 1e-9)
    check(
        vanishing & ~flat,
        "degenerate configuration: vanishing denominator in the volume formula",
        detG=det_g, denominator=denom, sin_sum=sin_sum,
    )
    # flat rows: both numerators vanish with the denominator, z1 = z2 = 0
    # and the volume is its continuous extension 0
    denom[flat] = 1.0
    z = -2.0 * np.stack([sin_sum - sqrt_det, sin_sum + sqrt_det], axis=1) / denom[:, None]
    z[flat] = 0.0

    factors = np.stack(
        [np.ones_like(a), a * b * d * e, a * c * d * f, b * c * e * f,
         -a * b * c, -a * e * f, -b * d * f, -c * d * e],
        axis=1,
    )
    li = dilog(z[:, :, None] * factors[:, None, :]).imag
    u = 0.5 * (li[..., 0] + li[..., 1] + li[..., 2] + li[..., 3]
               - li[..., 4] - li[..., 5] - li[..., 6] - li[..., 7])
    vol = 0.5 * (u[:, 0] - u[:, 1])
    diagnostics = {"detG": det_g, "z1": z[:, 0], "z2": z[:, 1]}
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
