"""Volume gradients in both charts and the trigonometric expressions that
control the sign of the length-derivative along a maximal edge.

The angle-chart gradient is closed form (d vol = -1/2 * sum l_ij d theta_ij,
Schlafli's formula). The length-chart gradient chains it with the exact
Jacobian d theta / d l, from the same kernel pass as the angles. The
kernel's formulas are written once in ``convert`` and evaluated two ways:
on one tetrahedron in Python floats, and on (..., 6) arrays in bulk
(``convert.angles_jacobian``), with the same bits on every row. With
``check`` set, that Jacobian is validated against the inverse of
``jacobian_lengths_of_angles``, from the same kernel on the angle tables, at
the angles instead of the lengths. The sign conditions at a maximal edge
(``key_bracket``, ``tecnicofinale_gap``, ``lemma_gaps``) read one set of
trigonometric terms, formed once by ``_terms``.
"""

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import convert, domain, volume
from .errors import InconsistencyError, NearDegenerateError

JACOBIAN_CONSISTENCY_TOL = 1e-6
CONDITION_LIMIT = 1e10


@dataclass(frozen=True)
class GradientVector:
    """Six gradient components in the edge ordering, tagged by chart."""

    values: tuple
    chart: str  # "angles" or "lengths"

    def __getitem__(self, pos):
        return self.values[pos]

    def as_array(self):
        return np.asarray(self.values)


def dvol_dangles(tet):
    """Gradient of volume in the angle chart: component ij is -l_ij / 2."""
    return GradientVector(tuple(-0.5 * l for l in tet.lengths), "angles")


def volume_of_lengths(lengths):
    """Volume as a function of edge lengths (composition through angles)."""
    return volume.ushijima_volume(convert.lengths_to_angles(lengths))


def _finite(jac, what, x):
    # the kernels return inf or NaN where a sine or sinh vanishes
    if not np.isfinite(jac).all():
        raise NearDegenerateError(f"{what} Jacobian is not finite at {x!r}")
    return jac


def jacobian_lengths_of_angles(angles):
    """Matrix with entry (ij, hk) = d l_ij / d theta_hk, in closed form.

    Outside the angle polytope the conversion's typed errors are raised;
    where the Jacobian is not finite, NearDegenerateError.
    """
    a = domain.as_vector(angles, "angles")
    kernel = convert._cosh_lengths_grad
    _, jac = convert._guarded(convert._ANGLE_GUARDS, kernel, convert._arccosh, a)
    return _finite(jac, "length/angle", a)


def jacobian_angles_of_lengths(lengths, check=True):
    """Matrix with entry (ij, hk) = d theta_ij / d l_hk, in closed form.

    One pass of the length -> angle kernel gives the Jacobian together with
    the angles, and with them the typed errors ``lengths_to_angles`` raises
    outside the length chart; where the Jacobian is not finite,
    NearDegenerateError. When ``check`` is set the result is validated
    against the inverse of the opposite-direction Jacobian, computed
    independently from the angles (chain rule), and rejected when the
    product strays from the identity or the matrix is too ill-conditioned.
    """
    l = domain.as_vector(lengths, "lengths")
    angles, jac = _angles_and_jacobian(l)
    if check:
        cond = np.linalg.cond(jac)
        if not np.isfinite(cond) or cond > CONDITION_LIMIT:
            raise NearDegenerateError(
                f"angle/length Jacobian condition number {cond:.3g} exceeds "
                f"{CONDITION_LIMIT:.0e}"
            )
        product = jac @ jacobian_lengths_of_angles(angles)
        defect = np.max(np.abs(product - np.eye(6)))
        if defect > JACOBIAN_CONSISTENCY_TOL:
            raise InconsistencyError(
                f"Jacobian inverse-consistency defect {defect:.3g} exceeds "
                f"{JACOBIAN_CONSISTENCY_TOL}"
            )
    return jac


def _angles_and_jacobian(l):
    # one pass of the length kernel on a validated 6-vector: the angles and
    # the finite Jacobian, or the typed errors of lengths_to_angles
    angles, jac = convert._row_angles(convert._cos_angles_grad, l)
    return angles, _finite(jac, "angle/length", l)


def dvol_dlengths(tet):
    """Gradient of volume in the length chart:
    component ij = -1/2 * sum_kl l_kl * d theta_kl / d l_ij."""
    l = domain.as_vector(tet.lengths, "lengths")
    _, jac = _angles_and_jacobian(l)
    return GradientVector(tuple([-0.5 * v for v in (l @ jac).tolist()]), "lengths")


_Terms = namedtuple("_Terms", "c13 c14 c24 c23 paired lhs cross rhs chord")


def _terms(t12, t13, t14, t34, t24, t23):
    # the cosines and sums of the three certificates once, added in the order
    # that keeps each bitwise as written out: paired = c12 (c13 c23 + c14 c24),
    # the final inequality's sides lhs = paired + c13 c24 + c14 c23 (left to
    # right) and rhs = s12 (sin(t13 + t23) + sin(t14 + t24)), the cross sum
    # c13 c24 + c14 c23 and the chord 2 sin(t12 / 2)
    c12, c13, c14 = math.cos(t12), math.cos(t13), math.cos(t14)
    c24, c23 = math.cos(t24), math.cos(t23)
    paired = c12 * (c13 * c23 + c14 * c24)
    c13_c24, c14_c23 = c13 * c24, c14 * c23
    rhs = math.sin(t12) * (math.sin(t13 + t23) + math.sin(t14 + t24))
    return _Terms(c13, c14, c24, c23, paired, paired + c13_c24 + c14_c23, c13_c24 + c14_c23,
                  rhs, 2.0 * math.sin(0.5 * t12))


def key_bracket(tet):
    """The bracket whose sign is opposite to that of d vol / d l_12.

    Positive bracket at a maximal edge 12 certifies that shrinking the edge
    increases the volume.
    """
    k = _terms(*tet.angles)
    s12, s13, s14, s34, s24, s23 = map(math.sin, tet.angles)
    l12, l13, l14, l34, l24, l23 = tet.lengths
    return (
        l12 * k.lhs
        - l13 * s12 * s13 * k.c23
        - l14 * s12 * s14 * k.c24
        + l34 * s12 * s34
        - l24 * s12 * s24 * k.c14
        - l23 * s12 * s23 * k.c13
    )


def tecnicofinale_gap(angles):
    """Left minus right side of the final trigonometric inequality; it is
    nonnegative whenever the volume is at least vol of the regular
    tetrahedron of edge length l0."""
    k = _terms(*domain.as_vector(angles, "angles").tolist())
    return k.lhs - k.rhs


def lemma_gaps(angles):
    """Slack of the three auxiliary estimates backing the final inequality.

    Returns (g1, g2, g3):
      g1: cos13 cos24 + cos14 cos23 - 2 sin(theta12 / 2)
      g2: cos13 cos24 + cos14 cos23 - (1 - sin(pi/12))
      g3: cos12 (cos13 cos23 + cos14 cos24)
          - sin12 (sin(13+23) + sin(14+24)) + 2 sin(theta12 / 2)
    """
    k = _terms(*domain.as_vector(angles, "angles").tolist())
    g2 = k.cross - (1.0 - math.sin(math.pi / 12.0))
    return k.cross - k.chord, g2, k.paired - k.rhs + k.chord


def empirical_k(tet):
    """Estimate of the negative proportionality constant relating the
    length-derivative along edge 12 to the bracket; recorded, not asserted."""
    bracket = key_bracket(tet)
    if bracket == 0.0:
        return float("nan")
    return dvol_dlengths(tet)[0] / bracket
