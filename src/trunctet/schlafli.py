"""Volume gradients in both charts and the trigonometric expressions that
control the sign of the length-derivative along a maximal edge.

The angle-chart gradient is closed form (d vol = -1/2 * sum l_ij d theta_ij,
Schlafli's formula). The length-chart gradient chains it with the Jacobian
d theta / d l, the exact derivative of the closed-form conversion in
``convert.angles_jacobian``. With ``check`` set, that Jacobian is validated
against the inverse of d l / d theta, differentiated independently from the
angle side (``convert.lengths_jacobian``).
"""

import math
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


def _exact_jacobian(kernel, x, what):
    # the kernels return inf or NaN where a sine or sinh vanishes
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        jac = kernel(x)
    if not np.isfinite(jac).all():
        raise NearDegenerateError(f"{what} Jacobian is not finite at {x!r}")
    return jac


def jacobian_lengths_of_angles(angles):
    """Matrix with entry (ij, hk) = d l_ij / d theta_hk, in closed form.

    Outside the angle polytope the conversion's typed errors are raised;
    where the Jacobian is not finite, NearDegenerateError.
    """
    a = domain.as_vector(angles, "angles")
    convert.angles_to_lengths(a)  # only for its typed errors
    return _exact_jacobian(convert.lengths_jacobian, a, "length/angle")


def jacobian_angles_of_lengths(lengths, check=True):
    """Matrix with entry (ij, hk) = d theta_ij / d l_hk, in closed form.

    When ``check`` is set the result is validated against the inverse of the
    opposite-direction Jacobian, computed independently from the angles
    (chain rule), and rejected when the product strays from the identity or
    the matrix is too ill-conditioned. Outside the length chart the
    conversion's typed errors are raised; where the Jacobian is not finite,
    NearDegenerateError.
    """
    l = domain.as_vector(lengths, "lengths")
    angles = convert.lengths_to_angles(l)
    jac = _exact_jacobian(convert.angles_jacobian, l, "angle/length")
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


def dvol_dlengths(tet, check=False):
    """Gradient of volume in the length chart:
    component ij = -1/2 * sum_kl l_kl * d theta_kl / d l_ij."""
    jac = jacobian_angles_of_lengths(tet.lengths, check=check)
    values = -0.5 * (np.asarray(tet.lengths) @ jac)
    return GradientVector(tuple(values), "lengths")


def key_bracket(tet):
    """The bracket whose sign is opposite to that of d vol / d l_12.

    Positive bracket at a maximal edge 12 certifies that shrinking the edge
    increases the volume.
    """
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


def tecnicofinale_gap(angles):
    """Left minus right side of the final trigonometric inequality; it is
    nonnegative whenever the volume is at least vol of the regular
    tetrahedron of edge length l0."""
    a = domain.as_vector(angles, "angles")
    t12, t13, t14, _, t24, t23 = a
    lhs = (
        math.cos(t12) * (math.cos(t13) * math.cos(t23) + math.cos(t14) * math.cos(t24))
        + math.cos(t13) * math.cos(t24)
        + math.cos(t14) * math.cos(t23)
    )
    rhs = math.sin(t12) * (math.sin(t13 + t23) + math.sin(t14 + t24))
    return lhs - rhs


def lemma_gaps(angles):
    """Slack of the three auxiliary estimates backing the final inequality.

    Returns (g1, g2, g3):
      g1: cos13 cos24 + cos14 cos23 - 2 sin(theta12 / 2)
      g2: cos13 cos24 + cos14 cos23 - (1 - sin(pi/12))
      g3: cos12 (cos13 cos23 + cos14 cos24)
          - sin12 (sin(13+23) + sin(14+24)) + 2 sin(theta12 / 2)
    """
    a = domain.as_vector(angles, "angles")
    t12, t13, t14, _, t24, t23 = a
    cross = math.cos(t13) * math.cos(t24) + math.cos(t14) * math.cos(t23)
    g1 = cross - 2.0 * math.sin(0.5 * t12)
    g2 = cross - (1.0 - math.sin(math.pi / 12.0))
    g3 = (
        math.cos(t12) * (math.cos(t13) * math.cos(t23) + math.cos(t14) * math.cos(t24))
        - math.sin(t12) * (math.sin(t13 + t23) + math.sin(t14 + t24))
        + 2.0 * math.sin(0.5 * t12)
    )
    return g1, g2, g3


def empirical_k(tet):
    """Estimate of the negative proportionality constant relating the
    length-derivative along edge 12 to the bracket; recorded, not asserted."""
    bracket = key_bracket(tet)
    if bracket == 0.0:
        return float("nan")
    return dvol_dlengths(tet)[0] / bracket
