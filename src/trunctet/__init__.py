"""Numerics for compact truncated hyperbolic tetrahedra.

Angle/length chart conversions, dilogarithm-based volumes, volume gradients
in both charts, an edge-shrinking deformation flow, and randomized
verification campaigns for extremal volume statements.
"""

from .convert import (
    angles_to_lengths,
    angles_to_lengths_batch,
    in_L,
    lengths_to_angles,
    lengths_to_angles_batch,
)
from .domain import (
    ALL_PERMUTATIONS,
    acute_constraints_hold,
    in_O,
    permutation_moving_edge_to_front,
    permute,
    vertex_sums,
)
from .errors import (
    AccuracyError,
    DomainError,
    EvaluationError,
    InconsistencyError,
    InvalidArgumentError,
    NearDegenerateError,
    NotATetrahedronError,
    NotInClosureError,
    SamplingError,
    TruncTetError,
)
from .extremal import (
    Trajectory,
    VerificationReport,
    conjecture_prima2_test,
    conjecture_prima_test,
    deformation_flow,
    degeneration_path,
    regular_volume_scan,
    sample_T_ell,
    verify_fixed_angle_sum,
    verify_theorem,
)
from .schlafli import (
    dvol_dangles,
    dvol_dlengths,
    empirical_k,
    jacobian_angles_of_lengths,
    jacobian_lengths_of_angles,
    key_bracket,
    lemma_gaps,
    tecnicofinale_gap,
)
from .specfun import dilog, integrate, lobachevsky
from .tetra import (
    THETA_MAX,
    Tetrahedron,
    regular_from_angle,
    regular_from_length,
    sample_O,
    sample_O_batch,
)
from .volume import (
    COSH_L0,
    L0,
    gram,
    gram_det,
    regular_volume_l0,
    truncation_area,
    ushijima_intermediates,
    ushijima_volume,
)

__all__ = [
    "ALL_PERMUTATIONS",
    "AccuracyError",
    "COSH_L0",
    "DomainError",
    "EvaluationError",
    "InconsistencyError",
    "InvalidArgumentError",
    "L0",
    "NearDegenerateError",
    "NotATetrahedronError",
    "NotInClosureError",
    "SamplingError",
    "THETA_MAX",
    "Tetrahedron",
    "Trajectory",
    "TruncTetError",
    "VerificationReport",
    "acute_constraints_hold",
    "angles_to_lengths",
    "angles_to_lengths_batch",
    "conjecture_prima2_test",
    "conjecture_prima_test",
    "deformation_flow",
    "degeneration_path",
    "dilog",
    "dvol_dangles",
    "dvol_dlengths",
    "empirical_k",
    "gram",
    "gram_det",
    "in_L",
    "in_O",
    "integrate",
    "jacobian_angles_of_lengths",
    "jacobian_lengths_of_angles",
    "key_bracket",
    "lemma_gaps",
    "lengths_to_angles",
    "lengths_to_angles_batch",
    "lobachevsky",
    "permutation_moving_edge_to_front",
    "permute",
    "regular_from_angle",
    "regular_from_length",
    "regular_volume_l0",
    "regular_volume_scan",
    "sample_O",
    "sample_O_batch",
    "sample_T_ell",
    "tecnicofinale_gap",
    "truncation_area",
    "ushijima_intermediates",
    "ushijima_volume",
    "verify_fixed_angle_sum",
    "verify_theorem",
    "vertex_sums",
]

__version__ = "1.0.0"
