"""mmlab: a numerical laboratory for the matrix-mechanics quantum condition.

Builds coordinate/momentum matrix pairs for 1-D bound systems, evaluates the
competing formulations of the quantum condition on them, and cross-checks the
results against classical periodic-orbit quantities.
"""

from .classical import (
    ClassicalOrbit,
    CorrespondenceReport,
    CorrespondenceRow,
    QuantizationResult,
    action_direct,
    action_from_fourier,
    correspondence_report,
    orbit_fourier,
    orbit_period,
    quantize,
    turning_points,
)
from .conditions import (
    ConditionReport,
    ConditionRow,
    born_jordan_sum,
    commutator,
    commutator_diagonal_sum,
    full_report,
    heisenberg_sum,
    impose_heisenberg_reality,
    loop_integral_diagonal,
    loop_integral_state_difference,
    modified_sum,
    nearest_neighbor_rewrite,
)
from .errors import NumericalError, UnsupportedTopologyError
from .jacobi import jacobi_eigh
from .spectral import (
    AmplitudeTable,
    BandedMatrix,
    FrequencyTable,
    MatrixPair,
    PhysicalConstants,
    PolynomialPotential,
    SpectralSystem,
    build_from_potential,
    build_oscillator,
    hermiticity_defect,
    matrix_bandwidth,
    momentum_from_position,
    to_amplitude_table,
    transition_frequencies,
)

__version__ = "0.1.0"

__all__ = [
    "AmplitudeTable",
    "BandedMatrix",
    "ClassicalOrbit",
    "ConditionReport",
    "ConditionRow",
    "CorrespondenceReport",
    "CorrespondenceRow",
    "FrequencyTable",
    "MatrixPair",
    "NumericalError",
    "PhysicalConstants",
    "PolynomialPotential",
    "QuantizationResult",
    "SpectralSystem",
    "UnsupportedTopologyError",
    "action_direct",
    "action_from_fourier",
    "born_jordan_sum",
    "build_from_potential",
    "build_oscillator",
    "commutator",
    "commutator_diagonal_sum",
    "correspondence_report",
    "full_report",
    "heisenberg_sum",
    "hermiticity_defect",
    "impose_heisenberg_reality",
    "jacobi_eigh",
    "loop_integral_diagonal",
    "loop_integral_state_difference",
    "matrix_bandwidth",
    "modified_sum",
    "momentum_from_position",
    "nearest_neighbor_rewrite",
    "orbit_fourier",
    "orbit_period",
    "quantize",
    "to_amplitude_table",
    "transition_frequencies",
    "turning_points",
]
