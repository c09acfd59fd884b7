"""Detection-efficiency thresholds for tripartite genuine-nonlocality tests.

The package computes, for three-party Bell experiments with inefficient
detectors (no-click recorded as outcome 1), the cutoff efficiencies at
which fixed quantum settings certify genuine nonlocality, the minimum
efficiencies over all settings, white-noise robustness sweeps, and exact
brute-force verification of the classical bounds.
"""

from .detector import EfficiencyTriple, observe
from .errors import (
    CrossCheckError,
    DegenerateCoefficientsError,
    MarginalInconsistencyError,
    NormalizationError,
    NoViolationError,
    SearchFailureError,
    TribellError,
)
from .families import (
    GHZ_OPTIMAL_AZIMUTHS,
    NoiseLevel,
    ThetaSetting,
    ghz_setting,
    ghz_state,
    mix_white_noise,
    theta_measurements,
    theta_state,
)
from .inequality import (
    InequalityValue,
    SvetlichnyCoefficients,
    critical_third_efficiency,
    efficiencies_admit_violation,
    svetlichny_coefficients,
    svetlichny_corr_value,
    svetlichny_cutoff,
    t2_cutoff_symmetric,
    t2_value,
    theta_violation_threshold,
)
from .polytope import (
    BilocalVertex,
    T2Vertex,
    classical_max,
    enumerate_svetlichny_vertices,
    enumerate_t2_vertices,
    vertex_to_behavior,
)
from .qcore import (
    BehaviorTensor,
    DensityMatrix,
    PureState,
    QubitMeasurement,
    SettingsTriple,
    behavior_from_settings,
    density_from_pure,
    projector,
    uniform_behavior,
)
from .search import (
    SearchConfig,
    SearchResult,
    SettingsParameterization,
    SweepRow,
    minimize_svetlichny_cutoff,
    minimize_t2_cutoff,
    noisy_t2_min_efficiency,
    sweep_t2_noise,
)

__version__ = "0.1.0"

__all__ = [
    "BehaviorTensor",
    "BilocalVertex",
    "CrossCheckError",
    "DegenerateCoefficientsError",
    "DensityMatrix",
    "EfficiencyTriple",
    "GHZ_OPTIMAL_AZIMUTHS",
    "InequalityValue",
    "MarginalInconsistencyError",
    "NoViolationError",
    "NoiseLevel",
    "NormalizationError",
    "PureState",
    "QubitMeasurement",
    "SearchConfig",
    "SearchFailureError",
    "SearchResult",
    "SettingsParameterization",
    "SettingsTriple",
    "SvetlichnyCoefficients",
    "SweepRow",
    "T2Vertex",
    "ThetaSetting",
    "TribellError",
    "behavior_from_settings",
    "classical_max",
    "critical_third_efficiency",
    "density_from_pure",
    "efficiencies_admit_violation",
    "enumerate_svetlichny_vertices",
    "enumerate_t2_vertices",
    "ghz_setting",
    "ghz_state",
    "minimize_svetlichny_cutoff",
    "minimize_t2_cutoff",
    "mix_white_noise",
    "noisy_t2_min_efficiency",
    "observe",
    "projector",
    "svetlichny_coefficients",
    "svetlichny_corr_value",
    "svetlichny_cutoff",
    "sweep_t2_noise",
    "t2_cutoff_symmetric",
    "t2_value",
    "theta_measurements",
    "theta_state",
    "theta_violation_threshold",
    "uniform_behavior",
    "vertex_to_behavior",
]
