"""Detection-efficiency thresholds for tripartite genuine-nonlocality tests.

The package computes, for three-party Bell experiments with inefficient
detectors (no-click recorded as outcome 1), the cutoff efficiencies at
which fixed quantum settings certify genuine nonlocality, the minimum
efficiencies over all settings, white-noise robustness sweeps, and exact
brute-force verification of the classical bounds.

The public names are loaded lazily (PEP 562): ``import tribell`` imports
no numeric module, so the command line can reject malformed input before
numpy loads.  The first read of a name imports the module that defines it.
"""

import importlib

__version__ = "0.1.0"

# public name -> the module that defines it
_EXPORTS = {
    "BehaviorTensor": "qcore",
    "BilocalVertex": "polytope",
    "CrossCheckError": "errors",
    "DegenerateCoefficientsError": "errors",
    "DensityMatrix": "qcore",
    "EfficiencyTriple": "inputs",
    "GHZ_OPTIMAL_AZIMUTHS": "families",
    "InequalityValue": "inequality",
    "MarginalInconsistencyError": "errors",
    "NoViolationError": "errors",
    "NoiseLevel": "inputs",
    "NormalizationError": "errors",
    "PureState": "qcore",
    "QubitMeasurement": "qcore",
    "SearchConfig": "inputs",
    "SearchFailureError": "errors",
    "SearchResult": "search",
    "SettingsParameterization": "search",
    "SettingsTriple": "qcore",
    "SvetlichnyCoefficients": "inequality",
    "SweepRow": "search",
    "T2Vertex": "polytope",
    "ThetaSetting": "families",
    "TribellError": "errors",
    "behavior_from_settings": "qcore",
    "classical_max": "polytope",
    "critical_third_efficiency": "inequality",
    "density_from_pure": "qcore",
    "efficiencies_admit_violation": "inequality",
    "enumerate_svetlichny_vertices": "polytope",
    "enumerate_t2_vertices": "polytope",
    "ghz_setting": "families",
    "ghz_state": "families",
    "minimize_svetlichny_cutoff": "search",
    "minimize_t2_cutoff": "search",
    "mix_white_noise": "families",
    "noisy_t2_min_efficiency": "search",
    "observe": "detector",
    "projector": "qcore",
    "svetlichny_coefficients": "inequality",
    "svetlichny_corr_value": "inequality",
    "svetlichny_cutoff": "inequality",
    "sweep_t2_noise": "search",
    "t2_cutoff_symmetric": "inequality",
    "t2_triple_and_pair_sums": "inequality",
    "t2_value": "inequality",
    "theta_measurements": "families",
    "theta_state": "families",
    "theta_violation_threshold": "inequality",
    "uniform_behavior": "qcore",
    "vertex_to_behavior": "polytope",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)
