"""Construction of the package's value types by field name.

Each type is built once with keywords and once positionally in field
order; both must hold the given values, and the documented defaults must
apply.
"""

import numpy as np
import pytest

from tribell.cli import SettingsSpec
from tribell.detector import EfficiencyTriple
from tribell.families import NoiseLevel, ThetaSetting, theta_measurements, theta_state
from tribell.inequality import InequalityValue, SvetlichnyCoefficients
from tribell.polytope import BilocalVertex, T2Vertex
from tribell.qcore import (
    BehaviorTensor,
    DensityMatrix,
    PureState,
    QubitMeasurement,
    SettingsTriple,
)
from tribell.search import (
    LocalMinimum,
    SearchConfig,
    SearchResult,
    SettingsParameterization,
    SweepRow,
)

STATE = theta_state(ThetaSetting(0.3))
SETTINGS = theta_measurements(ThetaSetting(0.3))
M0, M1 = QubitMeasurement(0.0), QubitMeasurement(0.6, 0.2)
PARAMS = SettingsParameterization.from_quantum(STATE, SETTINGS)

# each type with one value per field, in field order
FIELDS = [
    (PureState, {"amplitudes": STATE.amplitudes}),
    (DensityMatrix, {"matrix": np.eye(8) / 8}),
    (QubitMeasurement, {"polar": 0.6, "azimuth": 0.2}),
    (SettingsTriple, {"a": (M0, M1), "b": (M1, M0), "c": (M0, M0)}),
    (BehaviorTensor, {"probs": np.full((2,) * 6, 0.125)}),
    (EfficiencyTriple, {"eta_a": 0.9, "eta_b": 0.8, "eta_c": 0.7}),
    (ThetaSetting, {"theta": 0.3}),
    (NoiseLevel, {"p": 0.01}),
    (InequalityValue, {"value": 0.25, "violated": True}),
    (SvetlichnyCoefficients, {"alpha": -0.5, "beta": 1.0, "gamma": 0.25}),
    (BilocalVertex, {"partition": "AC|B", "pair_outputs": (((0, 1), (1, 0)), ((1, 1), (0, 0))),
                     "solo_outputs": (1, 0)}),
    (T2Vertex, {"partition": "BC|A", "past_is_first": False, "past_outputs": (0, 1),
                "future_outputs": ((1, 0), (0, 0)), "solo_outputs": (1, 1)}),
    (SettingsParameterization, {"state_coords": PARAMS.state_coords,
                                "measurement_angles": PARAMS.measurement_angles}),
    (SearchConfig, {"restarts": 3, "seed": 5, "max_iterations": 40}),
    (SearchResult, {"best_eta": 0.75, "best_settings": PARAMS, "restart_values": (0.75, 1.2),
                    "violating_restarts": 1, "nfev": (10, 12), "nit": (4, 5),
                    "status": ("converged", "stalled"), "restart_s": (0.01, 0.02)}),
    (SweepRow, {"theta": 0.3, "p": 0.01, "eta_min": None}),
    (LocalMinimum, {"x": np.zeros(12), "fun": 0.8, "nfev": 7, "nit": 3, "status": "budget"}),
    (SettingsSpec, {"state": STATE, "settings": SETTINGS, "noise": NoiseLevel(0.0),
                    "etas": None, "payload": {"family": {"name": "theta"}}}),
]


def _same(got, want) -> bool:
    if isinstance(want, np.ndarray):
        return np.array_equal(got, want)
    return got is want or got == want


@pytest.mark.parametrize("cls, fields", FIELDS, ids=[cls.__name__ for cls, _ in FIELDS])
def test_keyword_and_positional_construction(cls, fields):
    for value in (cls(**fields), cls(*fields.values())):
        for name, want in fields.items():
            assert _same(getattr(value, name), want), name


def test_defaults():
    assert QubitMeasurement(polar=0.6).azimuth == 0.0
    cfg = SearchConfig(restarts=1)
    assert (cfg.seed, cfg.max_iterations) == (0, 6000)


def test_validated_arrays_are_read_only():
    for array in (PureState(STATE.amplitudes).amplitudes, DensityMatrix(np.eye(8) / 8).matrix,
                  BehaviorTensor(np.full((2,) * 6, 0.125)).probs, PARAMS.state_coords,
                  PARAMS.measurement_angles):
        assert not array.flags.writeable
