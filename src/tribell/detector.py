"""Per-party detector-inefficiency channel.

A detector with efficiency eta fires with probability eta.  No-click events
are recorded as outcome 1, so each party's outcome passes through the
stochastic kernel K(0|0) = eta, K(1|0) = 1 - eta, K(1|1) = 1, K(0|1) = 0.
Consequently every joint probability of all-zero outcomes scales by the
product of the involved efficiencies, and the lost mass is routed to
outcome 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qcore import BehaviorTensor


@dataclass(frozen=True)
class EfficiencyTriple:
    """Detector efficiencies (eta_a, eta_b, eta_c), each in [0, 1]."""

    eta_a: float
    eta_b: float
    eta_c: float

    def __post_init__(self):
        for name, eta in zip(("eta_a", "eta_b", "eta_c"), self.as_tuple()):
            if not 0.0 <= eta <= 1.0:
                raise ValueError(f"{name} = {eta} is outside [0, 1]")

    @classmethod
    def symmetric(cls, eta: float) -> "EfficiencyTriple":
        return cls(eta, eta, eta)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.eta_a, self.eta_b, self.eta_c)


def observe(ideal: BehaviorTensor, etas: EfficiencyTriple) -> BehaviorTensor:
    """Apply the inefficiency channel independently per party."""
    probs = observed_probabilities(ideal.probs, etas.as_tuple())
    return BehaviorTensor(probs)


def observed_probabilities(probs: np.ndarray, etas) -> np.ndarray:
    """Channel on a raw probability array; hot path for root finding.

    ``probs`` has shape ``(..., 2, 2, 2, 2, 2, 2)``: one behavior array or a
    stack of them along leading axes.  ``etas`` has shape ``(..., 3)`` and
    broadcasts against the stack, so each tensor may have its own
    efficiencies.  Party by party, outcome 0 keeps the fraction eta and
    hands 1 - eta of its mass to outcome 1.
    """
    out = np.array(probs, dtype=float)
    etas = np.asarray(etas, dtype=float)
    for party in range(3):
        # the party's outcome axis sits 6 - party axes from the end
        zero = (Ellipsis, 0) + (slice(None),) * (5 - party)
        one = (Ellipsis, 1) + (slice(None),) * (5 - party)
        eta = etas[..., party].reshape(etas.shape[:-1] + (1,) * 5)
        lost = (1.0 - eta) * out[zero]
        out[zero] *= eta
        out[one] += lost
    return out
