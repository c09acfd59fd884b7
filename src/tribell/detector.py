"""Per-party detector-inefficiency channel.

A detector with efficiency eta fires with probability eta.  No-click events
are recorded as outcome 1, so each party's outcome passes through the
stochastic kernel K(0|0) = eta, K(1|0) = 1 - eta, K(1|1) = 1, K(0|1) = 0.
Consequently every joint probability of all-zero outcomes scales by the
product of the involved efficiencies, and the lost mass is routed to
outcome 1.
"""

from __future__ import annotations

import numpy as np

from .inputs import EfficiencyTriple
from .qcore import BehaviorTensor


def observe(ideal: BehaviorTensor, etas: EfficiencyTriple) -> BehaviorTensor:
    """Apply the inefficiency channel independently per party."""
    probs = observed_probabilities(ideal.probs, etas.as_tuple())
    return BehaviorTensor(probs)


def observed_probabilities(probs: np.ndarray, etas) -> np.ndarray:
    """Channel on a raw probability array; the sweep's sign bracket makes
    one call per noise row.

    ``probs`` has shape ``(..., 2, 2, 2, 2, 2, 2)``: one behavior array or a
    stack of them along leading axes, in any memory layout.  ``etas`` has
    shape ``(..., 3)`` and broadcasts against the stack, so each tensor may
    have its own efficiencies.  Party by party, outcome 0 keeps the
    fraction eta and hands 1 - eta of its mass to outcome 1.  Returns a new
    C-contiguous array; a tensor gives the same bits in any layout, and
    alone as in a stack.
    """
    # a C-contiguous copy, so that every reshape below is a view of it and
    # the updates through the views land in it
    out = np.array(probs, dtype=float, order="C")
    etas = np.asarray(etas, dtype=float)
    lead = out.shape[:-6]
    for party in range(3):
        # the party's outcome bit splits each tensor's 64 entries into
        # 2^party blocks of an outcome-0 half and an outcome-1 half
        halves = out.reshape(lead + (2**party, 2, 2 ** (5 - party)))
        eta = etas[..., party, None, None]
        lost = (1.0 - eta) * halves[..., 0, :]
        halves[..., 0, :] *= eta
        halves[..., 1, :] += lost
    return out
