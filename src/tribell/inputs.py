"""Value types and domain rules of the inputs a user gives, checked in
pure Python.

`check_theta`, `NoiseLevel`, `EfficiencyTriple` and `SearchConfig` need no
numerics to check, so the command line checks them before numpy is
imported.  `families`, `detector` and `search` import them from here.
"""

from __future__ import annotations

import math


def check_theta(theta: float) -> None:
    """theta of the theta family lies in the open interval (0, pi)."""
    if not 0.0 < theta < math.pi:
        raise ValueError(f"theta = {theta} must lie in (0, pi)")


class NoiseLevel:
    """White-noise mixing weight p in [0, 1]."""

    __slots__ = ("p",)

    def __init__(self, p: float):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p = {p} must lie in [0, 1]")
        self.p = p


class EfficiencyTriple:
    """Detector efficiencies (eta_a, eta_b, eta_c), each in [0, 1]."""

    __slots__ = ("eta_a", "eta_b", "eta_c")

    def __init__(self, eta_a: float, eta_b: float, eta_c: float):
        for name, eta in zip(("eta_a", "eta_b", "eta_c"), (eta_a, eta_b, eta_c)):
            if not 0.0 <= eta <= 1.0:
                raise ValueError(f"{name} = {eta} is outside [0, 1]")
        self.eta_a, self.eta_b, self.eta_c = eta_a, eta_b, eta_c

    @classmethod
    def symmetric(cls, eta: float) -> "EfficiencyTriple":
        return cls(eta, eta, eta)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.eta_a, self.eta_b, self.eta_c)


class SearchConfig:
    """Multi-start search settings.

    ``max_iterations`` caps the BFGS iterations of each restart; a
    restart that stops at the cap is reported with status ``budget`` and
    does not count toward the result.  Both of `minimize`'s convergence
    tests use ``CONVERGENCE_TOL``.
    """

    __slots__ = ("restarts", "seed", "max_iterations")

    def __init__(self, restarts: int, seed: int = 0, max_iterations: int = 6000):
        # a negated comparison, so that a NaN fails it
        if not (restarts >= 1 and seed >= 0 and max_iterations >= 1):
            raise ValueError("restarts and max_iterations must be >= 1 and seed >= 0")
        self.restarts, self.seed, self.max_iterations = restarts, seed, max_iterations
