"""Exception types shared across the package."""


class TribellError(ValueError):
    """Base class for domain errors."""


class NormalizationError(TribellError):
    """State or distribution fails its normalization invariant."""


class MarginalInconsistencyError(TribellError):
    """A marginal that should be setting-independent is not.

    Raised when a behavior tensor violates no-signaling beyond tolerance,
    so that setting-free marginals are ill-defined.
    """


class NoViolationError(TribellError):
    """Settings do not violate the inequality at unit efficiency."""

    def __init__(self, message: str, deficit: float):
        super().__init__(f"{message} (deficit {deficit:.6g})")
        self.deficit = deficit


class DegenerateCoefficientsError(TribellError):
    """Cutoff equation has no usable root (leading coefficients vanish)."""


class SearchFailureError(TribellError):
    """No restart of the optimizer found violating settings."""


class CrossCheckError(TribellError, RuntimeError):
    """Two computations of one quantity disagree: a fault of the program."""
