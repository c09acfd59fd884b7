"""Evaluation of the two genuine-nonlocality inequalities and their cutoffs.

Two certificates are implemented on behavior tensors:

* the correlator form with classical bound 4 (Svetlichny type), mapping
  outcomes 0 -> +1 and 1 -> -1;
* the probability form with classical bound 0 (T2 type), built from
  all-zero outcome probabilities and pair marginals.

Both come with closed-form cutoff efficiencies: the efficiency at which a
fixed state-and-measurements setting starts violating the inequality when
every detector records no-clicks as outcome 1.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .detector import EfficiencyTriple
from .errors import (
    DegenerateCoefficientsError,
    MarginalInconsistencyError,
    NoViolationError,
)
from .qcore import BehaviorTensor

VIOLATION_TOL = 1e-9
MARGINAL_TOL = 1e-8
SVETLICHNY_BOUND = 4.0
T2_BOUND = 0.0

# Correlator sign table: +1 at (x,y,z) = (0,1,0) and (1,0,1), -1 elsewhere.
CORRELATOR_SIGNS = np.full((2, 2, 2), -1.0)
CORRELATOR_SIGNS[0, 1, 0] = 1.0
CORRELATOR_SIGNS[1, 0, 1] = 1.0

# (-1)^(a+b+c) over the outcome axes
_OUTCOME_PARITY = np.array([1.0, -1.0])
_PARITY3 = np.einsum("a,b,c->abc", _OUTCOME_PARITY, _OUTCOME_PARITY, _OUTCOME_PARITY)


@dataclass(frozen=True)
class InequalityValue:
    value: float
    violated: bool


@dataclass(frozen=True)
class SvetlichnyCoefficients:
    """Quadratic coefficients of the observed violation condition.

    At symmetric detector efficiency eta the observed statistic violates the
    correlator bound iff ``alpha*eta**2 + beta*eta - gamma > 0``:  triple
    terms pick up eta^3, pair terms eta^2, and single terms eta, and one
    common factor of eta is divided out.  ``beta`` and ``gamma`` are sums of
    probabilities and therefore nonnegative.
    """

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        if self.beta < -1e-9 or self.gamma < -1e-9:
            raise ValueError("beta and gamma must be nonnegative")

    @property
    def violation_margin(self) -> float:
        """Value of the quadratic at eta = 1; positive iff violated there."""
        return self.alpha + self.beta - self.gamma


# ---------------------------------------------------------------------------
# marginals

def _pair_zero_values(probs: np.ndarray, pair: str, s1: int, s2: int) -> np.ndarray:
    """P(00|pair at settings s1,s2), summed over the third party's outcome,
    evaluated at each of the third party's two settings: shape (..., 2)
    for a behavior array or a stack of them along leading axes."""
    if pair == "ab":
        return probs[..., 0, 0, :, s1, s2, :].sum(axis=-2)
    if pair == "bc":
        return probs[..., :, 0, 0, :, s1, s2].sum(axis=-2)
    if pair == "ac":
        return probs[..., 0, :, 0, s1, :, s2].sum(axis=-2)
    raise ValueError(f"unknown pair {pair!r}")


def _single_zero_values(probs: np.ndarray, party: str, s: int) -> np.ndarray:
    """P(0|party at setting s) at the four settings of the other two parties."""
    if party == "a":
        return probs[0, :, :, s, :, :].sum(axis=(0, 1)).reshape(-1)
    if party == "b":
        return probs[:, 0, :, :, s, :].sum(axis=(0, 1)).reshape(-1)
    if party == "c":
        return probs[:, :, 0, :, :, s].sum(axis=(0, 1)).reshape(-1)
    raise ValueError(f"unknown party {party!r}")


def _checked_pair(probs, pair, s1, s2, tol):
    # setting-free marginals only exist under no-signaling: take the value at
    # the third party's setting 0 and cross-check against setting 1
    v0, v1 = (float(v) for v in _pair_zero_values(probs, pair, s1, s2))
    if abs(v0 - v1) > tol:
        raise MarginalInconsistencyError(
            f"P(00|{pair} at {s1}{s2}) differs across the third setting by {abs(v0 - v1):.3e}"
        )
    return v0


def _checked_single(probs, party, s, tol):
    vals = _single_zero_values(probs, party, s)
    if vals.max() - vals.min() > tol:
        raise MarginalInconsistencyError(
            f"P(0|{party} at {s}) differs across outside settings by {vals.max() - vals.min():.3e}"
        )
    return float(vals[0])


# ---------------------------------------------------------------------------
# the two inequality statistics

def _t2_pair_sum(probs: np.ndarray, pair_reading: str, tol: float):
    """Sum of the three pair marginals of zeros at settings 11 under one
    reading of the dummy setting (see `t2_statistic`)."""
    pairs = []
    for pair in ("ab", "bc", "ac"):
        vals = _pair_zero_values(probs, pair, 1, 1)
        v0, v1 = vals[..., 0], vals[..., 1]
        if pair_reading == "checked":
            dev = np.max(np.abs(v0 - v1))
            if dev > tol:
                raise MarginalInconsistencyError(
                    f"P(00|{pair} at 11) differs across the third setting by {dev:.3e}"
                )
            pairs.append(v0)
        elif pair_reading == "pessimistic":
            pairs.append(np.maximum(v0, v1))
        elif pair_reading == "mean":
            pairs.append(0.5 * (v0 + v1))
        elif pair_reading == "setting0":
            pairs.append(v0)
        elif pair_reading == "setting1":
            pairs.append(v1)
        else:
            raise ValueError(f"unknown pair_reading {pair_reading!r}")
    return pairs[0] + pairs[1] + pairs[2]


def _t2_triple(probs: np.ndarray):
    """Signed combination of the all-zero triple probabilities."""
    m = probs[..., 0, 0, 0, :, :, :]
    return (
        -m[..., 0, 0, 1] - m[..., 0, 1, 0] - m[..., 1, 0, 0]
        + 2.0 * (m[..., 1, 1, 0] + m[..., 1, 0, 1] + m[..., 0, 1, 1] + m[..., 1, 1, 1])
    )


def _scalar_or_array(value):
    return float(value) if np.ndim(value) == 0 else value


def t2_statistic(probs: np.ndarray, *, pair_reading: str = "checked",
                 tol: float = MARGINAL_TOL) -> float | np.ndarray:
    """Probability-form statistic with classical bound 0.

    ``probs`` is one behavior array, giving a float, or a stack of them
    along leading axes, giving an array of values.

    ``pair_reading`` selects how the three pair marginals are extracted:

    * ``"checked"``   - require both dummy-setting values to agree (tensors
      that satisfy no-signaling); raise if any tensor of a stack does not.
    * ``"pessimistic"`` - take the larger dummy-setting value per pair, which
      can only lower the statistic.  This is the reading under which the
      deterministic-strategy bound of 0 is exact; see `polytope`.
    * ``"mean"``, ``"setting0"``, ``"setting1"`` - linear readings used for
      convexity checks on vertex mixtures.
    """
    pair = 2.0 * _t2_pair_sum(probs, pair_reading, tol)
    return _scalar_or_array(_t2_triple(probs) - pair)


def t2_value(t: BehaviorTensor) -> InequalityValue:
    """Evaluate the probability-form inequality; violated iff value > 0."""
    value = t2_statistic(t.probs, pair_reading="checked")
    return InequalityValue(value=value, violated=value > T2_BOUND + VIOLATION_TOL)


def svetlichny_statistic(probs: np.ndarray) -> float:
    """Correlator-form statistic with classical bound 4."""
    corr = np.einsum("abc,abcxyz->xyz", _PARITY3, probs)
    return float(np.sum(CORRELATOR_SIGNS * corr))


def svetlichny_corr_value(t: BehaviorTensor) -> InequalityValue:
    """Evaluate the correlator-form inequality; violated iff value > 4."""
    value = svetlichny_statistic(t.probs)
    return InequalityValue(value=value, violated=value > SVETLICHNY_BOUND + VIOLATION_TOL)


def svetlichny_coefficients(t: BehaviorTensor, *, tol: float = MARGINAL_TOL) -> SvetlichnyCoefficients:
    """Extract (alpha, beta, gamma) of the cutoff quadratic from a behavior.

    Expanding each correlator of the bound-4 combination in terms of
    all-zero-outcome probabilities gives the exact identity

        S - 4 = 4 * (alpha + beta - gamma)

    with the normalization used here (relative weights 2 : 2 : 1 for
    alpha : beta : gamma).  Each sum below ranges over its own term's
    indices only; letting every term range over all three setting indices
    would multiply the pair group by 2 and the single group by 4 and is a
    different (rejected) normalization, under which the eta = 1 reduction
    no longer coincides with the correlator violation condition.

    The pair-index patterns are forced by the correlator signs: the AB and
    BC pairs enter at equal settings (00 and 11), the AC pair at unequal
    settings (01 and 10).  Swapping the BC and AC patterns breaks the
    identity above on generic tensors.
    """
    probs = t.probs
    alpha = 2.0 * float(np.sum(CORRELATOR_SIGNS * probs[0, 0, 0]))
    beta = 2.0 * (
        _checked_pair(probs, "ab", 0, 0, tol) + _checked_pair(probs, "ab", 1, 1, tol)
        + _checked_pair(probs, "bc", 0, 0, tol) + _checked_pair(probs, "bc", 1, 1, tol)
        + _checked_pair(probs, "ac", 0, 1, tol) + _checked_pair(probs, "ac", 1, 0, tol)
    )
    gamma = sum(
        _checked_single(probs, party, s, tol)
        for party in ("a", "b", "c")
        for s in (0, 1)
    )
    return SvetlichnyCoefficients(alpha=alpha, beta=max(beta, 0.0), gamma=max(gamma, 0.0))


# ---------------------------------------------------------------------------
# cutoff efficiencies

def svetlichny_cutoff(c: SvetlichnyCoefficients) -> float:
    """Symmetric efficiency at which the correlator violation switches on.

    Solves alpha*eta^2 + beta*eta - gamma = 0 for the crossing below which
    the violation disappears.  For alpha < 0 the parabola opens downward
    and the relevant crossing is the smaller of its two positive roots.
    A result of 0 means the violation persists at every positive
    efficiency.  Invariant under common positive rescaling of the
    coefficients.
    """
    alpha, beta, gamma = c.alpha, c.beta, c.gamma
    if abs(alpha) < 1e-12 and beta < 1e-12:
        raise DegenerateCoefficientsError("alpha and beta both vanish")
    margin = c.violation_margin
    if margin <= VIOLATION_TOL:
        raise NoViolationError("settings do not violate at unit efficiency", deficit=-margin)
    if abs(alpha) < 1e-12:
        root = gamma / beta
    else:
        disc = beta * beta + 4.0 * alpha * gamma
        if alpha > 0:
            root = (-beta + np.sqrt(disc)) / (2.0 * alpha)
        else:
            # margin > 0 guarantees disc > 0 here
            root = (beta - np.sqrt(disc)) / (2.0 * abs(alpha))
    if root < 1e-15:
        warnings.warn("cutoff is 0: violation persists at every positive efficiency")
        root = 0.0
    return float(root)


def efficiencies_admit_violation(etas: EfficiencyTriple) -> bool:
    """Necessary condition on detector efficiencies for any probability-form
    violation: 4*ea*eb*ec - ea*eb - ea*ec - eb*ec > 0 (strict)."""
    ea, eb, ec = etas.as_tuple()
    return 4.0 * ea * eb * ec - ea * eb - ea * ec - eb * ec > 0.0


def critical_third_efficiency(eta_a: float, eta_b: float) -> float | None:
    """Third efficiency at which the necessary condition is exactly tight.

    Solves 4*ea*eb*ec = ea*eb + ea*ec + eb*ec for ec.  Returns None when no
    feasible third efficiency in (0, 1] exists.
    """
    for name, eta in (("eta_a", eta_a), ("eta_b", eta_b)):
        if not 0.0 < eta <= 1.0:
            raise ValueError(f"{name} = {eta} must lie in (0, 1]")
    denom = 4.0 * eta_a * eta_b - eta_a - eta_b
    if denom <= 0.0:
        return None
    ec = eta_a * eta_b / denom
    return ec if ec <= 1.0 else None


def theta_violation_threshold(etas: EfficiencyTriple) -> float:
    """Upper bound on tan^2(theta/2) for the one-parameter family to violate
    the probability-form inequality at the given efficiencies."""
    ea, eb, ec = etas.as_tuple()
    pair_sum = ea * eb + eb * ec + ea * ec
    excess = 4.0 * ea * eb * ec - pair_sum
    if excess <= 0.0:
        raise NoViolationError("efficiencies admit no violating theta range", deficit=-excess)
    return excess / pair_sum


def t2_triple_and_pair_sums(t: BehaviorTensor | np.ndarray, *, tol: float = MARGINAL_TOL):
    """Signed triple-probability combination T and doubled pair sum Q.

    ``t`` is a `BehaviorTensor`, giving two floats, or a validated stack of
    behavior arrays (see `qcore.validated_probabilities`), giving two
    arrays.  The pair marginals use the checked reading of `t2_statistic`.

    The observed probability-form statistic at symmetric efficiency eta is
    exactly eta^3 * T - eta^2 * Q, since every triple term scales with
    eta^3 and every pair marginal of zeros with eta^2.
    """
    probs = t.probs if isinstance(t, BehaviorTensor) else t
    triple = _t2_triple(probs)
    pair = 2.0 * _t2_pair_sum(probs, "checked", tol)
    return _scalar_or_array(triple), _scalar_or_array(pair)


def t2_cutoff_symmetric(t_ideal: BehaviorTensor) -> float | None:
    """Symmetric-efficiency crossing of the probability-form inequality.

    For an ideal (unit-efficiency) tensor with sums T and Q the observed
    value is eta^3*T - eta^2*Q, so the crossing sits at Q/T.  Returns None
    when T <= 0 or the crossing exceeds 1 (no violation at any eta <= 1);
    a return of exactly 1.0 marks the boundary case.
    """
    triple, pair = t2_triple_and_pair_sums(t_ideal)
    if triple <= 0.0:
        return None
    ratio = pair / triple
    if ratio > 1.0 + 1e-12:
        return None
    return min(ratio, 1.0)
