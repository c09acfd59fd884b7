"""Evaluation of the two genuine-nonlocality inequalities and their cutoffs.

Each inequality is defined once, as integer coefficients over the 64
entries of a behavior ``P(abc|xyz)`` (flattened in index order), with one
row per party subset: the row of subset S carries the terms that read the
probability that every party in S outputs 0.  These are the all-zero
("no-click") coordinates of Collins & Gisin, J. Phys. A 37, 1775 (2004).

* `SVETLICHNY_FORM`: the correlator form with classical bound 4
  (Svetlichny type), mapping outcomes 0 -> +1 and 1 -> -1;
* `T2_FORMS`: the probability form with classical bound 0 (T2 type), a
  signed combination of all-zero triple probabilities minus twice three
  pair marginals of zeros, once for each of the 8 choices of the pairs'
  dummy settings.

A detector that records a no-click as outcome 1 scales every all-zero
probability of a subset by the product of its parties' efficiencies.  So
the observed value of either form is a polynomial in the efficiencies
whose coefficients are products of the ideal behavior with the rows.
Every closed-form cutoff, and the critical third efficiency, is one root
of such a polynomial, `cutoff_root`.  The statistics, the cutoff
coefficients (alpha, beta, gamma and T, Q), the marginal checks and the
exact classical bounds of `polytope` are all products with these arrays.
"""

from __future__ import annotations

import warnings
from typing import NamedTuple

import numpy as np

from .detector import EfficiencyTriple
from .errors import (
    DegenerateCoefficientsError,
    MarginalInconsistencyError,
    NoViolationError,
)
from .qcore import (
    CUTOFF_ROUNDING, DEGENERATE_TOL, MARGINAL_TOL, NONNEGATIVE_TOL, VIOLATION_TOL, ZERO_ROOT,
    _ENTRY,
    BehaviorTensor,
    _marginal_checks,
)

SVETLICHNY_BOUND = 4.0
T2_BOUND = 0.0

# Correlator sign table: +1 at (x,y,z) = (0,1,0) and (1,0,1), -1 elsewhere.
CORRELATOR_SIGNS = np.full((2, 2, 2), -1.0)
CORRELATOR_SIGNS[0, 1, 0] = 1.0
CORRELATOR_SIGNS[1, 0, 1] = 1.0

# Signed combination of the all-zero triple probabilities P(000|xyz) in
# the probability form
T2_TRIPLE_SIGNS = np.array([[[0, -1], [-1, 2]], [[-1, 2], [2, 2]]])

# Party subsets and setting triples are bit masks, as in `qcore._ENTRY`
_SUBSET_SIZE = np.array([bin(s).count("1") for s in range(8)])

# _ALL_ZERO[S, t, e]: entry e has every party of subset S output 0, at
# setting triple t; row (S, t) reads P(0...0 for S | t)
_ALL_ZERO = ((_ENTRY // 8 & np.arange(8)[:, None, None]) == 0) & (_ENTRY % 8 == np.arange(8)[:, None])

# The correlator form, s_xyz (-1)^(a+b+c) = s_xyz prod_i (2 [o_i = 0] - 1),
# expanded over the subsets of parties whose zeros the product picks
SVETLICHNY_FORM = ((-1) ** (3 - _SUBSET_SIZE) * 2 ** _SUBSET_SIZE)[:, None] * np.einsum(
    "t,ste->se", CORRELATOR_SIGNS.reshape(8).astype(int), _ALL_ZERO)

# The pairs whose marginals of zeros the probability form reads at
# settings 11, as subsets (ab, bc, ac); the third party's setting is a
# dummy.  Reading r puts the dummy of pair k at bit k of r: reading 0 is
# the dummy at setting 0 throughout, reading 7 at setting 1.
T2_PAIRS = (6, 3, 5)
T2_FORMS = np.zeros((8, 8, 64), dtype=int)
T2_FORMS[:, 7] = np.einsum("t,te->e", T2_TRIPLE_SIGNS.reshape(8), _ALL_ZERO[7])
for _r in range(8):
    for _k, _pair in enumerate(T2_PAIRS):
        T2_FORMS[_r, _pair] = -2 * _ALL_ZERO[_pair, _pair + (_r >> _k & 1) * (7 - _pair)]


def _product(rows: np.ndarray):
    """Products with ``rows`` (..., 64) as a function of behavior arrays.

    The function takes one behavior array or a stack of them along leading
    axes and returns shape (stack..., rows...).  It multiplies entry by
    entry and sums along the last axis, so a tensor gives the same bits
    alone as in a stack; only the entries some row weights are read.
    """
    entries = np.flatnonzero(np.reshape(rows, (-1, 64)).any(axis=0))
    coefficients = rows[..., entries].astype(float)
    row_axes = (1,) * (rows.ndim - 1) + (64,)

    def product(probs):
        flat = probs.reshape(probs.shape[:-6] + row_axes)
        return (flat[..., entries] * coefficients).sum(axis=-1)

    return product


def _rows_by_size(form: np.ndarray) -> np.ndarray:
    """The sums of a form's 3-, 2- and 1-party rows, shape (3, 64): the
    coefficients of eta^3, eta^2 and eta in its observed value."""
    return np.stack([form[_SUBSET_SIZE == k].sum(axis=0) for k in (3, 2, 1)])


_correlator = _product(SVETLICHNY_FORM.sum(axis=0))
# the correlator form: alpha, beta and gamma (a quarter of the 3- and 2-party
# rows, minus a quarter of the 1-party row), then every marginal it weights,
# whose signs do not cancel over the outside settings, read at two of them
_SVETLICHNY_CHECKS, _SVETLICHNY_LABELS = _marginal_checks(
    (subset, 0, settings)
    for subset in range(1, 7)
    for settings in range(8)
    if settings & ~subset == 0
    and CORRELATOR_SIGNS.reshape(8)[[t for t in range(8) if t & subset == settings]].sum() != 0)
_svetlichny = _product(np.concatenate(
    [_rows_by_size(SVETLICHNY_FORM) * np.array([[0.25], [0.25], [-0.25]]), _SVETLICHNY_CHECKS]))
# the probability form: the triple sum T, then -Q (minus twice the pair
# sum) under each of the 8 readings, then its pair marginals at settings
# 11 read at both dummy settings, in one product
_T2_CHECKS, _T2_LABELS = _marginal_checks((pair, 0, pair) for pair in T2_PAIRS)
_t2 = _product(np.concatenate(
    [T2_FORMS[:1, 7], T2_FORMS[:, _SUBSET_SIZE == 2].sum(axis=1), _T2_CHECKS]))


def _require_agreement(differences: np.ndarray, labels) -> None:
    """Raise unless every difference of two readings of a marginal is
    within ``MARGINAL_TOL``; the last axis of ``differences`` runs along
    ``labels``."""
    gaps = np.abs(differences).reshape(-1)
    # negated comparison, so that a NaN fails it; an empty stack passes
    if not gaps.max(initial=0.0) <= MARGINAL_TOL:
        worst = int(np.argmax(gaps))
        raise MarginalInconsistencyError(
            f"{labels[worst % len(labels)]} differs across outside settings by {gaps[worst]:.3e}"
        )


class InequalityValue(NamedTuple):
    value: float
    violated: bool


class SvetlichnyCoefficients:
    """Quadratic coefficients of the observed violation condition.

    At symmetric detector efficiency eta the observed statistic violates the
    correlator bound iff ``alpha*eta**2 + beta*eta - gamma > 0``:  triple
    terms pick up eta^3, pair terms eta^2, and single terms eta, and one
    common factor of eta is divided out.  ``beta`` and ``gamma`` are sums of
    probabilities and therefore nonnegative.
    """

    __slots__ = ("alpha", "beta", "gamma")

    def __init__(self, alpha: float, beta: float, gamma: float):
        if beta < -NONNEGATIVE_TOL or gamma < -NONNEGATIVE_TOL:
            raise ValueError("beta and gamma must be nonnegative")
        self.alpha, self.beta, self.gamma = alpha, beta, gamma

    @property
    def violation_margin(self) -> float:
        """Value of the quadratic at eta = 1; positive iff violated there."""
        return self.alpha + self.beta - self.gamma


# ---------------------------------------------------------------------------
# the two inequality statistics

def _scalar_or_array(value):
    return float(value) if np.ndim(value) == 0 else value


def _t2_terms(probs, checked: bool = False):
    """Triple sum T and -Q under each of the 8 pair readings, shapes (...)
    and (..., 8); for the checked reading, first require each pair marginal
    to agree across its dummy setting."""
    values = _t2(probs)
    if checked:
        _require_agreement(values[..., 9:], _T2_LABELS)
    return values[..., 0], values[..., 1:9]


def t2_statistic(probs: np.ndarray, *, pair_reading: str = "checked") -> float | np.ndarray:
    """Probability-form statistic with classical bound 0.

    ``probs`` is one behavior array, giving a float, or a stack of them
    along leading axes, giving an array of values.

    ``pair_reading`` selects how the three pair marginals are extracted,
    among the 8 readings of `T2_FORMS`:

    * ``"checked"``   - require both dummy-setting values to agree within
      ``MARGINAL_TOL`` (tensors that satisfy no-signaling); raise if any
      tensor of a stack does not.
    * ``"pessimistic"`` - the minimum over all 8 readings: the larger
      dummy-setting value per pair, which can only lower the statistic.
      This is the reading under which the deterministic-strategy bound of
      0 is exact; see `polytope`.
    * ``"mean"``, ``"setting0"``, ``"setting1"`` - linear readings used for
      convexity checks on vertex mixtures: the mean of readings 0 and 7,
      reading 0 and reading 7.
    """
    if pair_reading not in ("checked", "pessimistic", "mean", "setting0", "setting1"):
        raise ValueError(f"unknown pair_reading {pair_reading!r}")
    triple, minus_q = _t2_terms(probs, checked=pair_reading == "checked")
    readings = triple[..., None] + minus_q
    if pair_reading == "pessimistic":
        value = readings.min(axis=-1)
    elif pair_reading == "mean":
        value = 0.5 * (readings[..., 0] + readings[..., 7])
    elif pair_reading == "setting1":
        value = readings[..., 7]
    else:
        value = readings[..., 0]
    return _scalar_or_array(value)


def t2_value(t: BehaviorTensor) -> InequalityValue:
    """Evaluate the probability-form inequality; violated iff value > 0."""
    value = t2_statistic(t.probs, pair_reading="checked")
    return InequalityValue(value=value, violated=value > T2_BOUND + VIOLATION_TOL)


def svetlichny_statistic(probs: np.ndarray) -> float:
    """Correlator-form statistic with classical bound 4."""
    return float(_correlator(probs))


def svetlichny_corr_value(t: BehaviorTensor) -> InequalityValue:
    """Evaluate the correlator-form inequality; violated iff value > 4."""
    value = svetlichny_statistic(t.probs)
    return InequalityValue(value=value, violated=value > SVETLICHNY_BOUND + VIOLATION_TOL)


def svetlichny_coefficients(t: BehaviorTensor) -> SvetlichnyCoefficients:
    """Extract (alpha, beta, gamma) of the cutoff quadratic from a behavior.

    The 3-, 2- and 1-party rows of `SVETLICHNY_FORM`, each summed over all
    setting triples, give 4 alpha, 4 beta and -4 gamma, and the empty
    subset's row gives 4.  Under symmetric efficiency eta the k-party rows
    scale by eta^k, so for every tensor the observed statistic is

        S(eta) - 4 = 4 * eta * (alpha * eta**2 + beta * eta - gamma),

    which at eta = 1 is S - 4 = 4 * (alpha + beta - gamma).  On
    no-signaling tensors alpha is twice the signed sum of P(000|xyz), beta
    twice the sum of the six pair marginals of zeros whose signs do not
    cancel over the dummy setting (AB and BC at settings 00 and 11, AC at
    01 and 10), and gamma the sum of the six single marginals of zero.
    One product reads the three and every such marginal's differences
    across its outside settings, which must be within ``MARGINAL_TOL``.
    """
    values = _svetlichny(t.probs)
    _require_agreement(values[3:], _SVETLICHNY_LABELS)
    alpha, beta, gamma = values[:3].tolist()
    return SvetlichnyCoefficients(alpha=alpha, beta=max(beta, 0.0), gamma=max(gamma, 0.0))


# ---------------------------------------------------------------------------
# cutoff efficiencies

def cutoff_root(c2, c1, c0):
    """The crossing of c2*eta^2 + c1*eta + c0 below which a positive margin
    c2 + c1 + c0 at eta = 1 disappears, of floats or elementwise of arrays.

    Where |c2| < ``DEGENERATE_TOL`` it is -c0/c1, or +inf where c1 <= 0;
    otherwise (-c1 + sqrt(max(c1^2 - 4*c2*c0, 0))) / (2*c2), which for
    c2 < 0 is the smaller of the two positive roots, or -0.0 where it rounds to 0.
    """
    c2, c1, c0 = (np.asarray(c, dtype=float) for c in (c2, c1, c0))
    linear = np.abs(c2) < DEGENERATE_TOL
    numerator = np.where(linear, -c0, np.sqrt(np.maximum(c1 * c1 - 4.0 * c2 * c0, 0.0)) - c1)
    with np.errstate(over="ignore"):  # a root past the float range is +inf, no crossing
        root = np.divide(numerator, np.where(linear, c1, 2.0 * c2),
                         out=np.full(numerator.shape, np.inf), where=~linear | (c1 > 0.0))
    return _scalar_or_array(root)


def svetlichny_cutoff(c: SvetlichnyCoefficients) -> float:
    """Symmetric efficiency at which the correlator violation switches on.

    The `cutoff_root` of (alpha, beta, -gamma), the crossing below which
    the violation disappears.  A result of 0 means the violation persists
    at every positive efficiency.  Invariant under common positive
    rescaling of the coefficients.
    """
    alpha, beta, gamma = c.alpha, c.beta, c.gamma
    if abs(alpha) < DEGENERATE_TOL and beta < DEGENERATE_TOL:
        raise DegenerateCoefficientsError("alpha and beta both vanish")
    margin = c.violation_margin
    if margin <= VIOLATION_TOL:
        raise NoViolationError("settings do not violate at unit efficiency",
                                deficit=VIOLATION_TOL - margin)
    root = cutoff_root(alpha, beta, -gamma)
    if root < ZERO_ROOT:
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

    The `cutoff_root` of the condition as a linear polynomial in ec,
    (4*ea*eb - ea - eb)*ec - ea*eb.  Returns None when no feasible third
    efficiency in (0, 1] exists.
    """
    for name, eta in (("eta_a", eta_a), ("eta_b", eta_b)):
        if not 0.0 < eta <= 1.0:
            raise ValueError(f"{name} = {eta} must lie in (0, 1]")
    ec = cutoff_root(0.0, 4.0 * eta_a * eta_b - eta_a - eta_b, -eta_a * eta_b)
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


def t2_triple_and_pair_sums(t: BehaviorTensor | np.ndarray):
    """Signed triple-probability combination T and doubled pair sum Q.

    ``t`` is a `BehaviorTensor`, giving two floats, or a validated stack of
    behavior arrays (see `qcore.validated_probabilities`), giving two
    arrays.  T is the 3-party row of `T2_FORMS` and -Q the 2-party rows of
    its reading 0, with the marginal check of the checked reading.

    The observed probability-form statistic at symmetric efficiency eta is
    exactly eta^3 * T - eta^2 * Q, since every triple term scales with
    eta^3 and every pair marginal of zeros with eta^2.
    """
    probs = t.probs if isinstance(t, BehaviorTensor) else t
    triple, minus_q = _t2_terms(probs, checked=True)
    return _scalar_or_array(triple), _scalar_or_array(-minus_q[..., 0])


def t2_cutoff_symmetric(t_ideal: BehaviorTensor) -> float | None:
    """Symmetric-efficiency crossing of the probability-form inequality.

    For an ideal (unit-efficiency) tensor with sums T and Q the observed
    value is eta^2*(eta*T - Q), so the crossing is the `cutoff_root` of
    (0, T, -Q), Q/T.  Returns None when T <= 0 or the crossing exceeds 1 by
    more than ``CUTOFF_ROUNDING`` (no violation at any eta <= 1); a return
    of exactly 1.0 marks the boundary case.  The rule is closed and has no
    floor on T - Q; see the tolerance table of `qcore`.
    """
    triple, pair = t2_triple_and_pair_sums(t_ideal)
    ratio = cutoff_root(0.0, triple, -pair)
    if ratio > 1.0 + CUTOFF_ROUNDING:
        return None
    return min(ratio, 1.0)
