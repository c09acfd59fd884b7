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
whose coefficients are products of the ideal behavior with the rows, and
the closed-form cutoffs are roots of that polynomial.  The statistics, the
cutoff coefficients (alpha, beta, gamma and T, Q), the marginal checks and
the exact classical bounds of `polytope` are all products with these
arrays.
"""

from __future__ import annotations

import itertools
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

# Signed combination of the all-zero triple probabilities P(000|xyz) in
# the probability form
T2_TRIPLE_SIGNS = np.array([[[0, -1], [-1, 2]], [[-1, 2], [2, 2]]])

# Party subsets and setting triples are bit masks in index order: party a
# (setting x) is 4, b (y) is 2, c (z) is 1.  Entry e of the flattened
# behavior has outcomes e // 8 and settings e % 8.
_ENTRY = np.arange(64)
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


def _marginal_checks(marginals):
    """Rows of differences between two readings of one marginal.

    For each marginal (S, t), P(0...0 for subset S | its parties at the
    settings in mask t), one row per pair of settings of the parties
    outside S; with the label of the marginal each row belongs to.
    """
    rows, labels = [], []
    for subset, settings in marginals:
        parties = [i for i in range(3) if subset & 4 >> i]
        label = "P({}|{} at {})".format(
            "0" * len(parties), "".join("abc"[i] for i in parties),
            "".join(str(settings >> 2 - i & 1) for i in parties))
        outside = [t for t in range(8) if t & subset == settings]
        for t0, t1 in itertools.combinations(outside, 2):
            rows.append(_ALL_ZERO[subset, t0].astype(int) - _ALL_ZERO[subset, t1])
            labels.append(label)
    return np.array(rows), labels


_correlator = _product(SVETLICHNY_FORM.sum(axis=0))
# 4 alpha, 4 beta and -4 gamma: the 3-, 2- and 1-party rows
_cutoff_coefficients = _product(
    np.stack([SVETLICHNY_FORM[_SUBSET_SIZE == k].sum(axis=0) for k in (3, 2, 1)])
    * np.array([[0.25], [0.25], [-0.25]]))
# every one- and two-party marginal the correlator form weights must be
# setting-free: those whose signs do not cancel over the outside settings
_SVETLICHNY_CHECKS, _SVETLICHNY_LABELS = _marginal_checks(
    (subset, settings)
    for subset in range(1, 7)
    for settings in range(8)
    if settings & ~subset == 0
    and CORRELATOR_SIGNS.reshape(8)[[t for t in range(8) if t & subset == settings]].sum() != 0)
_svetlichny_marginals = _product(_SVETLICHNY_CHECKS)
# the probability form: the triple sum T, then -Q (minus twice the pair
# sum) under each of the 8 readings, then its pair marginals at settings
# 11 read at both dummy settings, in one product
_T2_CHECKS, _T2_LABELS = _marginal_checks((pair, pair) for pair in T2_PAIRS)
_t2 = _product(np.concatenate(
    [T2_FORMS[:1, 7], T2_FORMS[:, _SUBSET_SIZE == 2].sum(axis=1), _T2_CHECKS]))


def _require_agreement(differences: np.ndarray, labels, tol: float) -> None:
    """Raise unless every difference of two readings of a marginal is
    within tol; the last axis of ``differences`` runs along ``labels``."""
    gaps = np.abs(differences).reshape(-1)
    worst = int(np.argmax(gaps))
    if gaps[worst] > tol:
        raise MarginalInconsistencyError(
            f"{labels[worst % len(labels)]} differs across outside settings by {gaps[worst]:.3e}"
        )


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
# the two inequality statistics

def _scalar_or_array(value):
    return float(value) if np.ndim(value) == 0 else value


def _t2_terms(probs, tol: float | None = None):
    """Triple sum T and -Q under each of the 8 pair readings, shapes (...)
    and (..., 8); with a tolerance, first require each pair marginal to
    agree across its dummy setting."""
    values = _t2(probs)
    if tol is not None:
        _require_agreement(values[..., 9:], _T2_LABELS, tol)
    return values[..., 0], values[..., 1:9]


def t2_statistic(probs: np.ndarray, *, pair_reading: str = "checked",
                 tol: float = MARGINAL_TOL) -> float | np.ndarray:
    """Probability-form statistic with classical bound 0.

    ``probs`` is one behavior array, giving a float, or a stack of them
    along leading axes, giving an array of values.

    ``pair_reading`` selects how the three pair marginals are extracted,
    among the 8 readings of `T2_FORMS`:

    * ``"checked"``   - require both dummy-setting values to agree (tensors
      that satisfy no-signaling); raise if any tensor of a stack does not.
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
    triple, minus_q = _t2_terms(probs, tol if pair_reading == "checked" else None)
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


def svetlichny_coefficients(t: BehaviorTensor, *, tol: float = MARGINAL_TOL) -> SvetlichnyCoefficients:
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
    Every one of those marginals must agree across its outside settings
    within ``tol``.
    """
    probs = t.probs
    _require_agreement(_svetlichny_marginals(probs), _SVETLICHNY_LABELS, tol)
    alpha, beta, gamma = (float(v) for v in _cutoff_coefficients(probs))
    return SvetlichnyCoefficients(alpha=alpha, beta=max(beta, 0.0), gamma=max(gamma, 0.0))


# ---------------------------------------------------------------------------
# cutoff efficiencies

def _quadratic_root(alpha: float, beta: float, gamma: float) -> float:
    """Crossing of alpha*eta^2 + beta*eta - gamma = 0 below which a violation
    with positive margin alpha + beta - gamma disappears: for alpha < 0 the
    smaller of the two positive roots."""
    if abs(alpha) < 1e-12:
        return gamma / beta
    disc = beta * beta + 4.0 * alpha * gamma
    if alpha > 0:
        return (-beta + np.sqrt(disc)) / (2.0 * alpha)
    # a positive margin guarantees disc > 0 here
    return (beta - np.sqrt(max(disc, 0.0))) / (2.0 * abs(alpha))


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
    root = _quadratic_root(alpha, beta, gamma)
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
    arrays.  T is the 3-party row of `T2_FORMS` and -Q the 2-party rows of
    its reading 0, with the marginal check of the checked reading.

    The observed probability-form statistic at symmetric efficiency eta is
    exactly eta^3 * T - eta^2 * Q, since every triple term scales with
    eta^3 and every pair marginal of zeros with eta^2.
    """
    probs = t.probs if isinstance(t, BehaviorTensor) else t
    triple, minus_q = _t2_terms(probs, tol)
    return _scalar_or_array(triple), _scalar_or_array(-minus_q[..., 0])


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
