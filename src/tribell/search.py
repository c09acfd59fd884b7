"""Numerical estimation of minimum detection efficiencies.

Multi-start minimization of the cutoff efficiency over all pure three-qubit
states and projective measurement triples: for fixed measurements the best
state is the top eigenvector of an 8x8 operator built from the inequality's
rows, so each restart is a quasi-Newton search (`minimize`, a numpy BFGS)
over the 12 measurement angles alone.  Plus the closed-form noise analysis
of the one-parameter family and the sweep that produces (theta, p, eta_min)
tables.
"""

from __future__ import annotations

import operator
import random
import time
from collections.abc import Iterator
from functools import cache
from typing import NamedTuple

import numpy as np

from .detector import observed_probabilities
from .errors import CrossCheckError, SearchFailureError
from .families import ThetaSetting, mix_white_noise, theta_measurements, theta_state
from .inequality import (
    SVETLICHNY_FORM,
    T2_FORMS,
    _rows_by_size,
    _svetlichny,
    _t2_terms,
    cutoff_root,
    svetlichny_coefficients,
    svetlichny_cutoff,
    t2_statistic,
    t2_cutoff_symmetric,
    t2_triple_and_pair_sums,
)
from .inputs import NoiseLevel, SearchConfig
from .qcore import (
    CONVERGENCE_TOL, CROSSING_BRACKET, CUTOFF_ROUNDING, NORM_TOL, REVERIFY_TOL, VALUE_ROUNDING,
    VIOLATION_TOL,
    PureState,
    SettingsTriple,
    _BORN_ENTRY,
    _frozen,
    behavior_from_settings,
    born_amplitudes,
    density_from_pure,
    measurement_basis,
    pure_behavior_probabilities,
    validated_probabilities,
)


class SettingsParameterization:
    """Settings as one flat vector: 16 state reals + 12 measurement angles.

    ``state_coords`` interleaves real and imaginary parts of the 8
    amplitudes, normalized by `to_state` unless their norm is within
    ``NORM_TOL`` of 1: `to_state` inverts `from_quantum` bit for bit.
    ``measurement_angles`` is `SettingsTriple.angles` flattened: (polar,
    azimuth) per measurement in party-major order (a0, a1, b0, b1, c0, c1).
    """

    __slots__ = ("state_coords", "measurement_angles")

    def __init__(self, state_coords, measurement_angles):
        sc = np.asarray(state_coords, dtype=float).reshape(-1)
        ma = np.asarray(measurement_angles, dtype=float).reshape(-1)
        if sc.shape != (16,) or ma.shape != (12,):
            raise ValueError("expected 16 state coordinates and 12 angles")
        self.state_coords, self.measurement_angles = _frozen(sc), _frozen(ma)

    def to_state(self) -> PureState:
        # (re, im) pairs are the memory layout of complex numbers: every bit,
        # the sign of a zero included, goes through the view
        amplitudes = self.state_coords.view(complex)
        if abs(np.linalg.norm(amplitudes) - 1.0) <= NORM_TOL:
            return PureState(amplitudes)
        return PureState.normalized(amplitudes)

    def to_settings(self) -> SettingsTriple:
        return SettingsTriple.from_angles(self.measurement_angles)

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.state_coords, self.measurement_angles])

    @classmethod
    def from_vector(cls, vec) -> "SettingsParameterization":
        vec = np.asarray(vec, dtype=float).reshape(-1)
        return cls(vec[:16], vec[16:])

    @classmethod
    def from_quantum(cls, state: PureState, settings: SettingsTriple) -> "SettingsParameterization":
        return cls(state.amplitudes.view(float), settings.angles())


class SearchResult(NamedTuple):
    """Outcome of a multi-start search.

    ``best_eta`` is the best restart's cutoff, re-verified through the
    public path.  The other fields have one entry per restart: its value
    (the fixed-state cutoff of the state and angles it found, >= 1 when they
    do not violate), objective calls, BFGS iterations, the status of
    `minimize` (``converged``, ``stalled`` or ``budget``) and wall time in
    seconds.
    ``violating_restarts`` counts the restarts within budget that violate.
    """

    best_eta: float
    best_settings: SettingsParameterization
    restart_values: tuple[float, ...]
    violating_restarts: int
    nfev: tuple[int, ...]
    nit: tuple[int, ...]
    status: tuple[str, ...]
    restart_s: tuple[float, ...]


class SweepRow(NamedTuple):
    theta: float
    p: float
    eta_min: float | None


class NoiseSweep:
    """The crossings of a (theta, p) grid, read as `SweepRow`s in (p, theta)
    order: a read-only sequence, with ``len``, integer indexing and
    iteration.

    ``thetas`` and ``ps`` are the sorted grids, and ``crossings[i][j]`` is
    eta_min at (``thetas[j]``, ``ps[i]``), or None.  A row is built only
    when it is indexed or iterated, so a caller that reads the crossings
    directly holds no row at all.
    """

    __slots__ = ("thetas", "ps", "crossings")

    def __init__(self, thetas: tuple[float, ...], ps: tuple[float, ...],
                 crossings: tuple[tuple[float | None, ...], ...]):
        self.thetas, self.ps, self.crossings = thetas, ps, crossings

    def __len__(self) -> int:
        return len(self.ps) * len(self.thetas)

    def __getitem__(self, index: int) -> SweepRow:
        # a range indexes as the flat grid does: negative from the end,
        # IndexError past it
        i, j = divmod(range(len(self))[operator.index(index)], len(self.thetas))
        return SweepRow(self.thetas[j], self.ps[i], self.crossings[i][j])

    def __iter__(self) -> Iterator[SweepRow]:
        for p, crossings in zip(self.ps, self.crossings):
            for theta, eta in zip(self.thetas, crossings):
                yield SweepRow(theta, p, eta)


# ---------------------------------------------------------------------------
# the fixed-state cutoff of a restart's (amplitudes, angles) pair, its
# certificate (Born tensors are no-signaling, so the marginal checks of the
# public path are skipped)

def _fixed_cutoff(kind: str, pair, penalty_weight: float) -> float:
    """Cutoff of unit-norm amplitudes and 12 measurement angles, or 1 plus
    ``penalty_weight`` times the shortfall when they do not violate at unit
    efficiency.  Violation is a margin at eta = 1, the sum of the
    coefficients (alpha, beta, -gamma) or (0, T, -Q), above
    ``VIOLATION_TOL``, the rule of `svetlichny_cutoff` and `t2_value`; the
    cutoff is their `cutoff_root`."""
    amplitudes, angles = pair
    probs = pure_behavior_probabilities(amplitudes, SettingsTriple.from_angles(angles).bases())
    if kind == "svetlichny":
        alpha, beta, gamma = _svetlichny(probs)[:3]
        coefficients = alpha, beta, -gamma
    else:
        triple, minus_q = _t2_terms(probs)
        coefficients = 0.0, triple, minus_q[0]
    margin = sum(coefficients)
    if margin <= VIOLATION_TOL:
        return 1.0 + penalty_weight * max(-margin, 0.0)
    return cutoff_root(*coefficients)


def _as_pair(point):
    """An (amplitudes, angles) pair, or a `SettingsParameterization` 28-vector as one."""
    if len(point) == 2:
        return point
    params = SettingsParameterization.from_vector(point)
    return params.to_state().amplitudes, params.measurement_angles


def _svetlichny_objective(point, penalty_weight: float) -> float:
    return _fixed_cutoff("svetlichny", _as_pair(point), penalty_weight)


def _t2_objective(point, penalty_weight: float) -> float:
    return _fixed_cutoff("t2", _as_pair(point), penalty_weight)


def _random_start(rng: random.Random) -> np.ndarray:
    # 6 polars, then 6 azimuths, from any rng with a scalar uniform(low, high);
    # a numpy Generator gives the same bits as its size=6 draws
    polars = tuple(map(rng.uniform, (0.0,) * 6, (np.pi,) * 6))
    azimuths = tuple(map(rng.uniform, (0.0,) * 6, (2.0 * np.pi,) * 6))
    return np.column_stack((polars, azimuths)).reshape(-1)


# ---------------------------------------------------------------------------
# the eigenvalue-reduced objective over the 12 measurement angles
#
# Each party's two measurements give a 4x2 matrix U: the conjugated rows of
# its `measurement_basis`, indexed (setting, outcome) by component.  Then
# V = U_A (x) U_B (x) U_C, the linear map `qcore.born_amplitudes`, takes a
# state to its 64 Born amplitudes, and entry `_BORN_ENTRY[e]` of V psi is the
# amplitude whose square is behavior entry e.  The k-party rows of a form,
# summed and moved to Born order as w_k, read <psi|A_k|psi> for the
# Hermitian 8x8 operator A_k = V^H diag(w_k) V.  At symmetric efficiency
# eta the observed form violates iff eta^3 <A_3> + eta^2 <A_2> + eta <A_1>
# > 0, so some state violates at eta iff
# lambda_max(eta A_3 + A_2 + A_1 / eta) > 0, and the top eigenvector is the
# best state for the given measurements (the state step of the see-saw of
# Pal & Vertesi, PRA 82, 022116 (2010), solved exactly).

# The eigenvalue floor is VIOLATION_TOL: a floor of 1e-12 drives the
# probability form to triple sums near 1e-8, where the public path
# re-verifies the cutoff only to about 2e-9.  Newton from eta = 1 meets the
# floor in 4-8 steps; the cap bounds the bisection fallback
_NEWTON_STEPS = 60


@cache
def _operator_coefficients(kind: str) -> np.ndarray:
    """w_3, w_2, w_1 of one inequality over the `born_amplitudes`, shape
    (3, 64): the sums of the 3-, 2- and 1-party rows of `SVETLICHNY_FORM`,
    or of reading 0 of `T2_FORMS`, where A_3 = T, A_2 = -Q and A_1 = 0,
    each behavior entry e moved to amplitude `qcore._BORN_ENTRY[e]`."""
    rows = _rows_by_size(SVETLICHNY_FORM if kind == "svetlichny" else T2_FORMS[0])
    # a scatter, not np.argsort, whose first call maps about 0.3 MB of code
    coefficients = np.empty_like(rows)
    coefficients[:, _BORN_ENTRY] = rows
    return _frozen(coefficients)


# d/d polar of `measurement_basis` takes outcome 0 to -1/2 times outcome 1
# and outcome 1 to 1/2 times outcome 0, and d/d azimuth multiplies
# component 1 by i.  Below, the same maps act on the conjugated basis
# flattened to (outcome, component), shape (angle, 4, 4); there the
# azimuth map multiplies by -i
_BASIS_DERIVATIVES = np.array([np.kron([[0.0, -0.5], [0.5, 0.0]], np.eye(2)),
                               np.diag([0.0, -1j, 0.0, -1j])])


def _local_paulis(angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each party's U, the conjugated `measurement_basis` at its angles,
    shape (party, setting, outcome, component); and the derivatives of U in
    (polar, azimuth), shape (party, setting, angle, outcome, component),
    read off U itself through `_BASIS_DERIVATIVES`."""
    local = np.conj(measurement_basis(angles[..., 0], angles[..., 1]))
    return local, (_BASIS_DERIVATIVES @ local.reshape(3, 2, 1, 4, 1)).reshape(3, 2, 2, 2, 2)


def _row_operators(coefficients: np.ndarray, local: np.ndarray) -> np.ndarray:
    """A_3, A_2, A_1 as 8x8 matrices, shape (3, 8, 8): V^H diag(w_k) V for
    the rows w_k of `_operator_coefficients` and V, the `born_amplitudes`
    of the 8 basis states at the parties' U of `_local_paulis`."""
    v = born_amplitudes(np.eye(8), local).T
    return v.conj().T @ (coefficients[:, :, None] * v)


def _eigen_cutoff(coefficients: np.ndarray, angles: np.ndarray,
                  penalty_weight: float) -> tuple[float, np.ndarray, np.ndarray]:
    """Cutoff of the best state for 12 measurement angles, its gradient in
    the angles, and that state.

    The cutoff is where lambda(eta) = lambda_max(eta A_3 + A_2 + A_1 / eta)
    falls to `VIOLATION_TOL`, left of eta = 1: Newton steps from eta = 1 on
    eigh alone, kept inside a bracket that falls back to bisection.  Its
    gradient is -(d lambda / d angles) / (d lambda / d eta), both by
    Hellmann-Feynman at the top eigenvector, the first through the
    derivatives of the bases of `_local_paulis`.  When lambda(1) is at most
    the floor nothing violates at eta = 1, and the value is
    1 + penalty_weight * (VIOLATION_TOL - lambda(1)), with its gradient.
    """
    local, derivatives = _local_paulis(np.reshape(angles, (3, 2, 2)))
    a3, a2, a1 = operators = _row_operators(coefficients, local)

    def top(eta):
        values, vectors = np.linalg.eigh(eta * a3 + a2 + a1 / eta)
        return values[-1], vectors[:, -1]

    def slope(eta, state):
        return float(np.real(state.conj() @ (a3 - a1 / eta**2) @ state))

    # eigh resolves lambda to a few ulp of the norms of the three terms
    resolution = 16.0 * np.finfo(float).eps * np.linalg.norm(operators, axis=(1, 2))
    eta, lo, hi = 1.0, 0.0, 1.0
    lam, state = top(eta)
    violated = lam > VIOLATION_TOL
    for _ in range(_NEWTON_STEPS if violated else 0):
        if abs(lam - VIOLATION_TOL) <= resolution @ (eta, 1.0, 1.0 / eta):
            break
        lo, hi = (lo, eta) if lam > VIOLATION_TOL else (eta, hi)
        d_eta = slope(eta, state)
        step = eta - (lam - VIOLATION_TOL) / d_eta if d_eta > 0.0 else np.nan
        eta = step if lo < step < hi else 0.5 * (lo + hi)
        lam, state = top(eta)

    # lambda = sum_e w_e |phi_e|^2, with phi = V state and
    # w = eta w_3 + w_2 + w_1 / eta, so d lambda = 2 Re sum_e w_e conj(phi_e)
    # d phi_e.  phi is linear in each party's U, so d phi by angle k of
    # setting s of party p is the same map with that party's rows replaced
    # by their derivative on setting s and by 0 on the other setting
    # row set (p, s, k) on axes [p, s, k, party, setting, outcome, component]
    own = np.eye(3, dtype=bool)[:, None, None, :, None, None, None]  # party == p
    same = np.eye(2)[:, None, None, :, None, None]                     # setting == s
    rows = np.where(own, same * derivatives[:, :, :, None, None], local)
    w_phi = ((eta, 1.0, 1.0 / eta) @ coefficients) * born_amplitudes(state, local).conj()
    d_lambda = 2.0 * (born_amplitudes(state, rows) @ w_phi).real.ravel()
    if not violated:
        return 1.0 + penalty_weight * (VIOLATION_TOL - lam), -penalty_weight * d_lambda, state
    # lambda rises through the floor at the cutoff; a flat crossing has no
    # gradient to offer
    d_eta = slope(eta, state)
    return eta, -d_lambda / (d_eta if d_eta > 0.0 else np.inf), state


class LocalMinimum(NamedTuple):
    """Where `minimize` stopped: the point, its value, objective calls,
    iterations and status (``converged``, ``stalled`` or ``budget``)."""

    x: np.ndarray
    fun: float
    nfev: int
    nit: int
    status: str


# Armijo's sufficient-decrease fraction; a line search that fails the unit
# step and 19 shorter trials finds no decrease (L-BFGS-B's default maxls)
_ARMIJO = 1e-4
_LINE_SEARCH_CALLS = 20


def minimize(fun, x0, *, max_iterations: int, tol: float) -> LocalMinimum:
    """BFGS for ``fun(x) -> (value, gradient)``, with an Armijo line search.

    The dense inverse Hessian starts as the identity, is scaled by s.y / y.y
    before its first update, and skips every update whose s.y is not
    positive.  A line search tries the unit step, then after a failed trial
    t the minimizer of the quadratic through f, g.step and its value, in
    [t/10, t/2] (t/2 if that value is not finite).  The stopping tests are
    L-BFGS-B's: ``converged`` when max|g| <= tol, or when an iteration
    lowers the value by at most tol times max(|f_old|, |f_new|, 1);
    ``stalled``, at the point reached, after 20 failed trials or once a
    trial's predicted decrease t |g.step| is within the rounding of f,
    ``VALUE_ROUNDING`` max(|f|, 1); ``budget`` after ``max_iterations``.
    """
    x = np.array(x0, dtype=float)
    f, g = fun(x)
    nfev, inverse = 1, None
    if np.max(np.abs(g)) <= tol:
        return LocalMinimum(x, f, nfev, 0, "converged")
    for nit in range(1, max_iterations + 1):
        step = -g if inverse is None else -(inverse @ g)
        slope, t = g @ step, 1.0
        for trial in range(1, _LINE_SEARCH_CALLS + 1):
            x_new = x + t * step
            f_new, g_new = fun(x_new)
            nfev += 1
            if f_new <= f + _ARMIJO * t * slope:
                break
            t = (max(t / 10, min(0.5 * slope * t * t / (f - f_new + slope * t), t / 2))
                 if np.isfinite(f_new) else t / 2)
            if trial == _LINE_SEARCH_CALLS or t * abs(slope) <= VALUE_ROUNDING * max(abs(f), 1.0):
                return LocalMinimum(x, f, nfev, nit - 1, "stalled")
        if (np.max(np.abs(g_new)) <= tol
                or f - f_new <= tol * max(abs(f), abs(f_new), 1.0)):
            return LocalMinimum(x_new, f_new, nfev, nit, "converged")
        s, y = x_new - x, g_new - g
        x, f, g = x_new, f_new, g_new
        if (sy := s @ y) > 0.0:
            if inverse is None:
                inverse = (sy / (y @ y)) * np.eye(len(x))
            hy = inverse @ y
            inverse += (((sy + y @ hy) / sy) * np.outer(s, s)
                        - np.outer(hy, s) - np.outer(s, hy)) / sy
    return LocalMinimum(x, f, nfev, max_iterations, "budget")


def _reverify(pair, kind: str) -> float:
    """Recompute a pair's cutoff through the public, validated path."""
    amplitudes, angles = pair
    tensor = behavior_from_settings(density_from_pure(PureState(amplitudes)),
                                    SettingsTriple.from_angles(angles))
    if kind == "svetlichny":
        return svetlichny_cutoff(svetlichny_coefficients(tensor))
    cutoff = t2_cutoff_symmetric(tensor)
    if cutoff is None:
        raise SearchFailureError("re-verification found no violation")
    return cutoff


def _angle_search(kind: str, x0: np.ndarray,
                  cfg: SearchConfig) -> tuple[tuple[np.ndarray, np.ndarray], LocalMinimum]:
    """One restart: `minimize` over the 12 angles of the eigenvalue-reduced
    cutoff.  Returns the pair of the top eigenvector, normalized, and the
    found angles, and where `minimize` stopped."""
    # the objective is pure, so the state of its call at res.x is kept, not recomputed
    coefficients, states = _operator_coefficients(kind), {}

    def objective(x):
        value, gradient, states[x.tobytes()] = _eigen_cutoff(coefficients, x, 1.0)
        return value, gradient

    res = minimize(objective, x0, max_iterations=cfg.max_iterations, tol=CONVERGENCE_TOL)
    state = states[res.x.tobytes()]
    # the one normalization of the state the certificate, the re-verification
    # and the settings read; eigh leaves one zero as 0.0 or -0.0, and adding
    # 0.0 makes it +0.0, so the settings file prints no sign of a zero
    return (state / np.linalg.norm(state) + 0.0, res.x), res


def _multistart(kind: str, cfg: SearchConfig,
                initial: SettingsParameterization | None) -> SearchResult:
    restarts = []  # (value, nfev, nit, status, seconds) per restart
    best_val, best_pair, violating = np.inf, None, 0
    for i in range(cfg.restarts):
        start = time.perf_counter()
        x0 = (initial.measurement_angles if i == 0 and initial is not None
              else _random_start(random.Random(cfg.seed + i)))
        pair, res = _angle_search(kind, x0, cfg)
        # the restart's value is the fixed-state cutoff of what it found
        val = float(_fixed_cutoff(kind, pair, 1.0))
        restarts.append((val, res.nfev, res.nit, res.status, time.perf_counter() - start))
        if res.status == "budget" or not val < 1.0:
            continue
        violating += 1
        if val < best_val:
            best_val, best_pair = val, pair

    if violating == 0:
        raise SearchFailureError(
            f"none of {cfg.restarts} restarts stopped within its budget at settings "
            "violating at unit efficiency"
        )
    # no optimizer-state leakage: the reported value is recomputed from the
    # returned settings through the validated evaluation path
    best_eta = _reverify(best_pair, kind)
    if abs(best_eta - best_val) > REVERIFY_TOL:
        raise CrossCheckError(
            f"re-verified cutoff {best_eta} deviates from optimizer value {best_val}"
        )
    # the settings hold the bits of the state that was certified and re-verified
    amplitudes, angles = best_pair
    best_settings = SettingsParameterization(amplitudes.view(float), angles)
    values, *diagnostics = zip(*restarts)
    return SearchResult(float(best_eta), best_settings, values, violating, *diagnostics)


def minimize_svetlichny_cutoff(cfg: SearchConfig,
                               initial: SettingsParameterization | None = None) -> SearchResult:
    """Minimize the correlator-form cutoff over states and measurements.

    Runs ``cfg.restarts`` independent local searches from seeded random
    starts (restart i draws its angles from ``random.Random(cfg.seed + i)``);
    deterministic given the seed.  ``initial``, when given, replaces the
    random start of restart 0.
    """
    return _multistart("svetlichny", cfg, initial)


def minimize_t2_cutoff(cfg: SearchConfig,
                       initial: SettingsParameterization | None = None) -> SearchResult:
    """Minimize the probability-form symmetric cutoff over all settings.

    The result approaches 0.75 and should not undercut it, by the no-signaling
    LP bound T <= 4/3 Q (Barrett et al., PRA 71, 022101 (2005)), which is not
    yet certified here; the tests pin only the theta family's approach to 0.75.
    """
    return _multistart("t2", cfg, initial)


# ---------------------------------------------------------------------------
# noise analysis of the one-parameter family

def _t2_noise_crossings(probs: np.ndarray) -> list[float | None]:
    """Symmetric crossings of a stack of behavior arrays, cross-checked.

    ``probs`` has shape ``(n, 2, 2, 2, 2, 2, 2)``.  Each tensor is validated
    and clipped as a `BehaviorTensor` would be; its crossing is the
    `cutoff_root` r of (0, T, -Q), from its triple and pair sums in one
    stacked call, or None unless r < 1 - ``CUTOFF_ROUNDING`` (the strict
    rule of the tolerance table).  Two runtime checks keep the closed form
    honest: the statistic at eta = 1 must not violate on any tensor called
    infeasible, and the observed statistic of every feasible tensor,
    eta^2 (eta T - Q) with its only positive root at r, must be <= 0 at
    eta = max(r - b, 0) and > 0 at eta = r + b (when that is <= 1),
    b = ``CROSSING_BRACKET``.  Both sides of the bracket go through one
    channel call.  Either failure raises `CrossCheckError`.
    """
    probs = validated_probabilities(probs)
    triple, pair = t2_triple_and_pair_sums(probs)
    ratio = cutoff_root(0.0, triple, -pair)
    feasible = ratio < 1.0 - CUTOFF_ROUNDING

    # no strict violation at any eta <= 1 off the feasible set; cheap sanity
    # check at eta = 1
    at_one = t2_statistic(probs[~feasible], pair_reading="checked")
    if np.any(at_one > VIOLATION_TOL):
        raise CrossCheckError("closed form says infeasible but eta=1 violates")

    # lower bracket points first, then the upper points that are <= 1
    targets, crossings = probs[feasible], ratio[feasible]
    above = crossings + CROSSING_BRACKET <= 1.0
    bracketed = np.concatenate([crossings, crossings[above]])
    upper = np.arange(len(bracketed)) >= len(crossings)
    etas = np.where(upper, bracketed + CROSSING_BRACKET,
                    np.maximum(bracketed - CROSSING_BRACKET, 0.0))
    observed = observed_probabilities(np.concatenate([targets, targets[above]]),
                                      np.repeat(etas[:, None], 3, axis=1))
    wrong = (t2_statistic(observed, pair_reading="checked") > 0.0) != upper
    if wrong.any():
        worst = int(np.argmax(wrong))
        raise CrossCheckError(
            f"closed-form crossing {bracketed[worst]} and the sign of the observed "
            f"statistic at eta = {etas[worst]} disagree"
        )
    return [r if ok else None for r, ok in zip(ratio.tolist(), feasible.tolist())]


def noisy_t2_min_efficiency(theta: ThetaSetting, noise: NoiseLevel) -> float | None:
    """Minimum symmetric efficiency certifying the one-parameter family at
    white-noise weight p, or None when no eta <= 1 yields violation.

    The tensor comes from the density-matrix route and goes through the
    same cross-checked crossing as `sweep_t2_noise`, as a batch of one.
    """
    rho = mix_white_noise(density_from_pure(theta_state(theta)), noise)
    tensor = behavior_from_settings(rho, theta_measurements(theta))
    return _t2_noise_crossings(tensor.probs[None])[0]


def sweep_t2_noise(theta_grid, p_grid) -> NoiseSweep:
    """The crossing of every (theta, p) grid point, as a `NoiseSweep` of
    `SweepRow`s ordered lexicographically by (p, theta).

    The ideal tensors come from one stacked call of the pure-state Born
    rule, `qcore.pure_behavior_probabilities`, and by linearity of the
    Born rule in the state the noisy tensor equals (1 - p) * ideal + p *
    uniform.  The tests pin the ideal tensors to the density-matrix route
    within 1e-15, and the crossings to those of `noisy_t2_min_efficiency`,
    which takes that route, within 1e-12.  Each noise row, every theta at
    one p, is one stack of tensors whose crossings `_t2_noise_crossings`
    reads and cross-checks.
    """
    thetas = tuple(sorted(float(t) for t in theta_grid))
    ps = tuple(sorted(float(p) for p in p_grid))
    if not thetas or not ps:
        raise ValueError("grids must be nonempty")
    settings = [ThetaSetting(t) for t in thetas]  # domain check
    for p in ps:
        NoiseLevel(p)

    ideal = pure_behavior_probabilities(
        np.array([theta_state(s).amplitudes for s in settings]),
        np.array([theta_measurements(s).bases() for s in settings]))

    crossings = []
    # `_t2_noise_crossings` returns floats and keeps nothing of its input,
    # so one buffer serves every row
    noisy = np.empty_like(ideal)
    for p in ps:
        # (1 - p) * ideal + p * uniform, every entry of uniform being 1/8
        np.multiply(ideal, 1.0 - p, out=noisy)
        noisy += p * 0.125
        crossings.append(tuple(_t2_noise_crossings(noisy)))
    return NoiseSweep(thetas, ps, tuple(crossings))
