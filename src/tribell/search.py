"""Numerical estimation of minimum detection efficiencies.

Multi-start derivative-free minimization of the cutoff efficiency over all
pure three-qubit states and projective measurement triples, plus the
closed-form noise analysis of the one-parameter family and the sweep that
produces (theta, p, eta_min) tables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .detector import observed_probabilities
from .errors import SearchFailureError
from .families import NoiseLevel, ThetaSetting, mix_white_noise, theta_measurements, theta_state
from .inequality import (
    _cutoff_coefficients,
    _quadratic_root,
    _t2_terms,
    svetlichny_coefficients,
    svetlichny_cutoff,
    t2_statistic,
    t2_cutoff_symmetric,
    t2_triple_and_pair_sums,
)
from .qcore import (
    PureState,
    SettingsTriple,
    behavior_from_settings,
    density_from_pure,
    measurement_basis,
    pure_behavior_probabilities,
    validated_probabilities,
)

# treat violation margins below these floors as "no violation" inside the
# objectives; keeps float noise in near-degenerate tensors out of the ratios
_T2_TRIPLE_FLOOR = 1e-8
_SVET_MARGIN_FLOOR = 1e-10

# half-width of the sign bracket around each closed-form noise crossing
_CROSSING_BRACKET = 1e-7
_FEASIBILITY_MARGIN = 1e-12


@dataclass(frozen=True)
class SettingsParameterization:
    """Flat optimization coordinates: 16 state reals + 12 measurement angles.

    ``state_coords`` interleaves real and imaginary parts of the 8
    amplitudes and is normalized on use.  ``measurement_angles`` is
    `SettingsTriple.angles` flattened: (polar, azimuth) per measurement in
    party-major order (a0, a1, b0, b1, c0, c1).
    """

    state_coords: np.ndarray
    measurement_angles: np.ndarray

    def __post_init__(self):
        sc = np.asarray(self.state_coords, dtype=float).reshape(-1)
        ma = np.asarray(self.measurement_angles, dtype=float).reshape(-1)
        if sc.shape != (16,) or ma.shape != (12,):
            raise ValueError("expected 16 state coordinates and 12 angles")
        sc.setflags(write=False)
        ma.setflags(write=False)
        object.__setattr__(self, "state_coords", sc)
        object.__setattr__(self, "measurement_angles", ma)

    def to_state(self) -> PureState:
        return PureState.normalized(self.state_coords[0::2] + 1j * self.state_coords[1::2])

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
        amp = state.amplitudes
        return cls(np.column_stack((amp.real, amp.imag)), settings.angles())


@dataclass(frozen=True)
class SearchConfig:
    restarts: int
    seed: int = 0
    max_iterations: int = 6000
    convergence_tol: float = 1e-12
    penalty_weight: float = 1.0

    def __post_init__(self):
        if self.restarts < 1 or self.seed < 0:
            raise ValueError("restarts must be >= 1 and seed >= 0")
        # negated comparisons, so that a NaN fails them
        if not (self.max_iterations >= 1 and 0.0 < self.convergence_tol < np.inf
                and 0.0 < self.penalty_weight < np.inf):
            raise ValueError("iterations must be positive, tolerance and penalty weight "
                             "finite and positive")


@dataclass(frozen=True)
class SearchResult:
    best_eta: float
    best_settings: SettingsParameterization
    restart_values: tuple[float, ...]
    violating_restarts: int


@dataclass(frozen=True)
class SweepRow:
    theta: float
    p: float
    eta_min: float | None


# ---------------------------------------------------------------------------
# fast objective plumbing (Born tensors are no-signaling, so the marginal
# checks of the public path are skipped)

def _probs_from_vector(vec: np.ndarray) -> np.ndarray | None:
    amp = vec[0:16:2] + 1j * vec[1:16:2]
    norm = np.linalg.norm(amp)
    if norm < 1e-12:
        return None
    amp = amp / norm
    angles = vec[16:].reshape(3, 2, 2)  # the layout of SettingsTriple.angles
    return pure_behavior_probabilities(amp, measurement_basis(angles[..., 0], angles[..., 1]))


def _svetlichny_objective(vec: np.ndarray, penalty_weight: float) -> float:
    probs = _probs_from_vector(vec)
    if probs is None:
        return 2.0
    alpha, beta, gamma = _cutoff_coefficients(probs)
    margin = alpha + beta - gamma
    if margin <= _SVET_MARGIN_FLOOR:
        return 1.0 + penalty_weight * max(-margin, 0.0)
    # margin > 0 and gamma >= 0 keep alpha and beta off the degenerate corner
    return _quadratic_root(alpha, beta, gamma)


def _t2_objective(vec: np.ndarray, penalty_weight: float) -> float:
    probs = _probs_from_vector(vec)
    if probs is None:
        return 2.0
    triple, minus_q = _t2_terms(probs)
    pair = -minus_q[0]
    if triple <= _T2_TRIPLE_FLOOR or pair > triple:
        return 1.0 + penalty_weight * max(pair - triple, 0.0)
    return pair / triple


def _random_start(rng: np.random.Generator) -> np.ndarray:
    state = rng.normal(size=16)
    polars = rng.uniform(0.0, np.pi, size=6)
    azimuths = rng.uniform(0.0, 2.0 * np.pi, size=6)
    return np.concatenate([state, np.column_stack((polars, azimuths)).reshape(-1)])


def minimize(fun, x0, **kwargs):
    """`scipy.optimize.minimize`, imported on the first call: only the MDE
    search needs an optimizer, so every other command starts on numpy alone."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(fun, x0, **kwargs)


def _local_search(objective, x0: np.ndarray, cfg: SearchConfig) -> tuple[float, np.ndarray]:
    # Nelder-Mead with one simplex restart from the found point; the
    # second pass recovers from simplex collapse in 28 dimensions
    x = x0
    fun = None
    for _ in range(2):
        res = minimize(
            objective,
            x,
            method="Nelder-Mead",
            options={
                "maxiter": cfg.max_iterations,
                "maxfev": cfg.max_iterations,
                "xatol": 1e-10,
                "fatol": cfg.convergence_tol,
                "adaptive": True,
            },
        )
        x, fun = res.x, float(res.fun)
    return fun, x


def _reverify(vec: np.ndarray, kind: str) -> float:
    """Recompute the cutoff through the public, validated path."""
    params = SettingsParameterization.from_vector(vec)
    tensor = behavior_from_settings(density_from_pure(params.to_state()), params.to_settings())
    if kind == "svetlichny":
        return svetlichny_cutoff(svetlichny_coefficients(tensor))
    cutoff = t2_cutoff_symmetric(tensor)
    if cutoff is None:
        raise SearchFailureError("re-verification found no violation")
    return cutoff


def _multistart(kind: str, cfg: SearchConfig,
                initial: SettingsParameterization | None) -> SearchResult:
    objective_fn = _svetlichny_objective if kind == "svetlichny" else _t2_objective
    objective = lambda v: objective_fn(v, cfg.penalty_weight)

    restart_values = []
    best_val, best_vec = np.inf, None
    violating = 0
    for i in range(cfg.restarts):
        if i == 0 and initial is not None:
            x0 = initial.as_vector()
        else:
            rng = np.random.default_rng(cfg.seed + i)
            x0 = _random_start(rng)
        val, vec = _local_search(objective, x0, cfg)
        restart_values.append(val)
        if val < 1.0:
            violating += 1
        if val < best_val:
            best_val, best_vec = val, vec

    if violating == 0:
        raise SearchFailureError(
            f"none of {cfg.restarts} restarts found settings violating at unit efficiency"
        )
    # no optimizer-state leakage: the reported value is recomputed from the
    # returned settings through the validated evaluation path
    best_eta = _reverify(best_vec, kind)
    if abs(best_eta - best_val) > 1e-9:
        raise RuntimeError(
            f"re-verified cutoff {best_eta} deviates from optimizer value {best_val}"
        )
    return SearchResult(
        best_eta=float(best_eta),
        best_settings=SettingsParameterization.from_vector(best_vec),
        restart_values=tuple(restart_values),
        violating_restarts=violating,
    )


def minimize_svetlichny_cutoff(cfg: SearchConfig,
                               initial: SettingsParameterization | None = None) -> SearchResult:
    """Minimize the correlator-form cutoff over states and measurements.

    Runs ``cfg.restarts`` independent local searches from seeded random
    starts (restart i uses seed ``cfg.seed + i``); deterministic given the
    seed.  ``initial``, when given, replaces the random start of restart 0.
    """
    return _multistart("svetlichny", cfg, initial)


def minimize_t2_cutoff(cfg: SearchConfig,
                       initial: SettingsParameterization | None = None) -> SearchResult:
    """Minimize the probability-form symmetric cutoff over all settings.

    The result can approach but never undercut 0.75: the signed triple
    combination of any no-signaling tensor is at most 4/3 of its pair sum.
    """
    return _multistart("t2", cfg, initial)


# ---------------------------------------------------------------------------
# noise analysis of the one-parameter family

def _t2_noise_crossings(probs: np.ndarray) -> list[float | None]:
    """Symmetric crossings Q/T of a stack of behavior arrays, cross-checked.

    ``probs`` has shape ``(n, 2, 2, 2, 2, 2, 2)``.  Each tensor is validated
    and clipped as a `BehaviorTensor` would be; its crossing is the
    closed-form ratio r = Q/T of its pair and triple sums, or None when no
    efficiency eta <= 1 gives a strict violation.  Two runtime checks keep
    the closed form honest: the statistic at eta = 1 must not violate on
    any tensor called infeasible, and the observed statistic of every
    feasible tensor, eta^2 (eta T - Q) with its only positive root at r,
    must be <= 0 at eta = max(r - 1e-7, 0) and > 0 at eta = r + 1e-7 (when
    that is <= 1).  Both sides of the bracket go through one channel call.
    Either failure raises RuntimeError.
    """
    probs = validated_probabilities(probs)
    triple, pair = t2_triple_and_pair_sums(probs)
    positive = triple > 0.0
    ratio = np.divide(pair, triple, out=np.full_like(pair, np.inf), where=positive)
    feasible = ratio < 1.0 - _FEASIBILITY_MARGIN

    # no strict violation at any eta <= 1 off the feasible set; cheap sanity
    # check at eta = 1
    at_one = t2_statistic(probs[~feasible], pair_reading="checked")
    if np.any(at_one > 1e-9):
        raise RuntimeError("closed form says infeasible but eta=1 violates")

    # lower bracket points first, then the upper points that are <= 1
    targets, crossings = probs[feasible], ratio[feasible]
    above = crossings + _CROSSING_BRACKET <= 1.0
    bracketed = np.concatenate([crossings, crossings[above]])
    upper = np.arange(len(bracketed)) >= len(crossings)
    etas = np.where(upper, bracketed + _CROSSING_BRACKET,
                    np.maximum(bracketed - _CROSSING_BRACKET, 0.0))
    observed = observed_probabilities(np.concatenate([targets, targets[above]]),
                                      np.repeat(etas[:, None], 3, axis=1))
    wrong = (t2_statistic(observed, pair_reading="checked") > 0.0) != upper
    if wrong.any():
        worst = int(np.argmax(wrong))
        raise RuntimeError(
            f"closed-form crossing {bracketed[worst]} and the sign of the observed "
            f"statistic at eta = {etas[worst]} disagree"
        )
    return [float(r) if ok else None for r, ok in zip(ratio, feasible)]


def noisy_t2_min_efficiency(theta: ThetaSetting, noise: NoiseLevel) -> float | None:
    """Minimum symmetric efficiency certifying the one-parameter family at
    white-noise weight p, or None when no eta <= 1 yields violation.

    The tensor comes from the density-matrix route and goes through the
    same cross-checked crossing as `sweep_t2_noise`, as a batch of one.
    """
    rho = mix_white_noise(density_from_pure(theta_state(theta)), noise)
    tensor = behavior_from_settings(rho, theta_measurements(theta))
    return _t2_noise_crossings(tensor.probs[None])[0]


def sweep_t2_noise(theta_grid, p_grid) -> list[SweepRow]:
    """One row per (theta, p) grid point, ordered lexicographically by (p, theta).

    Uses linearity of the Born rule in the state: the noisy tensor equals
    (1 - p) * ideal + p * uniform, which the family tests pin against the
    density-matrix route to 1e-12.  Each noise row, every theta at one p,
    is one stack of tensors: it is validated, its crossings Q/T are read in
    closed form, the cells called infeasible are checked not to violate at
    eta = 1, and one channel call over all feasible cells checks that the
    observed statistic changes sign within 1e-7 of every Q/T.  A cell that
    fails either check raises RuntimeError.
    """
    thetas = sorted(float(t) for t in theta_grid)
    ps = sorted(float(p) for p in p_grid)
    if not thetas or not ps:
        raise ValueError("grids must be nonempty")
    settings = [ThetaSetting(t) for t in thetas]  # domain check
    for p in ps:
        NoiseLevel(p)

    ideal = np.stack([
        behavior_from_settings(density_from_pure(theta_state(s)), theta_measurements(s)).probs
        for s in settings
    ])

    rows = []
    uniform = np.full((2,) * 6, 0.125)
    for p in ps:
        crossings = _t2_noise_crossings((1.0 - p) * ideal + p * uniform)
        rows += [SweepRow(theta=t, p=p, eta_min=eta) for t, eta in zip(thetas, crossings)]
    return rows
