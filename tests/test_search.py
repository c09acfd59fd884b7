"""Optimizers, noise analysis, and the sweep."""

import random

import numpy as np
import pytest

from tribell import search
from tribell.detector import EfficiencyTriple, observe
from tribell.errors import CrossCheckError, NoViolationError, SearchFailureError
from tribell.families import NoiseLevel, ThetaSetting, ghz_setting, theta_measurements, theta_state
from tribell.inequality import (
    svetlichny_coefficients,
    svetlichny_cutoff,
    t2_cutoff_symmetric,
    t2_triple_and_pair_sums,
    t2_value,
)
from conftest import random_settings, random_state
from tribell.inequality import SVETLICHNY_FORM, T2_FORMS
from tribell.qcore import (
    VIOLATION_TOL,
    PureState,
    behavior_from_settings,
    density_from_pure,
    measurement_basis,
    pure_behavior_probabilities,
)
from tribell.search import (
    SearchConfig,
    SettingsParameterization,
    SweepRow,
    minimize_svetlichny_cutoff,
    minimize_t2_cutoff,
    noisy_t2_min_efficiency,
    sweep_t2_noise,
)

# oracle values from the independent dense-matrix path
NOISY_CROSSING_0885_002 = 0.9465059183762572

# settings whose correlator cutoff quadratic opens downward (alpha near
# -0.02, margin alpha + beta - gamma near 0.28), found by a local search for
# a negative alpha at positive margin
ALPHA_NEGATIVE_SETTINGS = [
    0.341, 0.763, 0.323, -1.148, 0.864, 0.314, -0.507, 0.578, 0.538, 0.232, 0.023, 0.511,
    -0.979, -0.178, -0.527, 0.883, 0.438, 1.701, 1.396, 6.004, 0.65, 6.393, 0.912, 3.16,
    2.767, 2.143, 1.2, 1.548,
]


def tensor_of(vec):
    params = SettingsParameterization.from_vector(vec)
    return behavior_from_settings(density_from_pure(params.to_state()), params.to_settings())


class TestSettingsParameterization:
    def test_vector_round_trip(self, rng):
        vec = rng.normal(size=28)
        params = SettingsParameterization.from_vector(vec)
        np.testing.assert_array_equal(params.as_vector(), vec)

    def test_quantum_round_trip(self):
        state, settings = ghz_setting()
        params = SettingsParameterization.from_quantum(state, settings)
        np.testing.assert_allclose(params.to_state().amplitudes, state.amplitudes, atol=1e-15)
        rebuilt = params.to_settings()
        assert rebuilt.a[1].polar == settings.a[1].polar
        assert rebuilt.c[1].azimuth == settings.c[1].azimuth

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            SettingsParameterization(np.zeros(15), np.zeros(12))

    def test_to_state_keeps_a_normalized_eigenvector(self, rng):
        # the search stores its top eigenvectors divided by their norm once;
        # dividing again would move the last bits of about a fifth of them
        for _ in range(2000):
            m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            vector = np.linalg.eigh(m + m.conj().T)[1][:, -1]
            state = PureState(vector / np.linalg.norm(vector))
            params = SettingsParameterization.from_quantum(state, random_settings(rng))
            assert params.to_state().amplitudes.tobytes() == state.amplitudes.tobytes()


class TestObjectives:
    """The search objectives read the same cutoffs as the public path."""

    def test_svetlichny_objective_on_both_branches(self):
        ghz = SettingsParameterization.from_quantum(*ghz_setting()).as_vector()
        for vec, alpha_positive in ((ghz, True), (np.array(ALPHA_NEGATIVE_SETTINGS), False)):
            coefficients = svetlichny_coefficients(tensor_of(vec))
            assert (coefficients.alpha > 0) == alpha_positive
            assert search._svetlichny_objective(vec, 1.0) == pytest.approx(
                svetlichny_cutoff(coefficients), abs=1e-12)

    def test_t2_objective(self):
        for theta in (0.2, 0.6, 0.9):
            setting = ThetaSetting(theta)
            vec = SettingsParameterization.from_quantum(
                theta_state(setting), theta_measurements(setting)).as_vector()
            assert search._t2_objective(vec, 1.0) == pytest.approx(
                t2_cutoff_symmetric(tensor_of(vec)), abs=1e-12)

    def test_svetlichny_margin_at_the_floor_is_no_violation(self):
        # on the line from z-only measurements to the GHZ angles, t is where
        # the margin alpha + beta - gamma is 3.8e-10: above 1e-10, below the
        # verdicts' VIOLATION_TOL, so the public cutoff refuses it
        ghz = SettingsParameterization.from_quantum(*ghz_setting())
        vec = np.concatenate([ghz.state_coords, 0.8903763805050405 * ghz.measurement_angles])
        coefficients = svetlichny_coefficients(tensor_of(vec))
        assert 1e-10 < coefficients.violation_margin <= VIOLATION_TOL
        assert search._svetlichny_objective(vec, 1.0) >= 1.0
        with pytest.raises(NoViolationError):
            svetlichny_cutoff(coefficients)

    def test_t2_margin_at_the_floor_is_no_violation(self):
        # just below theta = pi/3, T - Q = 3.9e-10 with T = 1.35
        setting = ThetaSetting(np.pi / 3 - 5e-10)
        vec = SettingsParameterization.from_quantum(
            theta_state(setting), theta_measurements(setting)).as_vector()
        tensor = tensor_of(vec)
        triple, pair = t2_triple_and_pair_sums(tensor)
        assert 0.0 < triple - pair <= VIOLATION_TOL
        assert search._t2_objective(vec, 1.0) >= 1.0
        assert not t2_value(tensor).violated


class TestSearchConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(restarts=0)


def quadratic_12d():
    # a convex quadratic with condition number 1e3 and minimizer (1, 2, ..., 12)
    rng = np.random.default_rng(5)
    basis, _ = np.linalg.qr(rng.normal(size=(12, 12)))
    hessian = basis @ np.diag(np.logspace(0.0, 3.0, 12)) @ basis.T
    minimizer = np.arange(1.0, 13.0)

    def fun(x):
        d = x - minimizer
        return 0.5 * d @ hessian @ d, hessian @ d

    return fun, minimizer


def rosenbrock(x):
    a, b = x
    value = (1.0 - a) ** 2 + 100.0 * (b - a * a) ** 2
    return value, np.array([-2.0 * (1.0 - a) - 400.0 * a * (b - a * a), 200.0 * (b - a * a)])


class TestMinimize:
    """The numpy BFGS behind each restart, on objectives with known minima."""

    def test_convex_quadratic(self):
        fun, minimizer = quadratic_12d()
        res = search.minimize(fun, np.zeros(12), max_iterations=500, tol=1e-12)
        assert res.status == "converged"
        np.testing.assert_allclose(res.x, minimizer, rtol=0, atol=1e-6)
        assert res.fun == pytest.approx(0.0, abs=1e-12)

    def test_rosenbrock(self):
        res = search.minimize(rosenbrock, np.array([-1.2, 1.0]), max_iterations=500, tol=1e-12)
        assert res.status != "budget"
        np.testing.assert_allclose(res.x, [1.0, 1.0], rtol=0, atol=1e-6)

    def test_budget_at_the_iteration_cap(self):
        res = search.minimize(rosenbrock, np.array([-1.2, 1.0]), max_iterations=3, tol=1e-12)
        assert res.status == "budget"
        assert res.nit == 3

    def test_stalled_when_the_gradient_points_uphill(self):
        def uphill(x):
            return x @ x, -2.0 * x

        res = search.minimize(uphill, np.ones(12), max_iterations=100, tol=1e-12)
        assert res.status == "stalled"
        np.testing.assert_array_equal(res.x, np.ones(12))
        assert res.fun == 12.0

    @pytest.mark.parametrize("scale", [1.0, 4.0])
    def test_one_interpolated_trial_lands_on_the_minimum(self, scale):
        # the unit step overshoots to 6 (scale 1) or 24 (scale 4), and the
        # quadratic through f, the slope and that value has its minimum at 3;
        # at scale 4, halving would take three trials to get there, not one
        def parabola(x):
            return scale * float((x[0] - 3.0) ** 2), scale * 2.0 * (x - 3.0)

        res = search.minimize(parabola, np.zeros(1), max_iterations=100, tol=1e-12)
        assert (res.status, res.nfev, res.x[0], res.fun) == ("converged", 3, 3.0, 0.0)

    def test_stalled_when_the_predicted_decrease_is_rounding(self):
        # the gradient promises a decrease of 1.2e-19 per unit step, far
        # below the rounding of f = 1, and every trial point is higher
        def flat(x):
            return 1.0 + float(np.sum(np.abs(x))), np.full(12, 1e-10)

        res = search.minimize(flat, np.zeros(12), max_iterations=100, tol=1e-12)
        assert res.status == "stalled"
        assert res.nfev < 20
        np.testing.assert_array_equal(res.x, np.zeros(12))
        assert res.fun == 1.0

    @pytest.mark.parametrize("beyond", [np.nan, np.inf])
    def test_a_trial_that_is_not_finite_halves_the_step(self, beyond):
        points = []

        def walled(x):
            points.append(x.copy())
            value = float((x[0] - 1.0) ** 2) if x[0] < 1.5 else beyond
            return value, 2.0 * (x - 1.0)

        res = search.minimize(walled, np.zeros(1), max_iterations=100, tol=1e-12)
        # the unit step reaches 2, past the wall; half of it lands on 1
        assert [p[0] for p in points] == [0.0, 2.0, 1.0]
        assert np.isfinite(points).all()
        assert (res.status, res.x[0], res.fun) == ("converged", 1.0, 0.0)

    def test_nfev_counts_every_objective_call(self):
        calls = []

        def counted(x):
            calls.append(x.copy())
            return rosenbrock(x)

        res = search.minimize(counted, np.array([-1.2, 1.0]), max_iterations=500, tol=1e-12)
        assert res.nfev == len(calls)
        assert res.nfev > res.nit

    def test_deterministic(self):
        fun, _ = quadratic_12d()
        a = search.minimize(fun, np.zeros(12), max_iterations=500, tol=1e-12)
        b = search.minimize(fun, np.zeros(12), max_iterations=500, tol=1e-12)
        np.testing.assert_array_equal(a.x, b.x)
        assert (a.fun, a.nfev, a.nit, a.status) == (b.fun, b.nfev, b.nit, b.status)


class TestOptimizers:
    def test_svetlichny_determinism(self):
        cfg = SearchConfig(restarts=2, seed=42, max_iterations=1500)
        a = minimize_svetlichny_cutoff(cfg)
        b = minimize_svetlichny_cutoff(cfg)
        assert a.best_eta == b.best_eta
        assert a.restart_values == b.restart_values
        np.testing.assert_array_equal(
            a.best_settings.as_vector(), b.best_settings.as_vector()
        )

    def test_svetlichny_from_ghz_start(self):
        state, settings = ghz_setting()
        init = SettingsParameterization.from_quantum(state, settings)
        cfg = SearchConfig(restarts=1, seed=0, max_iterations=6000)
        result = minimize_svetlichny_cutoff(cfg, initial=init)
        # must not do worse than its start, whose cutoff is about 0.8905
        assert result.best_eta <= 0.890

    def test_t2_small_run_stays_above_floor(self):
        cfg = SearchConfig(restarts=4, seed=3, max_iterations=6000)
        result = minimize_t2_cutoff(cfg)
        assert result.best_eta >= 0.75 - 1e-6
        assert result.best_eta <= 0.76
        assert result.violating_restarts >= 1

    @pytest.mark.parametrize("seed", [0, 1, 7, 501, 510, 2**40])
    def test_random_start_keeps_the_generator_draws(self, seed):
        # drawn one scalar at a time, a numpy Generator gives the bits of its
        # size=6 draws, so the starts the tests take from it stay fixed
        rng = np.random.default_rng(seed)
        polars = rng.uniform(0.0, np.pi, size=6)
        azimuths = rng.uniform(0.0, 2.0 * np.pi, size=6)
        expected = np.column_stack((polars, azimuths)).reshape(-1)
        start = search._random_start(np.random.default_rng(seed))
        assert start.dtype == expected.dtype and start.shape == (12,)
        assert start.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("kind", ["svetlichny", "t2"])
    def test_restart_i_starts_from_seed_plus_i(self, kind):
        # restart i of a run at seed s is the single restart of a run at
        # seed s + i, started from random.Random(s + i)
        search_fn = minimize_svetlichny_cutoff if kind == "svetlichny" else minimize_t2_cutoff
        seed, cfg = 5, SearchConfig(restarts=3, seed=5)
        result = search_fn(cfg)
        for i in range(cfg.restarts):
            single = search_fn(SearchConfig(restarts=1, seed=seed + i))
            assert (single.restart_values[0], single.nfev[0]) == (
                result.restart_values[i], result.nfev[i]), i
            pair, res = search._angle_search(
                kind, search._random_start(random.Random(seed + i)), cfg)
            assert (float(search._fixed_cutoff(kind, pair, 1.0)), res.nfev) == (
                result.restart_values[i], result.nfev[i]), i

    def test_search_failure_when_budget_exhausted(self):
        cfg = SearchConfig(restarts=1, seed=1, max_iterations=2)
        with pytest.raises(SearchFailureError):
            minimize_t2_cutoff(cfg)


def certificate_objective(kind):
    return search._svetlichny_objective if kind == "svetlichny" else search._t2_objective


class TestEigenReduction:
    """The search's operators, cutoff gradient and per-restart certificate."""

    @pytest.mark.parametrize("kind", ["svetlichny", "t2"])
    def test_operators_read_the_form_rows(self, rng, kind):
        # A_k is the sum of the k-party rows; the T2 form is read at reading 0
        form = SVETLICHNY_FORM if kind == "svetlichny" else T2_FORMS[0]
        sizes = np.array([bin(subset).count("1") for subset in range(8)])
        rows = np.stack([form[sizes == k].sum(axis=0) for k in (3, 2, 1)])
        coefficients = search._operator_coefficients(kind)
        for _ in range(20):
            state, settings = random_state(rng), random_settings(rng)
            local, _ = search._local_paulis(settings.angles())
            operators = search._row_operators(coefficients, local)
            amp = state.amplitudes
            expectations = np.einsum("i,kij,j->k", amp.conj(), operators, amp)
            probs = pure_behavior_probabilities(amp, settings.bases()).reshape(-1)
            np.testing.assert_allclose(expectations.real, rows @ probs, rtol=0, atol=1e-12)
            np.testing.assert_allclose(expectations.imag, 0.0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kind", ["svetlichny", "t2"])
    def test_gradient_matches_central_differences(self, rng, kind):
        coefficients = search._operator_coefficients(kind)

        def cutoff(angles):
            return search._eigen_cutoff(coefficients, angles, 1.0)[0]

        checked = 0
        while checked < 8:
            angles = rng.uniform(0.0, 2.0 * np.pi, size=12)
            value, gradient, _ = search._eigen_cutoff(coefficients, angles, 1.0)
            # Hellmann-Feynman needs a simple top eigenvalue; the probability
            # form's kernel sits at 0, one floor (1e-9) below it at the cutoff
            local, _ = search._local_paulis(angles.reshape(3, 2, 2))
            a3, a2, a1 = search._row_operators(coefficients, local)
            eta = min(value, 1.0)
            second, first = np.linalg.eigvalsh(eta * a3 + a2 + a1 / eta)[-2:]
            if first - second < 1e-10:
                continue
            h = 1e-6
            differences = [(cutoff(angles + step) - cutoff(angles - step)) / (2.0 * h)
                           for step in h * np.eye(12)]
            np.testing.assert_allclose(gradient, differences, rtol=0, atol=1e-6)
            checked += 1

    def test_basis_derivatives_match_central_differences(self, rng):
        # `_local_paulis` reads the derivatives off the bases; central
        # differences of `measurement_basis` pin them to its one definition,
        # at random angles and at the poles
        h = 1e-6

        def conjugated_basis(angles):
            return np.conj(measurement_basis(angles[..., 0], angles[..., 1]))

        for _ in range(10):
            angles = rng.uniform(0.0, 2.0 * np.pi, size=(3, 2, 2))
            angles[rng.integers(3), :, 0] = 0.0, np.pi
            local, derivatives = search._local_paulis(angles)
            assert local.tobytes() == conjugated_basis(angles).tobytes()
            for k, step in enumerate(h * np.eye(2)):
                differences = (conjugated_basis(angles + step)
                               - conjugated_basis(angles - step)) / (2.0 * h)
                np.testing.assert_allclose(derivatives[:, :, k], differences, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("kind", ["svetlichny", "t2"])
    @pytest.mark.parametrize("settings", [
        theta_measurements(ThetaSetting(0.3)),
        theta_measurements(ThetaSetting(0.9)),
        ghz_setting()[1],
    ], ids=["theta-0.3", "theta-0.9", "ghz"])
    def test_gradient_at_family_and_ghz_angles(self, kind, settings):
        # these angles have polar 0 and azimuth 0, which random angles never hit
        coefficients = search._operator_coefficients(kind)
        angles = settings.angles().reshape(-1)
        value, gradient, _ = search._eigen_cutoff(coefficients, angles, 1.0)
        # Hellmann-Feynman needs a simple top eigenvalue
        local, _ = search._local_paulis(settings.angles())
        a3, a2, a1 = search._row_operators(coefficients, local)
        eta = min(value, 1.0)
        second, first = np.linalg.eigvalsh(eta * a3 + a2 + a1 / eta)[-2:]
        assert first - second >= 1e-10
        h = 1e-6
        differences = [(search._eigen_cutoff(coefficients, angles + step, 1.0)[0]
                        - search._eigen_cutoff(coefficients, angles - step, 1.0)[0]) / (2.0 * h)
                       for step in h * np.eye(12)]
        np.testing.assert_allclose(gradient, differences, rtol=0, atol=1e-6)

    def test_correlator_seed_0_single_restart(self):
        # the 28-dimensional Nelder-Mead search found no violation here
        result = minimize_svetlichny_cutoff(SearchConfig(restarts=1, seed=0))
        assert result.best_eta <= 0.881

    def test_t2_seed_3_single_restart(self):
        # the 28-dimensional Nelder-Mead search stopped at 0.8142 here
        result = minimize_t2_cutoff(SearchConfig(restarts=1, seed=3))
        assert 0.75 <= result.best_eta <= 0.755

    @pytest.mark.parametrize("kind", ["svetlichny", "t2"])
    def test_single_restarts_reach_the_optimum(self, kind):
        search_fn = minimize_svetlichny_cutoff if kind == "svetlichny" else minimize_t2_cutoff
        for seed in range(40):
            eta = search_fn(SearchConfig(restarts=1, seed=seed)).best_eta
            if kind == "svetlichny":
                assert eta <= 0.881, seed
            else:
                assert 0.75 <= eta <= 0.755, seed

    def test_restarts_go_through_the_module_level_minimize(self, monkeypatch):
        # the benchmark's spans wrap search.minimize by name and count the
        # objective calls it makes
        original = search.minimize
        calls = []

        def counted_minimize(objective, *args, **kwargs):
            def counted(x):
                calls.append(1)
                return objective(x)

            return original(counted, *args, **kwargs)

        monkeypatch.setattr(search, "minimize", counted_minimize)
        x0 = search._random_start(np.random.default_rng(0))
        _, res = search._angle_search("t2", x0, SearchConfig(restarts=1))
        assert len(calls) == res.nfev > 1

    @pytest.mark.parametrize("kind", ["svetlichny", "t2"])
    def test_certificate_reverifies_within_1e10(self, kind):
        cfg = SearchConfig(restarts=1)
        for seed in range(501, 511):
            x0 = search._random_start(np.random.default_rng(seed))
            vec, _ = search._angle_search(kind, x0, cfg)
            certificate = certificate_objective(kind)(vec, 1.0)
            assert certificate < 1.0
            assert abs(search._reverify(vec, kind) - certificate) < 1e-10, seed

    def test_per_restart_diagnostics(self):
        result = minimize_t2_cutoff(SearchConfig(restarts=3, seed=11))
        for field in (result.restart_values, result.nfev, result.nit, result.status,
                      result.restart_s):
            assert len(field) == 3
        assert set(result.status) <= {"converged", "stalled"}
        assert result.violating_restarts == 3
        assert all(n >= 1 for n in result.nfev)
        assert all(t > 0.0 for t in result.restart_s)

    def test_budget_restarts_do_not_count(self):
        # from the GHZ angles the correlator search converges within 5
        # iterations; from a random start it does not
        init = SettingsParameterization.from_quantum(*ghz_setting())
        result = minimize_svetlichny_cutoff(
            SearchConfig(restarts=2, seed=0, max_iterations=5), initial=init)
        assert result.status == ("converged", "budget")
        assert result.violating_restarts == 1
        assert result.best_eta == pytest.approx(result.restart_values[0], abs=1e-9)


class TestNoisyMinEfficiency:
    def test_noiseless_small_theta(self):
        eta = noisy_t2_min_efficiency(ThetaSetting(0.02), NoiseLevel(0.0))
        assert eta == pytest.approx(0.7500750050002833, abs=1e-10)

    def test_boundary_theta_infeasible(self):
        assert noisy_t2_min_efficiency(ThetaSetting(np.pi / 3), NoiseLevel(0.0)) is None

    def test_strong_noise_infeasible_at_small_theta(self):
        assert noisy_t2_min_efficiency(ThetaSetting(0.3), NoiseLevel(0.05)) is None

    def test_two_percent_noise_feasible_near_optimal_theta(self):
        # the family tolerates 2% noise around theta = 0.885 (with eta near 0.95)
        eta = noisy_t2_min_efficiency(ThetaSetting(0.885), NoiseLevel(0.02))
        assert eta == pytest.approx(NOISY_CROSSING_0885_002, abs=1e-9)

    def test_boundary_bracketing(self):
        theta, p = ThetaSetting(0.5), NoiseLevel(0.002)
        eta = noisy_t2_min_efficiency(theta, p)
        assert eta is not None
        from tribell.families import mix_white_noise

        tensor = behavior_from_settings(
            mix_white_noise(density_from_pure(theta_state(theta)), p),
            theta_measurements(theta),
        )
        above = observe(tensor, EfficiencyTriple.symmetric(eta + 1e-5))
        below = observe(tensor, EfficiencyTriple.symmetric(eta - 1e-5))
        assert t2_value(above).value > 0
        assert t2_value(below).value <= 0


class TestSweep:
    def test_rows_ordered_and_match_pointwise(self):
        thetas = [0.3, 0.6, 0.9]
        ps = [0.0, 0.01]
        rows = sweep_t2_noise(thetas, ps)
        assert [(r.p, r.theta) for r in rows] == [
            (0.0, 0.3), (0.0, 0.6), (0.0, 0.9), (0.01, 0.3), (0.01, 0.6), (0.01, 0.9)
        ]
        for row in rows:
            expected = noisy_t2_min_efficiency(ThetaSetting(row.theta), NoiseLevel(row.p))
            if expected is None:
                assert row.eta_min is None
            else:
                assert row.eta_min == pytest.approx(expected, abs=1e-12)

    def test_ideal_tensors_match_the_density_route(self, monkeypatch):
        # at p = 0 the stack of each noise row is the ideal tensors exactly
        stacks, real = [], search._t2_noise_crossings

        def recording(probs):
            stacks.append(probs)
            return real(probs)

        monkeypatch.setattr(search, "_t2_noise_crossings", recording)
        thetas = np.linspace(0.01, np.pi / 3, 200)  # the CLI's default grid
        sweep_t2_noise(thetas, [0.0])
        (ideal,) = stacks
        density = np.stack([
            behavior_from_settings(density_from_pure(theta_state(s)), theta_measurements(s)).probs
            for s in map(ThetaSetting, thetas)
        ])
        assert np.max(np.abs(ideal - density)) <= 1e-15

    def test_noiseless_row_matches_analytic_curve(self):
        thetas = np.linspace(0.05, 1.0, 15)
        rows = sweep_t2_noise(thetas, [0.0])
        for row in rows:
            assert row.eta_min == pytest.approx(
                3 / (4 * np.cos(row.theta / 2) ** 2), abs=1e-9
            )

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            sweep_t2_noise([], [0.0])

    def test_bisection_cross_check_is_live(self, monkeypatch):
        # a channel that ignores the efficiencies leaves every feasible
        # point violating at all eta, so the bisection cannot meet Q/T
        monkeypatch.setattr(search, "observed_probabilities", lambda probs, etas: probs)
        with pytest.raises(RuntimeError, match="disagree"):
            sweep_t2_noise([0.3, 0.6], [0.0, 0.01])

    def test_cross_check_brackets_each_crossing_within_1e7(self, monkeypatch):
        # a pair sum 5e-7 too large moves each Q/T by about 4e-7: within a
        # 1e-6 comparison, but outside the sign bracket of +-1e-7
        sums = search.t2_triple_and_pair_sums

        def shifted(probs):
            triple, pair = sums(probs)
            return triple, pair * (1.0 + 5e-7)

        monkeypatch.setattr(search, "t2_triple_and_pair_sums", shifted)
        with pytest.raises(RuntimeError, match="disagree"):
            sweep_t2_noise([0.3, 0.6], [0.0, 0.01])

    def test_infeasible_cells_are_checked_at_eta_1(self, monkeypatch):
        # a pair sum inflated by half puts every Q/T above 1, so the closed
        # form calls each cell infeasible; the check must read the statistic
        # of the cells themselves, not T - Q from the same wrong sums
        sums = search.t2_triple_and_pair_sums

        def inflated(probs):
            triple, pair = sums(probs)
            return triple, pair * 1.5

        monkeypatch.setattr(search, "t2_triple_and_pair_sums", inflated)
        with pytest.raises(CrossCheckError, match="infeasible but eta=1 violates"):
            sweep_t2_noise([0.3, 0.6], [0.0, 0.01])


class TestSweepSequence:
    # unsorted on purpose: the sweep sorts both grids
    THETAS, PS = [0.9, 0.3, 1.2, 0.6], [0.01, 0.0, 0.015]

    @pytest.fixture(scope="class")
    def rows(self):
        return sweep_t2_noise(self.THETAS, self.PS)

    def test_len(self, rows):
        assert len(rows) == 12

    def test_iterates_in_p_then_theta_order(self, rows):
        assert [(r.p, r.theta) for r in rows] == [
            (p, t) for p in sorted(self.PS) for t in sorted(self.THETAS)]
        assert all(isinstance(r, SweepRow) for r in rows)

    def test_rows_equal_the_cells_swept_one_by_one(self, rows):
        cells = [sweep_t2_noise([t], [p])[0] for p in sorted(self.PS) for t in sorted(self.THETAS)]
        assert list(rows) == cells
        # the grid holds feasible and infeasible cells alike
        assert {r.eta_min is None for r in cells} == {True, False}

    def test_indexing(self, rows):
        listed = list(rows)
        for i in range(-len(listed), len(listed)):
            assert rows[i] == listed[i], i
        for i in (len(listed), -len(listed) - 1, 10**20):
            with pytest.raises(IndexError):
                rows[i]
        with pytest.raises(TypeError):
            rows[1.0]

    def test_read_only(self, rows):
        with pytest.raises(TypeError):
            rows[0] = SweepRow(0.3, 0.0, None)

    def test_one_cell_unpacks(self):
        (row,) = sweep_t2_noise([0.4], [0.0])
        assert (row.theta, row.p) == (0.4, 0.0)
        assert row.eta_min == pytest.approx(3 / (4 * np.cos(0.2) ** 2), abs=1e-9)
