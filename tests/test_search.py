"""Optimizers, noise analysis, and the sweep."""

import numpy as np
import pytest

from tribell import search
from tribell.detector import EfficiencyTriple, observe
from tribell.errors import SearchFailureError
from tribell.families import NoiseLevel, ThetaSetting, ghz_setting, theta_measurements, theta_state
from tribell.inequality import (
    svetlichny_coefficients,
    svetlichny_cutoff,
    t2_cutoff_symmetric,
    t2_value,
)
from tribell.qcore import behavior_from_settings, density_from_pure
from tribell.search import (
    SearchConfig,
    SettingsParameterization,
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


class TestSearchConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(restarts=0)
        with pytest.raises(ValueError):
            SearchConfig(restarts=1, convergence_tol=0.0)


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

    def test_search_failure_when_budget_exhausted(self):
        cfg = SearchConfig(restarts=1, seed=1, max_iterations=2)
        with pytest.raises(SearchFailureError):
            minimize_t2_cutoff(cfg)


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
