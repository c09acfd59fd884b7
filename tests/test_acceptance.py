"""Acceptance criteria, one pass/fail line per criterion (run with -s to see them).

Criterion 6 is split: the detector-window clauses pass, while the literal
"maximal feasible p" clause fails by a real margin.  The computation shows
why: with detectors allowed up to eta = 1 the one-parameter family
tolerates white noise up to about 5.8 % (the optimum sits near theta =
0.886, well inside the sweep domain), so every p in the [0, 0.02] grid has
feasible rows.  The 1.3-1.9 % window is recovered exactly when detectors
are capped at the bottom of the stated realistic range (eta <= 0.92):
there the maximal tolerable noise is about 1.62 %.  The failing test is
kept as stated rather than weakened; see its assertion message.
"""

import json
import time

import numpy as np
import pytest

from conftest import random_behavior
from tribell.cli import explicit_payload, parse_settings_payload
from tribell.detector import EfficiencyTriple, observe
from tribell.families import ThetaSetting, ghz_setting, theta_measurements, theta_state
from tribell.inequality import (
    efficiencies_admit_violation,
    critical_third_efficiency,
    svetlichny_coefficients,
    svetlichny_corr_value,
    svetlichny_cutoff,
    t2_cutoff_symmetric,
)
from tribell.polytope import classical_max, enumerate_svetlichny_vertices, enumerate_t2_vertices
from tribell.qcore import behavior_from_settings, density_from_pure, no_signaling_deviation
from tribell.search import SearchConfig, minimize_svetlichny_cutoff, minimize_t2_cutoff, sweep_t2_noise


@pytest.fixture(scope="module")
def svetlichny_mde():
    cfg = SearchConfig(restarts=100, seed=7)
    start = time.time()
    result = minimize_svetlichny_cutoff(cfg)
    return result, time.time() - start


@pytest.fixture(scope="module")
def noise_sweep():
    thetas = np.linspace(0.01, np.pi / 3, 200)
    ps = np.linspace(0.0, 0.02, 100)
    start = time.time()
    rows = sweep_t2_noise(thetas, ps)
    return rows, time.time() - start


def test_criterion_1_classical_bounds_exact():
    start = time.time()
    sv = enumerate_svetlichny_vertices()
    sv_max = classical_max("svetlichny_corr", sv)
    t2 = enumerate_t2_vertices()
    t2_max = classical_max("t2", t2)
    elapsed = time.time() - start
    assert len(sv) == 3072 and sv_max == 4
    assert len(t2) == 768 and t2_max == 0
    assert elapsed < 1.0, f"bound verification took {elapsed:.2f}s"
    print(f"\nACCEPTANCE CRITERION 1: PASS — max 4 over 3072, max 0 over 768, {elapsed:.2f}s")


@pytest.mark.slow
def test_criterion_2_symmetric_t2_mde():
    # closed-form cutoff of the one-parameter family decreases to 3/4
    thetas = [0.2, 0.1, 0.05, 0.02, 0.01]
    cutoffs = []
    for theta in thetas:
        s = ThetaSetting(theta)
        t = behavior_from_settings(density_from_pure(theta_state(s)), theta_measurements(s))
        cutoffs.append(t2_cutoff_symmetric(t))
    assert all(a > b for a, b in zip(cutoffs, cutoffs[1:]))
    assert abs(cutoffs[-1] - 0.75) < 5e-5

    start = time.time()
    result = minimize_t2_cutoff(SearchConfig(restarts=50, seed=7))
    elapsed = time.time() - start
    assert 0.75 <= result.best_eta <= 0.755, f"best_eta = {result.best_eta}"
    assert result.best_eta >= 0.75 - 1e-6
    assert all(v >= 0.75 - 1e-6 for v in result.restart_values if v < 1.0)
    assert elapsed < 300.0, f"optimizer took {elapsed:.0f}s"
    print(f"\nACCEPTANCE CRITERION 2: PASS — best_eta = {result.best_eta:.6f} in [0.75, 0.755], {elapsed:.0f}s")


def test_criterion_3_asymmetric_corollary():
    assert critical_third_efficiency(1.0, 1.0) == pytest.approx(0.5, abs=1e-12)
    assert not efficiencies_admit_violation(EfficiencyTriple(1.0, 1.0, 0.5))
    assert not efficiencies_admit_violation(EfficiencyTriple(1.0, 1.0, 0.5 - 1e-9))
    assert efficiencies_admit_violation(EfficiencyTriple(1.0, 1.0, 0.5 + 1e-9))
    print("\nACCEPTANCE CRITERION 3: PASS — third efficiency 0.5, strict flip at the boundary")


@pytest.mark.slow
def test_criterion_4_svetlichny_mde(svetlichny_mde, tmp_path):
    result, elapsed = svetlichny_mde
    assert result.best_eta <= 0.882, f"best_eta = {result.best_eta}"
    assert elapsed < 900.0, f"optimizer took {elapsed:.0f}s"

    # re-verification from the serialized settings dump
    dump = explicit_payload(result.best_settings.to_state(), result.best_settings.to_settings())
    path = tmp_path / "best.json"
    path.write_text(json.dumps(dump))
    spec = parse_settings_payload(json.loads(path.read_text()))
    tensor = behavior_from_settings(density_from_pure(spec.state), spec.settings)
    reverified = svetlichny_cutoff(svetlichny_coefficients(tensor))
    assert reverified == pytest.approx(result.best_eta, abs=1e-9)
    print(f"\nACCEPTANCE CRITERION 4: PASS — best_eta = {result.best_eta:.6f} <= 0.882, "
          f"re-verified to {abs(reverified - result.best_eta):.1e}, {elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_5_ghz_reference_cutoff(svetlichny_mde):
    state, settings = ghz_setting()
    tensor = behavior_from_settings(density_from_pure(state), settings)

    # independent oracle: bisection on the observed correlator value
    lo, hi = 0.5, 1.0
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        observed = observe(tensor, EfficiencyTriple.symmetric(mid))
        if svetlichny_corr_value(observed).value > 4.0:
            hi = mid
        else:
            lo = mid
    oracle = 0.5 * (lo + hi)

    closed_form = svetlichny_cutoff(svetlichny_coefficients(tensor))
    assert closed_form == pytest.approx(oracle, abs=1e-6)
    assert 0.885 < closed_form < 0.895  # near 0.89
    result, _ = svetlichny_mde
    assert closed_form > result.best_eta
    print(f"\nACCEPTANCE CRITERION 5: PASS — GHZ cutoff {closed_form:.6f} matches bisection "
          f"({oracle:.6f}) and exceeds the optimized {result.best_eta:.6f}")


def test_criterion_6_noise_tolerance_window(noise_sweep):
    rows, elapsed = noise_sweep
    assert elapsed < 120.0, f"sweep took {elapsed:.0f}s"
    feasible = [r for r in rows if r.eta_min is not None]

    # the claimed tolerance window appears for detectors capped at 0.92
    max_p_cap92 = max((r.p for r in feasible if r.eta_min <= 0.92), default=None)
    assert max_p_cap92 is not None and 0.013 <= max_p_cap92 <= 0.019, (
        f"max p with eta_min <= 0.92 is {max_p_cap92}"
    )
    # detectors in [0.92, 0.96] still certify at p >= 0.014
    assert any(r.p >= 0.014 and r.eta_min <= 0.96 for r in feasible)
    print(f"\nACCEPTANCE CRITERION 6 (window): PASS — max p at eta<=0.92 is {max_p_cap92:.4f}; "
          f"points with p >= 0.014 violate within eta <= 0.96")


def test_criterion_6_noise_tolerance_literal(noise_sweep):
    rows, _ = noise_sweep
    feasible_p = [r.p for r in rows if r.eta_min is not None]
    max_feasible = max(feasible_p)
    max_p_cap92 = max(r.p for r in rows if r.eta_min is not None and r.eta_min <= 0.92)
    assert 0.013 <= max_feasible <= 0.019, (
        f"ACCEPTANCE CRITERION 6 (literal): FAIL — the largest p with any finite eta_min is "
        f"{max_feasible:.4f} (the top of the grid), not inside [0.013, 0.019]. With perfect "
        f"detectors available the family tolerates noise up to about 0.058 (optimum near "
        f"theta = 0.886), so feasibility does not end inside this grid. The 1.3–1.9 % window "
        f"is the tolerance of detectors capped at eta = 0.92, where the sweep gives "
        f"{max_p_cap92:.4f}; see the window criterion, which passes."
    )
    print("\nACCEPTANCE CRITERION 6 (literal): PASS")


def test_criterion_7_form_equivalence(rng):
    # normalization pinned by the all-zero-outcome deterministic behavior
    from tribell.qcore import BehaviorTensor

    probs = np.zeros((2,) * 6)
    probs[0, 0, 0, :, :, :] = 1.0
    pin = BehaviorTensor(probs)
    s_pin = svetlichny_corr_value(pin).value
    c_pin = svetlichny_coefficients(pin)
    assert s_pin - 4.0 == pytest.approx(-8.0, abs=1e-14)
    assert c_pin.violation_margin == pytest.approx(-2.0, abs=1e-14)

    worst = 0.0
    for i in range(1000):
        t = random_behavior(rng, mixed=(i % 4 == 0))
        s = svetlichny_corr_value(t).value
        margin = svetlichny_coefficients(t).violation_margin
        worst = max(worst, abs(s - 4.0 - 4.0 * margin))
    assert worst <= 1e-10, f"worst deviation {worst}"
    print(f"\nACCEPTANCE CRITERION 7: PASS — identity holds to {worst:.2e} on 1000 tensors")


def test_criterion_8_model_invariants(rng):
    worst_norm = worst_ns = worst_comp = 0.0
    for _ in range(1000):
        t = random_behavior(rng)
        etas = EfficiencyTriple(*rng.uniform(0.2, 1.0, size=3))
        obs = observe(t, etas)
        worst_norm = max(worst_norm, np.abs(obs.probs.sum(axis=(0, 1, 2)) - 1.0).max())
        worst_ns = max(worst_ns, no_signaling_deviation(obs.probs))
    assert worst_norm <= 1e-10
    assert worst_ns <= 1e-10

    for _ in range(100):
        t = random_behavior(rng)
        e1 = EfficiencyTriple(*rng.uniform(0.2, 1.0, size=3))
        e2 = EfficiencyTriple(*rng.uniform(0.2, 1.0, size=3))
        combined = EfficiencyTriple(*(a * b for a, b in zip(e1.as_tuple(), e2.as_tuple())))
        twice = observe(observe(t, e1), e2).probs
        once = observe(t, combined).probs
        worst_comp = max(worst_comp, np.abs(twice - once).max())
    assert worst_comp <= 1e-12

    worst_closed = 0.0
    for theta in np.linspace(0.02, np.pi / 3, 100):
        s = ThetaSetting(theta)
        probs = behavior_from_settings(
            density_from_pure(theta_state(s)), theta_measurements(s)
        ).probs
        k2s4 = s.normalization**2 * np.sin(theta) ** 4
        pair_expected = k2s4 * (1 + np.tan(theta / 2) ** 2)
        for xyz in [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)]:
            worst_closed = max(worst_closed, abs(probs[(0, 0, 0) + xyz]))
        for xyz in [(1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)]:
            worst_closed = max(worst_closed, abs(probs[(0, 0, 0) + xyz] - k2s4))
        worst_closed = max(
            worst_closed, abs(probs[0, 0, :, 1, 1, 0].sum() - pair_expected)
        )
    assert worst_closed <= 1e-12
    print(f"\nACCEPTANCE CRITERION 8: PASS — channel invariants <= 1e-10/1e-12, "
          f"closed forms match Born rule to {worst_closed:.2e}")
