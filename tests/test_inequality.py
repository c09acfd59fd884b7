"""Inequality statistics, coefficient extraction, and cutoff efficiencies.

Frozen expected values were computed with an independent dense-matrix
oracle (explicit Kronecker products and trace evaluation) before the
package paths existed; closed forms are cross-checked against it.
"""

import numpy as np
import pytest

from conftest import random_behavior
from tribell.detector import EfficiencyTriple, observe, observed_probabilities
from tribell.errors import (
    DegenerateCoefficientsError,
    MarginalInconsistencyError,
    NoViolationError,
)
from tribell.families import ThetaSetting, ghz_setting, theta_measurements, theta_state
from tribell.inequality import (
    CORRELATOR_SIGNS,
    SVETLICHNY_FORM,
    T2_FORMS,
    SvetlichnyCoefficients,
    critical_third_efficiency,
    efficiencies_admit_violation,
    svetlichny_coefficients,
    svetlichny_corr_value,
    svetlichny_cutoff,
    svetlichny_statistic,
    t2_cutoff_symmetric,
    t2_statistic,
    t2_triple_and_pair_sums,
    t2_value,
    theta_violation_threshold,
)
from tribell.qcore import BehaviorTensor, behavior_from_settings, density_from_pure

# independent oracle values (dense Kronecker-product Born rule + bisection)
BT2_AT_PI_6 = 0.007421363202964611
T2_CUTOFF_AT_0_2 = 0.7575502848168711
GHZ_CUTOFF = 0.8905087442713905


def deterministic_behavior(outcome: tuple[int, int, int]) -> BehaviorTensor:
    probs = np.zeros((2,) * 6)
    a, b, c = outcome
    probs[a, b, c, :, :, :] = 1.0
    return BehaviorTensor(probs)


def theta_tensor(theta: float, noise: float = 0.0) -> BehaviorTensor:
    s = ThetaSetting(theta)
    rho = density_from_pure(theta_state(s))
    if noise:
        from tribell.families import NoiseLevel, mix_white_noise

        rho = mix_white_noise(rho, NoiseLevel(noise))
    return behavior_from_settings(rho, theta_measurements(s))


def ghz_tensor() -> BehaviorTensor:
    state, settings = ghz_setting()
    return behavior_from_settings(density_from_pure(state), settings)


def bt2_closed_form(theta: float) -> float:
    s, c = np.sin(theta), np.cos(theta)
    k2 = s * s / (3 * s * s + (1 - 3 * c) ** 2)
    return 2 * k2 * s**4 * (1 - 3 * np.tan(theta / 2) ** 2)


class TestT2Value:
    def test_all_ones_behavior_is_zero(self):
        v = t2_value(deterministic_behavior((1, 1, 1)))
        assert v.value == 0.0
        assert not v.violated

    def test_theta_family_closed_form(self):
        # every referenced probability reduces to k^2 sin^4 terms, giving
        # 2 k^2 sin^4(theta) (1 - 3 tan^2(theta/2))
        for theta in (0.2, 0.5, np.pi / 6, 0.9, 1.1):
            v = t2_value(theta_tensor(theta))
            assert v.value == pytest.approx(bt2_closed_form(theta), abs=1e-13)

    def test_frozen_value_at_pi_sixth(self):
        v = t2_value(theta_tensor(np.pi / 6))
        assert v.value == pytest.approx(BT2_AT_PI_6, abs=1e-13)
        assert v.violated

    def test_violation_window(self):
        # positive iff tan^2(theta/2) < 1/3, i.e. theta < pi/3
        assert t2_value(theta_tensor(np.pi / 3 - 0.05)).violated
        assert not t2_value(theta_tensor(np.pi / 3 + 0.05)).violated
        assert not t2_value(theta_tensor(1.2)).violated

    def test_signaling_tensor_rejected(self):
        # B's outcome copies A's setting: the BC pair marginal depends on x
        probs = np.zeros((2,) * 6)
        for x in range(2):
            probs[0, x, 0, x, :, :] = 1.0
        with pytest.raises(MarginalInconsistencyError):
            t2_value(BehaviorTensor(probs))


class TestSvetlichnyCorrValue:
    def test_all_zeros_behavior(self):
        v = svetlichny_corr_value(deterministic_behavior((0, 0, 0)))
        assert v.value == pytest.approx(-4.0, abs=1e-15)
        assert not v.violated

    def test_ghz_optimal_value(self):
        v = svetlichny_corr_value(ghz_tensor())
        assert v.value == pytest.approx(4 * np.sqrt(2), abs=1e-12)
        assert v.violated

    def test_sign_pattern(self):
        positives = {(0, 1, 0), (1, 0, 1)}
        for x in range(2):
            for y in range(2):
                for z in range(2):
                    expected = 1.0 if (x, y, z) in positives else -1.0
                    assert CORRELATOR_SIGNS[x, y, z] == expected


class TestSvetlichnyCoefficients:
    def test_all_zeros_behavior(self):
        c = svetlichny_coefficients(deterministic_behavior((0, 0, 0)))
        assert c.alpha == pytest.approx(-8.0, abs=1e-15)
        assert c.beta == pytest.approx(12.0, abs=1e-15)
        assert c.gamma == pytest.approx(6.0, abs=1e-15)
        # pins the normalization: S - 4 = -8 while alpha+beta-gamma = -2
        assert c.violation_margin == pytest.approx(-2.0, abs=1e-15)

    def test_ghz_optimal(self):
        c = svetlichny_coefficients(ghz_tensor())
        assert c.alpha == pytest.approx(np.sqrt(2) - 1, abs=1e-12)
        assert c.beta == pytest.approx(3.0, abs=1e-12)
        assert c.gamma == pytest.approx(3.0, abs=1e-12)

    def test_linear_identity_random(self, rng):
        # S - 4 = 4 (alpha + beta - gamma) on generic no-signaling tensors
        for i in range(200):
            t = random_behavior(rng, mixed=(i % 3 == 0))
            s = svetlichny_corr_value(t).value
            c = svetlichny_coefficients(t)
            assert s - 4.0 == pytest.approx(4.0 * c.violation_margin, abs=1e-10)

    def test_unit_efficiency_reduction(self, rng):
        # the quadratic at eta = 1 is positive exactly when the correlator
        # form is violated
        for _ in range(50):
            t = random_behavior(rng)
            margin = svetlichny_coefficients(t).violation_margin
            assert (margin > 2.5e-10) == svetlichny_corr_value(t).violated

    def test_validates_nonnegative(self):
        with pytest.raises(ValueError):
            SvetlichnyCoefficients(alpha=0.0, beta=-1.0, gamma=0.0)


class TestSvetlichnyCutoff:
    def test_ghz_value(self):
        cutoff = svetlichny_cutoff(svetlichny_coefficients(ghz_tensor()))
        assert cutoff == pytest.approx(GHZ_CUTOFF, abs=1e-12)

    def test_scale_invariance(self):
        c = svetlichny_coefficients(ghz_tensor())
        scaled = SvetlichnyCoefficients(4 * c.alpha, 4 * c.beta, 4 * c.gamma)
        assert svetlichny_cutoff(scaled) == pytest.approx(svetlichny_cutoff(c), abs=1e-14)

    def test_root_consistency_on_observed_tensor(self):
        t = ghz_tensor()
        eta = svetlichny_cutoff(svetlichny_coefficients(t))
        obs = svetlichny_coefficients(observe(t, EfficiencyTriple.symmetric(eta)))
        assert obs.violation_margin == pytest.approx(0.0, abs=1e-9)
        above = observe(t, EfficiencyTriple.symmetric(eta + 1e-4))
        assert svetlichny_corr_value(above).violated

    def test_gamma_zero_clamps_to_zero(self):
        with pytest.warns(UserWarning):
            assert svetlichny_cutoff(SvetlichnyCoefficients(1.0, 0.0, 0.0)) == 0.0

    def test_negative_alpha_branch(self):
        # downward parabola: crossing is the smaller positive root
        c = SvetlichnyCoefficients(-1.0, 4.0, 2.0)
        root = svetlichny_cutoff(c)
        assert root == pytest.approx(2.0 - np.sqrt(2.0), abs=1e-14)
        assert c.alpha * root**2 + c.beta * root - c.gamma == pytest.approx(0.0, abs=1e-12)
        eps = 1e-6
        assert c.alpha * (root + eps) ** 2 + c.beta * (root + eps) - c.gamma > 0

    def test_linear_branch(self):
        assert svetlichny_cutoff(SvetlichnyCoefficients(0.0, 2.0, 1.0)) == pytest.approx(0.5)

    def test_no_violation_error(self):
        with pytest.raises(NoViolationError):
            svetlichny_cutoff(SvetlichnyCoefficients(-8.0, 12.0, 6.0))

    def test_degenerate_error(self):
        with pytest.raises(DegenerateCoefficientsError):
            svetlichny_cutoff(SvetlichnyCoefficients(0.0, 0.0, 0.0))


class TestEfficiencyConditions:
    def test_perfect_detectors(self):
        assert efficiencies_admit_violation(EfficiencyTriple(1, 1, 1))

    def test_symmetric_boundary_is_strict(self):
        assert not efficiencies_admit_violation(EfficiencyTriple.symmetric(0.75))
        assert efficiencies_admit_violation(EfficiencyTriple.symmetric(0.7501))

    def test_two_perfect_boundary(self):
        assert not efficiencies_admit_violation(EfficiencyTriple(1, 1, 0.5))
        assert efficiencies_admit_violation(EfficiencyTriple(1, 1, 0.51))

    def test_monotone(self, rng):
        for _ in range(200):
            ea, eb, ec = rng.uniform(0, 1, size=3)
            if efficiencies_admit_violation(EfficiencyTriple(ea, eb, ec)):
                bumped = EfficiencyTriple(min(ea + 0.05, 1.0), eb, ec)
                assert efficiencies_admit_violation(bumped)

    def test_critical_third_efficiency(self):
        assert critical_third_efficiency(1.0, 1.0) == pytest.approx(0.5, abs=1e-12)
        assert critical_third_efficiency(0.75, 0.75) == pytest.approx(0.75, abs=1e-12)
        assert critical_third_efficiency(0.6, 0.6) is None

    def test_critical_third_is_the_flip_point(self):
        for ea, eb in [(1.0, 1.0), (0.9, 0.8), (0.75, 0.75), (1.0, 0.7)]:
            ec = critical_third_efficiency(ea, eb)
            if ec is None:
                continue
            assert efficiencies_admit_violation(EfficiencyTriple(ea, eb, min(ec + 1e-9, 1.0)))
            assert not efficiencies_admit_violation(EfficiencyTriple(ea, eb, ec - 1e-9))

    def test_critical_third_validates_input(self):
        with pytest.raises(ValueError):
            critical_third_efficiency(0.0, 1.0)

    def test_theta_threshold_values(self):
        assert theta_violation_threshold(EfficiencyTriple(1, 1, 1)) == pytest.approx(1 / 3)
        assert theta_violation_threshold(EfficiencyTriple.symmetric(0.8)) == pytest.approx(1 / 15)
        assert theta_violation_threshold(EfficiencyTriple(1, 1, 0.75)) == pytest.approx(0.2)

    def test_theta_threshold_error(self):
        with pytest.raises(NoViolationError):
            theta_violation_threshold(EfficiencyTriple.symmetric(0.75))


class TestT2CutoffSymmetric:
    def test_small_theta_approaches_three_quarters(self):
        assert t2_cutoff_symmetric(theta_tensor(0.02)) == pytest.approx(0.7500750050002833, abs=1e-10)

    def test_boundary_theta(self):
        assert t2_cutoff_symmetric(theta_tensor(np.pi / 3)) == pytest.approx(1.0, abs=1e-9)

    def test_frozen_value(self):
        assert t2_cutoff_symmetric(theta_tensor(0.2)) == pytest.approx(T2_CUTOFF_AT_0_2, abs=1e-12)

    def test_closed_form_on_grid(self):
        for theta in np.linspace(0.05, 1.0, 12):
            cutoff = t2_cutoff_symmetric(theta_tensor(theta))
            assert cutoff == pytest.approx(3 / (4 * np.cos(theta / 2) ** 2), abs=1e-12)

    def test_product_state_has_no_cutoff(self):
        # deterministic all-zeros behavior: pair sum exceeds the triple sum
        assert t2_cutoff_symmetric(deterministic_behavior((0, 0, 0))) is None

    def test_boundary_bracketing(self):
        t = theta_tensor(0.2)
        eta = t2_cutoff_symmetric(t)
        above = observe(t, EfficiencyTriple.symmetric(eta + 1e-6))
        below = observe(t, EfficiencyTriple.symmetric(eta - 1e-6))
        assert t2_value(above).value > 0
        assert t2_value(below).value <= 0


class TestT2StatisticReadings:
    def test_readings_agree_on_no_signaling_tensors(self, rng):
        t = random_behavior(rng)
        vals = {
            reading: t2_statistic(t.probs, pair_reading=reading)
            for reading in ("checked", "pessimistic", "mean", "setting0", "setting1")
        }
        base = vals.pop("checked")
        for v in vals.values():
            assert v == pytest.approx(base, abs=1e-12)

    def test_stack_matches_per_tensor_values(self, rng):
        tensors = [random_behavior(rng, mixed=bool(i % 2)).probs for i in range(6)]
        for reading in ("checked", "pessimistic", "mean", "setting0", "setting1"):
            values = t2_statistic(np.stack(tensors), pair_reading=reading)
            assert values.shape == (6,)
            for probs, value in zip(tensors, values):
                assert value == t2_statistic(probs, pair_reading=reading)

    def test_checked_reading_rejects_one_signaling_tensor_in_a_stack(self, rng):
        # P(00|ab at 11) is 1 at z = 0 and 0 at z = 1: party C's setting
        # signals to the pair
        signaling = np.zeros((2,) * 6)
        signaling[0, 0, 0, :, :, 0] = 1.0
        signaling[1, 1, 1, :, :, 1] = 1.0
        stack = np.stack([random_behavior(rng).probs for _ in range(4)] + [signaling])
        t2_statistic(stack[:4], pair_reading="checked")
        with pytest.raises(MarginalInconsistencyError):
            t2_statistic(stack, pair_reading="checked")
        t2_statistic(stack, pair_reading="pessimistic")


def loss_polynomial(form: np.ndarray, probs: np.ndarray, etas) -> float:
    """Observed value of ``form`` (party subset x 64 entries) under the loss
    channel: each subset's row scaled by its parties' efficiencies.  Subset
    bit 4 is party a, 2 is b and 1 is c."""
    weights = [
        np.prod([eta for eta, bit in zip(etas, (4, 2, 1)) if subset & bit])
        for subset in range(8)
    ]
    return float(np.dot(weights, form @ probs.reshape(64)))


class TestLossPolynomial:
    """No-clicks recorded as outcome 1 scale every all-zero probability of a
    party subset by the product of its parties' efficiencies, so observed
    statistics are polynomials in the efficiencies with the ideal rows as
    coefficients."""

    @pytest.mark.parametrize("etas", [(0.9, 0.9, 0.9), (0.62, 0.62, 0.62),
                                      (1.0, 0.83, 0.61), (0.3, 0.95, 0.7)])
    def test_observed_statistics_are_the_loss_polynomial(self, rng, etas):
        for i in range(20):
            probs = random_behavior(rng, mixed=bool(i % 2)).probs
            observed = observed_probabilities(probs, etas)
            assert svetlichny_statistic(observed) == pytest.approx(
                loss_polynomial(SVETLICHNY_FORM, probs, etas), abs=1e-12)
            readings = [loss_polynomial(T2_FORMS[r], probs, etas) for r in range(8)]
            for reading, expected in (("checked", readings[0]), ("setting0", readings[0]),
                                      ("setting1", readings[7]), ("pessimistic", min(readings))):
                assert t2_statistic(observed, pair_reading=reading) == pytest.approx(
                    expected, abs=1e-12)

    @pytest.mark.parametrize("eta", [1.0, 0.9, 0.62])
    def test_symmetric_polynomials_have_the_cutoff_coefficients(self, rng, eta):
        # S - 4 = 4 eta (alpha eta^2 + beta eta - gamma) and T2 = eta^3 T - eta^2 Q
        for i in range(20):
            tensor = random_behavior(rng, mixed=bool(i % 2))
            observed = observed_probabilities(tensor.probs, (eta,) * 3)
            c = svetlichny_coefficients(tensor)
            assert svetlichny_statistic(observed) - 4.0 == pytest.approx(
                4.0 * eta * (c.alpha * eta**2 + c.beta * eta - c.gamma), abs=1e-12)
            triple, pair = t2_triple_and_pair_sums(tensor)
            assert t2_statistic(observed) == pytest.approx(
                eta**3 * triple - eta**2 * pair, abs=1e-12)
