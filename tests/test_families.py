"""The theta family, GHZ setting, and white-noise mixing."""

import numpy as np
import pytest

from conftest import random_settings
from tribell.families import (
    GHZ_OPTIMAL_AZIMUTHS,
    NoiseLevel,
    ThetaSetting,
    ghz_setting,
    ghz_state,
    mix_white_noise,
    theta_measurements,
    theta_state,
)
from tribell.inequality import svetlichny_corr_value
from tribell.qcore import behavior_from_settings, density_from_pure, uniform_behavior


def theta_tensor(setting: ThetaSetting):
    return behavior_from_settings(
        density_from_pure(theta_state(setting)), theta_measurements(setting)
    )


class TestThetaSetting:
    def test_domain(self):
        with pytest.raises(ValueError):
            ThetaSetting(0.0)
        with pytest.raises(ValueError):
            ThetaSetting(np.pi)
        with pytest.raises(ValueError):
            ThetaSetting(-0.3)
        ThetaSetting(1e-6)  # tiny but valid

    def test_domain_messages(self):
        with pytest.raises(ValueError, match=r"^theta = 4\.0 must lie in \(0, pi\)$"):
            ThetaSetting(4.0)
        # inside (0, pi), but sin(theta) is below the floor
        with pytest.raises(ValueError, match=r"^sin\(theta\) = 1e-12 below floor 1e-09$"):
            ThetaSetting(1e-12)

    def test_normalization_identity(self):
        for theta in np.linspace(0.05, np.pi - 0.05, 25):
            s = ThetaSetting(theta)
            coeff = (1 - 3 * np.cos(theta)) / np.sin(theta)
            assert s.normalization**2 * (3 + coeff**2) == pytest.approx(1.0, abs=1e-12)


class TestThetaState:
    def test_w_point(self):
        amp = theta_state(ThetaSetting(np.arccos(1 / 3))).amplitudes
        for label in (0b011, 0b101, 0b110):
            assert amp[label] == pytest.approx(1 / np.sqrt(3), abs=1e-12)
        assert abs(amp[0b111]) < 1e-12

    def test_pi_half(self):
        amp = theta_state(ThetaSetting(np.pi / 2)).amplitudes
        for label in (0b011, 0b101, 0b110, 0b111):
            assert amp[label] == pytest.approx(0.5, abs=1e-12)

    def test_no_support_on_zero_label(self):
        for theta in (0.1, 0.9, 2.5):
            assert theta_state(ThetaSetting(theta)).amplitudes[0] == 0.0


class TestThetaMeasurements:
    def test_setting_zero_is_computational(self):
        ms = theta_measurements(ThetaSetting(0.4))
        for pair in (ms.a, ms.b, ms.c):
            assert pair[0].polar == 0.0

    def test_small_theta_limit_measurements_compatible(self):
        ms = theta_measurements(ThetaSetting(1e-6))
        b0, b1 = ms.a[0].basis(), ms.a[1].basis()
        assert np.abs(b0 - b1).max() < 2e-6

    def test_pi_half_outcome_zero_vector(self):
        ms = theta_measurements(ThetaSetting(np.pi / 2))
        v0 = ms.a[1].basis()[0]
        np.testing.assert_allclose(v0, [0.0, 1.0], atol=1e-12)

    def test_outcome_zero_vector_matches_family_form(self):
        theta = 0.63
        v0 = theta_measurements(ThetaSetting(theta)).b[1].basis()[0]
        np.testing.assert_allclose(v0, [np.cos(theta), np.sin(theta)], atol=1e-12)

    def test_pair_marginal_closed_form(self):
        # P(00|X1 Y1) = k^2 sin^4(theta) (1 + tan^2(theta/2)) for every pair
        for theta in (0.3, 0.7, 1.0):
            s = ThetaSetting(theta)
            probs = theta_tensor(s).probs
            expected = s.normalization**2 * np.sin(theta) ** 4 * (1 + np.tan(theta / 2) ** 2)
            pair_ab = probs[0, 0, :, 1, 1, 0].sum()
            pair_bc = probs[:, 0, 0, 0, 1, 1].sum()
            pair_ac = probs[0, :, 0, 1, 0, 1].sum()
            for value in (pair_ab, pair_bc, pair_ac):
                assert value == pytest.approx(expected, abs=1e-13)

    def test_closed_forms_on_grid(self):
        # zeros, triples, and pair marginals all match within 1e-12
        for theta in np.linspace(0.05, np.pi / 3, 20):
            s = ThetaSetting(theta)
            probs = theta_tensor(s).probs
            k2s4 = s.normalization**2 * np.sin(theta) ** 4
            for xyz in [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)]:
                assert abs(probs[(0, 0, 0) + xyz]) < 1e-12
            for xyz in [(1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)]:
                assert probs[(0, 0, 0) + xyz] == pytest.approx(k2s4, abs=1e-12)


class TestGhzSetting:
    def test_state(self):
        amp = ghz_state().amplitudes
        assert amp[0] == pytest.approx(2**-0.5, abs=1e-15)
        assert amp[7] == pytest.approx(2**-0.5, abs=1e-15)

    def test_zero_azimuth_marginals(self):
        state, settings = ghz_setting([0.0] * 6)
        probs = behavior_from_settings(density_from_pure(state), settings).probs
        # pair marginals 1/4, single marginals 1/2 for equatorial measurements
        assert probs[0, 0, :, 1, 1, 0].sum() == pytest.approx(0.25, abs=1e-12)
        assert probs[0, :, :, 1, 0, 0].sum() == pytest.approx(0.5, abs=1e-12)

    def test_optimal_azimuths_reach_maximal_value(self):
        state, settings = ghz_setting(GHZ_OPTIMAL_AZIMUTHS)
        t = behavior_from_settings(density_from_pure(state), settings)
        assert svetlichny_corr_value(t).value == pytest.approx(4 * np.sqrt(2), abs=1e-12)

    def test_azimuth_count_checked(self):
        with pytest.raises(ValueError):
            ghz_setting([0.0] * 5)


class TestWhiteNoise:
    def test_identity_at_zero(self):
        rho = density_from_pure(theta_state(ThetaSetting(0.5)))
        mixed = mix_white_noise(rho, NoiseLevel(0.0))
        np.testing.assert_allclose(mixed.matrix, rho.matrix, atol=1e-15)

    def test_fully_mixed_at_one(self, rng):
        rho = density_from_pure(theta_state(ThetaSetting(0.5)))
        mixed = mix_white_noise(rho, NoiseLevel(1.0))
        probs = behavior_from_settings(mixed, random_settings(rng)).probs
        np.testing.assert_allclose(probs, 0.125, atol=1e-12)

    def test_small_noise_example(self):
        theta = 0.8
        s = ThetaSetting(theta)
        rho = mix_white_noise(density_from_pure(theta_state(s)), NoiseLevel(0.01))
        probs = behavior_from_settings(rho, theta_measurements(s)).probs
        k2s4 = s.normalization**2 * np.sin(theta) ** 4
        assert probs[0, 0, 0, 1, 1, 1] == pytest.approx(0.99 * k2s4 + 0.00125, abs=1e-13)

    def test_commutes_with_behavior_linearity(self, rng):
        s = ThetaSetting(0.6)
        rho = density_from_pure(theta_state(s))
        settings = random_settings(rng)
        p = 0.37
        via_state = behavior_from_settings(mix_white_noise(rho, NoiseLevel(p)), settings)
        via_tensor = (1 - p) * behavior_from_settings(rho, settings).probs \
            + p * uniform_behavior().probs
        np.testing.assert_allclose(via_state.probs, via_tensor, atol=1e-12)

    def test_noise_domain(self):
        with pytest.raises(ValueError):
            NoiseLevel(-0.1)
        with pytest.raises(ValueError):
            NoiseLevel(1.1)
