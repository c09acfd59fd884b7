"""States, measurements, and Born-rule behavior tensors."""

import warnings

import numpy as np
import pytest

from conftest import random_behavior, random_settings, random_state
from tribell.errors import NormalizationError
from tribell.families import ThetaSetting, theta_measurements, theta_state
from tribell.qcore import (
    BehaviorTensor,
    PureState,
    QubitMeasurement,
    SettingsTriple,
    behavior_from_settings,
    density_from_pure,
    measurement_basis,
    no_signaling_deviation,
    projector,
    uniform_behavior,
    validated_probabilities,
)


class TestPureState:
    def test_accepts_normalized(self):
        amp = np.zeros(8, dtype=complex)
        amp[0] = 1.0
        assert PureState(amp).amplitudes[0] == 1.0

    def test_rejects_unnormalized(self):
        with pytest.raises(NormalizationError):
            PureState(np.ones(8, dtype=complex))

    def test_rejects_nan_amplitude(self):
        amp = np.zeros(8, dtype=complex)
        amp[0], amp[7] = np.nan, 1.0
        with pytest.raises(NormalizationError):
            PureState(amp)
        from tribell.qcore import DensityMatrix

        with pytest.raises(NormalizationError):
            DensityMatrix(np.outer(amp, amp.conj()))

    def test_rejects_overflowing_norm_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NormalizationError):
                PureState(np.full(8, 1e200, dtype=complex))

    def test_rejects_small_norm_error(self):
        amp = np.zeros(8, dtype=complex)
        amp[0] = 1.0 + 1e-6
        with pytest.raises(NormalizationError):
            PureState(amp)

    def test_normalized_constructor(self):
        state = PureState.normalized(np.arange(1, 9, dtype=complex))
        assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-15)

    def test_amplitudes_frozen(self):
        state = PureState.normalized(np.arange(1, 9, dtype=complex))
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0


class TestDensityFromPure:
    def test_basis_projector(self):
        amp = np.zeros(8, dtype=complex)
        amp[0] = 1.0
        rho = density_from_pure(PureState(amp)).matrix
        expected = np.zeros((8, 8))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(rho, expected, atol=1e-15)

    def test_ghz_rank1_expansion(self):
        amp = np.zeros(8, dtype=complex)
        amp[0] = amp[7] = 1 / np.sqrt(2)
        rho = density_from_pure(PureState(amp)).matrix
        for i, j in ((0, 0), (0, 7), (7, 0), (7, 7)):
            assert rho[i, j] == pytest.approx(0.5, abs=1e-15)
        assert np.abs(rho).sum() == pytest.approx(2.0, abs=1e-12)

    def test_w_point_of_theta_family(self):
        # at cos(theta) = 1/3 the |111> coefficient vanishes
        rho = density_from_pure(theta_state(ThetaSetting(np.arccos(1 / 3)))).matrix
        labels = (0b011, 0b101, 0b110)
        for i in labels:
            for j in labels:
                assert rho[i, j] == pytest.approx(1 / 3, abs=1e-12)
        assert abs(rho[7, 7]) < 1e-24


class TestProjector:
    def test_z_basis(self):
        m = QubitMeasurement(polar=0.0)
        np.testing.assert_allclose(projector(m, 0), np.diag([1.0, 0.0]), atol=1e-15)
        np.testing.assert_allclose(projector(m, 1), np.diag([0.0, 1.0]), atol=1e-15)

    def test_x_basis(self):
        m = QubitMeasurement(polar=np.pi / 2, azimuth=0.0)
        np.testing.assert_allclose(projector(m, 0), 0.5 * np.ones((2, 2)), atol=1e-15)

    def test_completeness_and_idempotence(self, rng):
        for _ in range(50):
            m = QubitMeasurement(polar=rng.uniform(0, np.pi), azimuth=rng.uniform(0, 2 * np.pi))
            p0, p1 = projector(m, 0), projector(m, 1)
            np.testing.assert_allclose(p0 + p1, np.eye(2), atol=1e-12)
            for p in (p0, p1):
                np.testing.assert_allclose(p @ p, p, atol=1e-12)
                np.testing.assert_allclose(p, p.conj().T, atol=1e-12)
                assert np.trace(p).real == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_outcome(self):
        with pytest.raises(ValueError):
            projector(QubitMeasurement(polar=0.0), 2)


class TestSettingsLayout:
    def test_broadcast_basis_equals_scalar_calls(self, rng):
        angles = np.stack([rng.uniform(0, np.pi, (3, 2)), rng.uniform(0, 2 * np.pi, (3, 2))], -1)
        stacked = measurement_basis(angles[..., 0], angles[..., 1])
        assert stacked.shape == (3, 2, 2, 2)
        for party in range(3):
            for setting in range(2):
                single = measurement_basis(*angles[party, setting])
                assert single.tobytes() == stacked[party, setting].tobytes()

    def test_from_angles_inverts_angles(self, rng):
        for _ in range(20):
            settings = random_settings(rng)
            angles = settings.angles()
            assert angles.shape == (3, 2, 2)
            rebuilt = SettingsTriple.from_angles(angles.reshape(-1))
            assert rebuilt == settings
            assert rebuilt.bases().tobytes() == settings.bases().tobytes()
            for party, stack in zip((settings.a, settings.b, settings.c), settings.bases()):
                for m, basis in zip(party, stack):
                    assert basis.tobytes() == m.basis().tobytes()

    def test_from_angles_needs_twelve_angles(self):
        with pytest.raises(ValueError):
            SettingsTriple.from_angles(np.zeros(10))


class TestBehaviorFromSettings:
    def test_ghz_computational_basis(self):
        amp = np.zeros(8, dtype=complex)
        amp[0] = amp[7] = 1 / np.sqrt(2)
        z = QubitMeasurement(polar=0.0)
        settings = SettingsTriple(a=(z, z), b=(z, z), c=(z, z))
        t = behavior_from_settings(density_from_pure(PureState(amp)), settings)
        for x in range(2):
            for y in range(2):
                for zz in range(2):
                    assert t.probs[0, 0, 0, x, y, zz] == pytest.approx(0.5, abs=1e-12)
                    assert t.probs[1, 1, 1, x, y, zz] == pytest.approx(0.5, abs=1e-12)

    def test_theta_family_zeros(self):
        # P(000|...) vanishes whenever at least two settings are 0
        s = ThetaSetting(0.7)
        t = behavior_from_settings(density_from_pure(theta_state(s)), theta_measurements(s))
        for x, y, z in [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)]:
            assert abs(t.probs[0, 0, 0, x, y, z]) < 1e-14

    def test_theta_family_triples(self):
        # P(000|...) = k^2 sin^4(theta) when at least two settings are 1
        s = ThetaSetting(0.7)
        t = behavior_from_settings(density_from_pure(theta_state(s)), theta_measurements(s))
        expected = s.normalization**2 * np.sin(s.theta) ** 4
        for x, y, z in [(1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)]:
            assert t.probs[0, 0, 0, x, y, z] == pytest.approx(expected, abs=1e-13)

    def test_slices_normalized(self, rng):
        for _ in range(20):
            t = random_behavior(rng)
            sums = t.probs.sum(axis=(0, 1, 2))
            np.testing.assert_allclose(sums, 1.0, atol=1e-10)

    def test_no_signaling(self, rng):
        for mixed in (False, True):
            for _ in range(20):
                t = random_behavior(rng, mixed=mixed)
                assert t.no_signaling_deviation() < 1e-10

    def test_pure_fast_path_matches_density_path(self, rng):
        from tribell.qcore import pure_behavior_probabilities

        for _ in range(20):
            state = random_state(rng)
            settings = random_settings(rng)
            fast = pure_behavior_probabilities(state.amplitudes, settings.bases())
            full = behavior_from_settings(density_from_pure(state), settings).probs
            np.testing.assert_allclose(fast, full, atol=1e-13)

    def test_linear_in_state(self, rng):
        settings = random_settings(rng)
        rho1 = density_from_pure(random_state(rng)).matrix
        rho2 = density_from_pure(random_state(rng)).matrix
        lam = 0.3
        from tribell.qcore import DensityMatrix

        mixed = behavior_from_settings(DensityMatrix(lam * rho1 + (1 - lam) * rho2), settings)
        t1 = behavior_from_settings(DensityMatrix(rho1), settings)
        t2 = behavior_from_settings(DensityMatrix(rho2), settings)
        np.testing.assert_allclose(
            mixed.probs, lam * t1.probs + (1 - lam) * t2.probs, atol=1e-12
        )


class TestBehaviorTensor:
    def test_clamps_tiny_negatives(self):
        probs = np.full((2,) * 6, 0.125)
        probs[0, 0, 0, 0, 0, 0] = -0.5e-12
        probs[1, 1, 1, 0, 0, 0] = 0.25 + 0.5e-12
        t = BehaviorTensor(probs)
        assert t.probs.min() == 0.0

    def test_rejects_large_negatives(self):
        probs = np.full((2,) * 6, 0.125)
        probs[0, 0, 0, 0, 0, 0] = -1e-9
        with pytest.raises(NormalizationError):
            BehaviorTensor(probs)

    def test_rejects_bad_normalization(self):
        with pytest.raises(NormalizationError):
            BehaviorTensor(np.full((2,) * 6, 0.2))

    def test_rejects_nan_entry(self):
        # every comparison with NaN is False, so each check must be one
        # that NaN fails
        probs = np.full((2,) * 6, 0.125)
        probs[0, 0, 0, 1, 0, 1] = np.nan
        with pytest.raises(NormalizationError):
            BehaviorTensor(probs)
        with pytest.raises(NormalizationError):
            validated_probabilities(np.stack([np.full((2,) * 6, 0.125), probs]))

    def test_stack_validated_per_tensor(self):
        stack = np.full((3,) + (2,) * 6, 0.125)
        stack[1, 0, 0, 0, 0, 0, 0] = -0.5e-12
        stack[1, 1, 1, 1, 0, 0, 0] = 0.25 + 0.5e-12
        clipped = validated_probabilities(stack)
        assert clipped.min() == 0.0
        np.testing.assert_array_equal(clipped[1], BehaviorTensor(stack[1]).probs)
        stack[2, 1, 1, 1, 1, 1, 1] = 0.2  # one slice of one tensor off
        with pytest.raises(NormalizationError):
            validated_probabilities(stack)
        stack[2, 1, 1, 1, 1, 1, 1] = -1e-9
        with pytest.raises(NormalizationError):
            validated_probabilities(stack)

    def test_uniform_behavior(self):
        t = uniform_behavior()
        assert t.probs.max() == 0.125
        assert no_signaling_deviation(t.probs) == 0.0
