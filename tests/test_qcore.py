"""States, measurements, and Born-rule behavior tensors."""

import itertools
import warnings

import numpy as np
import pytest

from conftest import random_behavior, random_density, random_settings, random_state
from tribell.errors import NormalizationError
from tribell.families import ThetaSetting, theta_measurements, theta_state
from tribell.polytope import BilocalVertex, T2Vertex, vertex_to_behavior
from tribell.qcore import (
    BehaviorTensor,
    DensityMatrix,
    PureState,
    QubitMeasurement,
    SettingsTriple,
    behavior_from_settings,
    born_amplitudes,
    density_from_pure,
    measurement_basis,
    no_signaling_deviation,
    projector,
    pure_behavior_probabilities,
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

    @pytest.mark.parametrize("vertex, deviation", [
        # the future party B outputs y XOR x, so its marginal P(b|x, y) moves with x
        (T2Vertex("AB|C", True, (0, 1), ((0, 1), (1, 0)), (0, 0)), 1.0),
        (BilocalVertex("AB|C", (((0, 0), (0, 1)), ((1, 0), (1, 1))), (0, 1)), 0.0),
    ])
    def test_no_signaling_deviation_at_vertices(self, vertex, deviation):
        # the existing checks bound the deviation from above; a function that
        # always returned 0 would pass them
        assert no_signaling_deviation(vertex_to_behavior(vertex).probs) == deviation


def test_density_route_matches_the_textbook_trace(rng):
    # Tr[rho (Pi_a^x ⊗ Pi_b^y ⊗ Pi_c^z)] with the projectors built by
    # `projector` and np.kron, on mixtures of pure states plus white noise
    for _ in range(50):
        noise = rng.uniform(0.0, 1.0)
        rho = (1.0 - noise) * random_density(rng).matrix + noise * np.eye(8) / 8
        settings = random_settings(rng)
        probs = behavior_from_settings(DensityMatrix(rho), settings).probs
        for a, b, c, x, y, z in itertools.product(range(2), repeat=6):
            op = np.kron(np.kron(projector(settings.a[x], a), projector(settings.b[y], b)),
                         projector(settings.c[z], c))
            assert abs(probs[a, b, c, x, y, z] - np.trace(rho @ op).real) <= 1e-14


def _tensordot_born(amplitudes, bases):
    """The pure-state Born rule of one tensor as three tensordots, party C
    first: the reference for the bits of `pure_behavior_probabilities`."""
    psi3 = np.asarray(amplitudes, dtype=complex).reshape(2, 2, 2)
    ua, ub, uc = (np.conj(u) for u in bases)
    s1 = np.tensordot(uc, psi3, axes=([2], [2]))       # [z,c,i,j]
    s2 = np.tensordot(ub, s1, axes=([2], [3]))         # [y,b,z,c,i]
    s3 = np.tensordot(ua, s2, axes=([2], [4]))         # [x,a,y,b,z,c]
    amp = s3.transpose(1, 3, 5, 0, 2, 4)               # [a,b,c,x,y,z]
    return amp.real**2 + amp.imag**2


class TestStackedPureBorn:
    """One call on a stack gives each tensor the bits of a call on it alone,
    and those are the bits of the tensordot reference, which the MDE
    certificates were computed with."""

    def check(self, amplitudes, bases):
        stacked = pure_behavior_probabilities(amplitudes, bases)
        assert stacked.shape == (len(amplitudes),) + (2,) * 6
        assert stacked.flags.c_contiguous
        for amp, basis, got in zip(amplitudes, bases, stacked):
            alone = pure_behavior_probabilities(amp, basis)
            assert alone.flags.c_contiguous
            assert got.tobytes() == alone.tobytes() == _tensordot_born(amp, basis).tobytes()

    def test_default_theta_grid(self):
        settings = [ThetaSetting(t) for t in np.linspace(0.01, np.pi / 3, 200)]
        self.check(np.array([theta_state(s).amplitudes for s in settings]),
                   np.array([theta_measurements(s).bases() for s in settings]))

    def test_random_states_and_angles(self, rng):
        states = [random_state(rng) for _ in range(100)]
        settings = [random_settings(rng) for _ in range(100)]
        self.check(np.array([s.amplitudes for s in states]),
                   np.array([s.bases() for s in settings]))

    def test_two_leading_axes(self, rng):
        amplitudes = np.array([random_state(rng).amplitudes for _ in range(6)])
        bases = np.array([random_settings(rng).bases() for _ in range(6)])
        grid = pure_behavior_probabilities(amplitudes.reshape(2, 3, 8),
                                           bases.reshape(2, 3, 3, 2, 2, 2))
        flat = pure_behavior_probabilities(amplitudes, bases)
        assert grid.tobytes() == flat.tobytes()


def _squares(amplitudes):
    """Squares of `born_amplitudes`, [x,a,y,b,z,c] reordered to [a,b,c,x,y,z]."""
    amp = np.moveaxis(amplitudes.reshape(amplitudes.shape[:-1] + (2,) * 6),
                      (-5, -3, -1), (-6, -5, -4))
    return amp.real**2 + amp.imag**2


class TestBornAmplitudes:
    """The leading axes of states and rows broadcast, and each state at
    each row set gets the bits of a call on that pair alone; the MDE search
    reads one state against a stack of 12 row sets (its gradient) and the
    8 basis states against one row set (its operators)."""

    def test_one_state_against_a_stack_of_row_sets(self, rng):
        for _ in range(200):
            amp = random_state(rng).amplitudes
            rows = np.conj([random_settings(rng).bases() for _ in range(12)])
            stacked = born_amplitudes(amp, rows)
            assert stacked.shape == (12, 64)
            for row_set, got in zip(rows, stacked):
                assert got.tobytes() == born_amplitudes(amp, row_set).tobytes()

    def test_a_stack_of_states_against_one_row_set(self, rng):
        for _ in range(200):
            amplitudes = np.array([random_state(rng).amplitudes for _ in range(8)])
            rows = np.conj(random_settings(rng).bases())
            stacked = born_amplitudes(amplitudes, rows)
            assert stacked.shape == (8, 64)
            for amp, got in zip(amplitudes, stacked):
                assert got.tobytes() == born_amplitudes(amp, rows).tobytes()

    def test_squares_are_the_pure_born_probabilities(self, rng):
        for _ in range(200):
            amp = random_state(rng).amplitudes
            bases = random_settings(rng).bases()
            assert (_squares(born_amplitudes(amp, np.conj(bases))).tobytes()
                    == pure_behavior_probabilities(amp, bases).tobytes())
        # the sweep's one stacked call over the default theta grid
        settings = [ThetaSetting(t) for t in np.linspace(0.01, np.pi / 3, 200)]
        amplitudes = np.array([theta_state(s).amplitudes for s in settings])
        bases = np.array([theta_measurements(s).bases() for s in settings])
        assert (_squares(born_amplitudes(amplitudes, np.conj(bases))).tobytes()
                == pure_behavior_probabilities(amplitudes, bases).tobytes())
