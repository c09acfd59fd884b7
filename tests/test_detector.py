"""The per-party inefficiency channel."""

import numpy as np
import pytest

from conftest import random_behavior
from tribell.detector import EfficiencyTriple, observe, observed_probabilities
from tribell.qcore import no_signaling_deviation


class TestEfficiencyTriple:
    def test_validates_range(self):
        with pytest.raises(ValueError):
            EfficiencyTriple(1.2, 0.5, 0.5)
        with pytest.raises(ValueError):
            EfficiencyTriple(0.5, -0.1, 0.5)

    def test_symmetric(self):
        assert EfficiencyTriple.symmetric(0.8).as_tuple() == (0.8, 0.8, 0.8)


class TestObserve:
    def test_perfect_detectors_identity(self, rng):
        t = random_behavior(rng)
        obs = observe(t, EfficiencyTriple(1.0, 1.0, 1.0))
        np.testing.assert_allclose(obs.probs, t.probs, atol=1e-15)

    def test_dead_detectors(self, rng):
        t = random_behavior(rng)
        obs = observe(t, EfficiencyTriple(0.0, 0.0, 0.0))
        for x in range(2):
            for y in range(2):
                for z in range(2):
                    assert obs.probs[1, 1, 1, x, y, z] == pytest.approx(1.0, abs=1e-14)

    def test_zero_outcomes_scale_exactly(self, rng):
        t = random_behavior(rng)
        etas = EfficiencyTriple(0.9, 0.7, 0.6)
        obs = observe(t, etas)
        scale = 0.9 * 0.7 * 0.6
        np.testing.assert_allclose(
            obs.probs[0, 0, 0], scale * t.probs[0, 0, 0], atol=1e-14
        )
        # single-party zero marginal scales with that party's efficiency only
        ideal_a0 = t.probs[0].sum(axis=(0, 1))[1, 0, 0]
        obs_a0 = obs.probs[0].sum(axis=(0, 1))[1, 0, 0]
        assert obs_a0 == pytest.approx(0.9 * ideal_a0, abs=1e-14)

    def test_pair_zero_marginal_scaling(self, rng):
        t = random_behavior(rng)
        etas = EfficiencyTriple(0.81, 0.93, 0.64)
        obs = observe(t, etas)
        ideal_ab = t.probs[0, 0, :, 1, 1, 0].sum()
        obs_ab = obs.probs[0, 0, :, 1, 1, 0].sum()
        assert obs_ab == pytest.approx(0.81 * 0.93 * ideal_ab, abs=1e-14)

    def test_normalization_preserved(self, rng):
        for _ in range(20):
            t = random_behavior(rng)
            obs = observe(t, EfficiencyTriple(0.5, 0.77, 0.31))
            np.testing.assert_allclose(obs.probs.sum(axis=(0, 1, 2)), 1.0, atol=1e-12)

    def test_no_signaling_preserved(self, rng):
        for _ in range(20):
            t = random_behavior(rng)
            obs = observe(t, EfficiencyTriple(0.42, 0.88, 0.95))
            assert no_signaling_deviation(obs.probs) < 1e-10

    def test_composition(self, rng):
        t = random_behavior(rng)
        first = EfficiencyTriple(0.9, 0.8, 0.7)
        second = EfficiencyTriple(0.6, 0.5, 0.95)
        combined = EfficiencyTriple(0.9 * 0.6, 0.8 * 0.5, 0.7 * 0.95)
        twice = observe(observe(t, first), second)
        once = observe(t, combined)
        np.testing.assert_allclose(twice.probs, once.probs, atol=1e-12)

    def test_stack_with_per_tensor_efficiencies(self, rng):
        tensors = [random_behavior(rng).probs for _ in range(7)]
        etas = rng.uniform(0.0, 1.0, size=(7, 3))
        stacked = observed_probabilities(np.stack(tensors), etas)
        assert stacked.shape == (7,) + (2,) * 6
        for probs, eta, got in zip(tensors, etas, stacked):
            np.testing.assert_allclose(got, observed_probabilities(probs, tuple(eta)),
                                       rtol=0, atol=1e-15)
            # reference: the per-party stochastic kernel applied as one contraction
            ka, kb, kc = (np.array([[e, 0.0], [1.0 - e, 1.0]]) for e in eta)
            kernel = np.einsum("aA,bB,cC,ABCxyz->abcxyz", ka, kb, kc, probs)
            np.testing.assert_allclose(got, kernel, rtol=0, atol=1e-15)
