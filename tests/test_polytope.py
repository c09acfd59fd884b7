"""Vertex enumeration and exact classical bounds.

The probability-form statistic references pair marginals that are not
setting-free on signaling vertices.  The tests below document the
resolution: among the candidate readings (dummy setting 0, dummy setting
1, mean, min over settings, max over settings) only the pessimistic
max-over-settings reading reproduces the classical bound 0 on the
time-ordered class; the fixed and mean readings admit strategies with
strictly positive values.  Because the pessimistic reading is concave,
its vertex bound does not extend to signaling mixtures, which the mixture
tests also document.
"""

import numpy as np
import pytest

from tribell.inequality import svetlichny_statistic, t2_statistic
from tribell.polytope import (
    BilocalVertex,
    T2Vertex,
    _vertex_matrix,
    classical_max,
    enumerate_svetlichny_vertices,
    enumerate_t2_vertices,
    vertex_to_behavior,
)


@pytest.fixture(scope="module")
def bilocal_vertices():
    return enumerate_svetlichny_vertices()


@pytest.fixture(scope="module")
def t2_vertices():
    return enumerate_t2_vertices()


class TestEnumeration:
    def test_bilocal_count(self, bilocal_vertices):
        assert len(bilocal_vertices) == 3072

    def test_t2_count(self, t2_vertices):
        assert len(t2_vertices) == 768

    def test_t2_both_orders_count(self):
        assert len(enumerate_t2_vertices(include_both_orders=True)) == 1536

    def test_all_zero_strategy_in_each_partition(self, bilocal_vertices):
        zero_pair = tuple(tuple((0, 0) for _ in range(2)) for _ in range(2))
        found = {
            v.partition
            for v in bilocal_vertices
            if v.pair_outputs == zero_pair and v.solo_outputs == (0, 0)
        }
        assert found == {"AB|C", "AC|B", "BC|A"}

    def test_future_copies_past_setting_vertex_present(self, t2_vertices):
        # future party outputs the past party's setting regardless of its own
        copying = ((0, 1), (0, 1))
        assert any(v.future_outputs == copying for v in t2_vertices)

    def test_unknown_partition_rejected(self):
        pair = (((0, 0), (0, 0)), ((0, 0), (0, 0)))
        with pytest.raises(ValueError, match="unknown partition"):
            BilocalVertex("AB|CD", pair, (0, 0))
        with pytest.raises(ValueError, match="unknown partition"):
            T2Vertex("A|BC", True, (0, 0), ((0, 0), (0, 0)), (0, 0))


class TestVertexBehaviors:
    def test_all_vertices_are_valid_tensors(self, bilocal_vertices, t2_vertices):
        for v in bilocal_vertices[::7] + t2_vertices[::5]:
            t = vertex_to_behavior(v)
            assert t.probs.sum() == 64 / 8  # one unit entry per setting triple
            sums = t.probs.sum(axis=(0, 1, 2))
            np.testing.assert_array_equal(sums, np.ones((2, 2, 2)))

    def test_all_zero_vertex_behavior(self):
        zero_pair = tuple(tuple((0, 0) for _ in range(2)) for _ in range(2))
        v = BilocalVertex("AB|C", zero_pair, (0, 0))
        t = vertex_to_behavior(v)
        assert t.probs[0, 0, 0].min() == 1.0

    def test_every_t2_behavior_is_a_bilocal_behavior(self, t2_vertices):
        # one-way signaling is a restriction of two-way signaling
        for v in t2_vertices[::3]:
            pair = []
            for s1 in range(2):
                row = []
                for s2 in range(2):
                    if v.past_is_first:
                        row.append((v.past_outputs[s1], v.future_outputs[s2][s1]))
                    else:
                        row.append((v.future_outputs[s1][s2], v.past_outputs[s2]))
                pair.append(tuple(row))
            equivalent = BilocalVertex(v.partition, tuple(pair), v.solo_outputs)
            np.testing.assert_array_equal(
                vertex_to_behavior(v).probs, vertex_to_behavior(equivalent).probs
            )

    def test_past_party_never_signaled(self, t2_vertices):
        # the past party's marginal is independent of its partner's setting
        for v in t2_vertices[::11]:
            probs = vertex_to_behavior(v).probs
            first, second, solo = {
                "AB|C": (0, 1, 2),
                "AC|B": (0, 2, 1),
                "BC|A": (1, 2, 0),
            }[v.partition]
            past = first if v.past_is_first else second
            partner = second if v.past_is_first else first
            marg = probs.sum(axis=tuple(i for i in range(3) if i != past))
            # axes now: (outcome of past party, x, y, z)
            assert np.abs(np.diff(marg, axis=1 + partner)).max() == 0.0


class TestClassicalMax:
    def test_svetlichny_bound_exact(self, bilocal_vertices):
        assert classical_max("svetlichny_corr", bilocal_vertices) == 4

    def test_t2_bound_exact(self, t2_vertices):
        assert classical_max("t2", t2_vertices) == 0

    def test_t2_bound_with_both_orders(self):
        both = enumerate_t2_vertices(include_both_orders=True)
        assert classical_max("t2", both) == 0
        assert classical_max("svetlichny_corr", both) == 4

    def test_svetlichny_over_t2_vertices(self, t2_vertices):
        assert classical_max("svetlichny_corr", t2_vertices) == 4

    def test_unknown_expression(self, t2_vertices):
        with pytest.raises(ValueError):
            classical_max("chsh", t2_vertices)
        with pytest.raises(ValueError):
            classical_max("t2", [])


class TestMarginalReadings:
    """Documents which pair-marginal reading reproduces the bounds."""

    def test_reading_maxima_over_t2_vertices(self, t2_vertices):
        tensors = [vertex_to_behavior(v).probs for v in t2_vertices]
        maxima = {
            reading: max(t2_statistic(p, pair_reading=reading) for p in tensors)
            for reading in ("pessimistic", "mean", "setting0", "setting1")
        }
        assert maxima["pessimistic"] == 0.0
        # fixed and mean readings admit positive deterministic values and
        # therefore do not reproduce the classical bound
        assert maxima["mean"] == 1.0
        assert maxima["setting0"] == 1.0
        assert maxima["setting1"] == 2.0

    def test_in_group_pair_marginal_is_setting_free(self, bilocal_vertices, t2_vertices):
        # the pair inside the partition cannot see the solo party's setting
        in_group_pair = {"AB|C": "ab", "AC|B": "ac", "BC|A": "bc"}
        for v in bilocal_vertices[::17] + t2_vertices[::13]:
            probs = vertex_to_behavior(v).probs
            pair = in_group_pair[v.partition]
            if pair == "ab":
                vals = probs[0, 0, :, 1, 1, :].sum(axis=0)
            elif pair == "bc":
                vals = probs[:, 0, 0, :, 1, 1].sum(axis=0)
            else:
                vals = probs[0, :, 0, 1, :, 1].sum(axis=0)
            assert vals[0] == vals[1]


class TestMixtures:
    def test_svetlichny_mixtures_respect_bound(self, bilocal_vertices, rng):
        # the correlator statistic is linear, so the vertex bound is convex-tight
        tensors = [vertex_to_behavior(v).probs for v in bilocal_vertices[:: 16]]
        for _ in range(1000):
            k = rng.integers(2, 6)
            idx = rng.integers(0, len(tensors), size=k)
            w = rng.dirichlet(np.ones(k))
            mix = sum(wi * tensors[i] for wi, i in zip(w, idx))
            assert svetlichny_statistic(mix) <= 4.0 + 1e-12

    def test_t2_mixtures_respect_linear_reading_bound(self, t2_vertices, rng):
        # linear readings extend convexly to mixtures; their vertex maxima
        # (1 for mean/setting0) bound all mixtures
        tensors = [vertex_to_behavior(v).probs for v in t2_vertices[::2]]
        for _ in range(1000):
            k = rng.integers(2, 6)
            idx = rng.integers(0, len(tensors), size=k)
            w = rng.dirichlet(np.ones(k))
            mix = sum(wi * tensors[i] for wi, i in zip(w, idx))
            assert t2_statistic(mix, pair_reading="mean") <= 1.0 + 1e-12
            assert t2_statistic(mix, pair_reading="setting0") <= 1.0 + 1e-12

    def test_pessimistic_reading_is_not_convex(self, t2_vertices):
        # a signaling mixture can exceed the pessimistic vertex maximum of 0,
        # so the bound-0 certificate holds at vertex level only
        def vertex(past, future, solo, partition):
            return vertex_to_behavior(
                T2Vertex(partition, True, past, future, solo)
            ).probs

        found_positive = False
        vs = enumerate_t2_vertices()
        tensors = [vertex_to_behavior(v).probs for v in vs]
        rng = np.random.default_rng(5)
        for _ in range(3000):
            idx = rng.integers(0, len(tensors), size=3)
            mix = tensors[idx[0]] / 3 + tensors[idx[1]] / 3 + tensors[idx[2]] / 3
            if t2_statistic(mix, pair_reading="pessimistic") > 1e-9:
                found_positive = True
                break
        assert found_positive


class TestRestriction:
    def test_t2_max_never_exceeds_bilocal_max(self, bilocal_vertices, t2_vertices, rng):
        # every time-ordered vertex behavior is also a bilocal vertex
        # behavior, so any linear functional has a smaller maximum on the
        # time-ordered list
        sv_tensors = np.stack([vertex_to_behavior(v).probs for v in bilocal_vertices])
        t2_tensors = np.stack([vertex_to_behavior(v).probs for v in t2_vertices])
        for _ in range(20):
            functional = rng.normal(size=(2,) * 6)
            max_t2 = np.einsum("abcxyz,vabcxyz->v", functional, t2_tensors).max()
            max_sv = np.einsum("abcxyz,vabcxyz->v", functional, sv_tensors).max()
            assert max_t2 <= max_sv + 1e-12


def reference_vertex_row(v) -> np.ndarray:
    """A vertex's behavior row built one setting triple at a time from its
    tuples, without the pair tables the vertex matrix reads."""
    first, second, solo = {"AB|C": (0, 1, 2), "AC|B": (0, 2, 1), "BC|A": (1, 2, 0)}[v.partition]
    row = np.zeros(64, dtype=np.int8)
    for x in range(2):
        for y in range(2):
            for z in range(2):
                settings = (x, y, z)
                s1, s2 = settings[first], settings[second]
                if isinstance(v, BilocalVertex):
                    o1, o2 = v.pair_outputs[s1][s2]
                elif v.past_is_first:
                    o1, o2 = v.past_outputs[s1], v.future_outputs[s2][s1]
                else:
                    o1, o2 = v.future_outputs[s1][s2], v.past_outputs[s2]
                outcome = [0, 0, 0]
                outcome[first], outcome[second] = o1, o2
                outcome[solo] = v.solo_outputs[settings[solo]]
                a, b, c = outcome
                row[8 * (4 * a + 2 * b + c) + 4 * x + 2 * y + z] = 1
    return row


def test_vertex_matrix_matches_the_per_vertex_reference(rng):
    vertices = enumerate_svetlichny_vertices() + enumerate_t2_vertices(include_both_orders=True)
    order = rng.permutation(len(vertices))  # partitions and vertex types interleaved
    shuffled = [vertices[i] for i in order]
    matrix = _vertex_matrix(shuffled)
    assert matrix.dtype == np.int8
    np.testing.assert_array_equal(matrix, np.stack([reference_vertex_row(v) for v in shuffled]))
