"""Deterministic strategies of the two locality classes and exact classical bounds.

Two vertex families are enumerated:

* bilocal vertices: one bipartition of the parties; the grouped pair answers
  jointly (arbitrary two-way dependence on both settings inside the group),
  the solo party answers from its own setting;
* time-ordered vertices: as above, but inside the group one party (the
  "past") answers from its own setting only while the other (the "future")
  may also depend on the past party's setting.

Vertices may signal across settings inside the group, so the pair marginals
referenced by the probability-form statistic are not always setting-free.
Enumeration shows (see tests) that evaluating each pair marginal at the
larger of its two dummy-setting values is the unique reading among
{dummy 0, dummy 1, mean, min, max} under which the time-ordered maximum is
exactly 0, matching the statistic's classical bound; the fixed and mean
readings admit deterministic strategies with strictly positive values.
`classical_max` therefore uses that pessimistic reading.  The pair whose
dummy party is the solo party is always setting-free for vertices; this is
asserted during evaluation rather than assumed.

A vertex is evaluated as one row of a vertex matrix: its deterministic
behavior, one unit entry per setting triple among the 64 entries of
P(abc|xyz), as int8.  The statistics are then exact integer products with
the coefficient arrays of `inequality`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .inequality import SVETLICHNY_FORM, T2_FORMS, T2_PAIRS
from .qcore import BehaviorTensor

PARTITIONS = ("AB|C", "AC|B", "BC|A")

# party indices of (first grouped, second grouped, solo) per partition
_GROUPING = {
    "AB|C": (0, 1, 2),
    "AC|B": (0, 2, 1),
    "BC|A": (1, 2, 0),
}

@dataclass(frozen=True)
class BilocalVertex:
    """Deterministic bilocal strategy.

    ``pair_outputs[s1][s2]`` is the outcome pair of the grouped parties at
    their joint settings; ``solo_outputs[s]`` the solo party's outcome.
    """

    partition: str
    pair_outputs: tuple[tuple[tuple[int, int], tuple[int, int]],
                        tuple[tuple[int, int], tuple[int, int]]]
    solo_outputs: tuple[int, int]

    def __post_init__(self):
        if self.partition not in PARTITIONS:
            raise ValueError(f"unknown partition {self.partition!r}")


@dataclass(frozen=True)
class T2Vertex:
    """Deterministic one-way-signaling strategy.

    The past party's output depends only on its own setting:
    ``past_outputs[s]``.  The future party sees the past party's setting as
    well: ``future_outputs[s_own][s_past]``.  ``past_is_first`` says which
    grouped party is in the causal past.
    """

    partition: str
    past_is_first: bool
    past_outputs: tuple[int, int]
    future_outputs: tuple[tuple[int, int], tuple[int, int]]
    solo_outputs: tuple[int, int]

    def __post_init__(self):
        if self.partition not in PARTITIONS:
            raise ValueError(f"unknown partition {self.partition!r}")

    @property
    def pair_outputs(self) -> tuple[tuple[tuple[int, int], tuple[int, int]],
                                    tuple[tuple[int, int], tuple[int, int]]]:
        """The grouped parties' outcome pairs as in `BilocalVertex`: a
        time-ordered strategy is the bilocal strategy with this pair table."""
        (p0, p1), ((f00, f01), (f10, f11)) = self.past_outputs, self.future_outputs
        if self.past_is_first:  # pair[s1][s2] = (past[s1], future[s2][s1])
            return ((p0, f00), (p0, f10)), ((p1, f01), (p1, f11))
        # pair[s1][s2] = (future[s1][s2], past[s2])
        return ((f00, p0), (f01, p1)), ((f10, p0), (f11, p1))


def enumerate_svetlichny_vertices() -> list[BilocalVertex]:
    """All 3 * 2^4 * 2^4 * 2^2 = 3072 bilocal strategies.

    Duplicates across partitions are retained: only the maximum matters.
    """
    out = []
    joint_settings = tuple(itertools.product(range(2), repeat=2))
    for partition in PARTITIONS:
        for outputs in itertools.product(itertools.product(range(2), repeat=2), repeat=4):
            table = {st: outputs[i] for i, st in enumerate(joint_settings)}
            pair = tuple(tuple(table[(s1, s2)] for s2 in range(2)) for s1 in range(2))
            for solo in itertools.product(range(2), repeat=2):
                out.append(BilocalVertex(partition, pair, solo))
    return out


def enumerate_t2_vertices(include_both_orders: bool = False) -> list[T2Vertex]:
    """All 3 * 2^2 * 2^4 * 2^2 = 768 time-ordered strategies.

    The default enumerates one causal order per partition (first grouped
    party in the past).  Both certified statistics are invariant under
    exchanging the grouped parties, so the reversed order adds no new
    maxima; ``include_both_orders=True`` enumerates them anyway (1536),
    which the test suite uses to confirm the maxima agree.
    """
    out = []
    orders = (True, False) if include_both_orders else (True,)
    for partition in PARTITIONS:
        for past_is_first in orders:
            for past in itertools.product(range(2), repeat=2):
                for fut in itertools.product(range(2), repeat=4):
                    future = ((fut[0], fut[1]), (fut[2], fut[3]))
                    for solo in itertools.product(range(2), repeat=2):
                        out.append(T2Vertex(partition, past_is_first, past, future, solo))
    return out


def _vertex_matrix(vertices) -> np.ndarray:
    """One int8 row per vertex: its deterministic behavior over the 64
    entries of P(abc|xyz), a 1 at entry 8 * (4a + 2b + c) + (4x + 2y + z)
    for the outcomes a, b, c it gives at each setting triple x, y, z."""
    pairs = np.array([v.pair_outputs for v in vertices], dtype=np.int8)  # [v, s1, s2, party]
    solos = np.array([v.solo_outputs for v in vertices], dtype=np.int8)  # [v, s]
    partitions = np.array([PARTITIONS.index(v.partition) for v in vertices], dtype=np.int8)
    outcomes = np.empty((len(pairs), 2, 2, 2), dtype=np.int8)           # [v, x, y, z]
    for code, partition in enumerate(PARTITIONS):
        first, second, solo = _GROUPING[partition]
        rows = partitions == code
        # 4a + 2b + c over the axes (first setting, second setting, solo setting)
        pair_bits = pairs[rows] @ np.array([4 >> first, 4 >> second], dtype=np.int8)
        index = pair_bits[..., None] + (4 >> solo) * solos[rows][:, None, None, :]
        outcomes[rows] = np.moveaxis(index, (1, 2, 3), (1 + first, 1 + second, 1 + solo))
    # [v, outcome, setting] as a one-hot bool array, read as int8 in place
    hits = outcomes.reshape(-1, 1, 8) == np.arange(8, dtype=np.int8)[:, None]
    return hits.view(np.int8).reshape(-1, 64)


def vertex_to_behavior(v: BilocalVertex | T2Vertex) -> BehaviorTensor:
    """Deterministic behavior tensor: one unit entry per setting triple.

    Normalization holds by construction; no-signaling may fail across the
    signaling cut, which is permitted for vertices.
    """
    return BehaviorTensor(_vertex_matrix([v]).reshape((2,) * 6))


def classical_max(expression: str, vertices) -> int:
    """Exact maximum of an inequality statistic over deterministic strategies.

    ``expression`` is ``"svetlichny_corr"`` (classical bound 4) or ``"t2"``
    (classical bound 0, pessimistic pair reading: the minimum over the 8
    readings of `inequality.T2_FORMS`).  The result is an exact integer,
    the maximum of integer products of the vertex matrix with the form; no
    tolerances are involved.
    """
    if expression not in ("svetlichny_corr", "t2"):
        raise ValueError(f"unknown expression {expression!r}")
    vertices = list(vertices)
    if not vertices:
        raise ValueError("vertex list is empty")
    matrix = _vertex_matrix(vertices)
    if expression == "svetlichny_corr":
        return int((matrix @ SVETLICHNY_FORM.sum(axis=0, dtype=np.int16)).max())
    readings = matrix @ T2_FORMS.sum(axis=1, dtype=np.int16).T
    # the solo party cannot influence the grouped pair: reading 2**k moves
    # only pair k's dummy setting, which for the grouped pair (the subset
    # of all parties but the solo one) is the solo setting
    grouped = [T2_PAIRS.index(7 - (4 >> _GROUPING[v.partition][2])) for v in vertices]
    flipped = readings[np.arange(len(vertices)), 1 << np.array(grouped)]
    assert np.array_equal(flipped, readings[:, 0]), (
        "in-group pair marginal depends on the solo setting")
    return int(readings.min(axis=1).max())
