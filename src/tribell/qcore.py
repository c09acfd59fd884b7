"""Three-qubit states, dichotomic projective measurements, and Born-rule behaviors.

Basis labels follow |abc> with party A the most significant bit, so the
amplitude index of |abc> is 4a + 2b + c.  Behavior tensors are indexed
``probs[a, b, c, x, y, z]`` with outcomes a, b, c and settings x, y, z all
in {0, 1}.

Measurement settings are 12 angles, (polar, azimuth) per measurement in
party-major order a0, a1, b0, b1, c0, c1: `SettingsTriple.angles` and
`SettingsTriple.from_angles` define that layout, and the explicit settings
JSON, the angles each search restart optimizes and
`search.SettingsParameterization.measurement_angles` use it.

Every tolerance of the package is defined once, in the table below.
"""

from __future__ import annotations

import itertools
from functools import cache
from typing import NamedTuple

import numpy as np

from .errors import NormalizationError

DIM = 8

# ---------------------------------------------------------------------------
# Tolerance table.  Each value is dimensionless: a norm, a probability or a
# signed sum of them, an efficiency or the ratio Q/T.  Minimum efficiencies are
# infima, approached with a margin that goes to 0, so near them each public
# function's rule decides.  Verdicts (`t2_value`, `svetlichny_corr_value`)
# and `svetlichny_cutoff` need a margin above VIOLATION_TOL, so none rests on
# rounding; an MDE restart's certificate applies the same rule to the margin
# at eta = 1 of either form (alpha + beta - gamma, or T - Q).  Q/T alone
# needs none, as a ratio of two small sums is still well determined
# (theta = 0.02: T - Q = 3.2e-11, Q/T = 0.750075).  Within
# CUTOFF_ROUNDING of 1, `t2_cutoff_symmetric` is closed, giving 1.0 where
# violation starts (theta = pi/3, T = Q), and `noisy_t2_min_efficiency` and
# `sweep_t2_noise` are strict, giving None, as no eta <= 1 violates.
NORM_TOL = 1e-9             # |norm - 1| of a state given from outside; more is not rounding
UNIT_NORM_ROUNDING = 16 * np.finfo(float).eps  # |norm - 1| left by normalizing; kept
ZERO_NORM = 1e-12           # norm below which `PureState.normalized` finds no direction
HERMITICITY_TOL = 1e-12     # max |rho - rho^H|: rounding of outer products and mixtures
TRACE_TOL = 1e-12           # |Tr rho - 1|, likewise
PSD_TOL = -1e-10            # lowest eigenvalue of rho; eigvalsh rounds 0 to a few 1e-16
PROB_FLOOR = -1e-12         # entries below are an error; above, rounding clipped to 0
SLICE_SUM_TOL = 1e-10       # |setting slice sum - 1|: 8 entries, each clipped by <= 1e-12
VIOLATION_TOL = 1e-9        # rules above; statistics round to ~1e-15; MDE eigenvalue floor
MARGINAL_TOL = 1e-8         # two readings of one marginal; Born tensors agree to ~1e-15
NONNEGATIVE_TOL = 1e-9      # how far below 0 beta and gamma, sums of probabilities, round
DEGENERATE_TOL = 1e-12      # |c2| below it: `cutoff_root` is linear; alpha and beta, degenerate
ZERO_ROOT = 1e-15           # `cutoff_root` of the correlator below it: reported as 0, warned
CUTOFF_ROUNDING = 1e-12     # distance of Q/T from 1 that is rounding; the rules above
CONVERGENCE_TOL = 1e-12     # both stopping tests of each MDE restart, as in L-BFGS-B
VALUE_ROUNDING = np.finfo(float).eps  # relative rounding of an MDE objective value
REVERIFY_TOL = 1e-9         # certificate vs public path; they agree to about 1e-10
CROSSING_BRACKET = 1e-7     # half-width of the sign bracket pinning each noise crossing
SIN_FLOOR = 1e-9            # sin(theta) of the theta family, whose amplitudes divide by it
# end of the tolerance table


def _frozen(array: np.ndarray) -> np.ndarray:
    out = np.array(array)
    out.setflags(write=False)
    return out


class PureState:
    """Normalized three-qubit amplitude vector (8 complex entries)."""

    __slots__ = ("amplitudes",)

    def __init__(self, amplitudes):
        amp = np.asarray(amplitudes, dtype=complex).reshape(-1)
        if amp.shape != (DIM,):
            raise NormalizationError(f"expected {DIM} amplitudes, got {amp.shape}")
        with np.errstate(over="ignore"):  # an overflowing norm is inf, which fails below
            norm = np.linalg.norm(amp)
        # negated comparisons, so that a NaN fails them
        if not abs(norm - 1.0) <= NORM_TOL:
            raise NormalizationError(f"state norm {norm} deviates from 1 by more than {NORM_TOL}")
        # dividing by such a norm again moves last bits back and forth without
        # bringing it closer to 1, so a state written out and read back would
        # not be the state that was written
        if abs(norm - 1.0) > UNIT_NORM_ROUNDING:
            amp = amp / norm
        self.amplitudes = _frozen(amp)

    @classmethod
    def normalized(cls, vector) -> "PureState":
        """Normalize an arbitrary nonzero vector into a state."""
        vec = np.asarray(vector, dtype=complex).reshape(-1)
        norm = np.linalg.norm(vec)
        if norm < ZERO_NORM:
            raise NormalizationError("cannot normalize a (near-)zero vector")
        return cls(vec / norm)


class DensityMatrix:
    """8x8 Hermitian, positive semidefinite, unit-trace operator."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        mat = np.asarray(matrix, dtype=complex)
        if mat.shape != (DIM, DIM):
            raise NormalizationError(f"expected {DIM}x{DIM} matrix, got {mat.shape}")
        # negated comparisons, so that a NaN fails them before eigvalsh sees it
        if not np.max(np.abs(mat - mat.conj().T)) <= HERMITICITY_TOL:
            raise NormalizationError("matrix is not Hermitian within tolerance")
        if not (abs(np.trace(mat).real - 1.0) <= TRACE_TOL and abs(np.trace(mat).imag) <= TRACE_TOL):
            raise NormalizationError(f"trace {np.trace(mat)} is not 1 within {TRACE_TOL}")
        if np.linalg.eigvalsh(mat).min() < PSD_TOL:
            raise NormalizationError("matrix has an eigenvalue below the PSD tolerance")
        self.matrix = _frozen(mat)


class QubitMeasurement(NamedTuple):
    """Dichotomic projective qubit measurement.

    ``polar`` and ``azimuth`` give the Bloch direction of the outcome-0
    projector; outcome 1 projects onto the orthogonal direction.  Outcome 0
    carries eigenvalue +1 under the {+1, -1} relabeling used by the
    correlator form of the inequalities.
    """

    polar: float
    azimuth: float = 0.0

    def basis(self) -> np.ndarray:
        """Orthonormal basis, shape (2 outcomes, 2 components)."""
        return measurement_basis(self.polar, self.azimuth)


def measurement_basis(polar, azimuth) -> np.ndarray:
    """Orthonormal basis (2 outcomes, 2 components) at the given Bloch angles;
    arrays of angles broadcast together and give shape (..., 2, 2)."""
    half = 0.5 * np.asarray(polar, dtype=float)
    phase = np.exp(1j * np.asarray(azimuth, dtype=float))
    cos, sin = np.cos(half), np.sin(half)
    basis = np.empty(np.broadcast_shapes(half.shape, phase.shape) + (2, 2), dtype=complex)
    basis[..., 0, 0] = cos
    basis[..., 0, 1] = phase * sin
    basis[..., 1, 0] = sin
    basis[..., 1, 1] = -phase * cos
    return basis


def projector(m: QubitMeasurement, outcome: int) -> np.ndarray:
    """Rank-1 projector of one outcome; the two outcomes sum to the identity."""
    if outcome not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1, got {outcome}")
    v = m.basis()[outcome]
    return np.outer(v, v.conj())


class SettingsTriple:
    """Two measurements per party, indexed by setting in {0, 1}."""

    __slots__ = ("a", "b", "c")

    def __init__(self, a: tuple[QubitMeasurement, QubitMeasurement],
                 b: tuple[QubitMeasurement, QubitMeasurement],
                 c: tuple[QubitMeasurement, QubitMeasurement]):
        for party in (a, b, c):
            if len(party) != 2:
                raise ValueError("each party needs exactly two measurements")
        self.a, self.b, self.c = a, b, c

    def __eq__(self, other):
        if not isinstance(other, SettingsTriple):
            return NotImplemented
        return (self.a, self.b, self.c) == (other.a, other.b, other.c)

    @classmethod
    def from_angles(cls, angles) -> "SettingsTriple":
        """Inverse of `angles`: any array of the 12 angles in that order."""
        a, b, c = ((QubitMeasurement(*m0), QubitMeasurement(*m1))
                   for m0, m1 in np.asarray(angles, dtype=float).reshape(3, 2, 2).tolist())
        return cls(a=a, b=b, c=c)

    def angles(self) -> np.ndarray:
        """(polar, azimuth) of every measurement, shape (party, setting, 2)."""
        parties = (self.a, self.b, self.c)
        return np.array([[[m.polar, m.azimuth] for m in party] for party in parties], dtype=float)

    def bases(self) -> np.ndarray:
        """Bases (party, setting, outcome, component); unpacks into per-party stacks."""
        angles = self.angles()
        return measurement_basis(angles[..., 0], angles[..., 1])


class BehaviorTensor:
    """Conditional distribution P(abc|xyz), shape (2,)*6, axes (a,b,c,x,y,z)."""

    __slots__ = ("probs",)

    def __init__(self, probs):
        p = np.asarray(probs, dtype=float)
        if p.shape != (2,) * 6:
            raise NormalizationError(f"expected shape {(2,)*6}, got {p.shape}")
        self.probs = _frozen(validated_probabilities(p))

    def no_signaling_deviation(self) -> float:
        return no_signaling_deviation(self.probs)


def validated_probabilities(probs) -> np.ndarray:
    """Check and clip a behavior array, or a stack of them along leading axes.

    Every entry must be at least ``PROB_FLOOR``; entries in between are
    clipped to 0.  Each setting slice of each tensor must then sum to 1
    within ``SLICE_SUM_TOL``.  Returns the clipped array.
    """
    p = np.asarray(probs, dtype=float)
    if p.shape[-6:] != (2,) * 6:
        raise NormalizationError(f"expected trailing shape {(2,)*6}, got {p.shape}")
    # negated comparisons, so that a NaN fails them; the initial values let
    # an empty stack pass
    lowest = p.min(initial=np.inf)
    if not lowest >= PROB_FLOOR:
        raise NormalizationError(f"negative probability {lowest} below floor {PROB_FLOOR}")
    p = np.clip(p, 0.0, None)
    # rows of the (outcomes, settings) view are the 8 outcome triples
    slice_sums = p.reshape(p.shape[:-6] + (8, 8)).sum(axis=-2)
    deviation = np.max(np.abs(slice_sums - 1.0), initial=0.0)
    if not deviation <= SLICE_SUM_TOL:
        raise NormalizationError(f"setting slices must sum to 1, max deviation {deviation}")
    return p


# Entry e of a flattened behavior has outcomes e // 8 and settings e % 8, as
# bit masks: party a (setting x) is 4, b (y) is 2, c (z) is 1
_ENTRY = np.arange(64)


def _marginal_checks(marginals):
    """Rows of differences between two readings of one marginal.

    For each marginal (S, o, t), the probability that the parties of subset
    S output o at their settings t, one row over the 64 flattened entries
    per pair of settings of the parties outside S; with the label of the
    marginal each row belongs to.
    """
    rows, labels = [], []
    for subset, outcomes, settings in marginals:
        parties = [i for i in range(3) if subset & 4 >> i]
        bits = ["".join(str(mask >> 2 - i & 1) for i in parties) for mask in (outcomes, settings)]
        label = f"P({bits[0]}|{''.join('abc'[i] for i in parties)} at {bits[1]})"
        reads = (_ENTRY // 8 & subset) == outcomes
        outside = [t for t in range(8) if t & subset == settings]
        for t0, t1 in itertools.combinations(outside, 2):
            rows.append((reads & (_ENTRY % 8 == t0)).astype(int) - (reads & (_ENTRY % 8 == t1)))
            labels.append(label)
    return np.array(rows), labels


@cache
def _no_signaling_checks() -> np.ndarray:
    """`_marginal_checks` rows of every one- and two-party marginal."""
    marginals = itertools.product(range(1, 7), range(8), range(8))  # (S, o, t)
    return _marginal_checks(m for m in marginals if (m[1] | m[2]) & ~m[0] == 0)[0]


def no_signaling_deviation(probs: np.ndarray) -> float:
    """Largest difference of any one- or two-party marginal between two
    settings of the parties outside it."""
    flat = np.asarray(probs, dtype=float).reshape(-1, 64)
    return float(np.abs(flat @ _no_signaling_checks().T).max())


def density_from_pure(state: PureState) -> DensityMatrix:
    """Rank-1 projector onto the state."""
    amp = state.amplitudes
    return DensityMatrix(np.outer(amp, amp.conj()))


def born_amplitudes(amplitudes, rows) -> np.ndarray:
    """Born amplitudes (..., 64), in (x, a, y, b, z, c) order, of states
    (..., 8) at the parties' conjugated `measurement_basis` rows (..., 3,
    2, 2, 2); leading axes broadcast, and the map is linear in each
    party's rows."""
    amp = np.asarray(amplitudes, dtype=complex)
    # party C, then B, then A contracts its component index with the last
    # qubit index left: [zc, ij], then [yb, zci], then [xa, ybzc]
    amp = amp.reshape(amp.shape[:-1] + (4, 2))
    for party in (2, 1, 0):
        u = rows[..., party, :, :, :].reshape(rows.shape[:-4] + (4, 2))
        amp = u @ amp.reshape(amp.shape[:-2] + (-1, 2)).swapaxes(-1, -2)
    return amp.reshape(amp.shape[:-2] + (64,))


def pure_behavior_probabilities(amplitudes: np.ndarray, bases) -> np.ndarray:
    """Born probabilities of a pure state, without object construction.

    ``amplitudes`` has shape (..., 8) and ``bases`` shape (..., 3, 2, 2, 2),
    the party stacks of :meth:`SettingsTriple.bases`: one state and its
    settings, giving one C-contiguous behavior array, or a stack of them
    along matching leading axes, giving a C-contiguous stack.  A tensor
    gives the same bits alone as in a stack.  It computes each MDE
    restart's certificate and, in one call, the sweep's ideal tensors;
    `behavior_from_settings` is the validated public route.
    """
    amp = born_amplitudes(amplitudes, np.conj(bases))
    # [x,a,y,b,z,c] -> [a,b,c,x,y,z]
    amp = np.moveaxis(amp.reshape(amp.shape[:-1] + (2,) * 6), (-5, -3, -1), (-6, -5, -4))
    probs = np.empty(amp.shape)
    np.add(amp.real**2, amp.imag**2, out=probs)
    return probs


_BORN_SUBSCRIPTS = "xai,ybj,zck,ijkIJK,xaI,ybJ,zcK->abcxyz"


@cache
def _born_contraction_path() -> tuple:
    """The contraction order ``optimize=True`` picks for the Born rule's
    einsum.  It depends only on the operand shapes, which are fixed, so it
    is searched once instead of on every call."""
    basis, rho6 = np.empty((2, 2, 2), dtype=complex), np.empty((2,) * 6, dtype=complex)
    path, _ = np.einsum_path(_BORN_SUBSCRIPTS, basis, basis, basis, rho6, basis, basis, basis,
                             optimize=True)
    return tuple(path)


def behavior_from_settings(rho: DensityMatrix, settings: SettingsTriple) -> BehaviorTensor:
    """Born-rule behavior P(abc|xyz) = Tr[rho (Pi_a^x ⊗ Pi_b^y ⊗ Pi_c^z)]."""
    ua, ub, uc = settings.bases()
    rho6 = rho.matrix.reshape((2,) * 6)
    probs = np.einsum(
        _BORN_SUBSCRIPTS,
        ua.conj(), ub.conj(), uc.conj(), rho6, ua, ub, uc,
        optimize=_born_contraction_path(),
    ).real
    return BehaviorTensor(probs)


def uniform_behavior() -> BehaviorTensor:
    """The maximally mixed behavior: every outcome triple has probability 1/8."""
    return BehaviorTensor(np.full((2,) * 6, 0.125))
