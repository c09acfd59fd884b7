"""Three-qubit states, dichotomic projective measurements, and Born-rule behaviors.

Basis labels follow |abc> with party A the most significant bit, so the
amplitude index of |abc> is 4a + 2b + c.  Behavior tensors are indexed
``probs[a, b, c, x, y, z]`` with outcomes a, b, c and settings x, y, z all
in {0, 1}.

Measurement settings are 12 angles, (polar, azimuth) per measurement in
party-major order a0, a1, b0, b1, c0, c1: `SettingsTriple.angles` and
`SettingsTriple.from_angles` define that layout, and the explicit settings
JSON and the search's settings vectors (`search.SettingsParameterization`)
use it.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

import numpy as np

from .errors import NormalizationError

DIM = 8

NORM_TOL = 1e-9          # rejection threshold for state normalization
# a norm this close to 1 is rounding left by an earlier normalization
UNIT_NORM_ROUNDING = 16 * np.finfo(float).eps
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = -1e-10
PROB_FLOOR = -1e-12      # entries below this are an error, above are clamped
SLICE_SUM_TOL = 1e-10


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
        if norm < 1e-12:
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
    deviation = np.max(np.abs(p.sum(axis=(-6, -5, -4)) - 1.0), initial=0.0)
    if not deviation <= SLICE_SUM_TOL:
        raise NormalizationError(f"setting slices must sum to 1, max deviation {deviation}")
    return p


def no_signaling_deviation(probs: np.ndarray) -> float:
    """Largest dependence of any one- or two-party marginal on an outside setting."""
    p = np.asarray(probs, dtype=float)
    pair_ab = p.sum(axis=2)            # [a,b,x,y,z]
    pair_ac = p.sum(axis=1)            # [a,c,x,y,z]
    pair_bc = p.sum(axis=0)            # [b,c,x,y,z]
    devs = [
        np.abs(pair_ab[..., 0] - pair_ab[..., 1]).max(),
        np.abs(pair_ac[..., :, 0, :] - pair_ac[..., :, 1, :]).max(),
        np.abs(pair_bc[..., 0, :, :] - pair_bc[..., 1, :, :]).max(),
    ]
    # single-party marginals, against both outside settings
    single_a = pair_ab.sum(axis=1)     # [a,x,y,z]
    single_b = pair_ab.sum(axis=0)     # [b,x,y,z]
    single_c = pair_ac.sum(axis=0)     # [c,x,y,z]
    devs += [
        np.abs(single_a[:, :, 0, :] - single_a[:, :, 1, :]).max(),
        np.abs(single_a[:, :, :, 0] - single_a[:, :, :, 1]).max(),
        np.abs(single_b[:, 0, :, :] - single_b[:, 1, :, :]).max(),
        np.abs(single_b[:, :, :, 0] - single_b[:, :, :, 1]).max(),
        np.abs(single_c[:, 0, :, :] - single_c[:, 1, :, :]).max(),
        np.abs(single_c[:, :, 0, :] - single_c[:, :, 1, :]).max(),
    ]
    return float(max(devs))


def density_from_pure(state: PureState) -> DensityMatrix:
    """Rank-1 projector onto the state."""
    amp = state.amplitudes
    return DensityMatrix(np.outer(amp, amp.conj()))


def pure_behavior_probabilities(amplitudes: np.ndarray, bases) -> np.ndarray:
    """Born probabilities of a pure state, without object construction.

    ``bases`` are the per-party stacks from :meth:`SettingsTriple.bases`.
    This is the hot path used by the optimizers; `behavior_from_settings`
    is the validated public route.
    """
    psi3 = np.asarray(amplitudes, dtype=complex).reshape(2, 2, 2)
    ua, ub, uc = (np.conj(u) for u in bases)
    s1 = np.tensordot(uc, psi3, axes=([2], [2]))       # [z,c,i,j]
    s2 = np.tensordot(ub, s1, axes=([2], [3]))         # [y,b,z,c,i]
    s3 = np.tensordot(ua, s2, axes=([2], [4]))         # [x,a,y,b,z,c]
    amp = s3.transpose(1, 3, 5, 0, 2, 4)               # [a,b,c,x,y,z]
    return amp.real**2 + amp.imag**2


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
