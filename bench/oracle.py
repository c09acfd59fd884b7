"""Independent reference for the quantities the benchmark checks.

Written from the definitions alone and sharing no code with ``tribell``
(this module imports only numpy):

* Born rule: P(abc|xyz) = <psi| Pi_a^x (x) Pi_b^y (x) Pi_c^z |psi> with
  Pi = (I + (-1)^outcome n.sigma) / 2 built from Bloch directions and
  combined by Kronecker products (party A is the most significant qubit);
* loss channel: a detector with efficiency eta keeps outcome 0 with
  probability eta and records every no-click as outcome 1;
* the correlator statistic (classical bound 4) and the probability-form
  statistic (classical bound 0), term by term;
* the symmetric cutoff, by bisection of the observed statistic in eta;
* the theta family's noisy sums T(p), Q(p) in closed form.

Behaviors are arrays ``P[a, b, c, x, y, z]``.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

_I2 = np.eye(2, dtype=complex)
_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)

# correlator-form coefficients of E(xyz): +1 at xyz = 010 and 101, -1 elsewhere
CORRELATOR_COEFFS = {
    xyz: (1 if xyz in ((0, 1, 0), (1, 0, 1)) else -1)
    for xyz in itertools.product((0, 1), repeat=3)
}

GHZ_AZIMUTHS = (0.0, math.pi / 2, 0.0, 3 * math.pi / 2, 3 * math.pi / 4, 5 * math.pi / 4)


def projector(polar: float, azimuth: float, outcome: int) -> np.ndarray:
    """Projector of one outcome of the measurement whose outcome 0 points
    along the Bloch direction (polar, azimuth)."""
    n = (math.sin(polar) * math.cos(azimuth), math.sin(polar) * math.sin(azimuth), math.cos(polar))
    sign = 1.0 if outcome == 0 else -1.0
    return 0.5 * (_I2 + sign * (n[0] * _SX + n[1] * _SY + n[2] * _SZ))


def behavior(rho: np.ndarray, directions) -> np.ndarray:
    """Born-rule behavior of an 8x8 density matrix.

    ``directions`` lists six (polar, azimuth) pairs in the order
    a0, a1, b0, b1, c0, c1.
    """
    probs = np.empty((2,) * 6)
    for x, y, z in itertools.product((0, 1), repeat=3):
        da, db, dc = directions[x], directions[2 + y], directions[4 + z]
        for a, b, c in itertools.product((0, 1), repeat=3):
            op = np.kron(np.kron(projector(*da, a), projector(*db, b)), projector(*dc, c))
            probs[a, b, c, x, y, z] = float(np.trace(rho @ op).real)
    return probs


def pure_density(amplitudes) -> np.ndarray:
    psi = np.asarray(amplitudes, dtype=complex)
    psi = psi / np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def with_white_noise(rho: np.ndarray, p: float) -> np.ndarray:
    return (1.0 - p) * rho + p * np.eye(8) / 8.0


def lossy(probs: np.ndarray, etas) -> np.ndarray:
    """Apply each party's detector: outcome 0 survives with probability eta,
    otherwise (and always for outcome 1) outcome 1 is recorded."""
    out = np.zeros_like(probs)
    for a, b, c in itertools.product((0, 1), repeat=3):
        for a2, b2, c2 in itertools.product((0, 1), repeat=3):
            weight = 1.0
            for ideal, seen, eta in ((a, a2, etas[0]), (b, b2, etas[1]), (c, c2, etas[2])):
                if ideal == 1:
                    weight *= 1.0 if seen == 1 else 0.0
                else:
                    weight *= eta if seen == 0 else 1.0 - eta
            if weight:
                out[a2, b2, c2] += weight * probs[a, b, c]
    return out


def correlator_statistic(probs: np.ndarray) -> float:
    """sum_xyz s(xyz) E(xyz) with E(xyz) = sum_abc (-1)^(a+b+c) P(abc|xyz)."""
    total = 0.0
    for (x, y, z), coeff in CORRELATOR_COEFFS.items():
        corr = sum(
            (-1) ** (a + b + c) * probs[a, b, c, x, y, z]
            for a, b, c in itertools.product((0, 1), repeat=3)
        )
        total += coeff * corr
    return float(total)


def _pair00(probs: np.ndarray, first: int, second: int, dummy_setting: int) -> float:
    """P(0 0) of two parties, both at setting 1, the third at ``dummy_setting``."""
    total = 0.0
    for outcomes in itertools.product((0, 1), repeat=3):
        if outcomes[first] or outcomes[second]:
            continue
        settings = [dummy_setting] * 3
        settings[first] = settings[second] = 1
        total += probs[outcomes + tuple(settings)]
    return total


def t2_statistic(probs: np.ndarray) -> float:
    """-2 [P_AB(00|11) + P_BC(00|11) + P_AC(00|11)]
    - P(000|001) - P(000|010) - P(000|100)
    + 2 [P(000|110) + P(000|101) + P(000|011) + P(000|111)].

    Pair marginals are read at the outside party's setting 0; the tensors
    checked here are no-signaling, so the reading does not matter.
    """
    pairs = _pair00(probs, 0, 1, 0) + _pair00(probs, 1, 2, 0) + _pair00(probs, 0, 2, 0)
    m = probs[0, 0, 0]
    return float(
        -2.0 * pairs
        - m[0, 0, 1] - m[0, 1, 0] - m[1, 0, 0]
        + 2.0 * (m[1, 1, 0] + m[1, 0, 1] + m[0, 1, 1] + m[1, 1, 1])
    )


def excess(kind: str, probs: np.ndarray) -> float:
    """Statistic minus its classical bound; positive means violation."""
    if kind == "svetlichny":
        return correlator_statistic(probs) - 4.0
    return t2_statistic(probs)


def symmetric_cutoff(kind: str, probs: np.ndarray, tol: float = 1e-12) -> float | None:
    """Smallest symmetric efficiency above which the observed statistic
    violates its bound, by bisection on (0, 1]; None without violation at 1."""
    if excess(kind, probs) <= 0.0:
        return None
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if excess(kind, lossy(probs, (mid, mid, mid))) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# named settings

def ghz_behavior(azimuths=GHZ_AZIMUTHS) -> np.ndarray:
    amp = np.zeros(8, dtype=complex)
    amp[0] = amp[7] = 1.0
    return behavior(pure_density(amp), [(math.pi / 2, phi) for phi in azimuths])


def theta_k(theta: float) -> float:
    s, c = math.sin(theta), math.cos(theta)
    return math.sqrt(s * s / (3 * s * s + (1 - 3 * c) ** 2))


def theta_behavior(theta: float, p: float = 0.0) -> np.ndarray:
    """k (|011> + |101> + |110>) + k (1 - 3 cos t) / sin t |111>; every
    party measures Z (setting 0) and the direction at polar angle 2 theta
    (setting 1)."""
    k = theta_k(theta)
    amp = np.zeros(8, dtype=complex)
    amp[0b011] = amp[0b101] = amp[0b110] = k
    amp[0b111] = k * (1 - 3 * math.cos(theta)) / math.sin(theta)
    rho = with_white_noise(pure_density(amp), p)
    return behavior(rho, [(0.0, 0.0), (2 * theta, 0.0)] * 3)


def theta_sums(theta, p):
    """Closed-form triple sum T(p) and pair sum Q(p) of the noisy theta family
    (numpy-broadcasting in theta and p)."""
    theta = np.asarray(theta, dtype=float)
    p = np.asarray(p, dtype=float)
    s, c = np.sin(theta), np.cos(theta)
    k2 = s * s / (3 * s * s + (1 - 3 * c) ** 2)
    big_k = k2 * s**4
    triple = 8 * (1 - p) * big_k + 5 * p / 8
    pair = 6 * (1 - p) * big_k * (1 + np.tan(theta / 2) ** 2) + 3 * p / 2
    return triple, pair


def theta_eta_min(theta, p):
    """Q/T where it lies below 1, NaN where no efficiency up to 1 violates."""
    triple, pair = theta_sums(theta, p)
    ratio = pair / triple
    return np.where(ratio < 1.0, ratio, np.nan)


def self_check() -> None:
    """Check the oracle against analytic values; raises RuntimeError."""
    problems = []
    value = correlator_statistic(ghz_behavior())
    if abs(value - 4 * math.sqrt(2)) > 1e-12:
        problems.append(f"GHZ correlator value {value}, expected 4 sqrt(2)")
    ratio = float(theta_eta_min(1e-3, 0.0))
    if abs(ratio - 0.75) > 1e-6:
        problems.append(f"theta -> 0 crossing {ratio}, expected 3/4")
    # the closed form against the Born rule and the bisection
    for theta, p in ((0.3, 0.0), (0.8, 0.02), (1.0, 0.01)):
        probs = theta_behavior(theta, p)
        triple, pair = theta_sums(theta, p)
        if abs(t2_statistic(probs) - (triple - pair)) > 1e-12:
            problems.append(f"theta family T - Q at {theta}, {p} disagrees with the Born rule")
        if abs(symmetric_cutoff("t2", probs) - pair / triple) > 1e-9:
            problems.append(f"theta family Q/T at {theta}, {p} disagrees with the bisection")
    if problems:
        raise RuntimeError("oracle self-check failed: " + "; ".join(problems))
