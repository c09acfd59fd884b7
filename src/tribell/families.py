"""Named quantum settings: the one-parameter theta family, GHZ with
equatorial measurements, and white-noise mixing."""

from __future__ import annotations

import numpy as np

from .inputs import NoiseLevel, check_theta
from .qcore import (
    SIN_FLOOR,
    DensityMatrix,
    PureState,
    QubitMeasurement,
    SettingsTriple,
)


class ThetaSetting:
    """Parameter of the one-parameter state-and-measurement family.

    Restricted to theta in (0, pi) with sin(theta) bounded away from 0 so
    the normalization constant stays finite.  Probability-form violation is
    only possible for theta below pi/3, where tan^2(theta/2) < 1/3.
    """

    __slots__ = ("theta",)

    def __init__(self, theta: float):
        check_theta(theta)
        if np.sin(theta) < SIN_FLOOR:
            raise ValueError(f"sin(theta) = {np.sin(theta)} below floor {SIN_FLOOR}")
        self.theta = theta

    @property
    def normalization(self) -> float:
        """k with k^2 = sin^2(theta) / (3 sin^2(theta) + (1 - 3 cos(theta))^2)."""
        s, c = np.sin(self.theta), np.cos(self.theta)
        return float(np.sqrt(s * s / (3.0 * s * s + (1.0 - 3.0 * c) ** 2)))


def theta_state(s: ThetaSetting) -> PureState:
    """Amplitude k on |011>, |101>, |110> and k*(1-3cos)/sin on |111>."""
    k = s.normalization
    amp = np.zeros(8, dtype=complex)
    amp[0b011] = k
    amp[0b101] = k
    amp[0b110] = k
    amp[0b111] = k * (1.0 - 3.0 * np.cos(s.theta)) / np.sin(s.theta)
    # divided by its computed norm, which for some theta is 1 ulp off 1: at
    # small theta a 1-ulp change of the amplitudes moves the noise crossing
    # Q/T by about 1e-12, so the family is pinned to the divided amplitudes
    return PureState.normalized(amp)


def theta_measurements(s: ThetaSetting) -> SettingsTriple:
    """Identical pair for every party: setting 0 is the computational basis,
    setting 1 projects outcome 0 onto cos(theta)|0> + sin(theta)|1>."""
    m0 = QubitMeasurement(polar=0.0)
    m1 = QubitMeasurement(polar=2.0 * s.theta)  # half-angle convention
    pair = (m0, m1)
    return SettingsTriple(a=pair, b=pair, c=pair)


def ghz_state() -> PureState:
    amp = np.zeros(8, dtype=complex)
    amp[0b000] = amp[0b111] = 1.0 / np.sqrt(2.0)
    return PureState.normalized(amp)  # the computed norm is 1 - 1 ulp


# Azimuths (a0, a1, b0, b1, c0, c1) maximizing the correlator statistic on
# GHZ at 4*sqrt(2); found by optimizing over all six equatorial angles.
GHZ_OPTIMAL_AZIMUTHS = (
    0.0,
    np.pi / 2.0,
    0.0,
    3.0 * np.pi / 2.0,
    3.0 * np.pi / 4.0,
    5.0 * np.pi / 4.0,
)


def ghz_setting(azimuths=GHZ_OPTIMAL_AZIMUTHS) -> tuple[PureState, SettingsTriple]:
    """GHZ state with equatorial measurements at the six given azimuths,
    ordered (a0, a1, b0, b1, c0, c1)."""
    az = [float(v) for v in azimuths]
    if len(az) != 6:
        raise ValueError(f"expected 6 azimuths, got {len(az)}")
    return ghz_state(), SettingsTriple.from_angles(np.column_stack((np.full(6, np.pi / 2.0), az)))


def mix_white_noise(rho: DensityMatrix, p: NoiseLevel) -> DensityMatrix:
    """(1 - p) * rho + (p/8) * identity."""
    mixed = (1.0 - p.p) * rho.matrix + (p.p / 8.0) * np.eye(8)
    return DensityMatrix(mixed)
