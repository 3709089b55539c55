"""Measurement settings and the CHSH combination in plain floats; ``states`` re-exports them."""

from __future__ import annotations

import math
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class MeasurementSetting:
    """A qubit rotation / analysis basis: polar angle theta, azimuth phi.

    Angles are canonicalized on construction to theta in [0, pi] and
    phi in [0, 2*pi); the represented measurement axis is unchanged.
    """

    theta: float
    phi: float = 0.0

    def __post_init__(self) -> None:
        theta, phi = float(self.theta), float(self.phi)
        if not (math.isfinite(theta) and math.isfinite(phi)):
            raise ValueError("measurement angles must be finite")
        theta = theta % TWO_PI
        if theta > math.pi:
            # (theta, phi) and (2*pi - theta, phi + pi) address the same axis.
            theta = TWO_PI - theta
            phi += math.pi
        phi = phi % TWO_PI
        if phi >= TWO_PI:  # tiny negatives round the modulo up to 2*pi itself
            phi = 0.0
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", phi)


@dataclass(frozen=True)
class BellAngles:
    """The four analysis settings (a1, a2; b1, b2) of a CHSH measurement."""

    a1: MeasurementSetting
    a2: MeasurementSetting
    b1: MeasurementSetting
    b2: MeasurementSetting

    @classmethod
    def canonical(cls) -> "BellAngles":
        """The maximally violating settings (0, pi/2; pi/4, 3*pi/4)."""
        return cls(
            a1=MeasurementSetting(0.0),
            a2=MeasurementSetting(math.pi / 2),
            b1=MeasurementSetting(math.pi / 4),
            b2=MeasurementSetting(3 * math.pi / 4),
        )

    @classmethod
    def from_thetas(cls, a1: float, a2: float, b1: float, b2: float) -> "BellAngles":
        return cls(
            a1=MeasurementSetting(a1),
            a2=MeasurementSetting(a2),
            b1=MeasurementSetting(b1),
            b2=MeasurementSetting(b2),
        )


CORRELATION_RANGE_TOL = 1e-9


def bell_signal(q22: float, q12: float, q21: float, q11: float) -> float:
    """CHSH combination |q22 - q12| + |q21 + q11| of four correlations."""
    for q in (q22, q12, q21, q11):
        if abs(q) > 1.0 + CORRELATION_RANGE_TOL:
            raise ValueError(f"correlation {q!r} outside [-1, 1]")
    return abs(q22 - q12) + abs(q21 + q11)
