"""Measurement settings and the CHSH combination in plain floats; ``states`` re-exports them."""

from __future__ import annotations

import math
from typing import NamedTuple

TWO_PI = 2.0 * math.pi


# A NamedTuple class may not define __new__, so MeasurementSetting canonicalizes in a subclass.
class _Angles(NamedTuple):
    theta: float
    phi: float


class MeasurementSetting(_Angles):
    """A qubit rotation / analysis basis: polar angle theta, azimuth phi.

    The constructor canonicalizes the angles to theta in [0, pi] and
    phi in [0, 2*pi); the represented measurement axis is unchanged.
    Only the constructor does: ``_replace`` and ``_make`` skip it.
    """

    __slots__ = ()

    def __new__(cls, theta: float, phi: float = 0.0) -> MeasurementSetting:
        theta, phi = float(theta), float(phi)
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
        return super().__new__(cls, theta, phi)


class BellAngles(NamedTuple):
    """The four analysis settings (a1, a2; b1, b2) of a CHSH measurement."""

    a1: MeasurementSetting
    a2: MeasurementSetting
    b1: MeasurementSetting
    b2: MeasurementSetting

    @classmethod
    def canonical(cls) -> BellAngles:
        """The maximally violating settings (0, pi/2; pi/4, 3*pi/4)."""
        return cls.from_thetas(0.0, math.pi / 2, math.pi / 4, 3 * math.pi / 4)

    @classmethod
    def from_thetas(cls, a1: float, a2: float, b1: float, b2: float) -> BellAngles:
        return cls(*(MeasurementSetting(theta) for theta in (a1, a2, b1, b2)))


CORRELATION_RANGE_TOL = 1e-9


def bell_signal(q22: float, q12: float, q21: float, q11: float) -> float:
    """CHSH combination |q22 - q12| + |q21 + q11| of four correlations."""
    for q in (q22, q12, q21, q11):
        if abs(q) > 1.0 + CORRELATION_RANGE_TOL:
            raise ValueError(f"correlation {q!r} outside [-1, 1]")
    return abs(q22 - q12) + abs(q21 + q11)
