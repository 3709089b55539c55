"""Loophole arithmetic in plain floats, no numpy: light-cone separation for the
locality loophole, detection budgets for the fair-sample question, and fiber
survival of the photons en route to a midpoint analyzer.
"""

from __future__ import annotations

from typing import Iterable

SPEED_OF_LIGHT = 299_792_458.0  # m/s


def light_cone_separation(measurement_time: float) -> float:
    """Separation needed to keep a measurement of this duration outside the light cone."""
    if measurement_time < 0:
        raise ValueError("measurement time must be non-negative")
    return SPEED_OF_LIGHT * measurement_time


def detection_efficiency(efficiencies: Iterable[float]) -> float:
    """Overall detection efficiency: the product of the stage efficiencies."""
    overall = 1.0
    for value in efficiencies:
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"stage efficiency {value!r} outside [0, 1]")
        overall *= value
    return overall


def photon_survival(
    fiber_length: float, attenuation_db_per_km: float, coupling_efficiency: float
) -> float:
    """Probability a photon survives a fiber (length in meters) and its coupling."""
    if fiber_length < 0 or attenuation_db_per_km < 0:
        raise ValueError("fiber length and attenuation must be non-negative")
    if not 0.0 <= coupling_efficiency <= 1.0:
        raise ValueError("coupling efficiency must be in [0, 1]")
    length_km = fiber_length / 1000.0
    return coupling_efficiency * 10.0 ** (-attenuation_db_per_km * length_km / 10.0)
