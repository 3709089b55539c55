"""Orchestration of the four-setting CHSH correlation measurements.

Reproduces the published experimental layout: two complete inequality
measurements, one rotating the ion by (0, pi/2) against photon settings
(pi/4, 3*pi/4), and one rotating the photon by (0, pi/2) against ion
settings (pi/4, 3*pi/4).  Every correlation combines two sub-runs with
the PMT roles reversed by the waveplate, weighting the two runs equally
so that detector-efficiency asymmetry cancels to first order.

Correlation uncertainties use the multinomial closed form
sigma_q = sqrt((1 - q^2)/N).
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from .protocol import (
    TWO_PULSE,
    DetectorParams,
    PulseSequence,
    SourceParams,
    recorded_outcome_distribution,
)
from .states import MeasurementSetting, bell_signal


# Role-A and role-B analysis angles of both inequality measurements (azimuth zero).
_ROLE_A_THETAS = (0.0, math.pi / 2)
_ROLE_B_THETAS = (math.pi / 4, 3 * math.pi / 4)


def _role_order_settings(experiment: int) -> list[tuple[float, float]]:
    """(theta_ion, theta_photon) pairs ordered (q11, q12, q21, q22).

    Experiment 1 gives the ion the role-A angles (0, pi/2) and the photon
    the role-B angles (pi/4, 3*pi/4); experiment 2 reverses the roles.
    """
    pairs = [(a, b) for a in _ROLE_A_THETAS for b in _ROLE_B_THETAS]
    if experiment == 1:
        return pairs
    if experiment == 2:
        return [(b, a) for a, b in pairs]  # role A is the photon
    raise ValueError(f"experiment index {experiment!r} must be 1 or 2")


def experiment_settings(experiment: int) -> list[tuple[float, float]]:
    """(theta_ion, theta_photon) pairs in published table order."""
    return sorted(_role_order_settings(experiment))


def estimate_correlation(counts: np.ndarray) -> tuple[float, float]:
    """Correlation (n00 + n11 - n01 - n10)/N and its multinomial sigma.

    ``counts`` holds n[atom][photon] ordered 00, 01, 10, 11, as a
    multinomial draw from ``recorded_outcome_distribution`` returns them.
    """
    n00, n01, n10, n11 = (int(c) for c in np.ravel(counts))
    if min(n00, n01, n10, n11) < 0:
        raise ValueError("tally counts must be non-negative")
    total = n00 + n01 + n10 + n11
    if total < 1:
        raise ValueError("cannot estimate a correlation from an empty tally")
    q = (n00 + n11 - n01 - n10) / total
    sigma = math.sqrt(max(0.0, 1.0 - q * q) / total)
    return q, sigma


def combine_swapped_runs(
    counts_normal: np.ndarray, counts_swapped: np.ndarray
) -> tuple[float, float]:
    """Equal-weight combination of the two PMT-role sub-runs.

    The swapped run's photon outcomes are PMT indices with reversed
    roles, so they are relabeled back to polarization outcomes before
    estimating.  Each run is weighted equally regardless of its count, so
    PMT-efficiency asymmetry cancels to first order.
    """
    q1, sigma1 = estimate_correlation(counts_normal)
    q2, sigma2 = estimate_correlation(np.reshape(counts_swapped, (2, 2))[:, ::-1])
    q = 0.5 * (q1 + q2)
    sigma = 0.5 * math.sqrt(sigma1 * sigma1 + sigma2 * sigma2)
    return q, sigma


# Published correlations of the two reference experiments, used by the
# --table1-fixture recomputation path; keys are (theta_ion, theta_photon).
REFERENCE_CORRELATIONS_1: dict[tuple[float, float], float] = {
    (0.0, math.pi / 4): 0.558,
    (0.0, 3 * math.pi / 4): -0.519,
    (math.pi / 2, math.pi / 4): 0.513,
    (math.pi / 2, 3 * math.pi / 4): 0.613,
}
REFERENCE_CORRELATIONS_2: dict[tuple[float, float], float] = {
    (math.pi / 4, 0.0): 0.636,
    (math.pi / 4, math.pi / 2): 0.461,
    (3 * math.pi / 4, 0.0): -0.516,
    (3 * math.pi / 4, math.pi / 2): 0.605,
}
REFERENCE_SIGMA_Q = 0.014  # back-solved from the published +/- 0.028


def reference_bell_results() -> tuple[dict[str, Any], dict[str, Any]]:
    """Both ``chsh`` report blocks, recomputed from the published reference correlations."""
    first, second = (
        _assemble_result(experiment, {key: (q, REFERENCE_SIGMA_Q) for key, q in table.items()}, 0)
        for experiment, table in ((1, REFERENCE_CORRELATIONS_1), (2, REFERENCE_CORRELATIONS_2))
    )
    return first, second


def _assemble_result(
    experiment: int,
    by_setting: dict[tuple[float, float], tuple[float, float]],
    events_per_setting: int,
) -> dict[str, Any]:
    """The ``chsh`` report block of one experiment, from per-setting (q, sigma) estimates.

    ``by_setting`` is keyed (theta_ion, theta_photon) in radians; the block
    lists the correlations in table order with angles in units of pi.
    ``qij`` is the correlation at role-A setting i and role-B setting j;
    sigma_B adds the four sigma_q in quadrature.
    """
    q11, q12, q21, q22 = (by_setting[key] for key in _role_order_settings(experiment))
    return {
        "experiment": experiment,
        "correlations": [
            {
                "theta_ion_pi": ts / math.pi,
                "theta_photon_pi": tp / math.pi,
                "correlation": by_setting[(ts, tp)][0],
                "sigma": by_setting[(ts, tp)][1],
                "events": events_per_setting,
            }
            for ts, tp in experiment_settings(experiment)
        ],
        "bell_value": bell_signal(q22[0], q12[0], q21[0], q11[0]),
        "bell_sigma": math.sqrt(sum(s * s for _, s in (q11, q12, q21, q22))),
        "events_used": 4 * events_per_setting,
    }


def _measure_setting(
    theta_ion: float,
    theta_photon: float,
    events: int,
    source: SourceParams,
    det: DetectorParams,
    seed_sequence: np.random.SeedSequence,
) -> tuple[float, float]:
    """Both PMT-role sub-runs for one setting, combined."""
    pulse = PulseSequence(mode=TWO_PULSE, rotation_theta=theta_ion)
    photon_setting = MeasurementSetting(theta_photon)
    sizes = (events // 2, events - events // 2)
    detectors = (det, det.with_swapped_pmts())
    counts = [
        np.random.default_rng(seed).multinomial(
            n, recorded_outcome_distribution(source, pulse, photon_setting, sub_det)
        )
        for n, sub_det, seed in zip(sizes, detectors, seed_sequence.spawn(2))
    ]
    return combine_swapped_runs(*counts)


def run_experiment(
    events_per_setting: int,
    source: SourceParams,
    det: DetectorParams,
    seed: int,
) -> tuple[dict[str, Any], dict[str, Any]]:
    """Run both complete inequality measurements and return their ``chsh`` report blocks.

    Every (experiment, setting) pair owns independent seeded streams
    spawned in a fixed order (experiment 1 in table order, then
    experiment 2), so results do not depend on the execution schedule.
    """
    if events_per_setting < 2:
        raise ValueError("need at least 2 events per setting (two sub-runs)")
    if det.pmt_role_swapped:
        raise ValueError("pass the normal-role detector config; sub-runs swap internally")
    tasks = [(e, setting) for e in (1, 2) for setting in experiment_settings(e)]
    streams = np.random.SeedSequence(seed).spawn(len(tasks))
    by_setting: dict[int, dict[tuple[float, float], tuple[float, float]]] = {1: {}, 2: {}}
    for (experiment, setting), stream in zip(tasks, streams):
        by_setting[experiment][setting] = _measure_setting(
            *setting, events_per_setting, source, det, stream
        )
    return (
        _assemble_result(1, by_setting[1], events_per_setting),
        _assemble_result(2, by_setting[2], events_per_setting),
    )
