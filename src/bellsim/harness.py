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
from dataclasses import dataclass, field, replace

import numpy as np

from .protocol import (
    TWO_PULSE,
    DetectorParams,
    PulseSequence,
    SourceParams,
    sample_outcome_counts,
)
from .states import BellAngles, MeasurementSetting, bell_signal


@dataclass(frozen=True)
class SettingsPlan:
    """Angle grid of the two inequality measurements and the event budget.

    Experiment 1 assigns the ion the role-A angles (0, pi/2) and the
    photon the role-B angles (pi/4, 3*pi/4); experiment 2 reverses the
    roles with photon angles (0, pi/2) and ion angles (pi/4, 3*pi/4).
    All azimuths are zero.
    """

    events_per_setting: int = 2000

    ion_angles_1: tuple[float, float] = (0.0, math.pi / 2)
    photon_angles_1: tuple[float, float] = (math.pi / 4, 3 * math.pi / 4)
    photon_angles_2: tuple[float, float] = (0.0, math.pi / 2)
    ion_angles_2: tuple[float, float] = (math.pi / 4, 3 * math.pi / 4)

    def __post_init__(self) -> None:
        if self.events_per_setting < 2:
            raise ValueError("need at least 2 events per setting (two sub-runs)")

    def experiment_settings(self, experiment: int) -> list[tuple[float, float]]:
        """(theta_ion, theta_photon) pairs in published table order."""
        if experiment == 1:
            return [(ts, tp) for ts in self.ion_angles_1 for tp in self.photon_angles_1]
        if experiment == 2:
            return [(ts, tp) for ts in self.ion_angles_2 for tp in self.photon_angles_2]
        raise ValueError(f"experiment index {experiment!r} must be 1 or 2")

    def bell_angles(self, experiment: int) -> BellAngles:
        if experiment == 1:
            return BellAngles.from_thetas(*self.ion_angles_1, *self.photon_angles_1)
        if experiment == 2:
            return BellAngles.from_thetas(*self.photon_angles_2, *self.ion_angles_2)
        raise ValueError(f"experiment index {experiment!r} must be 1 or 2")

    def role_order_settings(self, experiment: int) -> list[tuple[float, float]]:
        """(theta_ion, theta_photon) pairs ordered (q11, q12, q21, q22)."""
        angles = self.bell_angles(experiment)
        keys = []
        for a in (angles.a1, angles.a2):
            for b in (angles.b1, angles.b2):
                if experiment == 1:
                    keys.append((a.theta, b.theta))
                else:
                    keys.append((b.theta, a.theta))
        return keys


@dataclass(frozen=True)
class CorrelationTally:
    """Outcome counts n[atom][photon] for one sub-run of a single setting."""

    n00: int
    n01: int
    n10: int
    n11: int
    pmt_role_swapped: bool = False

    def __post_init__(self) -> None:
        if min(self.n00, self.n01, self.n10, self.n11) < 0:
            raise ValueError("tally counts must be non-negative")

    @property
    def total(self) -> int:
        return self.n00 + self.n01 + self.n10 + self.n11

    @classmethod
    def from_counts(cls, counts: np.ndarray, pmt_role_swapped: bool = False) -> "CorrelationTally":
        n00, n01, n10, n11 = (int(c) for c in np.asarray(counts).reshape(-1))
        return cls(n00, n01, n10, n11, pmt_role_swapped)

    def with_photon_relabeled(self) -> "CorrelationTally":
        """Swap the photon outcome labels (PMT index -> polarization outcome)."""
        return CorrelationTally(
            self.n01, self.n00, self.n11, self.n10, not self.pmt_role_swapped
        )


@dataclass(frozen=True)
class SettingEstimate:
    """One measured correlation with its settings and uncertainty."""

    theta_ion: float
    theta_photon: float
    correlation: float
    sigma: float
    events: int


@dataclass(frozen=True)
class BellResult:
    """One complete inequality measurement: four correlations and the signal."""

    correlations: tuple[SettingEstimate, ...]
    bell_value: float
    bell_sigma: float
    events_used: int
    angles: BellAngles = field(default_factory=BellAngles.canonical)

    def __post_init__(self) -> None:
        if self.bell_sigma < 0.0 or self.bell_value < 0.0:
            raise ValueError("Bell value and its uncertainty must be non-negative")


def estimate_correlation(tally: CorrelationTally) -> tuple[float, float]:
    """Correlation (n00 + n11 - n01 - n10)/N and its multinomial sigma."""
    total = tally.total
    if total < 1:
        raise ValueError("cannot estimate a correlation from an empty tally")
    q = (tally.n00 + tally.n11 - tally.n01 - tally.n10) / total
    sigma = math.sqrt(max(0.0, 1.0 - q * q) / total)
    return q, sigma


def combine_swapped_runs(
    tally_normal: CorrelationTally, tally_swapped: CorrelationTally
) -> tuple[float, float]:
    """Equal-weight combination of the two PMT-role sub-runs.

    The swapped run's photon outcomes are PMT indices with reversed
    roles, so they are relabeled back to polarization outcomes before
    estimating.  Each run is weighted equally regardless of its count, so
    PMT-efficiency asymmetry cancels to first order.
    """
    if tally_normal.total < 1 or tally_swapped.total < 1:
        raise ValueError("both sub-runs must contain events")
    q1, sigma1 = estimate_correlation(tally_normal)
    q2, sigma2 = estimate_correlation(tally_swapped.with_photon_relabeled())
    q = 0.5 * (q1 + q2)
    sigma = 0.5 * math.sqrt(sigma1 * sigma1 + sigma2 * sigma2)
    return q, sigma


def bell_from_correlations(
    q11: tuple[float, float],
    q12: tuple[float, float],
    q21: tuple[float, float],
    q22: tuple[float, float],
    angles: BellAngles,
) -> BellResult:
    """Assemble a BellResult from four (q, sigma) estimates.

    ``qij`` is the correlation at role-A setting i and role-B setting j;
    sigma_B adds the four sigma_q in quadrature.
    """
    estimates = (q11, q12, q21, q22)
    value = bell_signal(q22[0], q12[0], q21[0], q11[0])
    sigma = math.sqrt(sum(s * s for _, s in estimates))
    settings = (
        (angles.a1.theta, angles.b1.theta),
        (angles.a1.theta, angles.b2.theta),
        (angles.a2.theta, angles.b1.theta),
        (angles.a2.theta, angles.b2.theta),
    )
    correlations = tuple(
        SettingEstimate(ts, tp, q, s, 0)
        for (ts, tp), (q, s) in zip(settings, estimates)
    )
    return BellResult(
        correlations=correlations,
        bell_value=value,
        bell_sigma=sigma,
        events_used=0,
        angles=angles,
    )


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


def reference_bell_results() -> tuple[BellResult, BellResult]:
    """Recompute both reference Bell signals from the published correlations."""
    plan = SettingsPlan()
    results = []
    for experiment, table in ((1, REFERENCE_CORRELATIONS_1), (2, REFERENCE_CORRELATIONS_2)):
        estimates = {key: (q, REFERENCE_SIGMA_Q) for key, q in table.items()}
        results.append(_assemble_result(plan, experiment, estimates, events_used=0))
    return results[0], results[1]


def _assemble_result(
    plan: SettingsPlan,
    experiment: int,
    by_setting: dict[tuple[float, float], tuple[float, float]],
    events_used: int,
) -> BellResult:
    """Build a BellResult from per-setting estimates keyed (theta_ion, theta_photon)."""
    angles = plan.bell_angles(experiment)
    role_keys = plan.role_order_settings(experiment)
    q11, q12, q21, q22 = (by_setting[key] for key in role_keys)
    result = bell_from_correlations(q11, q12, q21, q22, angles=angles)
    per_setting = plan.events_per_setting if events_used else 0
    table = tuple(
        SettingEstimate(ts, tp, *by_setting[(ts, tp)], per_setting)
        for ts, tp in plan.experiment_settings(experiment)
    )
    return replace(result, correlations=table, events_used=events_used)


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
    n_normal = events // 2
    n_swapped = events - n_normal
    rng_normal, rng_swapped = (np.random.default_rng(s) for s in seed_sequence.spawn(2))
    counts_normal = sample_outcome_counts(
        n_normal, source, pulse, photon_setting, det, rng_normal
    )
    counts_swapped = sample_outcome_counts(
        n_swapped, source, pulse, photon_setting, det.with_swapped_pmts(), rng_swapped
    )
    tally_normal = CorrelationTally.from_counts(counts_normal, pmt_role_swapped=False)
    tally_swapped = CorrelationTally.from_counts(counts_swapped, pmt_role_swapped=True)
    return combine_swapped_runs(tally_normal, tally_swapped)


def run_experiment(
    plan: SettingsPlan,
    source: SourceParams,
    det: DetectorParams,
    seed: int,
) -> tuple[BellResult, BellResult]:
    """Run both complete inequality measurements.

    Every (experiment, setting) pair owns independent seeded streams
    spawned in a fixed order, so results do not depend on the execution
    schedule.
    """
    if det.pmt_role_swapped:
        raise ValueError("pass the normal-role detector config; sub-runs swap internally")
    root = np.random.SeedSequence(seed)
    tasks = []
    for experiment in (1, 2):
        for theta_ion, theta_photon in plan.experiment_settings(experiment):
            tasks.append((experiment, theta_ion, theta_photon))
    streams = root.spawn(len(tasks))

    outcomes = []
    for (experiment, theta_ion, theta_photon), stream in zip(tasks, streams):
        estimate = _measure_setting(
            theta_ion, theta_photon, plan.events_per_setting, source, det, stream
        )
        outcomes.append((experiment, (theta_ion, theta_photon), estimate))

    results = []
    for experiment in (1, 2):
        by_setting = {
            setting: estimate for exp, setting, estimate in outcomes if exp == experiment
        }
        events = 4 * plan.events_per_setting
        results.append(_assemble_result(plan, experiment, by_setting, events_used=events))
    return results[0], results[1]
