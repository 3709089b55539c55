"""Stochastic model of the heralded atom-photon entanglement pipeline.

One experimental trial is: a weak excitation attempt that succeeds with a
small probability, a photon arriving at a random time inside the
excitation window, a waveplate rotation of the photonic qubit followed by
a polarizing beam splitter routing to one of two photomultiplier tubes,
then a microwave pulse sequence on the atomic qubit and a fluorescence
readout (bright/dark).  PMT inefficiency is modeled as silent event
rejection, matching the heralded, post-selected character of the scheme;
atomic readout errors are modeled as label flips.

Two microwave modes are supported.  ``two_pulse`` first transfers the
upper qubit state to an auxiliary level with a pi pulse and then rotates,
so only the phase difference between the two pulses matters.
``single_pulse`` rotates directly; its effective phase then depends on
the photon arrival time through the qubit precession at the microwave
frequency, which washes out the rotation azimuth when many arrival times
are averaged.

Both modes share one atom stage.  The readout needs only the bright
probability of each conditional atom state rho, and with u the first row
of the rotation at zero arrival time it is p_bright = A + Re(B e^{-ia}),
A = |u0|^2 rho00 + |u1|^2 rho11, B = 2 u1 conj(u0) rho10, where the
precession phase a is 2*pi*f*t in single-pulse mode and 0 in two-pulse
mode.  The per-event samplers evaluate it at each arrival time; the
closed form averages e^{-ia} over the excitation window.

All sampling goes through an explicitly passed ``numpy.random.Generator``
so identical seeds reproduce identical event streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import repeat
from typing import Iterator, NamedTuple

import numpy as np

from .states import (
    PHOTON,
    DensityMatrix,
    MeasurementSetting,
    TwoQubitState,
    bell_pair_ideal,
    rotate,
    rotation_matrix,
    werner,
)

SINGLE_PULSE = "single_pulse"
TWO_PULSE = "two_pulse"

BRIGHT = 0  # atom found in the fluorescing manifold, qubit |0>
DARK = 1  # atom shelved in the transferred state, qubit |1~>

_ATTEMPT_CHUNK = 1_000_000  # heralded attempts per iter_heralded_events batch, bounding its memory


@dataclass(frozen=True)
class SourceParams:
    """Entanglement source budget and emitted-state configuration.

    The default probabilities multiply to the per-attempt success
    probability 2.0e-4: collection and transmission of the emitted photon
    (~1%), photon detector quantum efficiency (~20%), and the excitation
    probability kept low (~10%) to suppress double excitations.
    ``werner_p`` < 1 makes the source emit a noisy mixed pair instead of
    the ideal pure one.
    """

    excitation_probability: float = 0.10
    collection_efficiency: float = 0.01
    detector_quantum_efficiency: float = 0.20
    excitation_window: float = 50e-9
    repetition_rate: float = 8.3e3
    werner_p: float = 1.0

    def __post_init__(self) -> None:
        for name in (
            "excitation_probability",
            "collection_efficiency",
            "detector_quantum_efficiency",
            "werner_p",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} = {value!r} outside [0, 1]")
        if self.excitation_window <= 0.0 or self.repetition_rate <= 0.0:
            raise ValueError("excitation window and repetition rate must be positive")

    @property
    def success_probability(self) -> float:
        return (
            self.excitation_probability
            * self.collection_efficiency
            * self.detector_quantum_efficiency
        )

    def emitted_state(self) -> TwoQubitState | DensityMatrix:
        if self.werner_p == 1.0:
            return bell_pair_ideal()
        return werner(self.werner_p)


@dataclass(frozen=True)
class PulseSequence:
    """Microwave pulse program applied to the atom after photon detection.

    In ``two_pulse`` mode the transfer pulse area is fixed to pi and the
    rotation uses only the phase difference rotation_phase -
    transfer_phase.  In ``single_pulse`` mode the effective rotation
    azimuth is rotation_phase + 2*pi * microwave_frequency * arrival_time,
    modeling the loss of an absolute phase reference.
    """

    mode: str
    rotation_theta: float
    rotation_phase: float = 0.0
    transfer_phase: float = 0.0
    microwave_frequency: float = 14.5e9

    def __post_init__(self) -> None:
        if self.mode not in (SINGLE_PULSE, TWO_PULSE):
            raise ValueError(f"unknown pulse mode {self.mode!r}")
        if self.microwave_frequency <= 0.0:
            raise ValueError("microwave frequency must be positive")

    @property
    def effective_setting(self) -> MeasurementSetting:
        """Rotation applied at zero arrival time (single-pulse precession adds 2*pi*f*t to phi)."""
        if self.mode == TWO_PULSE:
            return MeasurementSetting(
                self.rotation_theta, self.rotation_phase - self.transfer_phase
            )
        return self.nominal_setting

    @property
    def nominal_setting(self) -> MeasurementSetting:
        return MeasurementSetting(self.rotation_theta, self.rotation_phase)


@dataclass(frozen=True)
class DetectorParams:
    """PMT efficiencies, atomic readout error rates, and waveplate position.

    ``waveplate_angle`` = 0 sends |0p> to PMT 1; a 45-degree (pi/4)
    position reverses the PMT roles.  Only those two positions are
    meaningful here because the analysis-basis rotation itself is applied
    separately, via the photon's measurement setting.

    ``dark_event_probability`` is the per-attempt chance that a spurious
    PMT click falsely heralds a trial with no emitted photon: the click
    lands on either tube with equal probability and the atom, never
    excited, is read out from its ground state.
    """

    pmt_efficiency_1: float = 1.0
    pmt_efficiency_2: float = 1.0
    atom_bright_error: float = 0.0
    atom_dark_error: float = 0.0
    waveplate_angle: float = 0.0
    dark_event_probability: float = 0.0

    def __post_init__(self) -> None:
        for name in (
            "pmt_efficiency_1",
            "pmt_efficiency_2",
            "atom_bright_error",
            "atom_dark_error",
            "dark_event_probability",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} = {value!r} outside [0, 1]")

    @classmethod
    def experiment_like(cls) -> "DetectorParams":
        """Readout errors representative of >95% fluorescence discrimination."""
        return cls(atom_bright_error=0.025, atom_dark_error=0.025)

    @property
    def pmt_role_swapped(self) -> bool:
        # Nearest quarter-turn position decides the role mapping.
        return (self.waveplate_angle % (math.pi / 2)) > math.pi / 8

    def with_swapped_pmts(self) -> "DetectorParams":
        angle = math.pi / 4 if not self.pmt_role_swapped else 0.0
        return replace(self, waveplate_angle=angle)

    def pmt_efficiency(self, pmt_index: int) -> float:
        return self.pmt_efficiency_1 if pmt_index == 0 else self.pmt_efficiency_2


class EventRecord(NamedTuple):
    """One successful, recorded entanglement trial (immutable; copy with ``_replace``)."""

    attempt_index: int
    arrival_time: float
    setting_s: MeasurementSetting
    setting_p: MeasurementSetting
    photon_outcome: int  # index of the PMT that clicked
    atom_outcome: int  # BRIGHT (0) or DARK (1)
    pmt_role_swapped: bool


def _herald_probability(source: SourceParams, det: DetectorParams) -> tuple[float, float]:
    """Per-attempt herald probability and the share of heralds that are dark clicks."""
    p_true = source.success_probability
    p_dark = (1.0 - p_true) * det.dark_event_probability
    return p_true + p_dark, (p_dark / (p_true + p_dark) if p_dark > 0.0 else 0.0)


def _herald(n_attempts: int, p_herald: float, rng: np.random.Generator) -> np.ndarray:
    """Sorted indices of the heralded attempts among n_attempts, each heralded with p_herald.

    Exact in O(heralds): the herald count is Binomial(n_attempts, p_herald)
    and, given the count, the heralded attempts are a uniform random subset.
    """
    count = rng.binomial(n_attempts, p_herald)
    if count == 0:
        return np.empty(0, dtype=np.int64)
    return np.sort(rng.choice(n_attempts, count, replace=False, shuffle=False))


def _photon_stage(
    source: SourceParams, photon_setting: MeasurementSetting
) -> tuple[np.ndarray, np.ndarray]:
    """Photon marginal of the emitted pair and the atom density matrices it leaves.

    Stacked as (given outcome 0, given outcome 1, ground); the ground state
    stands in for an outcome that never occurs and follows a dark click.
    """
    state = rotate(source.emitted_state(), PHOTON, photon_setting)
    if isinstance(state, TwoQubitState):
        rho = np.outer(state.amplitudes, state.amplitudes.conj())
    else:
        rho = state.matrix
    blocks = np.einsum("spap->psa", rho.reshape(2, 2, 2, 2))  # [p, s, s']
    probs = np.clip(np.real(np.einsum("pss->p", blocks)), 0.0, 1.0)
    ground = np.diag([1.0, 0.0]).astype(complex)
    atoms = [block / p if p > 0.0 else ground for block, p in zip(blocks, probs)]
    return probs, np.stack([*atoms, ground])


def _readout_coefficients(
    atoms: np.ndarray, pulse: PulseSequence
) -> tuple[np.ndarray, np.ndarray]:
    """(A, B) of p_bright = A + Re(B e^{-ia}) for a stack of atom density matrices."""
    u0, u1 = rotation_matrix(pulse.effective_setting)[0]
    a = abs(u0) ** 2 * atoms[:, 0, 0].real + abs(u1) ** 2 * atoms[:, 1, 1].real
    return a, 2.0 * u1 * u0.conjugate() * atoms[:, 1, 0]


def _atom_stage(
    source: SourceParams, pulse: PulseSequence, photon_setting: MeasurementSetting
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Photon marginal and the (A, B) of the atom states it leaves, once per sampler call."""
    probs, atoms = _photon_stage(source, photon_setting)
    return (probs, *_readout_coefficients(atoms, pulse))


def _detect_photons(
    p_zero: float, dark: np.ndarray, det: DetectorParams, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """PBS/PMT stage of a batch: photon outcome, clicking tube and acceptance.

    A photon gives outcome 0 with probability ``p_zero``; a dark click
    lands on either tube with equal probability and is always recorded.
    """
    outcome = (rng.random(dark.size) >= np.where(dark, 0.5, p_zero)).astype(np.int64)
    pmt = outcome ^ int(det.pmt_role_swapped)
    efficiency = np.array([det.pmt_efficiency_1, det.pmt_efficiency_2])[pmt]
    accepted = rng.random(dark.size) < np.where(dark, 1.0, efficiency)
    return outcome, pmt, accepted


def _read_out(p_bright: np.ndarray, det: DetectorParams, rng: np.random.Generator) -> np.ndarray:
    """Fluorescence readout of a batch of bright probabilities, with label flips."""
    outcome = (rng.random(p_bright.size) >= p_bright).astype(np.int64)
    flip_probability = np.where(outcome == BRIGHT, det.atom_bright_error, det.atom_dark_error)
    return outcome ^ (rng.random(p_bright.size) < flip_probability)


def _heralded_chain(
    index: np.ndarray,
    stage: tuple[np.ndarray, np.ndarray, np.ndarray],
    source: SourceParams,
    pulse: PulseSequence,
    photon_setting: MeasurementSetting,
    det: DetectorParams,
    rng: np.random.Generator,
    limit: int | None = None,
) -> list[EventRecord]:
    """Recorded events of a batch of heralded attempts, at most ``limit`` of them.

    ``stage`` is the sampler call's ``_atom_stage``.
    """
    probs, a, b = stage
    dark = rng.random(index.size) < _herald_probability(source, det)[1]
    outcome, pmt, accepted = _detect_photons(probs[0], dark, det, rng)
    which = np.where(dark, 2, outcome)[accepted][:limit]
    index, pmt = index[accepted][:limit], pmt[accepted][:limit]
    arrival = rng.uniform(0.0, source.excitation_window, index.size)
    if pulse.mode == TWO_PULSE:
        p_bright = (a + b.real)[which]
    else:
        precession = np.exp(-2j * math.pi * pulse.microwave_frequency * arrival)
        p_bright = a[which] + (b[which] * precession).real
    atom_outcome = _read_out(p_bright, det, rng)
    columns = (
        index.tolist(),
        arrival.tolist(),
        repeat(pulse.nominal_setting),
        repeat(photon_setting),
        pmt.tolist(),
        atom_outcome.tolist(),
        repeat(det.pmt_role_swapped),
    )
    # EventRecord._make checks each record's width; the zip fixes it once per batch.
    if len(columns) != len(EventRecord._fields):
        raise TypeError(f"expected {len(EventRecord._fields)} columns, got {len(columns)}")
    return list(map(tuple.__new__, repeat(EventRecord), zip(*columns)))


def simulate_attempts(
    n_attempts: int,
    source: SourceParams,
    pulse: PulseSequence,
    photon_setting: MeasurementSetting,
    det: DetectorParams,
    rng: np.random.Generator,
) -> list[EventRecord]:
    """Run a block of attempts, returning only the recorded events.

    The heralded attempts, dark clicks included, are drawn exactly in
    O(heralds), not O(n_attempts), then run through the batched event chain.
    """
    index = _herald(max(n_attempts, 0), _herald_probability(source, det)[0], rng)
    if index.size == 0:
        return []
    return _heralded_chain(
        index, _atom_stage(source, pulse, photon_setting), source, pulse, photon_setting, det, rng
    )


def recorded_outcome_distribution(
    source: SourceParams,
    pulse: PulseSequence,
    photon_setting: MeasurementSetting,
    det: DetectorParams,
) -> tuple[np.ndarray, float]:
    """Distribution of recorded (atom, PMT) outcomes for a fixed setting.

    In single-pulse mode the precession factor e^{-ia} is averaged over a
    uniform arrival time in the excitation window: its mean is conj(chi),
    chi = sinc(fT) e^{i pi fT}, which stays exact as fT -> 0.  Dark
    events, when configured, enter with their per-attempt weight against
    truly heralded events.  Returns (probabilities ordered (atom, pmt) =
    00, 01, 10, 11, acceptance) where acceptance is the probability that a
    heralded photon click survives PMT efficiency.
    """
    probs, a, b = _atom_stage(source, pulse, photon_setting)
    if pulse.mode == TWO_PULSE:
        p_bright = a + b.real
    else:
        ft = pulse.microwave_frequency * source.excitation_window
        p_bright = a + (b * np.sinc(ft) * np.exp(-1j * math.pi * ft)).real
    p_bright = np.clip(p_bright, 0.0, 1.0)
    atom = np.array([p_bright, 1.0 - p_bright])  # [atom, (outcome 0, outcome 1, ground)]
    flip = np.array(
        [
            [1.0 - det.atom_bright_error, det.atom_dark_error],
            [det.atom_bright_error, 1.0 - det.atom_dark_error],
        ]
    )
    joint = flip @ (atom[:, :2] * probs)  # [recorded atom label, photon outcome]

    swapped = int(det.pmt_role_swapped)
    recorded = np.empty((2, 2))
    for pmt in range(2):
        recorded[:, pmt] = joint[:, pmt ^ swapped] * det.pmt_efficiency(pmt)
    acceptance = float(recorded.sum())

    p_true = source.success_probability
    total = p_true * recorded
    if det.dark_event_probability > 0.0:
        # atom never excited: ground state through the same pulse sequence
        dark_joint = np.outer(flip @ atom[:, 2], [0.5, 0.5])
        total = total + (1.0 - p_true) * det.dark_event_probability * dark_joint
    weight = float(total.sum())
    if weight <= 0.0:
        raise ValueError("no outcome is ever recorded with these detector settings")
    return total.reshape(-1) / weight, acceptance


def sample_outcome_counts(
    n_events: int,
    source: SourceParams,
    pulse: PulseSequence,
    photon_setting: MeasurementSetting,
    det: DetectorParams,
    rng: np.random.Generator,
) -> np.ndarray:
    """Counts of recorded (atom, PMT) outcomes over n_events recorded events.

    Exact conditional sampling given the number of recorded events;
    statistically identical to tallying the events of ``simulate_attempts``,
    but O(1) instead of O(heralds).
    """
    probabilities, _ = recorded_outcome_distribution(source, pulse, photon_setting, det)
    return rng.multinomial(n_events, probabilities)


def iter_heralded_events(
    n_events: int,
    source: SourceParams,
    pulse: PulseSequence,
    photon_setting: MeasurementSetting,
    det: DetectorParams,
    rng: np.random.Generator,
) -> Iterator[EventRecord]:
    """Yield exactly n_events recorded events, skipping the attempt gate.

    Conditioning on success leaves the per-event physics unchanged, so
    this runs the same chain as ``simulate_attempts`` minus the herald draw.
    Rejected photon detections still cost a retry, as in the hardware,
    and configured dark events enter with their per-attempt weight.
    Attempts are drawn in batches sized from the exact acceptance.
    """
    _, dark_share = _herald_probability(source, det)
    stage = _atom_stage(source, pulse, photon_setting)
    probs = stage[0]
    swapped = int(det.pmt_role_swapped)
    photon_acceptance = sum(probs[o] * det.pmt_efficiency(o ^ swapped) for o in range(2))
    acceptance = dark_share + (1.0 - dark_share) * photon_acceptance
    if acceptance <= 0.0:
        raise ValueError("no outcome is ever recorded with these detector settings")
    need = n_events
    offset = 0
    while need > 0:
        batch = math.ceil(min(_ATTEMPT_CHUNK, need / acceptance))
        events = _heralded_chain(
            offset + np.arange(batch), stage, source, pulse, photon_setting, det, rng, need
        )
        need -= len(events)
        offset += batch
        yield from events
