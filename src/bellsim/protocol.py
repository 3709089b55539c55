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
    densify,
    outcome_probabilities,
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

    def effective_setting(self, arrival_time: float) -> MeasurementSetting:
        """Rotation actually applied, given the photon arrival time."""
        if self.mode == TWO_PULSE:
            return MeasurementSetting(
                self.rotation_theta, self.rotation_phase - self.transfer_phase
            )
        phase = self.rotation_phase + 2.0 * math.pi * self.microwave_frequency * arrival_time
        return MeasurementSetting(self.rotation_theta, phase)

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


def _atom_batch(atom_state: np.ndarray) -> np.ndarray:
    """One atom ket or density matrix as a batch of one."""
    state = np.asarray(atom_state, dtype=complex)
    if state.shape not in ((2,), (2, 2)):
        raise ValueError(f"atom state must be a 2-vector or 2x2 matrix, got shape {state.shape}")
    return state[None]


def _phase(states: np.ndarray, d: np.ndarray) -> np.ndarray:
    """D psi for kets (n, 2), D rho D^dagger for density matrices (n, 2, 2); D = diag(1, d)."""
    out = states.copy()
    if states.ndim == 2:
        out[:, 1] *= d
    else:
        out[:, 1, 0] *= d
        out[:, 0, 1] *= d.conj()
    return out


def _rotate_stack(states: np.ndarray, u: np.ndarray) -> np.ndarray:
    """U psi for kets (n, 2), U rho U^dagger for density matrices (n, 2, 2), as 2-D products."""
    if states.ndim == 2:
        return states @ u.T
    right = (states.reshape(-1, 2) @ u.conj().T).reshape(states.shape)  # rho U^dagger
    return (right.swapaxes(1, 2).reshape(-1, 2) @ u.T).reshape(states.shape).swapaxes(1, 2)


def _apply_pulses(states: np.ndarray, seq: PulseSequence, arrival_time: np.ndarray) -> np.ndarray:
    """Rotate a batch of atom kets (n, 2) or density matrices (n, 2, 2).

    Two-pulse mode applies one constant rotation U.  In single-pulse mode
    precession adds a = 2*pi*f*t to the rotation azimuth, and
    U(theta, phi + a) = D U(theta, phi) D^dagger with D = diag(1, e^{ia}):
    the states are phased by D^dagger, rotated by the same constant U and
    phased back by D.
    """
    u = rotation_matrix(seq.effective_setting(0.0))
    if seq.mode == TWO_PULSE:
        return _rotate_stack(states, u)
    d = np.exp(2j * math.pi * seq.microwave_frequency * arrival_time)
    return _phase(_rotate_stack(_phase(states, d.conj()), u), d)


def apply_pulse_sequence(
    atom_state: np.ndarray, seq: PulseSequence, arrival_time: float
) -> np.ndarray:
    """Apply the microwave sequence to a single-qubit atom state.

    Accepts a length-2 ket or a 2x2 density matrix and returns the same
    kind.  The transfer pulse relabels |1> -> |1~> in place; in two-pulse
    mode its phase is absorbed into the rotation so the map depends only
    on the pulse phase difference.
    """
    return _apply_pulses(_atom_batch(atom_state), seq, np.array([arrival_time]))[0]


def _photon_marginal_and_conditionals(
    state: TwoQubitState | DensityMatrix,
) -> tuple[np.ndarray, np.ndarray]:
    """Photon outcome probabilities and the atom states (kets or matrices) they leave.

    Stacked as (given outcome 0, given outcome 1, ground); the ground state
    stands in for an outcome that never occurs and follows a dark click.
    """
    if isinstance(state, TwoQubitState):
        blocks = state.amplitudes.reshape(2, 2).T  # [p, s]
        probs = np.sum(np.abs(blocks) ** 2, axis=1)
        norms = np.sqrt(probs)
        ground = np.array([1.0, 0.0], dtype=complex)
    else:
        rho = densify(state).matrix.reshape(2, 2, 2, 2)  # [s, p, s', p']
        blocks = np.einsum("spap->psa", rho)
        probs = np.clip(np.real(np.einsum("pss->p", blocks)), 0.0, 1.0)
        norms = probs
        ground = np.diag([1.0, 0.0]).astype(complex)
    atoms = [block / norm if norm > 0.0 else ground for block, norm in zip(blocks, norms)]
    return probs, np.stack([*atoms, ground])


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


def _read_out(states: np.ndarray, det: DetectorParams, rng: np.random.Generator) -> np.ndarray:
    """Fluorescence readout of a batch of kets or density matrices, with label flips."""
    p_bright = np.abs(states[:, 0]) ** 2 if states.ndim == 2 else np.real(states[:, 0, 0])
    outcome = (rng.random(len(states)) >= p_bright).astype(np.int64)
    flip_probability = np.where(outcome == BRIGHT, det.atom_bright_error, det.atom_dark_error)
    return outcome ^ (rng.random(len(states)) < flip_probability)


def measure_atom(
    atom_state: np.ndarray, det: DetectorParams, rng: np.random.Generator
) -> int:
    """Fluorescence readout: BRIGHT for |0>, DARK for |1~>, with label flips."""
    return int(_read_out(_atom_batch(atom_state), det, rng)[0])


def _photon_stage(
    source: SourceParams, photon_setting: MeasurementSetting
) -> tuple[np.ndarray, np.ndarray]:
    """Photon marginal and conditional atom states of the emitted pair in the photon basis."""
    return _photon_marginal_and_conditionals(rotate(source.emitted_state(), PHOTON, photon_setting))


def _heralded_chain(
    index: np.ndarray,
    photon: tuple[np.ndarray, np.ndarray],
    source: SourceParams,
    pulse: PulseSequence,
    photon_setting: MeasurementSetting,
    det: DetectorParams,
    rng: np.random.Generator,
    limit: int | None = None,
) -> list[EventRecord]:
    """Recorded events of a batch of heralded attempts, at most ``limit`` of them.

    ``photon`` is the sampler call's ``_photon_stage``.  Two-pulse mode,
    which ignores arrival time, rotates its three atom states once per batch.
    """
    probs, atom_states = photon
    dark = rng.random(index.size) < _herald_probability(source, det)[1]
    outcome, pmt, accepted = _detect_photons(probs[0], dark, det, rng)
    which = np.where(dark, 2, outcome)[accepted][:limit]
    index, pmt = index[accepted][:limit], pmt[accepted][:limit]
    arrival = rng.uniform(0.0, source.excitation_window, index.size)
    if pulse.mode == TWO_PULSE:
        atoms = _apply_pulses(atom_states, pulse, np.zeros(3))[which]
    else:
        atoms = _apply_pulses(atom_states[which], pulse, arrival)
    atom_outcome = _read_out(atoms, det, rng)
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
        index, _photon_stage(source, photon_setting), source, pulse, photon_setting, det, rng
    )


def recorded_outcome_distribution(
    source: SourceParams,
    pulse: PulseSequence,
    photon_setting: MeasurementSetting,
    det: DetectorParams,
) -> tuple[np.ndarray, float]:
    """Distribution of recorded (atom, PMT) outcomes for a fixed setting.

    Valid for the two-pulse sequence, whose rotation does not depend on
    the photon arrival time.  Dark events, when configured, enter with
    their per-attempt weight against truly heralded events.  Returns
    (probabilities ordered (atom, pmt) = 00, 01, 10, 11, acceptance)
    where acceptance is the probability that a heralded photon click
    survives PMT efficiency.
    """
    if pulse.mode != TWO_PULSE:
        raise ValueError("closed-form outcome distribution requires the two-pulse sequence")
    fractions = outcome_probabilities(
        source.emitted_state(), pulse.effective_setting(0.0), photon_setting
    ).as_array()
    joint = fractions.reshape(2, 2)  # [atom, photon outcome]

    flip = np.array(
        [
            [1.0 - det.atom_bright_error, det.atom_dark_error],
            [det.atom_bright_error, 1.0 - det.atom_dark_error],
        ]
    )
    joint = flip @ joint  # rows: recorded atom label

    swapped = int(det.pmt_role_swapped)
    recorded = np.empty((2, 2))
    for pmt in range(2):
        recorded[:, pmt] = joint[:, pmt ^ swapped] * det.pmt_efficiency(pmt)
    acceptance = float(recorded.sum())

    p_true = source.success_probability
    total = p_true * recorded
    if det.dark_event_probability > 0.0:
        # atom never excited: ground state through the same pulse sequence
        u = rotation_matrix(pulse.effective_setting(0.0))
        ground = np.array([abs(u[0, 0]) ** 2, abs(u[1, 0]) ** 2])
        dark_joint = np.outer(flip @ ground, [0.5, 0.5])
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
    photon = _photon_stage(source, photon_setting)
    probs = photon[0]
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
            offset + np.arange(batch), photon, source, pulse, photon_setting, det, rng, need
        )
        need -= len(events)
        offset += batch
        yield from events
