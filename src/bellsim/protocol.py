"""Stochastic model of the heralded atom-photon entanglement pipeline.

One experimental trial is: a weak excitation attempt that succeeds with a
small probability, a photon arriving at a random time inside the
excitation window, a waveplate rotation of the photonic qubit followed by
a polarizing beam splitter routing to one of two photomultiplier tubes,
then a microwave pulse sequence on the atomic qubit and a fluorescence
readout (bright/dark).  PMT inefficiency is modeled as silent event
rejection, matching the heralded, post-selected character of the scheme;
atomic readout errors are modeled as label flips.  The per-event samplers
draw the recorded events directly, with geometric gaps in heralded
attempts, so their cost does not grow as the acceptance falls.

Two microwave modes are supported.  ``two_pulse`` first transfers the
upper qubit state to an auxiliary level with a pi pulse and then rotates,
so only the phase difference between the two pulses matters.
``single_pulse`` rotates directly; its effective phase then depends on
the photon arrival time through the qubit precession at the microwave
frequency, which washes out the rotation azimuth when many arrival times
are averaged.

Both modes share one atom stage.  The readout needs only the bright
probability of each conditional atom state rho, and with u the first row
of the rotation at zero arrival time it is p_bright = A + Re(B w),
A = |u0|^2 rho00 + |u1|^2 rho11, B = 2 u1 conj(u0) rho10.  The pulse mode
chooses only w = e^{-ia}: the precession phase a is 2*pi*f*t in
single-pulse mode and 0 in two-pulse mode, so w = 1 there.  The per-event
samplers evaluate w at each arrival time; the closed form takes its mean
over the excitation window.

All sampling goes through an explicitly passed ``numpy.random.Generator``
so identical seeds reproduce identical event streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import repeat
from typing import Iterator, NamedTuple

import numpy as np

from .states import MeasurementSetting, rotation_matrix, werner_matrix

SINGLE_PULSE = "single_pulse"
TWO_PULSE = "two_pulse"

BRIGHT = 0  # atom found in the fluorescing manifold, qubit |0>
DARK = 1  # atom shelved in the transferred state, qubit |1~>


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


class EventRecord(NamedTuple):
    """One successful, recorded entanglement trial (immutable; copy with ``_replace``)."""

    attempt_index: int
    arrival_time: float
    setting_s: MeasurementSetting
    setting_p: MeasurementSetting
    photon_outcome: int  # index of the PMT that clicked
    atom_outcome: int  # BRIGHT (0) or DARK (1)
    pmt_role_swapped: bool


def _recorded_weights(
    source: SourceParams, det: DetectorParams
) -> tuple[float, tuple[float, float], float]:
    """p_true, the efficiencies by PMT and p_dark, all times one power of two.

    The power of two is exact, so it keeps every bit of a normalised
    result, and brings the larger nonzero weight of a recorded herald near
    1: a subnormal efficiency or dark rate then records instead of
    underflowing.  Raises ``ValueError`` when no outcome is ever recorded.
    """
    efficiencies = (det.pmt_efficiency_1, det.pmt_efficiency_2)
    p_true = source.success_probability
    # p_dark = (1 - p_true) * dark rate: the mantissas multiply apart from
    # the exponents, so a subnormal dark rate keeps every bit.
    m_rest, e_rest = math.frexp(1.0 - p_true)
    m_rate, e_rate = math.frexp(det.dark_event_probability)
    m_dark, e_dark = m_rest * m_rate, e_rest + e_rate
    m_true, e_true = math.frexp(p_true)
    m_eff, e_eff = math.frexp(max(efficiencies))
    m_true, e_true = (m_true if m_eff > 0.0 else 0.0), e_true + e_eff
    live = [e for m, e in ((m_true, e_true), (m_dark, e_dark)) if m > 0.0]
    if not live:
        raise ValueError("no outcome is ever recorded with these detector settings")
    top = max(live)
    scaled = tuple(math.ldexp(x, -e_eff) for x in efficiencies)
    return math.ldexp(m_true, e_true - top), scaled, math.ldexp(m_dark, e_dark - top)


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

    The emitted pair p |Phi><Phi| + (1 - p) I/4 is a plain array, valid by
    construction for p in [0, 1], and only its photon index is rotated, so
    no sampler call builds or validates a state.  Stacked as (given outcome
    0, given outcome 1, ground); the ground state stands in for an outcome
    that never occurs and follows a dark click.
    """
    u = rotation_matrix(photon_setting)
    rho = werner_matrix(source.werner_p).reshape(2, 2, 2, 2)  # [s, p, s', p']
    blocks = np.einsum("pq,sqtr,pr->pst", u, rho, u.conj())  # [p, s, s'] of the rotated pair
    probs = np.clip(np.real(np.einsum("pss->p", blocks)), 0.0, 1.0)
    ground = np.diag([1.0, 0.0]).astype(complex)
    atoms = [block / p if p > 0.0 else ground for block, p in zip(blocks, probs)]
    return probs, np.stack([*atoms, ground])


def _readout_coefficients(
    atoms: np.ndarray, pulse: PulseSequence
) -> tuple[np.ndarray, np.ndarray]:
    """(A, B) of p_bright = A + Re(B w) for a stack of atom density matrices."""
    u0, u1 = rotation_matrix(pulse.effective_setting)[0]
    a = abs(u0) ** 2 * atoms[:, 0, 0].real + abs(u1) ** 2 * atoms[:, 1, 1].real
    return a, 2.0 * u1 * u0.conjugate() * atoms[:, 1, 0]


def _atom_stage(
    source: SourceParams, pulse: PulseSequence, photon_setting: MeasurementSetting
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Photon marginal and the (A, B) of the atom states it leaves, once per sampler call."""
    probs, atoms = _photon_stage(source, photon_setting)
    return (probs, *_readout_coefficients(atoms, pulse))


def _branch_weights(
    source: SourceParams, det: DetectorParams, probs: np.ndarray
) -> tuple[float, float, tuple[float, float, float]]:
    """Per-attempt herald probability, acceptance and per-herald weights of the recorded branches.

    The branches are photon outcome 0 and 1, each through its PMT's
    efficiency, and a dark click; ``probs`` is the photon marginal.  The
    weights sum to the acceptance, capped at 1 as the marginal can round above.
    """
    p_true = source.success_probability
    p_dark = (1.0 - p_true) * det.dark_event_probability
    dark_share = p_dark / (p_true + p_dark) if p_dark > 0.0 else 0.0
    efficiencies = (det.pmt_efficiency_1, det.pmt_efficiency_2)
    swapped = int(det.pmt_role_swapped)
    photon = [(1.0 - dark_share) * float(probs[o]) * efficiencies[o ^ swapped] for o in (0, 1)]
    weights = (*photon, dark_share)
    return p_true + p_dark, min(sum(weights), 1.0), weights


def _read_out(p_bright: np.ndarray, det: DetectorParams, rng: np.random.Generator) -> np.ndarray:
    """Fluorescence readout of a batch of bright probabilities, with label flips."""
    outcome = (rng.random(p_bright.size) >= p_bright).astype(np.int64)
    flip_probability = np.where(outcome == BRIGHT, det.atom_bright_error, det.atom_dark_error)
    return outcome ^ (rng.random(p_bright.size) < flip_probability)


def _recorded_chain(
    index: np.ndarray,
    weights: tuple[float, float, float],
    stage: tuple[np.ndarray, np.ndarray, np.ndarray],
    source: SourceParams,
    pulse: PulseSequence,
    photon_setting: MeasurementSetting,
    det: DetectorParams,
    rng: np.random.Generator,
) -> list[EventRecord]:
    """One recorded event per attempt index, from the sampler call's ``_atom_stage``.

    Each event draws its branch from ``_branch_weights`` (a dark click is
    split evenly over the two tubes), then its arrival time and readout.
    """
    _, a, b = stage
    photon_0, photon_1, dark = weights
    cdf = np.cumsum([photon_0, photon_1, dark / 2, dark / 2])
    # branch 0 or 1: that photon outcome; 2 or 3: a dark click on the tube of outcome 0 or 1
    branch = np.searchsorted(cdf / cdf[-1], rng.random(index.size), side="right")
    which = np.minimum(branch, 2)  # atom stage row: given outcome 0, given outcome 1, ground
    pmt = (branch & 1) ^ int(det.pmt_role_swapped)
    arrival = rng.uniform(0.0, source.excitation_window, index.size)
    precession = -2j * math.pi * pulse.microwave_frequency
    w = 1.0 if pulse.mode == TWO_PULSE else np.exp(precession * arrival)
    atom_outcome = _read_out(a[which] + (b[which] * w).real, det, rng)
    columns = (
        index.tolist(),
        arrival.tolist(),
        repeat(pulse.nominal_setting),
        repeat(photon_setting),
        pmt.tolist(),
        atom_outcome.tolist(),
        repeat(det.pmt_role_swapped),
    )
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

    Each attempt records independently with the herald probability (dark
    clicks included) times the acceptance, so the recorded attempts are
    drawn exactly in O(events), not O(n_attempts), then run through the chain.
    """
    stage = _atom_stage(source, pulse, photon_setting)
    p_herald, acceptance, weights = _branch_weights(source, det, stage[0])
    index = _herald(max(n_attempts, 0), p_herald * acceptance, rng)
    if index.size == 0:
        return []
    return _recorded_chain(index, weights, stage, source, pulse, photon_setting, det, rng)


def recorded_outcome_distribution(
    source: SourceParams,
    pulse: PulseSequence,
    photon_setting: MeasurementSetting,
    det: DetectorParams,
) -> np.ndarray:
    """Distribution of recorded (atom, PMT) outcomes for a fixed setting.

    In single-pulse mode the precession factor w = e^{-ia} is averaged over
    a uniform arrival time in the excitation window: its mean is conj(chi),
    chi = sinc(fT) e^{i pi fT}, which stays exact as fT -> 0.  Dark events,
    when configured, enter with their per-attempt weight against truly
    heralded events.  Returns the probabilities ordered (atom, pmt) = 00,
    01, 10, 11, so ``rng.multinomial(n, ...)`` draws the tally of n recorded
    events; raises ``ValueError`` when no outcome is ever recorded.
    """
    probs, a, b = _atom_stage(source, pulse, photon_setting)
    ft = pulse.microwave_frequency * source.excitation_window
    w = 1.0 if pulse.mode == TWO_PULSE else np.sinc(ft) * np.exp(-1j * math.pi * ft)
    p_bright = np.clip(a + (b * w).real, 0.0, 1.0)
    atom = np.array([p_bright, 1.0 - p_bright])  # [atom, (outcome 0, outcome 1, ground)]
    flip = np.array(
        [
            [1.0 - det.atom_bright_error, det.atom_dark_error],
            [det.atom_bright_error, 1.0 - det.atom_dark_error],
        ]
    )
    joint = flip @ (atom[:, :2] * probs)  # [recorded atom label, photon outcome]

    swapped = int(det.pmt_role_swapped)
    # [recorded atom label, PMT]: a C-ordered copy, because numpy sums in
    # memory order and the pinned reports fix how the weight below rounds
    joint = np.ascontiguousarray(joint[:, [swapped, 1 - swapped]])
    p_true, efficiencies, p_dark = _recorded_weights(source, det)
    # a dark click leaves the atom never excited: ground state through the same pulse sequence
    total = p_true * (joint * efficiencies) + p_dark * np.outer(flip @ atom[:, 2], [0.5, 0.5])
    return total.reshape(-1) / float(total.sum())


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
    Each heralded attempt records with the acceptance, so the heralded
    attempts between recorded events are geometric gaps: rejected photon
    detections still cost attempts, as in the hardware, and configured dark
    events enter with their per-attempt weight.

    Both errors are ``ValueError``, raised before any event is yielded: "no
    outcome is ever recorded" exactly when ``recorded_outcome_distribution``
    raises it, and one that names the acceptance when the events take more
    than 2**63 - 1 heralded attempts, the range of an attempt index (before
    any draw when n_events / acceptance alone exceeds it).
    """
    _recorded_weights(source, det)  # raises as the closed form does
    if n_events <= 0:
        return
    stage = _atom_stage(source, pulse, photon_setting)
    acceptance, weights = _branch_weights(source, det, stage[0])[1:]
    past_range = ValueError(
        f"recording {n_events} events at acceptance {acceptance!r} takes more than"
        " 2**63 - 1 heralded attempts"
    )
    if n_events > acceptance * (2**63 - 1):
        raise past_range
    # numpy clips a gap at 2**63 - 1, and an int64 cumsum past that wraps
    # silently; in uint64 the first sum past it cannot wrap, so max() sees it
    attempts = np.cumsum(rng.geometric(acceptance, n_events), dtype=np.uint64)
    if attempts.max() >= 2**63 - 1:
        raise past_range
    yield from _recorded_chain(
        attempts - 1, weights, stage, source, pulse, photon_setting, det, rng
    )
