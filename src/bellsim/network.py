"""Loophole arithmetic and the remote ion-ion entanglement scheme.

Covers the quantitative side of a loophole-free test built from two
heralded atom-photon pairs: light-cone separation requirements for the
locality loophole, multiplicative detection budgets for the fair-sample
question, fiber survival of the photons en route to a midpoint analyzer,
a partial Bell-state analysis that heralds only the two odd-parity Bell
states (capping the success probability at 1/2), the entanglement swap
it induces on the two remote ions, and geometric waiting-time estimates
for repeater chains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .states import (
    BellAngles,
    DensityMatrix,
    MeasurementSetting,
    TwoQubitState,
    densify,
)

SPEED_OF_LIGHT = 299_792_458.0  # m/s

_LATENCY_TERMS = 65536  # most terms summed of the latency series
_LATENCY_CHUNK = 4096

PSI_PLUS = "psi_plus"
PSI_MINUS = "psi_minus"
BSA_FAIL = "fail"

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
# Two-qubit Bell kets in the computational basis (first qubit, second qubit).
BELL_KETS = {
    "phi_plus": np.array([_INV_SQRT2, 0.0, 0.0, _INV_SQRT2], dtype=complex),
    "phi_minus": np.array([_INV_SQRT2, 0.0, 0.0, -_INV_SQRT2], dtype=complex),
    PSI_PLUS: np.array([0.0, _INV_SQRT2, _INV_SQRT2, 0.0], dtype=complex),
    PSI_MINUS: np.array([0.0, _INV_SQRT2, -_INV_SQRT2, 0.0], dtype=complex),
}


@dataclass(frozen=True)
class GeometryConfig:
    """Distances and measurement durations entering the light-cone check."""

    atom_to_analysis_distance: float = 1.1
    atom_measurement_time: float = 125e-6
    rotation_time: float = 0.0
    speed_of_light: float = SPEED_OF_LIGHT

    def __post_init__(self) -> None:
        if min(self.atom_to_analysis_distance, self.atom_measurement_time, self.rotation_time) < 0:
            raise ValueError("distances and times must be non-negative")
        if self.speed_of_light <= 0:
            raise ValueError("speed of light must be positive")


@dataclass(frozen=True)
class LinkBudget:
    """One fiber link: length, attenuation, and end-to-end coupling."""

    fiber_length: float = 0.0  # meters
    attenuation_db_per_km: float = 0.2
    coupling_efficiency: float = 1.0

    def __post_init__(self) -> None:
        if self.fiber_length < 0 or self.attenuation_db_per_km < 0:
            raise ValueError("fiber length and attenuation must be non-negative")
        if not 0.0 <= self.coupling_efficiency <= 1.0:
            raise ValueError("coupling efficiency must be in [0, 1]")


@dataclass(frozen=True)
class SwapResult:
    """Outcome of one entanglement-swap attempt."""

    success: bool
    bsa_outcome: str
    ion_ion_state: DensityMatrix | None = None

    def __post_init__(self) -> None:
        if self.bsa_outcome not in (PSI_PLUS, PSI_MINUS, BSA_FAIL):
            raise ValueError(f"unknown analyzer outcome {self.bsa_outcome!r}")
        if self.success and self.ion_ion_state is None:
            raise ValueError("successful swap must carry the heralded ion-ion state")


class LocalityVerdict(NamedTuple):
    required_separation: float  # meters
    closed: bool


class DetectionBudget(NamedTuple):
    efficiency: float
    threshold: float | None
    passes: bool | None


def locality_check(geom: GeometryConfig) -> LocalityVerdict:
    """Separation needed to keep the full qubit measurement outside the light cone."""
    required = geom.speed_of_light * (geom.rotation_time + geom.atom_measurement_time)
    return LocalityVerdict(required, geom.atom_to_analysis_distance >= required)


def photon_midpoint_distance(separation: float) -> float:
    """Distance each photon travels to an analyzer placed at the midpoint."""
    if separation < 0:
        raise ValueError("separation must be non-negative")
    return separation / 2.0


def detection_accounting(
    efficiencies: Iterable[float], threshold: float | None = None
) -> DetectionBudget:
    """Overall detection efficiency (product of stages) against a pass threshold.

    No built-in sufficiency claim: ``passes`` is None unless the caller
    supplies a threshold.
    """
    overall = 1.0
    for value in efficiencies:
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"stage efficiency {value!r} outside [0, 1]")
        overall *= value
    passes = None if threshold is None else overall >= threshold
    return DetectionBudget(overall, threshold, passes)


def photon_survival(link: LinkBudget) -> float:
    """Probability a photon survives the link's fiber and coupling."""
    length_km = link.fiber_length / 1000.0
    return link.coupling_efficiency * 10.0 ** (-link.attenuation_db_per_km * length_km / 10.0)


def bell_basis_weights(photon_state: TwoQubitState | DensityMatrix | np.ndarray) -> dict[str, float]:
    """Weights of a two-photon state in the Bell basis."""
    if isinstance(photon_state, np.ndarray):
        rho = np.asarray(photon_state, dtype=complex)
        if rho.shape == (4,):
            rho = np.outer(rho, rho.conj())
        if rho.shape != (4, 4):
            raise ValueError("two-photon state must be a 4-vector or 4x4 matrix")
    else:
        rho = densify(photon_state).matrix
    weights = {}
    for name, ket in BELL_KETS.items():
        weights[name] = max(0.0, float(np.real(ket.conj() @ rho @ ket)))
    return weights


def bell_state_analysis(
    photon_state: TwoQubitState | DensityMatrix | np.ndarray, rng: np.random.Generator
) -> str:
    """Partial Bell-state analysis of the two photons.

    Projects onto the Bell basis and heralds only the odd-parity outcomes
    psi+/psi-; both even-parity states are indistinguishable to the
    analyzer and map to failure.  Sampling follows the state's
    Bell-basis weights.
    """
    weights = bell_basis_weights(photon_state)
    p_plus = weights[PSI_PLUS]
    p_minus = weights[PSI_MINUS]
    draw = rng.random()
    if draw < p_plus:
        return PSI_PLUS
    if draw < p_plus + p_minus:
        return PSI_MINUS
    return BSA_FAIL


def swap_conditional_states(
    pair_a: TwoQubitState | DensityMatrix, pair_b: TwoQubitState | DensityMatrix
) -> dict[str, tuple[float, DensityMatrix | None]]:
    """Heralding probabilities and conditional ion-ion states for both outcomes.

    The joint state is ordered (ion_a, photon_a, ion_b, photon_b); the
    analyzer acts on the two photons.  Outcomes with vanishing heralding
    probability carry no conditional state.
    """
    joint = np.kron(densify(pair_a).matrix, densify(pair_b).matrix)
    tensor = joint.reshape(2, 2, 2, 2, 2, 2, 2, 2)  # a p b q ; a' p' b' q'
    projections: dict[str, tuple[float, DensityMatrix | None]] = {}
    for outcome in (PSI_PLUS, PSI_MINUS):
        ket = BELL_KETS[outcome].reshape(2, 2)
        # <psi|_photons rho |psi>_photons, leaving the ion-ion operator.
        reduced = np.einsum("pq,apbqcrds,rs->abcd", ket.conj(), tensor, ket)
        reduced = reduced.reshape(4, 4)
        probability = float(np.real(np.trace(reduced)))
        if probability <= 1e-15:
            projections[outcome] = (max(probability, 0.0), None)
        else:
            conditional = reduced / probability
            conditional = 0.5 * (conditional + conditional.conj().T)
            projections[outcome] = (probability, DensityMatrix(conditional))
    return projections


def swap_outcome_probabilities(
    pair_a: TwoQubitState | DensityMatrix, pair_b: TwoQubitState | DensityMatrix
) -> dict[str, float]:
    """Heralding probabilities of the analyzer outcomes, including failure."""
    return _outcome_probabilities(swap_conditional_states(pair_a, pair_b))


def _outcome_probabilities(projections: dict[str, tuple]) -> dict[str, float]:
    """Outcome probabilities, failure included, from ``swap_conditional_states``."""
    p_plus = projections[PSI_PLUS][0]
    p_minus = projections[PSI_MINUS][0]
    return {PSI_PLUS: p_plus, PSI_MINUS: p_minus, BSA_FAIL: max(0.0, 1.0 - p_plus - p_minus)}


def entanglement_swap(
    pair_a: TwoQubitState | DensityMatrix,
    pair_b: TwoQubitState | DensityMatrix,
    rng: np.random.Generator,
) -> SwapResult:
    """Swap entanglement onto the two ions by analyzing their photons.

    On a heralded outcome the ions are left in the normalized conditional
    state tagged by that outcome; zero-probability conditioning reports
    failure.
    """
    projections = swap_conditional_states(pair_a, pair_b)
    p_plus, state_plus = projections[PSI_PLUS]
    p_minus, state_minus = projections[PSI_MINUS]
    draw = rng.random()
    if draw < p_plus and state_plus is not None:
        return SwapResult(True, PSI_PLUS, state_plus)
    if draw < p_plus + p_minus and state_minus is not None:
        return SwapResult(True, PSI_MINUS, state_minus)
    return SwapResult(False, BSA_FAIL, None)


def heralded_ion_state(outcome: str) -> TwoQubitState:
    """Ideal ion-ion state heralded by the given analyzer outcome."""
    if outcome not in (PSI_PLUS, PSI_MINUS):
        raise ValueError(f"no heralded state for analyzer outcome {outcome!r}")
    return TwoQubitState(BELL_KETS[outcome])


def adapted_bell_angles(outcome: str) -> BellAngles:
    """Analysis settings maximizing the Bell signal of the heralded ion pair.

    Chosen so that the signed CHSH combination (the expectation of
    ``chsh_operator``) reaches 2*sqrt(2) on the heralded state, not just
    its absolute-value form.
    """
    a1 = MeasurementSetting(0.0)
    a2 = MeasurementSetting(math.pi / 2)
    if outcome == PSI_PLUS:
        return BellAngles(
            a1, a2, MeasurementSetting(3 * math.pi / 4), MeasurementSetting(math.pi / 4)
        )
    if outcome == PSI_MINUS:
        return BellAngles(
            a1,
            a2,
            MeasurementSetting(3 * math.pi / 4, math.pi),
            MeasurementSetting(math.pi / 4, math.pi),
        )
    raise ValueError(f"no adapted angles for analyzer outcome {outcome!r}")


def _harmonic(n: int) -> float:
    """H_n = 1 + 1/2 + ... + 1/n; the asymptotic series is exact to rounding from n = 1000."""
    if n < 1000:
        return math.fsum(1.0 / k for k in range(1, n + 1))
    return math.log(n) + np.euler_gamma + 1.0 / (2 * n) - 1.0 / (12 * n**2) + 1.0 / (120 * n**4)


def _expected_max_attempts(n_links: int, p: float) -> float:
    """Expected attempts until all n_links links are up, each independently with p per attempt.

    E[max] = sum_{t>=0} 1 - (1 - q^t)^n with q = 1 - p: every term is
    positive, so there is no cancellation, and each is evaluated with
    log1p/expm1.  Where that series would need more than
    ``_LATENCY_TERMS`` terms to reach 1e-17 of its sum (small p), the
    Euler-Maclaurin form H_n / lambda + 1/2 with lambda = -log(q) is used
    instead; for n >= 2 its error there is far below 1e-12 relative.
    """
    if n_links == 1:
        return 1.0 / p
    if p == 1.0:
        return 1.0
    lam = -math.log1p(-p)
    if lam * _LATENCY_TERMS < math.log(n_links) + 40.0:
        return _harmonic(n_links) / lam + 0.5
    total = 1.0  # the t = 0 term
    for start in range(1, _LATENCY_TERMS, _LATENCY_CHUNK):
        log_q_t = -lam * np.arange(start, start + _LATENCY_CHUNK)
        log_miss = np.where(  # log(1 - q^t), accurate near q^t = 0 and q^t = 1
            log_q_t < -math.log(2.0), np.log1p(-np.exp(log_q_t)), np.log(-np.expm1(log_q_t))
        )
        terms = -np.expm1(n_links * log_miss)
        total += float(np.sum(terms))
        if terms[-1] <= 1e-17 * total:
            break
    return total


def chain_latency(
    nodes: int,
    link: LinkBudget,
    attempt_rate: float,
    per_attempt_success: float,
) -> float:
    """Expected seconds until every link of a repeater chain is entangled.

    Each of the nodes-1 links retries independently at ``attempt_rate``
    with per-attempt success ``per_attempt_success`` times the link's
    photon survival; the expected wait for the slowest link is computed
    without cancellation, so it holds at any node count and tiny
    success.  Swap operations are treated as instantaneous, a deliberate
    simplification.
    """
    if nodes < 2:
        raise ValueError("a chain needs at least two nodes")
    if attempt_rate <= 0:
        raise ValueError("attempt rate must be positive")
    if not 0.0 < per_attempt_success <= 1.0:
        raise ValueError("per-attempt success probability must be in (0, 1]")
    p = per_attempt_success * photon_survival(link)
    if p <= 0.0:
        raise ValueError("effective per-attempt success vanished (lossy link)")
    latency = _expected_max_attempts(nodes - 1, p) / attempt_rate
    if not math.isfinite(latency):
        raise ValueError("expected latency overflows a float")
    return latency
