"""The remote ion-ion entanglement scheme and repeater-chain latency.

Covers the swap side of a loophole-free test built from two heralded
atom-photon pairs: the projection of a partial Bell-state analysis that
heralds only the two odd-parity Bell states (capping the success
probability at 1/2) together with the ion-ion states it leaves, and
geometric waiting-time estimates for repeater chains.  The light-cone,
detection and fiber-survival arithmetic lives in ``loopholes``.
"""

from __future__ import annotations

import math

import numpy as np

from .states import BellAngles, DensityMatrix, MeasurementSetting, TwoQubitState

_LATENCY_TERMS = 65536  # most terms summed of the latency series
_LATENCY_CHUNK = 4096

PSI_PLUS = "psi_plus"
PSI_MINUS = "psi_minus"
BSA_FAIL = "fail"

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
# The two odd-parity Bell kets the analyzer heralds, in the computational
# basis (first qubit, second qubit).
BELL_KETS = {
    PSI_PLUS: np.array([0.0, _INV_SQRT2, _INV_SQRT2, 0.0], dtype=complex),
    PSI_MINUS: np.array([0.0, _INV_SQRT2, -_INV_SQRT2, 0.0], dtype=complex),
}


def swap_conditional_states(
    pair_a: DensityMatrix, pair_b: DensityMatrix
) -> dict[str, tuple[float, DensityMatrix | None]]:
    """Heralding probabilities and conditional ion-ion states for both outcomes.

    The joint state is ordered (ion_a, photon_a, ion_b, photon_b); the
    analyzer acts on the two photons.  Outcomes with vanishing heralding
    probability carry no conditional state.
    """
    joint = np.kron(pair_a.matrix, pair_b.matrix)
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


def _analyzer_probabilities(projections: dict[str, tuple]) -> dict[str, float]:
    """Outcome probabilities, failure included, from ``swap_conditional_states``."""
    p_plus = projections[PSI_PLUS][0]
    p_minus = projections[PSI_MINUS][0]
    return {PSI_PLUS: p_plus, PSI_MINUS: p_minus, BSA_FAIL: max(0.0, 1.0 - p_plus - p_minus)}


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
    nodes: int, survival: float, attempt_rate: float, per_attempt_success: float
) -> float:
    """Expected seconds until every link of a repeater chain is entangled.

    Each of the nodes-1 links retries independently at ``attempt_rate``
    with per-attempt success ``per_attempt_success`` times the photon
    ``survival`` of its link; the expected wait for the slowest link is
    computed without cancellation, so it holds at any node count and tiny
    success.  Swap operations are treated as instantaneous, a deliberate
    simplification.
    """
    if nodes < 2:
        raise ValueError("a chain needs at least two nodes")
    if attempt_rate <= 0:
        raise ValueError("attempt rate must be positive")
    if not 0.0 < per_attempt_success <= 1.0:
        raise ValueError("per-attempt success probability must be in (0, 1]")
    p = per_attempt_success * survival
    if p <= 0.0:
        raise ValueError("effective per-attempt success vanished (lossy link)")
    latency = _expected_max_attempts(nodes - 1, p) / attempt_rate
    if not math.isfinite(latency):
        raise ValueError("expected latency overflows a float")
    return latency
