"""The remote ion-ion entanglement scheme and repeater-chain latency.

Covers the swap side of a loophole-free test built from two heralded
atom-photon pairs: a partial Bell-state analysis of the two photons that
heralds only the two odd-parity Bell states (capping the success
probability at 1/2), the ion-ion pair it leaves, and geometric
waiting-time estimates for repeater chains.  The light-cone, detection
and fiber-survival arithmetic lives in ``loopholes``.  Everything here
is plain float arithmetic in ``math``, so no report number depends on
the SIMD kernels numpy picks for the CPU.
"""

from __future__ import annotations

import math

_LATENCY_TERMS = 65536  # most terms summed of the latency series
_EULER_GAMMA = 0.5772156649015329

PSI_PLUS = "psi_plus"
PSI_MINUS = "psi_minus"
BSA_FAIL = "fail"

# The analyzer's outcome law for two Werner pairs, in report order.  Their
# photon marginals are I/2, so each odd-parity Bell state heralds with
# probability exactly 1/4, whatever the Werner weights.
SWAP_OUTCOME_PROBABILITIES = {PSI_PLUS: 0.25, PSI_MINUS: 0.25, BSA_FAIL: 0.5}


def swapped_werner_pair(p_a: float, p_b: float) -> tuple[float, float]:
    """Fidelity and signed CHSH value of the ion pair that swapping two Werner pairs heralds.

    Either odd-parity outcome leaves a Werner pair of weight p_a * p_b
    around its Bell state Psi+ or Psi- (Zukowski, Zeilinger, Horne and
    Ekert, PRL 71, 4287 (1993)).  Its fidelity to that state is
    (1 + 3 p_a p_b)/4, and at the analysis angles adapted to the outcome
    its signed CHSH value is 2 sqrt(2) p_a p_b.
    """
    weight = p_a * p_b
    return (1.0 + 3.0 * weight) / 4.0, 2.0 * math.sqrt(2.0) * weight


def _harmonic(n: int) -> float:
    """H_n = 1 + 1/2 + ... + 1/n; the asymptotic series is exact to rounding from n = 1000."""
    if n < 1000:
        return math.fsum(1.0 / k for k in range(1, n + 1))
    return math.log(n) + _EULER_GAMMA + 1.0 / (2 * n) - 1.0 / (12 * n**2) + 1.0 / (120 * n**4)


def _expected_max_attempts(n_links: int, p: float) -> float:
    """Expected attempts until all n_links links are up, each independently with p per attempt.

    E[max] = sum_{t>=0} 1 - (1 - q^t)^n with q = 1 - p: every term is
    positive, so there is no cancellation, and each is evaluated with
    log1p/expm1 and summed exactly with ``math.fsum``.  Where that
    series would need more than ``_LATENCY_TERMS`` terms to reach 1e-17
    of its sum (small p), the Euler-Maclaurin form H_n / lambda + 1/2
    with lambda = -log(q) is used instead; for n >= 2 its error there is
    far below 1e-12 relative.
    """
    if n_links == 1:
        return 1.0 / p
    if p == 1.0:
        return 1.0
    lam = -math.log1p(-p)
    if lam * _LATENCY_TERMS < math.log(n_links) + 40.0:
        return _harmonic(n_links) / lam + 0.5
    log_half = -math.log(2.0)
    terms = [1.0]  # the t = 0 term
    total = 1.0
    for t in range(1, _LATENCY_TERMS):
        log_q_t = -lam * t
        # log(1 - q^t), accurate near q^t = 0 and q^t = 1
        if log_q_t < log_half:
            log_miss = math.log1p(-math.exp(log_q_t))
        else:
            log_miss = math.log(-math.expm1(log_q_t))
        term = -math.expm1(n_links * log_miss)
        terms.append(term)
        total += term
        if term <= 1e-17 * lam * total:  # the terms left sum to about term / lam
            break
    return math.fsum(terms)


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
