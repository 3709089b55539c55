"""Independent reference values for checking bellsim outputs.

Nothing here imports bellsim: every number comes from numpy and the
standard library, by a route that differs from the library's own code.

- Bell windows: the SDP dual min_l l*F + lambda_max(W - l*P), one 4x4
  ``eigvalsh`` per evaluation, minimised by golden-section search.
- Repeater latency: the exact series sum_t 1 - (1 - (1-p)^t)^n, summed
  with ``log1p``/``expm1``.
- Recorded outcome distributions: projector sandwiches Tr[(A_m x Pi_o) rho]
  with the single-pulse azimuth averaged over the arrival window in
  closed form, PMT efficiencies, readout flips and dark clicks.
"""

from __future__ import annotations

import math

import numpy as np

SQRT2 = math.sqrt(2.0)
SPEED_OF_LIGHT = 299_792_458.0

_I2 = np.eye(2, dtype=complex)
_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

# (|0s0p> + |1s1p>)/sqrt(2), atom qubit first.
IDEAL_PAIR = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / SQRT2


# ---------------------------------------------------------------------------
# Bell-signal windows


def _axis_observable(theta: float) -> np.ndarray:
    """Observable measured by rotating (theta, phi=0) and reading |0> as +1."""
    return math.cos(theta) * _SZ - math.sin(theta) * _SX


def chsh_operator(a1: float, a2: float, b1: float, b2: float) -> np.ndarray:
    """Signed CHSH operator whose expectation is q22 - q12 + q21 + q11."""
    a1_, a2_, b1_, b2_ = (_axis_observable(t) for t in (a1, a2, b1, b2))
    return np.kron(a2_, b1_ + b2_) + np.kron(a1_, b1_ - b2_)


def _max_expectation(w: np.ndarray, target: np.ndarray, f: float) -> float:
    """max Tr(rho W) over density matrices with <target|rho|target> = f."""
    projector = np.outer(target, target.conj())
    if f >= 1.0:
        return float(np.real(target.conj() @ w @ target))
    if f <= 0.0:
        values, vectors = np.linalg.eigh(projector)
        complement = vectors[:, values < 0.5]
        return float(np.linalg.eigvalsh(complement.conj().T @ w @ complement)[-1])

    def dual(lam: float) -> float:
        return lam * f + float(np.linalg.eigvalsh(w - lam * projector)[-1])

    # The dual is convex with slope in [f - 1, f]; its minimiser lies in
    # [-2|W|/(1-f), 2|W|/f], so golden-section search on that interval
    # converges to the optimum value within the final bracket width.
    norm = float(np.max(np.abs(np.linalg.eigvalsh(w))))
    lo = -2.0 * norm / (1.0 - f) - 1.0
    hi = 2.0 * norm / f + 1.0
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
    g1, g2 = dual(x1), dual(x2)
    for _ in range(200):
        if hi - lo < 1e-12:
            break
        if g1 <= g2:
            hi, x2, g2 = x2, x1, g1
            x1 = hi - ratio * (hi - lo)
            g1 = dual(x1)
        else:
            lo, x1, g1 = x1, x2, g2
            x2 = lo + ratio * (hi - lo)
            g2 = dual(x2)
    return min(g1, g2)


def bell_window(f: float, angles: tuple[float, float, float, float]) -> tuple[float, float]:
    """Exact (min, max) of the signed Bell signal at overlap f with the ideal pair.

    ``angles`` are (a1, a2, b1, b2) in radians, atom settings first.
    """
    w = chsh_operator(*angles)
    return -_max_expectation(-w, IDEAL_PAIR, f), _max_expectation(w, IDEAL_PAIR, f)


# ---------------------------------------------------------------------------
# Repeater-chain latency


def expected_max_attempts(n_links: int, p: float) -> float:
    """E[max of n_links independent geometric waits], attempts counted from 1.

    Sums P(max > t) = 1 - (1 - (1-p)^t)^n over t >= 0 in chunks until the
    terms no longer change the total.
    """
    if not 0.0 < p <= 1.0 or n_links < 1:
        raise ValueError("need 0 < p <= 1 and at least one link")
    if p == 1.0:
        return 1.0
    log_q = math.log1p(-p)
    total = 0.0
    start = 0
    chunk = 1 << 20
    while True:
        t = np.arange(start, start + chunk, dtype=float)
        q_t = np.exp(t * log_q)  # (1-p)^t
        with np.errstate(divide="ignore"):
            # log(1 - q^t), accurate both near q^t = 1 and near q^t = 0
            log_miss = np.where(q_t < 0.5, np.log1p(-q_t), np.log(-np.expm1(t * log_q)))
        terms = -np.expm1(n_links * log_miss)
        total += float(np.sum(terms))
        if terms[-1] <= 1e-18 * total:
            return total
        start += chunk


def chain_latency_s(nodes: int, link_success: float, attempt_rate: float) -> float:
    """Expected seconds until all nodes-1 links of a lossless chain are up."""
    return expected_max_attempts(nodes - 1, link_success) / attempt_rate


# ---------------------------------------------------------------------------
# Recorded outcome distributions of the heralded event chain


def _rotation(theta: float, phi: float) -> np.ndarray:
    """exp(-i theta/2 n.sigma) about n = (-sin phi, cos phi, 0)."""
    n_sigma = -math.sin(phi) * _SX + math.cos(phi) * _SY
    return math.cos(theta / 2.0) * _I2 - 1j * math.sin(theta / 2.0) * n_sigma


def _readout_projectors(theta: float, phi: float) -> list[np.ndarray]:
    """U^dag |m><m| U for readout outcome m = 0, 1 after rotation U(theta, phi)."""
    u = _rotation(theta, phi)
    return [u.conj().T @ np.outer(basis, basis) @ u for basis in np.eye(2, dtype=complex)]


def _window_averaged_projectors(
    theta: float, phase: float, frequency: float, window: float
) -> list[np.ndarray]:
    """Atom readout projectors averaged over a uniform arrival time in [0, window].

    A projector is affine in (cos phi, sin phi), so its average needs only
    the window averages of cos and sin of phase + 2*pi*frequency*t.
    """
    omega_w = 2.0 * math.pi * frequency * window
    mean_cos = (math.sin(phase + omega_w) - math.sin(phase)) / omega_w
    mean_sin = (math.cos(phase) - math.cos(phase + omega_w)) / omega_w
    at = {phi: _readout_projectors(theta, phi) for phi in (0.0, math.pi / 2, math.pi, 1.5 * math.pi)}
    averaged = []
    for m in range(2):
        constant = 0.5 * (at[0.0][m] + at[math.pi][m])
        cos_part = 0.5 * (at[0.0][m] - at[math.pi][m])
        sin_part = 0.5 * (at[math.pi / 2][m] - at[1.5 * math.pi][m])
        averaged.append(constant + mean_cos * cos_part + mean_sin * sin_part)
    return averaged


def recorded_distribution(
    *,
    werner_p: float,
    theta_atom: float,
    theta_photon: float,
    single_pulse: bool = False,
    pmt_efficiency: tuple[float, float] = (1.0, 1.0),
    bright_error: float = 0.0,
    dark_error: float = 0.0,
    dark_event_probability: float = 0.0,
    swapped: bool = False,
    success_probability: float = 2.0e-4,
    excitation_window: float = 50e-9,
    microwave_frequency: float = 14.5e9,
) -> tuple[np.ndarray, float, float]:
    """Distribution of recorded (atom label, PMT index) events, shape (2, 2).

    Returns (distribution, acceptance, recorded_per_attempt): acceptance is
    the chance that a heralded photon survives its PMT, and
    recorded_per_attempt the chance that one excitation attempt ends in a
    recorded event (heralded or dark).
    """
    rho = werner_p * np.outer(IDEAL_PAIR, IDEAL_PAIR.conj()) + (1.0 - werner_p) * np.eye(4) / 4.0
    if single_pulse:
        atom = _window_averaged_projectors(theta_atom, 0.0, microwave_frequency, excitation_window)
    else:
        atom = _readout_projectors(theta_atom, 0.0)
    photon = _readout_projectors(theta_photon, 0.0)
    # flip[label, true]: readout mislabels bright with bright_error, dark with dark_error
    flip = np.array([[1.0 - bright_error, dark_error], [bright_error, 1.0 - dark_error]])

    true_joint = np.array(
        [[np.real(np.trace(rho @ np.kron(atom[m], photon[o]))) for o in range(2)] for m in range(2)]
    )
    heralded = np.empty((2, 2))
    for pmt in range(2):
        heralded[:, pmt] = flip @ true_joint[:, pmt ^ int(swapped)] * pmt_efficiency[pmt]
    acceptance = float(heralded.sum())

    ground = np.array([np.real(atom[m][0, 0]) for m in range(2)])
    dark = np.outer(flip @ ground, [0.5, 0.5])

    p_dark = (1.0 - success_probability) * dark_event_probability
    total = success_probability * heralded + p_dark * dark
    weight = float(total.sum())
    return total / weight, acceptance, weight


def tally_deviation(counts: np.ndarray, probabilities: np.ndarray) -> float:
    """Largest |n - N p| / sigma over the cells of a multinomial tally."""
    counts = np.asarray(counts, dtype=float).reshape(-1)
    probabilities = np.asarray(probabilities, dtype=float).reshape(-1)
    n = counts.sum()
    sigma = np.sqrt(n * probabilities * (1.0 - probabilities))
    excess = np.abs(counts - n * probabilities)
    # a cell with probability 0 that holds counts deviates without bound
    z = excess / np.maximum(sigma, 1e-12)
    return float(z.max())


def combined_correlation(
    n_events: int, **kwargs
) -> tuple[float, float]:
    """Expected PMT-role-averaged correlation and its multinomial sigma.

    One setting is measured in two sub-runs of n//2 and n - n//2 events,
    the second with the PMT roles swapped and relabeled back; the two
    correlations are averaged with equal weight.
    """
    signs = np.array([1.0, -1.0])
    qs = []
    for swapped in (False, True):
        dist, _, _ = recorded_distribution(swapped=swapped, **kwargs)
        by_photon = dist[:, [1, 0]] if swapped else dist
        qs.append(float(signs @ by_photon @ signs))
    n_normal = n_events // 2
    n_swapped = n_events - n_normal
    sigma = 0.5 * math.sqrt((1.0 - qs[0] ** 2) / n_normal + (1.0 - qs[1] ** 2) / n_swapped)
    return 0.5 * (qs[0] + qs[1]), sigma
