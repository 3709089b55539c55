"""Shared fixtures and independent oracle implementations.

``bellsim.states.correlation`` takes the operator route, Tr(rho M_a (x) M_b)
with M from ``measurement_operator``; the samplers in ``bellsim.protocol``
take the rotation route, turning a qubit with ``rotation_matrix`` and
reading out computational-basis populations.  This module holds the
oracles both are checked against: outcome probabilities from explicit
Bloch-axis eigenprojectors, which share no code with either route, and
the rotate-then-read-out pair ``rotate`` and ``outcome_probabilities``,
the rotation side of the convention law applied to validated states.

It also holds two oracles of the Bell window that ``bellsim.bounds``
solves in closed form: the canonical-angle formula
[2*sqrt(2)*(2F - 1), 2*sqrt(2)*F] and a bisection on the scaled
multiplier of the stationarity equation, which holds at any azimuth.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from bellsim.states import DensityMatrix, MeasurementSetting, TwoQubitState, rotation_matrix

ATOM = "S"
PHOTON = "P"

_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def bloch_axis(theta: float, phi: float) -> np.ndarray:
    """Measurement axis matching the library's rotation convention."""
    return np.array(
        [-math.sin(theta) * math.cos(phi), -math.sin(theta) * math.sin(phi), math.cos(theta)]
    )


def axis_projectors(theta: float, phi: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenprojectors (outcome 0, outcome 1) of the axis observable."""
    mx, my, mz = bloch_axis(theta, phi)
    observable = mx * _SX + my * _SY + mz * _SZ
    identity = np.eye(2, dtype=complex)
    return (identity + observable) / 2.0, (identity - observable) / 2.0


def oracle_outcome_probabilities(
    rho: np.ndarray, setting_a: tuple[float, float], setting_b: tuple[float, float]
) -> np.ndarray:
    """Joint outcome probabilities via projector sandwiches (independent path)."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape == (4,):
        rho = np.outer(rho, rho.conj())
    projectors_a = axis_projectors(*setting_a)
    projectors_b = axis_projectors(*setting_b)
    out = np.empty(4)
    for s in range(2):
        for p in range(2):
            out[2 * s + p] = np.real(np.trace(rho @ np.kron(projectors_a[s], projectors_b[p])))
    return out


def oracle_correlation(
    rho: np.ndarray, setting_a: tuple[float, float], setting_b: tuple[float, float]
) -> float:
    f = oracle_outcome_probabilities(rho, setting_a, setting_b)
    return float(f[0] + f[3] - f[1] - f[2])


def rotate(
    state: TwoQubitState | DensityMatrix, qubit: str, setting: MeasurementSetting
) -> TwoQubitState | DensityMatrix:
    """Apply the single-qubit rotation U(theta, phi) to the ATOM or PHOTON qubit of the pair."""
    u, identity = rotation_matrix(setting), np.eye(2, dtype=complex)
    full = np.kron(u, identity) if qubit == ATOM else np.kron(identity, u)
    if isinstance(state, TwoQubitState):
        return TwoQubitState(full @ state.amplitudes)
    return DensityMatrix(full @ state.matrix @ full.conj().T)


def outcome_probabilities(
    rho: DensityMatrix, setting_s: MeasurementSetting, setting_p: MeasurementSetting
) -> np.ndarray:
    """Joint populations (f00, f01, f10, f11), atom index first, after rotating both qubits."""
    u = np.kron(rotation_matrix(setting_s), rotation_matrix(setting_p))
    diag = np.real(np.diagonal(u @ rho.matrix @ u.conj().T))
    # Round-off from the PSD matrix product can leave tiny negatives.
    return np.clip(diag, 0.0, 1.0)


def canonical_window(f: float) -> tuple[float, float]:
    """Signed Bell window (min, max) at the canonical angles for overlap f."""
    return 2.0 * math.sqrt(2.0) * (2.0 * f - 1.0), 2.0 * math.sqrt(2.0) * f


def bisection_max_expectation(
    w: np.ndarray, target: np.ndarray, f: float
) -> tuple[float, np.ndarray, float]:
    """max Tr(rho W) under <target|rho|target> = f, by bisection; any azimuth.

    Returns (value, pure witness, duality gap).  The pure optimum is
    v = sqrt(f)|t> + sqrt(1-f) sum_i x_i|e_i>, with e_i the eigenvectors of
    W on the complement of t (eigenvalues c_i, top last), h_i = <e_i|W|t>
    and k = sqrt(f(1-f))|h|.  Stationarity gives
    x_i = (h_i/|h|) / (m + (1-f)(c_top - c_i)/k), and 50 halvings of
    m in [0, 1] fix |x| = 1; the top component takes up any norm left.
    """
    complement = np.linalg.eigh(np.outer(target, target.conj()))[1][:, :3]
    c, rotation = np.linalg.eigh(complement.conj().T @ w @ complement)
    basis = complement @ rotation
    h = basis.conj().T @ (w @ target)
    k = math.sqrt(f * (1.0 - f)) * float(np.linalg.norm(h))
    dual = f * float(np.real(np.vdot(target, w @ target))) + (1.0 - f) * float(c[-1])
    x = np.zeros(3, dtype=complex)
    if k > 0.0:
        unit = h / np.linalg.norm(h)
        with np.errstate(over="ignore"):  # an infinite spread only zeroes its component
            spread = (1.0 - f) * (c[-1] - c) / k
        lo, hi = 0.0, 1.0
        while hi - lo > 1e-15:
            mid = 0.5 * (lo + hi)
            if np.sum(np.abs(unit / (mid + spread)) ** 2) > 1.0:
                lo = mid
            else:
                hi = mid
        x = unit / (hi + spread)
        dual += k * (hi + float(np.sum(np.abs(unit) ** 2 / (hi + spread))))
    phase = np.exp(1j * np.angle(x[-1]))
    x[-1] = phase * math.sqrt(max(0.0, 1.0 - float(np.sum(np.abs(x[:-1]) ** 2))))
    v = math.sqrt(f) * target + math.sqrt(1.0 - f) * (basis @ x)
    value = float(np.real(np.vdot(v, w @ v)))
    return value, np.outer(v, v.conj()), dual - value


def bisection_window(f: float, w: np.ndarray) -> tuple[float, float]:
    """Signed Bell window (min, max) of the operator w at overlap f with the ideal pair."""
    target = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0)
    return -bisection_max_expectation(-w, target, f)[0], bisection_max_expectation(w, target, f)[0]


def density(state: TwoQubitState) -> DensityMatrix:
    """The validated density matrix |psi><psi| of a pure state."""
    amps = state.amplitudes
    return DensityMatrix(np.outer(amps, amps.conj()))


def random_density_matrices(rng: np.random.Generator, n: int) -> np.ndarray:
    """Batch of Ginibre-random 4x4 density matrices, shape (n, 4, 4)."""
    a = rng.standard_normal((n, 4, 4)) + 1j * rng.standard_normal((n, 4, 4))
    m = a @ np.conj(np.transpose(a, (0, 2, 1)))
    traces = np.trace(m, axis1=1, axis2=2).real
    return m / traces[:, None, None]


def random_pure_pair(rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return v / np.linalg.norm(v)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20060922)
