"""Exact two-qubit state algebra for an atom-photon entangled pair.

Pure states are 4-amplitude vectors over the basis (|0s0p>, |0s1p>,
|1s0p>, |1s1p>) with the atom (S) qubit first and the photon (P) qubit
second; mixed states are full 4x4 density matrices.  Measurement bases
are parameterized by Bloch angles (theta, phi), and the rotation and
measurement-operator conventions are locked to each other: rotating a
qubit by ``rotation_matrix`` and reading out computational-basis
populations is identical to measuring the Bloch-axis observable returned
by ``measurement_operator``.  Each route has one home: ``correlation``
and ``chsh_operator`` take the operator route, and the samplers in
``protocol`` take the rotation route.  With this convention the
maximally entangled pair has correlation cos(theta_a - theta_b) at zero
azimuth, and a single qubit prepared in (|0> + |1>)/sqrt(2) and rotated
by (theta, phi) is found in |0> with probability (1 - cos(phi) sin(theta))/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

NORM_TOL = 1e-12
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10

TWO_PI = 2.0 * math.pi

# Pauli matrices in the computational basis.
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


@dataclass(frozen=True)
class MeasurementSetting:
    """A qubit rotation / analysis basis: polar angle theta, azimuth phi.

    Angles are canonicalized on construction to theta in [0, pi] and
    phi in [0, 2*pi); the represented measurement axis is unchanged.
    """

    theta: float
    phi: float = 0.0

    def __post_init__(self) -> None:
        theta, phi = float(self.theta), float(self.phi)
        if not (math.isfinite(theta) and math.isfinite(phi)):
            raise ValueError("measurement angles must be finite")
        theta = theta % TWO_PI
        if theta > math.pi:
            # (theta, phi) and (2*pi - theta, phi + pi) address the same axis.
            theta = TWO_PI - theta
            phi += math.pi
        phi = phi % TWO_PI
        if phi >= TWO_PI:  # tiny negatives round the modulo up to 2*pi itself
            phi = 0.0
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", phi)


@dataclass(frozen=True)
class BellAngles:
    """The four analysis settings (a1, a2; b1, b2) of a CHSH measurement."""

    a1: MeasurementSetting
    a2: MeasurementSetting
    b1: MeasurementSetting
    b2: MeasurementSetting

    @classmethod
    def canonical(cls) -> "BellAngles":
        """The maximally violating settings (0, pi/2; pi/4, 3*pi/4)."""
        return cls(
            a1=MeasurementSetting(0.0),
            a2=MeasurementSetting(math.pi / 2),
            b1=MeasurementSetting(math.pi / 4),
            b2=MeasurementSetting(3 * math.pi / 4),
        )

    @classmethod
    def from_thetas(cls, a1: float, a2: float, b1: float, b2: float) -> "BellAngles":
        return cls(
            a1=MeasurementSetting(a1),
            a2=MeasurementSetting(a2),
            b1=MeasurementSetting(b1),
            b2=MeasurementSetting(b2),
        )


@dataclass(frozen=True, eq=False)
class TwoQubitState:
    """Pure state of the atom(S) x photon(P) pair.

    ``amplitudes`` is a length-4 complex vector ordered
    (|0s0p>, |0s1p>, |1s0p>, |1s1p>), normalized to 1 within 1e-12.
    """

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amps.shape != (4,):
            raise ValueError("a two-qubit pure state needs exactly 4 amplitudes")
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise ValueError(f"state norm^2 = {norm_sq!r} is not 1 within {NORM_TOL}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Mixed state of the pair: Hermitian, trace-1, positive 4x4 matrix."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        # A copy, so that freezing it below leaves the caller's array writable.
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (4, 4):
            raise ValueError("density matrix must be 4x4")
        # A non-finite entry fails here; checked first, inf - inf would warn.
        if not (np.isfinite(m).all() and np.abs(m - m.conj().T).max() <= HERMITICITY_TOL):
            raise ValueError("density matrix is not Hermitian within tolerance")
        trace = complex(np.trace(m))
        if abs(trace - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace {trace!r} is not 1 within {TRACE_TOL}")
        eigenvalues = np.linalg.eigvalsh(m)
        if float(eigenvalues.min()) < EIGENVALUE_FLOOR:
            raise ValueError(
                f"density matrix has eigenvalue {eigenvalues.min()!r} below {EIGENVALUE_FLOOR}"
            )
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


_BELL_KET = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) * (1.0 / math.sqrt(2.0))
_BELL_KET.setflags(write=False)
_BELL_PROJECTOR = np.outer(_BELL_KET, _BELL_KET.conj())
_WHITE_NOISE = np.eye(4, dtype=complex) / 4.0


def bell_pair_ideal() -> TwoQubitState:
    """The maximally entangled pair (|0s0p> + |1s1p>)/sqrt(2)."""
    return TwoQubitState(_BELL_KET)


def rotation_matrix(setting: MeasurementSetting) -> np.ndarray:
    """Single-qubit rotation U(theta, phi).

    Defined as exp(-i*(theta/2)*(sigma . n)) about the equatorial axis
    n = (-sin(phi), cos(phi), 0), so that rotating and then measuring in
    the computational basis realizes ``measurement_operator(setting)``.
    """
    half = 0.5 * setting.theta
    c, s = math.cos(half), math.sin(half)
    phase = np.exp(1j * setting.phi)
    return np.array([[c, -s / phase], [s * phase, c]], dtype=complex)


def measurement_axis(setting: MeasurementSetting) -> np.ndarray:
    """Bloch vector of the observable measured by rotate-then-readout."""
    theta, phi = setting.theta, setting.phi
    return np.array(
        [-math.sin(theta) * math.cos(phi), -math.sin(theta) * math.sin(phi), math.cos(theta)]
    )


def measurement_operator(setting: MeasurementSetting) -> np.ndarray:
    """2x2 Hermitian observable sigma . m for the setting's Bloch axis m."""
    mx, my, mz = measurement_axis(setting)
    return mx * SIGMA_X + my * SIGMA_Y + mz * SIGMA_Z


def correlation(
    rho: DensityMatrix, setting_s: MeasurementSetting, setting_p: MeasurementSetting
) -> float:
    """Correlation Tr(rho . M_s (x) M_p) of the atom and photon axis observables."""
    observable = np.kron(measurement_operator(setting_s), measurement_operator(setting_p))
    return float(np.real(np.trace(rho.matrix @ observable)))


CORRELATION_RANGE_TOL = 1e-9


def bell_signal(q22: float, q12: float, q21: float, q11: float) -> float:
    """CHSH combination |q22 - q12| + |q21 + q11| of four correlations."""
    for q in (q22, q12, q21, q11):
        if abs(q) > 1.0 + CORRELATION_RANGE_TOL:
            raise ValueError(f"correlation {q!r} outside [-1, 1]")
    return abs(q22 - q12) + abs(q21 + q11)


def fidelity(rho: DensityMatrix, psi: TwoQubitState) -> float:
    """Overlap <psi| rho |psi> of a state with a pure target."""
    amps = psi.amplitudes
    value = complex(amps.conj() @ rho.matrix @ amps)
    if abs(value.imag) > NORM_TOL:
        raise ValueError(f"fidelity has non-real value {value!r}")
    return float(value.real)


def werner(p: float) -> DensityMatrix:
    """Mix p * ideal pair + (1 - p) * I/4 (white noise stand-in)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"mixing weight {p!r} outside [0, 1]")
    return DensityMatrix(werner_matrix(p))


def werner_matrix(p: float) -> np.ndarray:
    """The array p * ideal pair + (1 - p) * I/4, unvalidated; ``werner`` is the checked state."""
    return p * _BELL_PROJECTOR + (1.0 - p) * _WHITE_NOISE


def chsh_operator(angles: BellAngles) -> np.ndarray:
    """4x4 Hermitian CHSH observable for the given settings.

    Its expectation on any state equals the signed (absolute-value-free)
    combination q22 - q12 + q21 + q11 of the four ``correlation`` values,
    with the first slot of each pair measured on the atom.
    """
    a1 = measurement_operator(angles.a1)
    a2 = measurement_operator(angles.a2)
    b1 = measurement_operator(angles.b1)
    b2 = measurement_operator(angles.b2)
    op = np.kron(a2, b1 + b2) + np.kron(a1, b1 - b2)
    return 0.5 * (op + op.conj().T)
