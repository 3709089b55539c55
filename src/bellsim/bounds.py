"""Bell-signal bounds: fidelity-constrained extremes, LHV ceiling, Tsirelson scan.

The fidelity-constrained extremization uses the signed operator form of
the CHSH combination (no absolute values): at the canonical angles the
CHSH observable has spectrum {2*sqrt(2), 0, 0, -2*sqrt(2)} with the ideal
pair as its top eigenvector and no cross terms, so a state constrained to
overlap F with the ideal pair reaches at most 2*sqrt(2)*F and at least
2*sqrt(2)*(2F - 1).  The numeric extremizer solves the same problem
exactly at any angles: an optimal state is pure, so one Lagrange
multiplier fixes it, and the multiplier's dual bound certifies the
result through the reported duality gap.  It also reports the
absolute-value form evaluated on the witness states, which can only be
larger.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import _MAX_GRID
from .states import (
    BellAngles,
    DensityMatrix,
    bell_pair_ideal,
    bell_signal,
    chsh_operator,
    correlation,
    fidelity,
)

TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)
LHV_BOUND = 2.0


@dataclass(frozen=True)
class FidelityConstraint:
    """Target overlap F with the ideal pair, plus the analysis angles."""

    fidelity: float
    angles: BellAngles = field(default_factory=BellAngles.canonical)

    def __post_init__(self) -> None:
        if not 0.0 <= self.fidelity <= 1.0:
            raise ValueError(f"fidelity {self.fidelity!r} outside [0, 1]")


@dataclass(frozen=True)
class ExtremalResult:
    """Extremes of the signed Bell signal under a fidelity constraint."""

    bell_min: float
    bell_max: float
    witness_min: DensityMatrix
    witness_max: DensityMatrix
    abs_form_min: float
    abs_form_max: float
    duality_gap: float
    converged: bool
    out_of_regime: bool = False

    def __post_init__(self) -> None:
        if self.bell_min > self.bell_max + 1e-9:
            raise ValueError("extremal minimum exceeds maximum")


@dataclass(frozen=True)
class LhvStrategy:
    """Deterministic local assignment: one outcome in {+1, -1} per setting."""

    a1: int
    a2: int
    b1: int
    b2: int

    def __post_init__(self) -> None:
        for value in (self.a1, self.a2, self.b1, self.b2):
            if value not in (-1, 1):
                raise ValueError("strategy outcomes must be +1 or -1")

    def bell_value(self) -> float:
        return bell_signal(
            float(self.a2 * self.b2),
            float(self.a1 * self.b2),
            float(self.a2 * self.b1),
            float(self.a1 * self.b1),
        )


@dataclass(frozen=True)
class ScanResult:
    """Best Bell signal found on an ideal-pair angle grid."""

    bell_value: float
    thetas: tuple[float, float, float, float]  # (a1, a2, b1, b2)


def extremal_bell_closed_form(f: float) -> tuple[float, float]:
    """Signed Bell-signal window (min, max) at canonical angles for overlap f.

    max = 2*sqrt(2)*f, min = 2*sqrt(2)*(2f - 1); the minimum is the signed
    value and goes negative below f = 1/2.
    """
    if not 0.0 <= f <= 1.0:
        raise ValueError(f"fidelity {f!r} outside [0, 1]")
    return TSIRELSON_BOUND * (2.0 * f - 1.0), TSIRELSON_BOUND * f


def _max_expectation(
    w: np.ndarray, target: np.ndarray, f: float
) -> tuple[float, np.ndarray, float]:
    """max Tr(rho W) over density matrices with <target|rho|target> = f.

    Returns (value, pure witness, duality gap).  An optimal state is pure,
    v = sqrt(f)|t> + sqrt(1-f) sum_i x_i|e_i>, with e_i the eigenvectors of
    W on the complement of t (eigenvalues c_i, top last) and h_i = <e_i|W|t>.
    With k = sqrt(f(1-f))|h|, stationarity gives
    x_i = (h_i/|h|) / (m + (1-f)(c_top - c_i)/k) for a scaled multiplier m
    in [0, 1], fixed by |x| = 1 and found by bisection.  Every m > 0 also
    gives the Lagrange dual bound
    f W_tt + (1-f) c_top + k (m + sum_i |h_i/|h||^2 / (m + (1-f)(c_top - c_i)/k)).
    When |x| < 1 even as m -> 0 (h has no weight on the top of W, as at the
    canonical angles, or k = 0 at f = 0 and f = 1), the top component takes
    up the remaining norm.  Every quantity stays of the order of |W|, so
    the result holds to rounding over all of [0, 1].
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
    # x / |x| is NaN once |x| nears 1e-300; exp(i arg x) is a unit phase there and 1 at 0.
    phase = np.exp(1j * np.angle(x[-1]))
    x[-1] = phase * math.sqrt(max(0.0, 1.0 - float(np.sum(np.abs(x[:-1]) ** 2))))
    v = math.sqrt(f) * target + math.sqrt(1.0 - f) * (basis @ x)
    value = float(np.real(np.vdot(v, w @ v)))
    return value, np.outer(v, v.conj()), dual - value


def _abs_form_on_witness(rho: DensityMatrix, angles: BellAngles) -> float:
    """Absolute-value CHSH combination evaluated on a witness state."""
    q = {
        (i, j): correlation(rho, a, b)
        for i, a in ((1, angles.a1), (2, angles.a2))
        for j, b in ((1, angles.b1), (2, angles.b2))
    }
    return bell_signal(q[(2, 2)], q[(1, 2)], q[(2, 1)], q[(1, 1)])


def extremal_bell_numeric(constraint: FidelityConstraint) -> ExtremalResult:
    """Extremize the signed Bell signal over states with pinned fidelity.

    Both extremes are solved exactly (``min`` as the maximum of -W); the
    result carries the extremal witness states, the absolute-value
    form evaluated on them, the larger of the two duality gaps, and a
    convergence flag (gap at most 1e-9).  Fidelities below 1/2 are allowed
    but flagged out-of-regime.
    """
    operator = chsh_operator(constraint.angles)
    target = bell_pair_ideal()
    f = constraint.fidelity
    max_value, max_rho, max_gap = _max_expectation(operator, target.amplitudes, f)
    neg_min_value, min_rho, min_gap = _max_expectation(-operator, target.amplitudes, f)
    witness_max = DensityMatrix(0.5 * (max_rho + max_rho.conj().T))
    witness_min = DensityMatrix(0.5 * (min_rho + min_rho.conj().T))
    for witness in (witness_min, witness_max):
        if abs(fidelity(witness, target) - f) > 1e-6:
            raise RuntimeError("extremal witness drifted off the fidelity constraint")
    gap = max(max_gap, min_gap)
    return ExtremalResult(
        bell_min=-neg_min_value,
        bell_max=max_value,
        witness_min=witness_min,
        witness_max=witness_max,
        abs_form_min=_abs_form_on_witness(witness_min, constraint.angles),
        abs_form_max=_abs_form_on_witness(witness_max, constraint.angles),
        duality_gap=gap,
        converged=bool(gap <= 1e-9),
        out_of_regime=f < 0.5,
    )


def enumerate_strategies() -> list[tuple[LhvStrategy, float]]:
    """All 16 deterministic local strategies with their Bell values."""
    table = []
    for a1, a2, b1, b2 in itertools.product((1, -1), repeat=4):
        strategy = LhvStrategy(a1, a2, b1, b2)
        table.append((strategy, strategy.bell_value()))
    return table


def lhv_enumerate() -> tuple[float, list[LhvStrategy]]:
    """Maximum Bell signal over deterministic local strategies, with argmaxes.

    Deterministic strategies are the extreme points of the local set, so
    by convexity this bounds every stochastic local model.
    """
    table = enumerate_strategies()
    best = max(value for _, value in table)
    argmax = [strategy for strategy, value in table if value >= best - 1e-12]
    return best, argmax


def tsirelson_scan(grid_resolution: int = 64) -> ScanResult:
    """Maximum ideal-pair Bell signal over a four-angle grid.

    Scans theta in {k*pi/resolution, k = 0..resolution} for all four
    settings using the ideal-pair correlation cos(theta_a - theta_b).
    The maximum over the two b-angles separates per (a1, a2) pair, so the
    scan is O(resolution^3).  Resolutions divisible by 4 place the
    canonical angles exactly on the grid.  Resolutions above 2048
    (``_MAX_GRID``) are rejected before anything is allocated.
    """
    if not 8 <= grid_resolution <= _MAX_GRID:
        raise ValueError(f"grid resolution {grid_resolution} outside [8, {_MAX_GRID}]")
    thetas = np.arange(grid_resolution + 1) * (math.pi / grid_resolution)
    c = np.cos(thetas[:, None] - thetas[None, :])

    best = -np.inf
    best_quad = (0, 0, 0, 0)
    for i1 in range(len(thetas)):
        diff = np.abs(c - c[i1])  # [i2, b2]
        summ = np.abs(c + c[i1])  # [i2, b1]
        b2_idx = np.argmax(diff, axis=1)
        b1_idx = np.argmax(summ, axis=1)
        totals = diff[np.arange(len(thetas)), b2_idx] + summ[np.arange(len(thetas)), b1_idx]
        i2 = int(np.argmax(totals))
        if totals[i2] > best:
            best = float(totals[i2])
            best_quad = (i1, i2, int(b1_idx[i2]), int(b2_idx[i2]))
    quad_thetas = tuple(float(thetas[k]) for k in best_quad)
    return ScanResult(bell_value=best, thetas=quad_thetas)
