"""Bell-signal bounds: fidelity-constrained extremes, LHV ceiling, Tsirelson scan.

The fidelity-constrained window uses the signed CHSH operator W.  Every
setting it accepts has azimuth 0 or pi, so all four Bloch axes lie in the
x-z plane, where W is [[P, Q], [Q, -P]] on (Phi+, Psi-) plus
[[R, S], [S, -R]] on (Phi-, Psi+) (the Horodecki picture of CHSH, Phys.
Lett. A 200, 340 (1995)).  W couples the ideal pair Phi+ to Psi- alone, so
the window has a closed form at every in-plane angle, solved in plain
floats; at the canonical angles it is [2*sqrt(2)*(2F - 1), 2*sqrt(2)*F].
Each extreme comes with a pure witness ket, a Lagrange dual bound (the
duality gap) and the absolute-value form on the witness.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

from . import _MAX_GRID
from .settings import BellAngles, bell_signal

TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)
LHV_BOUND = 2.0
# R and S each sum four unit-bounded terms; below this they are rounding noise (about
# 1e-16 at the canonical angles, where both vanish), and the second block counts as 0.
_BLOCK_NOISE = 2.0**-50
Quad = tuple[float, float, float, float]


class ExtremalResult(NamedTuple):
    """Extremes of the signed Bell signal at a fidelity; witnesses are real kets, atom first."""

    bell_min: float
    bell_max: float
    witness_min: Quad
    witness_max: Quad
    abs_form_min: float
    abs_form_max: float
    duality_gap: float
    converged: bool
    out_of_regime: bool = False


class ScanResult(NamedTuple):
    """Best Bell signal found on an ideal-pair angle grid."""

    bell_value: float
    thetas: Quad  # (a1, a2, b1, b2)


def _pair_blocks(angles: BellAngles) -> list[Quad]:
    """Blocks (cos(a - b), sin(b - a), cos(a + b), sin(a + b)) of M_a (x) M_b, a1b1 to a2b2;
    setting axes are (sin a, 0, cos a), a = -theta at azimuth 0 and theta at azimuth pi."""
    settings = (angles.a1, angles.a2, angles.b1, angles.b2)
    for setting in settings:
        if setting.phi not in (0.0, math.pi):
            raise ValueError(f"setting azimuth {setting.phi!r} is out of the x-z plane (0 or pi)")
    a1, a2, b1, b2 = (setting.theta if setting.phi else -setting.theta for setting in settings)
    pairs = ((a, b) for a in (a1, a2) for b in (b1, b2))
    return [(math.cos(a - b), math.sin(b - a), math.cos(a + b), math.sin(a + b)) for a, b in pairs]


def _form(v: Quad, blocks: Quad) -> float:
    """<v|W|v> for a real v in Bell coordinates (Phi+, Psi-, Phi-, Psi+) and W's blocks."""
    (p, q, r, s), (v0, v1, v2, v3) = blocks, v
    return p * (v0 * v0 - v1 * v1) + 2.0 * q * v0 * v1 + r * (v2 * v2 - v3 * v3) + 2.0 * s * v2 * v3


def _max_expectation(p: float, q: float, r: float, s: float, f: float) -> tuple[float, Quad, float]:
    """(max <v|W|v> at overlap f with Phi+, its witness in Bell coordinates, duality gap).

    Off Phi+, W has the eigenvalue -p on Psi- and +-hypot(r, s) with top eigenvector
    e = (cos(g/2), sin(g/2)), g = atan2(s, r); c_top is the largest.  The optimum is
    v = sqrt(f)|Phi+> + sqrt(1-f)(x|Psi-> + y|e>), and W|Phi+> leaves Phi+ only along
    Psi-, so with k = sqrt(f(1-f))|q| and lift = (1-f)(c_top + p)/k the root is closed:
    x = sign(q) at the scaled multiplier m = 1 - lift when lift <= 1, else sign(q)/lift
    as m -> 0; y takes up the rest of the norm, as when k = 0.  Every m > 0 gives the
    dual bound f p + (1-f) c_top + k (m + 1/(m + lift)), here at m = max(1 - lift, 1e-15).
    Tie rule: the rest goes to Psi- only when -p is strictly the larger top, else to e,
    which is Phi- when hypot(r, s) is at the rounding level (``_BLOCK_NOISE``): both
    count as 0 there, and atan2(0, 0) = 0.
    """
    top = math.hypot(r, s)
    if top <= _BLOCK_NOISE:
        r = s = top = 0.0
    c_top = max(-p, top)
    k = math.sqrt(f * (1.0 - f)) * abs(q)
    dual = f * p + (1.0 - f) * c_top
    x = 1.0 if -p > top else 0.0
    if k > 0.0:
        lift = (1.0 - f) * (c_top + p) / k
        m = max(1.0 - lift, 1e-15)
        x = 1.0 / max(lift, 1.0)
        dual += k * (m + 1.0 / (m + lift))
    rest, half = math.sqrt(1.0 - f), 0.5 * math.atan2(s, r)
    y = rest * math.sqrt(max(0.0, 1.0 - x * x))
    v = (math.sqrt(f), math.copysign(rest * x, q), y * math.cos(half), y * math.sin(half))
    value = _form(v, (p, q, r, s))
    return value, v, dual - value


def _abs_form_on_witness(v: Quad, pairs: list[Quad]) -> float:
    """Absolute-value CHSH combination on a witness, from the pairs' blocks."""
    q11, q12, q21, q22 = (_form(v, blocks) for blocks in pairs)
    return bell_signal(q22, q12, q21, q11)


def _ket(v: Quad) -> Quad:
    """Bell coordinates (Phi+, Psi-, Phi-, Psi+) to the atom-first computational basis."""
    phi_p, psi_m, phi_m, psi_p = (c / math.sqrt(2.0) for c in v)
    return (phi_p + phi_m, psi_p + psi_m, psi_p - psi_m, phi_p - phi_m)


def extremal_bell_numeric(f: float, angles: BellAngles) -> ExtremalResult:
    """Extremize the signed Bell signal at ``angles`` over states with fidelity f.

    Both extremes are exact on W's blocks (P, Q, R, S), the pairs' blocks signed as in
    q11 - q12 + q21 + q22 (``min`` as the maximum of -W).  Where the optimal witness is
    not unique, ``abs_form_*`` follows ``_max_expectation``'s tie rule: at the canonical
    angles the maximum's witness is sqrt(F) Phi+ + sqrt(1 - F) Phi-.  ``converged`` means
    a duality gap of at most 1e-9.  Fidelities below 1/2 are flagged out-of-regime; an
    azimuth other than 0 or pi is out of the x-z plane and raises ``ValueError``.
    """
    if not 0.0 <= f <= 1.0:
        raise ValueError(f"fidelity {f!r} outside [0, 1]")
    pairs = _pair_blocks(angles)
    blocks = [x11 - x12 + x21 + x22 for x11, x12, x21, x22 in zip(*pairs)]
    max_value, max_v, max_gap = _max_expectation(*blocks, f)
    neg_min_value, min_v, min_gap = _max_expectation(*(-b for b in blocks), f)
    if -neg_min_value > max_value + 1e-9:
        raise ValueError("extremal minimum exceeds maximum")
    gap = max(max_gap, min_gap)
    return ExtremalResult(
        bell_min=-neg_min_value,
        bell_max=max_value,
        witness_min=_ket(min_v),
        witness_max=_ket(max_v),
        abs_form_min=_abs_form_on_witness(min_v, pairs),
        abs_form_max=_abs_form_on_witness(max_v, pairs),
        duality_gap=gap,
        converged=bool(gap <= 1e-9),
        out_of_regime=f < 0.5,
    )


def enumerate_strategies() -> list[tuple[tuple[int, int, int, int], float]]:
    """All 16 deterministic local strategies ((a1, a2, b1, b2), Bell value), outcomes +-1.

    Deterministic strategies are the extreme points of the local set, so
    by convexity the largest value bounds every stochastic local model.
    """
    return [
        ((a1, a2, b1, b2), bell_signal(float(a2 * b2), float(a1 * b2), float(a2 * b1), float(a1 * b1)))
        for a1, a2, b1, b2 in itertools.product((1, -1), repeat=4)
    ]


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
    import numpy as np

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
