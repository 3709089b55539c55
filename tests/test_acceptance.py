"""Acceptance suite: one test per criterion, tolerances pinned as stated.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.
"""

import math
import subprocess
import sys
import time

import numpy as np
from conftest import canonical_window

from bellsim.bounds import (
    enumerate_strategies,
    extremal_bell_numeric,
    tsirelson_scan,
)
from bellsim.harness import reference_bell_results, run_experiment
from bellsim.loopholes import light_cone_separation
from bellsim.network import (
    PSI_MINUS,
    PSI_PLUS,
    adapted_bell_angles,
    heralded_ion_state,
    swap_conditional_states,
    _analyzer_probabilities,
)
from bellsim.protocol import (
    SINGLE_PULSE,
    TWO_PULSE,
    DetectorParams,
    PulseSequence,
    SourceParams,
    iter_heralded_events,
    simulate_attempts,
    _readout_coefficients,
)
from bellsim.states import (
    BellAngles,
    MeasurementSetting,
    bell_signal,
    chsh_operator,
    correlation,
    fidelity,
    werner,
)

TSIRELSON = 2.0 * math.sqrt(2.0)


def _report(criterion: int, description: str, ok: bool) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion:2d} [{status}] {description}")
    assert ok, f"criterion {criterion} failed: {description}"


def test_criterion_01_reference_table_recomputation():
    first, second = reference_bell_results()
    ok = abs(first["bell_value"] - 2.203) <= 5e-4 and abs(second["bell_value"] - 2.218) <= 5e-4
    _report(1, "published correlations recompute to B = 2.203 and 2.218 (+/- 0.0005)", ok)


def test_criterion_02_ideal_state_maximum():
    pair = werner(1.0)
    q = lambda a, b: correlation(pair, MeasurementSetting(a), MeasurementSetting(b))
    value = bell_signal(
        q(math.pi / 2, 3 * math.pi / 4),
        q(0.0, 3 * math.pi / 4),
        q(math.pi / 2, math.pi / 4),
        q(0.0, math.pi / 4),
    )
    ok = abs(value - TSIRELSON) <= 1e-12
    _report(2, f"ideal pair at (0, pi/2; pi/4, 3pi/4) gives B = 2*sqrt(2) (err {abs(value - TSIRELSON):.1e})", ok)


def test_criterion_03_correlation_law_on_grid():
    pair = werner(1.0)
    worst = 0.0
    for theta_a in np.linspace(0.0, math.pi, 10):
        for theta_b in np.linspace(0.0, math.pi, 10):
            q = correlation(pair, MeasurementSetting(theta_a), MeasurementSetting(theta_b))
            worst = max(worst, abs(q - math.cos(theta_a - theta_b)))
    ok = worst <= 1e-12
    _report(3, f"q = cos(theta_a - theta_b) on a 100-point grid (worst err {worst:.1e})", ok)


def test_criterion_04_fidelity_window():
    start = time.time()
    numeric = extremal_bell_numeric(0.87, BellAngles.canonical())
    elapsed = time.time() - start
    closed_min, closed_max = canonical_window(0.87)
    ok = (
        abs(numeric.bell_min - 2.0930) <= 5e-5
        and abs(numeric.bell_max - 2.4607) <= 5e-5
        and round(numeric.bell_min, 2) == 2.09
        and round(numeric.bell_max, 2) == 2.46
        and abs(numeric.bell_min - closed_min) <= 1e-3
        and abs(numeric.bell_max - closed_max) <= 1e-3
        and elapsed < 10.0
    )
    _report(
        4,
        f"F = 0.87 window (2.0930, 2.4607); 2*sqrt(2)*[2F - 1, F] agrees to 1e-3 in {elapsed:.1f}s",
        ok,
    )


def test_criterion_05_lhv_ceiling_and_tsirelson_scan():
    best = max(value for _, value in enumerate_strategies())
    scan = tsirelson_scan(64)
    ok = best == 2.0 and abs(scan.bell_value - TSIRELSON) <= 1e-9
    _report(
        5,
        f"deterministic strategies max at exactly 2; on-grid scan reaches 2*sqrt(2) (err {abs(scan.bell_value - TSIRELSON):.1e})",
        ok,
    )


def test_criterion_06_monte_carlo_convergence():
    start = time.time()
    det = DetectorParams()
    ideal = run_experiment(100_000, SourceParams(), det, seed=42)
    werner_run = run_experiment(100_000, SourceParams(werner_p=0.82667), det, seed=42)
    elapsed = time.time() - start
    ok = elapsed < 60.0
    for result in ideal:
        ok = ok and abs(result["bell_value"] - 2.82843) <= 3.0 * result["bell_sigma"]
    for result in werner_run:
        ok = ok and abs(result["bell_value"] - 2.33822) <= 3.0 * result["bell_sigma"]
    _report(
        6,
        f"1e5 events/setting: ideal within 3 sigma of 2.82843, mixed within 3 sigma of 2.33822 ({elapsed:.1f}s)",
        ok,
    )


def test_criterion_07_statistical_scale():
    first, second = run_experiment(2000, SourceParams(werner_p=0.82667), DetectorParams(), seed=6)
    sigmas = [first["bell_sigma"], second["bell_sigma"]]
    ok = all(0.02 <= s <= 0.05 for s in sigmas) and 0.02 <= 0.028 <= 0.05
    _report(
        7,
        f"sigma_B at 2000 events/setting in [0.02, 0.05] (got {sigmas[0]:.4f}, {sigmas[1]:.4f}); "
        "published 0.028 inside the band",
        ok,
    )


def test_criterion_08_phase_locking():
    rng = np.random.default_rng(2)
    # two-pulse covariance: readout coefficients (A, B) exactly invariant
    worst = 0.0
    for _ in range(50):
        amps = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        state = amps / np.linalg.norm(amps)
        atom = np.outer(state, state.conj())[None]
        theta = rng.uniform(0.0, math.pi)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        transfer = rng.uniform(0.0, 2.0 * math.pi)
        offset = rng.uniform(-20.0, 20.0)
        base = _readout_coefficients(atom, PulseSequence(TWO_PULSE, theta, phi, transfer))
        shifted = _readout_coefficients(
            atom, PulseSequence(TWO_PULSE, theta, phi + offset, transfer + offset)
        )
        worst = max(worst, float(np.max(np.abs(np.subtract(base, shifted)))))
    two_pulse_ok = worst <= 1e-12

    # single-pulse dephasing at 14.5 GHz across the 50 ns window: with the
    # atom and photon analysed along the same axis, the two-pulse readout
    # would be perfectly correlated; here the correlation washes out
    n = 10_000
    events = iter_heralded_events(
        n,
        SourceParams(),
        PulseSequence(SINGLE_PULSE, math.pi / 2),
        MeasurementSetting(math.pi / 2),
        DetectorParams(),
        rng,
    )
    washout = abs(sum(1 if e.atom_outcome == e.photon_outcome else -1 for e in events) / n)
    single_pulse_ok = washout <= 5.0 / math.sqrt(n)
    _report(
        8,
        f"two-pulse offsets invariant (err {worst:.1e}); single-pulse correlation washes to 0 "
        f"(|q| {washout:.4f} < {5.0 / math.sqrt(n):.4f})",
        two_pulse_ok and single_pulse_ok,
    )


def test_criterion_09_source_budget():
    source = SourceParams()
    prob_ok = abs(source.success_probability - 2.0e-4) <= 1e-15
    rng = np.random.default_rng(14)
    events = simulate_attempts(
        10_000_000,
        source,
        PulseSequence(TWO_PULSE, 0.0),
        MeasurementSetting(math.pi / 4),
        DetectorParams(),
        rng,
    )
    band = 5.0 * math.sqrt(2000.0 * (1.0 - 2.0e-4))
    count_ok = abs(len(events) - 2000.0) <= band
    _report(
        9,
        f"per-attempt success 2.0e-4; 1e7 attempts gave {len(events)} events (2000 +/- {band:.0f})",
        prob_ok and count_ok,
    )


def test_criterion_10_loophole_arithmetic():
    slow = light_cone_separation(125e-6)
    fast = light_cone_separation(50e-6)
    midpoint_km = fast / 2 / 1000.0
    ok = (
        abs(slow / 1000.0 - 37.47) <= 0.005
        and not 1.1 >= slow
        and abs(fast / 1000.0 - 14.99) <= 0.005
        and abs(midpoint_km - 7.5) <= 0.01
    )
    _report(
        10,
        f"125us -> {slow / 1000.0:.2f} km (open at 1.1 m); "
        f"50us -> {fast / 1000.0:.2f} km, midpoint {midpoint_km:.2f} km",
        ok,
    )


def test_criterion_11_swap_correctness():
    pair = werner(1.0)
    conditionals = swap_conditional_states(pair, pair)
    probabilities = _analyzer_probabilities(conditionals)
    rng = np.random.default_rng(21)
    n = 100_000
    counts = rng.multinomial(
        n, [probabilities[PSI_PLUS], probabilities[PSI_MINUS],
            1.0 - probabilities[PSI_PLUS] - probabilities[PSI_MINUS]]
    )
    success_rate = (counts[0] + counts[1]) / n
    rate_ok = abs(success_rate - 0.5) <= 0.005
    state_ok = True
    for outcome in (PSI_PLUS, PSI_MINUS):
        _, state = conditionals[outcome]
        state_ok = state_ok and fidelity(state, heralded_ion_state(outcome)) >= 0.999
        value = float(np.real(np.trace(state.matrix @ chsh_operator(adapted_bell_angles(outcome)))))
        state_ok = state_ok and abs(value - TSIRELSON) <= 1e-9
    _report(
        11,
        f"swap success {success_rate:.4f} (0.5 +/- 0.005); heralded fidelity >= 0.999 with "
        "analytic B = 2*sqrt(2)",
        rate_ok and state_ok,
    )


def test_criterion_12_reproducibility(tmp_path):
    commands = [
        ["chsh", "--events", "200"],
        ["bounds", "--fidelity", "0.87"],
        ["lhv", "--grid", "16"],
        ["loopholes"],
        ["swap", "--trials", "2000"],
    ]
    ok = True
    for argv in commands:
        outputs = []
        for index in range(2):
            path = tmp_path / f"{argv[0]}_{index}.json"
            result = subprocess.run(
                [sys.executable, "-m", "bellsim.cli", *argv, "--seed", "33",
                 "--output", str(path)],
                capture_output=True,
                text=True,
            )
            ok = ok and result.returncode == 0
            outputs.append(path.read_bytes())
        ok = ok and outputs[0] == outputs[1]
    _report(12, "every command rerun with the same seed and config is byte-identical", ok)
