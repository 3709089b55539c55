"""Tests of the benchmark's references and checks against known closed forms.

    python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

import checks
import reference as ref
import run

CANONICAL = (0.0, math.pi / 2, math.pi / 4, 3 * math.pi / 4)


# ---------------------------------------------------------------------------
# Bell windows


@pytest.mark.parametrize("f", [0.0, 0.3, 0.5, 0.6, 0.87, 0.95, 1.0])
def test_canonical_window_is_the_closed_form(f):
    low, high = ref.bell_window(f, CANONICAL)
    assert low == pytest.approx(2 * ref.SQRT2 * (2 * f - 1), abs=1e-9)
    assert high == pytest.approx(2 * ref.SQRT2 * f, abs=1e-9)


def test_window_bounds_random_states_at_custom_angles():
    rng = np.random.default_rng(7)
    angles = tuple(a * math.pi for a in (0.1, 0.4, 0.15, 0.9))
    w = ref.chsh_operator(*angles)
    projector = np.outer(ref.IDEAL_PAIR, ref.IDEAL_PAIR.conj())
    for _ in range(50):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        f = float(np.real(np.trace(rho @ projector)))
        value = float(np.real(np.trace(rho @ w)))
        low, high = ref.bell_window(f, angles)
        assert low - 1e-9 <= value <= high + 1e-9
    low, high = ref.bell_window(0.87, angles)
    assert (low, high) == pytest.approx((1.7597, 2.3528), abs=1e-4)


# ---------------------------------------------------------------------------
# Repeater latency


@pytest.mark.parametrize("p", [0.5, 2e-4, 1e-6])
def test_one_link_waits_one_over_p(p):
    assert ref.expected_max_attempts(1, p) == pytest.approx(1.0 / p, rel=1e-9)


def test_two_links_match_inclusion_exclusion():
    p = 2e-4
    assert ref.expected_max_attempts(2, p) == pytest.approx(2 / p - 1 / (1 - (1 - p) ** 2), rel=1e-12)


@pytest.mark.parametrize("n", [2, 3, 10, 59])
def test_latency_tends_to_harmonic_number_over_p(n):
    p = 1e-5
    harmonic = sum(1.0 / k for k in range(1, n + 1))
    assert ref.expected_max_attempts(n, p) * p == pytest.approx(harmonic, rel=1e-4)


def test_sixty_node_chain():
    assert ref.expected_max_attempts(59, 2e-4) == pytest.approx(23314.187, abs=1e-3)


# ---------------------------------------------------------------------------
# Event-chain oracle


@pytest.mark.parametrize("theta_atom,theta_photon", [(0.0, math.pi / 4), (math.pi / 2, 3 * math.pi / 4), (0.3, 1.1)])
def test_two_pulse_werner_correlation(theta_atom, theta_photon):
    p, error = 0.82667, 0.025
    q, _ = ref.combined_correlation(
        2000, werner_p=p, theta_atom=theta_atom, theta_photon=theta_photon,
        pmt_efficiency=(1.0, 0.8), bright_error=error, dark_error=error,
    )
    assert q == pytest.approx(p * (1 - 2 * error) * math.cos(theta_atom - theta_photon), abs=1e-12)


def test_canonical_werner_bell_value():
    # 2*sqrt(2)*p at the canonical settings, times the readout contrast.
    p, error = 0.82667, 0.025
    q = {
        (i, j): ref.combined_correlation(
            2000, werner_p=p, theta_atom=a, theta_photon=b, bright_error=error, dark_error=error
        )[0]
        for i, a in ((1, 0.0), (2, math.pi / 2))
        for j, b in ((1, math.pi / 4), (2, 3 * math.pi / 4))
    }
    bell = abs(q[2, 2] - q[1, 2]) + abs(q[2, 1] + q[1, 1])
    assert bell == pytest.approx(2 * ref.SQRT2 * p * (1 - 2 * error), abs=1e-12)


def test_single_pulse_loses_the_transverse_correlation():
    dist, _, _ = ref.recorded_distribution(werner_p=1.0, theta_atom=0.3, theta_photon=1.1, single_pulse=True)
    q = dist[0, 0] + dist[1, 1] - dist[0, 1] - dist[1, 0]
    assert q == pytest.approx(math.cos(0.3) * math.cos(1.1), abs=1e-12)


def test_dark_clicks_read_the_ground_state_on_either_tube():
    dist, _, per_attempt = ref.recorded_distribution(
        werner_p=1.0, theta_atom=0.0, theta_photon=0.0, dark_event_probability=1.0, success_probability=0.0
    )
    assert dist == pytest.approx(np.array([[0.5, 0.5], [0.0, 0.0]]), abs=1e-12)
    assert per_attempt == pytest.approx(1.0)


def test_pmt_loss_and_role_swap():
    dist, acceptance, _ = ref.recorded_distribution(
        werner_p=1.0, theta_atom=0.0, theta_photon=0.0, pmt_efficiency=(1.0, 0.0), swapped=True
    )
    # Photon outcome 0 goes to tube 1, which is dead: only (atom 1, tube 0) is recorded.
    assert acceptance == pytest.approx(0.5)
    assert dist == pytest.approx(np.array([[0.0, 0.0], [1.0, 0.0]]), abs=1e-12)


def test_tally_deviation():
    assert ref.tally_deviation([250, 250, 250, 250], [0.25] * 4) == 0.0
    assert ref.tally_deviation([1, 0, 0, 999], [0.0, 0.0, 0.0, 1.0]) > 1e6


# ---------------------------------------------------------------------------
# Output checks on synthetic reports


def _bounds_report(window, converged=True):
    low, high = window
    witness = {"fidelity": 0.87, "eigenvalues": [0.0, 0.0, 0.13, 0.87]}
    return json.dumps({
        "results": {
            "closed_form": {"bell_min": low, "bell_max": high},
            "numeric": {"bell_min": low, "bell_max": high, "converged": converged},
            "witness_min": witness,
            "witness_max": witness,
        }
    })


def test_bounds_check_accepts_the_exact_window_and_rejects_the_canonical_one():
    custom = (0.1, 0.4, 0.15, 0.9)
    exact = ref.bell_window(0.87, tuple(a * math.pi for a in custom))
    assert checks.check_bounds(_bounds_report(exact), fidelity=0.87, angles_pi=custom)[0] == []
    canonical = ref.bell_window(0.87, CANONICAL)
    problems, diag = checks.check_bounds(_bounds_report(canonical), fidelity=0.87, angles_pi=custom)
    assert any("closed_form window" in p for p in problems)
    assert diag["window_err"] > 0.1


def test_bounds_csv_tolerance_follows_the_printed_digits():
    assert checks.printed_half_unit("2.46073") == pytest.approx(5e-6)
    assert checks.printed_half_unit("0.95") == pytest.approx(5e-3)


def _swap_report(nodes, latency):
    return json.dumps({
        "config": {"coupling": 1.0, "attenuation": 0.2, "fiber_length": 0.0, "link_success": 2e-4, "attempt_rate": 8300.0},
        "results": {
            "trials": 100000,
            "outcome_counts": {"psi_plus": 25000, "psi_minus": 25000, "fail": 50000},
            "success_rate": 0.5,
            "heralded": {
                name: {"probability": 0.25, "fidelity_to_heralded": 1.0, "bell_value": 2 * ref.SQRT2}
                for name in ("psi_plus", "psi_minus")
            },
            "chain": {"nodes": nodes, "links": nodes - 1, "expected_latency_s": latency},
        },
    })


def test_swap_check_uses_the_exact_series():
    exact = ref.chain_latency_s(60, 2e-4, 8300.0)
    assert checks.check_swap(_swap_report(60, exact), trials=100000, nodes=60)[0] == []
    problems, diag = checks.check_swap(_swap_report(60, 52966 / 8300.0), trials=100000, nodes=60)
    assert any("expected_latency_s" in p for p in problems)
    assert diag["latency_rel_err"] == pytest.approx(52966 / 23314.187 - 1, rel=1e-4)


def test_non_finite_output_is_unparsable():
    with pytest.raises(checks.Unparsable):
        checks.parse_json('{"results": {"success_rate": NaN}}')


def test_fixture_check():
    text = json.dumps({"results": {"experiments": [
        {"experiment": 1, "bell_value": 0.613 + 0.519 + 0.513 + 0.558},
        {"experiment": 2, "bell_value": 0.605 + 0.516 + 0.461 + 0.636},
    ]}})
    assert checks.check_chsh_fixture(text)[0] == []


# ---------------------------------------------------------------------------
# Metrics


def test_tail_keeps_ten_samples_beyond():
    values = list(range(1, 31))
    value, percentile, beyond = run.tail(values)
    assert (value, beyond) == (20, 10)
    assert percentile == pytest.approx(100 * 20 / 30)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_scipy_import_time_counts_only_outermost_scipy_modules():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       scipy._lib",
        "import time:       200 |        300 |     scipy",
        "import time:       400 |        700 |   scipy.optimize",
        "import time:        50 |        750 | bellsim.bounds",
        "import time:        10 |         10 | scipy.linalg",
    ])
    assert run.scipy_import_s(stderr) == pytest.approx(710e-6)


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.workloads.WORKLOADS)
