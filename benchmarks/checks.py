"""Output checks for the benchmark's ops, against ``reference``.

Each check takes the text an op printed and returns ``(problems,
diagnostics)``: an op passes when ``problems`` is empty.  Diagnostics are
the numbers the traced run reports per layer (window and latency errors,
the optimiser's convergence flag) and are filled in even when the op fails.
"""

from __future__ import annotations

import csv
import io
import json
import math
from decimal import Decimal

import numpy as np

import reference as ref

SIGMA_BAND = 5.0
WINDOW_TOL = 1e-6
LATENCY_RTOL = 1e-9
EXACT_RTOL = 1e-9

Result = tuple[list[str], dict]


class Unparsable(ValueError):
    """The op's output is not a well-formed report."""


def _reject_constant(token: str) -> float:
    raise Unparsable(f"non-finite value {token} in report")


def parse_json(text: str) -> dict:
    try:
        report = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise Unparsable(f"report is not JSON: {exc}") from exc
    if not isinstance(report, dict) or not isinstance(report.get("results"), dict):
        raise Unparsable("report has no results object")
    return report


def parse_csv(text: str) -> list[dict[str, str]]:
    """Rows of a CSV report below its '#' header lines, as dicts."""
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    rows = list(csv.DictReader(io.StringIO("\n".join(lines))))
    if not rows:
        raise Unparsable("CSV report has no rows")
    for row in rows:
        for value in row.values():
            if value is not None and value.strip().lower() in ("nan", "inf", "-inf", "+inf"):
                raise Unparsable(f"non-finite value {value} in report")
    return rows


def printed_half_unit(text: str) -> float:
    """Half a unit in the last printed digit of a number written as text."""
    return 0.5 * 10.0 ** Decimal(text.strip()).as_tuple().exponent


def _close(value: float, expected: float, rtol: float = EXACT_RTOL) -> bool:
    return math.isfinite(value) and abs(value - expected) <= rtol * max(1.0, abs(expected))


# ---------------------------------------------------------------------------
# chsh


CHSH_SETTINGS_PI = {
    # experiment -> (role-A angles, role-B angles, which qubit holds role A)
    1: ((0.0, 0.5), (0.25, 0.75), "ion"),
    2: ((0.0, 0.5), (0.25, 0.75), "photon"),
}


def _chsh_experiments(text: str, fmt: str) -> dict[int, dict]:
    """{experiment: {"corr": {(ion_pi, photon_pi): (q, sigma, events)}, "bell": (B, sigma_B, B_text)}}."""
    experiments: dict[int, dict] = {1: {"corr": {}}, 2: {"corr": {}}}
    if fmt == "json":
        for block in parse_json(text)["results"]["experiments"]:
            entry = experiments[int(block["experiment"])]
            for est in block["correlations"]:
                key = (round(est["theta_ion_pi"], 6), round(est["theta_photon_pi"], 6))
                entry["corr"][key] = (est["correlation"], est["sigma"], est["events"])
            entry["bell"] = (block["bell_value"], block["bell_sigma"], None)
        return experiments
    for row in parse_csv(text):
        entry = experiments[int(row["experiment"])]
        if row["record"] == "correlation":
            key = (round(float(row["theta_ion_pi"]), 6), round(float(row["theta_photon_pi"]), 6))
            entry["corr"][key] = (float(row["value"]), float(row["sigma"]), None)
        elif row["record"] == "bell":
            entry["bell"] = (float(row["value"]), float(row["sigma"]), row["value"])
    return experiments


def check_chsh(
    text: str, *, fmt: str = "json", events: int = 2000, werner_p: float = 1.0,
    pmt_efficiency_2: float = 1.0,
) -> Result:
    """Every correlation and both Bell values within 5 sigma of the projector oracle."""
    problems: list[str] = []
    experiments = _chsh_experiments(text, fmt)
    for number, (a_angles, b_angles, role_a) in CHSH_SETTINGS_PI.items():
        got = experiments[number]
        expected_q: dict[tuple[int, int], tuple[float, float]] = {}
        reported_q: dict[tuple[int, int], float] = {}
        for i, a in enumerate(a_angles, start=1):
            for j, b in enumerate(b_angles, start=1):
                ion, photon = (a, b) if role_a == "ion" else (b, a)
                key = (round(ion, 6), round(photon, 6))
                if key not in got["corr"]:
                    problems.append(f"experiment {number}: no correlation at ion={ion}pi photon={photon}pi")
                    continue
                q, _, n_events = got["corr"][key]
                q_exp, sigma_exp = ref.combined_correlation(
                    events, werner_p=werner_p, theta_atom=ion * math.pi,
                    theta_photon=photon * math.pi, pmt_efficiency=(1.0, pmt_efficiency_2),
                )
                expected_q[(i, j)] = (q_exp, sigma_exp)
                reported_q[(i, j)] = q
                if abs(q - q_exp) > SIGMA_BAND * sigma_exp:
                    problems.append(
                        f"experiment {number}: q({ion},{photon}) = {q:.4f}, oracle {q_exp:.4f}"
                        f" +- {sigma_exp:.4f}"
                    )
                if n_events is not None and n_events != events:
                    problems.append(f"experiment {number}: {n_events} events, asked for {events}")
        if len(expected_q) != 4 or "bell" not in got:
            problems.append(f"experiment {number}: incomplete report")
            continue
        b_value, b_sigma, b_text = got["bell"]

        def combine(q: dict) -> float:
            return abs(q[(2, 2)] - q[(1, 2)]) + abs(q[(2, 1)] + q[(1, 1)])

        b_exp = combine({k: v[0] for k, v in expected_q.items()})
        sigma_b = math.sqrt(sum(v[1] ** 2 for v in expected_q.values()))
        if abs(b_value - b_exp) > SIGMA_BAND * sigma_b:
            problems.append(
                f"experiment {number}: B = {b_value:.4f}, oracle {b_exp:.4f} +- {sigma_b:.4f}"
            )
        consistency_tol = 1e-9 if b_text is None else 8 * printed_half_unit(b_text)
        if abs(b_value - combine(reported_q)) > consistency_tol:
            problems.append(f"experiment {number}: B does not combine the reported correlations")
        if not 0.75 * sigma_b <= b_sigma <= 1.25 * sigma_b:
            problems.append(f"experiment {number}: sigma_B = {b_sigma:.4f}, expected about {sigma_b:.4f}")
    return problems, {}


def check_chsh_fixture(text: str) -> Result:
    """The published correlations recombine to 2.203 and 2.218."""
    problems = []
    for block in parse_json(text)["results"]["experiments"]:
        expected = {1: 2.203, 2: 2.218}[int(block["experiment"])]
        if not abs(block["bell_value"] - expected) < 1e-9:
            problems.append(f"experiment {block['experiment']}: B = {block['bell_value']}, expected {expected}")
    return problems, {}


# ---------------------------------------------------------------------------
# lhv, loopholes


def check_lhv(text: str, *, grid: int) -> Result:
    problems = []
    results = parse_json(text)["results"]
    seen = set()
    for entry in results["strategies"]:
        a1, a2, b1, b2 = (entry[k] for k in ("a1", "a2", "b1", "b2"))
        seen.add((a1, a2, b1, b2))
        value = abs(a2 * b2 - a1 * b2) + abs(a2 * b1 + a1 * b1)
        if entry["bell_value"] != value:
            problems.append(f"strategy {(a1, a2, b1, b2)}: B = {entry['bell_value']}, expected {value}")
    if seen != {(a1, a2, b1, b2) for a1 in (1, -1) for a2 in (1, -1) for b1 in (1, -1) for b2 in (1, -1)}:
        problems.append("strategies are not the 16 deterministic assignments")
    if results["max_bell"] != 2:
        problems.append(f"LHV maximum {results['max_bell']}, expected 2")
    scan = results["tsirelson_scan"]
    a1, a2, b1, b2 = (t * math.pi for t in scan["thetas_pi"])
    at_thetas = abs(math.cos(a2 - b2) - math.cos(a1 - b2)) + abs(math.cos(a2 - b1) + math.cos(a1 - b1))
    if scan["grid_resolution"] != grid or not _close(scan["bell_value"], at_thetas):
        problems.append(f"scan value {scan['bell_value']} does not match its angles ({at_thetas})")
    # A grid divisible by 4 holds the canonical angles, so the scan reaches 2*sqrt(2).
    if grid % 4 == 0 and not _close(scan["bell_value"], 2 * ref.SQRT2):
        problems.append(f"scan maximum {scan['bell_value']}, expected 2*sqrt(2)")
    return problems, {}


def check_loopholes(text: str, *, detection_time: float) -> Result:
    problems = []
    report = parse_json(text)
    config, results = report["config"], report["results"]
    if config["detection_time"] != detection_time or not config["feasibility_grid"]:
        problems.append("report config does not echo the requested flags")
    required = ref.SPEED_OF_LIGHT * (config["detection_time"] + config["rotation_time"])
    locality = results["locality"]
    expected = {
        "required_separation_m": (locality["required_separation_m"], required),
        "midpoint_distance_m": (results["midpoint_distance_m"], required / 2.0),
        "detection_efficiency": (
            results["detection_budget"]["efficiency"],
            math.prod(config["detection_efficiencies"]),
        ),
    }
    for entry in results["survival_sweep"]:
        survival = config["coupling"] * 10.0 ** (-entry["attenuation_db_per_km"] * required / 2e3 / 10.0)
        expected[f"survival at {entry['attenuation_db_per_km']} dB/km"] = (entry["survival"], survival)
    for row in results["feasibility_grid"]:
        row_required = ref.SPEED_OF_LIGHT * row["detection_time_us"] * 1e-6
        expected[f"required km at {row['detection_time_us']} us"] = (
            row["required_separation_km"], row_required / 1e3,
        )
        for sep, closed in row["closed_at_km"].items():
            if closed != (float(sep) * 1e3 >= row_required):
                problems.append(f"feasibility at {row['detection_time_us']} us, {sep} km is wrong")
    for name, (value, want) in expected.items():
        if not _close(value, want):
            problems.append(f"{name} = {value}, expected {want}")
    if locality["closed"] != (config["separation"] >= required):
        problems.append("locality verdict is wrong")
    return problems, {}


# ---------------------------------------------------------------------------
# swap


def check_swap(text: str, *, trials: int, nodes: int) -> Result:
    problems = []
    report = parse_json(text)
    config, results = report["config"], report["results"]
    counts = results["outcome_counts"]
    if results["trials"] != trials or sum(counts.values()) != trials:
        problems.append(f"outcome counts {counts} do not add up to {trials} trials")
    for outcome in ("psi_plus", "psi_minus"):
        # Two ideal pairs: each odd-parity Bell state heralds with probability 1/4.
        if abs(counts[outcome] - trials / 4) > SIGMA_BAND * math.sqrt(trials * 0.25 * 0.75):
            problems.append(f"{outcome} count {counts[outcome]} is off 1/4 of {trials}")
        heralded = results["heralded"][outcome]
        for key, want in (("probability", 0.25), ("fidelity_to_heralded", 1.0), ("bell_value", 2 * ref.SQRT2)):
            if not _close(heralded[key], want):
                problems.append(f"{outcome} {key} = {heralded[key]}, expected {want}")
    if not _close(results["success_rate"], (counts["psi_plus"] + counts["psi_minus"]) / trials):
        problems.append("success_rate does not match the counts")
    chain = results["chain"]
    survival = config["coupling"] * 10.0 ** (-config["attenuation"] * config["fiber_length"] / 1e4)
    want = ref.chain_latency_s(nodes, config["link_success"] * survival, config["attempt_rate"])
    got = chain["expected_latency_s"]
    rel_err = abs(got - want) / want
    if chain["links"] != nodes - 1 or rel_err > LATENCY_RTOL:
        problems.append(
            f"expected_latency_s = {got:.6g} for {nodes} nodes, exact series gives {want:.6g}"
            f" ({want * config['attempt_rate']:.0f} attempts)"
        )
    return problems, {"latency_rel_err": rel_err}


# ---------------------------------------------------------------------------
# bounds


def _bounds_sections(text: str, fmt: str) -> dict[str, dict[str, tuple[float, float]]]:
    """{section: {key: (value, tolerance added by printing)}}."""
    if fmt == "json":
        results = parse_json(text)["results"]
        sections = {
            name: {k: (float(v), 0.0) for k, v in results[name].items()}
            for name in ("closed_form", "numeric")
        }
        for name in ("witness_min", "witness_max"):
            sections[name] = {"fidelity": (results[name]["fidelity"], 0.0)}
            for i, value in enumerate(results[name]["eigenvalues"]):
                sections[name][f"eigenvalue_{i}"] = (value, 0.0)
        return sections
    sections: dict[str, dict[str, tuple[float, float]]] = {}
    for row in parse_csv(text):
        if row["record"] != "fidelity":
            sections.setdefault(row["record"], {})[row["key"]] = (
                float(row["value"]), printed_half_unit(row["value"]),
            )
    return sections


def check_bounds(text: str, *, fidelity: float, angles_pi: tuple[float, ...], fmt: str = "json") -> Result:
    """Every window the report gives must match the exact dual within 1e-6."""
    problems = []
    sections = _bounds_sections(text, fmt)
    want_min, want_max = ref.bell_window(fidelity, tuple(a * math.pi for a in angles_pi))
    window_err = 0.0
    for name in ("closed_form", "numeric"):
        if name not in sections:
            continue
        (got_min, tol_min), (got_max, tol_max) = sections[name]["bell_min"], sections[name]["bell_max"]
        err = max(abs(got_min - want_min), abs(got_max - want_max))
        window_err = max(window_err, err)
        if abs(got_min - want_min) > WINDOW_TOL + tol_min or abs(got_max - want_max) > WINDOW_TOL + tol_max:
            problems.append(
                f"{name} window [{got_min:.6f}, {got_max:.6f}] differs from the exact"
                f" [{want_min:.6f}, {want_max:.6f}] by {err:.3g}"
            )
    for name in ("witness_min", "witness_max"):
        witness = sections.get(name, {})
        got, tol = witness.get("fidelity", (math.nan, 0.0))
        if not abs(got - fidelity) <= WINDOW_TOL + tol:
            problems.append(f"{name} fidelity {got}, expected {fidelity}")
        eigenvalues = [v for k, (v, _) in witness.items() if k.startswith("eigenvalue")]
        if len(eigenvalues) != 4 or min(eigenvalues) < -1e-9 or abs(sum(eigenvalues) - 1.0) > 1e-5:
            problems.append(f"{name} is not a density matrix: eigenvalues {eigenvalues}")
    if "numeric" not in sections and "closed_form" not in sections:
        problems.append("report gives no window")
    converged = sections.get("numeric", {}).get("converged", (1.0, 0.0))[0]
    return problems, {"window_err": window_err, "converged": float(bool(converged))}


# ---------------------------------------------------------------------------
# event blocks


def check_block(result: dict) -> Result:
    """Tallies of one event block within 5 sigma of the projector oracle."""
    problems = []
    dist, _, per_attempt = ref.recorded_distribution(**result["oracle"])
    counts = np.array(result["counts"])
    z = ref.tally_deviation(counts, dist)
    if z > SIGMA_BAND:
        problems.append(f"tallies {counts.tolist()} deviate {z:.1f} sigma from {np.round(dist, 4).tolist()}")
    if not result["indices_increasing"]:
        problems.append("attempt indices are not strictly increasing")
    n_attempts = result.get("n_attempts")
    if n_attempts is not None:
        n = result["events"]
        mean = n_attempts * per_attempt
        if abs(n - mean) > SIGMA_BAND * math.sqrt(mean * (1.0 - per_attempt)):
            problems.append(f"{n} recorded events in {n_attempts} attempts, expected {mean:.0f}")
        if result["attempts"] > n_attempts:
            problems.append("an attempt index lies beyond the block")
    elif result["events"] != result["requested"]:
        problems.append(f"{result['events']} events, asked for {result['requested']}")
    return problems, {}
