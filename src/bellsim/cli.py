"""Command-line interface: seeded experiment runs and table/report emission.

Commands: ``chsh`` (the full four-correlation measurement), ``bounds``
(fidelity-constrained Bell-signal window), ``lhv`` (deterministic local
strategies and the ideal-pair angle scan), ``loopholes`` (light-cone and
fiber-budget arithmetic), and ``swap`` (two-pair entanglement swapping
and repeater latency).

Configuration comes from defaults, an optional strict JSON config file,
and command-line flags, in increasing precedence.  Unknown config keys
are rejected.  Every report embeds the tool version, the seed, and the
fully resolved configuration, and identical (seed, config) runs produce
byte-identical output.  Angles are given in units of pi (0.25 means
pi/4).  Exit codes: 0 success, 1 runtime failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from typing import Any, Callable, Sequence

import numpy as np

from . import __version__
from .bounds import (
    _MAX_GRID,
    FidelityConstraint,
    enumerate_strategies,
    extremal_bell_closed_form,
    extremal_bell_numeric,
    lhv_enumerate,
    tsirelson_scan,
)
from .harness import SettingsPlan, reference_bell_results, run_experiment
from .network import (
    BSA_FAIL,
    PSI_MINUS,
    PSI_PLUS,
    GeometryConfig,
    LinkBudget,
    adapted_bell_angles,
    chain_latency,
    detection_accounting,
    heralded_ion_state,
    locality_check,
    photon_midpoint_distance,
    photon_survival,
    swap_conditional_states,
)
from .protocol import DetectorParams, SourceParams
from .states import BellAngles, bell_pair_ideal, chsh_operator, fidelity, werner

DEFAULT_SEED = 12345
TOOL_NAME = "bellsim"


class ConfigError(ValueError):
    """Invalid configuration: unknown key, bad type, out-of-range or missing value."""


# Allowed values of a numeric key: (description, test).  NaN and infinite
# values are rejected for every key that has one.
_Allowed = tuple[str, Callable[[Any], bool]]
_UNIT: _Allowed = ("in [0, 1]", lambda v: 0.0 <= v <= 1.0)
_NON_NEGATIVE: _Allowed = ("finite and >= 0", lambda v: v >= 0.0)
_POSITIVE: _Allowed = ("finite and > 0", lambda v: v > 0.0)
_FINITE: _Allowed = ("finite", lambda v: True)

# Per-command configuration schema: key -> (json type, default, allowed values).
# ``None`` defaults mark required or optional-by-absence keys.
_COMMON_SCHEMA: dict[str, tuple[type, Any, _Allowed | None]] = {
    "seed": (int, DEFAULT_SEED, (">= 0", lambda v: v >= 0)),
    "format": (str, "json", None),
    "output": (str, None, None),
}

_SCHEMAS: dict[str, dict[str, tuple[type, Any, _Allowed | None]]] = {
    "chsh": {
        **_COMMON_SCHEMA,
        "events_per_setting": (int, 2000, (">= 2", lambda v: v >= 2)),
        "werner_p": (float, 1.0, _UNIT),
        "pmt_efficiency_1": (float, 1.0, _UNIT),
        "pmt_efficiency_2": (float, 1.0, _UNIT),
        "atom_bright_error": (float, 0.0, _UNIT),
        "atom_dark_error": (float, 0.0, _UNIT),
        "dark_event_probability": (float, 0.0, _UNIT),
        "table1_fixture": (bool, False, None),
    },
    "bounds": {
        **_COMMON_SCHEMA,
        "fidelity": (float, None, _UNIT),
        "angles_pi": (list, [0.0, 0.5, 0.25, 0.75], _FINITE),
    },
    "lhv": {
        **_COMMON_SCHEMA,
        "grid": (int, 64, (f"in [8, {_MAX_GRID}]", lambda v: 8 <= v <= _MAX_GRID)),
    },
    "loopholes": {
        **_COMMON_SCHEMA,
        "separation": (float, 1.1, _NON_NEGATIVE),
        "detection_time": (float, 125e-6, _NON_NEGATIVE),
        "rotation_time": (float, 0.0, _NON_NEGATIVE),
        "attenuation": (float, 0.2, _NON_NEGATIVE),
        "coupling": (float, 1.0, _UNIT),
        "attenuation_sweep": (list, [0.2, 1.0, 5.0, 10.0], _NON_NEGATIVE),
        "detection_efficiencies": (list, [0.10, 0.01, 0.20], _UNIT),
        "efficiency_threshold": (float, None, None),
        "feasibility_grid": (bool, False, None),
    },
    "swap": {
        **_COMMON_SCHEMA,
        "trials": (int, 100000, (">= 1", lambda v: v >= 1)),
        "werner_p_a": (float, 1.0, _UNIT),
        "werner_p_b": (float, 1.0, _UNIT),
        "nodes": (int, 2, (">= 2", lambda v: v >= 2)),
        "attempt_rate": (float, 8.3e3, _POSITIVE),
        "link_success": (float, 2.0e-4, ("in (0, 1]", lambda v: 0.0 < v <= 1.0)),
        "fiber_length": (float, 0.0, _NON_NEGATIVE),
        "attenuation": (float, 0.2, _NON_NEGATIVE),
        "coupling": (float, 1.0, _UNIT),
    },
}


def _check_type(command: str, key: str, value: Any, expected: type) -> Any:
    if expected is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{command}: key {key!r} must be a number, got {value!r}")
        return float(value)
    if expected is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{command}: key {key!r} must be an integer, got {value!r}")
        return value
    if expected is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{command}: key {key!r} must be a boolean, got {value!r}")
        return value
    if expected is list:
        if not isinstance(value, list) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in value
        ):
            raise ConfigError(f"{command}: key {key!r} must be a list of numbers, got {value!r}")
        return [float(v) for v in value]
    if expected is str:
        if value is not None and not isinstance(value, str):
            raise ConfigError(f"{command}: key {key!r} must be a string, got {value!r}")
        return value
    raise ConfigError(f"{command}: unsupported schema type for key {key!r}")


def resolve_config(
    command: str, file_values: dict[str, Any], flag_values: dict[str, Any]
) -> dict[str, Any]:
    """Merge defaults <- config file <- flags under the strict schema."""
    schema = _SCHEMAS[command]
    unknown = sorted(set(file_values) - set(schema))
    if unknown:
        raise ConfigError(f"{command}: unknown configuration keys {unknown}")
    config = {key: default for key, (_, default, _) in schema.items()}
    for key, value in file_values.items():
        config[key] = _check_type(command, key, value, schema[key][0])
    for key, value in flag_values.items():
        if value is None:
            continue
        config[key] = _check_type(command, key, value, schema[key][0])
    if config["format"] not in ("csv", "json"):
        raise ConfigError(f"{command}: format must be 'csv' or 'json', got {config['format']!r}")
    for key, (_, _, allowed) in schema.items():
        if allowed is None or config[key] is None:
            continue
        for value in config[key] if isinstance(config[key], list) else [config[key]]:
            if not (allowed[1](value) and abs(value) < math.inf):
                raise ConfigError(f"{command}: key {key!r} must be {allowed[0]}, got {value!r}")
    return config


def load_config_file(path: str) -> dict[str, Any]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path!r} must hold a JSON object")
    return data


def _fmt(value: float) -> str:
    """CSV number rendering: 6 significant digits, locale-independent."""
    return f"{value:.6g}"


def _report_skeleton(command: str, config: dict[str, Any]) -> dict[str, Any]:
    # The output path is I/O disposition, not computation: identical runs
    # written to different paths must still be byte-identical.
    embedded = {k: v for k, v in config.items() if k != "output"}
    return {
        "tool": TOOL_NAME,
        "version": __version__,
        "command": command,
        "seed": config["seed"],
        "config": embedded,
        "results": {},
    }


def _csv_header(report: dict[str, Any]) -> list[str]:
    config_json = json.dumps(report["config"], sort_keys=True, separators=(",", ":"))
    return [
        f"# tool={report['tool']} version={report['version']}",
        f"# command={report['command']}",
        f"# seed={report['seed']}",
        f"# config={config_json}",
    ]


def _render_csv(report: dict[str, Any], columns: list[str], rows: list[list[Any]]) -> str:
    buffer = io.StringIO()
    for line in _csv_header(report):
        buffer.write(line + "\n")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow(["" if v is None else (_fmt(v) if isinstance(v, float) else v) for v in row])
    return buffer.getvalue()


def _render_json(report: dict[str, Any]) -> str:
    return json.dumps(report, indent=2) + "\n"


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


# ---------------------------------------------------------------------------
# chsh


def _bell_result_dict(result) -> dict[str, Any]:
    return {
        "correlations": [
            {
                "theta_ion_pi": est.theta_ion / math.pi,
                "theta_photon_pi": est.theta_photon / math.pi,
                "correlation": est.correlation,
                "sigma": est.sigma,
                "events": est.events,
            }
            for est in result.correlations
        ],
        "bell_value": result.bell_value,
        "bell_sigma": result.bell_sigma,
        "events_used": result.events_used,
    }


def cmd_chsh(config: dict[str, Any]) -> dict[str, Any]:
    report = _report_skeleton("chsh", config)
    if config["table1_fixture"]:
        first, second = reference_bell_results()
    else:
        plan = SettingsPlan(events_per_setting=config["events_per_setting"])
        source = SourceParams(werner_p=config["werner_p"])
        det = DetectorParams(
            pmt_efficiency_1=config["pmt_efficiency_1"],
            pmt_efficiency_2=config["pmt_efficiency_2"],
            atom_bright_error=config["atom_bright_error"],
            atom_dark_error=config["atom_dark_error"],
            dark_event_probability=config["dark_event_probability"],
        )
        first, second = run_experiment(plan, source, det, seed=config["seed"])
    report["results"] = {
        "experiments": [
            {"experiment": 1, **_bell_result_dict(first)},
            {"experiment": 2, **_bell_result_dict(second)},
        ]
    }
    return report


def _chsh_csv(report: dict[str, Any]) -> str:
    columns = ["record", "experiment", "theta_ion_pi", "theta_photon_pi", "value", "sigma"]
    rows = []
    for block in report["results"]["experiments"]:
        for est in block["correlations"]:
            rows.append(
                [
                    "correlation",
                    block["experiment"],
                    est["theta_ion_pi"],
                    est["theta_photon_pi"],
                    est["correlation"],
                    est["sigma"],
                ]
            )
        rows.append(
            ["bell", block["experiment"], None, None, block["bell_value"], block["bell_sigma"]]
        )
    return _render_csv(report, columns, rows)


# ---------------------------------------------------------------------------
# bounds


def cmd_bounds(config: dict[str, Any]) -> dict[str, Any]:
    if config["fidelity"] is None:
        raise ConfigError("bounds: a fidelity value is required (--fidelity or config)")
    f = config["fidelity"]
    angles_pi = config["angles_pi"]
    if len(angles_pi) != 4:
        raise ConfigError("bounds: angles_pi needs exactly four values (a1, a2, b1, b2)")
    angles = BellAngles.from_thetas(*(a * math.pi for a in angles_pi))
    constraint = FidelityConstraint(f, angles=angles)
    closed_min, closed_max = extremal_bell_closed_form(f)
    numeric = extremal_bell_numeric(constraint)
    if numeric.out_of_regime:
        print(
            "warning: fidelity below 0.5 is outside the entangled regime; "
            "the signed minimum is negative",
            file=sys.stderr,
        )
    report = _report_skeleton("bounds", config)
    target = bell_pair_ideal()
    report["results"] = {
        "fidelity": f,
        "closed_form": {"bell_min": closed_min, "bell_max": closed_max},
        "numeric": {
            "bell_min": numeric.bell_min,
            "bell_max": numeric.bell_max,
            "abs_form_min": numeric.abs_form_min,
            "abs_form_max": numeric.abs_form_max,
            "duality_gap": numeric.duality_gap,
            "converged": numeric.converged,
            "out_of_regime": numeric.out_of_regime,
        },
        "witness_min": {
            "fidelity": fidelity(numeric.witness_min, target),
            "eigenvalues": sorted(np.linalg.eigvalsh(numeric.witness_min.matrix).tolist()),
        },
        "witness_max": {
            "fidelity": fidelity(numeric.witness_max, target),
            "eigenvalues": sorted(np.linalg.eigvalsh(numeric.witness_max.matrix).tolist()),
        },
    }
    return report


def _bounds_csv(report: dict[str, Any]) -> str:
    results = report["results"]
    rows = [["fidelity", "", results["fidelity"]]]
    for section in ("closed_form", "numeric"):
        for key, value in results[section].items():
            rows.append([section, key, float(value) if not isinstance(value, bool) else int(value)])
    for section in ("witness_min", "witness_max"):
        rows.append([section, "fidelity", results[section]["fidelity"]])
        for index, value in enumerate(results[section]["eigenvalues"]):
            rows.append([section, f"eigenvalue_{index}", value])
    return _render_csv(report, ["record", "key", "value"], rows)


# ---------------------------------------------------------------------------
# lhv


def cmd_lhv(config: dict[str, Any]) -> dict[str, Any]:
    report = _report_skeleton("lhv", config)
    table = enumerate_strategies()
    best, _ = lhv_enumerate()
    scan = tsirelson_scan(config["grid"])
    report["results"] = {
        "strategies": [
            {
                "a1": strategy.a1,
                "a2": strategy.a2,
                "b1": strategy.b1,
                "b2": strategy.b2,
                "bell_value": value,
            }
            for strategy, value in table
        ],
        "max_bell": best,
        "tsirelson_scan": {
            "grid_resolution": config["grid"],
            "bell_value": scan.bell_value,
            "thetas_pi": [t / math.pi for t in scan.thetas],
        },
    }
    return report


def _lhv_csv(report: dict[str, Any]) -> str:
    columns = ["record", "a1", "a2", "b1", "b2", "value"]
    rows = []
    for entry in report["results"]["strategies"]:
        rows.append(
            ["strategy", entry["a1"], entry["a2"], entry["b1"], entry["b2"], entry["bell_value"]]
        )
    rows.append(["max_bell", None, None, None, None, report["results"]["max_bell"]])
    scan = report["results"]["tsirelson_scan"]
    rows.append(["tsirelson_scan", *scan["thetas_pi"], scan["bell_value"]])
    return _render_csv(report, columns, rows)


# ---------------------------------------------------------------------------
# loopholes


def cmd_loopholes(config: dict[str, Any]) -> dict[str, Any]:
    geometry = GeometryConfig(
        atom_to_analysis_distance=config["separation"],
        atom_measurement_time=config["detection_time"],
        rotation_time=config["rotation_time"],
    )
    verdict = locality_check(geometry)
    midpoint = photon_midpoint_distance(verdict.required_separation)
    budget = detection_accounting(
        config["detection_efficiencies"], threshold=config["efficiency_threshold"]
    )
    sweep = []
    for attenuation in config["attenuation_sweep"]:
        link = LinkBudget(
            fiber_length=midpoint,
            attenuation_db_per_km=attenuation,
            coupling_efficiency=config["coupling"],
        )
        sweep.append({"attenuation_db_per_km": attenuation, "survival": photon_survival(link)})
    report = _report_skeleton("loopholes", config)
    report["results"] = {
        "locality": {
            "separation_m": config["separation"],
            "total_measurement_time_s": config["detection_time"] + config["rotation_time"],
            "required_separation_m": verdict.required_separation,
            "closed": verdict.closed,
        },
        "midpoint_distance_m": midpoint,
        "detection_budget": {
            "efficiency": budget.efficiency,
            "threshold": budget.threshold,
            "passes": budget.passes,
        },
        "survival_sweep": sweep,
    }
    if config["feasibility_grid"]:
        separations_km = [1.0, 5.0, 10.0, 15.0, 20.0, 37.5]
        times_us = [25.0, 50.0, 75.0, 100.0, 125.0]
        grid = []
        for time_us in times_us:
            geom = GeometryConfig(
                atom_to_analysis_distance=0.0, atom_measurement_time=time_us * 1e-6
            )
            required = locality_check(geom).required_separation
            grid.append(
                {
                    "detection_time_us": time_us,
                    "required_separation_km": required / 1000.0,
                    "closed_at_km": {
                        _fmt(sep): sep * 1000.0 >= required for sep in separations_km
                    },
                }
            )
        report["results"]["feasibility_grid"] = grid
    return report


def _loopholes_csv(report: dict[str, Any]) -> str:
    results = report["results"]
    rows = []
    locality = results["locality"]
    for key in ("separation_m", "total_measurement_time_s", "required_separation_m"):
        rows.append(["locality", key, locality[key]])
    rows.append(["locality", "closed", int(locality["closed"])])
    rows.append(["midpoint", "distance_m", results["midpoint_distance_m"]])
    budget = results["detection_budget"]
    rows.append(["detection", "efficiency", budget["efficiency"]])
    if budget["threshold"] is not None:
        rows.append(["detection", "threshold", budget["threshold"]])
        rows.append(["detection", "passes", int(budget["passes"])])
    for entry in results["survival_sweep"]:
        rows.append(
            ["survival", _fmt(entry["attenuation_db_per_km"]) + "_db_per_km", entry["survival"]]
        )
    for entry in results.get("feasibility_grid", []):
        for sep, closed in entry["closed_at_km"].items():
            rows.append(
                [
                    "feasibility",
                    f"{entry['detection_time_us']:g}us_{sep}km",
                    int(closed),
                ]
            )
    return _render_csv(report, ["record", "key", "value"], rows)


# ---------------------------------------------------------------------------
# swap


def cmd_swap(config: dict[str, Any]) -> dict[str, Any]:
    pair_a = bell_pair_ideal() if config["werner_p_a"] == 1.0 else werner(config["werner_p_a"])
    pair_b = bell_pair_ideal() if config["werner_p_b"] == 1.0 else werner(config["werner_p_b"])
    conditionals = swap_conditional_states(pair_a, pair_b)
    p_plus = conditionals[PSI_PLUS][0]
    p_minus = conditionals[PSI_MINUS][0]
    probabilities = [p_plus, p_minus, max(0.0, 1.0 - p_plus - p_minus)]
    rng = np.random.default_rng(config["seed"])
    counts = rng.multinomial(config["trials"], probabilities)
    heralded = {}
    for outcome in (PSI_PLUS, PSI_MINUS):
        probability, state = conditionals[outcome]
        entry: dict[str, Any] = {"probability": probability}
        if state is not None:
            target = heralded_ion_state(outcome)
            operator = chsh_operator(adapted_bell_angles(outcome))
            entry["fidelity_to_heralded"] = fidelity(state, target)
            entry["bell_value"] = float(np.real(np.trace(state.matrix @ operator)))
        heralded[outcome] = entry
    link = LinkBudget(
        fiber_length=config["fiber_length"],
        attenuation_db_per_km=config["attenuation"],
        coupling_efficiency=config["coupling"],
    )
    latency = chain_latency(
        config["nodes"], link, config["attempt_rate"], config["link_success"]
    )
    report = _report_skeleton("swap", config)
    report["results"] = {
        "trials": config["trials"],
        "outcome_counts": {
            PSI_PLUS: int(counts[0]),
            PSI_MINUS: int(counts[1]),
            BSA_FAIL: int(counts[2]),
        },
        "success_rate": float((counts[0] + counts[1]) / config["trials"]),
        "heralded": heralded,
        "chain": {
            "nodes": config["nodes"],
            "links": config["nodes"] - 1,
            "expected_latency_s": latency,
        },
    }
    return report


def _swap_csv(report: dict[str, Any]) -> str:
    results = report["results"]
    rows = [["trials", "", float(results["trials"])]]
    for outcome, count in results["outcome_counts"].items():
        rows.append(["outcome_count", outcome, float(count)])
    rows.append(["success_rate", "", results["success_rate"]])
    for outcome, entry in results["heralded"].items():
        for key, value in entry.items():
            rows.append(["heralded_" + outcome, key, value])
    rows.append(["chain", "nodes", float(results["chain"]["nodes"])])
    rows.append(["chain", "expected_latency_s", results["chain"]["expected_latency_s"]])
    return _render_csv(report, ["record", "key", "value"], rows)


# ---------------------------------------------------------------------------
# argument parsing and dispatch

_CSV_RENDERERS: dict[str, Callable[[dict[str, Any]], str]] = {
    "chsh": _chsh_csv,
    "bounds": _bounds_csv,
    "lhv": _lhv_csv,
    "loopholes": _loopholes_csv,
    "swap": _swap_csv,
}

_RUNNERS: dict[str, Callable[[dict[str, Any]], dict[str, Any]]] = {
    "chsh": cmd_chsh,
    "bounds": cmd_bounds,
    "lhv": cmd_lhv,
    "loopholes": cmd_loopholes,
    "swap": cmd_swap,
}


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None, help="random seed (echoed in output)")
    parser.add_argument("--config", type=str, default=None, help="strict JSON config file")
    parser.add_argument("--format", type=str, default=None, choices=("csv", "json"))
    parser.add_argument("--output", type=str, default=None, help="output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=TOOL_NAME,
        description="Atom-photon CHSH Bell-inequality simulator and analysis toolkit",
    )
    parser.add_argument("--version", action="version", version=f"{TOOL_NAME} {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    chsh = commands.add_parser("chsh", help="run both four-correlation Bell measurements")
    _add_common_flags(chsh)
    chsh.add_argument("--events", dest="events_per_setting", type=int, default=None)
    chsh.add_argument("--werner-p", dest="werner_p", type=float, default=None)
    chsh.add_argument("--pmt-eff1", dest="pmt_efficiency_1", type=float, default=None)
    chsh.add_argument("--pmt-eff2", dest="pmt_efficiency_2", type=float, default=None)
    chsh.add_argument("--bright-error", dest="atom_bright_error", type=float, default=None)
    chsh.add_argument("--dark-error", dest="atom_dark_error", type=float, default=None)
    chsh.add_argument(
        "--dark-rate", dest="dark_event_probability", type=float, default=None,
        help="per-attempt probability of a spurious heralding click",
    )
    chsh.add_argument(
        "--table1-fixture",
        dest="table1_fixture",
        action="store_const",
        const=True,
        default=None,
        help="recompute both Bell signals from the published reference correlations",
    )

    bounds = commands.add_parser("bounds", help="fidelity-constrained Bell-signal window")
    _add_common_flags(bounds)
    bounds.add_argument("--fidelity", type=float, default=None)
    bounds.add_argument(
        "--angles",
        dest="angles_pi",
        type=_angles_argument,
        default=None,
        help="four analysis angles in units of pi, e.g. 0,0.5,0.25,0.75",
    )

    lhv = commands.add_parser("lhv", help="deterministic local strategies and angle scan")
    _add_common_flags(lhv)
    lhv.add_argument("--grid", type=int, default=None, help="scan resolution per angle")

    loopholes = commands.add_parser("loopholes", help="light-cone and fiber budget arithmetic")
    _add_common_flags(loopholes)
    loopholes.add_argument("--separation", type=float, default=None, help="meters")
    loopholes.add_argument("--detection-time", dest="detection_time", type=float, default=None)
    loopholes.add_argument("--rotation-time", dest="rotation_time", type=float, default=None)
    loopholes.add_argument("--attenuation", type=float, default=None, help="dB/km")
    loopholes.add_argument("--coupling", type=float, default=None)
    loopholes.add_argument("--threshold", dest="efficiency_threshold", type=float, default=None)
    loopholes.add_argument(
        "--feasibility-grid",
        dest="feasibility_grid",
        action="store_const",
        const=True,
        default=None,
    )

    swap = commands.add_parser("swap", help="two-pair entanglement swap and chain latency")
    _add_common_flags(swap)
    swap.add_argument("--trials", type=int, default=None)
    swap.add_argument("--werner-p-a", dest="werner_p_a", type=float, default=None)
    swap.add_argument("--werner-p-b", dest="werner_p_b", type=float, default=None)
    swap.add_argument("--nodes", type=int, default=None)
    swap.add_argument("--attempt-rate", dest="attempt_rate", type=float, default=None)
    swap.add_argument("--link-success", dest="link_success", type=float, default=None)
    swap.add_argument("--fiber-length", dest="fiber_length", type=float, default=None)
    swap.add_argument("--attenuation", type=float, default=None)
    swap.add_argument("--coupling", type=float, default=None)
    return parser


def _angles_argument(text: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad angle list {text!r}") from exc
    return values


def run_command(command: str, config: dict[str, Any]) -> str:
    """Execute a command and render its report in the configured format."""
    report = _RUNNERS[command](config)
    if config["format"] == "json":
        return _render_json(report)
    return _CSV_RENDERERS[command](report)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        namespace = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    flag_values = dict(vars(namespace))
    command = flag_values.pop("command")
    config_path = flag_values.pop("config", None)
    try:
        file_values = load_config_file(config_path) if config_path else {}
        config = resolve_config(command, file_values, flag_values)
        text = run_command(command, config)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - the CLI must not traceback at users
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        _emit(text, config["output"])
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
