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

Each command imports only the layers it runs, numpy included, in its
``cmd_<command>`` body: ``bounds``, ``loopholes``, ``--help``, ``--version``
and configuration errors load neither numpy nor ``dataclasses``.  Only CSV
output imports ``csv``.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
from typing import Any, Callable, NamedTuple, Sequence

from . import _MAX_GRID, __version__

DEFAULT_SEED = 12345
TOOL_NAME = "bellsim"


class ConfigError(ValueError):
    """Invalid configuration: unknown key, bad type, out-of-range or missing value."""


# Allowed values of a key: (description, test).  NaN and infinite values are
# rejected for every numeric key that has one.
_Allowed = tuple[str, Callable[[Any], bool]]
_UNIT: _Allowed = ("in [0, 1]", lambda v: 0.0 <= v <= 1.0)
_NON_NEGATIVE: _Allowed = ("finite and >= 0", lambda v: v >= 0.0)
_POSITIVE: _Allowed = ("finite and > 0", lambda v: v > 0.0)
# Angles are given in units of pi; the value in radians must be finite too.
_FINITE: _Allowed = ("finite", lambda v: math.isfinite(v * math.pi))
_MAX_COUNT = 2**63 - 1  # numpy draws counts as int64


class _Key(NamedTuple):
    """One configuration key: its JSON type, default, allowed values and flag.

    A ``None`` default marks a required or optional-by-absence key; a
    ``None`` flag marks a key that only a config file can set.
    """

    type: type
    default: Any
    allowed: _Allowed | None = None
    flag: str | None = None
    help: str | None = None


_COMMON_SCHEMA = {
    "seed": _Key(
        int, DEFAULT_SEED, (">= 0", lambda v: v >= 0), "--seed", "random seed (echoed in output)"
    ),
    "format": _Key(str, "json", ("'csv' or 'json'", lambda v: v in ("csv", "json")), "--format"),
    "output": _Key(str, None, None, "--output", "output path (default stdout)"),
}

_FIBER_SCHEMA = {
    "attenuation": _Key(float, 0.2, _NON_NEGATIVE, "--attenuation", "dB/km"),
    "coupling": _Key(float, 1.0, _UNIT, "--coupling"),
}

# Per-command configuration schema: the only place a key or its flag is declared.
_SCHEMAS: dict[str, dict[str, _Key]] = {
    "chsh": {
        **_COMMON_SCHEMA,
        "events_per_setting": _Key(
            int, 2000, (f"in [2, {_MAX_COUNT}]", lambda v: 2 <= v <= _MAX_COUNT), "--events"
        ),
        "werner_p": _Key(float, 1.0, _UNIT, "--werner-p"),
        "pmt_efficiency_1": _Key(float, 1.0, _UNIT, "--pmt-eff1"),
        "pmt_efficiency_2": _Key(float, 1.0, _UNIT, "--pmt-eff2"),
        "atom_bright_error": _Key(float, 0.0, _UNIT, "--bright-error"),
        "atom_dark_error": _Key(float, 0.0, _UNIT, "--dark-error"),
        "dark_event_probability": _Key(
            float, 0.0, _UNIT, "--dark-rate",
            "per-attempt probability of a spurious heralding click",
        ),
        "table1_fixture": _Key(
            bool, False, None, "--table1-fixture",
            "recompute both Bell signals from the published reference correlations",
        ),
    },
    "bounds": {
        **_COMMON_SCHEMA,
        "fidelity": _Key(float, None, _UNIT, "--fidelity"),
        "angles_pi": _Key(
            list, [0.0, 0.5, 0.25, 0.75], _FINITE, "--angles",
            "four analysis angles in units of pi, e.g. 0,0.5,0.25,0.75; "
            "write a negative first angle as --angles=-0.25,0.25,0,0.5",
        ),
    },
    "lhv": {
        **_COMMON_SCHEMA,
        "grid": _Key(
            int, 64, (f"in [8, {_MAX_GRID}]", lambda v: 8 <= v <= _MAX_GRID), "--grid",
            "scan resolution per angle",
        ),
    },
    "loopholes": {
        **_COMMON_SCHEMA,
        "separation": _Key(float, 1.1, _NON_NEGATIVE, "--separation", "meters"),
        "detection_time": _Key(float, 125e-6, _NON_NEGATIVE, "--detection-time"),
        "rotation_time": _Key(float, 0.0, _NON_NEGATIVE, "--rotation-time"),
        **_FIBER_SCHEMA,
        "attenuation_sweep": _Key(list, [0.2, 1.0, 5.0, 10.0], _NON_NEGATIVE),
        "detection_efficiencies": _Key(list, [0.10, 0.01, 0.20], _UNIT),
        "efficiency_threshold": _Key(float, None, _UNIT, "--threshold"),
        "feasibility_grid": _Key(bool, False, None, "--feasibility-grid"),
    },
    "swap": {
        **_COMMON_SCHEMA,
        "trials": _Key(
            int, 100000, (f"in [1, {_MAX_COUNT}]", lambda v: 1 <= v <= _MAX_COUNT), "--trials"
        ),
        "werner_p_a": _Key(float, 1.0, _UNIT, "--werner-p-a"),
        "werner_p_b": _Key(float, 1.0, _UNIT, "--werner-p-b"),
        "nodes": _Key(
            int, 2, (f"in [2, {_MAX_COUNT}]", lambda v: 2 <= v <= _MAX_COUNT), "--nodes"
        ),
        "attempt_rate": _Key(float, 8.3e3, _POSITIVE, "--attempt-rate"),
        "link_success": _Key(
            float, 2.0e-4, ("in (0, 1]", lambda v: 0.0 < v <= 1.0), "--link-success"
        ),
        "fiber_length": _Key(float, 0.0, _NON_NEGATIVE, "--fiber-length"),
        **_FIBER_SCHEMA,
    },
}


def _float(command: str, key: str, value: int | float) -> float:
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{command}: key {key!r} holds a number too large for a float") from None


def _check_type(command: str, key: str, value: Any, expected: type) -> Any:
    if expected is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{command}: key {key!r} must be a number, got {value!r}")
        return _float(command, key, value)
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
        return [_float(command, key, v) for v in value]
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
    config = {key: spec.default for key, spec in schema.items()}
    for key, value in file_values.items():
        config[key] = _check_type(command, key, value, schema[key].type)
    for key, value in flag_values.items():
        if value is None:
            continue
        config[key] = _check_type(command, key, value, schema[key].type)
    for key, spec in schema.items():
        # Only a key whose default is None may be left unset.
        if spec.allowed is None or (config[key] is None and spec.default is None):
            continue
        for value in config[key] if isinstance(config[key], list) else [config[key]]:
            finite = not isinstance(value, (int, float)) or abs(value) < math.inf
            if not (finite and spec.allowed[1](value)):
                raise ConfigError(
                    f"{command}: key {key!r} must be {spec.allowed[0]}, got {value!r}"
                )
    return config


def load_config_file(path: str) -> dict[str, Any]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # ValueError covers malformed JSON, bytes that are not UTF-8 and integers past
        # Python's digit limit; brackets nested too deep exhaust the recursion limit.
        raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path!r} must hold a JSON object")
    return data


def _fmt(value: float) -> str:
    """CSV number rendering: 6 significant digits, locale-independent."""
    return f"{value:.6g}"


def _csv_header(report: dict[str, Any]) -> list[str]:
    config_json = json.dumps(report["config"], sort_keys=True, separators=(",", ":"))
    return [
        f"# tool={report['tool']} version={report['version']}",
        f"# command={report['command']}",
        f"# seed={report['seed']}",
        f"# config={config_json}",
    ]


def _render_csv(report: dict[str, Any], columns: list[str], rows: list[list[Any]]) -> str:
    import csv

    buffer = io.StringIO()
    for line in _csv_header(report):
        buffer.write(line + "\n")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow(["" if v is None else (_fmt(v) if isinstance(v, float) else v) for v in row])
    return buffer.getvalue()


def _leaves(node: Any, path: tuple[str, ...]):
    """(path, value) for each non-null leaf of a report's nested dicts and lists."""
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _leaves(child, (*path, str(key)))
    elif node is not None:
        yield path, node


def _flat_csv(report: dict[str, Any]) -> str:
    """One ``record,key,value`` row per leaf: record is the top-level key of
    ``results`` and key the rest of the path joined by dots."""
    rows = [
        [path[0], ".".join(path[1:]), int(value) if isinstance(value, bool) else value]
        for path, value in _leaves(report["results"], ())
    ]
    return _render_csv(report, ["record", "key", "value"], rows)


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


# ---------------------------------------------------------------------------
# chsh


def cmd_chsh(config: dict[str, Any]) -> dict[str, Any]:
    """run both four-correlation Bell measurements"""
    from .harness import reference_bell_results, run_experiment
    from .protocol import DetectorParams, SourceParams

    if config["table1_fixture"]:
        first, second = reference_bell_results()
    else:
        source = SourceParams(werner_p=config["werner_p"])
        det = DetectorParams(
            pmt_efficiency_1=config["pmt_efficiency_1"],
            pmt_efficiency_2=config["pmt_efficiency_2"],
            atom_bright_error=config["atom_bright_error"],
            atom_dark_error=config["atom_dark_error"],
            dark_event_probability=config["dark_event_probability"],
        )
        first, second = run_experiment(
            config["events_per_setting"], source, det, seed=config["seed"]
        )
    return {"experiments": [first, second]}


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
    """fidelity-constrained Bell-signal window"""
    from .bounds import extremal_bell_numeric
    from .settings import BellAngles

    if config["fidelity"] is None:
        raise ConfigError("bounds: a fidelity value is required (--fidelity or config)")
    f = config["fidelity"]
    angles_pi = config["angles_pi"]
    if len(angles_pi) != 4:
        raise ConfigError("bounds: angles_pi needs exactly four values (a1, a2, b1, b2)")
    angles = BellAngles.from_thetas(*(a * math.pi for a in angles_pi))
    numeric = extremal_bell_numeric(f, angles)
    if numeric.out_of_regime:
        print(
            "warning: fidelity below 0.5 is outside the entangled regime; "
            "the signed minimum is negative",
            file=sys.stderr,
        )
    # Each witness is a pure ket k: fidelity <Phi+|k>^2 and spectrum {0, 0, 0, |k|^2}.
    witnesses = {
        name: {
            "fidelity": (k[0] + k[3]) ** 2 / 2.0,
            "eigenvalues": [0.0, 0.0, 0.0, sum(c * c for c in k)],
        }
        for name, k in (("witness_min", numeric.witness_min), ("witness_max", numeric.witness_max))
    }
    return {
        "fidelity": f,
        "closed_form": {"bell_min": numeric.bell_min, "bell_max": numeric.bell_max},
        "numeric": {
            "bell_min": numeric.bell_min,
            "bell_max": numeric.bell_max,
            "abs_form_min": numeric.abs_form_min,
            "abs_form_max": numeric.abs_form_max,
            "duality_gap": numeric.duality_gap,
            "converged": numeric.converged,
            "out_of_regime": numeric.out_of_regime,
        },
        **witnesses,
    }


# ---------------------------------------------------------------------------
# lhv


def cmd_lhv(config: dict[str, Any]) -> dict[str, Any]:
    """deterministic local strategies and angle scan"""
    from .bounds import enumerate_strategies, tsirelson_scan

    table = enumerate_strategies()
    scan = tsirelson_scan(config["grid"])
    return {
        "strategies": [
            {**dict(zip(("a1", "a2", "b1", "b2"), strategy)), "bell_value": value}
            for strategy, value in table
        ],
        "max_bell": max(value for _, value in table),
        "tsirelson_scan": {
            "grid_resolution": config["grid"],
            "bell_value": scan.bell_value,
            "thetas_pi": [t / math.pi for t in scan.thetas],
        },
    }


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
    """light-cone and fiber budget arithmetic"""
    from .loopholes import detection_efficiency, light_cone_separation, photon_survival

    required = light_cone_separation(config["rotation_time"] + config["detection_time"])
    if not math.isfinite(required):
        raise ConfigError("loopholes: keys 'detection_time' + 'rotation_time' overflow c*t")
    midpoint = required / 2
    efficiency = detection_efficiency(config["detection_efficiencies"])
    threshold = config["efficiency_threshold"]
    sweep = [
        {
            "attenuation_db_per_km": attenuation,
            "survival": photon_survival(midpoint, attenuation, config["coupling"]),
        }
        for attenuation in config["attenuation_sweep"]
    ]
    results: dict[str, Any] = {
        "locality": {
            "separation_m": config["separation"],
            "total_measurement_time_s": config["detection_time"] + config["rotation_time"],
            "required_separation_m": required,
            "closed": config["separation"] >= required,
        },
        "midpoint_distance_m": midpoint,
        "detection_budget": {
            "efficiency": efficiency,
            "threshold": threshold,
            "passes": None if threshold is None else efficiency >= threshold,
        },
        "survival_sweep": sweep,
    }
    if config["feasibility_grid"]:
        separations_km = [1.0, 5.0, 10.0, 15.0, 20.0, 37.5]
        times_us = [25.0, 50.0, 75.0, 100.0, 125.0]
        grid = []
        for time_us in times_us:
            required = light_cone_separation(time_us * 1e-6)
            grid.append(
                {
                    "detection_time_us": time_us,
                    "required_separation_km": required / 1000.0,
                    "closed_at_km": {
                        _fmt(sep): sep * 1000.0 >= required for sep in separations_km
                    },
                }
            )
        results["feasibility_grid"] = grid
    return results


# ---------------------------------------------------------------------------
# swap


def cmd_swap(config: dict[str, Any]) -> dict[str, Any]:
    """two-pair entanglement swap and chain latency"""
    import numpy as np

    from .loopholes import photon_survival
    from .network import PSI_MINUS, PSI_PLUS, _analyzer_probabilities, adapted_bell_angles
    from .network import chain_latency, heralded_ion_state, swap_conditional_states
    from .states import chsh_operator, fidelity, werner

    pair_a, pair_b = werner(config["werner_p_a"]), werner(config["werner_p_b"])
    conditionals = swap_conditional_states(pair_a, pair_b)
    probabilities = _analyzer_probabilities(conditionals)
    rng = np.random.default_rng(config["seed"])
    draws = rng.multinomial(config["trials"], list(probabilities.values()))
    counts = {outcome: int(n) for outcome, n in zip(probabilities, draws)}
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
    survival = photon_survival(config["fiber_length"], config["attenuation"], config["coupling"])
    latency = chain_latency(
        config["nodes"], survival, config["attempt_rate"], config["link_success"]
    )
    return {
        "trials": config["trials"],
        "outcome_counts": counts,
        "success_rate": (counts[PSI_PLUS] + counts[PSI_MINUS]) / config["trials"],
        "heralded": heralded,
        "chain": {
            "nodes": config["nodes"],
            "links": config["nodes"] - 1,
            "expected_latency_s": latency,
        },
    }


# ---------------------------------------------------------------------------
# argument parsing and dispatch

# The wide tables; every other command renders through _flat_csv.
_CSV_RENDERERS: dict[str, Callable[[dict[str, Any]], str]] = {"chsh": _chsh_csv, "lhv": _lhv_csv}

# Each runner returns its report's ``results``; run_command wraps them in the envelope.
_RUNNERS: dict[str, Callable[[dict[str, Any]], dict[str, Any]]] = {
    "chsh": cmd_chsh,
    "bounds": cmd_bounds,
    "lhv": cmd_lhv,
    "loopholes": cmd_loopholes,
    "swap": cmd_swap,
}


def _angles_argument(text: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad angle list {text!r}") from exc
    return values


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, one flag per schema key that has one."""
    parser = argparse.ArgumentParser(
        prog=TOOL_NAME,
        description="Atom-photon CHSH Bell-inequality simulator and analysis toolkit",
    )
    parser.add_argument("--version", action="version", version=f"{TOOL_NAME} {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)
    for command, runner in _RUNNERS.items():
        sub = commands.add_parser(command, help=runner.__doc__)
        sub.add_argument("--config", help="strict JSON config file")
        for key, spec in _SCHEMAS[command].items():
            if spec.flag is None:
                continue
            text = "; ".join(filter(None, (spec.help, spec.allowed and spec.allowed[0])))
            if spec.type is bool:
                sub.add_argument(spec.flag, dest=key, action="store_const", const=True, help=text)
            else:
                kind = _angles_argument if spec.type is list else spec.type
                sub.add_argument(spec.flag, dest=key, type=kind, help=text)
    return parser


def run_command(command: str, config: dict[str, Any]) -> str:
    """Execute a command and render its report in the configured format.

    The report wraps the runner's ``results`` in the envelope that every
    command shares.  The embedded config leaves out the output path, an I/O
    disposition: identical runs written to different paths stay byte-identical.
    """
    report = {
        "tool": TOOL_NAME,
        "version": __version__,
        "command": command,
        "seed": config["seed"],
        "config": {k: v for k, v in config.items() if k != "output"},
        "results": _RUNNERS[command](config),
    }
    try:
        text = json.dumps(report, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise ValueError(f"{command}: the report holds a non-finite number ({exc})") from None
    if config["format"] == "json":
        return text
    return _CSV_RENDERERS.get(command, _flat_csv)(report)


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
