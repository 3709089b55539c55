"""Tests of the command-line interface: config handling, formats, exit codes."""

import argparse
import contextlib
import csv
import io
import itertools
import json
import math
import subprocess
import sys

import pytest
from conftest import bisection_window, canonical_window
from hypothesis import given, settings
from hypothesis import strategies as st

from bellsim.cli import (
    _RUNNERS,
    _SCHEMAS,
    ConfigError,
    _fmt,
    build_parser,
    main,
    resolve_config,
)
from bellsim.states import BellAngles, chsh_operator


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConfigResolution:
    def test_defaults(self):
        config = resolve_config("chsh", {}, {})
        assert config["seed"] == 12345
        assert config["events_per_setting"] == 2000
        assert config["format"] == "json"

    def test_file_overrides_defaults_and_flags_override_file(self):
        config = resolve_config(
            "chsh", {"seed": 7, "events_per_setting": 100}, {"seed": 9}
        )
        assert config["seed"] == 9
        assert config["events_per_setting"] == 100

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            resolve_config("chsh", {"events": 100}, {})

    def test_type_mismatch_rejected(self):
        with pytest.raises(ConfigError, match="integer"):
            resolve_config("chsh", {"events_per_setting": "many"}, {})
        with pytest.raises(ConfigError, match="number"):
            resolve_config("bounds", {"fidelity": True}, {})

    def test_bad_format_rejected(self):
        with pytest.raises(ConfigError, match="format"):
            resolve_config("lhv", {"format": "xml"}, {})
        with pytest.raises(ConfigError, match="format"):
            resolve_config("lhv", {"format": None}, {})


class TestChshCommand:
    def test_fixture_recomputation(self, capsys):
        code, out, _ = run_cli(capsys, "chsh", "--table1-fixture", "--seed", "1")
        assert code == 0
        report = json.loads(out)
        values = [block["bell_value"] for block in report["results"]["experiments"]]
        assert values[0] == pytest.approx(2.203, abs=5e-4)
        assert values[1] == pytest.approx(2.218, abs=5e-4)
        assert report["seed"] == 1
        assert report["tool"] == "bellsim"

    def test_ideal_run_bell_band(self, capsys):
        code, out, _ = run_cli(
            capsys, "chsh", "--events", "100000", "--seed", "42"
        )
        assert code == 0
        report = json.loads(out)
        for block in report["results"]["experiments"]:
            assert 2.79 <= block["bell_value"] <= 2.87

    def test_csv_rendering(self, capsys):
        code, out, _ = run_cli(
            capsys, "chsh", "--table1-fixture", "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# tool=bellsim")
        assert "record,experiment,theta_ion_pi,theta_photon_pi,value,sigma" in lines
        assert any(line.startswith("bell,1") for line in lines)
        assert any(line.startswith("correlation,2,0.75,0.5,0.605") for line in lines)


class TestBoundsCommand:
    def test_reference_fidelity(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--fidelity", "0.87", "--seed", "3")
        assert code == 0
        report = json.loads(out)
        closed = report["results"]["closed_form"]
        numeric = report["results"]["numeric"]
        assert closed["bell_min"] == pytest.approx(2.0930, abs=5e-5)
        assert closed["bell_max"] == pytest.approx(2.4607, abs=5e-5)
        oracle_min, oracle_max = canonical_window(0.87)
        assert abs(closed["bell_min"] - oracle_min) <= 1e-9
        assert abs(closed["bell_max"] - oracle_max) <= 1e-9
        assert abs(numeric["bell_min"] - closed["bell_min"]) <= 1e-9
        assert abs(numeric["bell_max"] - closed["bell_max"]) <= 1e-9
        assert numeric["converged"] is True
        assert numeric["duality_gap"] <= 1e-9

    def test_custom_angles(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--fidelity", "0.87", "--angles", "0.1,0.4,0.15,0.9"
        )
        assert code == 0
        results = json.loads(out)["results"]
        numeric = results["numeric"]
        assert numeric["bell_min"] == pytest.approx(1.759693454, abs=1e-6)
        assert numeric["bell_max"] == pytest.approx(2.352775826, abs=1e-6)
        assert numeric["converged"] is True
        assert results["closed_form"]["bell_min"] == numeric["bell_min"]
        assert results["closed_form"]["bell_max"] == numeric["bell_max"]

    def test_azimuth_pi_angles(self, capsys):
        # a1 = 1.5*pi and b1 = -0.15*pi canonicalise to azimuth pi: still in the x-z plane.
        code, out, _ = run_cli(
            capsys, "bounds", "--fidelity", "0.87", "--angles", "1.5,0.4,-0.15,0.9"
        )
        assert code == 0
        results = json.loads(out)["results"]
        angles = BellAngles.from_thetas(*(a * math.pi for a in (1.5, 0.4, -0.15, 0.9)))
        oracle = bisection_window(0.87, chsh_operator(angles))
        for section in ("closed_form", "numeric"):
            window = (results[section]["bell_min"], results[section]["bell_max"])
            assert window == pytest.approx(oracle, abs=1e-12)

    def test_negative_first_angle_needs_the_equals_form(self, capsys):
        """argparse reads a separate ``-0.25,...`` as a flag; ``--angles=`` keeps it a value."""
        angles_pi = "-0.25,0.25,0,0.5"
        code, _, err = run_cli(capsys, "bounds", "--fidelity", "0.87", "--angles", angles_pi)
        assert code == 2
        assert "expected one argument" in err
        code, out, _ = run_cli(capsys, "bounds", "--fidelity", "0.87", f"--angles={angles_pi}")
        assert code == 0
        results = json.loads(out)["results"]
        assert results["numeric"]["converged"] is True
        window = (results["numeric"]["bell_min"], results["numeric"]["bell_max"])
        assert all(math.isfinite(v) for v in window)
        angles = BellAngles.from_thetas(*(a * math.pi for a in (-0.25, 0.25, 0.0, 0.5)))
        assert window == pytest.approx(bisection_window(0.87, chsh_operator(angles)), abs=1e-12)

    def test_unit_fidelity(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--fidelity", "1.0")
        assert code == 0
        report = json.loads(out)
        assert report["results"]["numeric"]["bell_min"] == pytest.approx(2.82843, abs=1e-5)
        assert report["results"]["numeric"]["bell_max"] == pytest.approx(2.82843, abs=1e-5)

    def test_out_of_regime_warns_but_computes(self, capsys):
        code, out, err = run_cli(capsys, "bounds", "--fidelity", "0.3")
        assert code == 0
        assert "warning" in err
        report = json.loads(out)
        assert report["results"]["numeric"]["out_of_regime"] is True
        assert report["results"]["numeric"]["bell_min"] < 0.0

    def test_missing_fidelity_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "bounds")
        assert code == 2
        assert "fidelity" in err


class TestLhvCommand:
    def test_default_report(self, capsys):
        code, out, _ = run_cli(capsys, "lhv", "--grid", "16")
        assert code == 0
        report = json.loads(out)
        assert report["results"]["max_bell"] == 2.0
        assert len(report["results"]["strategies"]) == 16
        assert report["results"]["tsirelson_scan"]["bell_value"] == pytest.approx(
            2.82843, abs=1e-5
        )

    def test_coarse_grid_stays_below_ceiling(self, capsys):
        code, out, _ = run_cli(capsys, "lhv", "--grid", "8")
        assert code == 0
        report = json.loads(out)
        assert report["results"]["tsirelson_scan"]["bell_value"] <= 2.0 * math.sqrt(2.0) + 1e-9

    def test_json_key_order_is_stable(self, capsys):
        _, out1, _ = run_cli(capsys, "lhv", "--grid", "8")
        _, out2, _ = run_cli(capsys, "lhv", "--grid", "8")
        assert out1 == out2


class TestLoopholesCommand:
    def test_default_verdict(self, capsys):
        code, out, _ = run_cli(capsys, "loopholes")
        assert code == 0
        report = json.loads(out)
        locality = report["results"]["locality"]
        assert locality["closed"] is False
        assert locality["required_separation_m"] == pytest.approx(37474.057, abs=1e-2)

    def test_faster_detection_shrinks_requirement(self, capsys):
        code, out, _ = run_cli(capsys, "loopholes", "--detection-time", "50e-6")
        assert code == 0
        report = json.loads(out)
        required = report["results"]["locality"]["required_separation_m"]
        assert required == pytest.approx(14989.62, abs=0.01)
        assert report["results"]["midpoint_distance_m"] == pytest.approx(required / 2.0)

    def test_boundary_closes(self, capsys):
        code, out, _ = run_cli(
            capsys, "loopholes", "--separation", "15000", "--detection-time", "50e-6"
        )
        assert code == 0
        report = json.loads(out)
        assert report["results"]["locality"]["closed"] is True

    def test_feasibility_grid(self, capsys):
        code, out, _ = run_cli(capsys, "loopholes", "--feasibility-grid")
        assert code == 0
        report = json.loads(out)
        grid = report["results"]["feasibility_grid"]
        assert any(
            row["detection_time_us"] == 50.0 and row["closed_at_km"]["15"] for row in grid
        )


class TestSwapCommand:
    def test_ideal_swap_report(self, capsys):
        code, out, _ = run_cli(capsys, "swap", "--trials", "100000", "--seed", "5")
        assert code == 0
        report = json.loads(out)
        results = report["results"]
        assert abs(results["success_rate"] - 0.5) < 0.005
        for outcome in ("psi_plus", "psi_minus"):
            assert results["heralded"][outcome]["fidelity_to_heralded"] >= 0.999
            assert results["heralded"][outcome]["bell_value"] == pytest.approx(
                2.0 * math.sqrt(2.0), abs=1e-9
            )
        assert results["chain"]["expected_latency_s"] == pytest.approx(0.602, abs=5e-3)

    def test_werner_inputs_degrade(self, capsys):
        code, out, _ = run_cli(
            capsys, "swap", "--trials", "1000", "--werner-p-a", "0.82667",
            "--werner-p-b", "0.82667",
        )
        assert code == 0
        report = json.loads(out)
        input_bell = 2.0 * math.sqrt(2.0) * 0.82667
        for outcome in ("psi_plus", "psi_minus"):
            assert report["results"]["heralded"][outcome]["bell_value"] <= input_bell

    def test_three_node_chain(self, capsys):
        code, out, _ = run_cli(
            capsys, "swap", "--trials", "100", "--nodes", "3",
            "--attempt-rate", "1.0", "--link-success", "0.5",
        )
        assert code == 0
        report = json.loads(out)
        assert report["results"]["chain"]["expected_latency_s"] == pytest.approx(
            2.667, abs=5e-4
        )


class TestConfigFileHandling:
    def test_config_file_drives_a_run(self, capsys, tmp_path):
        config = {"seed": 4, "events_per_setting": 500, "werner_p": 0.9}
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        code, out, _ = run_cli(capsys, "chsh", "--config", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["seed"] == 4
        assert report["config"]["werner_p"] == 0.9

    def test_unknown_key_exits_2_without_output_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"event_count": 100}))
        out_path = tmp_path / "result.json"
        code, _, err = run_cli(
            capsys, "chsh", "--config", str(path), "--output", str(out_path)
        )
        assert code == 2
        assert "unknown" in err
        assert not out_path.exists()

    def test_malformed_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "chsh", "--config", str(path))
        assert code == 2
        assert "JSON" in err

    @pytest.mark.parametrize(
        "content, cause",
        [
            (b'{"werner_p": ' + b"1" * 5000 + b"}", "digits"),
            (b'{"werner_p": 0.9, "\xff": 1}', "utf-8"),
            (b"[" * 100_000 + b"]" * 100_000, "recursion"),
        ],
        ids=["5000-digit-integer", "non-utf8-byte", "nested-brackets"],
    )
    def test_unparsable_config_file_exits_2_naming_it(self, capsys, tmp_path, content, cause):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        code, out, err = run_cli(capsys, "chsh", "--config", str(path))
        assert code == 2
        assert out == ""
        assert "configuration error" in err and "bad.json" in err and cause in err

    def test_missing_config_file_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "chsh", "--config", str(tmp_path / "nope.json"))
        assert code == 2

    def test_embedded_config_round_trips(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "lhv", "--grid", "12", "--seed", "8")
        assert code == 0
        report = json.loads(out)
        path = tmp_path / "replay.json"
        path.write_text(json.dumps(report["config"]))
        code2, out2, _ = run_cli(capsys, "lhv", "--config", str(path))
        assert code2 == 0
        assert out2 == out

    def test_unknown_flag_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "chsh", "--no-such-flag")
        assert code == 2

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["bounds", "--fidelity", "1.5"], "fidelity"),
            (["bounds", "--fidelity", "nan"], "fidelity"),
            (["bounds", "--fidelity", "0.87", "--angles", "0,nan,0.25,0.75"], "angles_pi"),
            (["swap", "--trials", "-5"], "trials"),
            (["swap", "--trials", "0"], "trials"),
            (["bounds", "--fidelity", "0.87", "--restarts", "4"], "--restarts"),
            (["chsh", "--threads", "2"], "--threads"),
            (["swap", "--threads", "2"], "--threads"),
            (["chsh", "--werner-p", "1.5"], "werner_p"),
            (["chsh", "--bright-error", "2"], "atom_bright_error"),
            (["chsh", "--events", "1"], "events_per_setting"),
            (["lhv", "--grid", "4"], "grid"),
            (["lhv", "--grid", "100000000"], "grid"),
            (["swap", "--nodes", "1"], "nodes"),
            (["swap", "--attempt-rate", "-3"], "attempt_rate"),
            (["loopholes", "--detection-time", "-1"], "detection_time"),
            (["loopholes", "--separation", "-2"], "separation"),
            (["chsh", "--seed", "-1"], "seed"),
            (["lhv", "--seed", "-1"], "seed"),
            (["swap", "--seed", "-1"], "seed"),
            (["loopholes", "--seed", "-1"], "seed"),
            (["bounds", "--fidelity", "0.87", "--seed", "-1"], "seed"),
            (["loopholes", "--threshold", "nan"], "efficiency_threshold"),
            (["loopholes", "--threshold", "inf"], "efficiency_threshold"),
            (["loopholes", "--threshold", "1.5"], "efficiency_threshold"),
            (["loopholes", "--format", "xml"], "format"),
            (["swap", "--trials", str(2**63)], "trials"),
            (["chsh", "--events", str(2**64 - 1)], "events_per_setting"),
            (["bounds", "--fidelity", "0.5", "--angles", "1e308,0,0,0"], "angles_pi"),
            (["loopholes", "--detection-time", "1e300"], "detection_time"),
            (["loopholes", "--rotation-time", "1e300"], "rotation_time"),
        ],
    )
    def test_bad_value_exits_2_naming_the_key(self, capsys, argv, key):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert key in err

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["swap", "--trials", str(2**63 - 1)], "trials"),
            (["chsh", "--events", str(2**63 - 1)], "events_per_setting"),
        ],
    )
    def test_largest_int64_count_runs(self, capsys, argv, key):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert json.loads(out)["config"][key] == 2**63 - 1

    @pytest.mark.parametrize("efficiency", ["1e-320", "5e-324"])
    def test_subnormal_pmt_efficiency_records(self, capsys, efficiency):
        # PMT 1 records with positive probability, however small
        code, out, _ = run_cli(capsys, "chsh", "--pmt-eff1", efficiency, "--pmt-eff2", "0")
        assert code == 0
        assert json.loads(out)["config"]["pmt_efficiency_1"] == float(efficiency)


# Today's flags of each command and the config key each one sets.
_COMMON_FLAGS = {
    "-h": "help", "--help": "help", "--config": "config",
    "--seed": "seed", "--format": "format", "--output": "output",
}
_COMMAND_FLAGS = {
    "chsh": {
        "--events": "events_per_setting",
        "--werner-p": "werner_p",
        "--pmt-eff1": "pmt_efficiency_1",
        "--pmt-eff2": "pmt_efficiency_2",
        "--bright-error": "atom_bright_error",
        "--dark-error": "atom_dark_error",
        "--dark-rate": "dark_event_probability",
        "--table1-fixture": "table1_fixture",
    },
    "bounds": {"--fidelity": "fidelity", "--angles": "angles_pi"},
    "lhv": {"--grid": "grid"},
    "loopholes": {
        "--separation": "separation",
        "--detection-time": "detection_time",
        "--rotation-time": "rotation_time",
        "--attenuation": "attenuation",
        "--coupling": "coupling",
        "--threshold": "efficiency_threshold",
        "--feasibility-grid": "feasibility_grid",
    },
    "swap": {
        "--trials": "trials",
        "--werner-p-a": "werner_p_a",
        "--werner-p-b": "werner_p_b",
        "--nodes": "nodes",
        "--attempt-rate": "attempt_rate",
        "--link-success": "link_success",
        "--fiber-length": "fiber_length",
        "--attenuation": "attenuation",
        "--coupling": "coupling",
    },
}


class TestCliSurface:
    @pytest.mark.parametrize("command", sorted(_COMMAND_FLAGS))
    def test_flags_and_the_keys_they_set(self, command):
        parser = build_parser()
        (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        actions = subparsers.choices[command]._actions
        surface = {flag: action.dest for action in actions for flag in action.option_strings}
        assert surface == {**_COMMON_FLAGS, **_COMMAND_FLAGS[command]}
        for action in actions:
            if action.dest in ("help", "config"):
                continue
            assert action.dest in _SCHEMAS[command]
            value = [] if action.nargs == 0 else ["3"]
            namespace = parser.parse_args([command, action.option_strings[0], *value])
            assert getattr(namespace, action.dest) is not None


def _json_leaves(node, path=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _json_leaves(value, (*path, key))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _json_leaves(value, (*path, str(index)))
    elif node is not None:
        yield path, node


class TestFlatCsv:
    @pytest.mark.parametrize(
        "argv",
        [
            ["bounds", "--fidelity", "0.87"],
            ["bounds", "--fidelity", "0.87", "--angles", "0.1,0.4,0.15,0.9"],
            ["loopholes", "--feasibility-grid", "--threshold", "0.5"],
            ["swap", "--nodes", "3"],
            ["swap", "--trials", "2000000"],
        ],
    )
    def test_flat_csv_holds_every_json_leaf(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        expected = {}
        for path, value in _json_leaves(json.loads(out)["results"]):
            # Bools as 0/1 and integers in full; floats to six significant digits.
            text = str(int(value)) if isinstance(value, int) else _fmt(value)
            expected[(path[0], ".".join(path[1:]))] = text
        code, out, _ = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0
        body = [line for line in out.splitlines() if not line.startswith("#")]
        rows = list(csv.DictReader(body))
        assert list(rows[0]) == ["record", "key", "value"]
        got = {(row["record"], row["key"]): row["value"] for row in rows}
        assert len(got) == len(rows)
        assert got == expected


class TestReproducibility:
    @pytest.mark.parametrize(
        "argv",
        [
            ["chsh", "--events", "200", "--seed", "11"],
            ["bounds", "--fidelity", "0.87", "--seed", "11"],
            ["lhv", "--grid", "16", "--seed", "11"],
            ["loopholes", "--seed", "11"],
            ["swap", "--trials", "5000", "--seed", "11"],
        ],
    )
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_identical_seed_and_config_byte_identical(self, tmp_path, argv, fmt):
        outputs = []
        for index in range(2):
            path = tmp_path / f"out_{index}.{fmt}"
            result = subprocess.run(
                [sys.executable, "-m", "bellsim.cli", *argv, "--format", fmt,
                 "--output", str(path)],
                capture_output=True,
                text=True,
            )
            assert result.returncode == 0, result.stderr
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]

    def test_output_file_matches_stdout(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "lhv", "--grid", "8")
        path = tmp_path / "f.json"
        code2 = main(["lhv", "--grid", "8", "--output", str(path)])
        assert code == code2 == 0
        assert path.read_text() == out


_CORE_MODULES = ["bellsim", "bellsim.cli"]


class TestColdStart:
    def test_cli_import_loads_no_scipy(self):
        probe = (
            "import sys, bellsim.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True
        )
        assert result.stdout.strip() == "[]"

    @pytest.mark.parametrize(
        "argv, layers",
        [
            (None, []),
            (
                ["chsh", "--events", "2"],
                ["bellsim.harness", "bellsim.protocol", "bellsim.settings", "bellsim.states"],
            ),
            (["bounds", "--fidelity", "0.87"], ["bellsim.bounds", "bellsim.settings"]),
            (["lhv", "--grid", "8"], ["bellsim.bounds", "bellsim.settings"]),
            (["loopholes"], ["bellsim.loopholes"]),
            (["swap", "--trials", "10"], ["bellsim.loopholes", "bellsim.network"]),
        ],
        ids=["import", "chsh", "bounds", "lhv", "loopholes", "swap"],
    )
    def test_each_command_loads_only_its_layers(self, argv, layers):
        """A cold process loads the CLI core plus the layers its command runs.
        The report goes to stdout, so the module list goes to stderr."""
        run = "" if argv is None else f"assert bellsim.cli.main({argv!r}) == 0; "
        probe = (
            f"import sys, bellsim.cli; {run}"
            "print(sorted(m for m in sys.modules if m.startswith('bellsim')), file=sys.stderr)"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True
        )
        assert result.stderr.strip() == str(sorted(_CORE_MODULES + layers))

    def test_bounds_loads_no_numpy(self):
        """The Bell window is plain float arithmetic on two 2x2 blocks, its types
        are NamedTuples, and a JSON report needs no ``csv``."""
        probe = (
            "import sys, bellsim.cli; "
            "assert bellsim.cli.main(['bounds', '--fidelity', '0.87']) == 0; "
            "loaded = {'numpy', 'dataclasses', 'inspect', 'ast', 'dis', 'csv'} & set(sys.modules); "
            "assert not loaded, sorted(loaded)"
        )
        result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr

    def test_network_import_loads_no_numpy(self):
        """The swap closed form and the latency series are plain ``math``."""
        probe = "import sys, bellsim.network; assert 'numpy' not in sys.modules"
        result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr

    def test_runs_that_compute_nothing_load_no_numpy(self):
        """The import, loopholes, --version, --help and a config error run
        without numpy or dataclasses; each step is checked in the same cold process."""
        probe = (
            "import sys, bellsim.cli\n"
            "def check(step):\n"
            "    assert 'numpy' not in sys.modules, step\n"
            "    assert 'dataclasses' not in sys.modules, step\n"
            "check('import')\n"
            "for argv, code in [(['loopholes'], 0), (['--version'], 0), (['--help'], 0),\n"
            "                   (['chsh', '--werner-p', '2'], 2)]:\n"
            "    status = bellsim.cli.main(argv)  # main returns argparse's exit code\n"
            "    assert status == code, (argv, status)\n"
            "    check(argv)\n"
        )
        result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr


# The physical failures that a schema-valid config can still describe: each
# exits 1 with a message naming it, ``test_physical_failure_exits_1_naming_it``
# reaches each on purpose, and the whole-range gate allows no other exit 1.
_EXIT_1_CAUSES = {
    "no outcome is ever recorded": ("chsh", "--pmt-eff1", "0", "--pmt-eff2", "0"),
    "lossy link": ("swap", "--coupling", "0"),
    "overflows a float": ("swap", "--attempt-rate", "5e-324"),
}


class TestRuntimeFailures:
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_non_finite_report_exits_1(self, capsys, monkeypatch, fmt):
        """The guard refuses a report that holds a non-finite number; no valid
        config is known to reach one, so the runner's report is replaced."""

        def overflowing(config):
            return {"required_separation_m": math.inf}

        monkeypatch.setitem(_RUNNERS, "loopholes", overflowing)
        code, out, err = run_cli(capsys, "loopholes", "--format", fmt)
        assert code == 1
        assert out == ""
        assert "non-finite" in err

    def test_unwritable_output_exits_1(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "lhv", "--grid", "8", "--output", str(tmp_path))
        assert code == 1
        assert "cannot write output" in err

    @pytest.mark.parametrize("cause, argv", sorted(_EXIT_1_CAUSES.items()))
    def test_physical_failure_exits_1_naming_it(self, capsys, cause, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert cause in err


_FLOAT_EXTREMES = (0.0, 5e-324, 1e-300, 1.0 - 1e-16, 1.0, 1e300, 1.7e308)


def _extremes(key, spec):
    """Values at the extremes of a key's type that the key's own test accepts."""
    accepts = spec.allowed[1] if spec.allowed else (lambda v: True)
    if spec.type is int:
        low = next(v for v in itertools.count() if accepts(v))
        pool = (low, low + 1, 2**53, 2**63 - 1, 2**1024)
    elif spec.type is bool:
        pool = (False, True)
    elif spec.type is str:
        pool = ("csv", "json")
    else:
        pool = _FLOAT_EXTREMES
    values = [v for v in pool if accepts(v)]
    if spec.type in (float, list):  # a JSON integer too large for a float
        values.append(10**400)
    if key == "grid":  # the Tsirelson scan is O(N^3): above 256 one run takes seconds
        values = [v for v in values if v <= 256]
    if spec.type is list:
        return st.lists(st.sampled_from(values), min_size=1, max_size=4)
    return st.sampled_from(values)


# Every key of every command, drawn or left to its default; ``output`` is
# left out so that each report comes back on stdout.
_CONFIGS = st.sampled_from(sorted(_SCHEMAS)).flatmap(
    lambda command: st.tuples(
        st.just(command),
        st.fixed_dictionaries(
            {},
            optional={
                key: _extremes(key, spec)
                for key, spec in _SCHEMAS[command].items()
                if key != "output"
            },
        ),
    )
)


def _run_in_process(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _reject_constant(name):
    raise AssertionError(f"the report holds {name}")


class TestWholeRange:
    @pytest.fixture(scope="class")
    def config_path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("whole_range") / "config.json"

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(case=_CONFIGS)
    def test_every_valid_config_reports_or_names_its_cause(self, config_path, case):
        command, config = case
        config_path.write_text(json.dumps(config), encoding="utf-8")
        code, out, err = _run_in_process(command, "--config", str(config_path))
        assert code in (0, 1, 2), err
        if code == 2:
            assert out == "" and err.startswith("configuration error:"), err
        elif code == 1:
            assert out == "" and any(cause in err for cause in _EXIT_1_CAUSES), err
        else:
            if config.get("format", "json") == "json":
                json.loads(out, parse_constant=_reject_constant)
            else:
                for row in csv.reader(out.splitlines()):
                    for cell in row:
                        try:
                            assert math.isfinite(float(cell)), f"the report holds {cell}"
                        except ValueError:
                            pass
            assert _run_in_process(command, "--config", str(config_path)) == (code, out, err)
