"""Golden report digests: each CLI command's bytes are pinned across changes.

Every case runs ``bellsim.cli.main`` in-process and hashes its exit code,
stdout and stderr.  ``golden_reports.json`` holds, per case, the SHA-256
of that text and a 4-hex-digit fingerprint of each of its lines, so a
mismatch names the first line that differs, not just a hash.

A change that alters a report on purpose regenerates the file with

    PYTHONPATH=src python tests/test_golden_reports.py > tests/golden_reports.json

and names the changed reports and the cause in its change notes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shlex
import sys
from pathlib import Path
from unittest import mock

import pytest

from bellsim.cli import main

GOLDEN = Path(__file__).with_name("golden_reports.json")

COMMANDS = (
    "chsh",
    "chsh --table1-fixture",
    "chsh --werner-p 0.82667 --dark-rate 1e-5 --bright-error 0.025 --dark-error 0.025"
    " --pmt-eff2 0.8",
    "chsh --werner-p 0",
    "chsh --seed 42 --events 100000",
    "chsh --seed -1",
    "chsh --no-such-flag",
    "bounds --fidelity 0.87",
    "bounds --fidelity 0.87 --angles 0.1,0.4,0.15,0.9",
    "bounds --fidelity 0.3",
    "bounds --fidelity 1.0",
    "bounds",
    "lhv --grid 16",
    "lhv --grid 30",
    "lhv --grid 4",
    "loopholes",
    "loopholes --feasibility-grid",
    "loopholes --detection-time 50e-6 --separation 15000",
    "loopholes --coupling 2",
    "swap",
    "swap --nodes 60",
    "swap --nodes 3 --trials 100",
    "swap --trials 1000 --werner-p-a 0.82667 --werner-p-b 0.9",
    "swap --nodes 1",
)
CASES = tuple(f"{command} --format {fmt}" for command in COMMANDS for fmt in ("json", "csv"))


def run_case(case: str) -> str:
    """Exit code, stdout and stderr of one in-process CLI run, as one text."""
    out, err = io.StringIO(), io.StringIO()
    # argparse wraps its usage text to the terminal width; pin it.
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), contextlib.redirect_stdout(
        out
    ), contextlib.redirect_stderr(err):
        code = main(shlex.split(case))
    return f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


def fingerprint(text: str) -> dict[str, str]:
    lines = text.splitlines()
    return {
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "lines": "".join(hashlib.sha256(line.encode()).hexdigest()[:4] for line in lines),
    }


@pytest.fixture(scope="module")
def golden() -> dict[str, dict[str, str]]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_covers_exactly_the_cases(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_report_bytes_match_golden(case, golden):
    text = run_case(case)
    got, want = fingerprint(text), golden[case]
    if got["sha256"] == want["sha256"]:
        return
    lines = text.splitlines()
    for number, line in enumerate(lines):
        if got["lines"][4 * number : 4 * number + 4] != want["lines"][4 * number : 4 * number + 4]:
            pytest.fail(f"bellsim {case}: first differing line {number + 1}: {line!r}")
    pytest.fail(
        f"bellsim {case}: output has {len(lines)} lines, the golden one "
        f"{len(want['lines']) // 4}; no line differs before the shorter one ends"
    )


if __name__ == "__main__":
    json.dump({case: fingerprint(run_case(case)) for case in CASES}, sys.stdout, indent=1)
    sys.stdout.write("\n")
