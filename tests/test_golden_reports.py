"""Golden reports: each CLI command's full text is pinned across changes.

Every case runs ``bellsim.cli.main`` in-process and records its exit
code, stdout and stderr as one text.  ``tests/golden/`` holds that text
per case, one ``<case>.txt`` file each, so a change that moves a report
shows every moved digit in its diff, and a failing case prints a unified
diff of the golden text against the new one.

A change that alters a report on purpose regenerates the files with

    PYTHONPATH=src python tests/test_golden_reports.py

and names the changed reports and the cause in its change notes.
"""

from __future__ import annotations

import contextlib
import difflib
import io
import os
import re
import shlex
from pathlib import Path
from unittest import mock

import pytest

from bellsim.cli import main

GOLDEN = Path(__file__).with_name("golden")

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
    "swap --link-success 0.01 --nodes 3",
    "swap --link-success 0.01 --nodes 10",
    "swap --nodes 1",
)
CASES = tuple(f"{command} --format {fmt}" for command in COMMANDS for fmt in ("json", "csv"))


def golden_path(case: str) -> Path:
    """The case's file: each run of characters other than letters, digits and ``.,-`` becomes ``_``."""
    return GOLDEN / (re.sub(r"[^A-Za-z0-9.,-]+", "_", case) + ".txt")


def run_case(case: str) -> str:
    """Exit code, stdout and stderr of one in-process CLI run, as one text."""
    out, err = io.StringIO(), io.StringIO()
    # argparse wraps its usage text to the terminal width; pin it.
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), contextlib.redirect_stdout(
        out
    ), contextlib.redirect_stderr(err):
        code = main(shlex.split(case))
    return f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


def test_golden_file_covers_exactly_the_cases():
    paths = [golden_path(case) for case in CASES]
    assert len(set(paths)) == len(CASES), "two cases share one golden file"
    assert sorted(GOLDEN.glob("*.txt")) == sorted(paths)


@pytest.mark.parametrize("case", CASES)
def test_report_bytes_match_golden(case):
    path = golden_path(case)
    want, got = path.read_bytes().decode(), run_case(case)
    if got != want:
        diff = difflib.unified_diff(
            want.splitlines(keepends=True),
            got.splitlines(keepends=True),
            f"{path.name} (golden)",
            f"bellsim {case}",
        )
        pytest.fail("".join(diff), pytrace=False)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for stale in set(GOLDEN.glob("*.txt")) - {golden_path(case) for case in CASES}:
        stale.unlink()
    for case in CASES:
        golden_path(case).write_bytes(run_case(case).encode())
