"""Every CLI op of the benchmark passes the benchmark's own check, in-process.

The benchmark checks each op's report against references that import
nothing from bellsim.  Running the same ops and checks here makes a change
that breaks them fail the tier-1 suite, not only a later benchmark run.
A failure is accepted only where the benchmark accepts it: its reason
holds the op's ``KNOWN_DEFECTS`` marker.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import run  # noqa: E402
import workloads  # noqa: E402

from bellsim import cli  # noqa: E402

_OPS = {op.name: op for ops in workloads.CLI_WORKLOADS.values() for op in ops}


@pytest.mark.parametrize("name", sorted(_OPS))
def test_cli_op_passes_its_benchmark_check(name, capsys):
    op = _OPS[name]
    status = cli.main([*op.args, "--seed", "1"])
    problems, _ = run.check_text(op, status, capsys.readouterr().out)
    reason = "; ".join(problems)
    assert not problems or run.Ledger().expected(name, reason), reason
