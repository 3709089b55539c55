"""The benchmark's workloads: which ops each one runs, and how each op is checked.

A workload is a cycle of ops repeated in a closed loop by one client.  CLI
ops are cold ``python -m bellsim.cli`` invocations; every one receives a
``--seed`` drawn from the benchmark seed.  No op passes ``--threads`` or
``--restarts``, which are planned for removal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import checks

CANONICAL_PI = (0.0, 0.5, 0.25, 0.75)


@dataclass(frozen=True)
class CliOp:
    name: str  # the command as a user types it; "S" is the seed
    args: tuple[str, ...]
    check: Callable[[str], checks.Result]


def _cli(name: str, check: Callable[[str], checks.Result]) -> CliOp:
    args = tuple(part for part in name.split() if part not in ("--seed", "S"))
    return CliOp(name, args, check)


# Ops whose reference check fails because of a known bellsim defect, with
# the text their failure reason must contain.  They stay in their
# workloads so that fixing the defect shows as fewer failed ops.
KNOWN_DEFECTS = {
    # cmd_bounds prints the canonical-angle closed form for custom angles.
    "bounds --fidelity 0.87 --angles 0.1,0.4,0.15,0.9": "closed_form window",
    # chain_latency's alternating inclusion-exclusion sum loses accuracy at 59 links.
    "swap --nodes 60": "expected_latency_s",
}

QUICK_REPORTS = (
    _cli("chsh --seed S", checks.check_chsh),
    _cli("chsh --table1-fixture", checks.check_chsh_fixture),
    _cli(
        "chsh --werner-p 0.82667 --pmt-eff2 0.8 --events 10000 --format csv",
        partial(checks.check_chsh, fmt="csv", events=10000, werner_p=0.82667, pmt_efficiency_2=0.8),
    ),
    _cli("lhv --grid 64", partial(checks.check_lhv, grid=64)),
    _cli(
        "loopholes --detection-time 50e-6 --feasibility-grid",
        partial(checks.check_loopholes, detection_time=50e-6),
    ),
    _cli("swap --trials 100000 --nodes 3", partial(checks.check_swap, trials=100000, nodes=3)),
    _cli("swap --nodes 60", partial(checks.check_swap, trials=100000, nodes=60)),
)

CANONICAL_BOUNDS = (
    _cli("bounds --fidelity 0.6", partial(checks.check_bounds, fidelity=0.6, angles_pi=CANONICAL_PI)),
    _cli("bounds --fidelity 0.87", partial(checks.check_bounds, fidelity=0.87, angles_pi=CANONICAL_PI)),
    _cli(
        "bounds --fidelity 0.95 --format csv",
        partial(checks.check_bounds, fidelity=0.95, angles_pi=CANONICAL_PI, fmt="csv"),
    ),
)
# The canonical ops run three times per cycle: the custom-angle op can take
# as long as ten canonical ops, and a cycle of four ops would put too few
# samples under the median to make it steady.
BOUNDS_WINDOW = (
    *CANONICAL_BOUNDS * 3,
    _cli(
        "bounds --fidelity 0.87 --angles 0.1,0.4,0.15,0.9",
        partial(checks.check_bounds, fidelity=0.87, angles_pi=(0.1, 0.4, 0.15, 0.9)),
    ),
)

CLI_WORKLOADS = {"quick_reports": QUICK_REPORTS, "bounds_window": BOUNDS_WINDOW}
WORKLOADS = (*CLI_WORKLOADS, "event_stream")
