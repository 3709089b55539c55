"""bellsim benchmark: run one workload for a fixed time and print its metrics.

    python3 benchmarks/run.py --workload quick_reports --seed 1 --seconds 30 --trace 0

Workloads (see README.md in this directory for why each exists):

- quick_reports: cold ``python -m bellsim.cli`` runs of the README commands
  except ``bounds``;
- bounds_window: cold ``bellsim bounds`` runs at three fidelities and at
  custom angles;
- event_stream: in-process blocks of the per-event sampler and of
  ``simulate_attempts``.

One client runs the workload's ops in whole cycles, in a closed loop,
until another cycle would end past ``--seconds``; at most one child
process runs at a time.  Every op's output is checked against an
independent reference (``reference.py``) and a wrong answer counts as a
failed op.  With ``--trace 0`` the last stdout line holds the end-to-end
metrics; with ``--trace 1`` each op also runs once more in a traced child
(``tracer.py``) and the last line holds the per-layer metrics.  A results
file with a machine record goes to ``benchmarks/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import numpy as np

import checks
import reference
import events
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

SETUP_REPEATS = 7
INTERPRETER_REPEATS = 5
OP_TIMEOUT_S = 60.0
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "cycle_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
    "cli.import_scipy_s": "s",
    "cli.config_s": "s",
    "cli.command_s": "s",
    "cli.render_s": "s",
    "cli.child_cpu_s": "s",
    "cli.self_s": "s",
    "states.calls": "count",
    "states.self_s": "s",
    "states.density_validations": "count",
    "protocol.events": "count",
    "protocol.attempts": "count",
    "protocol.accept_ratio": "ratio",
    "protocol.self_s": "s",
    "protocol.us_per_event.pure": "us",
    "protocol.us_per_event.mixed": "us",
    "protocol.us_per_event.single_pulse": "us",
    "protocol.us_per_event.dark": "us",
    "harness.self_s": "s",
    "harness.run_experiment.calls": "count",
    "harness.run_experiment.self_s": "s",
    "bounds.self_s": "s",
    "bounds.extremal_bell_numeric.self_s": "s",
    "bounds.tsirelson_scan.self_s": "s",
    "bounds.window_err": "abs",
    "bounds.converged_share": "ratio",
    "network.self_s": "s",
    "network.swap_conditional_states.self_s": "s",
    "network.chain_latency.self_s": "s",
    "network.latency_rel_err": "ratio",
    "trace.overhead_share": "ratio",
}


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no bellsim sources, or a broken import)."""


# ---------------------------------------------------------------------------
# child processes


@dataclass(frozen=True)
class Child:
    status: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    stdout: str
    stderr: str


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], env: dict[str, str]) -> Child:
    """Run one child to completion; wall time spans process start to exit."""
    with tempfile.TemporaryFile(dir=RESULTS) as out, tempfile.TemporaryFile(dir=RESULTS) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=env)
        # Killing by pid is safe: the child stays unreaped until wait4 returns.
        timer = threading.Timer(OP_TIMEOUT_S, os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(
            status=proc.returncode,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            maxrss_mb=usage.ru_maxrss / 1024.0,
            stdout=out.read().decode("utf-8", "replace"),
            stderr=err.read().decode("utf-8", "replace"),
        )


def cold_imports(module: str, env: dict[str, str], repeats: int) -> list[float]:
    """Import times of ``module`` in fresh interpreters, after one warm-up run.

    The warm-up fills the bytecode cache and checks that bellsim comes
    from this checkout's ``src``.
    """
    code = (
        "import time; t = time.perf_counter(); "
        f"import {module} as m; print(time.perf_counter() - t); print(m.__file__)"
    )
    times = []
    for attempt in range(repeats + 1):
        child = run_child([sys.executable, "-c", code], env)
        if child.status != 0:
            raise SetupError(f"importing {module} failed: {child.stderr.strip()[-500:]}")
        seconds, path = child.stdout.split()
        if not Path(path).resolve().is_relative_to(SRC.resolve()):
            raise SetupError(f"{module} was imported from {path}, not from {SRC}")
        if attempt:
            times.append(float(seconds))
    return times


def git_state() -> tuple[str | None, bool | None]:
    """(commit, tracked files modified) when the checkout is a git repository."""
    if not (ROOT / ".git").exists():
        return None, None
    git = ["git", "-C", str(ROOT)]
    try:
        head = subprocess.run([*git, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
        status = subprocess.run(
            [*git, "status", "--porcelain", "--untracked-files=no"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None, None
    dirty = bool(status.stdout.strip()) if status.returncode == 0 else None
    return head.stdout.strip() or None, dirty


def machine_record(seed: int, env: dict[str, str]) -> dict:
    floor = [run_child([sys.executable, "-c", "pass"], env).wall_s for _ in range(INTERPRETER_REPEATS)]
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = None
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    commit, dirty = git_state()
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas,
        "num_threads_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "git_commit": commit,
        "git_dirty": dirty,
        "benchmark_seed": seed,
        "cli.interpreter_s": statistics.median(floor),
    }


# ---------------------------------------------------------------------------
# op accounting


class Ledger:
    """Attempted and failed ops by name, with the reasons for each failure."""

    def __init__(self) -> None:
        self.attempted: Counter[str] = Counter()
        self.failures: dict[str, Counter[str]] = defaultdict(Counter)
        self.extra_problems: list[str] = []

    def record(self, name: str, problems: list[str]) -> None:
        self.attempted[name] += 1
        if problems:
            self.failures[name]["; ".join(problems)] += 1

    @property
    def failed(self) -> int:
        return sum(sum(reasons.values()) for reasons in self.failures.values())

    def expected(self, name: str, reason: str) -> bool:
        marker = workloads.KNOWN_DEFECTS.get(name)
        return marker is not None and marker in reason

    @property
    def correct(self) -> bool:
        return not self.extra_problems and all(
            self.expected(name, reason) for name, reasons in self.failures.items() for reason in reasons
        )

    def summary_lines(self) -> list[str]:
        total = sum(self.attempted.values())
        lines = [f"ops: {total} attempted, {self.failed} failed"]
        for name, reasons in sorted(self.failures.items()):
            for reason, count in reasons.items():
                tag = "known defect" if self.expected(name, reason) else "UNEXPECTED"
                lines.append(f"  FAIL [{tag}] {name} ({count} of {self.attempted[name]}): {reason}")
        lines.extend(f"  FAIL [UNEXPECTED] {problem}" for problem in self.extra_problems)
        return lines


def check_text(op: workloads.CliOp, status: int, text: str) -> checks.Result:
    if status != 0:
        return [f"exit status {status}"], {}
    try:
        return op.check(text)
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        return [f"unparsable output: {exc!r}"], {}


class TallyPool:
    """Cell-wise pooled tallies of all blocks of a kind, for a sharper 5-sigma check."""

    def __init__(self) -> None:
        self.observed: dict[str, np.ndarray] = defaultdict(lambda: np.zeros(4))
        self.expected: dict[str, np.ndarray] = defaultdict(lambda: np.zeros(4))
        self.variance: dict[str, np.ndarray] = defaultdict(lambda: np.zeros(4))

    def add(self, result: dict) -> None:
        dist, _, _ = reference.recorded_distribution(**result["oracle"])
        p = dist.reshape(-1)
        n = result["events"]
        kind = result["kind"]
        self.observed[kind] += np.array(result["counts"]).reshape(-1)
        self.expected[kind] += n * p
        self.variance[kind] += n * p * (1.0 - p)

    def problems(self) -> list[str]:
        out = []
        for kind, observed in self.observed.items():
            z = np.abs(observed - self.expected[kind]) / np.sqrt(np.maximum(self.variance[kind], 1e-12))
            if z.max() > checks.SIGMA_BAND:
                out.append(f"pooled {kind} tallies deviate {z.max():.1f} sigma from the oracle")
        return out


# ---------------------------------------------------------------------------
# traced runs


def scipy_import_s(importtime_stderr: str) -> float:
    """Cumulative import time of scipy modules imported from outside scipy."""
    entries = []
    for line in importtime_stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2]
        entries.append((len(name) - len(name.lstrip(" ")), int(parts[1]), name.strip()))
    total_us = 0
    stack: list[tuple[int, str]] = []
    for level, cumulative, name in reversed(entries):  # parents precede children
        while stack and stack[-1][0] >= level:
            stack.pop()
        parent = stack[-1][1] if stack else ""
        if name.split(".")[0] == "scipy" and parent.split(".")[0] != "scipy":
            total_us += cumulative
        stack.append((level, name))
    return total_us / 1e6


class LayerTotals:
    """Span totals by name over all traced ops."""

    def __init__(self) -> None:
        self.ops = 0
        self.calls: Counter[str] = Counter()
        self.inclusive_s: Counter[str] = Counter()
        self.self_s: Counter[str] = Counter()
        self.sums: Counter[str] = Counter()  # per-op quantities summed over ops
        self.block_seconds: Counter[str] = Counter()
        self.block_events: Counter[str] = Counter()
        self.block_attempts: Counter[str] = Counter()
        self.traced_s = 0.0
        self.untraced_s = 0.0

    def add(self, data: dict, child: Child) -> None:
        self.ops += 1
        self.sums["cli.child_cpu_s"] += child.cpu_s
        self.sums["cli.import_scipy_s"] += scipy_import_s(child.stderr)
        spans = np.array(data["spans"], dtype=np.int64).reshape(-1, 4)
        names = data["names"]
        if spans.size:
            duration = (spans[:, 2] - spans[:, 1]) / 1e9
            covered = np.zeros(len(spans))
            has_parent = spans[:, 3] >= 0
            np.add.at(covered, spans[has_parent, 3], duration[has_parent])
            index = spans[:, 0]
            calls = np.bincount(index, minlength=len(names))
            inclusive = np.bincount(index, weights=duration, minlength=len(names))
            own = np.bincount(index, weights=duration - covered, minlength=len(names))
            for i, name in enumerate(names):
                self.calls[name] += int(calls[i])
                self.inclusive_s[name] += float(inclusive[i])
                self.self_s[name] += float(own[i])
        block = data.get("block")
        if block is None:
            self.sums["cli.import_s"] += data["import_s"]
        else:
            self.block_seconds[block["kind"]] += block["seconds"]
            self.block_events[block["kind"]] += block["events"]
            if block["n_attempts"] is None:
                self.block_attempts[block["kind"]] += block["attempts"]

    def metrics(self, machine: dict, diagnostics: dict[str, list[float]]) -> dict[str, float]:
        ops = max(self.ops, 1)

        def module_self(layer: str) -> float:
            return sum(v for k, v in self.self_s.items() if k.startswith(layer + ".")) / ops

        def per_call_self(name: str) -> float:
            return self.self_s[name] / self.calls[name] if self.calls[name] else 0.0

        def us_per_event(kind: str) -> float:
            events_ = self.block_events[kind]
            return 1e6 * self.block_seconds[kind] / events_ if events_ else 0.0

        command_s = sum(v for k, v in self.inclusive_s.items() if k.startswith("cli.cmd_"))
        heralded = [k for k in self.block_attempts if self.block_attempts[k]]
        attempts = sum(self.block_attempts[k] for k in heralded)
        events_ = sum(self.block_events[k] for k in heralded)
        bounds_converged = diagnostics.get("converged", [])
        values = {
            "cli.interpreter_s": machine["cli.interpreter_s"],
            "cli.import_s": self.sums["cli.import_s"] / ops,
            "cli.import_scipy_s": self.sums["cli.import_scipy_s"] / ops,
            "cli.config_s": (self.inclusive_s["cli.load_config_file"] + self.inclusive_s["cli.resolve_config"]) / ops,
            "cli.command_s": command_s / ops,
            "cli.render_s": (self.inclusive_s["cli.run_command"] - command_s) / ops,
            "cli.child_cpu_s": self.sums["cli.child_cpu_s"] / ops,
            "cli.self_s": module_self("cli"),
            "states.calls": sum(v for k, v in self.calls.items() if k.startswith("states.")) / ops,
            "states.self_s": module_self("states"),
            "states.density_validations": (
                self.calls["states.DensityMatrix"] + self.calls["states.TwoQubitState"]
            ) / ops,
            "protocol.events": events_ / ops,
            "protocol.attempts": attempts / ops,
            "protocol.accept_ratio": events_ / attempts if attempts else 0.0,
            "protocol.self_s": module_self("protocol"),
            "protocol.us_per_event.pure": us_per_event("pure"),
            "protocol.us_per_event.mixed": us_per_event("mixed"),
            "protocol.us_per_event.single_pulse": us_per_event("single_pulse"),
            "protocol.us_per_event.dark": us_per_event("dark"),
            "harness.self_s": module_self("harness"),
            "harness.run_experiment.calls": self.calls["harness.run_experiment"] / ops,
            "harness.run_experiment.self_s": per_call_self("harness.run_experiment"),
            "bounds.self_s": module_self("bounds"),
            "bounds.extremal_bell_numeric.self_s": per_call_self("bounds.extremal_bell_numeric"),
            "bounds.tsirelson_scan.self_s": per_call_self("bounds.tsirelson_scan"),
            "bounds.window_err": max(diagnostics.get("window_err", [0.0])),
            "bounds.converged_share": statistics.fmean(bounds_converged) if bounds_converged else 0.0,
            "network.self_s": module_self("network"),
            "network.swap_conditional_states.self_s": per_call_self("network.swap_conditional_states"),
            "network.chain_latency.self_s": per_call_self("network.chain_latency"),
            "network.latency_rel_err": max(diagnostics.get("latency_rel_err", [0.0])),
            "trace.overhead_share": (
                (self.traced_s - self.untraced_s) / self.untraced_s if self.untraced_s else 0.0
            ),
        }
        return values


def run_traced(mode: str, args: list[str], env: dict[str, str]) -> tuple[Child, dict | None]:
    spans_path = RESULTS / f"spans-{os.getpid()}.json"
    argv = [sys.executable, "-X", "importtime", str(HERE / "tracer.py"), str(spans_path), mode, *args]
    try:
        child = run_child(argv, env)
        try:
            data = json.loads(spans_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            data = None
    finally:
        spans_path.unlink(missing_ok=True)
    return child, data


# ---------------------------------------------------------------------------
# workloads


class Run:
    """State of one benchmark run: samples, ledger, diagnostics, traces."""

    def __init__(self, workload: str, seed: int, trace: bool, env: dict[str, str]) -> None:
        self.workload = workload
        self.rng = random.Random(seed)
        self.trace = trace
        self.env = env
        self.ledger = Ledger()
        self.walls: dict[str, list[float]] = defaultdict(list)
        self.peak_rss_mb = 0.0
        self.diagnostics: dict[str, list[float]] = defaultdict(list)
        self.layers = LayerTotals()
        self.pool = TallyPool()
        self.block_stats: dict[str, Counter] = defaultdict(Counter)

    def _note(self, name: str, problems: list[str], diagnostics: dict) -> None:
        self.ledger.record(name, problems)
        for key, value in diagnostics.items():
            self.diagnostics[key].append(value)

    def cli_cycle(self) -> None:
        ops = workloads.CLI_WORKLOADS[self.workload]
        if self.trace:
            ops = tuple(dict.fromkeys(ops))  # each distinct op once per traced cycle
        for op in ops:
            args = [*op.args, "--seed", str(self.rng.getrandbits(31))]
            child = run_child([sys.executable, "-m", "bellsim.cli", *args], self.env)
            self.walls[op.name].append(child.wall_s)
            self.peak_rss_mb = max(self.peak_rss_mb, child.maxrss_mb)
            self._note(op.name, *check_text(op, child.status, child.stdout))
            if self.trace:
                traced, data = run_traced("cli", args, self.env)
                self._note(op.name, *check_text(op, traced.status, traced.stdout))
                if data is not None:
                    self.layers.add(data, traced)
                    self.layers.traced_s += traced.wall_s
                    self.layers.untraced_s += child.wall_s

    def event_cycle(self) -> None:
        for spec in events.block_specs(self.rng):
            result = events.run_block(spec)
            self._check_block(result)
            self.walls[spec["kind"]].append(result["seconds"])
            if self.trace:
                traced, data = run_traced("events", [json.dumps(spec)], self.env)
                block = data.get("block") if data else None
                if traced.status != 0 or block is None:
                    self.ledger.record(spec["kind"], [f"traced block failed with status {traced.status}"])
                    continue
                self._check_block(block)
                self.layers.add(data, traced)
                self.layers.traced_s += block["seconds"]
                self.layers.untraced_s += result["seconds"]

    def _check_block(self, result: dict) -> None:
        problems, _ = checks.check_block(result)
        self.ledger.record(result["kind"], problems)
        self.pool.add(result)
        stats = self.block_stats[result["kind"]]
        stats["seconds"] += result["seconds"]
        stats["events"] += result["events"]
        stats["attempts"] += result["n_attempts"] or 0

    def measure(self, seconds: float) -> int:
        """Whole cycles until another one would end past ``seconds``; at least one."""
        cycle = self.event_cycle if self.workload == "event_stream" else self.cli_cycle
        start = time.perf_counter()
        cycles = 0
        while True:
            cycle()
            cycles += 1
            elapsed = time.perf_counter() - start
            if elapsed * (cycles + 1) / cycles > seconds:
                break
        if self.workload == "event_stream":
            self.ledger.extra_problems.extend(self.pool.problems())
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return cycles


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with TAIL_BEYOND samples above it.

    With too few samples for that, the maximum, with nothing beyond it.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    rank = n - TAIL_BEYOND  # 1-based rank of the reported sample
    return ordered[rank - 1], 100.0 * rank / n, TAIL_BEYOND


def end_to_end(run: Run, setup_times: list[float]) -> tuple[dict[str, float], dict]:
    all_walls = [w for walls in run.walls.values() for w in walls]
    tail_value, percentile, beyond = tail(all_walls)
    values = {
        "setup_s": statistics.median(setup_times),
        "op_p50_s": statistics.median(all_walls),
        "op_tail_s": tail_value,
        "cycle_s": sum(statistics.median(walls) for walls in run.walls.values()),
        "peak_rss_mb": run.peak_rss_mb,
    }
    detail = {
        "op_tail_percentile": percentile,
        "op_tail_samples_beyond": beyond,
        "op_samples": len(all_walls),
        "setup_samples": setup_times,
        "per_op_median_s": {name: statistics.median(walls) for name, walls in run.walls.items()},
    }
    return values, detail


def user_figures(run: Run, values: dict[str, float]) -> dict[str, tuple[float, str]]:
    """The user-facing figures under the names the workload's users know them by."""
    attempted = sum(run.ledger.attempted.values())
    table = {"setup_s": (values["setup_s"], "s")}
    if run.workload in workloads.CLI_WORKLOADS:
        table["report_p50_s"] = (values["op_p50_s"], "s")
        table["report_tail_s"] = (values["op_tail_s"], "s")
    else:
        stats = run.block_stats

        def rate(kinds: tuple[str, ...], field: str) -> float:
            seconds = sum(stats[k]["seconds"] for k in kinds)
            return sum(stats[k][field] for k in kinds) / seconds if seconds else 0.0

        table["pure_events_per_s"] = (rate(("pure",), "events"), "1/s")
        table["mixed_events_per_s"] = (rate(events.WERNER_KINDS, "events"), "1/s")
        table["attempts_per_s"] = (rate(("attempts",), "attempts"), "1/s")
    table["peak_rss_mb"] = (values["peak_rss_mb"], "MB")
    table["fail_share"] = (run.ledger.failed / attempted if attempted else 0.0, "ratio")
    return table


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through run_child so that the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "bellsim" / "__init__.py").is_file():
        print(f"error: no bellsim sources under {SRC}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    env = child_env()
    entry = "bellsim.protocol" if args.workload == "event_stream" else "bellsim.cli"
    try:
        setup_times = cold_imports(entry, env, 0 if args.trace else SETUP_REPEATS)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "event_stream":
        sys.path.insert(0, str(SRC))
    machine = machine_record(args.seed, env)

    run = Run(args.workload, args.seed, bool(args.trace), env)
    cycles = run.measure(args.seconds)

    if args.trace:
        values = run.layers.metrics(machine, run.diagnostics)
        units = PER_LAYER_UNITS
        detail: dict = {"traced_ops": run.layers.ops}
        table = {}
    else:
        values, detail = end_to_end(run, setup_times)
        units = END_TO_END_UNITS
        table = user_figures(run, values)
    detail["cycles"] = cycles

    print(f"bellsim benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(
        "machine: " + " ".join(f"{k}={machine[k]}" for k in ("nproc", "python", "numpy", "scipy", "git_commit", "git_dirty"))
        + f" interpreter={machine['cli.interpreter_s']:.3f}s threads_env={machine['num_threads_env']}"
    )
    for line in run.ledger.summary_lines():
        print(line)
    if not args.trace:
        print(
            f"op_tail_s is p{detail['op_tail_percentile']:.0f} of {detail['op_samples']} ops"
            f" ({detail['op_tail_samples_beyond']} beyond); {cycles} cycles"
        )
    for name, (value, unit) in table.items():
        print(f"  {name:<20} {value:.6g} {unit}")
    for name, value in values.items():
        print(f"  {name:<40} {value:.6g} {units[name]}")

    attempted = sum(run.ledger.attempted.values())
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
        "user_figures": {name: {"value": v, "unit": u} for name, (v, u) in table.items()},
        "detail": detail,
        "attempted": dict(run.ledger.attempted),
        "failures": {name: dict(reasons) for name, reasons in run.ledger.failures.items()},
        "extra_problems": run.ledger.extra_problems,
        "correct": run.ledger.correct,
    }
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": run.ledger.correct,
        "attempted": attempted,
        "failed": run.ledger.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
