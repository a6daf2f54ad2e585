"""The benchmark's entry point: one workload, one seed, one JSON result line.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload fleet-batch --seed 1 --seconds 36 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` makes a separate traced run and reports the per-layer
metrics instead.  The last line of standard output is the result::

    {"correct": true, "attempted": 9, "failed": 0, "metrics": {...}}

The program is imported from ``<checkout>/src`` (or ``--src``); without
it the script exits with code 2 and prints no result.  README.md in
this directory documents the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import ctl_load  # noqa: E402
import workloads  # noqa: E402

#: Fewest batch repeats a run makes, however long each takes: the
#: median and the determinism check need at least three.
MIN_REPEATS = 3

#: Daemons a serve-ctl run spawns; each one's spawn-to-submit time is a
#: set-up sample, and the last one takes the load.
SERVE_SETUPS = 3

#: How long one batch repeat may take before the run is abandoned.
REPEAT_TIMEOUT_S = 120.0

#: Where the daemon's socket and stats file live, relative to the root.
WORK_DIR = ".perfbench_run"

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)

#: Metric name -> unit, end-to-end and per-layer, as BENCHMARK.json fixes them.
E2E_UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}


def pct(values: list[float], p: float) -> float:
    """Nearest-rank percentile (``p`` in [0, 100]); 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


# ----------------------------------------------------------------------
# Batch workloads
# ----------------------------------------------------------------------
def batch_repeat(workload: str, seed: int, env: dict[str, str], trace: bool) -> dict[str, Any]:
    """One repeat in a fresh process; its JSON result."""
    command = [sys.executable, os.path.join(HERE, "batch.py"), "--workload", workload, "--seed", str(seed)]
    if trace:
        command.append("--trace")
    done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=REPEAT_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"batch repeat exited with {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def sim_stats(repeat: dict[str, Any]) -> tuple:
    """The simulated outcome, which every repeat of one seed must share."""
    return (repeat["events"], repeat["queries"], repeat["sim_p99_s"], repeat["avg_power_w"])


def run_batch(workload: str, seed: int, seconds: float, env: dict[str, str]) -> dict[str, Any]:
    started = time.perf_counter()
    repeats: list[dict[str, Any]] = []
    # Start another repeat only while it is expected to end in time.
    while len(repeats) < MIN_REPEATS or (
        time.perf_counter() - started
    ) * (len(repeats) + 1) / len(repeats) <= seconds:
        repeats.append(batch_repeat(workload, seed, env, trace=False))
    first = sim_stats(repeats[0])
    failed = 0
    problems = []
    for index, repeat in enumerate(repeats):
        wrong = list(repeat["errors"])
        if sim_stats(repeat) != first:
            wrong.append(f"simulated stats {sim_stats(repeat)} differ from repeat 0's {first}")
        if wrong:
            failed += 1
            problems.extend(f"repeat {index}: {text}" for text in wrong)
    metrics = {
        "queries_per_s": median([r["queries"] / r["run_s"] for r in repeats]),
        "sim_s_per_s": median([r["sim_s"] / r["run_s"] for r in repeats]),
        "setup_s": median([r["setup_s"] for r in repeats]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in repeats]),
        "success_ratio": (len(repeats) - failed) / len(repeats),
    }
    return result(len(repeats), failed, problems, metrics, E2E_UNITS)


def run_batch_traced(workload: str, seed: int, env: dict[str, str]) -> dict[str, Any]:
    plain = batch_repeat(workload, seed, env, trace=False)
    traced = batch_repeat(workload, seed, env, trace=True)
    problems = [f"untraced: {text}" for text in plain["errors"]]
    traced_problems = [f"traced: {text}" for text in traced["errors"]]
    if sim_stats(plain) != sim_stats(traced):
        traced_problems.append(f"simulated {sim_stats(traced)}, untraced {sim_stats(plain)}")
    failed = bool(problems) + bool(traced_problems)
    problems += traced_problems
    span = traced["trace"]
    metrics = layer_metrics(span, plain["events"])
    metrics.update(
        {
            "sim.events": plain["events"],
            "sim.heap_peak": span["heap_peak"],
            "sim.compactions": plain["compactions"],
            "sim.p99_s": plain["sim_p99_s"],
            "cluster.telemetry_samples": plain["telemetry_samples"],
            "core.ticks": plain["core_ticks"],
            "core.actions": plain["core_actions"],
            "core.acted_ratio": acted_ratio(plain),
            "guard.violations": plain["guard_violations"],
            "obs.spans": plain["obs_spans"],
            "obs.audit_entries": plain["obs_audit_entries"],
            "scenario.import_s": plain["import_s"],
            "scenario.build_s": plain["build_s"],
            "scenario.arm_s": plain["arm_s"],
            "scenario.collect_s": plain["collect_s"],
            "gc.collections": plain["gc_collections"],
            "gc.pause_s": plain["gc_pause_s"],
            "gc.cyclic_garbage": plain["cyclic_garbage"],
            "alloc.blocks_per_query": plain["blocks_per_query"],
            "trace.overhead_ratio": traced["run_s"] / plain["run_s"],
            "trace.accounted_ratio": sum(span["self_s"].values()) / span["wall_s"],
        }
    )
    return result(2, failed, problems, metrics, LAYER_UNITS)


def acted_ratio(stats: dict[str, Any]) -> float:
    """Controller actions that changed something, over all it logged."""
    logged = stats["core_actions"] + stats["core_skips"]
    return stats["core_actions"] / logged if logged else 0.0


def layer_metrics(span: dict[str, Any], events: int) -> dict[str, float]:
    """Per-layer numbers every traced run derives the same way."""
    self_s: dict[str, float] = {}
    for name, seconds in span["self_s"].items():
        layer = name.split(".", 1)[0]
        self_s[layer] = self_s.get(layer, 0.0) + seconds
    calls = span["calls"]
    metrics = {name: 0.0 for name in LAYER_UNITS}
    for layer in ("sim", "service", "workloads", "cluster", "core", "guard", "obs", "scenario", "serve"):
        metrics[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    metrics.update(
        {
            "sim.ns_per_event": self_s.get("sim", 0.0) / events * 1e9 if events else 0.0,
            "service.dispatch_calls": calls.get("service.select", 0),
            "service.dispatch_self_s": span["self_s"].get("service.select", 0.0),
            "service.hops": calls.get("service.stage_submit", 0),
            "workloads.arrivals": span["events_by_layer"].get("workloads", 0),
            "cluster.dvfs_changes": calls.get("cluster.set_level", 0),
            "guard.checks": calls.get("guard.check", 0),
            "obs.hook_calls": span["entries"].get("obs", 0),
            "serve.idle_s": self_s.get("idle", 0.0),
        }
    )
    return metrics


# ----------------------------------------------------------------------
# serve-ctl
# ----------------------------------------------------------------------
def serve_window(drive: dict[str, Any]) -> tuple[float, float]:
    """Queries completed and sim-seconds advanced per wall second, from
    the first and last status replies of the window."""
    statuses = drive["statuses"]
    if len(statuses) < 2:
        raise RuntimeError("the window saw fewer than two status replies")
    (t0, first), (t1, last) = statuses[0], statuses[-1]
    wall = t1 - t0
    return (
        (last["queries_completed"] - first["queries_completed"]) / wall,
        (last["now_s"] - first["now_s"]) / wall,
    )


def serve_problems(drive: dict[str, Any]) -> list[str]:
    problems = [f"wrong reply: {text}" for text in drive["wrong"]]
    statuses = [status for _, status in drive["statuses"]]
    for before, after in zip(statuses, statuses[1:]):
        if after["now_s"] < before["now_s"] or after["queries_completed"] < before["queries_completed"]:
            problems.append("status went backwards")
            break
    return problems


def serve_spec(seed: int) -> dict[str, Any]:
    return workloads.fleet_spec(seed, workloads.SERVE_DURATION_S).to_dict()


def run_serve(seed: int, seconds: float, env: dict[str, str], work: str) -> dict[str, Any]:
    socket_path = os.path.join(work, "reprod.sock")
    spec = serve_spec(seed)
    setups = []
    for _ in range(SERVE_SETUPS - 1):
        daemon = ctl_load.Daemon(ROOT, env, socket_path, spec)
        setups.append(daemon.setup_s)
        daemon.shutdown()
    daemon = ctl_load.Daemon(ROOT, env, socket_path, spec)
    setups.append(daemon.setup_s)
    try:
        drive = ctl_load.drive(daemon, seconds, seed)
        rss = daemon.peak_rss_mb()
    finally:
        daemon.shutdown()
    queries_per_s, sim_s_per_s = serve_window(drive)
    failed = sum(drive["failures"].values())
    metrics = {
        "queries_per_s": queries_per_s,
        "sim_s_per_s": sim_s_per_s,
        "setup_s": median(setups),
        "peak_rss_mb": rss,
        "success_ratio": (drive["attempted"] - drive["disrupted"]) / drive["attempted"],
    }
    if drive["cut_offs"]:
        print(f"perfbench: {drive['cut_offs']} replies cut off by the daemon, requests sent again",
              file=sys.stderr)
    return result(drive["attempted"], failed, serve_problems(drive), metrics, E2E_UNITS, drive["failures"])


def run_serve_traced(seed: int, seconds: float, env: dict[str, str], work: str) -> dict[str, Any]:
    socket_path = os.path.join(work, "reprod.sock")
    stats_path = os.path.join(work, "stats.json")
    spec = serve_spec(seed)
    windows = {}
    for traced in (False, True):
        daemon = ctl_load.Daemon(ROOT, env, socket_path, spec, stats_path if traced else None)
        try:
            windows[traced] = ctl_load.drive(daemon, seconds / 2, seed)
        finally:
            daemon.shutdown()
    drive = windows[True]
    with open(stats_path) as handle:
        span = json.load(handle)
    run = span["runs"][ctl_load.RUN_NAME]
    durations = span["durations"]
    metrics = layer_metrics(span, run["events"])
    ms = lambda values, p: pct(values, p) * 1e3  # noqa: E731
    metrics.update(
        {
            "sim.events": run["events"],
            "sim.compactions": run["compactions"],
            "sim.p99_s": run["sim_p99_s"],
            "cluster.telemetry_samples": run["telemetry_samples"],
            "sim.heap_peak": span["heap_peak"],
            "core.ticks": run["core_ticks"],
            "core.actions": run["core_actions"],
            "core.acted_ratio": acted_ratio(run),
            "obs.audit_entries": run["audit_entries"],
            "scenario.import_s": span["import_s"],
            "scenario.build_s": sum(durations.get("scenario.build", [])),
            "scenario.arm_s": sum(durations.get("scenario.arm", [])),
            "serve.advance_p50_ms": ms(durations.get("serve.advance_to", []), 50),
            "serve.advance_p99_ms": ms(durations.get("serve.advance_to", []), 99),
            "serve.cmd_ms.status": ms(durations.get("serve.cmd.status", []), 50),
            "serve.cmd_ms.budget": ms(durations.get("serve.cmd.budget", []), 50),
            "serve.cmd_ms.audit": ms(durations.get("serve.cmd.audit", []), 50),
            "serve.reply_bytes.audit": median(drive["audit_reply_bytes"]),
            "serve.cut_off_replies": windows[False]["cut_offs"] + drive["cut_offs"],
            "guard.budget_moves": drive["budget_moves"],
            "guard.budget_clamped": drive["budget_clamped"],
            "loadgen.late_p99_ms": ms(drive["late_s"], 99),
            "loadgen.ctl_p50_ms": ms(windows[False]["latencies_s"], 50),
            "loadgen.ctl_p99_ms": ms(windows[False]["latencies_s"], 99),
            "trace.overhead_ratio": serve_window(windows[False])[1] / serve_window(drive)[1],
            "trace.accounted_ratio": sum(span["self_s"].values()) / span["wall_s"],
        }
    )
    problems = serve_problems(windows[False]) + serve_problems(drive)
    failures: dict[str, int] = {}
    for window in windows.values():
        for reason, count in window["failures"].items():
            failures[reason] = failures.get(reason, 0) + count
    attempted = windows[False]["attempted"] + drive["attempted"]
    return result(attempted, sum(failures.values()), problems, metrics, LAYER_UNITS, failures)


# ----------------------------------------------------------------------
def result(attempted: int, failed: int, problems: list[str], metrics: dict[str, float],
           units: dict[str, str], failures: Optional[dict[str, int]] = None) -> dict[str, Any]:
    """The result line, plus the reasons behind ``correct`` and ``failed``
    (``main`` prints those to standard error and drops them)."""
    return {
        "correct": not problems,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
        "problems": problems[:20],
        "failures": failures or {},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="source tree holding the repro package (default: <checkout>/src)")
    args = parser.parse_args()
    src = os.path.abspath(args.src)
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {src}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=src)
    sys.path.insert(0, src)  # serve-ctl builds the spec it submits
    # Relative to the working directory: a unix socket path must stay short.
    work = os.path.relpath(os.path.join(ROOT, WORK_DIR, f"{args.workload}-{os.getpid()}"))
    os.makedirs(work, exist_ok=True)
    try:
        if args.workload == "serve-ctl":
            if args.trace:
                out = run_serve_traced(args.seed, args.seconds, env, work)
            else:
                out = run_serve(args.seed, args.seconds, env, work)
        elif args.trace:
            out = run_batch_traced(args.workload, args.seed, env)
        else:
            out = run_batch(args.workload, args.seed, args.seconds, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, WORK_DIR))
        except OSError:
            pass
    for problem in out.pop("problems"):
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    for reason, count in out.pop("failures").items():
        print(f"perfbench: {count} requests failed: {reason}", file=sys.stderr)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
