"""One batch repeat in a fresh process: the StackBuilder lifecycle, timed.

Run by ``run.py`` with ``PYTHONPATH`` pointing at the program's source
tree; prints one JSON object as its last line.  Set-up time covers the
program's import plus the build, arm and start phases, up to the first
event; the run phase is ``run`` plus ``drain``.

With ``--trace`` the layer entry points are wrapped in spans
(:mod:`tracing`) and the output carries per-layer aggregates instead of
the allocation and GC counts, which only an untraced process measures
exactly.

Usage::

    PYTHONPATH=src python3 perfbench/batch.py --workload fleet-batch --seed 1 [--trace]
"""

from __future__ import annotations

from time import perf_counter

STARTED = perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import repro  # noqa: E402,F401  (timed: part of set-up)

import workloads  # noqa: E402

#: Tolerance of the float checks below (watts and seconds).
EPSILON = 1e-6


class GcTimer:
    """Counts collections and their pause time through ``gc.callbacks``."""

    def __init__(self) -> None:
        self.collections = 0
        self.pause_s = 0.0
        self._since = 0.0

    def __call__(self, phase: str, _info: dict) -> None:
        if phase == "start":
            self._since = perf_counter()
        else:
            self.collections += 1
            self.pause_s += perf_counter() - self._since


def check_run(builder, result, errors: list[str]) -> None:
    """Correctness checks on one finished run; failures go to ``errors``."""
    budget = builder.budget
    telemetry = builder.telemetry
    if telemetry is not None:
        over = [s for s in telemetry.samples if s.watts > budget.budget_watts + EPSILON]
        if over:
            errors.append(
                f"{len(over)} telemetry samples exceed the {budget.budget_watts} W budget "
                f"(first at t={over[0].time}: {over[0].watts} W)"
            )
    obs = builder.observability
    if obs is not None and obs.attribution is not None:
        latencies = builder.command_center.all_latencies
        report = obs.attribution.report()
        if report.count != len(latencies):
            errors.append(f"attributed {report.count} queries, completed {len(latencies)}")
        if abs(report.total_e2e - sum(latencies)) > EPSILON * max(1, len(latencies)):
            errors.append(
                f"attributed e2e {report.total_e2e} s != measured {sum(latencies)} s"
            )
        for attribution in obs.attribution.attributions:
            parts = sum(attribution.components.values())
            if abs(parts - attribution.e2e_latency) > EPSILON:
                errors.append(
                    f"query {attribution.qid}: components sum to {parts} s, "
                    f"e2e latency is {attribution.e2e_latency} s"
                )
                break
    if result.queries_completed <= 0:
        errors.append("no query completed")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    from repro.scenario.builder import StackBuilder

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    spec = workloads.batch_spec(args.workload, args.seed)

    def phase(name: str, fn):
        if tracer is None:
            return fn()
        return tracer.span(f"scenario.{name}", "scenario", fn)

    t_imported = perf_counter()
    # A full collection also empties the free lists, so the block counts
    # around the run repeat exactly.  It is not part of set-up time.
    gc.collect()
    blocks_before = sys.getallocatedblocks()
    t_build = perf_counter()
    builder = phase("build", lambda: StackBuilder(spec).build())
    t_arm = perf_counter()
    phase("arm", lambda: builder.arm().start())
    t_ready = perf_counter()
    sim = builder.sim
    if tracer is not None:
        tracer.watch(sim)

    gc_timer = GcTimer()
    gc.callbacks.append(gc_timer)
    phase("run", lambda: builder.run().drain())
    t_ran = perf_counter()
    gc.callbacks.remove(gc_timer)
    result = phase("collect", builder.collect)
    t_done = perf_counter()
    cyclic_garbage = gc.collect()
    blocks_retained = sys.getallocatedblocks() - blocks_before

    errors: list[str] = []
    check_run(builder, result, errors)
    out = {
        "setup_s": (t_imported - STARTED) + (t_ready - t_build),
        "import_s": t_imported - STARTED,
        "build_s": t_arm - t_build,
        "arm_s": t_ready - t_arm,
        "run_s": t_ran - t_ready,
        "collect_s": t_done - t_ran,
        "sim_s": sim.now,
        "events": sim.events_processed,
        "compactions": sim.compactions,
        "queries": result.queries_completed,
        "sim_p99_s": result.latency.p99,
        "avg_power_w": result.average_power_watts,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "errors": errors,
    }
    controller = builder.controller
    from repro.core.actions import SkipAction

    out["core_ticks"] = controller.ticks
    skips = sum(1 for action in controller.actions if isinstance(action, SkipAction))
    out["core_actions"] = len(controller.actions) - skips
    out["core_skips"] = skips
    out["guard_violations"] = len(getattr(controller, "violations", ()))
    out["telemetry_samples"] = 0 if builder.telemetry is None else len(builder.telemetry.samples)
    obs = builder.observability
    out["obs_spans"] = 0 if obs is None or obs.tracer is None else len(obs.tracer)
    out["obs_audit_entries"] = 0 if obs is None or obs.audit is None else len(obs.audit)
    if tracer is None:
        out["gc_collections"] = gc_timer.collections
        out["gc_pause_s"] = gc_timer.pause_s
        out["blocks_per_query"] = blocks_retained / result.queries_completed
        # What a full collection frees once the finished stack is dropped.
        del builder, result, sim, controller, obs
        out["cyclic_garbage"] = cyclic_garbage + gc.collect()
    else:
        out["trace"] = dict(tracer.to_dict(), wall_s=t_done - t_build)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
