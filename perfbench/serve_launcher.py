"""Run ``repro serve --turbo`` with the layer entry points traced.

The daemon is the program's own CLI path (``repro.cli.main``), with the
spans of :mod:`tracing` installed first.  When the daemon stops, the
launcher writes the span aggregates, plus what the hosted run reached,
to the ``--stats`` file as JSON.

Usage::

    PYTHONPATH=src python3 perfbench/serve_launcher.py --socket S --stats FILE
"""

from __future__ import annotations

from time import perf_counter

STARTED = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

from repro.cli import main as repro_main  # noqa: E402  (timed: the CLI's import)

import tracing  # noqa: E402

IMPORT_S = perf_counter() - STARTED


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--socket", required=True)
    parser.add_argument("--stats", required=True)
    args = parser.parse_args()

    from repro.core.actions import SkipAction
    from repro.serve.daemon import ReproDaemon
    from repro.util.percentile import percentile

    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracing.install_serve(tracer)
    daemons: list[ReproDaemon] = []
    serve_forever = ReproDaemon.serve_forever

    def traced_serve_forever(self: ReproDaemon) -> None:
        daemons.append(self)
        tracer.span("serve.loop", "serve", serve_forever, self)

    ReproDaemon.serve_forever = traced_serve_forever  # type: ignore[method-assign]
    started = perf_counter()
    code = repro_main(["serve", "--turbo", "--socket", args.socket])
    wall = perf_counter() - started
    runs = {}
    for daemon in daemons:
        for name, run in daemon.runs.items():
            builder = run.builder
            latencies = builder.command_center.all_latencies
            skips = sum(isinstance(action, SkipAction) for action in builder.controller.actions)
            runs[name] = {
                "sim_now_s": builder.sim.now,
                "events": builder.sim.events_processed,
                "compactions": builder.sim.compactions,
                "queries": len(latencies),
                "sim_p99_s": percentile(latencies, 99.0) if latencies else 0.0,
                "core_ticks": builder.controller.ticks,
                "core_actions": len(builder.controller.actions) - skips,
                "core_skips": skips,
                "audit_entries": len(builder.observability.audit),
                "telemetry_samples": len(builder.telemetry.samples) if builder.telemetry else 0,
            }
    with open(args.stats, "w") as handle:
        json.dump(dict(tracer.to_dict(), wall_s=wall, import_s=IMPORT_S, runs=runs), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
