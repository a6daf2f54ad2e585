"""The per-query entry points stay on the path, once per hop or arrival.

Layer-by-layer measurement attributes work by wrapping a few entry
points: ``Simulator.schedule_at`` (every event enters the heap there),
``Stage.submit`` and the dispatcher's ``select`` (once per hop),
``Application.submit`` and ``QueryFactory.create`` (once per arrival).
A hot-path shortcut that skipped one would silently move work out of
its layer.  This test counts calls to each on a fleet-shaped run with
the interpreter's profile hook — nothing is patched — and checks the
counts against what the run did.
"""

from __future__ import annotations

import sys
from collections import Counter

from repro.scenario import StackBuilder
from repro.scenario.spec import ScenarioSpec, StageAllocation
from repro.service.application import Application
from repro.service.dispatch import ShortestQueueDispatcher
from repro.service.stage import Stage
from repro.sim.engine import Simulator
from repro.workloads.loadgen import QueryFactory

ENTRY_POINTS = {
    Simulator.schedule_at.__code__: "schedule_at",
    Stage.submit.__code__: "stage_submit",
    ShortestQueueDispatcher.select.__code__: "select",
    Application.submit.__code__: "app_submit",
    QueryFactory.create.__code__: "create",
}


def fleet_spec() -> ScenarioSpec:
    """The benchmark fleet's shape, short, with a drain that empties it."""
    return ScenarioSpec.latency(
        "sirius",
        "powerchief",
        ("constant", 20.0),
        60.0,
        seed=2,
        budget_watts=1000.0,
        allocation={
            "ASR": StageAllocation(count=22, level=1),
            "IMM": StageAllocation(count=21, level=1),
            "QA": StageAllocation(count=21, level=1),
        },
        n_cores=64,
        drain_s=60.0,
    )


def test_entry_points_run_once_per_hop_and_arrival() -> None:
    builder = StackBuilder(fleet_spec()).build().arm()
    sim = builder.sim
    application = builder.application
    assert sim is not None and application is not None
    calls: Counter[str] = Counter()
    scheduled: dict[int, object] = {}
    fired: list[object] = []
    schedule_at = Simulator.schedule_at.__code__

    def profile(frame, event, arg) -> None:
        if event == "call":
            name = ENTRY_POINTS.get(frame.f_code)
            if name is not None:
                calls[name] += 1
        elif event == "return" and frame.f_code is schedule_at:
            scheduled[id(arg)] = arg

    sim.add_event_hook(fired.append)
    sys.setprofile(profile)
    try:
        builder.start().run().drain()
    finally:
        sys.setprofile(None)

    arrivals = application.submitted
    assert arrivals > 1000
    assert application.in_flight == 0
    assert application.completed == arrivals
    hops = arrivals * len(application.stages)

    # Every fired event was one schedule_at returned.
    assert fired and all(id(event) in scheduled for event in fired)
    assert calls["schedule_at"] == len(scheduled) >= len(fired)
    assert calls["stage_submit"] == calls["select"] == hops
    assert calls["app_submit"] == calls["create"] == arrivals
