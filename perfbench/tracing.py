"""In-memory span tracer for the benchmark's traced runs.

The tracer lives in the benchmark, not the program: :func:`install`
wraps the program's public entry points at each layer boundary in a
span, for the lifetime of one traced process only.  A span records its
layer and duration; a layer's *self* time is the time its spans cover
minus the part their child spans cover, so the self times of every
layer add up to the wall time the root spans cover.

Every fired event is its own span, attributed to the package that owns
its callback (``repro.service.instance`` -> ``service``): the wrapped
``Simulator.schedule_at`` routes each action through a trampoline that
opens the span.  The engine loop
itself runs unchanged; what is left of ``Simulator.run_until`` after
its event spans is the engine's own overhead (``sim`` self time).

Spans are kept as aggregates (self time, calls, boundary crossings),
plus every duration for the few span names whose percentiles are
reported.  Nothing is written until the process ends.
"""

from __future__ import annotations

import inspect
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable, Optional

#: Span names whose individual durations are kept for percentiles.
KEEP_DURATIONS = frozenset(
    {
        "serve.advance_to",
        "serve.cmd.status",
        "serve.cmd.budget",
        "serve.cmd.audit",
        "scenario.build",
        "scenario.arm",
    }
)


class Tracer:
    """Aggregating span recorder; one per traced process."""

    def __init__(self) -> None:
        #: Open spans: ``[child_seconds, layer]`` per frame.
        self._stack: list[list[Any]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        #: Spans entered from a different layer (or from no span at all).
        self.entries: Counter = Counter()
        self.durations: dict[str, list[float]] = defaultdict(list)
        #: Events fired, by the layer that owns their callback.
        self.events_by_layer: Counter = Counter()
        self.heap_peak = 0

    def span(self, name: str, layer: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        stack = self._stack
        if not stack or stack[-1][1] != layer:
            self.entries[layer] += 1
        frame = [0.0, layer]
        stack.append(frame)
        started = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - started
            stack.pop()
            self.self_s[name] += elapsed - frame[0]
            if stack:
                stack[-1][0] += elapsed
            self.calls[name] += 1
            if name in KEEP_DURATIONS:
                self.durations[name].append(elapsed)

    def wrap(self, fn: Callable, name: str, layer: str, boundary_only: bool = False) -> Callable:
        """``fn`` in a span; with ``boundary_only``, calls made from inside
        a span of the same layer run bare (their time is that span's)."""
        stack = self._stack
        span = self.span

        if boundary_only:
            def traced(*args: Any, **kwargs: Any) -> Any:
                if stack and stack[-1][1] == layer:
                    return fn(*args, **kwargs)
                return span(name, layer, fn, *args, **kwargs)
        else:
            def traced(*args: Any, **kwargs: Any) -> Any:
                return span(name, layer, fn, *args, **kwargs)

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def patch(
        self,
        cls: type,
        attr: str,
        layer: str,
        name: Optional[str] = None,
        boundary_only: bool = False,
    ) -> None:
        """Wrap the method ``cls.attr`` in a span."""
        fn = cls.__dict__[attr] if attr in cls.__dict__ else getattr(cls, attr)
        setattr(cls, attr, self.wrap(fn, name or f"{layer}.{attr}", layer, boundary_only))

    def watch(self, sim: Any) -> None:
        """Count ``sim``'s fired events by owning layer; track its heap peak."""

        def hook(event: Any) -> None:
            # Every action goes through event_span, whose first argument
            # is the owning layer.
            self.events_by_layer[event.args[0]] += 1
            if sim.heap_size > self.heap_peak:
                self.heap_peak = sim.heap_size

        sim.add_event_hook(hook)

    def to_dict(self) -> dict[str, Any]:
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "entries": dict(self.entries),
            "durations": dict(self.durations),
            "events_by_layer": dict(self.events_by_layer),
            "heap_peak": self.heap_peak,
        }


def layer_of(action: Any) -> str:
    """The ``repro`` package owning a callable (``"other"`` outside it)."""
    fn = getattr(action, "__func__", action)
    fn = getattr(fn, "func", fn)  # functools.partial
    module = getattr(fn, "__module__", None) or type(action).__module__
    parts = module.split(".")
    if parts[0] == "repro" and len(parts) > 1:
        return parts[1]
    return "other"


def _subclasses(base: type) -> list[type]:
    found = [base]
    for sub in base.__subclasses__():
        found.extend(_subclasses(sub))
    return found


def _patch_defined(tracer: Tracer, base: type, attr: str, layer: str, name: str) -> None:
    """Wrap ``attr`` on every class in ``base``'s hierarchy that defines it."""
    for cls in _subclasses(base):
        if attr in cls.__dict__:
            tracer.patch(cls, attr, layer, name)


def install(tracer: Tracer) -> None:
    """Wrap the program's layer entry points for this process.

    Call before the stack is built; the wrappers stay for the life of
    the process.
    """
    import importlib
    import pkgutil

    import repro.obs
    from repro.cluster.budget import PowerBudget
    from repro.cluster.dvfs import DvfsActuator
    from repro.cluster.machine import Machine
    from repro.core.controller import BaseController
    from repro.guard.monitors import GuardMonitor
    from repro.service.application import Application
    from repro.service.dispatch import Dispatcher
    from repro.service.stage import Stage
    from repro.sim.engine import Simulator
    from repro.sim.process import PeriodicProcess
    from repro.workloads.loadgen import QueryFactory

    # sim: the stepper, and every event fired inside it.
    tracer.patch(Simulator, "run_until", "sim")
    schedule_at = Simulator.schedule_at
    span = tracer.span

    def event_span(layer: str, action: Callable, *args: Any) -> Any:
        return span(layer + ".event", layer, action, *args)

    def traced_schedule_at(self: Simulator, time: float, action: Callable, *args: Any, **kwargs: Any) -> Any:
        return schedule_at(self, time, event_span, layer_of(action), action, *args, **kwargs)

    Simulator.schedule_at = traced_schedule_at  # type: ignore[method-assign]

    # Periodic callbacks (controllers, samplers, telemetry) fire inside
    # a sim-owned PeriodicProcess tick; give each its owner's span.
    init = PeriodicProcess.__init__

    def traced_init(self: PeriodicProcess, *args: Any, **kwargs: Any) -> None:
        init(self, *args, **kwargs)
        layer = layer_of(self.callback)
        name = getattr(self.callback, "__name__", "callback").lstrip("_")
        self.callback = tracer.wrap(self.callback, f"{layer}.{name}", layer)

    PeriodicProcess.__init__ = traced_init  # type: ignore[method-assign]

    # service: dispatch, stage hops, admission.
    _patch_defined(tracer, Dispatcher, "select", "service", "service.select")
    tracer.patch(Stage, "submit", "service", "service.stage_submit")
    tracer.patch(Application, "submit", "service", "service.app_submit")

    # workloads: query creation (per-stage demand draws included).
    tracer.patch(QueryFactory, "create", "workloads", "workloads.create")

    # cluster: power accounting and DVFS actuation.
    for attr in ("draw", "assert_within", "available", "fits"):
        tracer.patch(PowerBudget, attr, "cluster", "cluster.budget")
    tracer.patch(Machine, "total_power", "cluster", "cluster.total_power")
    _patch_defined(tracer, DvfsActuator, "set_level", "cluster", "cluster.set_level")

    # core and guard: one span per controller adjust, per monitor check.
    for cls in _subclasses(BaseController):
        if "adjust" in cls.__dict__:
            layer = layer_of(cls.__dict__["adjust"])
            tracer.patch(cls, "adjust", layer, f"{layer}.adjust")
    _patch_defined(tracer, GuardMonitor, "check", "guard", "guard.check")

    # obs: every method of every class the package defines.
    for info in pkgutil.iter_modules(repro.obs.__path__, "repro.obs."):
        module = importlib.import_module(info.name)
        for cls in vars(module).values():
            if not isinstance(cls, type) or cls.__module__ != module.__name__:
                continue
            for attr, value in list(vars(cls).items()):
                if attr.startswith("__") or not inspect.isfunction(value):
                    continue
                tracer.patch(cls, attr, "obs", "obs.call", boundary_only=True)


def install_serve(tracer: Tracer) -> None:
    """Wrap the daemon's entry points (on top of :func:`install`)."""
    import re
    import selectors

    from repro.scenario.builder import StackBuilder
    from repro.serve.daemon import ReproDaemon
    from repro.serve.hosted import HostedRun

    # The hosted run's set-up: the phases HostedRun walks on submit.
    tracer.patch(StackBuilder, "build", "scenario", "scenario.build")
    tracer.patch(StackBuilder, "arm", "scenario", "scenario.arm")
    init = HostedRun.__init__

    def traced_init(self: HostedRun, *args: Any, **kwargs: Any) -> None:
        init(self, *args, **kwargs)
        tracer.watch(self.builder.sim)

    HostedRun.__init__ = traced_init  # type: ignore[method-assign]

    for attr in ("advance_to", "status", "apply_budget", "audit_entries"):
        tracer.patch(HostedRun, attr, "serve", f"serve.{attr}")
    handle_line = ReproDaemon.__dict__["_handle_line"]
    cmd_of = re.compile(r'"cmd"\s*:\s*"(\w+)"')

    def traced_handle_line(self: ReproDaemon, conn: Any, line: str) -> None:
        found = cmd_of.search(line)
        name = f"serve.cmd.{found.group(1) if found else 'invalid'}"
        tracer.span(name, "serve", handle_line, self, conn, line)

    ReproDaemon._handle_line = traced_handle_line  # type: ignore[method-assign]
    selector = selectors.DefaultSelector
    tracer.patch(selector, "select", "idle", "idle.select")
    tracer.patch(ReproDaemon, "_advance_runs", "serve", "serve.advance_runs")
    tracer.patch(ReproDaemon, "_pump_streams", "serve", "serve.pump_streams")
    tracer.patch(ReproDaemon, "_accept", "serve", "serve.accept")
