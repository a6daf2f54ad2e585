"""The controller decision audit log.

The existing :mod:`repro.core.actions` log says *what* a controller did;
it never says *why*.  The audit log records the inputs of every decision
the PowerChief runtime makes — each bottleneck identification carries the
per-instance Equation-1 terms (``L_i``, ``q_i``, ``s_i`` and the metric
they produce), each boosting choice carries the Equation-2 ``T_inst`` and
Equation-3 ``T_freq`` estimates and which won, each power-recycling step
its planned drops, each withdraw its measured utilisation — so Algorithm
1/2 behaviour is replayable and diffable across runs: dump two runs'
audit JSONL and ``diff`` them.

Like the tracer, the log is opt-in and bounded; controllers hold
``audit=None`` by default and guard every record call.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Optional, Type, TypeVar, Union

from repro.errors import ConfigurationError

__all__ = [
    "InstanceMetricReading",
    "PlannedDropReading",
    "AuditEntry",
    "BottleneckEntry",
    "BoostEntry",
    "RecycleEntry",
    "WithdrawEntry",
    "SkipEntry",
    "FaultEntry",
    "ResilienceEntry",
    "GuardViolationEntry",
    "GuardTransitionEntry",
    "BudgetChangeEntry",
    "SloRetargetEntry",
    "AuditLog",
]


@dataclass(frozen=True, slots=True)
class InstanceMetricReading:
    """One instance's Equation-1 evaluation at a decision instant."""

    instance: str
    stage: str
    metric: float
    queue_length: int
    avg_queuing: float
    avg_serving: float


@dataclass(frozen=True)
class PlannedDropReading:
    """One victim's planned frequency drop inside a recycle plan."""

    instance: str
    from_level: int
    to_level: int
    watts_freed: float


@dataclass(frozen=True)
class AuditEntry:
    """Base entry: when it happened and which controller decided."""

    time: float
    controller: str

    #: Discriminator written into every exported dict.
    kind = "entry"

    def to_dict(self) -> dict[str, Any]:
        data = asdict(self)
        data["kind"] = self.kind
        return data


@dataclass(frozen=True)
class BottleneckEntry(AuditEntry):
    """One Equation-1 ranking pass over every running instance.

    ``readings`` is fast-to-slow (the recycling victim order);
    ``bottleneck`` names the slowest; ``spread`` is what the balance
    threshold gated on.
    """

    readings: tuple[InstanceMetricReading, ...]
    bottleneck: str
    spread: float

    kind = "bottleneck"


@dataclass(frozen=True)
class BoostEntry(AuditEntry):
    """One Algorithm-1 SELECTBOOSTING verdict with its inputs.

    ``t_inst`` / ``t_freq`` are the Equation-2 / Equation-3 expected
    delays (``None`` when the corresponding branch was never priced);
    ``target_level`` follows :class:`~repro.core.boosting.BoostingDecision`
    semantics.
    """

    decision: str
    bottleneck: str
    queue_length: int
    t_inst: Optional[float]
    t_freq: Optional[float]
    target_level: Optional[int]
    planned_drops: tuple[PlannedDropReading, ...]
    recycled_watts: float
    reason: str

    kind = "boost"


@dataclass(frozen=True)
class RecycleEntry(AuditEntry):
    """A recycle plan actually applied (Algorithm 2 drops executed)."""

    needed_watts: float
    recycled_watts: float
    drops: tuple[PlannedDropReading, ...]

    kind = "recycle"


@dataclass(frozen=True)
class WithdrawEntry(AuditEntry):
    """One instance withdrawn by the 20 %-utilisation rule."""

    instance: str
    stage: str
    utilization: float
    redirected_jobs: int

    kind = "withdraw"


@dataclass(frozen=True)
class SkipEntry(AuditEntry):
    """An interval where the controller deliberately did nothing."""

    reason: str

    kind = "skip"


@dataclass(frozen=True)
class FaultEntry(AuditEntry):
    """One fault the injector fired (``controller`` is the injector).

    ``fault`` is the :class:`~repro.faults.plan.FaultKind` value,
    ``target`` the victim (instance name, stage name, ``telemetry`` or
    ``fabric``), ``detail`` a human-readable parameter summary.  The
    determinism acceptance test diffs these across runs.
    """

    fault: str
    target: str
    detail: str

    kind = "fault"


@dataclass(frozen=True)
class ResilienceEntry(AuditEntry):
    """One recovery action taken by the resilience layer.

    ``action`` names the mechanism (``respawn``, ``hang-detected``,
    ``repair``, ...), ``target`` the instance or stage acted on.
    """

    action: str
    target: str
    detail: str

    kind = "resilience"


@dataclass(frozen=True)
class GuardViolationEntry(AuditEntry):
    """One runtime invariant violated under controller supervision.

    ``monitor`` names the invariant monitor that fired (``budget-cap``,
    ``ladder-bounds``, ``estimate-sanity``, ``oscillation``,
    ``slo-storm``), ``value`` the observed quantity and ``limit`` the
    bound it crossed (``NaN``-free; monitors report the offending value
    through ``message`` when it is not a finite scalar).
    """

    monitor: str
    severity: str
    message: str
    value: float
    limit: float

    kind = "guard-violation"


@dataclass(frozen=True)
class GuardTransitionEntry(AuditEntry):
    """One graceful-degradation ladder transition (demotion or re-promotion)."""

    from_mode: str
    to_mode: str
    reason: str

    kind = "guard-transition"


@dataclass(frozen=True)
class BudgetChangeEntry(AuditEntry):
    """One live power-budget adjustment applied through the guard layer.

    ``requested_watts`` is what the operator asked for, ``applied_watts``
    what the guard actually set (clamped to ``floor_watts``, the draw
    achievable with every running instance at the ladder minimum);
    ``step_downs`` counts the enforced frequency drops needed to bring
    the draw under the new cap.  ``source`` names who asked (``ctl``,
    ``daemon``, a test).
    """

    requested_watts: float
    applied_watts: float
    previous_watts: float
    floor_watts: float
    clamped: bool
    step_downs: int
    source: str

    kind = "budget-change"


@dataclass(frozen=True)
class SloRetargetEntry(AuditEntry):
    """One live SLO retarget (the attainment window keeps its history)."""

    previous_target_s: float
    target_s: float
    source: str

    kind = "slo-retarget"


_E = TypeVar("_E", bound=AuditEntry)


class AuditLog:
    """A bounded, append-only log of typed audit entries."""

    def __init__(self, max_entries: int = 100_000) -> None:
        if max_entries <= 0:
            raise ConfigurationError(f"max_entries must be > 0, got {max_entries}")
        self.max_entries = int(max_entries)
        self._entries: list[AuditEntry] = []
        self.dropped = 0

    # ------------------------------------------------------------------
    def record(self, entry: AuditEntry) -> None:
        if len(self._entries) >= self.max_entries:
            self.dropped += 1
            return
        self._entries.append(entry)

    @property
    def entries(self) -> tuple[AuditEntry, ...]:
        return tuple(self._entries)

    def of_kind(self, entry_type: Type[_E]) -> list[_E]:
        """All entries of one type, in record order."""
        return [e for e in self._entries if isinstance(e, entry_type)]

    def __len__(self) -> int:
        return len(self._entries)

    def tail(
        self, n: Optional[int] = None, kind: Optional[str] = None
    ) -> list[dict[str, Any]]:
        """The last ``n`` entries (every one when ``None``) whose ``kind``
        matches (any kind when ``None``), oldest first, as dicts.

        Picks the entries before converting them, so the conversion cost
        follows the size of the answer, not the length of the log.
        """
        picked = self._entries
        if kind is not None:
            picked = [entry for entry in picked if entry.kind == kind]
        if n is not None:
            picked = picked[max(len(picked) - n, 0):]
        return [entry.to_dict() for entry in picked]

    # ------------------------------------------------------------------
    def to_dicts(self) -> list[dict[str, Any]]:
        return [entry.to_dict() for entry in self._entries]

    def write_jsonl(self, path: Union[str, Path]) -> Path:
        target = Path(path)
        lines = [
            json.dumps(entry, sort_keys=True, separators=(",", ":"))
            for entry in self.to_dicts()
        ]
        target.write_text("\n".join(lines) + ("\n" if lines else ""))
        return target

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AuditLog({len(self._entries)} entries, {self.dropped} dropped)"
