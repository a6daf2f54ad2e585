"""Dispatch policies: which instance in a stage receives the next query.

The paper load-balances queries across the service instances of a stage
(Figure 3) without prescribing a policy; shortest-queue is the default
here because it is what a Thrift-style connection pool with backpressure
approximates.  Round-robin and random are provided for ablations and
tests.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional, Sequence

from repro.errors import StageError
from repro.service.instance import ServiceInstance
from repro.sim.rng import SeededStream

__all__ = [
    "Dispatcher",
    "ShortestQueueDispatcher",
    "RoundRobinDispatcher",
    "RandomDispatcher",
]


class Dispatcher(ABC):
    """Chooses one instance out of a stage's running pool."""

    @abstractmethod
    def select(self, instances: Sequence[ServiceInstance]) -> ServiceInstance:
        """Pick the instance for the next query; ``instances`` is non-empty."""

    def _require_instances(self, instances: Sequence[ServiceInstance]) -> None:
        if not instances:
            raise StageError("cannot dispatch: stage has no running instances")


class ShortestQueueDispatcher(Dispatcher):
    """Join-the-shortest-queue; ties go to the earlier instance.

    ``select`` returns argmin(queue length, iid) for any pool.  A stage
    hands over its running pool as an immutable tuple in launch order,
    which is ascending ``iid``; on such a pool the argmin is simply the
    first idle instance whenever one exists.  The dispatcher remembers
    the last tuple it found ascending (by identity: a tuple never
    changes, and holding it keeps its id from being reused), so the
    check costs nothing per query and nothing per enqueue or completion.
    Every other sequence, and an ordered pool with no idle instance,
    takes the full scan.
    """

    def __init__(self) -> None:
        self._ordered: Optional[tuple[ServiceInstance, ...]] = None

    def select(self, instances: Sequence[ServiceInstance]) -> ServiceInstance:
        if instances is not self._ordered:
            self._require_instances(instances)
            if type(instances) is not tuple or not _iid_ascending(instances):
                return _argmin(instances)
            self._ordered = instances
        for inst in instances:
            if not inst._qlen:
                return inst
        return _argmin(instances)


def _iid_ascending(instances: tuple[ServiceInstance, ...]) -> bool:
    return all(a.iid < b.iid for a, b in zip(instances, instances[1:]))


def _argmin(instances: Sequence[ServiceInstance]) -> ServiceInstance:
    """Full scan for argmin(queue length, iid) over a non-empty pool."""
    # Reading the queue fields directly instead of building a key tuple
    # through the queue_length property keeps the whole scan in one
    # bytecode loop.  Tie-break: strictly smaller iid wins, matching
    # min()'s first-of-equals.
    best = instances[0]
    best_len = best._qlen
    best_iid = best.iid
    for index in range(1, len(instances)):
        inst = instances[index]
        length = inst._qlen
        if length < best_len or (length == best_len and inst.iid < best_iid):
            best = inst
            best_len = length
            best_iid = inst.iid
    return best


class RoundRobinDispatcher(Dispatcher):
    """Cycle through instances in order, skipping none.

    The cursor is kept in ``[0, len(instances))`` at every call rather
    than growing unbounded: an ever-increasing counter taken modulo the
    pool size silently re-skews the rotation whenever the pool shrinks
    (withdraw or crash), because the old count is reinterpreted against
    the new length.  Clamping resets the rotation to the head of the
    surviving pool — deterministic, and identical to the unbounded
    counter whenever the pool size is stable.
    """

    def __init__(self) -> None:
        self._next = 0

    def select(self, instances: Sequence[ServiceInstance]) -> ServiceInstance:
        self._require_instances(instances)
        if self._next >= len(instances):
            self._next = 0
        choice = instances[self._next]
        self._next = (self._next + 1) % len(instances)
        return choice


class RandomDispatcher(Dispatcher):
    """Uniform random choice from a dedicated stream (for ablations)."""

    def __init__(self, rng: SeededStream) -> None:
        self._rng = rng

    def select(self, instances: Sequence[ServiceInstance]) -> ServiceInstance:
        self._require_instances(instances)
        return instances[self._rng.randrange(len(instances))]
