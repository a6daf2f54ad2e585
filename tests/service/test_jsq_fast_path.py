"""Shortest-queue dispatch on a stage's ordered pool.

``ShortestQueueDispatcher.select`` must return argmin(queue length, iid)
for every input.  On a stage's running pool — an immutable tuple in
launch order, so ascending iid — it takes that argmin as the first idle
instance.  These tests pin both halves: the answer equals a reference
argmin on any sequence, and every pool mutation a run can make keeps
the stage's pool an iid-ascending tuple.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.budget import PowerBudget
from repro.cluster.dvfs import DvfsActuator
from repro.cluster.frequency import HASWELL_LADDER
from repro.cluster.machine import Machine
from repro.core.controller import PowerChiefController
from repro.service.application import Application
from repro.service.command_center import CommandCenter
from repro.service.dispatch import ShortestQueueDispatcher
from repro.service.instance import InstanceState
from repro.sim.engine import Simulator

from tests.conftest import make_profile, make_query


class _Slot:
    """The two fields the dispatcher reads, nothing else."""

    __slots__ = ("iid", "_qlen")

    def __init__(self, iid: int, qlen: int) -> None:
        self.iid = iid
        self._qlen = qlen


def reference(pool):
    return min(pool, key=lambda inst: (inst._qlen, inst.iid))


QLEN = st.integers(min_value=0, max_value=3)


@settings(max_examples=300, deadline=None)
@given(
    iids=st.lists(
        st.integers(min_value=0, max_value=500), min_size=1, max_size=12, unique=True
    ),
    data=st.data(),
)
def test_select_is_the_reference_argmin(iids, data):
    slots = [_Slot(iid, data.draw(QLEN)) for iid in iids]
    ordered = tuple(sorted(slots, key=lambda slot: slot.iid))
    dispatcher = ShortestQueueDispatcher()
    for _ in range(data.draw(st.integers(min_value=1, max_value=6))):
        shuffled = data.draw(st.permutations(slots))
        for pool in (ordered, shuffled, tuple(shuffled), list(ordered)):
            assert dispatcher.select(pool) is reference(pool)
        # Queue lengths move between calls on the same ordered tuple.
        for slot in slots:
            slot._qlen = data.draw(QLEN)
        assert dispatcher.select(ordered) is reference(ordered)


def test_descending_tuple_is_not_taken_for_an_ordered_pool():
    a, b = _Slot(0, 0), _Slot(1, 0)
    dispatcher = ShortestQueueDispatcher()
    assert dispatcher.select((a, b)) is a
    assert dispatcher.select((b, a)) is a
    assert dispatcher.select((b, a)) is a


def test_ordered_pool_with_no_idle_instance_takes_the_shortest():
    pool = (_Slot(0, 3), _Slot(4, 1), _Slot(9, 1), _Slot(12, 2))
    assert ShortestQueueDispatcher().select(pool) is pool[1]


# ----------------------------------------------------------------------
# The stage keeps its running pool an iid-ascending tuple
# ----------------------------------------------------------------------
LEVEL = HASWELL_LADDER.level_of(1.8)

OPS = st.lists(
    st.tuples(
        st.sampled_from(["launch", "clone", "withdraw", "crash", "submit", "run"]),
        st.sampled_from(["A", "B"]),
        st.integers(min_value=0, max_value=7),
    ),
    max_size=30,
)


def _assert_pool_ordered(stage) -> None:
    pool = stage._running()
    assert isinstance(pool, tuple)
    assert [inst.iid for inst in pool] == sorted(inst.iid for inst in pool)
    assert list(pool) == [
        inst for inst in stage.instances if inst.state is InstanceState.RUNNING
    ]
    assert stage.dispatcher.select(pool) is reference(pool)


@settings(max_examples=80, deadline=None)
@given(ops=OPS)
def test_running_pool_stays_iid_ascending(ops):
    sim = Simulator()
    machine = Machine(sim, n_cores=12)
    app = Application("jsq", sim, machine)
    for name, mean in (("A", 0.2), ("B", 1.0)):
        stage = app.add_stage(make_profile(name, mean=mean))
        stage.launch_instance(LEVEL)
        stage.launch_instance(LEVEL)
    controller = PowerChiefController(
        sim,
        app,
        CommandCenter(sim, app),
        PowerBudget(machine, 1000.0),
        DvfsActuator(sim),
    )
    qid = 0
    for op, name, index in ops:
        stage = app.stage(name)
        running = stage.running_instances()
        victim = running[index % len(running)]
        has_core = machine.free_core_count() > 0
        if op == "launch" and has_core:
            stage.launch_instance(LEVEL)
        elif op == "clone" and has_core:
            controller.launch_clone(max(running, key=lambda inst: inst.queue_length))
        elif op == "withdraw" and len(running) > 1:
            stage.withdraw_instance(victim)
        elif op == "crash" and len(running) > 1:
            stage.crash_instance(victim)
        elif op == "submit":
            for _ in range(index + 1):
                app.submit(make_query(qid, A=0.2, B=1.0))
                qid += 1
        elif op == "run":
            sim.run(until=sim.now + 0.25 * (index + 1))
        for checked in app.stages:
            _assert_pool_ordered(checked)
