"""Unit tests for cores, the machine pool and energy accounting."""

from __future__ import annotations

import pytest

from repro.errors import ClusterError, InstanceStateError, NoCoreAvailable
from repro.cluster.core import CoreState
from repro.cluster.frequency import HASWELL_LADDER
from repro.cluster.machine import Machine
from repro.cluster.power import DEFAULT_POWER_MODEL


LEVEL_1_8 = HASWELL_LADDER.level_of(1.8)
LEVEL_2_4 = HASWELL_LADDER.max_level
LEVEL_1_2 = HASWELL_LADDER.min_level


class TestCoreLifecycle:
    def test_cores_start_free_and_powerless(self, machine):
        for core in machine.cores:
            assert core.state is CoreState.FREE
            assert core.power_watts == 0.0

    def test_activate_sets_level_and_power(self, machine):
        core = machine.acquire_core(LEVEL_1_8)
        assert core.active
        assert core.frequency_ghz == pytest.approx(1.8)
        assert core.power_watts == pytest.approx(4.52)

    def test_double_activation_rejected(self, machine):
        core = machine.acquire_core(LEVEL_1_8)
        with pytest.raises(InstanceStateError):
            core.activate(LEVEL_1_8)

    def test_deactivate_frees_core(self, machine):
        core = machine.acquire_core(LEVEL_1_8)
        machine.release_core(core)
        assert not core.active
        assert core.power_watts == 0.0

    def test_deactivate_inactive_rejected(self, machine):
        core = machine.cores[0]
        with pytest.raises(InstanceStateError):
            core.deactivate()

    def test_set_level_on_inactive_rejected(self, machine):
        core = machine.cores[0]
        with pytest.raises(InstanceStateError):
            core.set_level(LEVEL_1_8)

    def test_set_level_changes_power(self, machine):
        core = machine.acquire_core(LEVEL_1_8)
        core.set_level(LEVEL_2_4)
        assert core.power_watts == pytest.approx(DEFAULT_POWER_MODEL.power(2.4))

    def test_transitions_counter_ignores_noop(self, machine):
        core = machine.acquire_core(LEVEL_1_8)
        core.set_level(LEVEL_1_8)
        assert core.transitions == 0
        core.set_level(LEVEL_2_4)
        assert core.transitions == 1


class TestObservers:
    def test_observer_sees_old_and_new_level(self, machine):
        core = machine.acquire_core(LEVEL_1_8)
        seen = []
        core.add_observer(lambda c, old, new: seen.append((old, new)))
        core.set_level(LEVEL_2_4)
        assert seen == [(LEVEL_1_8, LEVEL_2_4)]

    def test_observer_not_called_for_noop(self, machine):
        core = machine.acquire_core(LEVEL_1_8)
        seen = []
        core.add_observer(lambda c, old, new: seen.append((old, new)))
        core.set_level(LEVEL_1_8)
        assert seen == []

    def test_remove_observer(self, machine):
        core = machine.acquire_core(LEVEL_1_8)
        seen = []
        observer = lambda c, old, new: seen.append(new)  # noqa: E731
        core.add_observer(observer)
        core.remove_observer(observer)
        core.set_level(LEVEL_2_4)
        assert seen == []

    def test_remove_unregistered_observer_rejected(self, machine):
        core = machine.acquire_core(LEVEL_1_8)
        with pytest.raises(ClusterError):
            core.remove_observer(lambda c, old, new: None)


class TestEnergyAccounting:
    def test_energy_integrates_power_over_time(self, sim, machine):
        core = machine.acquire_core(LEVEL_1_8)
        sim.run(until=10.0)
        assert core.energy_joules() == pytest.approx(4.52 * 10.0)

    def test_energy_accounts_for_level_changes(self, sim, machine):
        core = machine.acquire_core(LEVEL_1_8)
        sim.run(until=5.0)
        core.set_level(LEVEL_1_2)
        sim.run(until=10.0)
        expected = 4.52 * 5.0 + DEFAULT_POWER_MODEL.power(1.2) * 5.0
        assert core.energy_joules() == pytest.approx(expected)

    def test_free_core_consumes_nothing(self, sim, machine):
        core = machine.acquire_core(LEVEL_1_8)
        sim.run(until=5.0)
        machine.release_core(core)
        sim.run(until=20.0)
        assert core.energy_joules() == pytest.approx(4.52 * 5.0)

    def test_machine_total_energy(self, sim, machine):
        machine.acquire_core(LEVEL_1_8)
        machine.acquire_core(LEVEL_1_8)
        sim.run(until=3.0)
        assert machine.total_energy() == pytest.approx(2 * 4.52 * 3.0)


class TestMachinePool:
    def test_acquire_until_exhausted(self, machine):
        for _ in range(machine.n_cores):
            machine.acquire_core(LEVEL_1_2)
        with pytest.raises(NoCoreAvailable):
            machine.acquire_core(LEVEL_1_2)

    def test_release_makes_core_reusable(self, machine):
        cores = [machine.acquire_core(LEVEL_1_2) for _ in range(machine.n_cores)]
        machine.release_core(cores[3])
        reused = machine.acquire_core(LEVEL_1_8)
        assert reused is cores[3]

    def test_release_foreign_core_rejected(self, sim, machine):
        other = Machine(sim, n_cores=1)
        foreign = other.acquire_core(LEVEL_1_2)
        with pytest.raises(ClusterError):
            machine.release_core(foreign)

    def test_total_power_sums_active_cores(self, machine):
        machine.acquire_core(LEVEL_1_8)
        machine.acquire_core(LEVEL_2_4)
        expected = DEFAULT_POWER_MODEL.power(1.8) + DEFAULT_POWER_MODEL.power(2.4)
        assert machine.total_power() == pytest.approx(expected)

    def test_free_core_count(self, machine):
        assert machine.free_core_count() == machine.n_cores
        machine.acquire_core(LEVEL_1_2)
        assert machine.free_core_count() == machine.n_cores - 1

    def test_peak_power(self, machine):
        expected = machine.n_cores * DEFAULT_POWER_MODEL.power(2.4)
        assert machine.peak_power() == pytest.approx(expected)

    def test_level_counts_cache_follows_acquire_release_and_retune(self, machine):
        assert machine.level_counts() == ()
        first = machine.acquire_core(LEVEL_1_2)
        counts = machine.level_counts()
        assert counts == ((LEVEL_1_2, 1),)
        assert machine.level_counts() is counts  # cached between changes
        second = machine.acquire_core(LEVEL_1_8)
        assert machine.level_counts() == ((LEVEL_1_2, 1), (LEVEL_1_8, 1))
        first.set_level(LEVEL_2_4)
        assert machine.level_counts() == ((LEVEL_1_8, 1), (LEVEL_2_4, 1))
        machine.release_core(second)
        assert machine.level_counts() == ((LEVEL_2_4, 1),)
        machine.release_core(first)
        assert machine.level_counts() == ()

    def test_zero_cores_rejected(self, sim):
        with pytest.raises(ClusterError):
            Machine(sim, n_cores=0)
