"""Timeline samplers for the runtime-behaviour and QoS figures.

:class:`StateSampler` records what Figure 11 plots — the number of
instances per stage and each instance's frequency over time.
:class:`QosSampler` records what Figures 13/14 plot — end-to-end latency
as a fraction of the QoS target and draw as a fraction of peak power.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError
from repro.service.application import Application
from repro.service.command_center import CommandCenter
from repro.sim.engine import Simulator
from repro.sim.process import PeriodicProcess

__all__ = ["StageSnapshot", "StateSample", "StateSampler", "QosSample", "QosSampler"]


@dataclass(frozen=True, slots=True)
class StageSnapshot:
    """One stage's pool at a sampling instant."""

    stage_name: str
    instance_count: int
    #: (instance name, frequency GHz) for every non-withdrawn instance.
    frequencies: tuple[tuple[str, float], ...]
    queue_length: int


@dataclass(frozen=True, slots=True)
class StateSample:
    """The whole application's pool state at a sampling instant."""

    time: float
    stages: tuple[StageSnapshot, ...]
    total_power_watts: float

    def stage(self, name: str) -> StageSnapshot:
        for snapshot in self.stages:
            if snapshot.stage_name == name:
                return snapshot
        raise KeyError(name)


class StateSampler:
    """Samples per-stage instance counts and frequencies periodically."""

    def __init__(
        self,
        sim: Simulator,
        application: Application,
        sample_interval_s: float = 5.0,
    ) -> None:
        if sample_interval_s <= 0.0:
            raise ConfigurationError(
                f"sample interval must be > 0, got {sample_interval_s}"
            )
        self.application = application
        self.samples: list[StateSample] = []
        #: Each stage's last sampled ``frequencies``, reused while unchanged.
        self._frequencies: dict[str, tuple[tuple[str, float], ...]] = {}
        self._process = PeriodicProcess(
            sim, sample_interval_s, self._sample, start_delay=0.0, name="state-sampler"
        )

    def start(self) -> None:
        self._process.start()

    def stop(self) -> None:
        self._process.stop()

    def _sample(self, now: float) -> None:
        snapshots = []
        previous = self._frequencies
        for stage in self.application.stages:
            instances = stage.instances
            frequencies = tuple(
                (inst.name, inst.frequency_ghz) for inst in instances
            )
            # Samples between two DVFS or pool changes share one tuple.
            if frequencies == previous.get(stage.name):
                frequencies = previous[stage.name]
            else:
                previous[stage.name] = frequencies
            snapshots.append(
                StageSnapshot(
                    stage_name=stage.name,
                    instance_count=len(instances),
                    frequencies=frequencies,
                    queue_length=stage.total_queue_length(),
                )
            )
        self.samples.append(
            StateSample(
                time=now,
                stages=tuple(snapshots),
                total_power_watts=self.application.total_power(),
            )
        )

    # ------------------------------------------------------------------
    def max_instances(self, stage_name: str) -> int:
        """Largest sampled pool size of a stage across the run."""
        return max(
            (sample.stage(stage_name).instance_count for sample in self.samples),
            default=0,
        )


@dataclass(frozen=True)
class QosSample:
    """One point on a Figure-13/14 timeline."""

    time: float
    #: Windowed average latency / QoS target; None while no queries landed.
    latency_fraction: Optional[float]
    #: Current draw / reference (the over-provisioned deployment's draw).
    power_fraction: float


class QosSampler:
    """Samples latency-vs-target and power-vs-peak fractions periodically."""

    def __init__(
        self,
        sim: Simulator,
        application: Application,
        command_center: CommandCenter,
        qos_target_s: float,
        reference_power_watts: float,
        sample_interval_s: float = 5.0,
    ) -> None:
        if qos_target_s <= 0.0:
            raise ConfigurationError(f"QoS target must be > 0, got {qos_target_s}")
        if reference_power_watts <= 0.0:
            raise ConfigurationError(
                f"reference power must be > 0, got {reference_power_watts}"
            )
        if sample_interval_s <= 0.0:
            raise ConfigurationError(
                f"sample interval must be > 0, got {sample_interval_s}"
            )
        self.application = application
        self.command_center = command_center
        self.qos_target_s = float(qos_target_s)
        self.reference_power_watts = float(reference_power_watts)
        self.samples: list[QosSample] = []
        self._process = PeriodicProcess(
            sim, sample_interval_s, self._sample, start_delay=0.0, name="qos-sampler"
        )

    def start(self) -> None:
        self._process.start()

    def stop(self) -> None:
        self._process.stop()

    def _sample(self, now: float) -> None:
        recent = self.command_center.recent_latency_avg()
        fraction = None if recent is None else recent / self.qos_target_s
        self.samples.append(
            QosSample(
                time=now,
                latency_fraction=fraction,
                power_fraction=self.application.total_power()
                / self.reference_power_watts,
            )
        )

    # ------------------------------------------------------------------
    def average_power_fraction(self, since: float = 0.0) -> float:
        """Mean sampled power fraction from ``since`` onward."""
        values = [s.power_fraction for s in self.samples if s.time >= since]
        if not values:
            return 0.0
        return sum(values) / len(values)

    def violation_fraction(self) -> float:
        """Share of samples whose windowed latency exceeded the target."""
        judged = [s for s in self.samples if s.latency_fraction is not None]
        if not judged:
            return 0.0
        violations = sum(1 for s in judged if s.latency_fraction > 1.0)
        return violations / len(judged)
