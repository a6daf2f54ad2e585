"""Experiment harness: configurations, runners and per-figure drivers."""

from repro.scenario.config import (
    TABLE2_CONTROLLER_CONFIG,
    TABLE2_INITIAL_FREQ_GHZ,
    TABLE2_POWER_BUDGET_WATTS,
    TABLE3_SIRIUS,
    TABLE3_WEBSEARCH,
    Table3Setup,
)
from repro.experiments.parallel import (
    CellOutcome,
    CellSpec,
    EngineReport,
    ResultCache,
    fan_out,
    run_cells,
    spec_digest,
)
from repro.experiments.report import format_heading, format_table
from repro.experiments.runner import (
    LATENCY_POLICIES,
    QOS_POLICIES,
    QosRunResult,
    RunResult,
    StageAllocation,
    run_latency_experiment,
    run_qos_experiment,
)
from repro.scenario.sampling import (
    QosSample,
    QosSampler,
    StageSnapshot,
    StateSample,
    StateSampler,
)

__all__ = [
    "TABLE2_CONTROLLER_CONFIG",
    "TABLE2_INITIAL_FREQ_GHZ",
    "TABLE2_POWER_BUDGET_WATTS",
    "TABLE3_SIRIUS",
    "TABLE3_WEBSEARCH",
    "Table3Setup",
    "CellOutcome",
    "CellSpec",
    "EngineReport",
    "ResultCache",
    "fan_out",
    "run_cells",
    "spec_digest",
    "format_heading",
    "format_table",
    "LATENCY_POLICIES",
    "QOS_POLICIES",
    "QosRunResult",
    "RunResult",
    "StageAllocation",
    "run_latency_experiment",
    "run_qos_experiment",
    "QosSample",
    "QosSampler",
    "StageSnapshot",
    "StateSample",
    "StateSampler",
]
