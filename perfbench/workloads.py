"""The benchmark's workloads, as :class:`~repro.scenario.spec.ScenarioSpec` values.

Every workload is built from the program's public spec API, so the
benchmark drives exactly the stack a user's ``repro run --scenario``
would.  The seed is the only input that varies between runs; it goes
into the spec and nowhere else.  README.md in this directory records
why each workload was chosen.
"""

from __future__ import annotations

#: Workload names, in the order ``run.py`` lists them.
WORKLOADS = ("fleet-batch", "capped-observed", "serve-ctl")

#: Arrival rate of the fleet deployment.  40 qps (the old bench cell)
#: diverges: p99 grows from 191 s to 269 s between 500 and 1500 sim-s.
#: 20 qps holds p99 near 3.5 s on every seed tried, so the run measures
#: a steady fleet rather than a growing backlog.
FLEET_RATE_QPS = 20.0

#: Simulated seconds one fleet-batch repeat covers (about 40k queries).
FLEET_DURATION_S = 2000.0

#: Simulated seconds one capped-observed repeat covers: ten periods of
#: the diurnal trace.
CAPPED_DURATION_S = 6000.0

#: Diurnal trace of capped-observed, as multiples of the Table-2 high rate.
CAPPED_MEAN_X_HIGH = 0.8
CAPPED_AMPLITUDE_X_HIGH = 0.35
CAPPED_PERIOD_S = 600.0

#: SLO target of capped-observed (simulated seconds).
CAPPED_SLO_TARGET_S = 5.0

#: Pillars capped-observed arms (everything but the live stream).
CAPPED_PILLARS = ("trace", "metrics", "audit", "attribution", "slo", "energy")

#: The hosted serve-ctl run never reaches its end inside a measured
#: window: a daemon would need 2800 sim-s/s to get there in 36 s.
SERVE_DURATION_S = 100_000.0

def fleet_spec(seed: int, duration_s: float = FLEET_DURATION_S):
    """The headline-large deployment: 64 Sirius instances on 64 cores."""
    from repro.scenario.spec import ScenarioSpec, StageAllocation

    return ScenarioSpec.latency(
        "sirius",
        "powerchief",
        ("constant", FLEET_RATE_QPS),
        duration_s,
        seed=seed,
        budget_watts=1000.0,
        allocation={
            "ASR": StageAllocation(count=22, level=1),
            "IMM": StageAllocation(count=21, level=1),
            "QA": StageAllocation(count=21, level=1),
        },
        n_cores=64,
    )


def capped_spec(seed: int, duration_s: float = CAPPED_DURATION_S):
    """The Table-2 deployment under the 13.56 W cap, guarded and observed."""
    from repro.guard import GuardConfig
    from repro.scenario.spec import ScenarioSpec
    from repro.workloads.sirius import sirius_load_levels

    high = sirius_load_levels().high_qps
    mean = CAPPED_MEAN_X_HIGH * high
    return ScenarioSpec.latency(
        "sirius",
        "powerchief",
        ("diurnal", mean, CAPPED_AMPLITUDE_X_HIGH * high / mean, CAPPED_PERIOD_S, 0.0),
        duration_s,
        seed=seed,
        guard=GuardConfig(),
        observe=CAPPED_PILLARS,
        slo_target_s=CAPPED_SLO_TARGET_S,
    )


def batch_spec(workload: str, seed: int):
    if workload == "fleet-batch":
        return fleet_spec(seed)
    if workload == "capped-observed":
        return capped_spec(seed)
    raise ValueError(f"{workload!r} is not a batch workload")
