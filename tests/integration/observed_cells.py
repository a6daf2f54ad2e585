"""Observed-run goldens: the byte-identity contract for armed pillars.

``golden_cells.py`` pins result payloads only, and the tick-vs-batch
tests compare two paths through the *same* assembly code, so neither
catches a change to how the stack wires its observability.  These cells
arm the pillars on every assembly shape (single stack, sharded, QoS,
controllerless QoS) and pin, per cell, one SHA-256 per observable
output: the result payload, the simulator's event count, the stream
lines, the Prometheus text, the audit log, and the attribution and
energy reports.

Regenerate (only when a PR *intends* a behavioural change) with::

    PYTHONPATH=src:. python tests/integration/observed_cells.py --regen
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any

from repro.scenario.spec import ScenarioSpec

GOLDEN_PATH = Path(__file__).with_name("observed_golden_digests.json")


def observed_cells() -> dict[str, ScenarioSpec]:
    """The pinned observed cells, one per assembly shape."""
    return {
        "sirius-chaos-sharded-observed": ScenarioSpec.latency(
            "sirius",
            "powerchief",
            ("constant", 3.0),
            120.0,
            seed=11,
            chaos="crash-heavy",
            shards=2,
            drain_s=30.0,
            observe=("trace", "metrics", "audit", "attribution", "slo", "stream"),
            slo_target_s=5.0,
        ),
        "sirius-chaos-observed": ScenarioSpec.latency(
            "sirius",
            "powerchief",
            ("constant", 3.0),
            120.0,
            seed=11,
            chaos="crash-heavy",
            drain_s=30.0,
            observe=("metrics", "audit", "energy", "stream"),
        ),
        "websearch-qos-observed": ScenarioSpec.qos(
            "websearch",
            "powerchief",
            8.0,
            120.0,
            seed=3,
            observe=("metrics", "audit", "attribution", "slo", "energy", "stream"),
        ),
        "sirius-qos-baseline-observed": ScenarioSpec.qos(
            "sirius",
            "baseline",
            7.0,
            120.0,
            seed=3,
            observe=("metrics", "audit", "slo", "stream"),
        ),
    }


def _sha(value: Any) -> str:
    canonical = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def cell_digests(spec: ScenarioSpec) -> dict[str, str]:
    """One digest per observable output of an observed run."""
    from repro.experiments.export import scenario_payload
    from repro.scenario.builder import StackBuilder

    builder = StackBuilder(spec)
    result = builder.execute()
    obs = builder.observability
    assert obs is not None and builder.sim is not None
    return {
        "payload": _sha(scenario_payload(result)),
        "events": _sha(builder.sim.events_processed),
        "stream": _sha(None if obs.stream is None else obs.stream.lines),
        "prometheus": _sha(
            None if obs.metrics is None else obs.metrics.render_prometheus()
        ),
        "audit": _sha(None if obs.audit is None else obs.audit.to_dicts()),
        "attribution": _sha(
            None
            if obs.attribution is None
            else obs.attribution.report().to_dict()
        ),
        "energy": _sha(
            None
            if obs.energy is None
            else obs.energy.to_dict(result.queries_completed)
        ),
    }


def load_goldens() -> dict[str, dict[str, str]]:
    return json.loads(GOLDEN_PATH.read_text())


def _regen() -> None:
    goldens = {name: cell_digests(spec) for name, spec in observed_cells().items()}
    for name, digests in goldens.items():
        print(f"{name}: {digests['payload']}")
    GOLDEN_PATH.write_text(json.dumps(goldens, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    import sys

    if "--regen" not in sys.argv:
        print(__doc__)
        sys.exit(2)
    _regen()
