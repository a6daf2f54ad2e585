"""Golden seed-equivalence cells: the byte-identity contract.

The hot-path optimisation work (bisect windows, heap compaction, cached
pool scans, incremental occupancy counts) promises to change *nothing*
about what a run computes — only how fast it computes it.  This module
pins that promise: a handful of small-but-representative cells, each
hashed down to one digest over the canonical JSON of its full result
payload (every latency percentile, power sample, controller action and
QoS violation).

``golden_digests.json`` was captured on the pre-optimisation tree; the
test recomputes each cell and compares digests.  Any divergence — a
reordered float sum, a changed tie-break, a perturbed random stream —
fails loudly with the cell name.

Regenerate (only when a PR *intends* a behavioural change) with::

    PYTHONPATH=src python tests/integration/golden_cells.py --regen
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.scenario.spec import ScenarioSpec, StageAllocation

GOLDEN_PATH = Path(__file__).with_name("golden_digests.json")


def golden_cells() -> dict[str, ScenarioSpec]:
    """The pinned cells, spanning every serving and control path."""
    return {
        "sirius-powerchief": ScenarioSpec.latency(
            "sirius", "powerchief", ("constant", 1.95), 150.0, seed=3
        ),
        "sirius-static": ScenarioSpec.latency(
            "sirius", "static", ("constant", 1.95), 150.0, seed=3
        ),
        "nlp-freq-boost": ScenarioSpec.latency(
            "nlp", "freq-boost", ("constant", 1.4), 150.0, seed=5
        ),
        "sirius-inst-boost-wide": ScenarioSpec.latency(
            "sirius",
            "inst-boost",
            ("constant", 8.0),
            120.0,
            seed=7,
            budget_watts=60.0,
            allocation={
                "ASR": StageAllocation(count=4, level=1),
                "IMM": StageAllocation(count=4, level=1),
                "QA": StageAllocation(count=4, level=1),
            },
            n_cores=16,
        ),
        # The widest pools pinned: 22/21/21 instances on 64 cores, where
        # the shortest-queue dispatcher's first-idle rule does real work.
        "sirius-fleet-jsq": ScenarioSpec.latency(
            "sirius",
            "powerchief",
            ("constant", 20.0),
            300.0,
            seed=1,
            budget_watts=1000.0,
            allocation={
                "ASR": StageAllocation(count=22, level=1),
                "IMM": StageAllocation(count=21, level=1),
                "QA": StageAllocation(count=21, level=1),
            },
            n_cores=64,
        ),
        "sirius-chaos-sharded": ScenarioSpec.latency(
            "sirius",
            "powerchief",
            ("constant", 3.0),
            120.0,
            seed=11,
            chaos="crash-heavy",
            shards=2,
            drain_s=30.0,
        ),
        "websearch-qos-powerchief": ScenarioSpec.qos(
            "websearch", "powerchief", 8.0, 150.0, seed=3
        ),
        "sirius-qos-pegasus": ScenarioSpec.qos(
            "sirius", "pegasus", 7.0, 150.0, seed=3
        ),
    }


def cell_digest(spec: ScenarioSpec) -> str:
    """SHA-256 over the canonical JSON of the cell's full result payload."""
    from repro.experiments.export import scenario_payload
    from repro.scenario import run_scenario

    payload = scenario_payload(run_scenario(spec))
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def load_goldens() -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text())


def _regen() -> None:
    goldens = {}
    for name, spec in golden_cells().items():
        goldens[name] = cell_digest(spec)
        print(f"{name}: {goldens[name]}")
    GOLDEN_PATH.write_text(json.dumps(goldens, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    import sys

    if "--regen" not in sys.argv:
        print(__doc__)
        sys.exit(2)
    _regen()
