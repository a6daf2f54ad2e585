"""Observed-run goldens: stack assembly must not change what pillars see.

Each test reruns one pinned observed cell and compares every output
digest (payload, event count, stream, Prometheus text, audit,
attribution, energy) against ``observed_golden_digests.json``.  A
failure names the cell and the outputs that moved.
"""

from __future__ import annotations

import pytest

from tests.integration.observed_cells import (
    cell_digests,
    load_goldens,
    observed_cells,
)

_CELLS = observed_cells()
_GOLDENS = load_goldens()


def test_golden_file_covers_every_cell() -> None:
    assert sorted(_GOLDENS) == sorted(_CELLS), (
        "observed_golden_digests.json is out of sync with observed_cells(); "
        "regenerate with: PYTHONPATH=src:. python "
        "tests/integration/observed_cells.py --regen"
    )


@pytest.mark.parametrize("name", sorted(_CELLS))
def test_observed_cell_matches_golden(name: str) -> None:
    digests = cell_digests(_CELLS[name])
    moved = sorted(
        output
        for output, digest in _GOLDENS[name].items()
        if digests.get(output) != digest
    )
    assert not moved, f"cell {name!r} changed its observed outputs: {moved}"
