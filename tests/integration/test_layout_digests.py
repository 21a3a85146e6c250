"""Every layout of the Table 3/4 grid, pinned by the SHA-256 of its address
array: ``orig`` and ``P&H``, then Torr/auto/ops for each row of
``CACHE_CFA_GRID``, at two workloads. Layout construction may get
faster; it may not move a block."""

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments.config import CACHE_CFA_GRID
from repro.experiments.harness import WorkloadSettings, get_workload, layouts_for

DIGESTS = json.loads(Path(__file__).with_name("layout_digests.json").read_text())


def grid_digests(settings: WorkloadSettings) -> dict[str, str]:
    """``{"orig" | "P&H" | "<cache>/<cfa>/<layout>": sha256 hex}``."""
    workload = get_workload(settings)
    rows = [(8, 2, ("orig", "P&H"))] + [(c, f, ("Torr", "auto", "ops")) for c, f in CACHE_CFA_GRID]
    digests = {}
    for cache, cfa, names in rows:
        for name, layout in layouts_for(workload, cache, cfa, names=names).items():
            key = name if name in ("orig", "P&H") else f"{cache}/{cfa}/{name}"
            digests[key] = hashlib.sha256(layout.address.astype("<i8").tobytes()).hexdigest()
    return digests


@pytest.mark.parametrize("scale, seed", [(0.0005, 7), (0.0002, 11)])
def test_grid_layouts_match_pinned_digests(scale, seed):
    expected = DIGESTS[f"scale={scale} seed={seed}"]
    got = grid_digests(WorkloadSettings(scale=scale, seed=seed))
    assert list(got) == list(expected)
    assert {key for key in got if got[key] != expected[key]} == set()
