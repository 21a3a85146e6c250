"""Every layout of the Table 3/4 grid, pinned by the SHA-256 of its address
array: ``orig`` and ``P&H``, then Torr/auto/ops for each row of
``CACHE_CFA_GRID``, at two workloads. Layout construction may get
faster; it may not move a block. One suite pass's layout work is pinned
by count: each geometry-independent sequence set is built once."""

import hashlib
import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from repro.baselines import torrellas, torrellas_layout
from repro.core import CacheGeometry, STCParams, stc, stc_layout
from repro.experiments import suite
from repro.experiments.config import CACHE_CFA_GRID, KB
from repro.experiments.harness import (
    WorkloadSettings,
    get_workload,
    layouts_for,
    training_profile,
)

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


def test_suite_pass_builds_each_sequence_set_once():
    """The full grid's layouts, built the way one suite pass builds them
    (every task's streams from one layout memo), fit the STC's first pass
    and run its second pass once per (CFA size, seed mode), 7 x 2, and
    build the Torrellas sequences once; building them per row would take
    26, 26 and 13. Every shared-sequence layout equals the one
    ``stc_layout`` or ``torrellas_layout`` builds alone."""
    workload = get_workload(WorkloadSettings(scale=0.0005, seed=7))
    program, cfg = workload.program, training_profile(workload)
    grid = CACHE_CFA_GRID
    cache_sizes = sorted({c for c, _ in grid})
    memo: dict = {}
    with (
        mock.patch.object(stc, "_fit_first_pass", wraps=stc._fit_first_pass) as fits,
        mock.patch.object(stc, "build_sequences", wraps=stc.build_sequences) as stc_builds,
        mock.patch.object(torrellas, "build_sequences", wraps=torrellas.build_sequences) as torr,
    ):
        for task in suite._suite_tasks(grid, grid):
            suite._unit_for(workload, task, grid, cache_sizes, memo)
    second_passes = [c for c in stc_builds.call_args_list if c.kwargs.get("explore_from_visited")]
    assert len({cfa for _, cfa in grid}) == 7
    assert (fits.call_count, len(second_passes), torr.call_count) == (14, 14, 1)
    rows = [key for key in memo if key[0] in ("Torr", "auto", "ops")]
    assert len(rows) == 3 * len(grid)
    for name, cache_kb, cfa_kb in rows:
        geometry = CacheGeometry(cache_bytes=cache_kb * KB, cfa_bytes=cfa_kb * KB)
        if name == "Torr":
            alone = torrellas_layout(program, cfg, geometry)
        else:
            alone = stc_layout(program, cfg, geometry, STCParams(seed_mode=name))
        shared = memo[name, cache_kb, cfa_kb]
        assert shared.name == alone.name
        assert np.array_equal(shared.address, alone.address)
