"""End-to-end pipeline tests at a very small scale factor.

These exercise the full paper methodology: build database -> trace queries
-> profile -> five layouts -> fetch/cache/trace-cache simulation, and check
the cross-cutting invariants that hold regardless of scale.
"""

import numpy as np
import pytest

from repro.experiments.harness import WorkloadSettings, get_workload, layouts_for, training_profile
from repro.simulators import (
    CacheConfig,
    FetchStream,
    TraceCacheStream,
    miss_counter,
    run_fused,
)

SCALE = 0.0005
#: direct-mapped cache sizes each fetch stream counts misses for
CACHE_KBS = (8, 16, 32, 64)


@pytest.fixture(scope="module")
def workload():
    return get_workload(WorkloadSettings(scale=SCALE))


@pytest.fixture(scope="module")
def layouts(workload):
    return layouts_for(workload, 8, 2)


@pytest.fixture(scope="module")
def fetch_results(workload, layouts):
    """One fetch stream per layout, fed in one pass, with a direct-mapped
    miss counter per size in ``CACHE_KBS`` (in that order)."""
    streams = {
        name: FetchStream(
            layout.name,
            consumers=[miss_counter(CacheConfig(size_bytes=kb * 1024)) for kb in CACHE_KBS],
        )
        for name, layout in layouts.items()
    }
    run_fused(
        workload.test_trace,
        workload.program,
        [(layouts[name], stream) for name, stream in streams.items()],
    )
    return streams


def _misses(stream, kb: int) -> int:
    return stream.consumers[CACHE_KBS.index(kb)].misses


def test_all_layouts_complete(workload, layouts):
    for layout in layouts.values():
        layout.validate(workload.program)


def test_instruction_count_is_layout_invariant(workload, fetch_results):
    counts = {r.n_instructions for r in fetch_results.values()}
    assert len(counts) == 1
    test_trace = workload.test_trace.materialize()
    assert counts.pop() == test_trace.n_instructions(workload.program.block_size)


def test_trace_events_only_hot_blocks(workload):
    """Traces never reference cold procedures."""
    program = workload.program
    cold_procs = {p.pid for p in program.procedures if p.cold}
    ids = workload.test_trace.materialize().block_ids()
    touched = set(np.unique(program.block_proc[ids]).tolist())
    assert not (touched & cold_procs)


def test_training_and_test_share_hot_code(workload):
    train = set(np.unique(workload.training_trace.materialize().block_ids()).tolist())
    test = set(np.unique(workload.test_trace.materialize().block_ids()).tolist())
    overlap = len(train & test) / len(test)
    assert overlap > 0.5  # the profile is representative


def test_reordered_layouts_reduce_taken_branches(workload, fetch_results):
    for name in ("auto", "ops"):
        assert fetch_results[name].n_taken < fetch_results["orig"].n_taken


def test_reordered_layouts_reduce_misses(workload, fetch_results):
    orig = _misses(fetch_results["orig"], 8)
    for name in ("P&H", "Torr", "auto"):
        assert _misses(fetch_results[name], 8) < orig


def test_bigger_cache_never_increases_dm_misses(fetch_results):
    # direct-mapped caches can show Belady anomalies in general, but with
    # doubling (nested) set mappings misses must not increase
    for result in fetch_results.values():
        previous = None
        for kb in (8, 16, 32, 64):
            misses = _misses(result, kb)
            if previous is not None:
                assert misses <= previous
            previous = misses


def test_trace_cache_combination(workload, layouts):
    counter = miss_counter(CacheConfig(size_bytes=64 * 1024))
    tc_orig = TraceCacheStream(layouts["orig"].name)
    tc_ops = TraceCacheStream(layouts["ops"].name, consumers=[counter])
    run_fused(
        workload.test_trace,
        workload.program,
        [(layouts["orig"], tc_orig), (layouts["ops"], tc_ops)],
    )
    assert 0.0 < tc_orig.hit_rate < 1.0
    assert tc_ops.ipc(counter.misses) > 0
    # hits + misses = fetch attempts = base cycles
    assert tc_orig.n_hits + tc_orig.n_misses == tc_orig.n_cycles_base


def test_determinism_end_to_end(tmp_path, monkeypatch):
    # each build streams its traces into its own cache directory, so the
    # second cannot replace the files the first one wrote
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "a"))
    a = WorkloadSettings(scale=SCALE).build()
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "b"))
    b = WorkloadSettings(scale=SCALE).build()
    for trace in ("training_trace", "test_trace"):
        assert getattr(a, trace).path != getattr(b, trace).path
    np.testing.assert_array_equal(
        a.training_trace.materialize().events, b.training_trace.materialize().events
    )
    np.testing.assert_array_equal(a.test_trace.materialize().events, b.test_trace.materialize().events)
    assert a.program.n_blocks == b.program.n_blocks


def test_profile_covers_most_dynamic_instructions(workload):
    cfg = training_profile(workload)
    assert int(cfg.block_count.sum()) == workload.training_trace.n_events
