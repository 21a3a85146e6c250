import tracemalloc

import numpy as np
import pytest

from repro.profiling import SEPARATOR, BlockTrace, profile_trace, profiler, write_trace
from repro.validate.generators import random_case


def test_counts_and_edges():
    t = BlockTrace([0, 1, 0, 1, 2])
    cfg = profile_trace(t, 3)
    np.testing.assert_array_equal(cfg.block_count, [2, 2, 1])
    assert cfg.edge_count(0, 1) == 2
    assert cfg.edge_count(1, 0) == 1
    assert cfg.edge_count(1, 2) == 1


def test_no_edge_across_separator():
    t = BlockTrace.concatenate([BlockTrace([0, 1]), BlockTrace([2, 0])])
    cfg = profile_trace(t, 3)
    assert cfg.edge_count(1, 2) == 0
    assert cfg.edge_count(0, 1) == 1
    assert cfg.edge_count(2, 0) == 1
    np.testing.assert_array_equal(cfg.block_count, [2, 1, 1])


def test_empty_trace():
    cfg = profile_trace(BlockTrace([]), 4)
    assert cfg.n_edges == 0
    assert cfg.block_count.sum() == 0


def test_single_event():
    cfg = profile_trace(BlockTrace([3]), 4)
    assert cfg.block_count[3] == 1
    assert cfg.n_edges == 0


def test_out_of_range_block_rejected():
    with pytest.raises(ValueError):
        profile_trace(BlockTrace([0, 7]), 3)


def test_self_loop_recorded():
    cfg = profile_trace(BlockTrace([1, 1, 1]), 2)
    assert cfg.edge_count(1, 1) == 2


def _counts_and_edges(cfg):
    return cfg.block_count.tolist(), sorted(cfg.edges())


@pytest.mark.parametrize("window", [1, 7, 10**6])
def test_stored_trace_profiles_like_the_whole_trace(tmp_path, monkeypatch, window):
    cases = [random_case(seed) for seed in range(25)]
    want = [_counts_and_edges(profile_trace(c.trace, c.program.n_blocks)) for c in cases]
    monkeypatch.setattr(profiler, "DEFAULT_CHUNK_EVENTS", window)
    for case, expected in zip(cases, want):
        store = write_trace(case.trace, tmp_path / f"{case.seed}.trace", chunk_events=5)
        got = _counts_and_edges(profile_trace(store, case.program.n_blocks))
        assert got == expected, case.seed


def test_profile_memory_follows_one_window(tmp_path, monkeypatch):
    """Three windows of a stored trace cost about what one costs: the
    profile never holds the whole trace."""
    window = 200_000
    monkeypatch.setattr(profiler, "DEFAULT_CHUNK_EVENTS", window)
    rng = np.random.default_rng(0)
    # sequential runs through a 16-block loop with random jumps and a few
    # separators: few distinct edges, so the profile itself stays small
    steps = np.where(rng.random(window) < 0.3, rng.integers(0, 16, size=window), 1)
    content = (np.cumsum(steps) % 16).astype(np.int32)
    content[rng.integers(0, window, size=50)] = SEPARATOR
    peaks = []
    for n_windows in (1, 3):
        trace = BlockTrace(np.tile(content, n_windows))
        store = write_trace(trace, tmp_path / f"{n_windows}.trace", chunk_events=window)
        store.verify()
        tracemalloc.start()
        try:
            profile_trace(store, 16)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.3 * peaks[0], peaks
