import numpy as np
import pytest

from repro.profiling import (
    BlockTrace,
    blocks_for_coverage,
    cumulative_reference_curve,
    fraction_reexecuted_within,
    hottest_blocks_for_coverage,
    locality,
    reuse_distances,
    write_trace,
)
from repro.validate.generators import random_case


def test_curve_monotone_and_normalized():
    counts = np.array([50, 30, 15, 5, 0])
    curve = cumulative_reference_curve(counts)
    assert curve.shape == (4,)  # zero-count block excluded
    assert np.all(np.diff(curve) >= 0)
    assert curve[-1] == pytest.approx(1.0)
    assert curve[0] == pytest.approx(0.5)


def test_blocks_for_coverage():
    counts = np.array([50, 30, 15, 5])
    assert blocks_for_coverage(counts, 0.5) == 1
    assert blocks_for_coverage(counts, 0.8) == 2
    assert blocks_for_coverage(counts, 1.0) == 4


def test_blocks_for_coverage_validates():
    with pytest.raises(ValueError):
        blocks_for_coverage(np.array([1]), 0.0)
    with pytest.raises(ValueError):
        blocks_for_coverage(np.array([1]), 1.5)


def test_hottest_blocks():
    counts = np.array([5, 50, 30])
    np.testing.assert_array_equal(hottest_blocks_for_coverage(counts, 0.9), [1, 2])


def test_reuse_distances():
    sizes = np.array([10, 1], dtype=np.int32)
    # positions: 0:0, 1:10, 0:11, 1:21
    t = BlockTrace([0, 1, 0, 1])
    d = reuse_distances(t, sizes)
    assert sorted(d.tolist()) == [11, 11]


def test_reuse_distances_subset():
    sizes = np.array([10, 1], dtype=np.int32)
    t = BlockTrace([0, 1, 0, 1])
    d = reuse_distances(t, sizes, subset=np.array([0]))
    assert d.tolist() == [11]


@pytest.mark.parametrize("window", [1, 7, 10**6])
def test_stored_trace_reuse_distances_match_the_whole_trace(tmp_path, monkeypatch, window):
    cases = [random_case(seed) for seed in range(25)]
    subsets = [np.arange(0, c.program.n_blocks, 2) for c in cases]
    want = [
        (
            np.sort(reuse_distances(c.trace, c.program.block_size)),
            np.sort(reuse_distances(c.trace, c.program.block_size, subset=subset)),
        )
        for c, subset in zip(cases, subsets)
    ]
    monkeypatch.setattr(locality, "DEFAULT_CHUNK_EVENTS", window)
    for case, subset, (all_blocks, some_blocks) in zip(cases, subsets, want):
        store = write_trace(case.trace, tmp_path / f"{case.seed}.trace", chunk_events=5)
        sizes = case.program.block_size
        np.testing.assert_array_equal(np.sort(reuse_distances(store, sizes)), all_blocks)
        np.testing.assert_array_equal(
            np.sort(reuse_distances(store, sizes, subset=subset)), some_blocks
        )


def test_fraction_reexecuted_within():
    d = np.array([50, 150, 300])
    assert fraction_reexecuted_within(d, 100) == pytest.approx(1 / 3)
    assert fraction_reexecuted_within(d, 1000) == 1.0
    assert fraction_reexecuted_within(np.empty(0, dtype=np.int64), 100) == 0.0


def test_empty_curve():
    assert cumulative_reference_curve(np.zeros(3, dtype=int)).size == 0
    assert blocks_for_coverage(np.zeros(3, dtype=int), 0.5) == 0
