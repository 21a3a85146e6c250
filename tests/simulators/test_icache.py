import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulators import CacheConfig, count_misses, icache, miss_counter
from repro.validate.oracles import oracle_direct_mapped, oracle_two_way_lru, oracle_victim


def reference_misses(lines, n_sets, assoc, victim_lines=0):
    """Straightforward stateful LRU model used as ground truth."""
    sets = [[] for _ in range(n_sets)]
    victim = []
    misses = 0
    for line in lines:
        s = line % n_sets
        if line in sets[s]:
            sets[s].remove(line)
            sets[s].append(line)
            continue
        if victim_lines and line in victim:
            victim.remove(line)
            evicted = sets[s].pop(0) if len(sets[s]) >= assoc else None
            sets[s].append(line)
            if evicted is not None:
                victim.append(evicted)
                while len(victim) > victim_lines:
                    victim.pop(0)
            continue
        misses += 1
        if len(sets[s]) >= assoc:
            evicted = sets[s].pop(0)
            if victim_lines:
                victim.append(evicted)
                while len(victim) > victim_lines:
                    victim.pop(0)
        sets[s].append(line)
    return misses


def test_config_validation():
    with pytest.raises(ValueError):
        CacheConfig(size_bytes=100)
    with pytest.raises(ValueError):
        CacheConfig(size_bytes=1024, associativity=4)
    with pytest.raises(ValueError):
        CacheConfig(size_bytes=1024, associativity=2, victim_lines=4)


def test_direct_mapped_basics():
    config = CacheConfig(size_bytes=4 * 32)  # 4 sets
    # lines 0 and 4 conflict (same set); 1 does not
    lines = np.array([0, 4, 0, 1, 1, 0])
    assert count_misses(lines, config) == reference_misses(lines, 4, 1) == 4


def test_two_way_absorbs_pairwise_conflict():
    dm = CacheConfig(size_bytes=4 * 32)
    two = CacheConfig(size_bytes=8 * 32, associativity=2)  # 4 sets, 2 ways
    lines = np.array([0, 4, 0, 4, 0, 4])
    assert count_misses(lines, dm) == 6
    assert count_misses(lines, two) == 2


def test_two_way_three_way_conflict_thrashes():
    two = CacheConfig(size_bytes=8 * 32, associativity=2)  # 4 sets
    lines = np.array([0, 4, 8, 0, 4, 8])
    assert count_misses(lines, two) == reference_misses(lines, 4, 2) == 6


def test_victim_cache_rescues_conflicts():
    no_victim = CacheConfig(size_bytes=4 * 32)
    with_victim = CacheConfig(size_bytes=4 * 32, victim_lines=16)
    lines = np.array([0, 4, 0, 4, 0, 4])
    assert count_misses(lines, no_victim) == 6
    assert count_misses(lines, with_victim) == 2


def test_empty_and_chunked_streams():
    config = CacheConfig(size_bytes=4 * 32)
    assert count_misses(np.empty(0, dtype=np.int64), config) == 0
    assert count_misses([], config) == 0
    chunked = [np.array([0, 4]), np.array([0])]
    whole = np.array([0, 4, 0])
    assert count_misses(chunked, config) == count_misses(whole, config)


@given(
    lines=st.lists(st.integers(min_value=0, max_value=31), min_size=1, max_size=300),
    n_sets_log=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=120, deadline=None)
def test_direct_mapped_matches_reference(lines, n_sets_log):
    n_sets = 2**n_sets_log
    config = CacheConfig(size_bytes=n_sets * 32)
    arr = np.asarray(lines, dtype=np.int64)
    assert count_misses(arr, config) == reference_misses(lines, n_sets, 1)


@given(
    lines=st.lists(st.integers(min_value=0, max_value=31), min_size=1, max_size=300),
    n_sets_log=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=120, deadline=None)
def test_two_way_lru_matches_reference(lines, n_sets_log):
    n_sets = 2**n_sets_log
    config = CacheConfig(size_bytes=n_sets * 2 * 32, associativity=2)
    arr = np.asarray(lines, dtype=np.int64)
    assert count_misses(arr, config) == reference_misses(lines, n_sets, 2)


@given(
    lines=st.lists(st.integers(min_value=0, max_value=23), min_size=1, max_size=200),
    victim=st.sampled_from([1, 2, 4, 16]),
)
@settings(max_examples=100, deadline=None)
def test_victim_cache_matches_reference(lines, victim):
    config = CacheConfig(size_bytes=4 * 32, victim_lines=victim)
    arr = np.asarray(lines, dtype=np.int64)
    assert count_misses(arr, config) == reference_misses(lines, 4, 1, victim)


def test_victim_never_worse_than_plain():
    rng = np.random.default_rng(3)
    lines = rng.integers(0, 64, size=2000)
    plain = count_misses(lines, CacheConfig(size_bytes=8 * 32))
    rescued = count_misses(lines, CacheConfig(size_bytes=8 * 32, victim_lines=16))
    assert rescued <= plain


@given(
    lines=st.lists(st.integers(min_value=0, max_value=39), min_size=1, max_size=200),
    cuts=st.lists(st.integers(min_value=1, max_value=7), min_size=1, max_size=8),
    victim=st.sampled_from([1, 2, 4, 16]),
    slice_len=st.sampled_from([1, 2, 3]),
)
@settings(max_examples=150, deadline=None)
def test_victim_swap_loop_in_short_slices_matches_oracle(lines, cuts, victim, slice_len):
    """The counter models each fed chunk in slices of ``_FEED_SLICE`` line
    accesses; at 1-3 accesses per slice and 1-7 lines per chunk the
    misses, the per-set primary lines and the buffer's LRU order all equal
    the oracle's."""
    config = CacheConfig(size_bytes=4 * 32, victim_lines=victim)
    counter = miss_counter(config)
    bounds = list(itertools.accumulate(itertools.islice(itertools.cycle(cuts), len(lines))))
    with mock.patch.object(icache, "_FEED_SLICE", slice_len):
        for start, stop in zip([0, *bounds], bounds):
            counter.feed(np.asarray(lines[start:stop], dtype=np.int32))
    final: dict = {}
    assert counter.misses == oracle_victim(lines, config, final=final)
    state = counter.state_dict()
    assert state["victim"] == final["victim"]
    assert state["last"].tolist() == [final["primary"].get(s, -1) for s in range(4)]


ORACLES = {"dm": oracle_direct_mapped, "lru2": oracle_two_way_lru, "victim": oracle_victim}


def _same(a: dict, b: dict) -> bool:
    """Equal state or journal dicts (NumPy arrays compared by value)."""
    return a.keys() == b.keys() and all(
        np.array_equal(a[k], b[k]) if isinstance(a[k], np.ndarray) else a[k] == b[k]
        for k in a
    )


def _fed(counter, chunks):
    for chunk in chunks:
        counter.feed(chunk)
    return counter


@given(
    lines=st.lists(st.integers(min_value=0, max_value=39), min_size=1, max_size=200),
    cuts=st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=8),
    slice_len=st.sampled_from([1, 2, 3, 7]),
)
@settings(max_examples=100, deadline=None)
def test_counters_do_not_depend_on_the_feed_slice(lines, cuts, slice_len):
    """Misses, end state and a direct-mapped shard journal are the same
    whether each chunk is modeled whole or in slices of 1-7 accesses."""
    bounds = list(itertools.accumulate(itertools.islice(itertools.cycle(cuts), len(lines))))
    chunks = [np.asarray(lines[a:b], dtype=np.int32) for a, b in zip([0, *bounds], bounds)]
    configs = [
        CacheConfig(size_bytes=4 * 32),
        CacheConfig(size_bytes=8 * 32, associativity=2),
        CacheConfig(size_bytes=4 * 32, victim_lines=2),
    ]
    for config in configs:
        whole = _fed(miss_counter(config), chunks)
        with mock.patch.object(icache, "_FEED_SLICE", slice_len):
            sliced = _fed(miss_counter(config), chunks)
        assert sliced.misses == whole.misses == ORACLES[whole.kind](lines, config)
        assert _same(sliced.state_dict(), whole.state_dict())
    whole = _fed(icache._DirectMappedCounter(4, record_journal=True), chunks)
    with mock.patch.object(icache, "_FEED_SLICE", slice_len):
        sliced = _fed(icache._DirectMappedCounter(4, record_journal=True), chunks)
    assert _same(sliced.shard_journal(), whole.shard_journal())


def _feed_peak(config: CacheConfig, n: int) -> int:
    """Tracemalloc peak of one ``feed`` of ``n`` int32 lines to a cold
    counter. Each random line repeats 64 times, which keeps the victim
    counter's swap loop (slow under tracemalloc) short; every sort still
    sees all ``n`` accesses."""
    rng = np.random.default_rng(5)
    lines = np.repeat(rng.integers(0, 1 << 16, size=n // 64, dtype=np.int32), 64)
    counter = miss_counter(config)
    tracemalloc.start()
    try:
        counter.feed(lines)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "config",
    [
        CacheConfig(size_bytes=8 * 1024),
        CacheConfig(size_bytes=64 * 1024),
        CacheConfig(size_bytes=16 * 1024, associativity=2),
        CacheConfig(size_bytes=8 * 1024, victim_lines=16),
    ],
    ids=["dm-256", "dm-2048", "lru2", "victim"],
)
def test_feed_memory_does_not_grow_with_the_input(config):
    """A counter models a feed in slices, so what it allocates is bounded
    by the slice: 8 MiB at most for 2^22 lines, and the same as for 2^20."""
    big = _feed_peak(config, 1 << 22)
    assert big <= 8 * 2**20
    assert big == pytest.approx(_feed_peak(config, 1 << 20), rel=0.05)
