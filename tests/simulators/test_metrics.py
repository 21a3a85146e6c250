"""The Table 3/4 formulas on the streams: miss rate, IPC with the fixed
miss penalty, ideal IPC, run length and trace-cache hit rate."""

import pytest

from repro.cfg import BlockKind, Layout, ProgramBuilder
from repro.profiling import BlockTrace
from repro.simulators import (
    MISS_PENALTY_CYCLES,
    CacheConfig,
    FetchStream,
    TraceCacheStream,
    miss_counter,
    run_fused,
)

#: cache sizes in bytes: one 32-byte line, 8 KB, 64 KB
SIZES = (32, 8 * 1024, 64 * 1024)


@pytest.fixture
def result():
    """A fed fetch stream and the miss count of each cache size."""
    b = ProgramBuilder()
    b.add_procedure("f", "m", sizes=[8, 8], kinds=[BlockKind.BRANCH, BlockKind.RETURN])
    p = b.build()
    layout = Layout.from_placements(p, {0: 0, 1: 4096}, name="apart")
    counters = [miss_counter(CacheConfig(size_bytes=size)) for size in SIZES]
    stream = FetchStream(layout.name, consumers=counters)
    run_fused(BlockTrace([0, 1] * 100), p, [(layout, stream)])
    return stream, {size: c.misses for size, c in zip(SIZES, counters)}


def test_miss_rate_percent(result):
    stream, misses = result
    # both lines stay cached after the first iteration: 4 cold misses
    assert stream.miss_rate(misses[8 * 1024]) == pytest.approx(100.0 * 4 / stream.n_instructions)


def test_fetch_bandwidth_penalty(result):
    stream, misses = result
    big = misses[64 * 1024]
    assert stream.ipc(big) <= stream.ideal_ipc
    assert stream.ipc(big) == stream.n_instructions / (
        stream.n_fetches + MISS_PENALTY_CYCLES * big
    )
    # a 1-set cache thrashes between the two lines: heavy penalty
    assert stream.ipc(misses[32]) < 0.5 * stream.ipc(big)


def test_instructions_between_taken(result):
    stream, _ = result
    # every 8-instruction block ends in a taken transfer
    assert stream.instructions_between_taken == pytest.approx(8.0)


def test_empty_result_degenerates():
    empty = FetchStream("x")
    assert empty.miss_rate(0) == 0.0
    assert empty.ipc(0) == 0.0
    assert empty.ideal_ipc == 0.0
    assert empty.instructions_between_taken == float("inf")
    tc = TraceCacheStream("x")
    assert tc.hit_rate == 0.0
    assert tc.ipc() == 0.0
