import numpy as np
import pytest

from repro.cfg import BlockKind, Layout, ProgramBuilder
from repro.profiling import BlockTrace
from repro.simulators import (
    CacheConfig,
    FetchStream,
    TraceCacheConfig,
    TraceCacheStream,
    miss_counter,
    run_fused,
)
from repro.validate import LineLog
from repro.validate.generators import random_case
from repro.validate.oracles import oracle_trace_cache


def loop_program():
    """Two blocks, placed apart so the loop transition is a taken branch."""
    b = ProgramBuilder()
    b.add_procedure(
        "f", "executor", sizes=[4, 4], kinds=[BlockKind.BRANCH, BlockKind.BRANCH]
    )
    p = b.build()
    layout = Layout.from_placements(p, {0: 0, 1: 512}, name="apart")
    return p, layout


def simulate(trace, program, layout, consumers=(), **kwargs) -> TraceCacheStream:
    """One fused pass of a trace-cache stream."""
    stream = TraceCacheStream(layout.name, consumers=consumers)
    run_fused(trace, program, [(layout, stream)], **kwargs)
    return stream


def test_repeated_trace_hits():
    p, layout = loop_program()
    trace = BlockTrace([0, 1] * 50)
    r = simulate(trace, p, layout)
    # first iteration misses fill the cache; later iterations hit
    assert r.n_hits > 0
    assert r.hit_rate > 0.5
    assert r.n_instructions == 400


def test_trace_cache_beats_sequential_on_taken_branches():
    p, layout = loop_program()
    trace = BlockTrace([0, 1] * 200)
    seq = FetchStream(layout.name)
    run_fused(trace, p, [(layout, seq)])
    tc = simulate(trace, p, layout)
    # SEQ.3 stops at each taken branch: 4 instructions per fetch. The trace
    # cache crosses them: 8+ per hit.
    assert tc.ipc() > seq.ideal_ipc


def test_outcome_mismatch_forces_miss():
    # block 0 alternates successor: 1 (taken to 512) vs 2 (sequential)
    b = ProgramBuilder()
    b.add_procedure(
        "f",
        "executor",
        sizes=[4, 4, 4],
        kinds=[BlockKind.BRANCH, BlockKind.BRANCH, BlockKind.BRANCH],
    )
    p = b.build()
    layout = Layout.from_placements(p, {0: 0, 1: 512, 2: 16}, name="alt")
    # alternating paths: the stored outcome mask keeps mismatching
    trace = BlockTrace([0, 1, 0, 2, 0, 1, 0, 2] * 20)
    r = simulate(trace, p, layout)
    assert r.hit_rate < 0.9  # alternation defeats a single direct-mapped entry


def test_miss_path_lines_feed_icache():
    p, layout = loop_program()
    trace = BlockTrace([0, 1] * 10)
    log = LineLog()
    small = miss_counter(CacheConfig(size_bytes=1024))
    r = simulate(trace, p, layout, consumers=[log, small])
    lines = np.concatenate(log.chunks)
    assert lines.size == 2 * r.n_misses
    assert r.ipc(small.misses) <= r.ipc()


def test_deterministic():
    p, layout = loop_program()
    trace = BlockTrace([0, 1] * 30)
    a = simulate(trace, p, layout)
    b = simulate(trace, p, layout)
    assert a.n_hits == b.n_hits and a.n_cycles_base == b.n_cycles_base


def test_chunking_preserves_counts():
    p, layout = loop_program()
    trace = BlockTrace([0, 1] * 500)
    whole = simulate(trace, p, layout, chunk_events=10**9)
    chunked = simulate(trace, p, layout, chunk_events=97)
    assert whole.n_instructions == chunked.n_instructions
    assert chunked.hit_rate == pytest.approx(whole.hit_rate, abs=0.05)


def test_config_defaults():
    c = TraceCacheConfig()
    assert c.n_entries == 256
    assert c.trace_instructions == 16


@pytest.mark.parametrize(
    "geometry",
    [
        {"n_entries": 0},
        {"n_entries": -4},
        {"trace_instructions": 0},
        {"trace_instructions": -3},
        {"branch_limit": 0},
    ],
)
def test_config_rejects_empty_geometry(geometry):
    with pytest.raises(ValueError):
        TraceCacheConfig(**geometry)


@pytest.mark.parametrize("stream_type", [FetchStream, TraceCacheStream])
@pytest.mark.parametrize("line_bytes", [0, 2, 6, -4])
def test_streams_reject_lines_off_the_instruction_grain(stream_type, line_bytes):
    with pytest.raises(ValueError):
        stream_type("l", line_bytes=line_bytes)


def test_smallest_geometry_matches_oracle():
    case = random_case(3)
    config = TraceCacheConfig(1, 1, 1)
    stream = TraceCacheStream(case.layout.name, config, consumers=[LineLog()])
    run_fused(case.trace, case.program, [(case.layout, stream)], chunk_events=case.chunk_events)
    ora = oracle_trace_cache(
        case.trace, case.program, case.layout, config, chunk_events=case.chunk_events
    )
    assert ora.n_misses > 0
    assert (stream.n_instructions, stream.n_hits, stream.n_misses, stream.n_taken) == (
        ora.n_instructions, ora.n_hits, ora.n_misses, ora.n_taken
    )
    assert stream.consumers[0].lines() == ora.miss_lines
    assert stream.state_dict()["entries"] == [ora.entries.get(0)]


def test_widest_outcome_mask_matches_oracle():
    """The walk keeps a trace's branch outcomes as the bits of an int32:
    at the widest branch limit, 32, traces whose 32nd branch is taken
    still equal the oracle's, and a wider limit is rejected rather than
    losing bits."""
    with pytest.raises(ValueError):
        TraceCacheConfig(branch_limit=33)
    b = ProgramBuilder()
    b.add_procedure("f", "executor", sizes=[1] * 35, kinds=[BlockKind.BRANCH] * 35)
    p = b.build()
    layout = Layout.original(p)
    trace = BlockTrace(list(range(35)) * 6)
    config = TraceCacheConfig(64, 64, 32)
    stream = TraceCacheStream(layout.name, config, consumers=[LineLog()])
    run_fused(trace, p, [(layout, stream)])
    ora = oracle_trace_cache(trace, p, layout, config)
    assert any(k == 32 and mask >> 31 for _, mask, k, _ in ora.entries.values())
    assert ora.n_hits > 0
    assert (stream.n_instructions, stream.n_hits, stream.n_misses, stream.n_taken) == (
        ora.n_instructions, ora.n_hits, ora.n_misses, ora.n_taken
    )
    assert stream.consumers[0].lines() == ora.miss_lines
