"""Fused multi-configuration driver vs one stream at a time.

One `run_fused` pass carrying many streams must be bit-identical to
running each fetch / trace-cache simulation (and each i-cache
configuration) on its own — a solo single-stream pass, the "one-shot"
reference below — and must build no per-instruction array beyond the
shared window context, whichever streams it carries.
"""

import tracemalloc

import numpy as np
import pytest

from repro.cfg import BlockKind, Layout, ProgramBuilder
from repro.experiments.config import KB
from repro.experiments.harness import get_workload, layouts_for
from repro.profiling import BlockTrace, write_trace
from repro.profiling.trace import SEPARATOR
from repro.simulators import (
    CacheConfig,
    FetchStream,
    TraceCacheConfig,
    TraceCacheStream,
    expand_chunk,
    iter_chunk_contexts,
    miss_counter,
    run_fused,
)
from repro.simulators.fetch import FetchLengths
from repro.tpcd.workload import WorkloadSettings
from repro.validate import LineLog
from repro.validate.generators import random_layout, random_program, random_trace
from repro.validate.oracles import oracle_fetch, oracle_trace_cache

SETTINGS = WorkloadSettings(scale=0.0005)
CACHE_KBS = (4, 8, 16)


@pytest.fixture(scope="module")
def workload():
    return get_workload(SETTINGS)


@pytest.fixture(scope="module")
def layouts(workload):
    return layouts_for(workload, 8, 4, names=("orig", "P&H"))


def test_fused_fetch_matches_one_shot_per_layout_and_config(workload, layouts):
    counters = {
        (name, kb): miss_counter(CacheConfig(size_bytes=kb * KB))
        for name in layouts
        for kb in CACHE_KBS
    }
    streams = {
        name: FetchStream(
            layout.name, consumers=[counters[(name, kb)] for kb in CACHE_KBS]
        )
        for name, layout in layouts.items()
    }
    run_fused(
        workload.test_trace,
        workload.program,
        [(layout, streams[name]) for name, layout in layouts.items()],
    )
    for name, layout in layouts.items():
        ref_counters = [miss_counter(CacheConfig(size_bytes=kb * KB)) for kb in CACHE_KBS]
        ref = FetchStream(layout.name, consumers=ref_counters)
        run_fused(workload.test_trace, workload.program, [(layout, ref)])
        stream = streams[name]
        assert stream.n_instructions == ref.n_instructions
        assert stream.n_fetches == ref.n_fetches
        assert stream.n_taken == ref.n_taken
        for kb, expected in zip(CACHE_KBS, ref_counters):
            assert counters[(name, kb)].misses == expected.misses


def test_fused_trace_cache_matches_one_shot(workload, layouts):
    layout = layouts["orig"]
    counter = miss_counter(CacheConfig(size_bytes=8 * KB))
    tc_stream = TraceCacheStream(layout.name, consumers=[counter])
    # ride along with a fetch stream over the same layout object: the
    # shared expansion/lengths must not perturb either simulation
    fetch_stream = FetchStream(layout.name)
    run_fused(
        workload.test_trace,
        workload.program,
        [(layout, tc_stream), (layout, fetch_stream)],
    )
    expected = miss_counter(CacheConfig(size_bytes=8 * KB))
    ref = TraceCacheStream(layout.name, consumers=[expected])
    run_fused(workload.test_trace, workload.program, [(layout, ref)])
    assert tc_stream.n_instructions == ref.n_instructions
    assert tc_stream.n_hits == ref.n_hits
    assert tc_stream.n_misses == ref.n_misses
    assert tc_stream.n_cycles_base == ref.n_cycles_base
    assert counter.misses == expected.misses
    fetch_ref = FetchStream(layout.name)
    run_fused(workload.test_trace, workload.program, [(layout, fetch_ref)])
    assert fetch_stream.n_fetches == fetch_ref.n_fetches


def test_fused_empty_pairs_is_a_no_op(workload):
    run_fused(workload.test_trace, workload.program, [])


# -- no pass builds per-instruction arrays beyond the window context -------

SMALL_CHUNK = 64


@pytest.fixture
def small_case():
    """A generated program with a permuted and an original layout and a
    trace spanning eight 64-event windows."""
    rng = np.random.default_rng(4)
    program = random_program(rng)
    layouts = [random_layout(rng, program, name=f"l{i}") for i in range(2)]
    trace = random_trace(rng, program)
    return program, layouts, trace


#: Bytes per instruction a pass may allocate above what the window
#: context and its expansion reach. The fetch pass below needs about 2.9
#: (the orbit's visited mask, fetch starts and line pairs), the trace
#: cache about 0.9 more; one more int32 array per instruction (4 B)
#: exceeds the bound in either.
EXTRA_BYTES_PER_INSTRUCTION = 4


@pytest.fixture(scope="module")
def one_window():
    """One window of about 0.6 M instructions, from 32-47-instruction
    blocks under a shuffled layout, and the tracemalloc peak that
    expanding it alone reaches."""
    rng = np.random.default_rng(17)
    n_blocks = 256
    kinds = [BlockKind.FALL_THROUGH, BlockKind.BRANCH, BlockKind.CALL, BlockKind.RETURN]
    builder = ProgramBuilder()
    builder.add_procedure(
        "f",
        "executor",
        sizes=rng.integers(32, 48, size=n_blocks).tolist(),
        kinds=[kinds[k] for k in rng.integers(0, 4, size=n_blocks)],
    )
    program = builder.build()
    layout = Layout.from_order(program, rng.permutation(n_blocks), name="shuffled")
    # sequential bursts and random jumps over few blocks: the trace cache
    # sees hits as well as misses
    events = np.empty(15_000, dtype=np.int32)
    current = 0
    jumps = rng.integers(0, n_blocks, size=events.size).tolist()
    for i, roll in enumerate(rng.random(events.size).tolist()):
        current = current + 1 if roll < 0.5 and current + 1 < n_blocks else jumps[i]
        events[i] = current
    trace = BlockTrace(events)

    def expand():
        for ctx in iter_chunk_contexts(trace, program):
            expand_chunk(ctx, layout)

    contexts = list(iter_chunk_contexts(trace, program))
    assert len(contexts) == 1
    n = contexts[0].total
    assert 500_000 <= n <= 1_500_000
    del contexts
    return program, layout, trace, n, _peak_bytes(expand)


def _peak_bytes(run) -> int:
    """The tracemalloc peak reached while ``run()`` executes."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _one_window_streams(layout, *, trace_cache: bool) -> list:
    """Fetch streams at two line sizes, plus a trace cache. No consumers:
    the i-cache models' temporaries are per line access, not per
    instruction, and are not measured here. (The walk runs about 50x
    slower under tracemalloc, which sizes this case.)"""
    streams = [FetchStream(layout.name, line_bytes=line_bytes) for line_bytes in (32, 64)]
    if trace_cache:
        streams.append(TraceCacheStream(layout.name))
    return streams


def _pass_peak(one_window, *, trace_cache: bool) -> int:
    program, layout, trace, _, _ = one_window
    pairs = [(layout, s) for s in _one_window_streams(layout, trace_cache=trace_cache)]
    return _peak_bytes(lambda: run_fused(trace, program, pairs))


def _assert_fetch_matches_oracle(stream, trace, program, layout):
    """``stream``'s only consumer is a :class:`LineLog`."""
    ora = oracle_fetch(
        trace, program, layout, line_bytes=stream.line_bytes, chunk_events=SMALL_CHUNK
    )
    assert (stream.n_instructions, stream.n_fetches, stream.n_taken) == (
        ora.n_instructions, ora.n_fetches, ora.n_taken
    )
    assert stream.consumers[0].lines() == ora.lines


def test_fetch_only_pass_builds_no_instruction_arrays(small_case, one_window):
    *_, n, expand_peak = one_window
    extra = _pass_peak(one_window, trace_cache=False) - expand_peak
    assert extra <= EXTRA_BYTES_PER_INSTRUCTION * n, f"{extra / n:.2f} B/instruction"

    program, layouts, trace = small_case
    pairs = [
        (layout, FetchStream(layout.name, line_bytes=line_bytes, consumers=[LineLog()]))
        for layout in layouts
        for line_bytes in (16, 32)
    ]
    run_fused(trace, program, pairs, chunk_events=SMALL_CHUNK)
    for layout, stream in pairs:
        _assert_fetch_matches_oracle(stream, trace, program, layout)


def test_trace_cache_builds_no_instruction_arrays(small_case, one_window):
    *_, n, _ = one_window
    fetch_peak = _pass_peak(one_window, trace_cache=False)
    extra = _pass_peak(one_window, trace_cache=True) - fetch_peak
    assert extra <= EXTRA_BYTES_PER_INSTRUCTION * n, f"{extra / n:.2f} B/instruction"

    program, layouts, trace = small_case
    with_tc, fetch_only = layouts
    tc_configs = (TraceCacheConfig(n_entries=16), TraceCacheConfig(n_entries=64))
    tcs = [TraceCacheStream(with_tc.name, c, consumers=[LineLog()]) for c in tc_configs]
    fetches = [FetchStream(layout.name, consumers=[LineLog()]) for layout in layouts]
    pairs = [(with_tc, fetches[0]), *[(with_tc, tc) for tc in tcs], (fetch_only, fetches[1])]
    run_fused(trace, program, pairs, chunk_events=SMALL_CHUNK)
    assert sum(1 for _ in iter_chunk_contexts(trace, program, SMALL_CHUNK)) > 1
    for layout, stream in zip(layouts, fetches):
        _assert_fetch_matches_oracle(stream, trace, program, layout)
    for config, stream in zip(tc_configs, tcs):
        ora = oracle_trace_cache(trace, program, with_tc, config, chunk_events=SMALL_CHUNK)
        assert (stream.n_instructions, stream.n_hits, stream.n_misses, stream.n_taken) == (
            ora.n_instructions, ora.n_hits, ora.n_misses, ora.n_taken
        )
        assert stream.consumers[0].lines() == ora.miss_lines


# -- every window array at the width its values need -----------------------


def _array_bytes(obj) -> int:
    """Bytes held by the NumPy arrays among ``obj``'s fields."""
    return sum(v.nbytes for v in vars(obj).values() if isinstance(v, np.ndarray))


def test_window_arrays_hold_the_width_their_values_need(one_window):
    """Counted from array sizes, so free of allocator and timing noise: a
    context holds 14 B per event plus 4 B per instruction, a layout's
    expansion 10 B per event plus 4 B per taken event, and fetch starts
    and the line accesses fed to the counters take 4 B each."""
    program, layout, trace, _, _ = one_window
    (ctx,) = iter_chunk_contexts(trace, program)
    n_events = ctx.ids.shape[0]
    assert _array_bytes(ctx) <= 14 * n_events + 4 * ctx.total
    chunk = expand_chunk(ctx, layout)
    assert _array_bytes(chunk) <= 10 * n_events + 4 * chunk.n_taken
    lengths = FetchLengths(chunk, 32)
    assert lengths.starts().itemsize == 4
    fetch_log, tc_log = LineLog(), LineLog()
    for stream in (
        FetchStream(layout.name, consumers=[fetch_log]),
        TraceCacheStream(layout.name, consumers=[tc_log]),
    ):
        stream.feed(chunk, lengths)
    assert fetch_log.chunks[0].itemsize == tc_log.chunks[0].itemsize == 4


#: Bytes of Python objects (the generator frames, the store's file and
#: directory) a context generator may hold beyond its arrays: far below
#: one byte per event of the 100,000-event windows below.
GENERATOR_SLACK_BYTES = 32 * 1024


def test_context_generator_holds_no_window_temporaries(tmp_path):
    """After ``next()`` the generator holds only the yielded context and
    the two decoded chunks the stored trace's reader already holds for its
    peek: the window in hand and the next one."""
    rng = np.random.default_rng(5)
    program = random_program(rng)
    window = 100_000
    events = rng.integers(0, program.n_blocks, size=3 * window, dtype=np.int32)
    events[window // 2] = SEPARATOR
    store = write_trace(BlockTrace(events), tmp_path / "t.trace", window)
    tracemalloc.start()
    try:
        contexts = iter_chunk_contexts(store, program, window)
        before = tracemalloc.get_traced_memory()[0]
        ctx = next(contexts)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    two_chunks = 2 * events[:window].nbytes
    extra = held - _array_bytes(ctx) - two_chunks
    assert extra <= GENERATOR_SLACK_BYTES, f"{extra} bytes held beyond the context and chunks"
