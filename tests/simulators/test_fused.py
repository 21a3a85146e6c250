"""Fused multi-configuration driver vs one stream at a time.

One `run_fused` pass carrying many streams must be bit-identical to
running each fetch / trace-cache simulation (and each i-cache
configuration) on its own — a solo single-stream pass, the "one-shot"
reference below — and must build per-instruction arrays only for layouts
that carry a trace-cache stream.
"""

import numpy as np
import pytest

from repro.experiments.config import KB
from repro.experiments.harness import get_workload, layouts_for
from repro.simulators import (
    CacheConfig,
    FetchStream,
    TraceCacheConfig,
    TraceCacheStream,
    iter_chunk_contexts,
    miss_counter,
    run_fused,
)
from repro.simulators import fetch as fetch_mod
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


# -- per-instruction arrays are built only for trace-cache layouts ---------

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


@pytest.fixture
def builds(monkeypatch):
    """Counts calls of the lazy per-instruction builders."""
    calls = {"addr": 0, "lengths": 0}
    real_addr = fetch_mod._instruction_addr
    real_lengths = fetch_mod._instruction_lengths

    def addr(chunk):
        calls["addr"] += 1
        return real_addr(chunk)

    def lengths(chunk, line_bytes):
        calls["lengths"] += 1
        return real_lengths(chunk, line_bytes)

    monkeypatch.setattr(fetch_mod, "_instruction_addr", addr)
    monkeypatch.setattr(fetch_mod, "_instruction_lengths", lengths)
    return calls


def _assert_fetch_matches_oracle(stream, trace, program, layout):
    """``stream``'s only consumer is a :class:`LineLog`."""
    ora = oracle_fetch(
        trace, program, layout, line_bytes=stream.line_bytes, chunk_events=SMALL_CHUNK
    )
    assert (stream.n_instructions, stream.n_fetches, stream.n_taken) == (
        ora.n_instructions, ora.n_fetches, ora.n_taken
    )
    assert stream.consumers[0].lines() == ora.lines


def test_fetch_only_pass_builds_no_instruction_arrays(small_case, builds):
    program, layouts, trace = small_case
    pairs = [
        (layout, FetchStream(layout.name, line_bytes=line_bytes, consumers=[LineLog()]))
        for layout in layouts
        for line_bytes in (16, 32)
    ]
    run_fused(trace, program, pairs, chunk_events=SMALL_CHUNK)
    assert builds == {"addr": 0, "lengths": 0}
    for layout, stream in pairs:
        _assert_fetch_matches_oracle(stream, trace, program, layout)


def test_trace_cache_builds_instruction_arrays_once_per_layout_window(small_case, builds):
    program, layouts, trace = small_case
    with_tc, fetch_only = layouts
    tc_configs = (TraceCacheConfig(n_entries=16), TraceCacheConfig(n_entries=64))
    tcs = [TraceCacheStream(with_tc.name, c, consumers=[LineLog()]) for c in tc_configs]
    fetches = [FetchStream(layout.name, consumers=[LineLog()]) for layout in layouts]
    pairs = [(with_tc, fetches[0]), *[(with_tc, tc) for tc in tcs], (fetch_only, fetches[1])]
    run_fused(trace, program, pairs, chunk_events=SMALL_CHUNK)
    windows = sum(1 for _ in iter_chunk_contexts(trace, program, SMALL_CHUNK))
    assert windows > 1
    assert builds == {"addr": windows, "lengths": windows}
    for layout, stream in zip(layouts, fetches):
        _assert_fetch_matches_oracle(stream, trace, program, layout)
    for config, stream in zip(tc_configs, tcs):
        ora = oracle_trace_cache(trace, program, with_tc, config, chunk_events=SMALL_CHUNK)
        assert (stream.n_instructions, stream.n_hits, stream.n_misses, stream.n_taken) == (
            ora.n_instructions, ora.n_hits, ora.n_misses, ora.n_taken
        )
        assert stream.consumers[0].lines() == ora.miss_lines
