"""Equivalence properties for the vectorized simulator hot paths.

Each vectorized implementation must match a reference exactly: the
lockstep SEQ.3 orbit against the loop-literal oracle
(:func:`repro.validate.oracles.oracle_fetch`), and the batched/chunked
cache models against the stateful scalar models (the victim cache against
:func:`repro.validate.oracles.oracle_victim`).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfg import INSTR_BYTES, BlockKind, Layout, ProgramBuilder
from repro.profiling import BlockTrace
from repro.simulators import CacheConfig, count_misses
from repro.simulators.fetch import (
    _ORBIT_SCALAR_CUTOFF_ROUNDS,
    _fetch_starts,
    expand_chunk,
    iter_chunk_contexts,
)
from repro.validate.generators import random_case
from repro.validate.oracles import oracle_fetch, oracle_victim

LINE_SIZES = (16, 32, 64)


def _orbit_first_lines(trace, program, layout, line_bytes, chunk_events):
    """First cache line of every fetch the production orbit starts."""
    lines = []
    for ctx in iter_chunk_contexts(trace, program, chunk_events):
        chunk = expand_chunk(ctx, layout)
        starts = _fetch_starts(chunk, line_bytes)
        addr = chunk.ev_base[ctx.rep_idx[starts]] + INSTR_BYTES * starts
        lines += (addr // line_bytes).tolist()
    return lines


def _assert_orbit_matches_oracle(trace, program, layout, line_bytes, chunk_events):
    ora = oracle_fetch(
        trace, program, layout, line_bytes=line_bytes, chunk_events=chunk_events
    )
    lines = _orbit_first_lines(trace, program, layout, line_bytes, chunk_events)
    assert len(lines) == ora.n_fetches
    assert lines == ora.lines[0::2]


@given(st.integers(0, 2**32 - 1), st.sampled_from(LINE_SIZES))
@settings(max_examples=60, deadline=None)
def test_orbit_matches_oracle_fetch(seed, line_bytes):
    case = random_case(seed)
    _assert_orbit_matches_oracle(
        case.trace, case.program, case.layout, line_bytes, case.chunk_events
    )


def _straight_program(sizes, kinds):
    b = ProgramBuilder()
    b.add_procedure("f", "executor", sizes=sizes, kinds=kinds)
    return b.build()


def test_orbit_scalar_cutoff_path():
    # one taken-branch-free segment of single-instruction not-taken
    # branches: three per fetch, far more fetches than the lockstep
    # cutoff, so the stragglers must be finished by the scalar fallback
    n = 6 * _ORBIT_SCALAR_CUTOFF_ROUNDS
    program = _straight_program([1] * n, [BlockKind.BRANCH] * (n - 1) + [BlockKind.RETURN])
    trace = BlockTrace(np.arange(n, dtype=np.int32))
    for line_bytes in LINE_SIZES:
        _assert_orbit_matches_oracle(
            trace, program, Layout.original(program), line_bytes, 2_000_000
        )


def test_orbit_edge_cases():
    program = _straight_program(
        [2, 1, 5], [BlockKind.FALL_THROUGH, BlockKind.BRANCH, BlockKind.RETURN]
    )
    gap = Layout.from_placements(program, {0: 0, 1: 8, 2: 100}, name="gap")
    for layout in (Layout.original(program), gap):
        for line_bytes in LINE_SIZES:
            # every window ends on a taken branch (end of trace or a
            # jump), which leaves an empty trailing segment
            _assert_orbit_matches_oracle(
                BlockTrace([0, 1, 2, 0, 2]), program, layout, line_bytes, 3
            )
            # one-event windows
            _assert_orbit_matches_oracle(
                BlockTrace([0, 1, 2]), program, layout, line_bytes, 1
            )


@given(
    st.lists(st.integers(0, 63), min_size=1, max_size=300),
    st.integers(2, 4),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_chunked_streams_match_whole_stream(lines, n_sets_log, seed):
    """Splitting the access stream into chunks must not change any count:
    the chunked models carry per-set state across chunk boundaries."""
    lines = np.asarray(lines, dtype=np.int64)
    n_sets = 1 << n_sets_log
    rng = np.random.default_rng(seed)
    cuts = np.sort(rng.integers(0, lines.size + 1, size=rng.integers(0, 6)))
    chunks = [c for c in np.split(lines, cuts)]
    configs = [
        CacheConfig(size_bytes=n_sets * 32),
        CacheConfig(size_bytes=2 * n_sets * 32, associativity=2),
        CacheConfig(size_bytes=n_sets * 32, victim_lines=4),
    ]
    for config in configs:
        assert count_misses(chunks, config) == count_misses(lines, config)


@given(st.lists(st.integers(0, 31), min_size=1, max_size=250), st.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_batched_victim_matches_scalar_reference(lines, victim_lines):
    config = CacheConfig(size_bytes=8 * 32, victim_lines=victim_lines)
    assert count_misses(np.asarray(lines, dtype=np.int64), config) == oracle_victim(lines, config)
