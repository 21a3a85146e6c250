import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfg import INSTR_BYTES, BlockKind, Layout, ProgramBuilder
from repro.profiling import BlockTrace
from repro.simulators import FetchStream, run_fused
from repro.simulators import fetch as fetch_mod
from repro.simulators.fetch import expand_chunk, iter_chunk_contexts
from repro.validate import LineLog
from repro.validate.generators import random_case
from repro.validate.oracles import oracle_fetch


def straight_program(sizes, kinds):
    b = ProgramBuilder()
    b.add_procedure("f", "executor", sizes=sizes, kinds=kinds)
    return b.build()


def simulate(trace, program, layout, **kwargs) -> FetchStream:
    """One fused pass of a fetch stream whose only consumer logs its lines."""
    stream = FetchStream(layout.name, consumers=[LineLog()])
    run_fused(trace, program, [(layout, stream)], **kwargs)
    return stream


def test_single_block_one_fetch():
    p = straight_program([8], [BlockKind.RETURN])
    layout = Layout.original(p)
    r = simulate(BlockTrace([0]), p, layout)
    # 8 instructions, line-aligned: one 16-wide fetch would cover them, but
    # the return is a taken branch ending the (only) fetch
    assert r.n_instructions == 8
    assert r.n_fetches == 1
    assert r.n_taken == 1


def test_sequential_blocks_fetch_together():
    # two fall-through blocks of 4 = 8 sequential instructions -> 1 fetch
    p = straight_program([4, 4], [BlockKind.FALL_THROUGH, BlockKind.RETURN])
    layout = Layout.original(p)
    r = simulate(BlockTrace([0, 1]), p, layout)
    assert r.n_fetches == 1
    assert r.n_taken == 1  # only the final return


def test_taken_branch_splits_fetches():
    # block 1 placed away from block 0 -> the transition is taken
    p = straight_program([4, 4], [BlockKind.BRANCH, BlockKind.RETURN])
    layout = Layout.from_placements(p, {0: 0, 1: 256}, name="gap")
    r = simulate(BlockTrace([0, 1]), p, layout)
    assert r.n_fetches == 2
    assert r.n_taken == 2


def test_fall_through_moved_away_counts_as_taken():
    p = straight_program([4, 4], [BlockKind.FALL_THROUGH, BlockKind.RETURN])
    layout = Layout.from_placements(p, {0: 0, 1: 256}, name="gap")
    r = simulate(BlockTrace([0, 1]), p, layout)
    # the layout broke the fall-through: an implicit jump is taken
    assert r.n_taken == 2
    assert r.n_fetches == 2


def test_width_limit():
    # 20 sequential instructions, no branches until the end: the 16-wide
    # unit needs 2 fetches
    p = straight_program([20], [BlockKind.RETURN])
    layout = Layout.original(p)
    r = simulate(BlockTrace([0]), p, layout)
    assert r.n_fetches == 2


def test_three_branch_limit():
    # four not-taken branch blocks of 2 instructions, all sequential:
    # the fourth branch cannot enter the same fetch
    kinds = [BlockKind.BRANCH] * 4 + [BlockKind.RETURN]
    p = straight_program([2, 2, 2, 2, 4], kinds)
    layout = Layout.original(p)
    r = simulate(BlockTrace([0, 1, 2, 3, 4]), p, layout)
    # fetch 1: blocks 0,1,2 (3 branches); fetch 2: block 3 + return
    assert r.n_fetches == 2


def test_line_pair_limit():
    # start mid-line: a fetch from offset 4 instructions into a line can
    # supply at most 12 instructions (2 lines of 8, minus the 4 skipped)
    p = straight_program([4, 14], [BlockKind.BRANCH, BlockKind.RETURN])
    layout = Layout.from_placements(p, {0: 256, 1: 16}, name="midline")
    # trace: block 1 alone, starting at byte 16 = instruction 4 of line 0
    r = simulate(BlockTrace([1]), p, layout)
    # 14 instructions from a mid-line start: 12 then 2
    assert r.n_fetches == 2


def test_line_accesses_two_per_fetch():
    p = straight_program([8], [BlockKind.RETURN])
    layout = Layout.original(p)
    r = simulate(BlockTrace([0]), p, layout)
    lines = np.concatenate(r.consumers[0].chunks)
    np.testing.assert_array_equal(lines, [0, 1])


def test_separator_breaks_sequence():
    p = straight_program([4, 4], [BlockKind.FALL_THROUGH, BlockKind.RETURN])
    layout = Layout.original(p)
    trace = BlockTrace.concatenate([BlockTrace([0]), BlockTrace([1])])
    r = simulate(trace, p, layout)
    # without the separator this would be one fetch
    assert r.n_fetches == 2
    assert r.n_taken == 2


@pytest.mark.parametrize("chunk_events", [1, 2, 3])
def test_separator_ending_a_window_ends_the_run(chunk_events):
    # at chunk_events=2 the first window is [0, SEPARATOR]: block 0 must
    # not fall through into block 1 of the next run
    p = straight_program([4, 4, 4], [BlockKind.FALL_THROUGH] * 3)
    trace = BlockTrace.concatenate([BlockTrace([0]), BlockTrace([1])])
    r = simulate(trace, p, Layout.original(p), chunk_events=chunk_events)
    assert r.n_taken == 2
    assert r.n_instructions == 8


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_instruction_and_taken_counts_do_not_depend_on_the_window(seed):
    case = random_case(seed)
    counts = set()
    for chunk_events in (1, 2, 3, case.chunk_events, 10**9):
        r = simulate(case.trace, case.program, case.layout, chunk_events=chunk_events)
        counts.add((r.n_instructions, r.n_taken))
    assert len(counts) == 1, counts


def test_chunking_preserves_results():
    rng = np.random.default_rng(0)
    sizes = rng.integers(1, 9, size=64).tolist()
    kinds = [BlockKind.BRANCH if rng.random() < 0.5 else BlockKind.FALL_THROUGH for _ in range(63)]
    kinds.append(BlockKind.RETURN)
    p = straight_program(sizes, kinds)
    layout = Layout.original(p)
    events = rng.integers(0, 64, size=5000).astype(np.int32)
    trace = BlockTrace(events)
    whole = simulate(trace, p, layout, chunk_events=10**9)
    chunked = simulate(trace, p, layout, chunk_events=333)
    assert whole.n_instructions == chunked.n_instructions
    assert whole.n_taken == chunked.n_taken
    # chunk boundaries may split at most one fetch each
    assert abs(whole.n_fetches - chunked.n_fetches) <= 5000 // 333 + 1
    assert whole.ideal_ipc == pytest.approx(chunked.ideal_ipc, rel=0.01)


def test_instruction_chunks_addresses():
    p = straight_program([2, 3], [BlockKind.FALL_THROUGH, BlockKind.RETURN])
    layout = Layout.original(p)
    contexts = list(iter_chunk_contexts(BlockTrace([0, 1]), p))
    assert len(contexts) == 1
    chunk = expand_chunk(contexts[0], layout)
    position = np.arange(contexts[0].total)
    addr = chunk.ev_base[contexts[0].rep_idx] + INSTR_BYTES * position
    np.testing.assert_array_equal(addr, [0, 4, 8, 12, 16])
    # only the final event ends in a taken branch; a fetch from either
    # event may run to the window's last instruction
    np.testing.assert_array_equal(chunk.taken_ev, [0, 1])
    np.testing.assert_array_equal(chunk.stop, [4, 4])


def test_ideal_ipc_and_run_length():
    p = straight_program([8, 8], [BlockKind.FALL_THROUGH, BlockKind.RETURN])
    layout = Layout.original(p)
    r = simulate(BlockTrace([0, 1]), p, layout)
    assert r.ideal_ipc == pytest.approx(16.0)
    assert r.instructions_between_taken == pytest.approx(16.0)


# -- int32 window arrays: values that do not fit raise, never wrap --------

INT32_TOP = 2**31


@pytest.mark.parametrize("start", [INT32_TOP - 12, INT32_TOP])
def test_layout_block_past_int32_raises(start):
    """A gapped layout whose four-instruction block 1 ends past 2**31
    bytes (or starts there) would wrap in the int32 window arrays."""
    p = straight_program([4, 4], [BlockKind.BRANCH, BlockKind.RETURN])
    layout = Layout.from_placements(p, {0: 0, 1: start}, name="high")
    with pytest.raises(ValueError, match="int32"):
        simulate(BlockTrace([0, 1]), p, layout)


def test_layout_block_ending_at_int32_limit_is_exact():
    """A block whose last instruction sits at the last int32 word still
    fits, and its fetches and lines equal the oracle's."""
    p = straight_program([4, 4, 4], [BlockKind.BRANCH, BlockKind.BRANCH, BlockKind.RETURN])
    placements = {0: 0, 1: INT32_TOP - 16 - 64, 2: INT32_TOP - 16}
    layout = Layout.from_placements(p, placements, name="high")
    trace = BlockTrace([0, 1, 2, 0, 2])
    r = simulate(trace, p, layout)
    ora = oracle_fetch(trace, p, layout)
    assert (r.n_instructions, r.n_fetches, r.n_taken) == (
        ora.n_instructions, ora.n_fetches, ora.n_taken
    )
    assert r.consumers[0].lines() == ora.lines
    assert max(ora.lines) == (INT32_TOP - 16) // 32 + 1


def test_window_over_the_instruction_limit_raises(monkeypatch):
    """A window's byte offsets must fit int32. With the limit patched down
    to 12 instructions, a 12-instruction window passes and a
    13-instruction one raises; smaller windows over the same trace pass."""
    monkeypatch.setattr(fetch_mod, "_MAX_WINDOW_INSTRUCTIONS", 12)
    p = straight_program(
        [4, 4, 5], [BlockKind.FALL_THROUGH, BlockKind.FALL_THROUGH, BlockKind.RETURN]
    )
    layout = Layout.original(p)
    assert simulate(BlockTrace([0, 1, 0]), p, layout).n_instructions == 12
    with pytest.raises(ValueError, match="instructions"):
        simulate(BlockTrace([0, 1, 2]), p, layout)
    assert simulate(BlockTrace([0, 1, 2]), p, layout, chunk_events=2).n_instructions == 13
