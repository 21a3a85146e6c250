"""Property-based tests on the CFA mapping invariants."""

import numpy as np
from hypothesis import example, given, settings, target
from hypothesis import strategies as st

from repro.cfg import BlockKind, Layout, ProgramBuilder
from repro.core import CacheGeometry, map_sequences
from repro.core.mapping import _Allocator


def make_program(sizes):
    b = ProgramBuilder()
    kinds = [BlockKind.BRANCH] * (len(sizes) - 1) + [BlockKind.RETURN]
    b.add_procedure("f", "executor", sizes=sizes, kinds=kinds)
    return b.build()


@st.composite
def mapping_case(draw):
    n = draw(st.integers(min_value=3, max_value=40))
    sizes = draw(st.lists(st.integers(min_value=1, max_value=24), min_size=n, max_size=n))
    n_lines = draw(st.sampled_from([4, 8, 16]))
    cache = n_lines * 32
    cfa = draw(st.integers(min_value=0, max_value=n_lines - 1)) * 32
    # sequences: a random disjoint partition of a prefix of the blocks
    ids = list(range(n))
    draw(st.randoms(use_true_random=False)).shuffle(ids)
    k = draw(st.integers(min_value=0, max_value=n))
    chosen = ids[:k]
    sequences = []
    i = 0
    while i < len(chosen):
        step = draw(st.integers(min_value=1, max_value=4))
        sequences.append(chosen[i : i + step])
        i += step
    return sizes, cache, cfa, sequences


@given(mapping_case())
@settings(max_examples=120, deadline=None)
def test_mapping_invariants(case):
    sizes, cache, cfa, sequences = case
    program = make_program(sizes)
    geometry = CacheGeometry(cache_bytes=cache, cfa_bytes=cfa)
    layout = map_sequences(program, sequences, geometry, name="t")

    # 1. every block placed exactly once, no overlaps
    layout.validate(program)
    assert (layout.address >= 0).all()

    # 2. sequence blocks that landed outside the CFA never invade the
    #    reserved window of later logical caches
    seq_blocks = [b for seq in sequences for b in seq]
    in_cfa = {b for b in seq_blocks if layout.address[b] + 1 <= cfa and layout.address[b] < cfa}
    for b in seq_blocks:
        addr = int(layout.address[b])
        size = int(program.block_size[b]) * 4
        if addr >= cache and cfa and size <= cache - cfa:
            # fully inside some later logical cache: must avoid the window
            start_off = addr % cache
            assert start_off >= cfa or addr < cache

    # 3. total occupancy is at least the program size (gaps allowed)
    assert layout.extent_bytes(program) >= program.image_bytes


@given(mapping_case())
@settings(max_examples=60, deadline=None)
def test_cfa_budget_never_exceeded(case):
    sizes, cache, cfa, sequences = case
    program = make_program(sizes)
    geometry = CacheGeometry(cache_bytes=cache, cfa_bytes=cfa)
    layout = map_sequences(program, sequences, geometry, name="t")
    seq_blocks = {b for seq in sequences for b in seq}
    used = sum(
        int(program.block_size[b]) * 4
        for b in seq_blocks
        if int(layout.address[b]) < cfa
    )
    assert used <= cfa


def reference_map_sequences(program, sequences, geometry, *, name, cfa_sequences=None, cfa_blocks=None):
    """``map_sequences`` as it was with a placement dict and one allocator
    call per cold block: the reference for the cumulative-sum cold fill."""
    sizes = program.block_size.astype(np.int64) * 4
    placed = {}
    alloc = _Allocator(geometry)
    in_cfa = set()
    if cfa_blocks is not None:
        budget = geometry.cfa_bytes
        for block in cfa_blocks:
            if sizes[block] <= budget:
                placed[block] = alloc.place(int(sizes[block]))
                budget -= int(sizes[block])
                in_cfa.add(block)
    else:
        if cfa_sequences is not None:
            candidates, overflow = cfa_sequences, []
        elif geometry.cfa_bytes:
            candidates, overflow = sequences, None
        else:
            candidates, overflow = [], None
        budget = geometry.cfa_bytes
        for seq in candidates:
            seq_size = int(sizes[list(seq)].sum())
            if seq_size <= budget:
                for block in seq:
                    placed[block] = alloc.place(int(sizes[block]))
                    in_cfa.add(block)
                budget -= seq_size
            elif overflow is not None:
                overflow.append(seq)
        if cfa_sequences is not None:
            sequences = overflow + sequences
    if alloc.cursor < geometry.cfa_bytes:
        alloc.cursor = geometry.cfa_bytes
    for seq in sequences:
        rest = [b for b in seq if b not in in_cfa]
        if not rest:
            continue
        seq_size = int(sizes[rest].sum())
        if seq_size <= geometry.cache_bytes - geometry.cfa_bytes or not alloc.protecting:
            start = alloc.place(seq_size)
            for block in rest:
                placed[block] = start
                start += int(sizes[block])
        else:
            for block in rest:
                placed[block] = alloc.place(int(sizes[block]))
    alloc.protecting = False
    gaps = alloc.gaps
    gap_idx = 0
    gap_pos = gaps[0][0] if gaps else None
    for block in range(program.n_blocks):
        if block in placed:
            continue
        size = int(sizes[block])
        addr = None
        while gap_idx < len(gaps):
            g_start, g_end = gaps[gap_idx]
            pos = max(gap_pos if gap_pos is not None else g_start, g_start)
            if pos + size <= g_end:
                addr = pos
                gap_pos = pos + size
                break
            gap_idx += 1
            gap_pos = gaps[gap_idx][0] if gap_idx < len(gaps) else None
        if addr is None:
            addr = alloc.place(size)
        placed[block] = addr
    return Layout.from_placements(program, placed, name=name), gaps


@st.composite
def gapped_case(draw):
    """A CFA > 0 and sequence code spanning several logical caches, with
    sequences longer than a logical cache's free area and blocks larger
    than it, so the protected windows leave gaps for cold code."""
    n_lines = draw(st.sampled_from([4, 8, 16]))
    cache = n_lines * 32
    cfa = draw(st.integers(min_value=1, max_value=n_lines - 1)) * 32
    free_instrs = (cache - cfa) // 4
    n = draw(st.integers(min_value=8, max_value=80))
    sizes = draw(
        st.lists(
            st.one_of(
                st.integers(min_value=1, max_value=12),
                st.integers(min_value=free_instrs + 1, max_value=free_instrs + 8),
            ),
            min_size=n,
            max_size=n,
        )
    )
    ids = list(range(n))
    draw(st.randoms(use_true_random=False)).shuffle(ids)
    chosen = ids[: draw(st.integers(min_value=n // 2, max_value=n))]
    sequences = []
    i = 0
    while i < len(chosen):
        step = draw(st.integers(min_value=1, max_value=12))
        sequences.append(chosen[i : i + step])
        i += step
    policy = draw(st.sampled_from(["whole", "cfa_sequences", "cfa_blocks"]))
    return sizes, cache, cfa, sequences, policy


@example(  # long sequence of small blocks through three windows, then cold blocks
    ([2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 30, 1, 3, 5, 2, 1], 128, 64, [list(range(12)), [12]], "whole"),
)
@given(gapped_case())
@settings(max_examples=150, deadline=None)
def test_cold_fill_matches_reference(case):
    sizes, cache, cfa, sequences, policy = case
    program = make_program(sizes)
    geometry = CacheGeometry(cache_bytes=cache, cfa_bytes=cfa)
    kwargs = {}
    if policy == "cfa_sequences":
        kwargs["cfa_sequences"], sequences = sequences[::2], sequences[1::2]
    elif policy == "cfa_blocks":
        kwargs["cfa_blocks"] = [b for seq in sequences[::3] for b in seq]
    expected, gaps = reference_map_sequences(program, sequences, geometry, name="t", **kwargs)
    target(float(len(gaps)), label="gaps")
    layout = map_sequences(program, sequences, geometry, name="t", **kwargs)
    np.testing.assert_array_equal(layout.address, expected.address)
