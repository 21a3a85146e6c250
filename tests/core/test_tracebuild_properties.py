"""Property: the multi-pass sequence builder's frontier walk, which reads a
per-call table of successors and their static validity, builds the same
sequences as the walk that re-derived both from the profile at every
block."""

from collections import deque

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfg import WeightedCFG
from repro.core import TraceParams, build_sequences


def reference_build_sequences(cfg, seeds, params, visited, *, explore_from_visited=False):
    """``build_sequences`` with the frontier walk that queries the profile
    for every block it walks: the reference for the table walk."""
    sequences = []
    for seed in seeds:
        seed = int(seed)
        pending = deque()
        if seed in visited:
            if explore_from_visited:
                _reference_note_frontier(cfg, seed, params, visited, pending)
            else:
                continue
        elif cfg.block_count[seed] < params.exec_threshold:
            continue
        else:
            pending.append(seed)
        while pending:
            start = pending.popleft()
            if start in visited:
                continue
            sequence = _reference_grow(cfg, start, params, visited, pending)
            if sequence:
                sequences.append(sequence)
    return sequences


def _reference_note_frontier(cfg, seed, params, visited, pending):
    frontier = [seed]
    walked = {seed}
    while frontier:
        block = frontier.pop()
        out_weight = cfg.out_weight(block)
        if out_weight == 0:
            continue
        for succ, count in cfg.successors(block):
            if succ in visited:
                if succ not in walked:
                    walked.add(succ)
                    frontier.append(succ)
                continue
            if (
                cfg.block_count[succ] >= params.exec_threshold
                and count / out_weight >= params.branch_threshold
            ):
                pending.append(succ)


def _reference_grow(cfg, start, params, visited, pending):
    sequence = [start]
    visited.add(start)
    current = start
    while True:
        successors = cfg.successors(current)
        out_weight = cfg.out_weight(current)
        if out_weight == 0:
            break
        chosen = None
        for succ, count in successors:
            if succ in visited:
                continue
            if cfg.block_count[succ] < params.exec_threshold:
                continue
            if count / out_weight < params.branch_threshold:
                continue
            if chosen is None:
                chosen = succ
            else:
                pending.append(succ)
        if chosen is None:
            break
        sequence.append(chosen)
        visited.add(chosen)
        current = chosen
    return sequence


@st.composite
def two_pass_case(draw):
    """A weighted CFG, blocks already placed (some at random, the rest by a
    tight first pass) and a relaxed second pass whose seeds include placed
    blocks, so its frontier walks branch through placed code."""
    n = draw(st.integers(min_value=2, max_value=40))
    block = st.integers(min_value=0, max_value=n - 1)
    edges = draw(
        st.lists(st.tuples(block, block, st.integers(min_value=1, max_value=50)), min_size=n, max_size=6 * n)
    )
    counts = None
    if draw(st.booleans()):
        counts = np.array(draw(st.lists(st.integers(0, 60), min_size=n, max_size=n)), dtype=np.int64)
    cfg = WeightedCFG.from_edges(n, edges, block_count=counts)
    placed = {b for b, p in enumerate(draw(st.lists(st.booleans(), min_size=n, max_size=n))) if p}
    seeds1 = draw(st.lists(block, max_size=n))
    tight = TraceParams(
        exec_threshold=draw(st.integers(1, 40)),
        branch_threshold=draw(st.sampled_from([0.3, 0.4, 0.5, 0.7])),
    )
    seeds2 = draw(st.permutations(range(n)))
    relaxed = TraceParams(
        exec_threshold=draw(st.integers(0, 10)),
        branch_threshold=draw(st.sampled_from([0.0, 0.05, 0.1, 0.25])),
    )
    return cfg, placed, seeds1, tight, seeds2, relaxed


@given(two_pass_case())
@settings(max_examples=200, deadline=None)
def test_frontier_table_walk_matches_reference(case):
    cfg, placed, seeds1, tight, seeds2, relaxed = case
    visited = set(placed)
    first = reference_build_sequences(cfg, seeds1, tight, visited)
    assert build_sequences(cfg, seeds1, tight, set(placed)) == first
    expected_visited = set(visited)
    expected = reference_build_sequences(cfg, seeds2, relaxed, expected_visited, explore_from_visited=True)
    got = build_sequences(cfg, seeds2, relaxed, visited, explore_from_visited=True)
    assert got == expected
    assert visited == expected_visited
