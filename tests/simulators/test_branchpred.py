"""Bimodal prediction as a stream that ``run_fused`` feeds."""

import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfg import INSTR_BYTES, BlockKind, Layout, ProgramBuilder
from repro.experiments import prediction
from repro.profiling import SEPARATOR, BlockTrace
from repro.simulators import run_fused
from repro.simulators.branchpred import PredictionStream
from repro.validate.generators import random_case


def reference_prediction(trace, program, layout, max_events=None, n_entries=2048):
    """The whole-trace walk the stream replaced, kept as its reference:
    ``(branches, mispredicted, taken)`` over the first ``max_events``
    events and the transitions among them."""
    events = trace.events if max_events is None else trace.events[:max_events]
    valid = events != SEPARATOR
    ids = events[valid].astype(np.int64)
    if ids.size < 2:
        return 0, 0, 0
    sizes = program.block_size.astype(np.int64)
    addr = layout.address
    src, dst = ids[:-1], ids[1:]
    pos = np.flatnonzero(valid)
    adjacent = (pos[1:] - pos[:-1]) == 1  # no separator in between
    src, dst = src[adjacent], dst[adjacent]
    branchy = program.block_kind[src] == BlockKind.BRANCH
    src, dst = src[branchy], dst[branchy]
    taken = addr[dst] != addr[src] + sizes[src] * INSTR_BYTES
    branch_addr = addr[src] + (sizes[src] - 1) * INSTR_BYTES
    counters = [1] * n_entries
    mispredicted = 0
    for a, t in zip(branch_addr.tolist(), taken.tolist()):
        i = (a >> 2) & (n_entries - 1)
        c = counters[i]
        if (c >= 2) != t:
            mispredicted += 1
        if t:
            if c < 3:
                counters[i] = c + 1
        elif c > 0:
            counters[i] = c - 1
    return int(src.size), mispredicted, int(taken.sum())


def predict_one(trace, program, layout, *, max_events=None) -> PredictionStream:
    """The prediction experiment's pass over one layout."""
    [stream] = prediction.predict(trace, program, {layout.name: layout}, max_events=max_events)
    return stream


@pytest.fixture
def branch_world():
    """Block 0 is a branch. Under the original layout block 1 follows it
    (0 -> 1 is not taken) and block 2 does not (0 -> 2 is taken)."""
    b = ProgramBuilder()
    b.add_procedure(
        "g",
        "m",
        sizes=[1, 1, 1],
        kinds=[BlockKind.BRANCH, BlockKind.FALL_THROUGH, BlockKind.RETURN],
    )
    return b.build()


def run_directions(program, directions, n_entries) -> PredictionStream:
    """One branch's dynamic directions through a stream, over windows of
    five events so the counters cross window edges."""
    events = []
    for taken in directions:
        events += [0, 2 if taken else 1]
    stream = PredictionStream("orig", program, n_entries=n_entries)
    run_fused(BlockTrace(events), program, [(Layout.original(program), stream)], chunk_events=5)
    assert stream.n_branches == len(directions)
    assert stream.n_taken == sum(directions)
    return stream


def test_predictor_validation(branch_world):
    with pytest.raises(ValueError):
        PredictionStream("x", branch_world, n_entries=100)  # not a power of two


def test_counter_saturation(branch_world):
    # initialized weakly not-taken: a first not-taken branch is predicted,
    # a first taken one is not, and one taken outcome flips the prediction
    assert run_directions(branch_world, [False], 4).n_mispredicted == 0
    assert run_directions(branch_world, [True], 4).n_mispredicted == 1
    assert run_directions(branch_world, [True, True], 4).n_mispredicted == 1
    # hysteresis survives one not-taken: after it, taken is still predicted
    saturated = run_directions(branch_world, [True] * 6 + [False, True], 4)
    assert saturated.n_mispredicted == 2  # the first taken and the not-taken


def test_biased_branch_learned(branch_world):
    stream = run_directions(branch_world, [i % 10 != 0 for i in range(100)], 16)  # 90% taken
    assert stream.n_branches - stream.n_mispredicted >= 85


def test_alternating_branch_defeats_bimodal(branch_world):
    stream = run_directions(branch_world, [bool(i % 2) for i in range(100)], 16)
    assert stream.n_branches - stream.n_mispredicted <= 60


@pytest.fixture
def world():
    b = ProgramBuilder()
    b.add_procedure(
        "f",
        "m",
        sizes=[4, 4, 4],
        kinds=[BlockKind.BRANCH, BlockKind.BRANCH, BlockKind.RETURN],
    )
    return b.build()


def test_evaluate_sequential_layout_all_not_taken(world):
    layout = Layout.original(world)
    trace = BlockTrace([0, 1, 2] * 50)
    r = predict_one(trace, world, layout)
    # 0->1 and 1->2 are sequential: never taken, quickly learned
    assert r.taken_fraction == 0.0
    assert r.accuracy > 0.95


def test_evaluate_scattered_layout_all_taken(world):
    layout = Layout.from_placements(world, {0: 0, 1: 512, 2: 1024}, name="scatter")
    trace = BlockTrace([0, 1, 2] * 50)
    r = predict_one(trace, world, layout)
    assert r.taken_fraction == 1.0
    assert r.accuracy > 0.9  # always-taken is also easy


def test_separators_excluded(world):
    layout = Layout.original(world)
    trace = BlockTrace.concatenate([BlockTrace([0, 1]), BlockTrace([0, 1])])
    r = predict_one(trace, world, layout)
    assert r.n_branches == 2  # only the 0->1 transitions


def test_max_events_cap(world):
    layout = Layout.original(world)
    trace = BlockTrace([0, 1, 2] * 100)
    full = predict_one(trace, world, layout)
    capped = predict_one(trace, world, layout, max_events=30)
    assert capped.n_branches < full.n_branches


def test_empty_trace(world):
    r = predict_one(BlockTrace([]), world, Layout.original(world))
    assert r.n_branches == 0 and r.accuracy == 1.0


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_stream_matches_whole_trace_reference(seed):
    """Every window size and cap, including caps that end mid-window and
    windows that end at a separator, counts what the whole-trace walk
    counts."""
    case = random_case(seed)
    n = len(case.trace)
    for window in (1, 2, 3, 7, case.chunk_events, 10**9):
        fused = functools.partial(run_fused, chunk_events=window)
        with mock.patch.object(prediction, "run_fused", fused):
            for cap in (None, 0, 1, 2, 2 * window + 3, n // 2, n - 1, n, n + 5):
                stream = predict_one(case.trace, case.program, case.layout, max_events=cap)
                got = (stream.n_branches, stream.n_mispredicted, stream.n_taken)
                want = reference_prediction(case.trace, case.program, case.layout, cap)
                assert got == want, (seed, window, cap)
