"""Sharded chunk-parallel driver vs one fused pass.

Three layers of evidence that ``run_sharded`` is bit-identical to
``run_fused``:

* a hand-built **boundary corpus** where carried state demonstrably
  straddles a shard boundary — an i-cache set run, a victim-buffer
  resident, a trace-cache entry built before the boundary and hit after
  it. Each case also checks that naively summing independent cold
  per-shard runs gives the *wrong* answer, so the corpus genuinely
  exercises the reconciliation pass rather than passing vacuously;
* a Hypothesis **property**: random programs/layouts/traces and any shard
  count (including the degenerate 1 and more-shards-than-windows) agree
  with the fused pass on every counter and every piece of carried state;
* **fault-tolerance** at shard granularity: checkpoint/resume recomputes
  only missing shard jobs, transient failures retry, a dead worker pool
  degrades to in-process execution — all without perturbing results —
  and a pool that stalls raises a timeout naming the hung job.
"""

import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfg.blocks import BlockKind
from repro.cfg.layout import Layout
from repro.cfg.program import ProgramBuilder
from repro.profiling.trace import BlockTrace
from repro.simulators import (
    CacheConfig,
    FetchStream,
    ShardError,
    ShardPlan,
    ShardTimeoutError,
    TraceCacheConfig,
    TraceCacheStream,
    miss_counter,
    plan_shards,
    run_fused,
    run_sharded,
)
from repro.simulators import sharded as sharded_mod
from repro.validate.generators import random_case

# -- helpers -------------------------------------------------------------


def _program(n_blocks=8, size=8, kind=BlockKind.BRANCH):
    builder = ProgramBuilder()
    builder.add_procedure(
        "p", "corpus", [size] * n_blocks, [int(kind)] * n_blocks
    )
    return builder.build()


def _snapshot(pairs):
    """Every observable: counters and carried state of each stream."""
    out = []
    for _, stream in pairs:
        entry = {"counters": [c.state_dict() for c in stream.consumers]}
        if isinstance(stream, FetchStream):
            entry["sig"] = (stream.n_instructions, stream.n_fetches, stream.n_taken)
        else:
            entry["sig"] = (
                stream.n_instructions, stream.n_hits, stream.n_misses, stream.n_taken
            )
            entry["state"] = stream.state_dict()
        out.append(entry)
    return out


def _eq(a, b):
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_eq(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return a.shape == b.shape and bool((a == b).all())
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_eq(x, y) for x, y in zip(a, b))
    return a == b


def _run_both(trace, program, make_pairs, *, chunk_events, shards, jobs=1, **kwargs):
    fused = make_pairs()
    run_fused(trace, program, fused, chunk_events=chunk_events)
    shard = make_pairs()
    report = run_sharded(
        trace, program, shard,
        chunk_events=chunk_events, shards=shards, jobs=jobs, **kwargs,
    )
    return _snapshot(fused), _snapshot(shard), shard, report


def _ran_family(report) -> bool:
    """At least one family job ran, so the journal stitch was exercised."""
    return any(key[0] == "family" for key in report.computed + report.checkpointed)


def _stitched_stream(case):
    """A fetch stream with only the direct-mapped counter, the shape of the
    suite's P&H and row streams: ``run_sharded`` journal-stitches it."""
    return FetchStream(
        case.layout.name,
        line_bytes=case.cache_configs[0].line_bytes,
        consumers=[miss_counter(case.cache_configs[0])],
    )


def _naive_cold_sum(trace, program, make_pairs, *, chunk_events, bounds):
    """The WRONG stitch: independent cold runs per shard, counters summed.

    Used to prove a corpus case really carries state across the boundary
    (the naive answer must differ from the fused one).
    """
    totals = None
    for start, stop in zip(bounds, bounds[1:]):
        pairs = make_pairs()
        run_fused(
            trace, program, pairs,
            chunk_events=chunk_events, start_event=start, stop_event=stop,
        )
        per = [
            [c.misses for c in stream.consumers]
            + ([stream.n_hits] if isinstance(stream, TraceCacheStream) else [])
            for _, stream in pairs
        ]
        if totals is None:
            totals = per
        else:
            totals = [
                [a + b for a, b in zip(ta, pa)] for ta, pa in zip(totals, per)
            ]
    return totals


# -- boundary regression corpus ------------------------------------------
#
# Blocks are 8 instructions = 32 bytes = exactly one 32-byte line under
# the original layout, so block i lives on line i. chunk_events=4 with 8
# events puts the shard boundary exactly between events 3 and 4.

CHUNK = 4
BOUNDS = (0, 4, 8)


def test_icache_set_run_straddles_boundary():
    """A direct-mapped and a 2-way set touched on both sides of the
    boundary: the post-boundary re-access must hit, and a conflicting
    access must still miss. The direct-mapped stream is journal-stitched,
    the 2-way stream relays whole."""
    program = _program()
    layout = Layout.original(program)
    # block 0 warm across the boundary; block 4 conflicts with it (4 sets)
    trace = BlockTrace(np.asarray([0, 1, 2, 3, 0, 4, 0, 1], dtype=np.int32))

    def make_pairs():
        dm = miss_counter(CacheConfig(size_bytes=128, line_bytes=32))
        lru = miss_counter(CacheConfig(size_bytes=256, line_bytes=32, associativity=2))
        return [
            (layout, FetchStream(layout.name, consumers=[dm])),
            (layout, FetchStream(layout.name, consumers=[lru])),
        ]

    ref, got, _, report = _run_both(
        trace, program, make_pairs, chunk_events=CHUNK, shards=2
    )
    assert _eq(ref, got)
    assert sorted(report.computed) == [
        ("family", 0), ("family", 1), ("relay", 0, 0), ("relay", 0, 1),
    ]
    naive = _naive_cold_sum(
        trace, program, make_pairs, chunk_events=CHUNK, bounds=BOUNDS
    )
    for stream, kind in enumerate(("direct-mapped", "2-way")):
        fused_misses = [c["misses"] for c in ref[stream]["counters"]]
        assert naive[stream] != fused_misses, (
            f"corpus never carried {kind} i-cache state across the boundary"
        )


def test_victim_buffer_resident_straddles_boundary():
    """A line evicted to the victim buffer before the boundary is
    re-fetched after it: the relay chain must carry the buffer."""
    program = _program()
    layout = Layout.original(program)
    # one-set primary: every line conflicts; the second lap re-finds its
    # lines in the victim buffer across the shard boundary
    trace = BlockTrace(np.asarray([0, 1, 2, 3, 0, 1, 2, 3], dtype=np.int32))

    def make_pairs():
        victim = miss_counter(CacheConfig(size_bytes=32, line_bytes=32, victim_lines=8))
        return [(layout, FetchStream(layout.name, consumers=[victim]))]

    ref, got, _, _ = _run_both(
        trace, program, make_pairs, chunk_events=CHUNK, shards=2
    )
    assert _eq(ref, got)
    naive = _naive_cold_sum(
        trace, program, make_pairs, chunk_events=CHUNK, bounds=BOUNDS
    )
    assert naive[0] != [c["misses"] for c in ref[0]["counters"]], (
        "corpus never carried the victim buffer across the boundary"
    )


def test_victim_relay_state_has_no_primary_slot():
    """The relayed victim state is each set's last line and the LRU buffer:
    the primary slot always holds the last line, so no separate copy is
    carried. Relayed across the shard boundary it matches one fused pass,
    and a checkpointed payload that still carries an equal "primary"
    entry relays to the same end state."""
    program = _program()
    layout = Layout.original(program)
    trace = BlockTrace(np.asarray([0, 1, 2, 3, 0, 1, 2, 3], dtype=np.int32))

    def make_pairs():
        victim = miss_counter(CacheConfig(size_bytes=64, line_bytes=32, victim_lines=2))
        return [(layout, FetchStream(layout.name, consumers=[victim]))]

    ckpt = DictCheckpoint()
    ref, got, _, _ = _run_both(
        trace, program, make_pairs, chunk_events=CHUNK, shards=2, checkpoint=ckpt
    )
    assert _eq(ref, got)
    relayed = ckpt.data[("relay", 0, 0)]["states"][0]["counters"][0]
    assert sorted(relayed) == ["capacity", "kind", "last", "misses", "victim"]
    assert relayed["victim"], "corpus never carried the victim buffer across the boundary"

    relayed["primary"] = relayed["last"].copy()
    del ckpt.data[("relay", 0, 1)]
    pairs = make_pairs()
    report = run_sharded(trace, program, pairs, chunk_events=CHUNK, shards=2, checkpoint=ckpt)
    assert report.computed == [("relay", 0, 1)]
    assert _eq(ref, _snapshot(pairs))


def test_trace_cache_entry_built_before_boundary_hits_after():
    """Trace-cache entries installed in shard 0 (including the one under
    construction when the window ends) must be visible to shard 1."""
    program = _program()
    layout = Layout.original(program)
    trace = BlockTrace(np.asarray([5, 6, 5, 6, 5, 6, 5, 6], dtype=np.int32))

    def make_pairs():
        dm = miss_counter(CacheConfig(size_bytes=128, line_bytes=32))
        return [
            (
                layout,
                TraceCacheStream(
                    layout.name, TraceCacheConfig(n_entries=16), consumers=[dm]
                ),
            )
        ]

    ref, got, _, _ = _run_both(
        trace, program, make_pairs, chunk_events=CHUNK, shards=2
    )
    assert _eq(ref, got)
    assert ref[0]["sig"][1] > 0, "corpus produced no trace-cache hits at all"
    naive = _naive_cold_sum(
        trace, program, make_pairs, chunk_events=CHUNK, bounds=BOUNDS
    )
    fused_hits = ref[0]["sig"][1]
    assert naive[0][-1] != fused_hits, (
        "corpus never carried trace-cache entries across the boundary"
    )


def test_fetch_group_at_boundary_truncates_identically():
    """A straight-line fall-through run crossing the boundary: the SEQ.3
    fetch orbit truncates at the window edge the same way in both paths,
    and the per-shard fetch counters sum exactly."""
    program = _program(kind=BlockKind.FALL_THROUGH)
    layout = Layout.original(program)
    trace = BlockTrace(np.arange(8, dtype=np.int32))

    def make_pairs():
        dm = miss_counter(CacheConfig(size_bytes=128, line_bytes=32))
        return [(layout, FetchStream(layout.name, consumers=[dm]))]

    ref, got, _, _ = _run_both(
        trace, program, make_pairs, chunk_events=CHUNK, shards=2
    )
    assert _eq(ref, got)


# -- property: any partition, any case, equal to fused -------------------


@settings(max_examples=40)
@given(seed=st.integers(0, 5_000), shards=st.integers(1, 8))
def test_sharded_equals_fused_for_any_partition(seed, shards):
    case = random_case(seed)
    line_bytes = case.cache_configs[0].line_bytes

    def make_pairs():
        pairs = [
            (case.layout, _stitched_stream(case)),
            (
                case.layout,
                FetchStream(
                    case.layout.name,
                    line_bytes=line_bytes,
                    consumers=[miss_counter(c) for c in case.cache_configs],
                ),
            ),
            (
                case.layout,
                TraceCacheStream(
                    case.layout.name,
                    case.tc_config,
                    line_bytes=line_bytes,
                    consumers=[miss_counter(c) for c in case.cache_configs],
                ),
            ),
        ]
        return pairs

    ref, got, _, report = _run_both(
        case.trace, case.program, make_pairs,
        chunk_events=case.chunk_events, shards=shards,
    )
    assert _eq(ref, got)
    if report.plan.n_shards == 1:  # one shard on one worker: one job
        assert report.n_jobs == 1
    else:
        assert _ran_family(report)
    # and invariant to the partition itself, not only equal to fused:
    # a second, different shard count must produce the same snapshot
    other = max(1, (shards % 4) + 1)
    if other != shards:
        _, got2, _, _ = _run_both(
            case.trace, case.program, make_pairs,
            chunk_events=case.chunk_events, shards=other,
        )
        assert _eq(got, got2)
    n_windows = max(1, -(-len(case.trace) // case.chunk_events))
    assert report.plan.n_shards == min(max(1, shards), n_windows)


def test_sharded_parallel_workers_match_serial():
    case = random_case(2)

    def make_pairs():
        return [
            (case.layout, _stitched_stream(case)),
            (
                case.layout,
                FetchStream(
                    case.layout.name,
                    line_bytes=case.cache_configs[0].line_bytes,
                    consumers=[miss_counter(c) for c in case.cache_configs],
                ),
            ),
        ]

    ref, got, _, report = _run_both(
        case.trace, case.program, make_pairs,
        chunk_events=case.chunk_events, shards=4, jobs=2,
    )
    assert _eq(ref, got)
    assert _ran_family(report)


# -- plan and input validation -------------------------------------------


def test_plan_shards_window_aligned_cover():
    plan = plan_shards(103, 10, 4)
    assert plan.bounds[0] == 0 and plan.bounds[-1] == 103
    assert all(b % 10 == 0 for b in plan.bounds[1:-1])
    assert plan.n_shards == 4
    spans = [plan.span(i) for i in range(plan.n_shards)]
    assert all(a < b for a, b in spans)
    assert [a for a, _ in spans[1:]] == [b for _, b in spans[:-1]]


def test_plan_shards_clamps_to_window_count():
    assert plan_shards(25, 10, 99).n_shards == 3  # only 3 windows exist
    assert plan_shards(0, 10, 4).bounds == (0, 0)
    with pytest.raises(ValueError):
        plan_shards(10, 0, 1)
    with pytest.raises(ValueError):
        plan_shards(10, 5, 0)


@pytest.mark.parametrize("shards", [0, -3])
def test_shard_counts_below_one_are_rejected(shards):
    """``shards=0`` is an error, not a silent fallback to ``jobs`` shards."""
    case = random_case(3)
    with pytest.raises(ValueError, match="shards must be >= 1"):
        run_sharded(
            case.trace, case.program, [], chunk_events=case.chunk_events,
            shards=shards, jobs=2,
        )


def test_mismatched_plan_is_rejected():
    case = random_case(3)
    plan = plan_shards(len(case.trace) + 1, case.chunk_events, 2)
    with pytest.raises(ValueError, match="plan does not match"):
        run_sharded(
            case.trace, case.program, [], chunk_events=case.chunk_events, shards=plan
        )
    assert isinstance(plan, ShardPlan)


def test_unknown_stream_type_is_rejected():
    case = random_case(4)

    class Alien:
        line_bytes = 32

    with pytest.raises(TypeError, match="cannot shard"):
        run_sharded(case.trace, case.program, [(case.layout, Alien())], shards=2)


# -- fault tolerance at shard granularity --------------------------------


class DictCheckpoint:
    def __init__(self):
        self.data = {}
        self.loads = 0

    def load(self, key):
        self.loads += 1
        return self.data.get(key)

    def store(self, key, payload):
        self.data[key] = payload


def _case_pairs(case):
    line_bytes = case.cache_configs[0].line_bytes
    return [
        (case.layout, _stitched_stream(case)),
        (
            case.layout,
            FetchStream(
                case.layout.name,
                line_bytes=line_bytes,
                consumers=[miss_counter(c) for c in case.cache_configs],
            ),
        ),
        (
            case.layout,
            TraceCacheStream(
                case.layout.name,
                case.tc_config,
                line_bytes=line_bytes,
                consumers=[miss_counter(c) for c in case.cache_configs],
            ),
        ),
    ]


# seed 2 gives a 514-event trace; chunk 64 -> 9 windows, so 4 real shards
RESUME_SEED = 2
RESUME_CHUNK = 64


def test_checkpoint_resume_recomputes_only_missing_jobs():
    case = random_case(RESUME_SEED)
    ckpt = DictCheckpoint()
    pairs = _case_pairs(case)
    first = run_sharded(
        case.trace, case.program, pairs,
        chunk_events=RESUME_CHUNK, shards=4, checkpoint=ckpt,
    )
    assert first.plan.n_shards == 4
    assert _ran_family(first)
    assert sorted(ckpt.data) == sorted(first.computed)
    reference = _snapshot(pairs)

    # warm resume: nothing recomputes, results identical
    pairs2 = _case_pairs(case)
    second = run_sharded(
        case.trace, case.program, pairs2,
        chunk_events=RESUME_CHUNK, shards=4, checkpoint=ckpt,
    )
    assert second.computed == []
    assert sorted(second.checkpointed) == sorted(first.computed)
    assert _eq(reference, _snapshot(pairs2))

    # punch two holes — a family shard and a mid-chain relay step: only
    # those exact jobs recompute (later relay steps are reused, their
    # inputs being deterministic)
    dropped = [("family", 2)]
    relay_keys = sorted(k for k in ckpt.data if k[0] == "relay" and k[2] == 1)
    dropped.append(relay_keys[0])
    for key in dropped:
        del ckpt.data[key]
    pairs3 = _case_pairs(case)
    third = run_sharded(
        case.trace, case.program, pairs3,
        chunk_events=RESUME_CHUNK, shards=4, checkpoint=ckpt,
    )
    assert sorted(third.computed) == sorted(dropped)
    assert _eq(reference, _snapshot(pairs3))


def test_one_shard_on_one_worker_is_one_unstored_job():
    """With nothing to run side by side, every stream relays in one chain:
    one job, one fused pass, and no checkpoint (its payload is the
    caller's whole result). On two workers the same one-shard plan keeps
    its family job and one relay chain per relayed stream."""
    case = random_case(RESUME_SEED)
    ckpt = DictCheckpoint()
    pairs = _case_pairs(case)
    report = run_sharded(
        case.trace, case.program, pairs,
        chunk_events=RESUME_CHUNK, shards=1, checkpoint=ckpt,
    )
    assert report.plan.n_shards == 1
    assert report.computed == [("relay", 0, 0)] and report.checkpointed == []
    assert ckpt.data == {} and ckpt.loads == 0
    fused = _case_pairs(case)
    run_fused(case.trace, case.program, fused, chunk_events=RESUME_CHUNK)
    assert _eq(_snapshot(fused), _snapshot(pairs))

    pool_pairs = _case_pairs(case)
    pooled = run_sharded(
        case.trace, case.program, pool_pairs,
        chunk_events=RESUME_CHUNK, shards=1, jobs=2, checkpoint=ckpt,
    )
    assert sorted(pooled.computed) == [("family", 0), ("relay", 0, 0), ("relay", 1, 0)]
    assert sorted(ckpt.data) == sorted(pooled.computed)
    assert _eq(_snapshot(fused), _snapshot(pool_pairs))


def test_permanent_failure_names_job_and_preserves_checkpoints(monkeypatch):
    case = random_case(RESUME_SEED)
    real = sharded_mod._family_shard

    def boom(trace, program, layouts, chunk_events, plan, specs, shard_idx):
        if shard_idx == 2:
            raise ValueError("injected deterministic failure")
        return real(trace, program, layouts, chunk_events, plan, specs, shard_idx)

    monkeypatch.setattr(sharded_mod, "_family_shard", boom)
    ckpt = DictCheckpoint()
    with pytest.raises(ShardError) as excinfo:
        run_sharded(
            case.trace, case.program, _case_pairs(case),
            chunk_events=RESUME_CHUNK, shards=4, checkpoint=ckpt,
        )
    assert excinfo.value.key == ("family", 2)
    assert ("family", 0) in ckpt.data and ("family", 1) in ckpt.data

    # resume after the bug is fixed: the crashed job and the jobs that
    # never ran recompute; everything checkpointed is reused
    monkeypatch.setattr(sharded_mod, "_family_shard", real)
    pairs = _case_pairs(case)
    report = run_sharded(
        case.trace, case.program, pairs,
        chunk_events=RESUME_CHUNK, shards=4, checkpoint=ckpt,
    )
    assert ("family", 2) in report.computed
    assert ("family", 0) in report.checkpointed
    fused = _case_pairs(case)
    run_fused(case.trace, case.program, fused, chunk_events=RESUME_CHUNK)
    assert _eq(_snapshot(fused), _snapshot(pairs))


def test_transient_failure_retries_then_succeeds(monkeypatch):
    case = random_case(RESUME_SEED)
    real = sharded_mod._relay_shard
    failed = []

    def flaky(trace, program, layouts, chunk_events, plan, spec, shard_idx, state):
        if not failed:
            failed.append(shard_idx)
            raise OSError("injected transient failure")
        return real(trace, program, layouts, chunk_events, plan, spec, shard_idx, state)

    monkeypatch.setattr(sharded_mod, "_relay_shard", flaky)
    pairs = _case_pairs(case)
    run_sharded(
        case.trace, case.program, pairs,
        chunk_events=RESUME_CHUNK, shards=4, retries=2,
    )
    assert failed, "injection never fired"
    fused = _case_pairs(case)
    run_fused(case.trace, case.program, fused, chunk_events=RESUME_CHUNK)
    assert _eq(_snapshot(fused), _snapshot(pairs))


def test_transient_failure_without_retries_raises(monkeypatch):
    case = random_case(RESUME_SEED)

    def always(trace, program, layouts, chunk_events, plan, specs, shard_idx):
        raise OSError("injected transient failure")

    monkeypatch.setattr(sharded_mod, "_family_shard", always)
    with pytest.raises(ShardError):
        run_sharded(
            case.trace, case.program, _case_pairs(case),
            chunk_events=RESUME_CHUNK, shards=4, retries=0,
        )


def test_dead_worker_pool_degrades_to_in_process(monkeypatch):
    import os

    case = random_case(RESUME_SEED)
    parent = os.getpid()
    real = sharded_mod._family_shard

    def killer(trace, program, layouts, chunk_events, plan, specs, shard_idx):
        if shard_idx == 1 and os.getpid() != parent:
            os._exit(3)  # hard worker death: no exception crosses the pipe
        return real(trace, program, layouts, chunk_events, plan, specs, shard_idx)

    monkeypatch.setattr(sharded_mod, "_family_shard", killer)
    pairs = _case_pairs(case)
    report = run_sharded(
        case.trace, case.program, pairs,
        chunk_events=RESUME_CHUNK, shards=4, jobs=2,
    )
    assert report.degraded
    assert report.remaining >= 1  # the killed job at least ran in-process
    assert "BrokenProcessPool" in repr(report.pool_error)
    fused = _case_pairs(case)
    run_fused(case.trace, case.program, fused, chunk_events=RESUME_CHUNK)
    assert _eq(_snapshot(fused), _snapshot(pairs))


def test_hanging_job_on_the_pool_times_out_naming_it(tmp_path, monkeypatch):
    """Once every other job is done, a parallel run with no job completing
    for ``task_timeout`` seconds raises instead of waiting for ever."""
    case = random_case(RESUME_SEED)
    real = sharded_mod._family_shard
    release = tmp_path / "release"  # cross-process: workers are forks

    def hanging(trace, program, layouts, chunk_events, plan, specs, shard_idx):
        if shard_idx == 1:
            deadline = time.monotonic() + 60  # bounded, and released below
            while not release.exists() and time.monotonic() < deadline:
                time.sleep(0.05)
        return real(trace, program, layouts, chunk_events, plan, specs, shard_idx)

    monkeypatch.setattr(sharded_mod, "_family_shard", hanging)
    try:
        with pytest.raises(ShardTimeoutError) as excinfo:
            run_sharded(
                case.trace, case.program, _case_pairs(case),
                chunk_events=RESUME_CHUNK, shards=4, jobs=2, task_timeout=1,
            )
    finally:
        release.write_text("x")  # let the orphaned worker finish
    assert excinfo.value.keys == [("family", 1)]
    assert repr(("family", 1)) in str(excinfo.value)
    assert excinfo.value.timeout == 1


def test_on_job_reports_every_job_once():
    case = random_case(RESUME_SEED)
    seen = []
    report = run_sharded(
        case.trace, case.program, _case_pairs(case),
        chunk_events=RESUME_CHUNK, shards=3,
        on_job=lambda key, source: seen.append((key, source)),
    )
    assert sorted(k for k, _ in seen) == sorted(report.computed)
    assert {s for _, s in seen} == {"computed"}
    assert report.n_jobs == len(seen)


# -- concurrent callers: each pool forks with its own context ------------


def test_concurrent_parallel_calls_keep_their_own_context():
    """Two threads fan shard jobs over their own fork pools at the same
    moment, as ``repro.serve`` engine threads do: every call's workers
    must simulate that call's trace and streams, never the other's."""
    rounds = 10
    cases = [random_case(RESUME_SEED), random_case(RESUME_SEED + 1)]
    expected = []
    for case in cases:
        pairs = _case_pairs(case)
        run_fused(case.trace, case.program, pairs, chunk_events=RESUME_CHUNK)
        expected.append(_snapshot(pairs))
    assert not _eq(expected[0], expected[1])
    barrier = threading.Barrier(len(cases))
    snapshots: list[list] = [[] for _ in cases]
    errors = []

    def caller(i: int) -> None:
        case = cases[i]
        try:
            for _ in range(rounds):
                pairs = _case_pairs(case)
                barrier.wait(timeout=60)
                run_sharded(
                    case.trace, case.program, pairs,
                    chunk_events=RESUME_CHUNK, shards=4, jobs=2,
                )
                snapshots[i].append(_snapshot(pairs))
        except BaseException as exc:
            errors.append(exc)
            barrier.abort()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=caller, args=(i,)) for i in range(len(cases))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    for want, got in zip(expected, snapshots):
        assert len(got) == rounds
        assert all(_eq(want, snap) for snap in got)
