"""CI smoke for the streaming trace pipeline.

Exercises the full path on a tiny workload: capture traces straight into
the on-disk store, reload the workload from the artifact cache (the
traces must come back as stores, not rebuilt), profile the training
trace and run Figure 2 and the prediction extension with whole-trace
reads forbidden (they must read windows, and the profile must equal the
one over the in-memory trace), survive damage to a trace
file (the workload loader must detect it and rebuild), and run the fused
suite engine end to end, checking that one fused group over every task
gives each task float-for-float the payload it gets when run alone (the
identity that lets checkpoints from any grouping mix) and that the
group's trace-cache tasks raise its tracemalloc peak by at most
``TRACE_CACHE_PEAK_RATIO`` (a per-instruction array in the walk would
exceed it), and that the group's peak stays within ``PEAK_SLACK`` of
``PEAK_BYTES_PER_WINDOW_INSTRUCTION`` per instruction of the largest
window (a re-widened window array would exceed it).

Run: ``PYTHONPATH=src python .github/scripts/streaming_smoke.py``
"""

from __future__ import annotations

import os
import sys
import tempfile
import tracemalloc

import numpy as np

os.environ.setdefault("REPRO_CACHE_DIR", tempfile.mkdtemp(prefix="repro-ci-cache-"))

from repro.experiments import figure2, harness, prediction  # noqa: E402
from repro.experiments import suite as suite_mod  # noqa: E402
from repro.experiments.config import PRIMARY_ROWS  # noqa: E402
from repro.experiments.harness import get_workload  # noqa: E402
from repro.profiling import TraceStore, profile_trace  # noqa: E402
from repro.profiling.trace import DEFAULT_CHUNK_EVENTS, SEPARATOR  # noqa: E402
from repro.tpcd.workload import WorkloadSettings  # noqa: E402

SETTINGS = WorkloadSettings(scale=0.0005)
GRID = PRIMARY_ROWS[:1]
#: Bound on the fused group's tracemalloc peak over the same group without
#: its trace-cache tasks. The walk, which keeps only its per-event and
#: per-branch tables alive, measures 1.000 (128.6 MiB either way); keeping
#: its three per-branch temporaries alive too measured 1.076, and one more
#: int32 array per instruction 1.049.
TRACE_CACHE_PEAK_RATIO = 1.04
#: The fused group's tracemalloc peak per instruction of the trace's
#: largest window, measured with int32 window arrays and i-cache counters
#: that model each feed in 2^16-access slices (int64 window arrays measured
#: 36.34, counters sorting a whole window at once 18.82). A pass may exceed
#: it by ``PEAK_SLACK``.
PEAK_BYTES_PER_WINDOW_INSTRUCTION = 15.70
PEAK_SLACK = 1.1


def _traced_peak(run, *args):
    """``run(*args)`` and the tracemalloc peak it reached."""
    tracemalloc.start()
    try:
        return run(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main() -> None:
    # generate: trace capture streams into the on-disk store
    workload = get_workload(SETTINGS)
    for label, trace in (("training", workload.training_trace), ("test", workload.test_trace)):
        if not isinstance(trace, TraceStore):
            sys.exit(f"FAIL: {label} trace is {type(trace).__name__}, not a TraceStore")
        trace.verify(deep=True)
        stats = trace.stats()
        if stats["compression_ratio"] <= 1.0:
            sys.exit(f"FAIL: {label} trace did not compress ({stats})")
        print(
            f"{label} trace: {stats['n_events']} events in {stats['n_chunks']} chunks, "
            f"{stats['bytes']} bytes ({stats['compression_ratio']}x)"
        )

    # resume: a fresh lookup must reload the stored workload, not rebuild
    harness._WORKLOADS.clear()
    reloaded = get_workload(SETTINGS)
    if reloaded is workload:
        sys.exit("FAIL: in-memory workload cache was not actually cleared")
    if len(reloaded.test_trace) != len(workload.test_trace):
        sys.exit("FAIL: reloaded workload trace differs from the original")
    print("reload OK: workload came back from the artifact cache with stored traces")

    # analyses: the training profile, Figure 2 and the prediction pass read
    # the stored traces window by window, never whole
    def whole_read(store):
        raise AssertionError(f"{store.path} was read whole")

    n_blocks = reloaded.program.n_blocks
    materialize = TraceStore.materialize
    TraceStore.materialize = whole_read
    try:
        profile = profile_trace(reloaded.training_trace, n_blocks)
        figure2.compute(reloaded)
        prediction.compute(reloaded)
    except AssertionError as exc:
        sys.exit(f"FAIL: an analysis read a stored trace whole ({exc})")
    finally:
        TraceStore.materialize = materialize
    in_memory = profile_trace(reloaded.training_trace.materialize(), n_blocks)
    if not (
        np.array_equal(profile.block_count, in_memory.block_count)
        and sorted(profile.edges()) == sorted(in_memory.edges())
    ):
        sys.exit("FAIL: the windowed training profile differs from the in-memory one")
    print("analyses OK: profile, Figure 2 and prediction read the stored traces in windows")

    # damage: a truncated trace file must be detected at load time (the
    # workload loader runs the shallow header/directory verification) and
    # trigger a rebuild over the same path
    path = reloaded.test_trace.path
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    harness._WORKLOADS.clear()
    rebuilt = get_workload(SETTINGS)
    rebuilt.test_trace.verify(deep=True)
    if len(rebuilt.test_trace) != len(workload.test_trace):
        sys.exit("FAIL: rebuilt workload trace differs from the original")
    print("corruption OK: damaged trace file detected and rebuilt")

    # fused-simulate: one group over every task vs each task alone
    tasks = suite_mod._suite_tasks(GRID, GRID)
    cache_sizes = sorted({c for c, _ in GRID})
    harness.training_profile(rebuilt)  # profiled once, outside the measured passes
    (payloads, errors), peak = _traced_peak(
        suite_mod._run_group, rebuilt, tasks, GRID, cache_sizes
    )
    if errors:
        sys.exit(f"FAIL: fused group errors: {errors}")
    fetch_tasks = [task for task in tasks if task[0] not in ("tc", "tc_ops")]
    (_, errors), fetch_peak = _traced_peak(
        suite_mod._run_group, rebuilt, fetch_tasks, GRID, cache_sizes
    )
    if errors:
        sys.exit(f"FAIL: fused group errors without trace-cache tasks: {errors}")
    window_instructions = max(
        int(rebuilt.program.block_size[ev[ev != SEPARATOR]].sum(dtype=np.int64))
        for ev, _ in rebuilt.test_trace.iter_events(DEFAULT_CHUNK_EVENTS)
    )
    per_instruction = peak / window_instructions
    bound = PEAK_SLACK * PEAK_BYTES_PER_WINDOW_INSTRUCTION
    if per_instruction > bound:
        sys.exit(
            f"FAIL: the fused group's tracemalloc peak is {per_instruction:.2f} B per "
            f"instruction of its largest window, bound {bound:.2f}"
        )
    print(f"memory OK: tracemalloc peak {per_instruction:.2f} B per window instruction")
    ratio = peak / fetch_peak
    if ratio > TRACE_CACHE_PEAK_RATIO:
        sys.exit(
            f"FAIL: trace-cache tasks raise the group's tracemalloc peak {ratio:.3f}x "
            f"({fetch_peak / 2**20:.1f} -> {peak / 2**20:.1f} MiB), "
            f"bound {TRACE_CACHE_PEAK_RATIO}"
        )
    print(
        f"memory OK: tracemalloc peak {peak / 2**20:.1f} MiB with trace-cache tasks, "
        f"{fetch_peak / 2**20:.1f} MiB without ({ratio:.3f}x)"
    )
    for task in tasks:
        alone, errors = suite_mod._run_group(rebuilt, [task], GRID, cache_sizes)
        if errors or payloads[task] != alone[task]:
            sys.exit(f"FAIL: fused payload differs from the task run alone for {task}")
    print(f"fused-simulate OK: {len(tasks)} task payloads bit-identical fused and alone")
    print("streaming smoke OK")


if __name__ == "__main__":
    main()
