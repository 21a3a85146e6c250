"""The Table 3 / Table 4 evaluation suite.

One pass over (layout x geometry) computes everything both tables need:
fetch simulation per layout, vectorized miss counting per cache
configuration, trace-cache simulations for the TC columns. Results are
scalars. :func:`suite_for` is the one cached way to get them: it loads
the suite from the persistent artifact cache (kind ``suite``, keyed by
the workload settings and grid) and computes and stores it on a miss,
so Table 3, Table 4 and the headline module share the work within and
across processes. There is no in-memory suite layer: a hit unpickles a
few kilobytes.

The suite is decomposed into self-contained (layout x geometry) tasks,
and the engine evaluates every missing task in *one* streaming pass over
the trace, made in the calling process: each task contributes
incremental fetch/trace-cache streams with attached i-cache miss
counters, so the trace is decoded and expanded once per pass instead of
once per simulation. A task's payload does not depend on which tasks
share its pass, so checkpoints from any run mix. The pass is always one
:func:`repro.simulators.run_sharded`, whose shard jobs run on ``jobs``
fork workers of the shared job scheduler
(:func:`repro.util.scheduler.run_jobs`) and whose results are
bit-identical to one fused pass; one shard on one worker is a single
job, that fused pass itself.

The engine is fault-tolerant and resumable:

* every completed task's payload is checkpointed through the artifact
  cache (kind ``suite-task``, keyed by the workload settings and task),
  and every shard job of a multi-job pass as well (kind ``suite-shard``),
  so a crashed, killed, or partially-failed run resumes by recomputing
  only what is missing — and produces bit-identical results;
* failures that can succeed on retry (memory pressure, I/O hiccups; see
  :func:`repro.util.scheduler.is_transient`) are retried with exponential
  backoff, bounded by ``retries``: a task's stream construction before
  the pass, so the retried task still joins it, and a shard job by the
  scheduler;
* a permanent failure names the task, or the shard job, that failed
  (:class:`SuiteTaskError`) and leaves completed work checkpointed;
* ``task_timeout`` bounds how long a parallel pass may go with no shard
  job completing — a stall raises :class:`SuiteTimeoutError` naming the
  still-running jobs instead of hanging forever;
* if the worker pool itself dies, the pass degrades to in-process
  execution of the remaining shard jobs;
* a :class:`~repro.experiments.runlog.RunLog` manifest records per-task
  timing, checkpoint provenance, shard jobs, retries, failures and cache
  counters, and with ``progress`` on prints each record as it is made.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

from repro.cache import cache_enabled, default_cache
from repro.experiments.config import CACHE_CFA_GRID, KB
from repro.experiments.harness import build_layout, get_workload, training_profile
from repro.experiments.runlog import RunLog
from repro.simulators import CacheConfig, FetchStream, TraceCacheStream, miss_counter
from repro.simulators.sharded import (
    ShardError,
    ShardTimeoutError,
    plan_shards,
    run_sharded,
)
from repro.tpcd.workload import Workload, WorkloadSettings
from repro.util.scheduler import backoff, is_transient

__all__ = [
    "CellMetrics",
    "SuiteResults",
    "SuiteTaskError",
    "SuiteTimeoutError",
    "compute_suite",
    "suite_cache_key",
    "suite_for",
]


@dataclass
class CellMetrics:
    """One (geometry, layout) cell shared by Tables 3 and 4."""

    miss_rate: float  # misses per instruction, percent
    ipc: float  # fetch bandwidth with the 5-cycle miss penalty
    ideal_ipc: float
    run_length: float  # instructions between taken branches


@dataclass
class SuiteResults:
    n_instructions: int = 0
    #: (cache KB, CFA KB) -> layout name -> metrics
    cells: dict[tuple[int, int], dict[str, CellMetrics]] = field(default_factory=dict)
    #: cache KB -> miss rate % for the 2-way and victim variants (orig layout)
    assoc_miss: dict[int, float] = field(default_factory=dict)
    victim_miss: dict[int, float] = field(default_factory=dict)
    #: cache KB -> IPC for the 16 KB trace cache over the orig layout
    tc_ipc: dict[int, float] = field(default_factory=dict)
    tc_ideal: float = 0.0
    tc_hit_rate: float = 0.0
    #: (cache KB, CFA KB) -> IPC for trace cache + ops layout
    tc_ops_ipc: dict[tuple[int, int], float] = field(default_factory=dict)
    tc_ops_ideal: dict[tuple[int, int], float] = field(default_factory=dict)

    def ideal_range(self, layout: str) -> tuple[float, float]:
        values = [m[layout].ideal_ipc for m in self.cells.values() if layout in m]
        return (min(values), max(values)) if values else (0.0, 0.0)


def _cell(stream: FetchStream, misses: int) -> CellMetrics:
    """Cell metrics from one fetch stream and one counter's miss count."""
    return CellMetrics(
        miss_rate=stream.miss_rate(misses),
        ipc=stream.ipc(misses),
        ideal_ipc=stream.ideal_ipc,
        run_length=stream.instructions_between_taken,
    )


# -- task decomposition --------------------------------------------------
#
# A task is a self-contained simulation returning a small scalar payload:
#   ("base", name)  — fetch simulation of a geometry-independent layout,
#                     metrics per cache size (+ 2-way/victim for "orig")
#   ("tc", "orig")  — trace cache over the original layout
#   ("row", row)    — Torr/auto/ops fetch simulations for one grid row
#   ("tc_ops", row) — trace cache over the ops layout for one grid row

_Task = tuple[str, object]


def _suite_tasks(grid, tc_rows) -> list[_Task]:
    """Canonical task order: tasks sharing a layout (base/tc over
    ``orig``, row/tc_ops over one geometry) sit next to each other. The
    order fixes the streams of the pass and, through the shard
    checkpoint keys, which shard payloads a resumed run may reuse."""
    if not grid:  # empty grid: nothing to simulate, not even the bases
        return []
    tasks: list[_Task] = [("base", "orig"), ("tc", "orig"), ("base", "P&H")]
    tc_set = set(tc_rows)
    for row in grid:
        tasks.append(("row", row))
        if row in tc_set:
            tasks.append(("tc_ops", row))
    grid_set = set(grid)
    tasks.extend(("tc_ops", row) for row in tc_rows if row not in grid_set)
    return tasks


def _task_label(task: _Task) -> str:
    kind, arg = task
    if kind == "base":
        return f"fetch simulation: {arg}"
    if kind == "tc":
        return "trace cache: orig layout"
    if kind == "row":
        return "fetch simulations: Torr/auto/ops {}/{}".format(*arg)
    if kind == "shard":
        return f"shard job {arg!r}"
    return "trace cache: ops layout {}/{}".format(*arg)


# -- the pass ------------------------------------------------------------
#
# The engine does not run tasks one simulation at a time: every task
# contributes incremental streams whose i-cache configurations are
# attached miss counters, and all of them are fed in a *single* pass over
# the trace. Every stream starts cold and owns its counters, so a task's
# payload is the same whichever tasks share its pass.


def _unit_for(workload: Workload, task: _Task, grid, cache_sizes, layout_memo=None):
    """Build one task's streams and payload finalizer.

    Returns ``(pairs, finalize)``: ``pairs`` are the ``(layout, stream)``
    contributions to the pass, ``finalize()`` assembles the task payload
    from the stream counters afterwards. ``layout_memo`` shares layout
    objects across the units of one pass, which lets the fused driver
    share their per-window expansion as well, and the layouts'
    geometry-independent sequences across the grid's rows
    (:func:`~repro.experiments.harness.build_layout`).
    """
    kind, arg = task
    memo = layout_memo if layout_memo is not None else {}

    def layout_of(name: str, cache_kb: int, cfa_kb: int):
        key = (name, cache_kb, cfa_kb)
        if key not in memo:
            memo[key] = build_layout(workload, name, cache_kb, cfa_kb, memo)
        return memo[key]

    if kind == "base":
        layout = layout_of(arg, grid[0][0], grid[0][1])
        counters = {c: miss_counter(CacheConfig(size_bytes=c * KB)) for c in cache_sizes}
        consumers = list(counters.values())
        if arg == "orig":
            assoc = {
                c: miss_counter(CacheConfig(size_bytes=c * KB, associativity=2))
                for c in cache_sizes
            }
            victim = {
                c: miss_counter(CacheConfig(size_bytes=c * KB, victim_lines=16))
                for c in cache_sizes
            }
            consumers += list(assoc.values()) + list(victim.values())
        stream = FetchStream(layout.name, consumers=consumers)

        def finalize() -> dict:
            payload = {
                "n_instructions": stream.n_instructions,
                "per_cache": {c: _cell(stream, counters[c].misses) for c in cache_sizes},
            }
            if arg == "orig":
                payload["assoc"] = {c: stream.miss_rate(assoc[c].misses) for c in cache_sizes}
                payload["victim"] = {c: stream.miss_rate(victim[c].misses) for c in cache_sizes}
            return payload

        return [(layout, stream)], finalize

    if kind == "tc":
        layout = layout_of("orig", grid[0][0], grid[0][1])
        counters = {c: miss_counter(CacheConfig(size_bytes=c * KB)) for c in cache_sizes}
        stream = TraceCacheStream(layout.name, consumers=list(counters.values()))

        def finalize() -> dict:
            return {
                "ideal": stream.ipc(),
                "hit_rate": stream.hit_rate,
                "ipc": {c: stream.ipc(counters[c].misses) for c in cache_sizes},
            }

        return [(layout, stream)], finalize

    if kind == "row":
        cache_kb, cfa_kb = arg
        streams: dict[str, tuple[FetchStream, object]] = {}
        pairs = []
        for name in ("Torr", "auto", "ops"):
            layout = layout_of(name, cache_kb, cfa_kb)
            counter = miss_counter(CacheConfig(size_bytes=cache_kb * KB))
            stream = FetchStream(layout.name, consumers=[counter])
            streams[name] = (stream, counter)
            pairs.append((layout, stream))

        def finalize() -> dict:
            return {
                name: _cell(stream, counter.misses)
                for name, (stream, counter) in streams.items()
            }

        return pairs, finalize

    if kind == "tc_ops":
        cache_kb, cfa_kb = arg
        layout = layout_of("ops", cache_kb, cfa_kb)
        counter = miss_counter(CacheConfig(size_bytes=cache_kb * KB))
        stream = TraceCacheStream(layout.name, consumers=[counter])

        def finalize() -> dict:
            return {"ipc": stream.ipc(counter.misses), "ideal": stream.ipc()}

        return [(layout, stream)], finalize

    raise ValueError(f"unknown suite task {task!r}")


def _run_group(
    workload: Workload, tasks, grid, cache_sizes, *, shards: int | None = None,
    jobs: int = 1, retries: int = 0, task_timeout: float | None = None,
    runlog: RunLog | None = None, cache=None,
    on_retry=lambda task, exc, attempt: None,
):
    """Evaluate ``tasks`` in one pass over the trace; returns
    ``(payloads, errors)`` keyed by task.

    The pass is one :func:`run_sharded` over ``shards`` spans (default:
    ``jobs``) on ``jobs`` workers, whose shard jobs ``cache`` checkpoints
    and ``runlog`` records; one shard on one worker is a single fused
    pass. Payloads are finalized with the same arithmetic either way, so
    results are bit-identical for any shard/worker combination.

    A failure while building one task's streams (layout construction)
    that can succeed on retry is retried up to ``retries`` times before
    the pass, so the task still joins it; any other such failure is
    isolated to that task. A failure during the pass fails every task
    whose streams made it into the pass (none of them can be trusted).
    ``on_retry(task, exc, attempt)`` hears of every retry, a shard job's
    as task ``("shard", job key)``.
    """
    payloads: dict[_Task, dict] = {}
    errors: dict[_Task, BaseException] = {}
    memo: dict = {}
    units = []
    for task in tasks:
        for attempt in range(1, retries + 2):
            try:
                units.append((task, *_unit_for(workload, task, grid, cache_sizes, memo)))
                break
            except Exception as exc:
                if attempt > retries or not is_transient(exc):
                    errors[task] = exc
                    break
                on_retry(task, exc, attempt)
                time.sleep(backoff(attempt))
    if not units:
        return payloads, errors
    trace = workload.test_trace
    pairs = [pair for _, unit_pairs, _ in units for pair in unit_pairs]
    event = runlog.event if runlog is not None else lambda kind, **fields: None
    try:
        plan = plan_shards(len(trace), shards=jobs if shards is None else shards)
        event(
            "shard-plan", shards=plan.n_shards, chunk_events=plan.chunk_events,
            bounds=list(plan.bounds),
        )
        checkpoint = None
        if cache is not None:
            # the prefix pins everything a shard payload depends on —
            # workload settings, cache sizes, the exact task set (stream
            # composition; suite streams always start cold) and the shard
            # plan — so resumed runs only ever reuse payloads bit-identical
            # to a fresh computation
            in_pass = tuple(task for task, _, _ in units)
            prefix = (workload.settings, tuple(cache_sizes), in_pass, plan.signature())
            checkpoint = SimpleNamespace(
                load=lambda key: cache.load("suite-shard", prefix + (key,)),
                store=lambda key, payload: cache.store("suite-shard", prefix + (key,), payload),
            )
        report = run_sharded(
            trace, workload.program, pairs,
            shards=plan, jobs=jobs, retries=retries,
            task_timeout=task_timeout, checkpoint=checkpoint,
            on_job=lambda key, source: event("shard-job", job=list(key), source=source),
            on_retry=lambda key, exc, attempt: on_retry(("shard", key), exc, attempt),
        )
        if report.degraded:
            event("pool-broken", error=repr(report.pool_error), remaining=report.remaining)
    except Exception as exc:
        for task, _, _ in units:
            errors[task] = exc
        return payloads, errors
    for task, _, finalize in units:
        try:
            payloads[task] = finalize()
        except Exception as exc:
            errors[task] = exc
    return payloads, errors


def _assemble(grid, tc_rows, results: dict[_Task, dict]) -> SuiteResults:
    """Deterministic assembly: iterates tasks in canonical order, so the
    result is independent of parallel completion order."""
    res = SuiteResults()
    if not results:
        return res
    base_orig = results[("base", "orig")]
    res.n_instructions = base_orig["n_instructions"]
    for name in ("orig", "P&H"):
        per_cache = results[("base", name)]["per_cache"]
        for row in grid:
            res.cells.setdefault(row, {})[name] = per_cache[row[0]]
    res.assoc_miss = dict(base_orig["assoc"])
    res.victim_miss = dict(base_orig["victim"])
    tc = results[("tc", "orig")]
    res.tc_ideal = tc["ideal"]
    res.tc_hit_rate = tc["hit_rate"]
    res.tc_ipc = dict(tc["ipc"])
    for row in grid:
        for name, cell in results[("row", row)].items():
            res.cells.setdefault(row, {})[name] = cell
    for row in tc_rows:
        payload = results[("tc_ops", row)]
        res.tc_ops_ipc[row] = payload["ipc"]
        res.tc_ops_ideal[row] = payload["ideal"]
    return res


# -- fault tolerance -----------------------------------------------------

class SuiteTaskError(RuntimeError):
    """A suite task failed permanently.

    Completed tasks remain checkpointed in the artifact cache, so a
    re-run with ``resume=True`` recomputes only what is missing.
    """

    def __init__(self, task: _Task, label: str, cause: BaseException) -> None:
        super().__init__(f"suite task failed: {label}: {cause!r}")
        self.task = task
        self.label = label
        self.cause = cause


class SuiteTimeoutError(RuntimeError):
    """No shard job of the suite's pass completed within ``task_timeout``
    seconds of the last one."""

    def __init__(self, labels: list[str], timeout: float) -> None:
        super().__init__(
            f"no suite shard job completed in {timeout:.1f}s; "
            f"still running: {', '.join(labels)}"
        )
        self.labels = labels
        self.timeout = timeout


def _task_key(settings: WorkloadSettings, cache_sizes, task: _Task) -> tuple:
    """Checkpoint address of one task's payload.

    ``row``/``tc_ops`` payloads depend only on their own grid row, so
    their checkpoints are shared across grids (a ``--quick`` run seeds
    the full-grid run). ``base``/``tc`` payloads carry per-cache-size
    tables and key on the grid's cache sizes as well.
    """
    if task[0] in ("base", "tc"):
        return (settings, tuple(cache_sizes), task)
    return (settings, task)


def _check_shards(shards: int | None) -> None:
    if shards is not None and shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")


def compute_suite(
    workload: Workload,
    grid: tuple[tuple[int, int], ...] = CACHE_CFA_GRID,
    *,
    tc_rows: tuple[tuple[int, int], ...] | None = None,
    progress: bool = False,
    jobs: int = 1,
    shards: int | None = None,
    resume: bool = True,
    task_timeout: float | None = None,
    retries: int = 2,
    manifest: Path | str | None = None,
) -> SuiteResults:
    """Evaluate all layouts over the grid on the Test-set trace.

    Every missing (layout x geometry) task joins one pass over the trace,
    made in the calling process: one :func:`repro.simulators.run_sharded`
    over ``shards`` trace spans (default: ``jobs``) whose shard jobs fan
    out over ``jobs`` worker processes (fork platforms only). One shard
    on one worker is a single job, one fused pass. The shard job is the
    unit the pass retries, times out on and checkpoints. Results are
    bit-identical for every ``jobs``/``shards`` combination. ``shards``
    below 1 is a :class:`ValueError`.

    With ``resume=True`` (the default) each completed task and the shard
    jobs of a multi-job pass are checkpointed in the artifact cache, and
    an interrupted or failed run picks up where it left off; ``retries``
    bounds retry of transient failures (of a task's stream construction,
    before the pass, and of a shard job), ``task_timeout`` bounds how
    long a parallel pass may sit with no shard job completing, and
    ``manifest`` names a JSON file to receive the structured run log
    (written on success *and* failure). ``progress`` prints that log to
    ``stderr`` as it is recorded: every shard job as it finishes, then
    every task.
    """
    _check_shards(shards)
    tc_rows = grid if tc_rows is None else tc_rows
    cache_sizes = sorted({c for c, _ in grid})
    tasks = _suite_tasks(grid, tc_rows)
    settings = workload.settings
    cache = default_cache()
    checkpointing = resume and settings is not None and cache_enabled()
    runlog = RunLog(
        "suite",
        settings=settings,
        jobs=jobs,
        resume=resume,
        task_timeout=task_timeout,
        retries=retries,
        n_tasks=len(tasks),
        cache=cache,
        echo=progress,
    )

    attempts: dict = {}  # a retried task's or shard job's attempt count

    def done(task: _Task, seconds: float, source: str) -> None:
        label = _task_label(task)
        n = attempts.get(task, 1) if source == "computed" else 0
        runlog.task_done(label, task[0], seconds=seconds, attempts=n, source=source)

    def on_retry(task: _Task, exc: BaseException, attempt: int) -> None:
        label = _task_label(task)
        attempts[task] = attempt + 1
        runlog.task_retry(label, exc, attempt)

    def failed(task: _Task, exc: BaseException) -> RuntimeError:
        if isinstance(exc, ShardTimeoutError):  # the pass stalled on its pool
            labels = [repr(key) for key in exc.keys]
            runlog.event("stall", tasks=labels, timeout=exc.timeout)
            return SuiteTimeoutError(labels, exc.timeout)
        if isinstance(exc, ShardError):  # the pass names its shard job
            task, exc = ("shard", exc.key), exc.cause
        label = _task_label(task)
        runlog.task_failed(label, task[0], exc, attempts.get(task, 1))
        return SuiteTaskError(task, label, exc)

    results: dict[_Task, dict] = {}
    try:
        if tasks:
            # profile once in the parent: workers inherit it copy-on-write
            training_profile(workload)
        for task in tasks if checkpointing else ():
            payload = cache.load("suite-task", _task_key(settings, cache_sizes, task))
            if payload is not None:
                results[task] = payload
                done(task, 0.0, "checkpoint")
        todo = [task for task in tasks if task not in results]
        if todo:  # every missing task joins the one pass
            t0 = time.perf_counter()
            payloads, errors = _run_group(
                workload, todo, grid, cache_sizes,
                shards=shards, jobs=jobs, retries=retries, task_timeout=task_timeout,
                runlog=runlog, cache=cache if checkpointing else None, on_retry=on_retry,
            )
            share = (time.perf_counter() - t0) / len(todo)
            for task, payload in payloads.items():  # in task order
                results[task] = payload
                if checkpointing:
                    cache.store("suite-task", _task_key(settings, cache_sizes, task), payload)
                done(task, share, "computed")
            if errors:
                task, exc = next(iter(errors.items()))
                raise failed(task, exc) from exc
    except BaseException as exc:
        runlog.finish(status="failed", error=repr(exc))
        if manifest is not None:
            runlog.write(manifest)
        raise
    runlog.finish(status="completed")
    if manifest is not None:
        runlog.write(manifest)
    return _assemble(grid, tc_rows, results)


# -- caching -------------------------------------------------------------


def suite_cache_key(settings: WorkloadSettings, grid, tc_rows=None) -> tuple:
    """The artifact-cache address of a full suite result.

    Public so other consumers of the engine (``repro.serve`` job dedupe)
    can probe for finished suites at exactly the address this module
    stores them under — a batch CLI run warms the service and vice versa.
    """
    return (settings, tuple(grid), tuple(grid if tc_rows is None else tc_rows))


def suite_for(
    settings: WorkloadSettings,
    grid: tuple[tuple[int, int], ...] = CACHE_CFA_GRID,
    *,
    tc_rows: tuple[tuple[int, int], ...] | None = None,
    progress: bool = False,
    jobs: int = 1,
    shards: int | None = None,
    resume: bool = True,
    task_timeout: float | None = None,
    retries: int = 2,
    manifest: Path | str | None = None,
) -> SuiteResults:
    """The suite for ``settings`` over ``grid``, through the artifact cache.

    A hit returns without building the workload at all (and, when asked,
    writes a ``cached`` manifest). A miss runs :func:`compute_suite` on
    :func:`~repro.experiments.harness.get_workload` with the other
    arguments and stores the result, so a computed suite reads the
    ``suite`` kind exactly once. ``shards`` and ``jobs`` only affect how
    a miss is computed, never the key: sharded results are bit-identical
    to fused ones.
    """
    _check_shards(shards)
    tc_rows = grid if tc_rows is None else tc_rows
    cache = default_cache()
    key = suite_cache_key(settings, grid, tc_rows)
    suite = cache.load("suite", key)
    if isinstance(suite, SuiteResults):
        if manifest is not None:
            runlog = RunLog("suite", settings=settings, n_tasks=0, cache=cache)
            runlog.event("suite-cache-hit", source="disk")
            runlog.finish(status="cached")
            runlog.write(manifest)
        return suite
    suite = compute_suite(
        get_workload(settings), grid, tc_rows=tc_rows, progress=progress, jobs=jobs,
        shards=shards, resume=resume, task_timeout=task_timeout, retries=retries,
        manifest=manifest,
    )
    cache.store("suite", key, suite)
    return suite
