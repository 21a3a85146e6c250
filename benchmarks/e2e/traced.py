"""The traced run: per-layer metrics from the benchmark's own spans.

Nothing inside the engine is instrumented. Each layer is timed around
calls into its public functions, in a separate process from the untraced
end-to-end measurement:

* set-up layers: the steps of ``Workload.build`` one at a time
  (``build_database``, ``Database.kernel_model``, ``capture_trace`` for
  the training and test traces), then ``training_profile``;
* engine: two cold ``compute_suite`` calls, untraced. The workload's own
  call gives the task-pool and cache metrics from its manifest; a serial
  call after the mirror is the mirror's reference, for results and time;
* mirror: the suite's streams rebuilt from public constructors
  (``layouts_for``, ``FetchStream``, ``TraceCacheStream``,
  ``miss_counter(CacheConfig(...))``), grouped as ``compute_suite`` groups
  them, fed to ``run_fused`` through proxies that time trace decode, each
  stream's own ``feed`` and each counter's ``feed``. Its counters must
  reproduce the reference ``SuiteResults`` exactly;
* shards: the same stream composition, with plain streams (``run_sharded``
  rejects proxies), in one ``run_sharded(shards=2, jobs=2, on_job=...)``
  call whose jobs are timestamped as they complete.

If a later change removes one of these entry points, importing this module
fails and names it; the end-to-end metrics do not depend on this module.
"""

from __future__ import annotations

import os
import tempfile
import time
from dataclasses import dataclass
from itertools import accumulate, groupby
from pathlib import Path

import workloads

try:
    from repro.experiments.config import KB
    from repro.experiments.harness import layouts_for, training_profile
    from repro.simulators import (
        CacheConfig,
        FetchStream,
        TraceCacheStream,
        miss_counter,
        run_fused,
        run_sharded,
    )
    from repro.tpcd.workload import (
        TEST_QUERIES,
        TRAINING_QUERIES,
        Workload,
        WorkloadSettings,
        build_database,
        capture_trace,
    )
except ImportError as exc:  # pragma: no cover - only after an API change
    raise SystemExit(f"traced run: missing entry point: {exc}") from exc

#: ``compute_suite`` fuses at most this many contiguous tasks per trace pass.
FUSE_LIMIT = 8

#: Task-pool groups whose results reach the parent further apart than this
#: are separate groups (tasks of one group arrive within milliseconds).
BURST_GAP_S = 0.05

COUNTER_KINDS = {"dm": {}, "lru2": {"associativity": 2}, "victim": {"victim_lines": 16}}
LAYOUT_METRIC = {"orig": "orig", "P&H": "ph", "Torr": "torr", "auto": "auto", "ops": "ops"}


# -- proxies ---------------------------------------------------------------


class CounterProbe:
    """A miss counter whose ``feed`` time and line count are recorded."""

    def __init__(self, kind: str, config: CacheConfig) -> None:
        self.kind = kind
        self.inner = miss_counter(config)
        self.seconds = 0.0
        self.lines = 0

    def feed(self, lines) -> None:
        t0 = time.perf_counter()
        self.inner.feed(lines)
        self.seconds += time.perf_counter() - t0
        self.lines += int(lines.size)

    @property
    def misses(self) -> int:
        return self.inner.misses


class StreamProbe:
    """Times a stream's ``feed`` minus the time of its counters."""

    def __init__(self, stream) -> None:
        self.stream = stream
        self.line_bytes = stream.line_bytes
        self.seconds = 0.0

    def feed(self, chunk, lengths) -> None:
        consumers = self.stream.consumers
        before = sum(c.seconds for c in consumers)
        t0 = time.perf_counter()
        self.stream.feed(chunk, lengths)
        elapsed = time.perf_counter() - t0
        self.seconds += elapsed - (sum(c.seconds for c in consumers) - before)


class TraceProbe:
    """Times each window the stored trace decodes."""

    def __init__(self, trace) -> None:
        self.trace = trace
        self.seconds = 0.0
        self.windows = 0

    def iter_events(self, chunk_events, **kwargs):
        windows = self.trace.iter_events(chunk_events, **kwargs)
        while True:
            t0 = time.perf_counter()
            item = next(windows, None)
            self.seconds += time.perf_counter() - t0
            if item is None:
                return
            self.windows += 1
            yield item


# -- the suite's stream composition ---------------------------------------


@dataclass
class Unit:
    """One stream of one suite task and its attached miss counters."""

    task: tuple
    name: str  # layout name
    layout: object
    stream: object
    counters: dict  # (kind, cache KB) -> counter

    def observed(self) -> tuple:
        s = self.stream
        if isinstance(s, TraceCacheStream):
            head = (s.n_instructions, s.n_hits, s.n_misses, s.n_taken)
        else:
            head = (s.n_instructions, s.n_fetches, s.n_taken)
        return head + tuple(self.counters[k].misses for k in sorted(self.counters))


def units_for(task, grid, cache_sizes, layout_of, make_counter) -> list[Unit]:
    """The streams ``compute_suite`` builds for one task."""
    kind, arg = task

    def counters(kinds, sizes) -> dict:
        return {
            (k, c): make_counter(k, CacheConfig(size_bytes=c * KB, **COUNTER_KINDS[k]))
            for k in kinds
            for c in sizes
        }

    if kind in ("base", "tc"):
        names, geometry, sizes = (arg,), grid[0], cache_sizes
    else:
        names = ("Torr", "auto", "ops") if kind == "row" else ("ops",)
        geometry, sizes = arg, (arg[0],)
    kinds = ("dm", "lru2", "victim") if task == ("base", "orig") else ("dm",)
    cls = TraceCacheStream if kind in ("tc", "tc_ops") else FetchStream
    units = []
    for name in names:
        layout = layout_of(name, *geometry)
        attached = counters(kinds, sizes)
        units.append(
            Unit(task, name, layout, cls(layout.name, consumers=list(attached.values())), attached)
        )
    return units


def fidelity_errors(suite, units: list[Unit], grid) -> list[str]:
    """Where the mirror's counters disagree with an untraced suite result."""
    by = {(u.task, u.name): u for u in units}

    def rate(unit, kind, kb):
        return 100.0 * unit.counters[(kind, kb)].misses / unit.stream.n_instructions

    errors = []
    orig = by[(("base", "orig"), "orig")]
    if orig.stream.n_instructions != suite.n_instructions:
        errors.append(f"instructions {orig.stream.n_instructions} != {suite.n_instructions}")
    for row in grid:
        for name in ("orig", "P&H", "Torr", "auto", "ops"):
            task = ("base", name) if name in ("orig", "P&H") else ("row", row)
            got = rate(by[(task, name)], "dm", row[0])
            if got != suite.cells[row][name].miss_rate:
                errors.append(f"miss rate {row} {name}: {got} != {suite.cells[row][name].miss_rate}")
    for kind, table in (("lru2", suite.assoc_miss), ("victim", suite.victim_miss)):
        for kb, want in table.items():
            if rate(orig, kind, kb) != want:
                errors.append(f"{kind} miss rate {kb} KB: {rate(orig, kind, kb)} != {want}")
    tc = by[(("tc", "orig"), "orig")].stream
    if tc.n_hits / (tc.n_hits + tc.n_misses) != suite.tc_hit_rate:
        errors.append("trace-cache hit rate differs")
    return errors


# -- layers ----------------------------------------------------------------


def setup_layers(settings: WorkloadSettings, tmp: Path, metrics: dict) -> Workload:
    """The public steps of ``Workload.build``, timed one at a time."""
    os.environ["REPRO_CACHE_DIR"] = tempfile.mkdtemp(dir=tmp)
    t0 = time.perf_counter()
    db = build_database(settings.scale, seed=settings.seed)
    t1 = time.perf_counter()
    model = db.kernel_model(seed=settings.kernel_seed)
    t2 = time.perf_counter()
    training = capture_trace(db, model, TRAINING_QUERIES, ("btree",), path=tmp / "training.trace")
    test = capture_trace(db, model, TEST_QUERIES, ("btree", "hash"), path=tmp / "test.trace")
    t3 = time.perf_counter()
    workload = Workload(db=db, model=model, training_trace=training, test_trace=test,
                        settings=settings)
    training_profile(workload)
    t4 = time.perf_counter()
    metrics.update({
        "tpcd.build_database_s": (t1 - t0, "s"),
        "kernel.kernel_model_s": (t2 - t1, "s"),
        "kernel.capture_s": (t3 - t2, "s"),
        "kernel.events": (len(training) + len(test), "count"),
        "profiling.trace_bytes": (training.stats()["bytes"] + test.stats()["bytes"], "bytes"),
        "profiling.profile_s": (t4 - t3, "s"),
    })
    return workload


def pool_metrics(manifest: dict, jobs: int, shards: int | None) -> dict:
    """How the engine's task scheduler spent one call, from its manifest.

    Task ``seconds`` are, on the parallel task pool, each result's arrival
    since submission, and otherwise each task's share of its group's wall
    time. Group completions are counted from the groups' start.
    """
    done = [t for t in manifest["tasks"] if t["status"] == "completed"]
    if jobs > 1 and not (shards and shards > 1):
        arrivals = sorted(t["seconds"] for t in done)
        completions = arrivals[:1] + [
            b for a, b in zip(arrivals, arrivals[1:]) if b - a > BURST_GAP_S
        ]
        lanes = min(jobs, len(completions))
        # work-conserving FIFO: a queued group starts as a lane frees up
        busy = sum(completions) - sum(completions[: len(completions) - lanes])
    else:  # one lane; the tasks of a group carry equal shares
        durations = [share * len(list(g)) for share, g in groupby(t["seconds"] for t in done)]
        completions = list(accumulate(durations))
        lanes, busy = 1, sum(durations)
    events = [e["type"] for e in manifest["events"]]
    return {
        "suite.pool_groups": (len(completions), "count"),
        "suite.pool_group_s_max": (max(completions), "s"),
        "suite.pool_group_s_min": (min(completions), "s"),
        "suite.pool_idle_frac": (1.0 - busy / (lanes * manifest["wall_seconds"]), "ratio"),
        "suite.retries": (events.count("retry"), "count"),
        "suite.degraded": (events.count("pool-broken"), "count"),
        "cache.stores": (manifest["cache"]["stores"], "count"),
        "cache.hits": (manifest["cache"]["hits"], "count"),
        "cache.errors": (manifest["cache"]["errors"], "count"),
    }


def mirror(workload: Workload, spec) -> tuple[dict, list[Unit], dict]:
    """The suite's fused passes with every layer proxied.

    Returns (metrics, units, layouts built).
    """
    tasks = workloads.suite_tasks(spec.grid, spec.tc_rows)
    cache_sizes = sorted({c for c, _ in spec.grid})
    trace = TraceProbe(workload.test_trace)
    layout_s = dict.fromkeys(LAYOUT_METRIC, 0.0)
    built: dict = {}
    units: list[Unit] = []
    streams: list[StreamProbe] = []
    fused_s = 0.0
    layout_windows = builds = 0
    t_start = time.perf_counter()
    for start in range(0, len(tasks), FUSE_LIMIT):
        memo: dict = {}  # one layout memo per group, as in the engine

        def layout_of(name, cache_kb, cfa_kb, memo=memo):
            key = (name, cache_kb, cfa_kb)
            if key not in memo:
                t0 = time.perf_counter()
                memo[key] = layouts_for(workload, cache_kb, cfa_kb, names=(name,))[name]
                layout_s[name] += time.perf_counter() - t0
            return memo[key]

        group = [
            u
            for task in tasks[start : start + FUSE_LIMIT]
            for u in units_for(task, spec.grid, cache_sizes, layout_of, CounterProbe)
        ]
        probes = [StreamProbe(u.stream) for u in group]
        windows = trace.windows
        t0 = time.perf_counter()
        run_fused(trace, workload.program, [(u.layout, p) for u, p in zip(group, probes)])
        fused_s += time.perf_counter() - t0
        layout_windows += len(memo) * (trace.windows - windows)
        builds += len(memo)
        built.update(memo)
        units += group
        streams += probes
    total_s = time.perf_counter() - t_start

    counters = [c for u in units for c in u.counters.values()]
    fetch = [p for p in streams if isinstance(p.stream, FetchStream)]
    tcs = [p for p in streams if isinstance(p.stream, TraceCacheStream)]
    stream_s = sum(p.seconds for p in streams) + sum(c.seconds for c in counters)
    hits = sum(p.stream.n_hits for p in tcs)
    attempts = hits + sum(p.stream.n_misses for p in tcs)
    metrics = {
        "profiling.decode_s": (trace.seconds, "s"),
        "profiling.windows": (trace.windows, "count"),
        "fused.expand_s": (fused_s - trace.seconds - stream_s, "s"),
        "fused.layout_windows": (layout_windows, "count"),
        "fetch.orbit_s": (sum(p.seconds for p in fetch), "s"),
        "fetch.fetches": (sum(p.stream.n_fetches for p in fetch), "count"),
    }
    for kind in COUNTER_KINDS:
        of_kind = [c for c in counters if c.kind == kind]
        metrics[f"icache.{kind}_s"] = (sum(c.seconds for c in of_kind), "s")
        metrics[f"icache.{kind}_lines"] = (sum(c.lines for c in of_kind), "count")
    metrics.update({
        "tracecache.walk_s": (sum(p.seconds for p in tcs), "s"),
        "tracecache.attempts": (attempts, "count"),
        "tracecache.hit_rate": (hits / attempts, "ratio"),
    })
    for name, short in LAYOUT_METRIC.items():
        metrics[f"layout.{short}_s"] = (layout_s[name], "s")
    metrics["layout.builds"] = (builds, "count")
    metrics["traced.total_s"] = (total_s, "s")
    return metrics, units, built


def sharded_probe(workload: Workload, spec, layouts: dict) -> tuple[dict, list[Unit]]:
    """One ``run_sharded(shards=2, jobs=2)`` pass, jobs timestamped."""
    tasks = workloads.suite_tasks(spec.grid, spec.tc_rows)
    cache_sizes = sorted({c for c, _ in spec.grid})
    units = [
        u
        for task in tasks
        for u in units_for(
            task, spec.grid, cache_sizes,
            lambda name, kb, cfa: layouts[(name, kb, cfa)],
            lambda kind, config: miss_counter(config),
        )
    ]
    done: list[tuple[str, float]] = []
    t0 = time.perf_counter()
    run_sharded(
        workload.test_trace, workload.program, [(u.layout, u.stream) for u in units],
        shards=2, jobs=2,
        on_job=lambda key, source: done.append((key[0], time.perf_counter() - t0)),
    )
    end = time.perf_counter() - t0
    last = max(t for _, t in done)
    metrics = {
        "sharded.jobs": (len(done), "count"),
        "sharded.family_done_s": (max(t for k, t in done if k == "family"), "s"),
        "sharded.relay_done_s": (max(t for k, t in done if k == "relay"), "s"),
        "sharded.reconcile_s": (end - last, "s"),
    }
    return metrics, units


def run(spec, base: float, seed: int, tmp: Path) -> dict:
    """The traced run of one workload; the same result shape as ``run.measure``."""
    settings = WorkloadSettings(scale=spec.scale(base), seed=seed)
    metrics: dict = {}
    errors: list[str] = []
    attempted = failed = 0
    workload = setup_layers(settings, tmp, metrics)

    def engine(jobs, shards):
        nonlocal attempted, failed
        seconds, suite, manifest = workloads.engine_call(
            workload, spec, jobs, shards, tempfile.mkdtemp(dir=tmp)
        )
        ops, bad = workloads.operations(manifest)
        call_errors = (
            ["suite call failed"] if suite is None
            else workloads.result_errors(suite, spec, base, seed)
        )
        errors.extend(call_errors)
        attempted += ops
        failed += ops if call_errors else bad
        return seconds, suite, manifest

    # the workload's own call runs first, as in the untraced run; the
    # serial reference runs after the mirror, so that the two passes the
    # overhead compares both find the process warm
    metrics.update(pool_metrics(engine(spec.jobs, spec.shards)[2], spec.jobs, spec.shards))
    layer_metrics, units, layouts = mirror(workload, spec)
    metrics.update(layer_metrics)
    serial_s, reference, _ = engine(1, None)
    metrics["traced.overhead_frac"] = (metrics["traced.total_s"][0] / serial_s - 1.0, "ratio")
    mismatch = fidelity_errors(reference, units, spec.grid) if reference is not None else []
    errors += [f"mirror: {e}" for e in mismatch]
    attempted += len(units)
    failed += len(units) if mismatch else 0

    shard_metrics, shard_units = sharded_probe(workload, spec, layouts)
    metrics.update(shard_metrics)
    differs = [u.task for u, v in zip(units, shard_units) if u.observed() != v.observed()]
    errors += [f"run_sharded differs from the mirror on {task}" for task in differs]
    attempted += shard_metrics["sharded.jobs"][0]
    failed += shard_metrics["sharded.jobs"][0] if differs else 0
    return {
        "errors": errors,
        "attempted": attempted,
        "failed": failed,
        "digest": workloads.suite_digest(reference) if reference is not None else None,
        "metrics": dict(sorted(metrics.items())),
    }
