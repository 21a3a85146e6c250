"""Performance smoke benchmark: suite wall-clock and simulator throughput.

Runs the evaluation suite once (uncached), once again resuming from the
per-task checkpoints the first run wrote (the warm-resume path a crashed
run takes), plus the individual simulator hot paths on a small workload,
and records the numbers — including the run's cache hit/miss counters,
the on-disk trace-format footprint/decode throughput, and the process's
peak RSS — to ``BENCH_suite.json`` at the repo root so regressions show
up in review.

Run: ``PYTHONPATH=src python benchmarks/perf_smoke.py [--scale 0.001] [--jobs N]
[--shards N] [--out PATH]``. With ``--shards`` above 1 the script exits 1
when the sharded suite is not identical to the serial one.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import pathlib
import resource
import sys
import time

from repro.cache import default_cache
from repro.experiments.config import KB, PRIMARY_ROWS
from repro.experiments.harness import get_workload, layouts_for, resolve_jobs
from repro.experiments.suite import compute_suite
from repro.profiling import TraceStore
from repro.simulators import sharded as sharded_mod
from repro.simulators import (
    CacheConfig,
    FetchStream,
    TraceCacheStream,
    miss_counter,
    run_fused,
)
from repro.tpcd.workload import WorkloadSettings

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _peak_rss_mb() -> float:
    """Lifetime peak resident set of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _TimedFeed:
    """Wrap a miss counter, accounting its feed() time and line count.

    Lets one streaming pass report the fetch unit and the i-cache model
    separately without ever materializing the full line stream (which at
    SF 0.01 would be gigabytes — exactly what the pipeline avoids).
    """

    def __init__(self, inner) -> None:
        self.inner = inner
        self.seconds = 0.0
        self.n_lines = 0

    def feed(self, lines) -> None:
        t0 = time.perf_counter()
        self.inner.feed(lines)
        self.seconds += time.perf_counter() - t0
        self.n_lines += int(lines.size)


def _trace_format_stats(trace, n_instructions: int) -> dict | None:
    """On-disk footprint and streaming decode throughput of a stored trace."""
    if not isinstance(trace, TraceStore):
        return None
    stats = trace.stats()
    t0 = time.perf_counter()
    for _window, _nxt in trace.iter_events():
        pass
    decode_s = time.perf_counter() - t0
    return {
        "bytes": stats["bytes"],
        "raw_bytes": stats["raw_bytes"],
        "compression_ratio": round(stats["compression_ratio"], 3),
        "n_chunks": stats["n_chunks"],
        "chunk_events": stats["chunk_events"],
        "decode_seconds": round(decode_s, 3),
        "decode_minstr_per_s": round(n_instructions / decode_s / 1e6, 3) if decode_s else 0.0,
    }


def _suite_fingerprint(suite) -> tuple:
    """Every number a suite run produces, in a comparable shape."""
    cells = tuple(
        (row, name, dataclasses.astuple(m))
        for row, cs in sorted(suite.cells.items())
        for name, m in sorted(cs.items())
    )
    return (
        suite.n_instructions,
        cells,
        tuple(sorted(suite.assoc_miss.items())),
        tuple(sorted(suite.victim_miss.items())),
        suite.tc_ideal,
        suite.tc_hit_rate,
        tuple(sorted(suite.tc_ipc.items())),
        tuple(sorted(suite.tc_ops_ipc.items())),
    )


def _lane_makespan(durations: list[float], lanes: int) -> float:
    """Greedy longest-first schedule of independent items onto ``lanes``."""
    load = [0.0] * max(1, lanes)
    for d in sorted(durations, reverse=True):
        load[load.index(min(load))] += d
    return max(load)


def _measure_sharded(workload, grid, serial_suite, serial_seconds, shards, jobs) -> dict:
    """One cold sharded suite pass, instrumented per shard job.

    This box may have fewer cores than ``jobs``, so alongside the
    measured wall clock the record carries a *modeled* ``jobs``-lane
    makespan built from the measured per-job durations (family shard
    jobs are independent; each relay chain is one serial item), i.e. the
    speedup the same shard plan yields once every lane is a real core.
    """
    cache = default_cache()
    cache.clear("suite-task")
    cache.clear("suite-shard")
    job_seconds: list[tuple[str, float]] = []
    chain_index: dict[int, int] = {}  # id of a chain's list -> first-seen index
    real_family, real_relay = sharded_mod._family_shard, sharded_mod._relay_shard

    def timed_family(trace, program, chunk_events, plan, family, shard_idx):
        t0 = time.perf_counter()
        out = real_family(trace, program, chunk_events, plan, family, shard_idx)
        job_seconds.append((f"family:{shard_idx}", time.perf_counter() - t0))
        return out

    def timed_relay(trace, program, chunk_events, plan, chain, shard_idx, states):
        t0 = time.perf_counter()
        out = real_relay(trace, program, chunk_events, plan, chain, shard_idx, states)
        index = chain_index.setdefault(id(chain), len(chain_index))
        job_seconds.append((f"chain:{index}", time.perf_counter() - t0))
        return out

    sharded_mod._family_shard = timed_family
    sharded_mod._relay_shard = timed_relay
    try:
        t0 = time.perf_counter()
        suite = compute_suite(workload, grid, progress=True, jobs=1, shards=shards)
        sharded_s = time.perf_counter() - t0
    finally:
        sharded_mod._family_shard = real_family
        sharded_mod._relay_shard = real_relay

    # family jobs parallelize freely; a relay chain is one serial item
    chains: dict[str, float] = {}
    items: list[float] = []
    for key, seconds in job_seconds:
        if key.startswith("chain:"):
            chains[key] = chains.get(key, 0.0) + seconds
        else:
            items.append(seconds)
    items.extend(chains.values())
    busy = sum(seconds for _, seconds in job_seconds)
    overhead = max(sharded_s - busy, 0.0)  # reconciliation + plumbing
    lanes = max(jobs, 4)
    makespan = _lane_makespan(items, lanes) + overhead
    return {
        "shards": shards,
        "n_jobs": len(job_seconds),
        "suite_seconds": round(sharded_s, 3),
        "serial_suite_seconds": round(serial_seconds, 3),
        "speedup_measured_1cpu": round(serial_seconds / sharded_s, 3) if sharded_s else 0.0,
        "job_busy_seconds": round(busy, 3),
        "reconcile_overhead_seconds": round(overhead, 3),
        "modeled_lanes": lanes,
        "modeled_makespan_seconds": round(makespan, 3),
        "speedup_modeled": round(serial_seconds / makespan, 3) if makespan else 0.0,
        "identical_to_serial": _suite_fingerprint(suite) == _suite_fingerprint(serial_suite),
        "shard_job_seconds": [[k, round(v, 3)] for k, v in job_seconds],
    }


def _measure(scale: float, jobs: int, shards: int | None = None) -> dict:
    """One full measurement pass at ``scale``: suite, resume, hot paths."""
    t0 = time.perf_counter()
    workload = get_workload(WorkloadSettings(scale=scale))
    workload_s = time.perf_counter() - t0

    grid = PRIMARY_ROWS
    cache = default_cache()
    cache.clear("suite-task")  # make the first suite run genuinely cold
    stats0 = cache.stats.snapshot()
    t0 = time.perf_counter()
    suite = compute_suite(workload, grid, progress=True, jobs=jobs)
    suite_s = time.perf_counter() - t0

    # warm resume: every task checkpointed above, so this is load + assembly
    t0 = time.perf_counter()
    compute_suite(workload, grid, jobs=jobs)
    resume_s = time.perf_counter() - t0
    cache_delta = cache.stats.delta(stats0)

    sharded = (
        _measure_sharded(workload, grid, suite, suite_s, shards, jobs)
        if shards is not None and shards > 1
        else None
    )

    # one streaming pass measures the fetch unit and the i-cache model
    # separately (the counter's feed time is accounted by the shim); no
    # full-trace line stream is ever held in memory
    layout = layouts_for(workload, grid[0][0], grid[0][1], names=("orig",))["orig"]
    timed = _TimedFeed(miss_counter(CacheConfig(size_bytes=grid[0][0] * KB)))
    fetch = FetchStream(layout.name, consumers=[timed])
    t0 = time.perf_counter()
    run_fused(workload.test_trace, workload.program, [(layout, fetch)])
    fetch_s = time.perf_counter() - t0 - timed.seconds
    icache_s = timed.seconds
    n_lines = timed.n_lines
    n_instructions = fetch.n_instructions

    tc_stream = TraceCacheStream(layout.name)
    t0 = time.perf_counter()
    run_fused(workload.test_trace, workload.program, [(layout, tc_stream)])
    tc_s = time.perf_counter() - t0

    return {
        "scale": scale,
        "jobs": jobs,
        "grid_rows": len(grid),
        "n_instructions": n_instructions,
        "workload_seconds": round(workload_s, 3),
        "suite_seconds": round(suite_s, 3),
        "suite_resume_seconds": round(resume_s, 3),
        "cache_stats": cache_delta,
        "fetch_seconds": round(fetch_s, 3),
        "fetch_minstr_per_s": round(n_instructions / fetch_s / 1e6, 3),
        "icache_seconds": round(icache_s, 3),
        "icache_mlines_per_s": round(n_lines / icache_s / 1e6, 3),
        "trace_cache_seconds": round(tc_s, 3),
        "trace_cache_minstr_per_s": round(n_instructions / tc_s / 1e6, 3),
        "suite_n_instructions": suite.n_instructions,
        "sharded": sharded,
        "trace_format": _trace_format_stats(workload.test_trace, n_instructions),
        "peak_rss_mb": round(_peak_rss_mb(), 1),
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.001)
    parser.add_argument(
        "--scale-up",
        type=float,
        default=None,
        help="also measure at this larger scale; nested under 'scale_up'",
    )
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        help="also run one cold sharded suite pass (repro.simulators.sharded) "
        "at this shard count; nested under 'sharded'",
    )
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_suite.json"))
    args = parser.parse_args(argv)
    jobs = resolve_jobs(args.jobs)

    record = _measure(args.scale, jobs, args.shards)
    if args.scale_up is not None:
        record["scale_up"] = _measure(args.scale_up, jobs, args.shards)
    out = pathlib.Path(args.out)
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record, indent=2))
    print(f"wrote {out}")
    sharded = [r["sharded"] for r in (record, record.get("scale_up")) if r and r["sharded"]]
    if not all(r["identical_to_serial"] for r in sharded):
        sys.exit("FAIL: the sharded suite differs from the serial one")


if __name__ == "__main__":
    main()
