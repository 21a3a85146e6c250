"""Multi-tenant load test for the layout-optimization service.

Hammers an in-process ``repro.serve`` server (or an external one via
``--connect HOST:PORT``) with N concurrent tenants and reports latency
percentiles, throughput, dedupe and backpressure behaviour into
``BENCH_service.json``. Four phases:

1. **Main** — every tenant submits the same job spec ``--jobs-per-tenant``
   times and polls to completion: exactly one execution should compute,
   every other submission should dedupe (in-flight or artifact cache).
2. **Uploads** — every tenant uploads an identical synthetic RTRC trace;
   one store, the rest content-address dedupe.
3. **Backpressure probe** — a dedicated tiny server (queue limit 2, one
   worker) takes a burst of distinct real jobs; the overflow must be
   rejected with 429 (never crashes or unbounded queuing), and the
   accepted jobs must still complete.
4. **Batch check** — the same spec runs through the batch engine
   (:func:`repro.experiments.suite.suite_for`) and its serialization is
   compared byte-for-byte with the served result.

Exit status is non-zero if any job fails, no dedupe is observed, the
probe sees no 429, or the served result differs from the batch engine.

Run:  PYTHONPATH=src python examples/load_test.py --tenants 8 --scale 0.0005
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.experiments.config import CACHE_CFA_GRID, PRIMARY_ROWS
from repro.experiments.suite import suite_for
from repro.profiling.trace import BlockTrace
from repro.profiling.tracestore import write_trace
from repro.serve.client import Backpressure, ServeClient
from repro.serve.codec import JobSpec, canonical_json, serialize_suite
from repro.serve.jobs import percentile
from repro.serve.server import ServeApp

GRIDS = {
    "quick": ((8, 2),),
    "primary": PRIMARY_ROWS,
    "full": CACHE_CFA_GRID,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tenants", type=int, default=8, help="concurrent tenants (default 8)")
    parser.add_argument(
        "--jobs-per-tenant", type=int, default=2, help="submissions per tenant (default 2)"
    )
    parser.add_argument("--scale", type=float, default=0.0005, help="TPC-D scale (default 0.0005)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--kernel-seed", type=int, default=2029)
    parser.add_argument(
        "--grid", choices=sorted(GRIDS), default="quick", help="geometry grid (default quick)"
    )
    parser.add_argument("--queue-limit", type=int, default=16)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--engine-jobs", type=int, default=1)
    parser.add_argument("--poll", type=float, default=0.05, help="status poll interval seconds")
    parser.add_argument(
        "--connect",
        default=None,
        metavar="HOST:PORT",
        help="target an already-running server instead of an in-process one",
    )
    parser.add_argument(
        "--probe-scale", type=float, default=0.0002, help="scale for backpressure-probe jobs"
    )
    parser.add_argument("--skip-backpressure", action="store_true")
    parser.add_argument("--skip-uploads", action="store_true")
    parser.add_argument("--skip-batch-check", action="store_true")
    parser.add_argument(
        "--output", default="BENCH_service.json", metavar="PATH", help="benchmark report file"
    )
    return parser


def synthetic_trace_bytes() -> bytes:
    """A tiny, structurally valid RTRC stream for upload-dedupe testing."""
    events = np.tile(np.arange(48, dtype=np.int32), 64)
    with tempfile.TemporaryDirectory(prefix="load-test-trace-") as tmp:
        path = Path(tmp) / "synthetic.trace"
        write_trace(BlockTrace(events), path)
        return path.read_bytes()


async def run_tenant(
    client: ServeClient, spec: dict, n_jobs: int, poll: float, http_ms: list, jobs_out: list
) -> None:
    for _ in range(n_jobs):
        t0 = time.perf_counter()
        job = await client.submit_job_retry(spec)
        http_ms.append(1000 * (time.perf_counter() - t0))
        while True:
            t0 = time.perf_counter()
            record = await client.get_job(job["id"])
            http_ms.append(1000 * (time.perf_counter() - t0))
            if record["state"] in ("completed", "failed"):
                jobs_out.append(record)
                break
            await asyncio.sleep(poll)


async def backpressure_probe(args, spool: Path) -> dict:
    """Burst distinct real jobs at a deliberately tiny server; count 429s."""
    app = ServeApp(spool=spool, queue_limit=2, workers=1, engine_jobs=args.engine_jobs)
    await app.start()
    client = ServeClient("127.0.0.1", app.port, tenant="probe")
    burst = 2 + 1 + 4  # queue + worker + guaranteed overflow
    accepted, rejected = [], 0
    try:
        for i in range(burst):
            spec = {"scale": args.probe_scale, "seed": 90001 + i, "grid": [[8, 2]]}
            try:
                accepted.append(await client.submit_job(spec))
            except Backpressure:
                rejected += 1
        done = await asyncio.gather(
            *(client.wait_job(job["id"], poll=args.poll, timeout=600) for job in accepted)
        )
        completed = sum(1 for record in done if record["state"] == "completed")
    finally:
        await app.stop()
    return {
        "enabled": True,
        "burst": burst,
        "accepted": len(accepted),
        "rejected_429": rejected,
        "accepted_completed": completed,
        "accepted_failed": len(accepted) - completed,
    }


async def amain(args, scratch: Path) -> int:
    """The four phases; the in-process servers' spools go under ``scratch``."""
    grid = GRIDS[args.grid]
    spec = {
        "scale": args.scale,
        "seed": args.seed,
        "kernel_seed": args.kernel_seed,
        "grid": [list(row) for row in grid],
    }
    app = None
    if args.connect:
        host, _, port = args.connect.partition(":")
        host, port = host or "127.0.0.1", int(port)
    else:
        app = ServeApp(
            spool=scratch / "serve", queue_limit=args.queue_limit, workers=args.workers,
            engine_jobs=args.engine_jobs,
        )
        await app.start()
        host, port = "127.0.0.1", app.port
    print(f"load test -> http://{host}:{port} | {args.tenants} tenants x "
          f"{args.jobs_per_tenant} jobs | scale {args.scale} grid {args.grid}", flush=True)

    http_ms: list[float] = []
    job_records: list[dict] = []
    t_wall = time.perf_counter()
    try:
        clients = [
            ServeClient(host, port, tenant=f"tenant-{i:02d}") for i in range(args.tenants)
        ]
        await asyncio.gather(
            *(
                run_tenant(c, spec, args.jobs_per_tenant, args.poll, http_ms, job_records)
                for c in clients
            )
        )
        main_wall = time.perf_counter() - t_wall

        uploads = {"enabled": not args.skip_uploads}
        if not args.skip_uploads:
            payload = synthetic_trace_bytes()
            t0 = time.perf_counter()
            results = await asyncio.gather(*(c.upload_trace(payload) for c in clients))
            http_ms.extend([1000 * (time.perf_counter() - t0) / len(clients)] * len(clients))
            uploads.update(
                tenants=len(results),
                stored=sum(1 for r in results if not r["deduped"]),
                deduped=sum(1 for r in results if r["deduped"]),
                trace_id=results[0]["trace_id"],
            )

        metrics = await clients[0].metrics()
    finally:
        if app is not None:
            await app.stop()

    probe = {"enabled": False}
    if not args.skip_backpressure:
        probe = await backpressure_probe(args, scratch / "probe")

    failed = [r for r in job_records if r["state"] != "completed"]
    digests = {r["result_digest"] for r in job_records if r["state"] == "completed"}
    sources = {}
    for record in job_records:
        sources[record["source"]] = sources.get(record["source"], 0) + 1

    batch = {"enabled": not args.skip_batch_check}
    if not args.skip_batch_check:
        job_spec = JobSpec.from_dict(spec)
        suite = suite_for(job_spec.settings, job_spec.grid, tc_rows=job_spec.tc_rows)
        batch_doc = canonical_json(serialize_suite(suite))
        served = next(r for r in job_records if r["state"] == "completed")
        batch["identical"] = canonical_json(served["result"]) == batch_doc
        batch["digest"] = served["result_digest"]

    wall = time.perf_counter() - t_wall
    job_seconds = [r["seconds"] for r in job_records if r["seconds"] is not None]
    report = {
        "schema_version": 1,
        "config": {
            "tenants": args.tenants,
            "jobs_per_tenant": args.jobs_per_tenant,
            "scale": args.scale,
            "seed": args.seed,
            "kernel_seed": args.kernel_seed,
            "grid": args.grid,
            "grid_rows": [list(r) for r in grid],
            "queue_limit": args.queue_limit,
            "workers": args.workers,
            "engine_jobs": args.engine_jobs,
            "connect": args.connect,
        },
        "wall_seconds": round(wall, 3),
        "main_phase_seconds": round(main_wall, 3),
        "jobs": {
            "submitted": len(job_records),
            "completed": len(job_records) - len(failed),
            "failed": len(failed),
            "distinct_result_digests": len(digests),
            "sources": sources,
        },
        "dedupe": metrics["dedupe"] | {"traces": metrics["traces"]["dedupe"]},
        "http": {
            "requests": len(http_ms),
            "throughput_rps": round(len(http_ms) / main_wall, 1) if main_wall else 0.0,
            "latency_ms": {
                "p50": round(percentile(http_ms, 50), 3),
                "p90": round(percentile(http_ms, 90), 3),
                "p99": round(percentile(http_ms, 99), 3),
                "max": round(max(http_ms, default=0.0), 3),
            },
        },
        "job_seconds": {
            "p50": round(percentile(job_seconds, 50), 3),
            "p90": round(percentile(job_seconds, 90), 3),
            "p99": round(percentile(job_seconds, 99), 3),
            "max": round(max(job_seconds, default=0.0), 3),
        },
        "uploads": uploads,
        "backpressure": probe,
        "batch_check": batch,
        "server_metrics": metrics,
    }
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")

    problems = []
    if failed:
        problems.append(f"{len(failed)} job(s) failed")
    if len(digests) > 1:
        problems.append(f"tenants saw {len(digests)} distinct results for one spec")
    if report["dedupe"]["total"] == 0:
        problems.append("no cross-tenant dedupe observed")
    if probe["enabled"] and probe["rejected_429"] == 0:
        problems.append("backpressure probe saw no 429")
    if probe["enabled"] and probe.get("accepted_failed"):
        problems.append("backpressure probe had failed jobs")
    if batch["enabled"] and not batch.get("identical"):
        problems.append("served result != batch engine result")

    print(
        f"jobs: {report['jobs']['completed']}/{len(job_records)} completed | "
        f"dedupe: {report['dedupe']['total']} (cache {report['dedupe']['cache']}, "
        f"inflight {report['dedupe']['inflight']}, traces {report['dedupe']['traces']}) | "
        f"http p50/p99: {report['http']['latency_ms']['p50']}/"
        f"{report['http']['latency_ms']['p99']} ms | "
        f"429s: {probe.get('rejected_429', 'skipped')} | "
        f"batch identical: {batch.get('identical', 'skipped')}",
        flush=True,
    )
    print(f"report written to {args.output}", flush=True)
    if problems:
        print("FAILED: " + "; ".join(problems), file=sys.stderr, flush=True)
        return 1
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="load-test-") as scratch:
        return asyncio.run(amain(args, Path(scratch)))


if __name__ == "__main__":
    raise SystemExit(main())
