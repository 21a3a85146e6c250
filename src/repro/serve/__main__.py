"""``python -m repro.serve`` — run the layout-optimization service.

Examples::

    python -m repro.serve --port 8753 --workers 2 --queue-limit 16
    python -m repro.serve --port 0 --once     # bind, self-check, exit

``--once`` starts the server on the requested port, performs an
in-process health + metrics round-trip through the client library, and
exits — a hermetic startup self-test for smoke suites. A running server
shuts down gracefully on ``POST /v1/shutdown`` or SIGINT.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib

from repro.experiments.harness import shard_count
from repro.serve.client import ServeClient
from repro.serve.server import MAX_UPLOAD_BYTES, ServeApp


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Async multi-tenant layout-optimization service over the suite engine.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    parser.add_argument(
        "--port", type=int, default=8753, help="listen port; 0 picks an ephemeral port"
    )
    parser.add_argument(
        "--queue-limit",
        type=int,
        default=16,
        help="max queued jobs before submissions get 429 (default 16)",
    )
    parser.add_argument(
        "--workers", type=int, default=2, help="concurrent job executions (default 2)"
    )
    parser.add_argument(
        "--engine-jobs",
        type=int,
        default=1,
        help="suite-engine worker processes per job for its shard jobs "
        "(default 1: in-thread)",
    )
    parser.add_argument(
        "--engine-shards",
        type=shard_count,
        default=None,
        help="default shard count of the engine's pass (jobs may override "
        "per spec; default: --engine-jobs)",
    )
    parser.add_argument(
        "--retries", type=int, default=2, help="per-task transient-failure retries (default 2)"
    )
    parser.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="suite-engine stall bound per job (default: none)",
    )
    parser.add_argument(
        "--spool",
        default=None,
        metavar="DIR",
        help="directory for uploaded traces and per-job manifests "
        "(default: a fresh temporary directory)",
    )
    parser.add_argument(
        "--max-upload-mb",
        type=int,
        default=MAX_UPLOAD_BYTES // (1024 * 1024),
        help="largest accepted trace upload in MiB (default 512)",
    )
    parser.add_argument(
        "--once",
        action="store_true",
        help="start, run an in-process health/metrics self-check, and exit",
    )
    return parser


async def amain(args: argparse.Namespace) -> int:
    app = ServeApp(
        spool=args.spool,
        queue_limit=args.queue_limit,
        workers=args.workers,
        engine_jobs=args.engine_jobs,
        engine_shards=args.engine_shards,
        retries=args.retries,
        task_timeout=args.task_timeout,
        max_upload_bytes=args.max_upload_mb * 1024 * 1024,
    )
    await app.start(args.host, args.port)
    print(f"repro.serve listening on http://{args.host}:{app.port}", flush=True)
    print(f"repro.serve spool: {app.spool}", flush=True)
    try:
        if args.once:
            client = ServeClient(args.host, app.port, timeout=30.0)
            health = await client.health()
            metrics = await client.metrics()
            ok = health.get("status") == "ok" and "queue" in metrics
            print(
                "self-check {}: healthz + metrics round-trip on port {}".format(
                    "ok" if ok else "FAILED", app.port
                ),
                flush=True,
            )
            return 0 if ok else 1
        await app.wait_shutdown()
        print("repro.serve: shutdown requested", flush=True)
        return 0
    finally:
        await app.stop()


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with contextlib.suppress(KeyboardInterrupt):
        return asyncio.run(amain(args))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
