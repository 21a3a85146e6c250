"""Async job manager: tenant requests onto the fault-tolerant suite engine.

The manager is the adapter between the HTTP front end and the batch
engine (:mod:`repro.experiments.suite`). Its contract:

* **Bounded intake.** Submissions land on an :class:`asyncio.Queue` of
  fixed capacity; a full queue raises :class:`QueueFullError`, which the
  server answers with 429 — saturation is explicit backpressure, never
  an unbounded backlog.
* **Cross-tenant dedupe.** Every spec has a content digest. A submission
  whose result already sits in the artifact cache completes immediately
  (``source="cache"``); one identical to a queued/running job attaches to
  that execution (``source="inflight"``) and completes when it does.
  Settings-only jobs probe the *same* artifact address the batch CLIs
  use (:func:`~repro.experiments.suite.suite_cache_key`), so a prior
  ``python -m repro.experiments`` run warms the service and vice versa.
* **Engine semantics preserved.** Executed jobs run
  :func:`~repro.experiments.suite.suite_for` /
  :func:`~repro.experiments.suite.compute_suite` in a worker thread with
  checkpoint/resume, bounded retries and task timeouts intact, and every
  job — executed or deduped — writes a JSON manifest under the spool
  directory recording what happened.

All manager state is touched only from the event-loop thread; worker
threads receive a spec and return a document, nothing else.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable

from repro.cache import default_cache
from repro.experiments.runlog import RunLog
from repro.experiments.suite import compute_suite, suite_cache_key, suite_for
from repro.profiling.tracestore import TraceStore
from repro.serve.codec import JobSpec, result_digest, serialize_suite
from repro.tpcd.workload import Workload

__all__ = [
    "Job",
    "JobManager",
    "QueueFullError",
    "UnknownTraceError",
    "percentile",
]


class QueueFullError(RuntimeError):
    """The job queue is at capacity (the server answers 429)."""

    def __init__(self, depth: int, limit: int) -> None:
        super().__init__(f"job queue full ({depth}/{limit})")
        self.depth = depth
        self.limit = limit


class UnknownTraceError(KeyError):
    """A job referenced a ``trace_id`` that was never uploaded."""

    def __init__(self, trace_id: str) -> None:
        super().__init__(trace_id)
        self.trace_id = trace_id


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile of an unsorted sample (0 for empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))  # ceil without math
    return ordered[int(rank) - 1]


@dataclass
class Job:
    """One tenant submission, from intake to served result."""

    id: str
    spec: JobSpec
    tenant: str | None = None
    state: str = "queued"  # queued | running | completed | failed
    source: str | None = None  # computed | cache | inflight
    exec_id: str | None = None  #: the job that ran the shared execution
    error: str | None = None
    submitted_at: str = ""
    t_submit: float = 0.0
    t_start: float | None = None
    t_done: float | None = None
    result: dict | None = None
    digest: str | None = None
    manifest: str | None = None

    @property
    def seconds(self) -> float | None:
        """Submit-to-done wall clock, once finished."""
        if self.t_done is None:
            return None
        return self.t_done - self.t_submit

    def public(self, *, include_result: bool = True) -> dict:
        doc = {
            "id": self.id,
            "state": self.state,
            "source": self.source,
            "exec_id": self.exec_id,
            "tenant": self.tenant,
            "spec": self.spec.as_dict(),
            "spec_digest": self.spec.digest(),
            "submitted_at": self.submitted_at,
            "seconds": self.seconds,
            "error": self.error,
            "result_digest": self.digest,
            "manifest": self.manifest,
        }
        if include_result and self.result is not None:
            doc["result"] = self.result
        return doc


class JobManager:
    """Bounded queue + worker pool + dedupe index over the suite engine."""

    def __init__(
        self,
        spool: Path | str,
        *,
        queue_limit: int = 16,
        workers: int = 2,
        engine_jobs: int = 1,
        engine_shards: int | None = None,
        retries: int = 2,
        task_timeout: float | None = None,
        trace_path_for: Callable[[str], Path | None] | None = None,
        cache=None,
        execute_fn: Callable[[JobSpec, Path], dict] | None = None,
    ) -> None:
        self.spool = Path(spool)
        self.manifest_dir = self.spool / "manifests"
        self.queue_limit = queue_limit
        self.workers = workers
        self.engine_jobs = engine_jobs
        self.engine_shards = engine_shards
        self.retries = retries
        self.task_timeout = task_timeout
        self._trace_path_for = trace_path_for or (lambda trace_id: None)
        self._cache = cache if cache is not None else default_cache()
        self._execute_fn = execute_fn or self._execute
        self._queue: asyncio.Queue[Job] = asyncio.Queue(maxsize=max(1, queue_limit))
        self._ids = itertools.count(1)
        self.jobs: dict[str, Job] = {}
        self._inflight: dict[str, Job] = {}  # spec digest -> executing job
        self._attached: dict[str, list[Job]] = {}  # exec job id -> riders
        self.counters = {
            "submitted": 0,
            "completed": 0,
            "failed": 0,
            "rejected": 0,
            "dedupe_cache": 0,
            "dedupe_inflight": 0,
        }
        self._exec_seconds: list[float] = []
        self._worker_tasks: list[asyncio.Task] = []

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        self.manifest_dir.mkdir(parents=True, exist_ok=True)
        if not self._worker_tasks:
            self._worker_tasks = [
                asyncio.create_task(self._worker(), name=f"serve-worker-{i}")
                for i in range(max(1, self.workers))
            ]

    async def close(self) -> None:
        for task in self._worker_tasks:
            task.cancel()
        for task in self._worker_tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._worker_tasks = []

    async def drain(self, poll: float = 0.05) -> None:
        """Wait until no job is queued or running (for --once/test runs)."""
        while any(job.state in ("queued", "running") for job in self.jobs.values()):
            await asyncio.sleep(poll)

    # -- intake ----------------------------------------------------------

    def submit(self, spec: JobSpec, tenant: str | None = None) -> Job:
        """Admit one spec: dedupe against cache and in-flight work, else
        enqueue. Raises :class:`QueueFullError` on a saturated queue and
        :class:`UnknownTraceError` for a dangling ``trace_id``."""
        if spec.trace_id is not None and self._trace_path_for(spec.trace_id) is None:
            raise UnknownTraceError(spec.trace_id)
        key = spec.digest()
        job = Job(
            id=f"job-{next(self._ids):06d}",
            spec=spec,
            tenant=tenant,
            submitted_at=datetime.now(timezone.utc).isoformat(timespec="seconds"),
            t_submit=time.perf_counter(),
        )

        cached_doc = self._load_cached(spec)
        if cached_doc is not None:
            self.jobs[job.id] = job
            self.counters["submitted"] += 1
            self.counters["dedupe_cache"] += 1
            self._complete(job, cached_doc, source="cache")
            self._write_dedupe_manifest(job)
            return job

        exec_job = self._inflight.get(key)
        if exec_job is not None:
            job.source = "inflight"
            job.exec_id = exec_job.id
            job.state = exec_job.state  # queued or running, mirrors the execution
            self.jobs[job.id] = job
            self.counters["submitted"] += 1
            self.counters["dedupe_inflight"] += 1
            self._attached.setdefault(exec_job.id, []).append(job)
            return job

        if self._queue.full():
            self.counters["rejected"] += 1
            raise QueueFullError(self._queue.qsize(), self.queue_limit)
        job.source = "computed"
        job.exec_id = job.id
        job.manifest = str(self.manifest_dir / f"{job.id}.json")
        self.jobs[job.id] = job
        self.counters["submitted"] += 1
        self._inflight[key] = job
        self._queue.put_nowait(job)
        return job

    def _load_cached(self, spec: JobSpec) -> dict | None:
        if spec.trace_id is not None:
            return self._cache.load("serve-result", self._trace_job_key(spec))
        suite = self._cache.load("suite", suite_cache_key(spec.settings, spec.grid, spec.tc_rows))
        if suite is None:
            return None
        try:
            return serialize_suite(suite)
        except Exception:
            return None  # foreign/stale artifact shape: recompute

    @staticmethod
    def _trace_job_key(spec: JobSpec) -> tuple:
        return (spec.settings, spec.grid, spec.tc_rows, spec.trace_id)

    # -- completion ------------------------------------------------------

    def _complete(self, job: Job, doc: dict, *, source: str) -> None:
        job.result = doc
        job.digest = result_digest(doc)
        job.source = source
        if job.exec_id is None:
            job.exec_id = job.id
        job.state = "completed"
        job.t_done = time.perf_counter()
        if job.t_start is None:
            job.t_start = job.t_done
        self.counters["completed"] += 1

    def _fail(self, job: Job, error: str) -> None:
        job.state = "failed"
        job.error = error
        job.t_done = time.perf_counter()
        self.counters["failed"] += 1

    def _write_dedupe_manifest(self, job: Job) -> None:
        """Deduped jobs still get a manifest naming their provenance."""
        path = self.manifest_dir / f"{job.id}.json"
        try:
            runlog = RunLog("serve-job", settings=job.spec.settings, n_tasks=0)
            runlog.event(
                "dedupe", source=job.source, spec_digest=job.spec.digest(), exec_id=job.exec_id
            )
            runlog.finish(status="cached")
            runlog.write(path)
            job.manifest = str(path)
        except OSError:
            pass  # manifests are observability, never job-fatal

    # -- execution -------------------------------------------------------

    async def _worker(self) -> None:
        while True:
            job = await self._queue.get()
            job.state = "running"
            job.t_start = time.perf_counter()
            for rider in self._attached.get(job.id, ()):
                rider.state = "running"
            try:
                doc = await asyncio.to_thread(self._execute_fn, job.spec, Path(job.manifest))
            except asyncio.CancelledError:
                raise
            except BaseException as exc:
                self._fail(job, repr(exc))
                for rider in self._attached.pop(job.id, []):
                    self._fail(rider, repr(exc))
            else:
                self._complete(job, doc, source="computed")
                self._exec_seconds.append(job.t_done - job.t_start)
                for rider in self._attached.pop(job.id, []):
                    rider.exec_id = job.id
                    self._complete(rider, doc, source="inflight")
                    self._write_dedupe_manifest(rider)
            finally:
                self._inflight.pop(job.spec.digest(), None)
                self._queue.task_done()

    def _execute(self, spec: JobSpec, manifest: Path) -> dict:
        """Run one spec on the batch engine (called in a worker thread)."""
        # per-job shard override beats the service-wide default; either
        # way the result (and its digest) is bit-identical to unsharded
        shards = spec.shards if spec.shards is not None else self.engine_shards
        if spec.trace_id is None:
            suite = suite_for(
                spec.settings,
                spec.grid,
                tc_rows=spec.tc_rows,
                jobs=self.engine_jobs,
                shards=shards,
                retries=self.retries,
                task_timeout=self.task_timeout,
                manifest=manifest,
            )
            return serialize_suite(suite)
        # Uploaded-trace job: the settings provide the static image and
        # Training profile; the uploaded stored trace replaces the Test
        # set. The derived workload is ad hoc (settings=None), so engine
        # checkpointing is off; completed results are cached whole under
        # the serve-result kind instead.
        from repro.experiments.harness import get_workload

        trace_path = self._trace_path_for(spec.trace_id)
        if trace_path is None:
            raise UnknownTraceError(spec.trace_id)
        base = get_workload(spec.settings)
        derived = Workload(
            db=base.db,
            model=base.model,
            training_trace=base.training_trace,
            test_trace=TraceStore(trace_path),
        )
        suite = compute_suite(
            derived,
            spec.grid,
            tc_rows=spec.tc_rows,
            jobs=self.engine_jobs,
            shards=shards,
            retries=self.retries,
            task_timeout=self.task_timeout,
            manifest=manifest,
        )
        doc = serialize_suite(suite)
        self._cache.store("serve-result", self._trace_job_key(spec), doc)
        return doc

    # -- observability ---------------------------------------------------

    def metrics(self) -> dict:
        live_queued = sum(1 for j in self.jobs.values() if j.state == "queued")
        live_running = sum(1 for j in self.jobs.values() if j.state == "running")
        return {
            "queue": {"depth": self._queue.qsize(), "limit": self.queue_limit},
            "workers": self.workers,
            "engine_jobs": self.engine_jobs,
            "engine_shards": self.engine_shards,
            "jobs": {
                **self.counters,
                "queued": live_queued,
                "running": live_running,
            },
            "dedupe": {
                "cache": self.counters["dedupe_cache"],
                "inflight": self.counters["dedupe_inflight"],
                "total": self.counters["dedupe_cache"] + self.counters["dedupe_inflight"],
            },
            "exec_seconds": {
                "count": len(self._exec_seconds),
                "p50": percentile(self._exec_seconds, 50),
                "p90": percentile(self._exec_seconds, 90),
                "p99": percentile(self._exec_seconds, 99),
                "max": max(self._exec_seconds, default=0.0),
            },
            "cache": self._cache.stats.as_dict(),
        }
