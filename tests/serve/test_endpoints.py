"""Endpoint tests against an in-process server through the client library.

Fast protocol tests inject a stub ``execute_fn`` (no workloads built);
the round-trip/dedupe/upload-equivalence tests run real tiny jobs at
scale 0.0002 and share the session artifact cache with the CLI smoke
tests, so the workload build is paid at most once per session.
"""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro.experiments import harness
from repro.experiments.suite import suite_for
from repro.serve.client import Backpressure, ServeClient, ServeError
from repro.serve.codec import JobSpec, canonical_json, serialize_suite
from repro.serve.server import ServeApp

TINY = {"scale": 0.0002, "grid": [[8, 2]]}


def run(coro):
    return asyncio.run(coro)


async def _started(tmp_path, **kwargs) -> tuple[ServeApp, ServeClient]:
    app = ServeApp(spool=tmp_path / "spool", **kwargs)
    await app.start()
    return app, ServeClient("127.0.0.1", app.port, tenant="test")


# -- protocol behaviour (stubbed execution) ------------------------------


def _slow_execute(release: threading.Event):
    def execute(spec: JobSpec, manifest) -> dict:
        if not release.wait(timeout=30):
            raise TimeoutError("test never released the executor")
        return {"digest": spec.digest()}

    return execute


def test_health_metrics_and_unknown_routes(tmp_path):
    async def scenario():
        app, client = await _started(tmp_path)
        try:
            assert (await client.health())["status"] == "ok"
            metrics = await client.metrics()
            assert metrics["queue"] == {"depth": 0, "limit": 16}
            assert metrics["jobs"]["submitted"] == 0
            with pytest.raises(ServeError) as err:
                await client.request_json("GET", "/v1/nope")
            assert err.value.status == 404
            with pytest.raises(ServeError) as err:
                await client.request_json("PUT", "/v1/jobs", {})
            assert err.value.status == 405
            with pytest.raises(ServeError) as err:
                await client.get_job("job-999999")
            assert err.value.status == 404
        finally:
            await app.stop()

    run(scenario())


def test_bad_specs_answer_400(tmp_path):
    async def scenario():
        app, client = await _started(tmp_path)
        try:
            for payload in ({"scal": 0.1}, {"grid": []}, {"scale": -1}):
                with pytest.raises(ServeError) as err:
                    await client.submit_job(payload)
                assert err.value.status == 400
            # non-JSON body
            with pytest.raises(ServeError) as err:
                await client.request_json(
                    "POST", "/v1/jobs", raw_body=b"{nope", content_type="application/json"
                )
            assert err.value.status == 400
            # a job referencing a never-uploaded trace
            with pytest.raises(ServeError) as err:
                await client.submit_job({"trace_id": "f" * 40})
            assert err.value.status == 404
        finally:
            await app.stop()

    run(scenario())


def test_saturated_queue_answers_429_then_recovers(tmp_path):
    release = threading.Event()

    async def scenario():
        app, client = await _started(
            tmp_path, queue_limit=1, workers=1, execute_fn=_slow_execute(release)
        )
        try:
            first = await client.submit_job({"scale": 0.0002, "seed": 1, "grid": [[8, 2]]})
            for _ in range(100):  # wait for the worker to pull it off the queue
                if (await client.get_job(first["id"]))["state"] == "running":
                    break
                await asyncio.sleep(0.01)
            queued = await client.submit_job({"scale": 0.0002, "seed": 2, "grid": [[8, 2]]})
            with pytest.raises(Backpressure) as err:
                await client.submit_job({"scale": 0.0002, "seed": 3, "grid": [[8, 2]]})
            assert err.value.status == 429
            assert err.value.retry_after >= 0
            assert (await client.metrics())["jobs"]["rejected"] == 1
            release.set()
            done = await client.wait_job(queued["id"], timeout=30)
            assert done["state"] == "completed"
            # capacity is back: a new submission is accepted
            again = await client.submit_job({"scale": 0.0002, "seed": 4, "grid": [[8, 2]]})
            assert (await client.wait_job(again["id"], timeout=30))["state"] == "completed"
        finally:
            release.set()
            await app.stop()

    run(scenario())


def test_identical_inflight_submissions_share_one_execution(tmp_path):
    release = threading.Event()
    calls = []

    def counting_execute(spec, manifest):
        calls.append(spec.digest())
        if not release.wait(timeout=30):
            raise TimeoutError("never released")
        return {"digest": spec.digest()}

    async def scenario():
        app, client = await _started(
            tmp_path, queue_limit=4, workers=1, execute_fn=counting_execute
        )
        try:
            spec = {"scale": 0.0002, "seed": 5, "grid": [[8, 2]]}
            jobs = [await client.submit_job(spec) for _ in range(3)]
            release.set()
            records = [await client.wait_job(j["id"], timeout=30) for j in jobs]
            assert all(r["state"] == "completed" for r in records)
            assert len(calls) == 1, "identical specs must share one execution"
            assert {r["source"] for r in records} == {"computed", "inflight"}
            exec_id = records[0]["exec_id"]
            assert all(r["exec_id"] == exec_id for r in records)
            assert (await client.metrics())["dedupe"]["inflight"] == 2
        finally:
            release.set()
            await app.stop()

    run(scenario())


def test_failed_execution_reported_not_fatal(tmp_path):
    def exploding(spec, manifest):
        raise RuntimeError("boom")

    async def scenario():
        app, client = await _started(tmp_path, execute_fn=exploding)
        try:
            job = await client.submit_job({"scale": 0.0002, "seed": 6, "grid": [[8, 2]]})
            done = await client.wait_job(job["id"], timeout=30)
            assert done["state"] == "failed"
            assert "boom" in done["error"]
            assert (await client.health())["status"] == "ok", "server survived the failure"
        finally:
            await app.stop()

    run(scenario())


def test_malformed_upload_rejected_without_partial_store(tmp_path):
    async def scenario():
        app, client = await _started(tmp_path)
        try:
            with pytest.raises(ServeError) as err:
                await client.upload_trace(b"this is not an RTRC trace" * 100)
            assert err.value.status == 400
            assert "RTRC" in str(err.value) or "trace" in str(err.value)
            leftovers = list((app.spool / "traces").iterdir())
            assert leftovers == [], f"partial upload left behind: {leftovers}"
            # empty body: 411 (length required to be non-zero)
            with pytest.raises(ServeError) as err:
                await client.request_json(
                    "POST", "/v1/traces", raw_body=b"", content_type="application/octet-stream"
                )
            assert err.value.status == 411
            assert (await client.metrics())["traces"]["rejected"] == 2
        finally:
            await app.stop()

    run(scenario())


def test_oversized_upload_answers_413(tmp_path):
    async def scenario():
        app, client = await _started(tmp_path, max_upload_bytes=64)
        try:
            with pytest.raises(ServeError) as err:
                await client.upload_trace(b"z" * 1024)
            assert err.value.status == 413
            assert list((app.spool / "traces").iterdir()) == []
        finally:
            await app.stop()

    run(scenario())


def test_shutdown_endpoint_releases_waiters(tmp_path):
    async def scenario():
        app, client = await _started(tmp_path)
        try:
            waiter = asyncio.create_task(app.wait_shutdown())
            await asyncio.sleep(0)
            assert not waiter.done()
            assert (await client.shutdown())["status"] == "shutting down"
            await asyncio.wait_for(waiter, timeout=5)
        finally:
            await app.stop()

    run(scenario())


# -- real jobs (tiny workload, shared session cache) ---------------------


def test_round_trip_dedupe_and_batch_identity(tmp_path):
    async def scenario():
        app, client = await _started(tmp_path, workers=2)
        try:
            job = await client.submit_job(TINY)
            assert job["state"] in ("queued", "running")
            done = await client.wait_job(job["id"], timeout=300)
            assert done["state"] == "completed", done.get("error")
            doc = done["result"]
            assert doc["n_instructions"] > 0
            assert set(doc["cells"]["8/2"]) == {"P&H", "Torr", "auto", "ops", "orig"}

            # a second tenant submitting the identical spec hits the cache
            other = ServeClient("127.0.0.1", app.port, tenant="tenant-2")
            again = await other.submit_job(TINY)
            done2 = await other.wait_job(again["id"], timeout=30)
            assert done2["source"] in ("cache", "inflight")
            assert done2["result_digest"] == done["result_digest"]
            assert (await client.metrics())["dedupe"]["total"] >= 1

            # byte-identical to the batch engine's answer for the same job
            spec = JobSpec.from_dict(TINY)
            suite = suite_for(spec.settings, spec.grid, tc_rows=spec.tc_rows)
            assert canonical_json(serialize_suite(suite)) == canonical_json(doc)

            # manifests exist for both the executed and the deduped job
            manifests = list((app.spool / "manifests").glob("*.json"))
            assert len(manifests) >= 2
        finally:
            await app.stop()

    run(scenario())


def test_cold_pair_on_one_settings_both_complete(tmp_path, monkeypatch):
    """Two workers take two jobs on one cold settings with different
    grids, which in-flight dedupe does not merge: both threads reach the
    workload build at once, and both jobs complete."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setattr(harness, "_WORKLOADS", {})
    monkeypatch.setattr(harness, "_PROFILES", {})

    async def scenario():
        app, client = await _started(tmp_path, workers=2)
        try:
            jobs = [
                await client.submit_job({**TINY, "grid": grid})
                for grid in ([[8, 2]], [[16, 4]])
            ]
            done = await asyncio.gather(
                *(client.wait_job(job["id"], timeout=300) for job in jobs)
            )
            assert [d["state"] for d in done] == ["completed"] * 2, [
                d.get("error") for d in done
            ]
            assert [list(d["result"]["cells"]) for d in done] == [["8/2"], ["16/4"]]
        finally:
            await app.stop()

    run(scenario())


def test_uploaded_trace_job_matches_settings_job(tmp_path):
    """Uploading the workload's own Test trace and running it as a
    trace job must reproduce the settings-job result exactly."""

    async def scenario():
        app, client = await _started(tmp_path, workers=1)
        try:
            settings_job = await client.submit_job(TINY)
            base = await client.wait_job(settings_job["id"], timeout=300)
            assert base["state"] == "completed", base.get("error")

            from repro.experiments.harness import get_workload

            spec = JobSpec.from_dict(TINY)
            workload = get_workload(spec.settings)
            trace_bytes = workload.test_trace.path.read_bytes()

            meta = await client.upload_trace(trace_bytes)
            assert meta["n_events"] > 0 and not meta["deduped"]
            assert (await client.trace_info(meta["trace_id"]))["trace_id"] == meta["trace_id"]
            # identical re-upload dedupes on content address
            again = await client.upload_trace(trace_bytes)
            assert again["deduped"] and again["trace_id"] == meta["trace_id"]

            trace_job = await client.submit_job({**TINY, "trace_id": meta["trace_id"]})
            done = await client.wait_job(trace_job["id"], timeout=300)
            assert done["state"] == "completed", done.get("error")
            assert canonical_json(done["result"]) == canonical_json(base["result"])

            # and the trace-job result is now cached for other tenants
            rerun = await client.submit_job({**TINY, "trace_id": meta["trace_id"]})
            rerun_done = await client.wait_job(rerun["id"], timeout=30)
            assert rerun_done["source"] == "cache"
        finally:
            await app.stop()

    run(scenario())


def test_client_list_jobs_and_tenant_tagging(tmp_path):
    def instant(spec, manifest):
        return {"digest": spec.digest()}

    async def scenario():
        app, client = await _started(tmp_path, execute_fn=instant)
        try:
            job = await client.submit_job({"scale": 0.0002, "seed": 9, "grid": [[8, 2]]})
            await client.wait_job(job["id"], timeout=30)
            jobs = await client.list_jobs()
            assert [j["id"] for j in jobs] == [job["id"]]
            assert jobs[0]["tenant"] == "test"
            assert "result" not in jobs[0], "list view must not inline results"
        finally:
            await app.stop()

    run(scenario())
