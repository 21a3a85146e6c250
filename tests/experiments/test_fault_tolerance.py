"""Fault-tolerant suite engine: checkpoint/resume, retry, timeout, manifest.

Each test points ``REPRO_CACHE_DIR`` at its own directory so checkpoint
state never leaks between tests (the default cache re-reads the env on
every access); workload and profile stay warm in the in-memory layers.

Per-task failures are injected at the ``_unit_for`` seam — the engine
builds each task's streams through it, in the calling process, so a
raising unit stands in for any per-task failure while the rest of the
pass proceeds. Failures of the pass are injected into its shard jobs
(``_family_shard``, ``_relay_shard``), which a suite with ``jobs > 1``
runs on the worker pool and a ``jobs=1`` suite runs in-process (one
relay job when there is one shard).
"""

import dataclasses
import errno
import json
import os
import re
import time
from types import SimpleNamespace

import pytest

from repro.cache import ARTIFACT_VERSIONS, ArtifactCache, default_cache
from repro.cache import store as store_mod
from repro.experiments import suite as suite_mod
from repro.experiments.config import PRIMARY_ROWS
from repro.experiments.harness import get_workload
from repro.experiments.suite import (
    SuiteTaskError,
    SuiteTimeoutError,
    compute_suite,
)
from repro.simulators import FetchStream, ShardError, miss_counter, run_sharded
from repro.simulators import fused as fused_mod
from repro.simulators import sharded as sharded_mod
from repro.tpcd.workload import WorkloadSettings
from repro.validate.generators import random_case

SETTINGS = WorkloadSettings(scale=0.0005)
GRID = PRIMARY_ROWS[:2]
FAIL_TASK = ("row", GRID[1])

REAL_UNIT = suite_mod._unit_for
REAL_FAMILY = sharded_mod._family_shard
REAL_RELAY = sharded_mod._relay_shard


@pytest.fixture(scope="module")
def workload():
    return get_workload(SETTINGS)


@pytest.fixture(autouse=True)
def _private_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    yield


def _flatten(s):
    out = {"n": s.n_instructions}
    for row, cells in s.cells.items():
        for name, m in cells.items():
            out[(row, name)] = dataclasses.astuple(m)
    out["assoc"] = s.assoc_miss
    out["victim"] = s.victim_miss
    out["tc"] = (s.tc_ideal, s.tc_hit_rate, tuple(sorted(s.tc_ipc.items())))
    out["tc_ops"] = tuple(sorted(s.tc_ops_ipc.items()))
    return out


def _checkpoint_files():
    root = default_cache().root
    return list(root.rglob("suite-task/*.pkl"))


def _shard_checkpoint_files():
    return list(default_cache().root.rglob("suite-shard/*.pkl"))


def _wait_for(condition, seconds: float = 60.0) -> None:
    """Poll ``condition`` until it holds, for at most ``seconds``."""
    deadline = time.monotonic() + seconds
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.05)


def test_failing_task_names_task_and_preserves_checkpoints(workload, monkeypatch):
    def boom(wl, task, grid, cache_sizes, layout_memo=None):
        if task == FAIL_TASK:
            raise ValueError("injected deterministic failure")
        return REAL_UNIT(wl, task, grid, cache_sizes, layout_memo)

    monkeypatch.setattr(suite_mod, "_unit_for", boom)
    with pytest.raises(SuiteTaskError) as excinfo:
        compute_suite(workload, GRID, jobs=1)
    assert suite_mod._task_label(FAIL_TASK) in str(excinfo.value)
    assert excinfo.value.task == FAIL_TASK
    # the failed task is isolated to its unit: every other task of the
    # fused group completed and survived the crash
    n_tasks = len(suite_mod._suite_tasks(GRID, GRID))
    assert len(_checkpoint_files()) == n_tasks - 1


def test_resume_recomputes_only_missing_and_is_bit_identical(
    workload, tmp_path, monkeypatch
):
    def boom(wl, task, grid, cache_sizes, layout_memo=None):
        if task == FAIL_TASK:
            raise ValueError("injected deterministic failure")
        return REAL_UNIT(wl, task, grid, cache_sizes, layout_memo)

    monkeypatch.setattr(suite_mod, "_unit_for", boom)
    with pytest.raises(SuiteTaskError):
        compute_suite(workload, GRID, jobs=1)
    checkpointed = len(_checkpoint_files())
    assert 0 < checkpointed < len(suite_mod._suite_tasks(GRID, GRID))

    calls = []

    def counting(wl, task, grid, cache_sizes, layout_memo=None):
        calls.append(task)
        return REAL_UNIT(wl, task, grid, cache_sizes, layout_memo)

    monkeypatch.setattr(suite_mod, "_unit_for", counting)
    manifest = tmp_path / "resume.json"
    resumed = compute_suite(workload, GRID, jobs=1, manifest=manifest)
    resume_calls = list(calls)
    assert FAIL_TASK in resume_calls
    assert len(resume_calls) == len(suite_mod._suite_tasks(GRID, GRID)) - checkpointed

    fresh = compute_suite(workload, GRID, jobs=1, resume=False)
    assert _flatten(resumed) == _flatten(fresh)

    data = json.loads(manifest.read_text())
    assert data["status"] == "completed"
    assert data["settings"]["scale"] == SETTINGS.scale
    sources = [t["source"] for t in data["tasks"]]
    assert sources.count("checkpoint") == checkpointed
    assert sources.count("computed") == len(resume_calls)
    assert all(t["seconds"] >= 0 for t in data["tasks"])
    assert "cache" in data and data["cache"]["hits"] >= checkpointed


def test_parallel_failure_cancels_pending_and_resume_completes(
    workload, tmp_path, monkeypatch
):
    """A shard job that fails on the pool (``jobs=2``, no ``shards``) fails
    the run naming that job; the shard jobs checkpointed before it are
    reused by the resume."""

    def boom(trace, program, chunk_events, plan, family, shard_idx):
        if shard_idx == plan.n_shards - 1:
            # fail once another shard job is checkpointed, so the resume
            # has something to reuse
            _wait_for(_shard_checkpoint_files)
            raise ValueError("injected parallel failure")
        return REAL_FAMILY(trace, program, chunk_events, plan, family, shard_idx)

    monkeypatch.setattr(sharded_mod, "_family_shard", boom)
    manifest = tmp_path / "fail.json"
    with pytest.raises(SuiteTaskError) as excinfo:
        compute_suite(workload, GRID, jobs=2, manifest=manifest)
    failed_job = ("family", 1)  # jobs=2 plans two shards
    assert excinfo.value.task == ("shard", failed_job)
    assert suite_mod._task_label(("shard", failed_job)) in str(excinfo.value)
    data = json.loads(manifest.read_text())
    assert data["status"] == "failed"
    assert len(data["tasks"]) == 1  # only the failure: no task completed
    checkpointed = {p.name for p in _shard_checkpoint_files()}
    assert checkpointed

    monkeypatch.setattr(sharded_mod, "_family_shard", REAL_FAMILY)
    manifest = tmp_path / "resume.json"
    resumed = compute_suite(workload, GRID, jobs=2, manifest=manifest)
    fresh = compute_suite(workload, GRID, jobs=1, resume=False)
    assert _flatten(resumed) == _flatten(fresh)
    # checkpoints written before the failure were reused, not recomputed
    assert checkpointed <= {p.name for p in _shard_checkpoint_files()}
    data = json.loads(manifest.read_text())
    sources = [e["source"] for e in data["events"] if e["type"] == "shard-job"]
    assert sources.count("checkpoint") == len(checkpointed)


@pytest.mark.parametrize("jobs", [1, 2])
def test_transient_failure_retries_then_succeeds(workload, tmp_path, monkeypatch, jobs):
    marker = tmp_path / "failed-once"  # cross-process: workers are forks

    def flaky(wl, task, grid, cache_sizes, layout_memo=None):
        if task == FAIL_TASK and not marker.exists():
            marker.write_text("x")
            raise OSError("injected transient failure")
        return REAL_UNIT(wl, task, grid, cache_sizes, layout_memo)

    monkeypatch.setattr(suite_mod, "_unit_for", flaky)
    manifest = tmp_path / "retry.json"
    result = compute_suite(workload, GRID, jobs=jobs, manifest=manifest)

    fresh = compute_suite(workload, GRID, jobs=1, resume=False)
    assert _flatten(result) == _flatten(fresh)
    data = json.loads(manifest.read_text())
    retries = [e for e in data["events"] if e["type"] == "retry"]
    assert len(retries) == 1
    assert retries[0]["task"] == suite_mod._task_label(FAIL_TASK)
    retried = next(t for t in data["tasks"] if t["label"] == suite_mod._task_label(FAIL_TASK))
    assert retried["attempts"] == 2


def test_retried_unit_joins_the_one_pass(workload, tmp_path, monkeypatch):
    """A task whose streams fail to build once is retried before the pass
    and joins it: a ``jobs=1`` suite makes one pass over the trace."""
    marker = tmp_path / "failed-once"
    passes = []
    real_contexts = fused_mod.iter_chunk_contexts

    def counting(trace, *args, **kwargs):
        passes.append(trace)
        return real_contexts(trace, *args, **kwargs)

    def flaky(wl, task, grid, cache_sizes, layout_memo=None):
        if task == FAIL_TASK and not marker.exists():
            marker.write_text("x")
            raise OSError("injected transient failure")
        return REAL_UNIT(wl, task, grid, cache_sizes, layout_memo)

    monkeypatch.setattr(fused_mod, "iter_chunk_contexts", counting)
    monkeypatch.setattr(suite_mod, "_unit_for", flaky)
    compute_suite(workload, GRID, jobs=1)
    assert marker.exists()
    assert len(passes) == 1 and passes[0] is workload.test_trace


def test_deterministic_failure_is_not_retried(workload, tmp_path, monkeypatch):
    attempts = []

    def boom(wl, task, grid, cache_sizes, layout_memo=None):
        if task == FAIL_TASK:
            attempts.append(task)
            raise ValueError("deterministic: retrying would be futile")
        return REAL_UNIT(wl, task, grid, cache_sizes, layout_memo)

    monkeypatch.setattr(suite_mod, "_unit_for", boom)
    manifest = tmp_path / "fail.json"
    with pytest.raises(SuiteTaskError):
        compute_suite(workload, GRID, jobs=1, manifest=manifest)
    assert len(attempts) == 1
    data = json.loads(manifest.read_text())
    assert data["status"] == "failed"
    failed = [t for t in data["tasks"] if t["status"] == "failed"]
    assert len(failed) == 1 and "ValueError" in failed[0]["error"]


def test_hanging_parallel_task_raises_timeout_naming_it(workload, tmp_path, monkeypatch):
    """A shard job that hangs on the pool (``jobs=2``, no ``shards``) stalls
    the pass once every other job is done: the run fails with a timeout
    naming that job. Every other job returns a stub at once (the stall
    aborts the pass before anything reads them), so the 2.5 s bound is
    far above anything it waits on."""
    release = tmp_path / "release"  # cross-process: workers are forks

    def hanging(trace, program, chunk_events, plan, family, shard_idx):
        if shard_idx == plan.n_shards - 1:
            _wait_for(release.exists)  # bounded, and released below
        return []

    def stub(trace, program, chunk_events, plan, chain, shard_idx, states):
        return []

    monkeypatch.setattr(sharded_mod, "_family_shard", hanging)
    monkeypatch.setattr(sharded_mod, "_relay_shard", stub)
    manifest = tmp_path / "stall.json"
    try:
        with pytest.raises(SuiteTimeoutError) as excinfo:
            compute_suite(workload, GRID, jobs=2, task_timeout=2.5, manifest=manifest)
    finally:
        release.write_text("x")  # let the orphaned worker finish
    hung = repr(("family", 1))  # jobs=2 plans two shards
    assert excinfo.value.labels == [hung]
    assert hung in str(excinfo.value)
    data = json.loads(manifest.read_text())
    assert data["status"] == "failed"
    stalls = [e for e in data["events"] if e["type"] == "stall"]
    assert [e["tasks"] for e in stalls] == [[hung]]


def test_dead_worker_pool_degrades_to_serial(workload, tmp_path, monkeypatch):
    """A relay step whose worker dies (``jobs=2``, no ``shards``) breaks the
    pool; the pass finishes its remaining shard jobs in-process."""
    parent = os.getpid()

    def killer(trace, program, chunk_events, plan, chain, shard_idx, states):
        if shard_idx == plan.n_shards - 1 and os.getpid() != parent:
            os._exit(3)  # hard worker death: no exception crosses the pipe
        return REAL_RELAY(trace, program, chunk_events, plan, chain, shard_idx, states)

    monkeypatch.setattr(sharded_mod, "_relay_shard", killer)
    manifest = tmp_path / "pool.json"
    result = compute_suite(workload, GRID, jobs=2, manifest=manifest)

    monkeypatch.setattr(sharded_mod, "_relay_shard", REAL_RELAY)
    fresh = compute_suite(workload, GRID, jobs=1, resume=False)
    assert _flatten(result) == _flatten(fresh)
    data = json.loads(manifest.read_text())
    assert data["status"] == "completed"
    assert any(e["type"] == "pool-broken" for e in data["events"])


def test_no_resume_recomputes_everything(workload, monkeypatch):
    compute_suite(workload, GRID, jobs=1)  # populate checkpoints
    calls = []

    def counting(wl, task, grid, cache_sizes, layout_memo=None):
        calls.append(task)
        return REAL_UNIT(wl, task, grid, cache_sizes, layout_memo)

    monkeypatch.setattr(suite_mod, "_unit_for", counting)
    compute_suite(workload, GRID, jobs=1, resume=False)
    assert len(calls) == len(suite_mod._suite_tasks(GRID, GRID))


def test_empty_grid_is_an_empty_run(workload, tmp_path):
    manifest = tmp_path / "empty.json"
    result = compute_suite(workload, (), jobs=2, progress=True, manifest=manifest)
    assert result.n_instructions == 0
    assert result.cells == {}
    data = json.loads(manifest.read_text())
    assert data["status"] == "completed"
    assert data["n_tasks"] == 0 and data["tasks"] == []


def test_failed_stores_are_counted_in_the_manifest(workload, tmp_path, monkeypatch):
    """A full disk drops checkpoints, but not silently: ``CacheStats``
    counts every failed store by errno, and the suite manifest shows the
    counts and names the full disk in a ``disk-full`` event."""

    def full_disk(*args, **kwargs):
        raise OSError(errno.ENOSPC, "injected: no space left on device")

    monkeypatch.setattr(store_mod, "tempfile", SimpleNamespace(mkstemp=full_disk))
    before = default_cache().stats.snapshot()
    manifest = tmp_path / "full-disk.json"
    compute_suite(workload, GRID[:1], jobs=1, manifest=manifest)
    delta = default_cache().stats.delta(before)
    failed = delta["store_errors"]
    assert delta["store_errors.ENOSPC"] == failed
    data = json.loads(manifest.read_text())
    assert data["cache"]["store_errors"] == data["cache"]["store_errors.ENOSPC"] == failed > 0
    assert data["cache"]["stores"] == 0
    full = [e for e in data["events"] if e["type"] == "disk-full"]
    assert full == [{"type": "disk-full", "errno": "ENOSPC", "dropped_stores": failed}]


# -- sharded execution: the shard job is the checkpoint/resume unit ------


def test_sharded_suite_is_bit_identical_to_serial(workload, tmp_path):
    manifest = tmp_path / "sharded.json"
    sharded = compute_suite(workload, GRID, jobs=1, shards=4, manifest=manifest)
    fresh = compute_suite(workload, GRID, jobs=1, resume=False)
    assert _flatten(sharded) == _flatten(fresh)
    data = json.loads(manifest.read_text())
    assert data["status"] == "completed"
    plans = [e for e in data["events"] if e["type"] == "shard-plan"]
    assert len(plans) == 1
    shard_jobs = [e for e in data["events"] if e["type"] == "shard-job"]
    assert shard_jobs and all(e["source"] == "computed" for e in shard_jobs)
    assert len(_shard_checkpoint_files()) == len(shard_jobs)


def test_every_suite_cache_kind_has_a_version(workload, tmp_path, monkeypatch):
    """A kind missing from ARTIFACT_VERSIONS would silently key at version
    0, so bumping it could never invalidate stale checkpoints."""
    written = set()
    real_store = ArtifactCache.store

    def spy(self, kind, key_obj, value):
        written.add(kind)
        return real_store(self, kind, key_obj, value)

    monkeypatch.setattr(ArtifactCache, "store", spy)
    suite_mod.suite_for(SETTINGS, GRID[:1], jobs=1)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "sharded-cache"))
    compute_suite(workload, GRID[:1], jobs=1, shards=2)
    assert {"suite", "suite-task", "suite-shard"} <= written
    assert written <= set(ARTIFACT_VERSIONS)


def test_sharded_failure_resumes_recomputing_only_missing_shards(
    workload, tmp_path, monkeypatch
):
    def boom(trace, program, chunk_events, plan, family, shard_idx):
        if shard_idx == plan.n_shards - 1:
            raise ValueError("injected mid-shard failure")
        return REAL_FAMILY(trace, program, chunk_events, plan, family, shard_idx)

    monkeypatch.setattr(sharded_mod, "_family_shard", boom)
    with pytest.raises(SuiteTaskError) as excinfo:
        compute_suite(workload, GRID, jobs=1, shards=2)
    assert excinfo.value.task[0] == "shard"
    survived = len(_shard_checkpoint_files())
    assert survived > 0  # shard jobs finished before the crash are kept

    monkeypatch.setattr(sharded_mod, "_family_shard", REAL_FAMILY)
    manifest = tmp_path / "shard-resume.json"
    resumed = compute_suite(workload, GRID, jobs=1, shards=2, manifest=manifest)
    fresh = compute_suite(workload, GRID, jobs=1, resume=False)
    assert _flatten(resumed) == _flatten(fresh)
    data = json.loads(manifest.read_text())
    sources = [e["source"] for e in data["events"] if e["type"] == "shard-job"]
    assert sources.count("checkpoint") == survived
    assert sources.count("computed") == len(sources) - survived > 0


def test_sharded_transient_failure_retries_then_succeeds(
    workload, tmp_path, monkeypatch
):
    marker = tmp_path / "failed-once"  # cross-process: workers are forks

    def flaky(trace, program, chunk_events, plan, family, shard_idx):
        if shard_idx == 0 and not marker.exists():
            marker.write_text("x")
            raise OSError("injected transient shard failure")
        return REAL_FAMILY(trace, program, chunk_events, plan, family, shard_idx)

    monkeypatch.setattr(sharded_mod, "_family_shard", flaky)
    manifest = tmp_path / "shard-retry.json"
    result = compute_suite(workload, GRID, jobs=1, shards=2, retries=2, manifest=manifest)
    assert marker.exists()

    monkeypatch.setattr(sharded_mod, "_family_shard", REAL_FAMILY)
    fresh = compute_suite(workload, GRID, jobs=1, resume=False)
    assert _flatten(result) == _flatten(fresh)
    data = json.loads(manifest.read_text())
    retries = [e for e in data["events"] if e["type"] == "retry"]
    assert [e["task"] for e in retries] == [suite_mod._task_label(("shard", ("family", 0)))]


def test_one_job_pass_retries_its_job(workload, tmp_path, monkeypatch):
    """With one worker and one shard the pass is one relay job; a transient
    failure of it retries the job, and the manifest names it."""
    marker = tmp_path / "failed-once"

    def flaky(trace, program, chunk_events, plan, chain, shard_idx, states):
        if not marker.exists():
            marker.write_text("x")
            raise OSError("injected transient shard failure")
        return REAL_RELAY(trace, program, chunk_events, plan, chain, shard_idx, states)

    monkeypatch.setattr(sharded_mod, "_relay_shard", flaky)
    manifest = tmp_path / "one-job-retry.json"
    result = compute_suite(workload, GRID, jobs=1, manifest=manifest)
    assert marker.exists()

    monkeypatch.setattr(sharded_mod, "_relay_shard", REAL_RELAY)
    fresh = compute_suite(workload, GRID, jobs=1, resume=False)
    assert _flatten(result) == _flatten(fresh)
    data = json.loads(manifest.read_text())
    job = ("relay", 0, 0)
    retries = [e for e in data["events"] if e["type"] == "retry"]
    assert [e["task"] for e in retries] == [suite_mod._task_label(("shard", job))]
    shard_jobs = [e for e in data["events"] if e["type"] == "shard-job"]
    assert shard_jobs == [{"type": "shard-job", "job": list(job), "source": "computed"}]


def test_sharded_dead_worker_pool_degrades_and_stays_identical(
    workload, tmp_path, monkeypatch
):
    parent = os.getpid()

    def killer(trace, program, chunk_events, plan, family, shard_idx):
        if shard_idx == 0 and os.getpid() != parent:
            os._exit(3)  # hard worker death: no exception crosses the pipe
        return REAL_FAMILY(trace, program, chunk_events, plan, family, shard_idx)

    monkeypatch.setattr(sharded_mod, "_family_shard", killer)
    manifest = tmp_path / "shard-pool.json"
    result = compute_suite(workload, GRID, jobs=2, shards=2, manifest=manifest)

    monkeypatch.setattr(sharded_mod, "_family_shard", REAL_FAMILY)
    fresh = compute_suite(workload, GRID, jobs=1, resume=False)
    assert _flatten(result) == _flatten(fresh)
    data = json.loads(manifest.read_text())
    assert data["status"] == "completed"
    (broken,) = [e for e in data["events"] if e["type"] == "pool-broken"]
    assert broken["remaining"] >= 1  # the killed job at least ran in-process
    assert "BrokenProcessPool" in broken["error"]


@pytest.mark.parametrize("shards", [0, -3])
def test_shard_counts_below_one_are_rejected(workload, monkeypatch, shards):
    """Rejected before any cache lookup, workload build or layout build."""

    def touched(*args, **kwargs):
        pytest.fail("looked something up for an invalid shard count")

    for name in ("default_cache", "get_workload", "_unit_for"):
        monkeypatch.setattr(suite_mod, name, touched)
    calls = [
        lambda: compute_suite(workload, GRID, shards=shards),
        lambda: suite_mod.suite_for(SETTINGS, GRID, shards=shards),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="shards must be >= 1"):
            call()


# -- failure classification: only what can succeed on retry retries -----

FAILURE_KINDS = [
    pytest.param(PermissionError("injected"), False, id="PermissionError"),
    pytest.param(FileNotFoundError("injected"), False, id="FileNotFoundError"),
    pytest.param(IsADirectoryError("injected"), False, id="IsADirectoryError"),
    pytest.param(NotADirectoryError("injected"), False, id="NotADirectoryError"),
    pytest.param(OSError(errno.ENOSPC, "injected"), False, id="ENOSPC"),
    pytest.param(OSError(errno.EDQUOT, "injected"), False, id="EDQUOT"),
    pytest.param(OSError(errno.EROFS, "injected"), False, id="EROFS"),
    pytest.param(OSError("injected, no errno"), True, id="OSError"),
    pytest.param(MemoryError("injected"), True, id="MemoryError"),
    pytest.param(EOFError("injected"), True, id="EOFError"),
]


@pytest.mark.parametrize("engine", ["compute_suite", "run_sharded"])
@pytest.mark.parametrize("exc, transient", FAILURE_KINDS)
def test_only_failures_that_can_succeed_are_retried(
    workload, monkeypatch, engine, exc, transient
):
    """Every job fails with ``exc``: a permanent kind is attempted exactly
    once, a transient kind once plus ``retries`` times."""
    retries = 2
    attempts = []
    if engine == "compute_suite":

        def failing(wl, task, grid, cache_sizes, layout_memo=None):
            attempts.append(task == FAIL_TASK)
            raise exc

        monkeypatch.setattr(suite_mod, "_unit_for", failing)
        with pytest.raises(SuiteTaskError) as excinfo:
            compute_suite(workload, GRID, jobs=1, retries=retries)
    else:
        case = random_case(2)
        line_bytes = case.cache_configs[0].line_bytes
        # the direct-mapped-only stream runs in the family jobs that fail;
        # the other stream relays whole
        pairs = [
            (
                case.layout,
                FetchStream(
                    case.layout.name,
                    line_bytes=line_bytes,
                    consumers=[miss_counter(case.cache_configs[0])],
                ),
            ),
            (
                case.layout,
                FetchStream(
                    case.layout.name,
                    line_bytes=line_bytes,
                    consumers=[miss_counter(c) for c in case.cache_configs],
                ),
            ),
        ]

        def failing(trace, program, chunk_events, plan, family, shard_idx):
            attempts.append(shard_idx == 0)
            raise exc

        monkeypatch.setattr(sharded_mod, "_family_shard", failing)
        with pytest.raises(ShardError) as excinfo:
            run_sharded(
                case.trace, case.program, pairs, chunk_events=64, shards=2, retries=retries
            )
    assert excinfo.value.cause is exc
    assert attempts.count(True) == (1 + retries if transient else 1)


# -- the progress echo: the run log, printed as it is recorded ----------

ECHO_LINE = re.compile(r"\[suite \+\d+\.\d{2}s\] (.+)")


def test_progress_echo_reports_each_record_once(workload, tmp_path, monkeypatch, capsys):
    """``progress=True`` prints one line per record of the run log: a
    retried task shows its retry once and its completion once, task lines
    count up to ``n/n``, and every shard job shows up as it finishes,
    before the first task line (tasks finish when the pass does)."""
    marker = tmp_path / "failed-once"

    def flaky(wl, task, grid, cache_sizes, layout_memo=None):
        if task == FAIL_TASK and not marker.exists():
            marker.write_text("x")
            raise OSError("injected transient failure")
        return REAL_UNIT(wl, task, grid, cache_sizes, layout_memo)

    monkeypatch.setattr(suite_mod, "_unit_for", flaky)
    compute_suite(workload, GRID, jobs=1, shards=2, progress=True)
    records = [ECHO_LINE.fullmatch(line) for line in capsys.readouterr().err.splitlines()]
    assert records and all(records)
    records = [match.group(1) for match in records]
    n_tasks = len(suite_mod._suite_tasks(GRID, GRID))
    task_lines = [i for i, text in enumerate(records) if re.match(r"\d+/\d+ ", text)]
    assert [records[i].split()[0] for i in task_lines] == [
        f"{k}/{n_tasks}" for k in range(1, n_tasks + 1)
    ]
    retries = [text for text in records if text.startswith("retry ")]
    assert len(retries) == 1 and suite_mod._task_label(FAIL_TASK) in retries[0]
    shard_jobs = [i for i, text in enumerate(records) if text.startswith("shard-job ")]
    assert shard_jobs and max(shard_jobs) < min(task_lines)


def test_quick_run_checkpoints_seed_the_larger_grid(workload, monkeypatch):
    quick = GRID[:1]
    compute_suite(workload, quick, jobs=1)
    calls = []

    def counting(wl, task, grid, cache_sizes, layout_memo=None):
        calls.append(task)
        return REAL_UNIT(wl, task, grid, cache_sizes, layout_memo)

    monkeypatch.setattr(suite_mod, "_unit_for", counting)
    compute_suite(workload, GRID, jobs=1)
    # row/tc_ops checkpoints are grid-independent: the quick run's rows
    # are reused, only the new row and the per-cache-size bases recompute
    assert ("row", GRID[0]) not in calls
    assert ("tc_ops", GRID[0]) not in calls
    assert ("row", GRID[1]) in calls
