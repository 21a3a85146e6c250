"""Parallel suite engine, persistent-cache behavior and concurrent callers.

The parallel path must be bit-identical to serial, warm disk-cache
lookups must skip recomputation and the workload build itself,
concurrent cold calls must build each workload once, and the process
keeps only a few workloads, each with its Training profile.
"""

import dataclasses
import hashlib
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from repro.cache import ArtifactCache, default_cache
from repro.cfg.weighted import WeightedCFG
from repro.experiments import harness, suite
from repro.experiments.config import PRIMARY_ROWS
from repro.experiments.harness import get_workload, training_profile
from repro.experiments.suite import compute_suite, suite_for
from repro.serve.codec import result_digest, serialize_suite
from repro.tpcd.workload import WorkloadSettings, uploaded_trace_path

SETTINGS = WorkloadSettings(scale=0.0005)
GRID = PRIMARY_ROWS[:2]


@pytest.fixture(scope="module")
def workload():
    return get_workload(SETTINGS)


def _flatten(s):
    out = {"n": s.n_instructions}
    for row, cells in s.cells.items():
        for name, m in cells.items():
            out[(row, name)] = dataclasses.astuple(m)
    out["assoc"] = s.assoc_miss
    out["victim"] = s.victim_miss
    out["tc"] = (s.tc_ideal, s.tc_hit_rate, tuple(sorted(s.tc_ipc.items())))
    out["tc_ops"] = tuple(sorted(s.tc_ops_ipc.items()))
    out["tc_ops_ideal"] = tuple(sorted(s.tc_ops_ideal.items()))
    return out


def test_parallel_is_bit_identical_to_serial(workload):
    # resume=False so the parallel run actually computes rather than
    # loading the serial run's task checkpoints
    serial = compute_suite(workload, GRID, jobs=1, resume=False)
    parallel = compute_suite(workload, GRID, jobs=3, resume=False)
    assert _flatten(serial) == _flatten(parallel)


def test_concurrent_parallel_suites_keep_their_own_workload():
    """Two threads fan their suites' shard jobs over fork pools at the
    same moment, as ``repro.serve --workers 2 --engine-jobs 2`` does: each
    call's workers must simulate that call's workload, never the other
    thread's."""
    workloads = [get_workload(WorkloadSettings(scale=0.0002, seed=seed)) for seed in (7, 8)]

    def digest(workload, jobs):
        suite = compute_suite(workload, GRID, jobs=jobs, resume=False)
        return result_digest(serialize_suite(suite))

    serial = [digest(w, 1) for w in workloads]
    assert serial[0] != serial[1]
    barrier = threading.Barrier(len(workloads))
    concurrent: list = [None] * len(workloads)

    def caller(i: int) -> None:
        barrier.wait(timeout=60)
        try:
            concurrent[i] = digest(workloads[i], 2)
        except BaseException as exc:
            concurrent[i] = exc

    threads = [threading.Thread(target=caller, args=(i,)) for i in range(len(workloads))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=600)
    assert not any(thread.is_alive() for thread in threads)
    assert concurrent == serial


def test_get_suite_warm_disk_hit_skips_recompute(workload, monkeypatch):
    """With the workload already built, a suite on disk is returned
    without recomputing it, and equals the suite computed directly."""
    computed = compute_suite(workload, GRID)
    suite_for(SETTINGS, GRID)  # populates the disk cache
    monkeypatch.setattr(
        suite, "compute_suite", lambda *a, **k: pytest.fail("recomputed despite disk hit")
    )
    warm = suite_for(SETTINGS, GRID)
    assert _flatten(warm) == _flatten(computed)


def test_suite_for_warm_hit_skips_workload_build(monkeypatch):
    first = suite_for(SETTINGS, GRID)  # populates the disk cache
    monkeypatch.setattr(
        suite, "get_workload", lambda *a, **k: pytest.fail("built workload despite disk hit")
    )
    monkeypatch.setattr(
        suite, "compute_suite", lambda *a, **k: pytest.fail("recomputed despite disk hit")
    )
    warm = suite_for(SETTINGS, GRID)
    assert _flatten(warm) == _flatten(first)


def test_cold_suite_for_records_one_suite_miss(tmp_path, monkeypatch):
    """A computed suite reads the ``suite`` kind once, so manifests and
    ``/v1/metrics`` count one miss per computed suite."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setattr(suite, "get_workload", lambda settings: SimpleNamespace(settings=settings))
    monkeypatch.setattr(suite, "compute_suite", lambda *a, **k: suite.SuiteResults())
    loads = []
    real_load = ArtifactCache.load

    def spy(self, kind, key_obj):
        loads.append(kind)
        return real_load(self, kind, key_obj)

    monkeypatch.setattr(ArtifactCache, "load", spy)
    before = default_cache().stats.snapshot()
    suite_for(SETTINGS, GRID)
    assert loads == ["suite"]
    assert default_cache().stats.delta(before)["misses"] == 1


@pytest.mark.parametrize(
    "seeds", [(7, 7, 7), (7, 8, 9)], ids=["same-settings", "distinct-settings"]
)
def test_concurrent_cold_calls_build_each_workload_once(tmp_path, monkeypatch, seeds):
    """Three threads ask for suites on a cold cache at the same moment, as
    ``repro.serve``'s workers do: on one settings with different grids,
    or on distinct settings. Trace capture is process-global, so builds
    must not overlap: every call succeeds, and each workload and training
    profile is built once. A short switch interval makes the threads
    interleave often inside the check-then-build windows."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setattr(harness, "_WORKLOADS", {})
    builds, profiles = [], []
    real_build, real_profile = WorkloadSettings.build, harness.profile_trace
    monkeypatch.setattr(
        WorkloadSettings, "build", lambda self: builds.append(self) or real_build(self)
    )
    monkeypatch.setattr(
        harness, "profile_trace", lambda *a: profiles.append(a) or real_profile(*a)
    )
    settings = [WorkloadSettings(scale=0.0002, seed=seed) for seed in seeds]
    grids = [((8, 2),), ((16, 4),), ((32, 4),)]
    barrier = threading.Barrier(len(settings))
    results: list = [None] * len(settings)

    def caller(i: int) -> None:
        barrier.wait(timeout=60)
        try:
            results[i] = suite_for(settings[i], grids[i])
        except Exception as exc:
            results[i] = exc

    threads = [threading.Thread(target=caller, args=(i,)) for i in range(len(settings))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=600)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(isinstance(result, suite.SuiteResults) for result in results), results
    assert [tuple(result.cells) for result in results] == grids
    assert len(builds) == len(profiles) == len(set(settings))


def test_get_workload_warm_disk_hit_skips_build(monkeypatch):
    get_workload(SETTINGS)  # ensure built and persisted
    saved = harness._WORKLOADS.pop(SETTINGS)
    try:
        monkeypatch.setattr(
            WorkloadSettings, "build", lambda self: pytest.fail("rebuilt despite disk hit")
        )
        loaded = get_workload(SETTINGS)
        assert loaded.settings == SETTINGS
        assert loaded.test_trace.n_events == saved.test_trace.n_events
    finally:
        harness._WORKLOADS[SETTINGS] = saved


def test_workload_memo_evicts_the_oldest_entry(monkeypatch):
    """The process keeps a few workloads, each with its database: a new
    one evicts the oldest, which would reload from the artifact cache."""
    get_workload(SETTINGS)  # built and persisted
    placeholders = [
        WorkloadSettings(scale=0.0005, seed=100 + i) for i in range(harness._WORKLOADS_KEPT)
    ]
    monkeypatch.setattr(harness, "_WORKLOADS", {s: object() for s in placeholders})
    loaded = get_workload(SETTINGS)
    assert list(harness._WORKLOADS) == [*placeholders[1:], SETTINGS]
    assert harness._WORKLOADS[SETTINGS] is loaded


def test_memo_hit_never_takes_the_build_lock():
    """A memoized workload is served while another thread holds the build
    lock (a cold build of other settings in progress)."""
    memoized = get_workload(SETTINGS)
    got = []
    with harness._BUILD_LOCK:
        reader = threading.Thread(target=lambda: got.append(get_workload(SETTINGS)))
        reader.start()
        reader.join(timeout=30)
        served = not reader.is_alive()
    reader.join()
    assert served, "a memo hit waited for the build lock"
    assert got[0] is memoized


def test_profile_lives_on_its_workload(workload):
    """The Training profile is filled in on the workload and stored with
    it; a workload derived for an uploaded trace shares its base's, and a
    workload built by hand gets its own on first use."""
    profile = workload.profile
    assert isinstance(profile, WeightedCFG)
    assert training_profile(workload) is profile
    stored = default_cache().load("workload", SETTINGS)
    assert np.array_equal(stored.profile.block_count, profile.block_count)

    data = workload.test_trace.path.read_bytes()
    trace_id = hashlib.sha256(data).hexdigest()[:40]  # the upload's content id
    path = uploaded_trace_path(trace_id)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
    base = get_workload(SETTINGS)
    derived = get_workload(dataclasses.replace(SETTINGS, test_trace_id=trace_id))
    assert derived.profile is base.profile
    assert derived.test_trace.path == path
    assert derived.settings.test_trace_id == trace_id

    by_hand = dataclasses.replace(workload, settings=None, profile=None)
    fresh = training_profile(by_hand)
    assert by_hand.profile is fresh and training_profile(by_hand) is fresh
    assert np.array_equal(fresh.block_count, profile.block_count)
