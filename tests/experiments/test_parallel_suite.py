"""Parallel suite engine and persistent-cache behavior.

The parallel path must be bit-identical to serial, and warm disk-cache
lookups must skip recomputation (and, for ``suite_for``, the workload
build itself).
"""

import dataclasses
import gc
import threading
from types import SimpleNamespace

import pytest

from repro.cache import ArtifactCache, default_cache
from repro.experiments import harness, suite
from repro.experiments.config import PRIMARY_ROWS
from repro.experiments.harness import get_workload, training_profile
from repro.experiments.suite import compute_suite, get_suite, suite_cache_key, suite_for
from repro.serve.codec import result_digest, serialize_suite
from repro.tpcd.workload import WorkloadSettings

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
    first = get_suite(workload, GRID)
    key = suite_cache_key(SETTINGS, GRID, GRID)
    assert suite._SUITES.pop(key) is first
    monkeypatch.setattr(
        suite, "compute_suite", lambda *a, **k: pytest.fail("recomputed despite disk hit")
    )
    warm = get_suite(workload, GRID)
    assert _flatten(warm) == _flatten(first)


def test_suite_for_warm_hit_skips_workload_build(workload, monkeypatch):
    get_suite(workload, GRID)  # populate memory + disk
    key = suite_cache_key(SETTINGS, GRID, GRID)
    suite._SUITES.pop(key)
    monkeypatch.setattr(
        suite, "get_workload", lambda *a, **k: pytest.fail("built workload despite disk hit")
    )
    monkeypatch.setattr(
        suite, "compute_suite", lambda *a, **k: pytest.fail("recomputed despite disk hit")
    )
    warm = suite_for(SETTINGS, GRID)
    assert warm.cells[GRID[0]]["ops"].miss_rate == pytest.approx(
        get_suite(workload, GRID).cells[GRID[0]]["ops"].miss_rate
    )


def test_cold_suite_for_records_one_suite_miss(tmp_path, monkeypatch):
    """A computed suite reads the ``suite`` kind once, so manifests and
    ``/v1/metrics`` count one miss per computed suite."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setattr(suite, "_SUITES", {})
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


def test_profiles_keyed_by_settings_not_id(workload):
    assert training_profile(workload) is training_profile(workload)
    assert SETTINGS in harness._PROFILES


def test_adhoc_workload_profile_keyed_by_instance(workload):
    before = len(harness._PROFILES_ADHOC)
    adhoc = dataclasses.replace(workload, settings=None)
    profile = training_profile(adhoc)
    assert training_profile(adhoc) is profile
    assert adhoc in harness._PROFILES_ADHOC
    del adhoc
    gc.collect()
    # the weak key released the entry: no stale id-keyed aliasing possible
    assert len(harness._PROFILES_ADHOC) == before
