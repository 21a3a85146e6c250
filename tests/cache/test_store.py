import errno
import os
import time
from dataclasses import dataclass
from types import SimpleNamespace

import pytest

from repro.cache import (
    ARTIFACT_VERSIONS,
    ArtifactCache,
    cache_enabled,
    default_cache,
    stable_digest,
)
from repro.cache import store as store_mod
from repro.experiments.runlog import RunLog


@dataclass(frozen=True)
class Key:
    scale: float = 0.005
    seed: int = 7


def test_roundtrip_hit(tmp_path):
    cache = ArtifactCache(tmp_path)
    key = Key()
    assert cache.load("suite", key) is None
    assert not cache.has("suite", key)
    cache.store("suite", key, {"answer": 42})
    assert cache.has("suite", key)
    assert cache.load("suite", key) == {"answer": 42}


def test_digest_sensitivity():
    base = stable_digest(Key())
    assert base == stable_digest(Key())  # deterministic
    assert stable_digest(Key(scale=0.01)) != base
    assert stable_digest(Key(seed=8)) != base
    assert stable_digest((1, 2)) != stable_digest((1, "2"))


def test_unkeyable_object_rejected():
    with pytest.raises(TypeError):
        stable_digest(object())


def test_kind_and_version_salts_address_separately(tmp_path, monkeypatch):
    cache = ArtifactCache(tmp_path)
    key = Key()
    cache.store("suite", key, "suite-value")
    # a different kind with the same key is a different address
    assert cache.load("profile", key) is None
    # bumping the per-kind version invalidates that kind only
    monkeypatch.setitem(ARTIFACT_VERSIONS, "suite", ARTIFACT_VERSIONS["suite"] + 1)
    assert cache.load("suite", key) is None
    monkeypatch.undo()
    assert cache.load("suite", key) == "suite-value"


def test_corrupt_entry_is_a_miss_and_is_removed(tmp_path):
    cache = ArtifactCache(tmp_path)
    key = Key()
    path = cache.store("suite", key, "ok")
    path.write_bytes(b"not a pickle")
    assert cache.load("suite", key) is None
    assert not path.exists()
    assert cache.stats.corrupt_dropped == 1


def test_truncated_entry_is_a_miss_and_is_removed(tmp_path):
    cache = ArtifactCache(tmp_path)
    key = Key()
    path = cache.store("suite", key, list(range(1000)))
    path.write_bytes(path.read_bytes()[:10])  # killed mid-write long ago
    assert cache.load("suite", key) is None
    assert not path.exists()
    assert cache.stats.corrupt_dropped == 1


def test_transient_load_error_does_not_destroy_the_entry(tmp_path, monkeypatch):
    cache = ArtifactCache(tmp_path)
    key = Key()
    path = cache.store("suite", key, {"answer": 42})

    def raising_load(fh):
        raise ImportError("source tree mid-edit")

    monkeypatch.setattr(store_mod.pickle, "load", raising_load)
    assert cache.load("suite", key) is None  # a miss...
    assert path.exists()  # ...but the valid entry survives
    assert cache.stats.errors == 1
    monkeypatch.undo()
    assert cache.load("suite", key) == {"answer": 42}


def test_stats_count_hits_misses_and_stores(tmp_path):
    cache = ArtifactCache(tmp_path)
    cache.load("suite", "absent")
    cache.store("suite", "k", "v")
    cache.load("suite", "k")
    cache.load("suite", "k")
    assert cache.stats.misses == 1
    assert cache.stats.stores == 1
    assert cache.stats.hits == 2
    delta = cache.stats.delta(cache.stats.snapshot())
    assert all(v == 0 for v in delta.values())


def test_failed_stores_are_split_by_errno(tmp_path, monkeypatch):
    """Every dropped store counts under its errno; a full disk or quota
    also gets a ``disk-full`` manifest event, a read-only disk does not."""
    cache = ArtifactCache(tmp_path)
    log = RunLog("t", cache=cache)
    before = cache.stats.snapshot()
    codes = iter([errno.EDQUOT, errno.EROFS, errno.EDQUOT, None])

    def failing_mkstemp(*args, **kwargs):
        raise OSError(next(codes), "injected")

    monkeypatch.setattr(store_mod, "tempfile", SimpleNamespace(mkstemp=failing_mkstemp))
    for key in range(4):
        assert cache.store("suite", key, "v") is None
    delta = cache.stats.delta(before)
    assert before.store_errnos == {}
    assert delta["store_errors"] == 4
    split = {k: v for k, v in delta.items() if k.startswith("store_errors.")}
    assert split == {"store_errors.EDQUOT": 2, "store_errors.EROFS": 1, "store_errors.other": 1}
    log.finish()
    assert log.data["cache"] == delta
    assert [e for e in log.data["events"] if e["type"] == "disk-full"] == [
        {"type": "disk-full", "errno": "EDQUOT", "dropped_stores": 2}
    ]


def test_store_sweeps_stale_tmp_files_but_spares_fresh_ones(tmp_path):
    cache = ArtifactCache(tmp_path)
    first = cache.store("suite", "a", 1)
    stale = first.parent / "dead-writer.tmp"
    stale.write_bytes(b"partial")
    old = time.time() - 2 * store_mod.TMP_MAX_AGE_SECONDS
    os.utime(stale, (old, old))
    fresh = first.parent / "inflight-writer.tmp"
    fresh.write_bytes(b"partial")

    cache.store("suite", "b", 2)
    assert not stale.exists()  # orphan reclaimed
    assert fresh.exists()  # possibly another process mid-store: spared
    assert cache.stats.tmp_swept == 1


def test_clear_reclaims_tmp_files_regardless_of_age(tmp_path):
    cache = ArtifactCache(tmp_path)
    path = cache.store("suite", "a", 1)
    fresh = path.parent / "fresh-orphan.tmp"
    fresh.write_bytes(b"partial")
    assert cache.clear("suite") == 2  # the entry and the orphan
    assert not fresh.exists()


def test_disable_env(tmp_path, monkeypatch):
    cache = ArtifactCache(tmp_path)
    cache.store("suite", "k", "v")
    monkeypatch.setenv("REPRO_CACHE_DISABLE", "1")
    assert not cache_enabled()
    assert cache.load("suite", "k") is None
    assert cache.store("suite", "k2", "v2") is None
    monkeypatch.delenv("REPRO_CACHE_DISABLE")
    assert cache.load("suite", "k") == "v"


def test_default_cache_follows_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "alt"))
    cache = default_cache()
    assert cache.root == tmp_path / "alt"
    cache.store("profile", "k", [1, 2, 3])
    assert (tmp_path / "alt").exists()
    assert cache.load("profile", "k") == [1, 2, 3]


def test_clear(tmp_path):
    cache = ArtifactCache(tmp_path)
    cache.store("suite", "a", 1)
    cache.store("suite", "b", 2)
    cache.store("profile", "a", 3)
    assert cache.clear("suite") == 2
    assert cache.load("suite", "a") is None
    assert cache.load("profile", "a") == 3
    assert cache.clear() == 1
