"""Content-addressed on-disk artifact store.

Artifacts (built workloads, training profiles, suite results) are pickled
under ``$REPRO_CACHE_DIR`` (default ``~/.cache/repro-stc``), addressed by a
SHA-256 digest of a canonicalized key object plus two version salts:

* :data:`CACHE_VERSION` — the store format; bumping it orphans every entry
  (they live under a ``v<N>`` directory that is simply no longer read);
* a per-kind version from :data:`ARTIFACT_VERSIONS` — bump the entry for
  one artifact kind when the code producing it changes meaning, and only
  that kind's entries are invalidated.

Keys canonicalize dataclasses (class name + field items), mappings, and
sequences recursively, so any change to e.g. ``WorkloadSettings`` values
(scale, seed, kernel seed) or the evaluation grid produces a different
address. Writes are atomic (temp file + rename). Genuinely corrupt
entries (truncated or unparseable pickles) are dropped and behave as
misses; any other load error (``MemoryError``, an ``ImportError`` from a
mid-edit source tree, permissions) is surfaced as a miss *without*
deleting the entry, which may be perfectly valid. Every cache carries
:class:`CacheStats` counters so long runs can report hit/miss/error
behaviour in their manifests.
"""

from __future__ import annotations

import dataclasses
import errno
import hashlib
import os
import pickle
import tempfile
import time
from pathlib import Path
from typing import Any

__all__ = [
    "ARTIFACT_VERSIONS",
    "CACHE_VERSION",
    "ArtifactCache",
    "CacheStats",
    "cache_enabled",
    "default_cache",
    "stable_digest",
]

#: Store-format version: bump to orphan every cached artifact at once.
CACHE_VERSION = 1

#: Per-kind schema versions, folded into every key of that kind. Bump one
#: when the producing code changes what the artifact means.
ARTIFACT_VERSIONS: dict[str, int] = {
    "workload": 2,  # v2: traces stored as on-disk TraceStore files
    "profile": 1,
    # the four result kinds below were last bumped when a separator that
    # ends a window stopped letting its run fall through into the next one
    "suite": 2,
    "suite-task": 2,  # per-task suite checkpoints (crash/interrupt resume)
    # shard-job checkpoints of a sharded suite run (--shards); v2: family
    # payloads cover only fetch streams whose counters are all direct-mapped;
    # v4: a relay step carries a list of streams, {"states": [...]}
    "suite-shard": 4,
    "trace": 1,  # chunked trace files (repro.profiling.tracestore format v1)
    "serve-result": 2,  # repro.serve job results for uploaded-trace jobs
}

_ENV_DIR = "REPRO_CACHE_DIR"
_ENV_DISABLE = "REPRO_CACHE_DISABLE"
_ENV_MAX_BYTES = "REPRO_CACHE_MAX_BYTES"


def cache_enabled() -> bool:
    """Artifact caching is on unless ``REPRO_CACHE_DISABLE`` is truthy."""
    return os.environ.get(_ENV_DISABLE, "") not in ("1", "true", "yes")


def _default_root() -> Path:
    env = os.environ.get(_ENV_DIR)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-stc"


def _canonical(obj: Any) -> Any:
    """Reduce ``obj`` to a deterministic, hashable-by-repr structure."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = [(f.name, _canonical(getattr(obj, f.name))) for f in dataclasses.fields(obj)]
        return (type(obj).__name__, tuple(fields))
    if isinstance(obj, dict):
        return ("dict", tuple(sorted((str(k), _canonical(v)) for k, v in obj.items())))
    if isinstance(obj, (list, tuple)):
        return tuple(_canonical(v) for v in obj)
    if isinstance(obj, float):
        return repr(obj)  # repr round-trips exactly; 0.005 != 0.0050000001
    if obj is None or isinstance(obj, (bool, int, str, bytes)):
        return obj
    raise TypeError(f"cannot canonicalize {type(obj).__name__!r} for a cache key")


def stable_digest(obj: Any) -> str:
    """Hex SHA-256 of the canonicalized key object."""
    payload = repr(_canonical(obj)).encode()
    return hashlib.sha256(payload).hexdigest()[:40]


#: Orphaned write temporaries younger than this are left alone on the
#: opportunistic sweep — they may belong to an in-flight store in another
#: process. ``clear()`` ignores the age and reclaims everything.
TMP_MAX_AGE_SECONDS = 3600.0


@dataclasses.dataclass
class CacheStats:
    """Counters for one :class:`ArtifactCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    errors: int = 0  #: load errors surfaced as misses without unlinking
    store_errors: int = 0  #: stores dropped by an ``OSError`` (full or read-only disk)
    corrupt_dropped: int = 0  #: truncated/unparseable entries unlinked
    tmp_swept: int = 0  #: orphaned ``*.tmp`` files reclaimed
    evictions: int = 0  #: entries removed by the size-cap LRU sweep
    #: ``store_errors`` split by errno name (``ENOSPC``, ``EROFS``, ...;
    #: ``other`` for an ``OSError`` without one)
    store_errnos: dict[str, int] = dataclasses.field(default_factory=dict)

    def snapshot(self) -> "CacheStats":
        return dataclasses.replace(self, store_errnos=dict(self.store_errnos))

    def as_dict(self) -> dict[str, int]:
        """Flat counters: each errno of ``store_errnos`` that dropped a
        store appears as ``store_errors.<ERRNO>``."""
        out = {
            f.name: getattr(self, f.name)
            for f in dataclasses.fields(self)
            if f.name != "store_errnos"
        }
        out.update((f"store_errors.{name}", n) for name, n in self.store_errnos.items())
        return out

    def delta(self, since: "CacheStats") -> dict[str, int]:
        """Per-counter change since an earlier :meth:`snapshot`."""
        then = since.as_dict()
        return {name: n - then.get(name, 0) for name, n in self.as_dict().items()}


#: Load failures that prove the entry itself is damaged (truncated file,
#: garbage bytes). Anything else — MemoryError, ImportError while the
#: source tree is mid-edit, EPERM — may strike a valid entry and must not
#: destroy it.
_CORRUPT_EXCEPTIONS = (pickle.UnpicklingError, EOFError)


class ArtifactCache:
    """Pickle-backed artifact store with content-addressed keys."""

    def __init__(
        self, root: Path | str | None = None, *, max_bytes: int | None = None
    ) -> None:
        self._root = Path(root) if root is not None else None
        self._max_bytes = max_bytes
        self.stats = CacheStats()

    @property
    def root(self) -> Path:
        """Resolved store root (env re-read when no explicit root given)."""
        return self._root if self._root is not None else _default_root()

    @property
    def max_bytes(self) -> int | None:
        """Optional total-size cap (``$REPRO_CACHE_MAX_BYTES`` when unset).

        ``None``/``0`` means unbounded — the sweep never runs and stores
        cost nothing extra.
        """
        if self._max_bytes is not None:
            return self._max_bytes or None
        env = os.environ.get(_ENV_MAX_BYTES, "").strip()
        if not env:
            return None
        try:
            cap = int(env)
        except ValueError:
            return None
        return cap if cap > 0 else None

    def path_for(self, kind: str, key_obj: Any) -> Path:
        digest = stable_digest((kind, ARTIFACT_VERSIONS.get(kind, 0), key_obj))
        return self.root / f"v{CACHE_VERSION}" / kind / f"{digest}.pkl"

    def load(self, kind: str, key_obj: Any) -> Any | None:
        """The stored artifact, or ``None`` on miss/corruption/disable.

        Only genuine corruption (truncation, unparseable bytes) deletes
        the entry; transient errors leave it in place for the next reader.
        """
        if not cache_enabled():
            return None
        path = self.path_for(kind, key_obj)
        try:
            with open(path, "rb") as fh:
                value = pickle.load(fh)
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except _CORRUPT_EXCEPTIONS:
            self.stats.misses += 1
            self.stats.corrupt_dropped += 1
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass
            return None
        except Exception:
            self.stats.misses += 1
            self.stats.errors += 1
            return None
        self.stats.hits += 1
        try:
            os.utime(path)  # refresh recency for the LRU-by-mtime sweep
        except OSError:
            pass
        return value

    def store(self, kind: str, key_obj: Any, value: Any) -> Path | None:
        """Atomically persist ``value``; returns its path (None if disabled)."""
        if not cache_enabled():
            return None
        path = self.path_for(kind, key_obj)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    pickle.dump(value, fh, protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp, path)
            except BaseException:
                os.unlink(tmp)
                raise
        except OSError as exc:
            # read-only or full disk: caching is best-effort, but counted
            self.stats.store_errors += 1
            name = errno.errorcode.get(exc.errno, "other")
            self.stats.store_errnos[name] = self.stats.store_errnos.get(name, 0) + 1
            return None
        self.stats.stores += 1
        self._sweep_tmp(path.parent)
        self._enforce_cap(protect=path)
        return path

    def has(self, kind: str, key_obj: Any) -> bool:
        return cache_enabled() and self.path_for(kind, key_obj).exists()

    def file_path(self, kind: str, key_obj: Any, suffix: str = ".bin") -> Path:
        """Content-addressed location for a *file* artifact.

        For artifacts that manage their own on-disk format (e.g. stored
        traces), the cache hands out an addressed path instead of
        pickling; the producer is responsible for writing it atomically
        (write to a ``*.tmp`` sibling, then rename — orphaned temporaries
        are reclaimed by the same sweep as pickle writes).
        """
        digest = stable_digest((kind, ARTIFACT_VERSIONS.get(kind, 0), key_obj))
        return self.root / f"v{CACHE_VERSION}" / kind / f"{digest}{suffix}"

    def _sweep_tmp(self, directory: Path, max_age: float = TMP_MAX_AGE_SECONDS) -> int:
        """Reclaim orphaned ``*.tmp`` files left by killed writers.

        Files younger than ``max_age`` seconds survive: they may belong to
        a store in flight in another process.
        """
        now = time.time()
        removed = 0
        try:
            candidates = list(directory.glob("*.tmp"))
        except OSError:
            return 0
        for p in candidates:
            try:
                if now - p.stat().st_mtime >= max_age:
                    p.unlink()
                    removed += 1
            except OSError:
                pass
        self.stats.tmp_swept += removed
        return removed

    def _enforce_cap(self, protect: Path | None = None) -> int:
        """LRU-by-mtime sweep: evict oldest entries until under ``max_bytes``.

        Runs after every successful store when a cap is configured; the
        just-written entry (``protect``) is never evicted, so a single
        artifact larger than the cap still lands (the cap then empties the
        rest of the store around it). Concurrent readers racing an
        eviction observe an ordinary miss and recompute. Returns the
        number of entries removed.
        """
        cap = self.max_bytes
        if cap is None:
            return 0
        base = self.root / f"v{CACHE_VERSION}"
        entries: list[tuple[float, int, Path]] = []
        total = 0
        try:
            candidates = list(base.rglob("*"))
        except OSError:
            return 0
        for p in candidates:
            try:
                if not p.is_file() or p.suffix == ".tmp":
                    continue
                st = p.stat()
            except OSError:
                continue
            total += st.st_size
            if protect is None or p != protect:
                entries.append((st.st_mtime, st.st_size, p))
        if total <= cap:
            return 0
        entries.sort()  # oldest mtime first
        removed = 0
        for _, size, p in entries:
            if total <= cap:
                break
            try:
                p.unlink()
            except OSError:
                continue
            total -= size
            removed += 1
        self.stats.evictions += removed
        return removed

    def clear(self, kind: str | None = None) -> int:
        """Remove cached entries (one kind, or everything); returns count.

        Also reclaims orphaned write temporaries regardless of age.
        """
        base = self.root / f"v{CACHE_VERSION}"
        if kind is not None:
            base = base / kind
        if not base.exists():
            return 0
        removed = 0
        for p in sorted(base.rglob("*")):
            if not p.is_file() or p.suffix == ".tmp":
                continue
            try:
                p.unlink()
                removed += 1
            except OSError:
                pass
        for directory in {p.parent for p in base.rglob("*.tmp")}:
            removed += self._sweep_tmp(directory, max_age=0.0)
        return removed


_DEFAULT = ArtifactCache()


def default_cache() -> ArtifactCache:
    """The process-wide store rooted at ``$REPRO_CACHE_DIR``/XDG default."""
    return _DEFAULT
