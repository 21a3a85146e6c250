"""Hash index access method.

Bucketed chaining hash table from key to tuple ids. As with the B-tree,
each index instance registers its own instrumented lookup/insert routines.
Hash indexes support only equality lookups — the TPC-D "Hash database"
variant of the paper uses them for all key attributes (Section 3).
"""

from __future__ import annotations

from repro.kernel import decide
from repro.kernel.registry import Registry

__all__ = ["HashIndex"]

TID = tuple

#: Initial bucket count (grows by doubling at load factor 4, modeling the
#: real kernel's split behaviour coarsely).
_INITIAL_BUCKETS = 64


class HashIndex:
    """Chained-bucket hash index supporting duplicates."""

    def __init__(self, name: str, registry: Registry, *, unique: bool = False) -> None:
        self.name = name
        self.unique = unique
        self.n_entries = 0
        self._n_buckets = _INITIAL_BUCKETS
        self._buckets: list[list[tuple[object, list[TID]]]] = [[] for _ in range(self._n_buckets)]
        self._lookup = registry.scope(f"_hash_search[{name}]", "access", sites=0, decides=2)
        self._insert = registry.scope(f"_hash_insert[{name}]", "access", sites=0, decides=2)

    def _bucket_of(self, key) -> list:
        return self._buckets[hash(key) % self._n_buckets]

    def search(self, key) -> list[TID]:
        """All tuple ids with exactly this key ([] if absent)."""
        with self._lookup:
            bucket = self._bucket_of(key)
            for stored, tids in bucket:
                if decide(stored == key):
                    return list(tids)
                # chain walk continues: each probe is a data decision
            decide(False)
            return []

    def insert(self, key, tid: TID) -> None:
        with self._insert:
            bucket = self._bucket_of(key)
            for stored, tids in bucket:
                if decide(stored == key):
                    if self.unique:
                        raise ValueError(f"duplicate key {key!r} in unique index {self.name!r}")
                    tids.append(tid)
                    self.n_entries += 1
                    return
            bucket.append((key, [tid]))
            self.n_entries += 1
            if decide(self.n_entries > 4 * self._n_buckets):
                self._grow()

    def _grow(self) -> None:
        entries = [(k, tids) for bucket in self._buckets for k, tids in bucket]
        self._n_buckets *= 2
        self._buckets = [[] for _ in range(self._n_buckets)]
        for key, tids in entries:
            self._buckets[hash(key) % self._n_buckets].append((key, tids))
