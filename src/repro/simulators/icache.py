"""Instruction cache models (paper Table 3's cache column variants).

Input is a stream of cache-line numbers (from the fetch unit), fed one
chunk at a time with per-set state carried across chunk boundaries, so the
stream is never concatenated. Three organizations:

* direct-mapped — fully vectorized (stable argsort groups accesses by set;
  a miss is a tag change within the group, or against the carried tag at
  the chunk boundary);
* 2-way set associative, LRU — vectorized via the run-compression identity:
  within one set's access stream with consecutive duplicates removed, the
  cache holds exactly the previous two distinct lines, so access ``j`` hits
  iff it equals the compressed stream's entry ``j-2`` (the carried last two
  compressed entries extend the identity across chunks);
* direct-mapped + fully associative victim cache (16 lines) — stateful
  swap behaviour. The stream is first run-compressed per set (a repeat of
  the immediately preceding access to the same set always hits the primary
  slot and changes no state), and each surviving access's evicted
  resident is read off the same sort; then the surviving accesses —
  typically a small fraction — run through the explicit swap loop.

Per-line work keeps the width of the fed lines (int32 from the streams).
Every ``feed(lines)`` runs the model over consecutive slices of at most
``_FEED_SLICE`` = 2^16 line accesses. A window of a fetch stream carries
millions of them; one sort over all of them spills out of the CPU's L2
cache and allocates an int64 order array of 8 B per access, while a
2^16-access slice keeps every sort, gather and swap loop in L2 and a
feed's added memory at a constant 1-6 MiB whatever the window's size.
The per-set state carried from slice to slice is the state carried from
chunk to chunk, so misses, end states and journals do not depend on the
slicing.

Each model is an incremental counter object (:func:`miss_counter`) with a
``feed(lines)`` method. Attached to a fetch or trace-cache stream, it
receives each window's line accesses as the fused driver simulates it, so
one pass over the trace evaluates many configurations.
:func:`count_misses` feeds one counter a given line stream (one array or a
list of chunks) — chunked and whole-stream counts are identical by
construction. The reference models are the oracles of
:mod:`repro.validate.oracles`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CacheConfig",
    "count_misses",
    "miss_counter",
]


@dataclass(frozen=True)
class CacheConfig:
    """An i-cache organization (sizes in bytes)."""

    size_bytes: int
    line_bytes: int = 32
    associativity: int = 1
    victim_lines: int = 0

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.size_bytes % (self.line_bytes * self.associativity):
            raise ValueError("cache size must be a multiple of line size x associativity")
        if self.associativity not in (1, 2):
            raise ValueError("only direct-mapped and 2-way caches are modeled (as in the paper)")
        if self.victim_lines and self.associativity != 1:
            raise ValueError("the victim cache augments a direct-mapped cache")

    @property
    def n_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.associativity)


def _as_chunks(lines) -> list[np.ndarray]:
    if isinstance(lines, np.ndarray):
        chunks = [lines]
    else:
        chunks = list(lines)
    return [c for c in chunks if c.size]


def miss_counter(config: CacheConfig) -> "_MissCounter":
    """A stateful cold-start miss counter for ``config``.

    Feed it line chunks in stream order; ``.misses`` is the running count.
    Feeding the stream in any chunking yields the same count as one call.
    """
    if config.victim_lines:
        return _VictimCounter(config.n_sets, config.victim_lines)
    if config.associativity == 1:
        return _DirectMappedCounter(config.n_sets)
    return _TwoWayLRUCounter(config.n_sets)


def count_misses(lines: np.ndarray | Sequence[np.ndarray], config: CacheConfig) -> int:
    """Cold-start miss count of the line stream under ``config``."""
    counter = miss_counter(config)
    for chunk in _as_chunks(lines):
        counter.feed(chunk)
    return counter.misses


#: Line accesses a counter models at a time (see the module docstring).
_FEED_SLICE = 1 << 16


def _group_sorted(lines: np.ndarray, n_sets: int):
    """Sort a chunk stably by set; return (order, sets, lines, group-start mask).

    The set index is narrowed to uint16 when it fits: NumPy's stable sort
    is a radix sort for 16-bit keys, which turns the dominant cost of
    every cache model from O(n log n) comparisons into O(n) passes. For a
    power-of-two ``n_sets`` the keys come straight from the lines' low 16
    bits, masked in place.
    """
    if n_sets & (n_sets - 1) == 0 and n_sets <= 1 << 16:
        sets = lines.astype(np.uint16)
        sets &= n_sets - 1
    else:
        sets = lines % n_sets
        if n_sets <= 1 << 16:
            sets = sets.astype(np.uint16)
    order = np.argsort(sets, kind="stable")
    sorted_sets = sets[order]
    sorted_lines = lines[order]
    first = np.empty(lines.shape[0], dtype=bool)
    first[0] = True
    first[1:] = sorted_sets[1:] != sorted_sets[:-1]
    return order, sorted_sets, sorted_lines, first


class _MissCounter:
    """Base: a cache model carrying state across fed chunks.

    Every concrete counter implements the sharding state protocol:
    ``state_dict()``/``load_state()`` capture and restore the *complete*
    carried state (including ``misses``), so a relay worker can resume a
    counter mid-stream bit-identically. A direct-mapped counter built
    with ``record_journal=True`` additionally captures the per-set
    boundary facts (:meth:`_DirectMappedCounter.shard_journal`) that let
    the sharded reconciliation pass stitch an independently cold-started
    shard onto arbitrary incoming state without replaying it.
    """

    __slots__ = ("misses",)

    kind = "abstract"

    def __init__(self) -> None:
        self.misses = 0

    def feed(self, lines: np.ndarray) -> None:
        for start in range(0, lines.shape[0], _FEED_SLICE):
            self._feed(lines[start : start + _FEED_SLICE])

    def _feed(self, lines: np.ndarray) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class _DirectMappedCounter(_MissCounter):
    __slots__ = ("_tags", "_head")

    kind = "dm"

    def __init__(self, n_sets: int, *, record_journal: bool = False) -> None:
        super().__init__()
        self._tags = np.full(n_sets, -1, dtype=np.int64)
        self._head = np.full(n_sets, -1, dtype=np.int64) if record_journal else None

    def _feed(self, lines: np.ndarray) -> None:
        tags = self._tags
        _, sorted_sets, sorted_lines, first = _group_sorted(lines, tags.shape[0])
        miss = np.empty(lines.shape[0], dtype=bool)
        miss[1:] = first[1:] | (sorted_lines[1:] != sorted_lines[:-1])
        first_idx = np.flatnonzero(first)
        miss[first_idx] = sorted_lines[first_idx] != tags[sorted_sets[first_idx]]
        if self._head is not None:
            # first access ever to a set (tag still cold): the only access
            # whose hit/miss outcome depends on pre-shard state
            fresh = first_idx[tags[sorted_sets[first_idx]] == -1]
            self._head[sorted_sets[fresh]] = sorted_lines[fresh]
        self.misses += int(miss.sum())
        last_idx = np.concatenate((first_idx[1:] - 1, [lines.shape[0] - 1]))
        tags[sorted_sets[last_idx]] = sorted_lines[last_idx]

    def state_dict(self) -> dict:
        return {"kind": self.kind, "tags": self._tags.copy(), "misses": self.misses}

    def load_state(self, state: dict) -> None:
        self._tags[:] = state["tags"]
        self.misses = int(state["misses"])

    def shard_journal(self) -> dict:
        """Boundary facts of a cold-started run: per touched set, the
        first accessed line (``head``) and the final tag (``end``)."""
        if self._head is None:
            raise RuntimeError("counter was not built with record_journal=True")
        touched = np.flatnonzero(self._tags != -1)
        return {
            "kind": self.kind,
            "sets": touched,
            "head": self._head[touched],
            "end": self._tags[touched],
            "misses": self.misses,
        }


class _TwoWayLRUCounter(_MissCounter):
    # carried per-set state: the last two entries of the set's run-compressed
    # access stream (w0 most recent); distinct negative sentinels keep the
    # cold-start "first two distinct accesses miss" behaviour
    __slots__ = ("_w0", "_w1")

    kind = "lru2"

    def __init__(self, n_sets: int) -> None:
        super().__init__()
        self._w0 = np.full(n_sets, -1, dtype=np.int64)
        self._w1 = np.full(n_sets, -2, dtype=np.int64)

    def _feed(self, lines: np.ndarray) -> None:
        w0, w1 = self._w0, self._w1
        _, sorted_sets, sorted_lines, first = _group_sorted(lines, w0.shape[0])
        # compress consecutive duplicates within each set's stream: those are
        # guaranteed hits (the line is MRU); only distinct transitions can
        # miss. At the chunk boundary the previous compressed entry is w0.
        keep = np.empty(lines.shape[0], dtype=bool)
        keep[1:] = first[1:] | (sorted_lines[1:] != sorted_lines[:-1])
        first_idx = np.flatnonzero(first)
        keep[first_idx] = sorted_lines[first_idx] != w0[sorted_sets[first_idx]]
        c_sets = sorted_sets[keep]
        c_lines = sorted_lines[keep]
        n = c_lines.shape[0]
        if n == 0:
            return
        # entry j hits iff it equals entry j-2 of the same set's compressed
        # stream (entry j-1 differs by construction, so {j-1, j-2} is the
        # set state); the carried (w0, w1) stand in for entries -1 and -2
        miss = np.ones(n, dtype=bool)
        if n > 2:
            same_set = c_sets[2:] == c_sets[:-2]
            miss[2:] = ~(same_set & (c_lines[2:] == c_lines[:-2]))
        g_first = np.empty(n, dtype=bool)
        g_first[0] = True
        g_first[1:] = c_sets[1:] != c_sets[:-1]
        g_start = np.flatnonzero(g_first)
        miss[g_start] = c_lines[g_start] != w1[c_sets[g_start]]
        second = g_start + 1
        second = second[second < n]
        second = second[~g_first[second]]
        miss[second] = c_lines[second] != w0[c_sets[second]]
        self.misses += int(miss.sum())
        # roll the carried state forward to each set's last two entries
        g_last = np.concatenate((g_start[1:] - 1, [n - 1]))
        g_sets = c_sets[g_start]
        single = g_last == g_start
        w1[g_sets[single]] = w0[g_sets[single]]
        w1[g_sets[~single]] = c_lines[g_last[~single] - 1]
        w0[g_sets] = c_lines[g_last]

    def state_dict(self) -> dict:
        return {
            "kind": self.kind,
            "w0": self._w0.copy(),
            "w1": self._w1.copy(),
            "misses": self.misses,
        }

    def load_state(self, state: dict) -> None:
        self._w0[:] = state["w0"]
        self._w1[:] = state["w1"]
        self.misses = int(state["misses"])


class _VictimCounter(_MissCounter):
    """Batched victim-cache simulation over chunked streams.

    Every access leaves its line in its set's primary slot (a hit stays, a
    victim hit swaps in, a miss fills), so the primary slot of a set always
    holds the set's last accessed line: ``_last`` is the whole primary
    state. Vectorized per-set run compression removes the accesses that
    repeat that line — always primary hits with no state change — and
    reads each surviving access's evicted resident (the set's previous
    access) off the same sort. The stateful swap loop then only moves
    lines through the LRU victim buffer, over plain Python ints (at most
    ``_FEED_SLICE`` of them per call).
    """

    __slots__ = ("_last", "_victim", "_capacity")

    kind = "victim"

    def __init__(self, n_sets: int, capacity: int) -> None:
        super().__init__()
        self._last = np.full(n_sets, -1, dtype=np.int64)
        self._victim: dict[int, None] = {}
        self._capacity = capacity

    def _feed(self, lines: np.ndarray) -> None:
        last, victim = self._last, self._victim
        n = lines.shape[0]
        order, sorted_sets, sorted_lines, first = _group_sorted(lines, last.shape[0])
        first_idx = np.flatnonzero(first)
        # the line each access finds in its set's primary slot: the set's
        # previous access, or the carried last line at the chunk boundary
        residents = np.empty_like(sorted_lines)
        residents[1:] = sorted_lines[:-1]
        residents[first_idx] = last[sorted_sets[first_idx]]
        last_idx = np.concatenate((first_idx[1:] - 1, [n - 1]))
        last[sorted_sets[last_idx]] = sorted_lines[last_idx]
        # each temporary is dropped once spent, before the swap loop's
        # Python ints exist
        del sorted_sets, sorted_lines, first
        # back to stream order, where the compressed accesses interleave
        # across sets exactly as in the original stream
        in_stream = np.empty_like(residents)
        in_stream[order] = residents
        del order, residents
        keep = lines != in_stream
        compressed = lines[keep]
        evicted = in_stream[keep]
        del keep, in_stream
        capacity = self._capacity
        misses = 0
        for line, resident in zip(compressed.tolist(), evicted.tolist()):
            if line in victim:
                del victim[line]
                if resident >= 0:
                    victim[resident] = None
                    while len(victim) > capacity:
                        del victim[next(iter(victim))]
                continue
            misses += 1
            if resident >= 0:
                victim.pop(resident, None)
                victim[resident] = None
                while len(victim) > capacity:
                    del victim[next(iter(victim))]
        self.misses += misses

    def state_dict(self) -> dict:
        return {
            "kind": self.kind,
            "last": self._last.copy(),
            "victim": list(self._victim),  # LRU order, oldest first
            "capacity": self._capacity,
            "misses": self.misses,
        }

    def load_state(self, state: dict) -> None:
        # a state saved with a separate "primary" entry loads too: it
        # always equals "last"
        self._last[:] = state["last"]
        self._victim = dict.fromkeys(state["victim"])
        self._capacity = int(state["capacity"])
        self.misses = int(state["misses"])

