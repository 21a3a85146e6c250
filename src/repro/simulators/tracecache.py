"""Trace cache (Rotenberg et al.), paper Section 7.3.

A direct-mapped trace cache of 256 entries (16 instructions each = 16 KB)
in front of the SEQ.3 fetch unit. Each cycle the trace cache is probed with
the fetch address; with perfect branch prediction a stored trace hits when
its starting address matches and its recorded branch outcomes equal the
actual upcoming outcomes. On a hit the whole trace (up to 16 instructions,
up to 3 branches, *crossing taken branches*) is supplied in one cycle with
no i-cache access; on a miss the SEQ.3 unit fetches from the i-cache and
the fill unit stores the newly observed trace.

The stream separates the cache-independent cycle count from the miss-path
line accesses, which it hands to attached i-cache miss counters, so one
stateful simulation serves every i-cache configuration — and the same run
reports both the trace-cache-alone and combined STC+trace-cache numbers of
Table 4 (:meth:`TraceCacheStream.ipc`).

Implementation: the walk reads per-event and per-branch arrays only, like
the SEQ.3 orbit (:mod:`repro.simulators.fetch`). At a visited position
``p`` of event ``e = rep_idx[p]`` it reads the byte address
``ev_base[e] + INSTR_BYTES * p`` and the next-branch index, a per-event
prefix count of branch events (a branch always ends its event). The
outcome bitmask and third-branch position the walk needs are functions of
that index alone, so they are precomputed vectorized into per-branch
tables (typically 5x smaller than the instruction stream). On a miss the
SEQ.3 advance comes from ``stop[e]`` and the two address caps — the rule
of :func:`~repro.simulators.fetch._fetch_ends`, at one position. The hot
loop thus reads a handful of table cells per visited position and builds
no array with one entry per instruction; the miss path's line pairs are
built in one vectorized step after the loop. Cache entries persist across
chunks (:class:`TraceCacheStream`); the fill window truncates at chunk
boundaries, as in the reference simulator
(:func:`repro.validate.oracles.oracle_trace_cache`).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from repro.cfg.blocks import INSTR_BYTES
from repro.simulators.fetch import (
    BRANCH_LIMIT,
    FETCH_WIDTH,
    MISS_PENALTY_CYCLES,
    FetchLengths,
    _check_line_bytes,
    _Chunk,
    _line_pairs,
)

__all__ = ["TraceCacheConfig", "TraceCacheStream"]


@dataclass(frozen=True)
class TraceCacheConfig:
    """Trace cache geometry (256 entries of 16 instructions = 16 KB)."""

    n_entries: int = 256
    trace_instructions: int = FETCH_WIDTH
    branch_limit: int = BRANCH_LIMIT

    def __post_init__(self) -> None:
        # the walk needs a slot to index and traces that advance: a
        # length-0 entry would hit and advance by nothing, forever
        for name in ("n_entries", "trace_instructions", "branch_limit"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        # the walk keeps the outcomes of a trace's branches as the bits of
        # an int32
        if self.branch_limit > 32:
            raise ValueError(f"branch_limit must be at most 32, got {self.branch_limit}")


class TraceCacheStream:
    """Incremental trace-cache simulation fed one expanded chunk at a time.

    Entry state persists across chunks. Each chunk's miss-path line
    accesses are routed to the attached i-cache miss counters
    (``consumers``); :meth:`ipc` turns a counter's miss count into the
    Table 4 cell.

    The walk's lookup tables are indexed *by event* (address base,
    next-branch index, SEQ.3 stop) and *by branch* (outcome bitmask,
    third-branch position), and are read scalar only at the ~n/10
    positions the walk actually visits; no table has one entry per
    instruction.
    """

    def __init__(
        self,
        layout_name: str,
        config: TraceCacheConfig = TraceCacheConfig(),
        *,
        line_bytes: int = 32,
        consumers=None,
    ) -> None:
        _check_line_bytes(line_bytes)
        self.layout_name = layout_name
        self.config = config
        self.line_bytes = line_bytes
        self.consumers = list(consumers) if consumers is not None else []
        self.n_instructions = 0
        self.n_hits = 0
        self.n_misses = 0
        self.n_taken = 0
        # entry: index -> (start address, outcome bitmask, n_branches, n_instr)
        self._entries: list[tuple[int, int, int, int] | None] = [None] * config.n_entries
        self._low_bits = [(1 << k) - 1 for k in range(config.branch_limit + 1)]

    def feed(self, chunk: _Chunk, lengths: FetchLengths) -> None:
        """Consume one expanded chunk.

        ``lengths`` is the fused driver's shared fetch-starts memo and is
        not read: the walk evaluates the SEQ.3 advance itself, at its miss
        positions only.
        """
        config = self.config
        width = config.trace_instructions
        blimit = config.branch_limit
        ctx = chunk.ctx
        n = ctx.total
        self.n_instructions += n
        self.n_taken += chunk.n_taken
        branch_ev = chunk.branch_ev
        nb = int(np.count_nonzero(branch_ev))
        # next-branch index of every position of an event: a branch ends
        # its event, so this is the exclusive prefix count of branch events
        branches_before = np.cumsum(branch_ev, dtype=np.int32)
        branches_before -= branch_ev

        # outcome bitmask of the next `blimit` branches from every branch
        # index (including nb = "past the last branch"), zero-padded. Each
        # per-branch table is built one temporary at a time, so only the
        # tables and `branches_before` stay alive through the walk.
        padded = np.zeros(nb + blimit, dtype=np.int32)
        padded[:nb] = chunk.taken_ev[branch_ev]
        mask_by_branch = np.zeros(nb + 1, dtype=np.int32)
        for j in range(blimit):
            mask_by_branch |= padded[j : j + nb + 1] << j
        del padded
        # position of the `blimit`-th branch at or after each branch index;
        # the out-of-range sentinel makes the fill window width-limited
        third_by_branch = np.full(nb + 1, n + width, dtype=np.int32)
        if nb >= blimit:
            third_by_branch[: nb - blimit + 1] = ctx.last_idx[branch_ev][blimit - 1 :]

        # zero-copy memoryviews: the loop touches only the positions it
        # visits, so materializing full Python lists would cost more than
        # the walk itself
        event_of = ctx.rep_idx.data
        base_of = chunk.ev_base.data
        stop_of = chunk.stop.data
        fb_of = branches_before.data
        mask_of = mask_by_branch.data
        third_of = third_by_branch.data

        entries = self._entries
        low_bits = self._low_bits
        n_entries = config.n_entries
        line_instrs = self.line_bytes // INSTR_BYTES
        two_lines = 2 * line_instrs
        hits = 0
        misses = 0
        miss_addr = array("i")  # int32 byte addresses, as the fetch stream's
        append = miss_addr.append
        p = 0
        while p < n:
            e = event_of[p]
            a = base_of[e] + INSTR_BYTES * p
            index = (a >> 4) % n_entries  # 16-byte granular index bits
            fb = fb_of[e]
            entry = entries[index]
            if entry is not None and entry[0] == a:
                _, mask, k, length = entry
                # actual outcomes of the next k branches
                if (
                    fb + k <= nb
                    and mask_of[fb] & low_bits[k] == mask
                    and p + length <= n
                ):
                    hits += 1
                    p += length
                    continue
            # trace cache miss: SEQ.3 fetch from the i-cache
            misses += 1
            append(a)
            # fill unit stores the observed trace: up to `width`
            # instructions or `blimit` branches, crossing taken branches
            until_third = third_of[fb] - p + 1
            length = until_third if until_third < width else width
            rem = n - p
            if length > rem:
                length = rem
            end = p + length
            k = (fb_of[event_of[end]] if end < n else nb) - fb
            if k > blimit:
                k = blimit
            entries[index] = (a, mask_of[fb] & low_bits[k], k, length)
            # SEQ.3 advance (fetch._fetch_ends at one position): to the
            # event's stop, the end of the two lines or FETCH_WIDTH
            cap = two_lines - (a // INSTR_BYTES) % line_instrs
            if cap > FETCH_WIDTH:
                cap = FETCH_WIDTH
            p += cap
            stop = stop_of[e] + 1
            if stop < p:
                p = stop
        self.n_hits += hits
        self.n_misses += misses
        lines = _line_pairs(np.frombuffer(miss_addr, dtype=np.intc), self.line_bytes)
        for consumer in self.consumers:
            consumer.feed(lines)

    @property
    def n_cycles_base(self) -> int:
        """One cycle per fetch attempt (hit or miss path)."""
        return self.n_hits + self.n_misses

    @property
    def hit_rate(self) -> float:
        """Share of fetch attempts the trace cache supplied."""
        attempts = self.n_hits + self.n_misses
        return self.n_hits / attempts if attempts else 0.0

    def ipc(self, misses: int = 0) -> float:
        """Fetch bandwidth with the fixed miss penalty on the i-cache
        misses of the miss path; ``misses=0`` models a perfect i-cache."""
        cycles = self.n_cycles_base + MISS_PENALTY_CYCLES * misses
        return self.n_instructions / cycles if cycles else 0.0

    def state_dict(self) -> dict:
        """Complete carried state, picklable: the counts, the entry array
        and each consumer's ``state_dict()``."""
        return {
            "n_instructions": self.n_instructions,
            "n_hits": self.n_hits,
            "n_misses": self.n_misses,
            "n_taken": self.n_taken,
            "entries": list(self._entries),
            "counters": [c.state_dict() for c in self.consumers],
        }

    def load_state(self, state: dict) -> None:
        entries = list(state["entries"])
        if len(entries) != self.config.n_entries:
            raise ValueError(
                f"state has {len(entries)} entries, config wants {self.config.n_entries}"
            )
        self.n_instructions = int(state["n_instructions"])
        self.n_hits = int(state["n_hits"])
        self.n_misses = int(state["n_misses"])
        self.n_taken = int(state["n_taken"])
        self._entries = entries
        for consumer, cstate in zip(self.consumers, state["counters"], strict=True):
            consumer.load_state(cstate)
