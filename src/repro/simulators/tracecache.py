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

Implementation: the outcome bitmask and third-branch distance the
sequential walk needs are functions of the *next-branch index* of a
position, so they are precomputed vectorized into per-branch tables
(typically 5x smaller than the instruction stream); the next-branch index
itself is a per-event prefix count repeated over each event's
instructions. The walk reads per-instruction addresses and SEQ.3 fetch
lengths, which the expanded chunk builds on first use
(:class:`~repro.simulators.fetch.FetchLengths`), so only layouts that
carry a trace-cache stream pay for them. The hot loop reads a handful of
table cells per visited position. Cache entries persist across
chunks (:class:`TraceCacheStream`); the fill window truncates at chunk
boundaries, as in the reference simulator
(:func:`repro.validate.oracles.oracle_trace_cache`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.simulators.fetch import (
    BRANCH_LIMIT,
    FETCH_WIDTH,
    MISS_PENALTY_CYCLES,
    FetchLengths,
    _Chunk,
)

__all__ = ["TraceCacheConfig", "TraceCacheStream"]


@dataclass(frozen=True)
class TraceCacheConfig:
    """Trace cache geometry (256 entries of 16 instructions = 16 KB)."""

    n_entries: int = 256
    trace_instructions: int = FETCH_WIDTH
    branch_limit: int = BRANCH_LIMIT


class TraceCacheStream:
    """Incremental trace-cache simulation fed one expanded chunk at a time.

    Entry state persists across chunks. Each chunk's miss-path line
    accesses are routed to the attached i-cache miss counters
    (``consumers``); :meth:`ipc` turns a counter's miss count into the
    Table 4 cell.

    The hot loop's lookup tables are indexed *by branch*, not by
    instruction: both the outcome bitmask and the third-branch distance
    from a position ``p`` are functions of ``first_branch[p]`` alone, so
    the per-instruction work of the stream itself is one expansion of a
    per-event prefix count, and the (typically 5x smaller) per-branch
    tables are read scalar only at the ~n/8 positions the walk actually
    visits.
    """

    def __init__(
        self,
        layout_name: str,
        config: TraceCacheConfig = TraceCacheConfig(),
        *,
        line_bytes: int = 32,
        consumers=None,
    ) -> None:
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
        """Consume one expanded chunk; ``lengths`` for this ``line_bytes``
        (the SEQ.3 advance on the miss path)."""
        config = self.config
        width = config.trace_instructions
        blimit = config.branch_limit
        ctx = chunk.ctx
        n = ctx.total
        self.n_instructions += n
        self.n_taken += chunk.n_taken
        branch_ev = chunk.branch_ev
        branch_pos = ctx.last_idx[branch_ev]
        nb = int(branch_pos.size)
        # next-branch index per position: a branch ends its event, so this
        # is the exclusive prefix count of branch events, repeated over
        # each event's instructions — everything else is indexed by branch
        branches_before = np.cumsum(branch_ev, dtype=np.int32)
        branches_before -= branch_ev
        first_branch = np.repeat(branches_before, ctx.ev_size)

        # outcome bitmask of the next `blimit` branches from every branch
        # index (including nb = "past the last branch"), zero-padded
        taken_at = chunk.taken_ev[branch_ev].astype(np.int64)
        padded = np.concatenate((taken_at, np.zeros(blimit, dtype=np.int64)))
        mask_by_branch = np.zeros(nb + 1, dtype=np.int64)
        for j in range(blimit):
            mask_by_branch |= padded[j : j + nb + 1] << j
        # position of the `blimit`-th branch at or after each branch index;
        # the out-of-range sentinel makes the fill window width-limited
        third_by_branch = np.full(nb + 1, n + width, dtype=np.int64)
        if nb >= blimit:
            third_by_branch[: nb - blimit + 1] = branch_pos[blimit - 1 :]

        # zero-copy memoryviews: the loop touches only the positions it
        # visits, so materializing full Python lists would cost more than
        # the walk itself
        seq_len = lengths.array().data
        addr = chunk.addr.data
        fb_of = first_branch.data
        mask_of = mask_by_branch.data
        third_of = third_by_branch.data

        entries = self._entries
        low_bits = self._low_bits
        n_entries = config.n_entries
        line_bytes = self.line_bytes
        hits = 0
        misses = 0
        miss_lines: list[int] = []
        append = miss_lines.append
        p = 0
        while p < n:
            a = addr[p]
            index = (a >> 4) % n_entries  # 16-byte granular index bits
            fb = fb_of[p]
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
            line = a // line_bytes
            append(line)
            append(line + 1)
            # fill unit stores the observed trace: up to `width`
            # instructions or `blimit` branches, crossing taken branches
            until_third = third_of[fb] - p + 1
            length = until_third if until_third < width else width
            rem = n - p
            if length > rem:
                length = rem
            k = (fb_of[p + length] if p + length < n else nb) - fb
            if k > blimit:
                k = blimit
            entries[index] = (a, mask_of[fb] & low_bits[k], k, length)
            p += seq_len[p]
        self.n_hits += hits
        self.n_misses += misses
        lines_arr = np.asarray(miss_lines, dtype=np.int64)
        for consumer in self.consumers:
            consumer.feed(lines_arr)

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
        """Complete carried state (counters + entry array), picklable.

        Consumers are excluded: the sharded relay carries their states
        next to this one, as it does for a relayed
        :class:`~repro.simulators.fetch.FetchStream`.
        """
        return {
            "n_instructions": self.n_instructions,
            "n_hits": self.n_hits,
            "n_misses": self.n_misses,
            "n_taken": self.n_taken,
            "entries": list(self._entries),
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
