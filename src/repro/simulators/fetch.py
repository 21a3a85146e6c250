"""SEQ.3 sequential fetch unit (Rotenberg et al.), paper Section 7.1.

Each fetch accesses two consecutive cache lines and supplies instructions
from the fetch address up to the first *taken* branch, up to three branches
of any kind (conditional, unconditional, calls, returns — Section 7.3), up
to 16 instructions, or up to the end of the two lines, whichever comes
first. Branch prediction is perfect.

The simulation is layout-dependent but cache-independent: a
:class:`FetchStream` counts instructions, fetches and taken branches per
layout and hands each window's line accesses to its attached i-cache miss
counters (:func:`repro.simulators.icache.miss_counter`), so one pass
evaluates every cache organization. The stream owns the Table 3/4
formulas: miss rate, IPC with the fixed miss penalty, ideal IPC and run
length between taken branches.

Implementation: the trace is processed in bounded windows of events
(memory stays flat for arbitrarily long traces). A branch can only be the
last instruction of a block, so every SEQ.3 stop condition except the
address-computed line and width caps is a property of the *event*:
:func:`expand_chunk` keeps per-event arrays only — the address base of
each event and ``stop``, the last instruction a fetch starting in it may
reach. The fetch boundaries are the orbit of position 0 under
``p -> p + length(p)``, extracted by a vectorized traversal
(:func:`_fetch_starts`) that walks all taken-branch-delimited segments in
lockstep and evaluates the length only at the active cursors, so a layout
costs O(events + fetches) per window, not O(instructions). No pass
builds an array with one entry per instruction beyond the shared
``ChunkContext.rep_idx`` and the orbit's one-byte visited mask: the trace
cache's walk (:mod:`repro.simulators.tracecache`) reads the same per-event
arrays and applies the SEQ.3 length rule at its miss positions only.

Every per-window array is held at the width its values need: block ids,
instruction indices, byte offsets, address bases, stops, fetch starts and
cache lines are int32. Values that would not fit raise ``ValueError``
instead of wrapping: a window of more than :data:`_MAX_WINDOW_INSTRUCTIONS`
instructions (:func:`iter_chunk_contexts`), and a layout whose addresses
leave the int32 range where it meets a window (:func:`expand_chunk`).
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from repro.cfg.blocks import INSTR_BYTES, BlockKind
from repro.cfg.layout import Layout
from repro.cfg.program import Program
from repro.profiling.trace import DEFAULT_CHUNK_EVENTS, SEPARATOR, BlockTrace

__all__ = [
    "ChunkContext",
    "FetchLengths",
    "FetchStream",
    "MISS_PENALTY_CYCLES",
    "expand_chunk",
    "iter_chunk_contexts",
]

#: Fixed i-cache miss penalty (paper Table 4).
MISS_PENALTY_CYCLES = 5

#: SEQ.3 limits.
FETCH_WIDTH = 16
BRANCH_LIMIT = 3

#: ``addr >> _INSTR_SHIFT`` is the instruction-granular address.
_INSTR_SHIFT = INSTR_BYTES.bit_length() - 1

#: Per-window arrays are int32: byte offsets and addresses stay below this.
_INT32_LIMIT = 1 << 31

#: The most instructions one window may hold: its byte offsets fit int32.
_MAX_WINDOW_INSTRUCTIONS = (_INT32_LIMIT - 1) // INSTR_BYTES


@dataclass
class ChunkContext:
    """Layout-independent expansion of one window of trace events.

    Everything here depends only on the trace and the program — block
    ids, sizes, instruction offsets, adjacency — so the fused driver
    computes it once per window and shares it across every layout
    (:func:`expand_chunk` adds the per-layout addresses).
    """

    ids: np.ndarray  # int32 block id per valid event
    rep_idx: np.ndarray  # int32: event index of each instruction
    start_bytes: np.ndarray  # int32: INSTR_BYTES * index of each event's first instr
    last_idx: np.ndarray  # int32: instruction index of each event's last instr
    branchy_ev: np.ndarray  # bool: event ends in a branch/call/return block
    adjacent: np.ndarray  # bool (len-1): no separator between events i, i+1
    next_id: int | None  # block id of the last event's successor (None: run/trace ends)
    total: int  # instructions in the window


def iter_chunk_contexts(
    trace: BlockTrace,
    program: Program,
    chunk_events: int = DEFAULT_CHUNK_EVENTS,
    *,
    start_event: int = 0,
    stop_event: int | None = None,
) -> Iterator[ChunkContext]:
    """Expand the trace into layout-independent chunk contexts.

    ``trace`` may be an in-memory :class:`BlockTrace` or an on-disk
    :class:`~repro.profiling.tracestore.TraceStore` — anything with the
    windowed ``iter_events`` iterator.

    ``next_id`` is the event after the window, or ``None`` when the run of
    the window's last valid event ends first: at the end of the trace, or
    at a separator that follows the window or ends it.

    ``start_event``/``stop_event`` restrict expansion to that event slice
    (shard workers use this): when the bounds fall on window boundaries,
    the contexts produced are bit-identical to the corresponding contexts
    of a full iteration, including the boundary sequentiality peek past
    ``stop_event``.

    Raises ``ValueError`` for a window of more than
    :data:`_MAX_WINDOW_INSTRUCTIONS` instructions, whose byte offsets
    would not fit the context's int32 arrays.
    """
    sizes = program.block_size.astype(np.int32)
    kinds = program.block_kind
    branchy = (kinds == BlockKind.BRANCH) | (kinds == BlockKind.CALL) | (kinds == BlockKind.RETURN)

    windows = trace.iter_events(chunk_events, start_event=start_event, stop_event=stop_event)
    for ev, next_event in windows:
        # built in a helper: no window-sized temporary stays alive in this
        # frame while the caller works on the context
        ctx = _chunk_context(ev, next_event, sizes, branchy)
        if ctx is not None:
            yield ctx


def _chunk_context(
    ev: np.ndarray, next_event: int | None, sizes: np.ndarray, branchy: np.ndarray
) -> ChunkContext | None:
    """The context of one window of raw events (``None``: separators only)."""
    valid = ev != SEPARATOR
    ids = ev[valid].astype(np.int32, copy=False)
    if ids.size == 0:
        return None
    ev_size = sizes[ids]
    total = int(ev_size.sum(dtype=np.int64))
    if total > _MAX_WINDOW_INSTRUCTIONS:
        raise ValueError(
            f"a window of {total} instructions exceeds {_MAX_WINDOW_INSTRUCTIONS}, "
            "the most whose byte offsets fit int32; use smaller windows"
        )
    ends = np.cumsum(ev_size, dtype=np.int32)
    start_bytes = ends - ev_size
    start_bytes *= INSTR_BYTES
    ends -= 1
    return ChunkContext(
        ids=ids,
        # int32: event indices stay below the window size, and the
        # narrower gathers at the orbit's cursors are faster
        rep_idx=np.repeat(np.arange(ids.shape[0], dtype=np.int32), ev_size),
        start_bytes=start_bytes,
        last_idx=ends,
        branchy_ev=branchy[ids],
        # valid event i and i+1 are adjacent iff the raw event right after
        # event i is valid (trailing separators add one entry past the end)
        adjacent=valid[1:][valid[:-1]][: ids.shape[0] - 1],
        next_id=(
            int(next_event)
            if next_event is not None
            and next_event != SEPARATOR
            and ev[-1] != SEPARATOR
            else None
        ),
        total=total,
    )


@dataclass
class _Chunk:
    """Per-layout SEQ.3 state of one window, at event granularity.

    Instruction ``p`` belongs to event ``e = ctx.rep_idx[p]`` and sits at
    byte address ``ev_base[e] + INSTR_BYTES * p``.
    """

    ctx: ChunkContext
    ev_base: np.ndarray  # int32 per event: block address - ctx.start_bytes
    taken_ev: np.ndarray  # bool per event: its last instruction is a taken branch
    branch_ev: np.ndarray  # bool per event: its last instruction is a branch
    taken_at: np.ndarray  # int32: indices of the taken events
    stop: np.ndarray  # int32 per event: last instruction a fetch from it may reach

    @property
    def n_taken(self) -> int:
        return self.taken_at.shape[0]


def expand_chunk(ctx: ChunkContext, layout: Layout) -> _Chunk:
    """Per-layout event arrays for one chunk context.

    Run separators force a taken branch on the preceding instruction (two
    profiled runs never fall through into each other).

    Raises ``ValueError`` when a block of the window starts or ends
    outside the int32 byte range of the per-window arrays.
    """
    ev_base = _event_bases(ctx, layout)
    # a transition is sequential when the next block starts exactly where
    # this one ends — the two events share their address base — with no
    # run separator in between
    seq = np.zeros(ctx.ids.shape[0], dtype=bool)
    if ctx.ids.shape[0] > 1:
        np.equal(ev_base[1:], ev_base[:-1], out=seq[:-1])
        seq[:-1] &= ctx.adjacent
    if ctx.next_id is not None:
        seq[-1] = int(layout.address[ctx.next_id]) - INSTR_BYTES * ctx.total == int(ev_base[-1])

    # any non-sequential transition behaves as a taken branch — including
    # a fall-through whose successor the layout moved away (the layout
    # step would insert an unconditional jump there)
    taken_ev = ~seq
    branch_ev = ctx.branchy_ev | taken_ev
    taken_at = np.flatnonzero(taken_ev).astype(np.int32)
    return _Chunk(
        ctx=ctx,
        ev_base=ev_base,
        taken_ev=taken_ev,
        branch_ev=branch_ev,
        taken_at=taken_at,
        stop=_event_stops(ctx.last_idx, taken_at, np.flatnonzero(branch_ev)),
    )


def _event_bases(ctx: ChunkContext, layout: Layout) -> np.ndarray:
    """Per event, its block's address minus the event's byte offset in the
    window, as int32.

    Raises ``ValueError`` when a block of the window starts or ends
    outside the int32 byte range.
    """
    address = layout.address
    if address.size and (int(address.min()) < 0 or int(address.max()) >= _INT32_LIMIT):
        raise ValueError(
            f"layout {layout.name!r} has block addresses outside [0, 2**31), "
            "the int32 range of the window arrays"
        )
    ev_base = address.astype(np.int32)[ctx.ids]
    # blocks do not overlap, so the window's highest block ends last
    top = int(ev_base.argmax())
    size = int(ctx.last_idx[top]) + 1 - int(ctx.start_bytes[top]) // INSTR_BYTES
    if int(ev_base[top]) + INSTR_BYTES * size > _INT32_LIMIT:
        raise ValueError(
            f"layout {layout.name!r} places block {int(ctx.ids[top])} across byte 2**31, "
            "the end of the int32 range of the window arrays"
        )
    ev_base -= ctx.start_bytes
    return ev_base


def _event_stops(last_idx: np.ndarray, taken_at: np.ndarray, branch_at: np.ndarray) -> np.ndarray:
    """Per event, the last instruction a fetch starting in it may reach.

    That is the end of the first taken event at or after it, of the
    ``BRANCH_LIMIT``-th branch event at or after it, or the window's last
    instruction, whichever comes first. Both candidates only grow with
    the event index, so one reverse running minimum over a table that
    holds, at each branch event, the stop of a fetch starting there
    yields the stop of every event (taken events are branch events).
    """
    stop = np.full(last_idx.shape[0], last_idx[-1], dtype=last_idx.dtype)
    reach = branch_at.shape[0] - BRANCH_LIMIT + 1
    if reach > 0:
        stop[branch_at[:reach]] = last_idx[branch_at[BRANCH_LIMIT - 1 :]]
    stop[taken_at] = last_idx[taken_at]
    backwards = stop[::-1]
    np.minimum.accumulate(backwards, out=backwards)
    return stop


def _fetch_ends(chunk: _Chunk, pos: np.ndarray, ev: np.ndarray, line_instrs: int) -> np.ndarray:
    """One past the last instruction of the SEQ.3 fetch from each ``pos``.

    ``ev`` holds the event of each position. The fetch ends at the event's
    ``stop``, at the end of the two cache lines reached from the fetch
    address, or after ``FETCH_WIDTH`` instructions, whichever comes first.
    This is the only SEQ.3 length rule; it runs at the orbit's cursors
    (:func:`_fetch_starts`), and the trace cache's walk applies it at one
    position at a time on its miss path.
    """
    # instruction-granular address: (ev_base + INSTR_BYTES * pos) >> shift
    offset = chunk.ev_base[ev]
    offset >>= _INSTR_SHIFT
    offset += pos
    if line_instrs & (line_instrs - 1) == 0:
        offset &= line_instrs - 1
    else:  # non-power-of-two line size: generic modulo
        offset %= line_instrs
    cap = np.subtract(2 * line_instrs, offset, out=offset)
    np.minimum(cap, FETCH_WIDTH, out=cap)
    cap += pos
    end = chunk.stop[ev]
    end += 1
    np.minimum(end, cap, out=end)
    return end


#: Lockstep rounds after which the few remaining long segments finish scalar.
_ORBIT_SCALAR_CUTOFF_ROUNDS = 64
_ORBIT_SCALAR_CUTOFF_ACTIVE = 32


def _fetch_starts(chunk: _Chunk, line_bytes: int) -> np.ndarray:
    """Start positions of the window's SEQ.3 fetches, in stream order.

    The starts are the orbit of 0 under ``p -> _fetch_ends(p)``. A fetch
    never crosses a taken branch, so the orbit decomposes into independent
    segments delimited by taken branches: each segment's first fetch
    starts right after the previous taken branch. All segments are walked
    in lockstep — the length is evaluated at the active cursors only — and
    the visited mask yields the starts already in stream order. Rare
    pathological segments (thousands of short fetches back to back) are
    finished with a scalar walk over their remaining positions.
    """
    ctx = chunk.ctx
    n = ctx.total
    line_instrs = line_bytes // INSTR_BYTES
    taken_end = ctx.last_idx[chunk.taken_at]
    seg_start = np.concatenate(([0], taken_end + 1), dtype=np.int32)
    seg_end = np.concatenate((taken_end, [n - 1]), dtype=np.int32)[: seg_start.size]
    alive = seg_start <= seg_end  # drop the empty tail when the last
    cur = seg_start[alive]  # instruction is a taken branch
    end = seg_end[alive]

    rep_idx = ctx.rep_idx
    visited = np.zeros(n, dtype=bool)
    rounds = 0
    while cur.size:
        visited[cur] = True
        cur = _fetch_ends(chunk, cur, rep_idx[cur], line_instrs)
        keep = cur <= end
        if not keep.all():
            cur = cur[keep]
            end = end[keep]
        rounds += 1
        if rounds >= _ORBIT_SCALAR_CUTOFF_ROUNDS and cur.size <= _ORBIT_SCALAR_CUTOFF_ACTIVE:
            for p, e in zip(cur.tolist(), end.tolist()):
                first = p
                ends = _fetch_ends(
                    chunk, np.arange(first, e + 1), rep_idx[first : e + 1], line_instrs
                ).tolist()
                while p <= e:
                    visited[p] = True
                    p = ends[p - first]
            break
    return np.flatnonzero(visited).astype(np.int32)


def _line_pairs(addr: np.ndarray, line_bytes: int) -> np.ndarray:
    """The two consecutive cache lines read by a fetch from each int32 byte
    address in ``addr`` (consumed in place), interleaved in fetch order,
    as int32."""
    if line_bytes & (line_bytes - 1) == 0:
        addr >>= line_bytes.bit_length() - 1
    else:
        addr //= line_bytes
    lines = np.empty((addr.shape[0], 2), dtype=np.int32)
    lines[:, 0] = addr
    np.add(addr, 1, out=lines[:, 1])
    return lines.reshape(-1)


def _check_line_bytes(line_bytes: int) -> None:
    """Streams address cache lines in whole instructions."""
    if line_bytes <= 0 or line_bytes % INSTR_BYTES:
        raise ValueError(
            f"line_bytes must be a positive multiple of {INSTR_BYTES}, got {line_bytes}"
        )


class FetchLengths:
    """The SEQ.3 fetch starts of one expanded chunk at one line size.

    The fused driver hands one of these to every stream of a (layout,
    line size), so the streams sharing it compute the orbit
    (:func:`_fetch_starts`) once. :class:`FetchStream` reads the starts;
    the trace cache does not need them.
    """

    def __init__(self, chunk: _Chunk, line_bytes: int) -> None:
        self.chunk = chunk
        self.line_bytes = line_bytes
        self._starts: np.ndarray | None = None

    def starts(self) -> np.ndarray:
        """Fetch start positions in stream order (:func:`_fetch_starts`)."""
        if self._starts is None:
            self._starts = _fetch_starts(self.chunk, self.line_bytes)
        return self._starts


class FetchStream:
    """Incremental SEQ.3 fetch simulation fed one expanded chunk at a time.

    The stream accumulates the cache-independent counters and routes each
    chunk's line accesses to any number of attached i-cache miss counters
    (``consumers``, objects with ``feed(lines)``), so one pass over the
    trace evaluates every cache configuration at once. After the pass,
    :meth:`miss_rate` and :meth:`ipc` turn a counter's miss count into the
    Table 3 and Table 4 cells.
    """

    def __init__(
        self,
        layout_name: str,
        *,
        line_bytes: int = 32,
        consumers: Sequence | None = None,
    ) -> None:
        _check_line_bytes(line_bytes)
        self.layout_name = layout_name
        self.line_bytes = line_bytes
        self.consumers = list(consumers) if consumers is not None else []
        self.n_instructions = 0
        self.n_fetches = 0
        self.n_taken = 0

    def feed(self, chunk: _Chunk, lengths: FetchLengths) -> None:
        """Consume one expanded chunk; ``lengths`` for this ``line_bytes``."""
        self.n_instructions += chunk.ctx.total
        self.n_taken += chunk.n_taken
        start_arr = lengths.starts()
        self.n_fetches += start_arr.shape[0]
        addr = chunk.ev_base[chunk.ctx.rep_idx[start_arr]]
        addr += INSTR_BYTES * start_arr
        lines = _line_pairs(addr, self.line_bytes)
        for consumer in self.consumers:
            consumer.feed(lines)

    def miss_rate(self, misses: int) -> float:
        """I-cache misses per instruction executed, in percent (Table 3)."""
        n = self.n_instructions
        return 100.0 * misses / n if n else 0.0

    def ipc(self, misses: int) -> float:
        """Fetch bandwidth with the fixed miss penalty (Table 4)."""
        cycles = self.n_fetches + MISS_PENALTY_CYCLES * misses
        return self.n_instructions / cycles if cycles else 0.0

    @property
    def ideal_ipc(self) -> float:
        """Fetch bandwidth with a perfect i-cache (Table 4's Ideal row)."""
        return self.n_instructions / self.n_fetches if self.n_fetches else 0.0

    @property
    def instructions_between_taken(self) -> float:
        """Average run length between taken branches (Section 8)."""
        return self.n_instructions / self.n_taken if self.n_taken else float("inf")

    def state_dict(self) -> dict:
        """Complete carried state, picklable: the three counts and each
        consumer's ``state_dict()``."""
        return {
            "n_instructions": self.n_instructions,
            "n_fetches": self.n_fetches,
            "n_taken": self.n_taken,
            "counters": [c.state_dict() for c in self.consumers],
        }

    def load_state(self, state: dict) -> None:
        self.n_instructions = int(state["n_instructions"])
        self.n_fetches = int(state["n_fetches"])
        self.n_taken = int(state["n_taken"])
        for consumer, cstate in zip(self.consumers, state["counters"], strict=True):
            consumer.load_state(cstate)
