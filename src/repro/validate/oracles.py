"""Loop-literal reference simulators ("oracles").

Every function here is written for obviousness, not speed: plain Python
loops over plain Python ints, mirroring the prose of the paper (SEQ.3
fetch, Section 7.1; i-cache organizations, Table 3; trace cache, Section
7.3) one rule at a time. The production simulators in
:mod:`repro.simulators` are aggressively vectorized and fused; the
differential harness (:mod:`repro.validate.differential`) asserts the two
agree *exactly* — counter for counter, line for line — on generated
inputs.

Chunk semantics are part of the contract: production truncates fetch and
fill windows at chunk boundaries (results at a given ``chunk_events`` are
bit-identical whether the trace is in memory or streamed from disk), so
the oracles window the trace through the very same
``trace.iter_events(chunk_events)`` iterator and restart their scalar
walks per window.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

from repro.cfg.blocks import INSTR_BYTES, BlockKind
from repro.cfg.layout import Layout
from repro.cfg.program import Program
from repro.profiling.trace import SEPARATOR
from repro.simulators.fetch import BRANCH_LIMIT, FETCH_WIDTH
from repro.simulators.icache import CacheConfig
from repro.simulators.tracecache import TraceCacheConfig

__all__ = [
    "OracleFetchResult",
    "OracleTraceCacheResult",
    "OracleWindow",
    "oracle_direct_mapped",
    "oracle_fetch",
    "oracle_trace_cache",
    "oracle_two_way_lru",
    "oracle_victim",
    "oracle_windows",
    "seq3_fetch_length",
]

_BRANCHY_KINDS = (int(BlockKind.BRANCH), int(BlockKind.CALL), int(BlockKind.RETURN))


@dataclass
class OracleWindow:
    """One window of the trace expanded to instruction granularity."""

    addr: list  # byte address per instruction
    is_branch: list  # bool per instruction
    is_taken: list  # bool per instruction


def oracle_windows(
    trace,
    program: Program,
    layout: Layout,
    chunk_events: int,
) -> Iterator[OracleWindow]:
    """Expand the trace window by window, the slow and obvious way.

    Mirrors ``iter_chunk_contexts`` + ``expand_chunk``: separators are
    dropped; a window of only separators contributes nothing; a
    transition is sequential when the successor starts exactly where the
    predecessor ends *and* no separator sits between them; the last event
    of a window checks sequentiality against the first event beyond the
    window, which sits at position ``len(window)`` (none at end of trace,
    when a separator follows, or when a separator ends the window: the
    run ends there).
    """
    sizes = program.block_size
    kinds = program.block_kind
    addresses = layout.address
    for window, next_event in trace.iter_events(chunk_events):
        valid: list[tuple[int, int]] = []  # (position in window, block id)
        for pos, event in enumerate(window.tolist()):
            if event != SEPARATOR:
                valid.append((pos, event))
        if not valid:
            continue
        last_pos = valid[-1][0]
        if next_event is not None and next_event != SEPARATOR and last_pos + 1 == len(window):
            next_id = int(next_event)
        else:
            next_id = None

        addr: list = []
        is_branch: list = []
        is_taken: list = []
        for j, (pos, block) in enumerate(valid):
            start = int(addresses[block])
            size = int(sizes[block])
            end = start + size * INSTR_BYTES
            if j + 1 < len(valid):
                nxt_pos, nxt_block = valid[j + 1]
                sequential = (pos + 1 == nxt_pos) and int(addresses[nxt_block]) == end
            elif next_id is not None:
                sequential = int(addresses[next_id]) == end
            else:
                sequential = False
            for offset in range(size):
                addr.append(start + offset * INSTR_BYTES)
                last = offset == size - 1
                branchy = int(kinds[block]) in _BRANCHY_KINDS
                is_branch.append(last and (branchy or not sequential))
                is_taken.append(last and not sequential)
        yield OracleWindow(addr=addr, is_branch=is_branch, is_taken=is_taken)


def seq3_fetch_length(window: OracleWindow, p: int, line_instrs: int) -> int:
    """SEQ.3 fetch length from position ``p``: walk instruction by
    instruction, stopping after the first taken branch, after the third
    branch of any kind, at the end of the two cache lines reached from
    the fetch address, at 16 instructions, or at the window end."""
    cap = 2 * line_instrs - (window.addr[p] // INSTR_BYTES) % line_instrs
    if cap > FETCH_WIDTH:
        cap = FETCH_WIDTH
    n = len(window.addr)
    length = 0
    branches = 0
    q = p
    while q < n and length < cap:
        length += 1
        if window.is_branch[q]:
            branches += 1
        if window.is_taken[q] or branches >= BRANCH_LIMIT:
            break
        q += 1
    return max(length, 1)


@dataclass
class OracleFetchResult:
    """Reference SEQ.3 output: counters plus the full line-access stream."""

    n_instructions: int = 0
    n_fetches: int = 0
    n_taken: int = 0
    lines: list = field(default_factory=list)


def oracle_fetch(
    trace,
    program: Program,
    layout: Layout,
    *,
    line_bytes: int = 32,
    chunk_events: int = 2_000_000,
) -> OracleFetchResult:
    """Reference SEQ.3 fetch simulation (scalar walk per window)."""
    line_instrs = line_bytes // INSTR_BYTES
    out = OracleFetchResult()
    for window in oracle_windows(trace, program, layout, chunk_events):
        n = len(window.addr)
        out.n_instructions += n
        out.n_taken += sum(1 for t in window.is_taken if t)
        p = 0
        while p < n:
            out.n_fetches += 1
            line = window.addr[p] // line_bytes
            out.lines.append(line)
            out.lines.append(line + 1)
            p += seq3_fetch_length(window, p, line_instrs)
    return out


# -- i-cache oracles -------------------------------------------------------


def oracle_direct_mapped(
    lines: Iterable[int],
    config: CacheConfig,
    *,
    per_line: bool = False,
):
    """Cold-start misses of a direct-mapped cache, one access at a time.

    With ``per_line=True`` also returns ``{line: miss count}`` — the CFA
    conflict-freedom law uses it to assert each conflict-free line misses
    exactly once.
    """
    n_sets = config.n_sets
    tags: dict[int, int] = {}
    misses = 0
    counts: dict[int, int] = {}
    for line in lines:
        s = line % n_sets
        if tags.get(s) != line:
            misses += 1
            tags[s] = line
            if per_line:
                counts[line] = counts.get(line, 0) + 1
    if per_line:
        return misses, counts
    return misses


def oracle_two_way_lru(lines: Iterable[int], config: CacheConfig) -> int:
    """Cold-start misses of a 2-way set-associative LRU cache."""
    n_sets = config.n_sets
    ways: dict[int, list] = {}
    misses = 0
    for line in lines:
        s = line % n_sets
        content = ways.setdefault(s, [])
        if line in content:
            content.remove(line)
            content.insert(0, line)
        else:
            misses += 1
            content.insert(0, line)
            del content[2:]
    return misses


def oracle_victim(lines: Iterable[int], config: CacheConfig, *, final: dict | None = None) -> int:
    """Direct-mapped cache + fully associative LRU victim buffer (Jouppi).

    A primary miss that hits the buffer swaps the two lines and counts as
    a hit; a real miss pushes the evicted resident into the buffer.
    ``final``, when given, receives the end state: ``primary`` (set ->
    resident line) and ``victim`` (the buffer in LRU order, oldest first).
    """
    n_sets = config.n_sets
    capacity = config.victim_lines
    primary: dict[int, int] = {}
    victim: OrderedDict[int, None] = OrderedDict()
    misses = 0
    for line in lines:
        s = line % n_sets
        resident = primary.get(s, -1)
        if resident == line:
            continue
        if line in victim:
            del victim[line]
            if resident >= 0:
                victim[resident] = None
                while len(victim) > capacity:
                    victim.popitem(last=False)
            primary[s] = line
            continue
        misses += 1
        if resident >= 0:
            victim[resident] = None
            victim.move_to_end(resident)
            while len(victim) > capacity:
                victim.popitem(last=False)
        primary[s] = line
    if final is not None:
        final.update(primary=primary, victim=list(victim))
    return misses


# -- trace cache oracle ----------------------------------------------------


@dataclass
class OracleTraceCacheResult:
    n_instructions: int = 0
    n_hits: int = 0
    n_misses: int = 0
    n_taken: int = 0
    miss_lines: list = field(default_factory=list)
    #: final entry table: index -> (start address, outcome bitmask,
    #: n_branches, n_instr), filled entries only
    entries: dict = field(default_factory=dict)


def oracle_trace_cache(
    trace,
    program: Program,
    layout: Layout,
    config: TraceCacheConfig = TraceCacheConfig(),
    *,
    line_bytes: int = 32,
    chunk_events: int = 2_000_000,
) -> OracleTraceCacheResult:
    """Reference trace-cache + SEQ.3 simulation.

    Entries persist across windows (the hardware does not know about our
    streaming chunks); the fill window truncates at the window end, as in
    production. The result carries the final entry table, the state a
    resumed run would start from.
    """
    width = config.trace_instructions
    blimit = config.branch_limit
    n_entries = config.n_entries
    line_instrs = line_bytes // INSTR_BYTES
    # entry: index -> (start address, outcome bitmask, n_branches, n_instr)
    entries: dict[int, tuple[int, int, int, int]] = {}
    out = OracleTraceCacheResult(entries=entries)

    for window in oracle_windows(trace, program, layout, chunk_events):
        n = len(window.addr)
        out.n_instructions += n
        out.n_taken += sum(1 for t in window.is_taken if t)

        branch_pos = [i for i in range(n) if window.is_branch[i]]
        nb = len(branch_pos)
        # first-branch index at or after each position (fb[n] == nb)
        fb = [0] * (n + 1)
        count = 0
        for i in range(n):
            fb[i] = count
            if window.is_branch[i]:
                count += 1
        fb[n] = nb

        def mask_of(fbi: int) -> int:
            mask = 0
            for j in range(blimit):
                if fbi + j < nb and window.is_taken[branch_pos[fbi + j]]:
                    mask |= 1 << j
            return mask

        p = 0
        while p < n:
            a = window.addr[p]
            index = (a >> 4) % n_entries
            fbp = fb[p]
            entry = entries.get(index)
            if entry is not None and entry[0] == a:
                _, mask, k, length = entry
                if (
                    fbp + k <= nb
                    and mask_of(fbp) & ((1 << k) - 1) == mask
                    and p + length <= n
                ):
                    out.n_hits += 1
                    p += length
                    continue
            out.n_misses += 1
            line = a // line_bytes
            out.miss_lines.append(line)
            out.miss_lines.append(line + 1)
            # fill unit: up to `width` instructions or `blimit` branches,
            # crossing taken branches, truncated at the window end
            if fbp + blimit - 1 < nb:
                until_third = branch_pos[fbp + blimit - 1] - p + 1
            else:
                until_third = n + width  # no third branch: width-limited
            length = min(until_third, width, n - p)
            k = min(fb[p + length] - fbp, blimit)
            entries[index] = (a, mask_of(fbp) & ((1 << k) - 1), k, length)
            p += seq3_fetch_length(window, p, line_instrs)
    return out
