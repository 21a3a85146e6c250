"""Reference-locality analyses (paper Section 4.1, Figure 2).

Two views of locality:

* *Concentration*: how many static basic blocks capture a given fraction of
  the dynamic references (Figure 2: the 1000 most popular blocks capture
  ~90 %, 2500 capture ~99 %).
* *Temporal locality*: the number of instructions executed between two
  consecutive invocations of the same basic block (the paper reports that
  the blocks concentrating 75 % of references have a 33 % probability of
  re-execution within 250 instructions and 19 % within 100).
"""

from __future__ import annotations

import numpy as np

from repro.profiling.trace import DEFAULT_CHUNK_EVENTS, SEPARATOR, BlockTrace
from repro.profiling.tracestore import TraceStore

__all__ = [
    "cumulative_reference_curve",
    "blocks_for_coverage",
    "hottest_blocks_for_coverage",
    "reuse_distances",
    "fraction_reexecuted_within",
]


def cumulative_reference_curve(block_count: np.ndarray) -> np.ndarray:
    """Cumulative fraction of dynamic references vs. number of static blocks.

    Element ``i`` is the fraction of all references captured by the ``i+1``
    most popular blocks. Blocks with zero count are excluded (they capture
    nothing and would only flatten the tail).
    """
    counts = np.sort(block_count[block_count > 0])[::-1].astype(np.float64)
    total = counts.sum()
    if total == 0:
        return np.empty(0, dtype=np.float64)
    return np.cumsum(counts) / total


def blocks_for_coverage(block_count: np.ndarray, fraction: float) -> int:
    """Smallest number of most-popular blocks capturing ``fraction`` of references."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    curve = cumulative_reference_curve(block_count)
    if curve.size == 0:
        return 0
    return int(np.searchsorted(curve, fraction - 1e-12) + 1)


def hottest_blocks_for_coverage(block_count: np.ndarray, fraction: float) -> np.ndarray:
    """Ids of the most-popular blocks that together capture ``fraction`` of references."""
    n = blocks_for_coverage(block_count, fraction)
    order = np.argsort(block_count, kind="stable")[::-1]
    return order[:n]


def reuse_distances(
    trace: BlockTrace | TraceStore,
    block_size: np.ndarray,
    subset: np.ndarray | None = None,
) -> np.ndarray:
    """Instruction distances between consecutive executions of the same block.

    Returns one distance per re-execution event (not per block), in an
    order that depends on the window size. When ``subset`` is given, only
    re-executions of those blocks are reported. Instruction positions keep
    growing across run separators, as in
    :meth:`BlockTrace.instruction_positions`.

    The trace is read in windows of ``DEFAULT_CHUNK_EVENTS`` events. Each
    window's events are grouped per block with a stable argsort, and
    distances are differences of instruction positions within each group.
    A block executed in an earlier window leads its group with its last
    position there, carried in one array.
    """
    n_blocks = int(block_size.shape[0])
    keep = None
    if subset is not None:
        keep = np.zeros(n_blocks, dtype=bool)
        keep[np.asarray(subset)] = True
    last_pos = np.full(n_blocks, -1, dtype=np.int64)  # -1: not executed yet
    start = 0  # instruction position of the window's first event
    parts = [np.empty(0, dtype=np.int64)]
    for window, _ in trace.iter_events(DEFAULT_CHUNK_EVENTS):
        ids = window[window != SEPARATOR]
        if ids.size == 0:
            continue
        pos = np.cumsum(block_size[ids], dtype=np.int64)  # where each event ends
        pos += start
        start = int(pos[-1])
        pos -= block_size[ids]
        seen = np.flatnonzero(last_pos >= 0)
        ids = np.concatenate((seen.astype(ids.dtype), ids))
        pos = np.concatenate((last_pos[seen], pos))
        order = np.argsort(ids, kind="stable")
        sorted_ids, sorted_pos = ids[order], pos[order]
        del ids, pos, order  # one window's temporaries live at a time
        last = np.append(sorted_ids[1:] != sorted_ids[:-1], True)  # a group's last event
        last_pos[sorted_ids[last]] = sorted_pos[last]
        same = ~last[:-1]
        if keep is not None:
            same &= keep[sorted_ids[1:]]
        parts.append(np.diff(sorted_pos)[same])
    return np.concatenate(parts)


def fraction_reexecuted_within(distances: np.ndarray, limit: int) -> float:
    """Fraction of re-executions occurring within ``limit`` instructions."""
    if distances.size == 0:
        return 0.0
    return float((distances < limit).mean())
