"""Trace -> weighted control-flow graph (vectorized).

This is the instrumentation post-processing step of the paper's Section 4:
"counting the number of times each basic block is executed, and recording
all basic block transitions".
"""

from __future__ import annotations

import numpy as np

from repro.cfg.weighted import WeightedCFG
from repro.profiling.trace import DEFAULT_CHUNK_EVENTS, SEPARATOR, BlockTrace
from repro.profiling.tracestore import TraceStore

__all__ = ["profile_trace"]


def profile_trace(trace: BlockTrace | TraceStore, n_blocks: int) -> WeightedCFG:
    """Build the weighted CFG (node and edge counts) from a trace.

    The trace is read in windows of ``DEFAULT_CHUNK_EVENTS`` events, so a
    stored trace is never decoded whole; each window adds its block counts
    and transitions, including the one into the event just past it.
    Transitions across run separators are not recorded. A window's edges
    are aggregated by packing ``(src, dst)`` into one 64-bit key and
    running :func:`numpy.unique`.
    """
    cfg = WeightedCFG(n_blocks)
    for window, next_event in trace.iter_events(DEFAULT_CHUNK_EVENTS):
        window_counts = np.bincount(window[window != SEPARATOR], minlength=n_blocks)
        if window_counts.shape[0] > n_blocks:
            raise ValueError("trace references blocks outside the program")
        cfg.block_count += window_counts
        for key, count in _window_transitions(window, n_blocks):
            cfg.add_transition(key // n_blocks, key % n_blocks, count)
        if window[-1] != SEPARATOR and next_event is not None and next_event != SEPARATOR:
            cfg.add_transition(int(window[-1]), next_event)
    return cfg


def _window_transitions(window: np.ndarray, n_blocks: int) -> zip:
    """``(src * n_blocks + dst, count)`` per distinct transition inside the
    window. Its temporaries die on return, before the next window is
    decoded."""
    src, dst = window[:-1], window[1:]
    kept = (src != SEPARATOR) & (dst != SEPARATOR)
    keys = src[kept].astype(np.int64)
    keys *= n_blocks
    keys += dst[kept]
    keys, counts = np.unique(keys, return_counts=True)
    return zip(keys.tolist(), counts.tolist())
