"""Bimodal branch prediction (an extension beyond the paper's methodology).

The paper evaluates with *perfect* branch prediction to isolate the layout
effect (Section 7.1), while naming prediction accuracy as one of the three
factors limiting fetch (Section 1). This module adds the missing factor: a
classic bimodal predictor (2-bit saturating counters indexed by branch
address) evaluated over the same traces. Because a code layout changes
which transitions are *taken*, it changes what the predictor must learn —
the STC's mostly-not-taken branches are easier, so the layout helps
prediction too. ``python -m repro.experiments.prediction`` quantifies it.

:class:`PredictionStream` is a stream like the fetch and trace-cache
streams: :func:`~repro.simulators.fused.run_fused` feeds it each window's
expanded chunk, whose taken-branch rule
(:func:`~repro.simulators.fetch.expand_chunk`) gives every branch's
direction under the layout. The predictor is inherently sequential
state, so each window's branches go through a Python loop — use
reduced-scale traces for this analysis.
"""

from __future__ import annotations

import numpy as np

from repro.cfg.blocks import INSTR_BYTES, BlockKind
from repro.cfg.program import Program
from repro.simulators.fetch import FetchLengths, _Chunk

__all__ = ["PredictionStream"]


class PredictionStream:
    """A bimodal predictor run over every dynamic conditional branch.

    The predictor is a table of ``n_entries`` 2-bit saturating counters
    indexed by (branch byte address / 4), all starting weakly not-taken.
    A dynamic branch is a BRANCH-kind block followed by another block of
    the same run; its address is the block's last instruction, and it is
    taken iff the layout does not place the successor right after it. The
    counters carry across windows.
    """

    #: The stream reads no cache lines (``run_fused`` groups streams by it).
    line_bytes = None

    def __init__(self, layout_name: str, program: Program, *, n_entries: int = 2048) -> None:
        if n_entries < 1 or n_entries & (n_entries - 1):
            raise ValueError("n_entries must be a power of two")
        self.layout_name = layout_name
        self._is_branch = program.block_kind == BlockKind.BRANCH
        self._counters = [1] * n_entries  # weakly not-taken
        self._mask = n_entries - 1
        self.n_branches = 0
        self.n_mispredicted = 0
        self.n_taken = 0

    def feed(self, chunk: _Chunk, lengths: FetchLengths) -> None:
        """Predict the window's branches that have a successor in their run."""
        ctx = chunk.ctx
        has_successor = np.append(ctx.adjacent, ctx.next_id is not None)
        at = np.flatnonzero(has_successor & self._is_branch[ctx.ids])
        addr = chunk.ev_base[at] + INSTR_BYTES * ctx.last_idx[at]
        taken = chunk.taken_ev[at]
        counters, mask = self._counters, self._mask
        mispredicted = 0
        for a, t in zip(addr.tolist(), taken.tolist()):
            i = (a >> 2) & mask
            c = counters[i]
            if (c >= 2) != t:
                mispredicted += 1
            if t:
                if c < 3:
                    counters[i] = c + 1
            elif c > 0:
                counters[i] = c - 1
        self.n_branches += at.shape[0]
        self.n_mispredicted += mispredicted
        self.n_taken += int(np.count_nonzero(taken))

    @property
    def accuracy(self) -> float:
        return 1.0 - self.n_mispredicted / self.n_branches if self.n_branches else 1.0

    @property
    def taken_fraction(self) -> float:
        return self.n_taken / self.n_branches if self.n_branches else 0.0
