"""Torrellas, Xia & Daigle layout (HPCA 1995), as the paper characterizes it.

Like the STC it builds basic-block sequences spanning functions and
reserves a Conflict Free Area, but the CFA holds the most frequently
referenced *individual basic blocks* — pulled out of their sequences. The
paper's evaluation (Section 7.3) observes exactly the consequence this
reproduces: a larger CFA pulls more blocks out of their sequences,
"breaking the sequential execution jumping in and out of the CFA", so the
Torr layout matches STC on miss rate but trails it on fetch bandwidth.

Only the CFA choice and the mapping see the cache geometry. The sequences,
and the order in which blocks bid for the CFA, depend on the profile and
the thresholds alone (:func:`torrellas_sequences`), so every row of a grid
can share them and map them per geometry (:meth:`TorrellasSequences.layout`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cfg.blocks import INSTR_BYTES
from repro.cfg.layout import Layout
from repro.cfg.program import Program
from repro.cfg.weighted import WeightedCFG
from repro.core.mapping import CacheGeometry, map_sequences
from repro.core.seeds import auto_seeds
from repro.core.stc import STCParams
from repro.core.tracebuild import TraceParams, build_sequences

__all__ = ["TorrellasSequences", "torrellas_layout", "torrellas_sequences"]


@dataclass(frozen=True)
class TorrellasSequences:
    """The geometry-independent half of a Torrellas layout.

    ``sequences`` in placement order; ``hot``, the executed blocks from
    the most to the least referenced, in the order they bid for the CFA;
    ``position``, each sequenced block's (sequence, index) pair.
    """

    sequences: list[list[int]]
    hot: list[int]
    position: dict[int, tuple[int, int]]

    def layout(self, program: Program, geometry: CacheGeometry) -> Layout:
        """Pin the hottest blocks that fit into ``geometry``'s CFA and map."""
        # the most frequently referenced individual blocks fill the CFA; they
        # are laid out there in *sequence order*, so pulled neighbours stay
        # adjacent (pulling them out of their sequences is still what breaks
        # sequential execution at the CFA boundary, per the paper's analysis)
        chosen: list[int] = []
        budget = geometry.cfa_bytes
        sizes = program.block_size.astype(np.int64) * INSTR_BYTES
        for block in self.hot:
            if budget <= 0:
                break
            if sizes[block] <= budget:
                chosen.append(block)
                budget -= int(sizes[block])
        n_seq = len(self.sequences)
        cfa_blocks = sorted(chosen, key=lambda b: self.position.get(b, (n_seq, b)))
        return map_sequences(
            program,
            self.sequences,
            geometry,
            name="Torr",
            cfa_blocks=cfa_blocks,
        )


def torrellas_layout(
    program: Program,
    cfg: WeightedCFG,
    geometry: CacheGeometry,
    *,
    exec_threshold: int | None = None,
    branch_threshold: float = 0.08,
) -> Layout:
    """Sequences + block-granularity CFA."""
    sequences = torrellas_sequences(
        program, cfg, exec_threshold=exec_threshold, branch_threshold=branch_threshold
    )
    return sequences.layout(program, geometry)


def torrellas_sequences(
    program: Program,
    cfg: WeightedCFG,
    *,
    exec_threshold: int | None = None,
    branch_threshold: float = 0.08,
) -> TorrellasSequences:
    """The sequences and CFA bidding order of :func:`torrellas_layout`."""
    if exec_threshold is None:
        exec_threshold = max(1, int(STCParams.exec_fraction * int(cfg.block_count.sum())))
    sequences = build_sequences(
        cfg,
        auto_seeds(program, cfg),
        TraceParams(exec_threshold=exec_threshold, branch_threshold=branch_threshold),
    )
    # counts are never negative, so the executed blocks lead the descending
    # order; no unexecuted block bids for the CFA
    counts = cfg.block_count
    hot_order = np.argsort(counts, kind="stable")[::-1]
    hot = hot_order[: int(np.count_nonzero(counts))].tolist()
    position = {
        block: (si, bi) for si, seq in enumerate(sequences) for bi, block in enumerate(seq)
    }
    return TorrellasSequences(sequences, hot, position)
