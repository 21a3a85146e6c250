"""Torrellas, Xia & Daigle layout (HPCA 1995), as the paper characterizes it.

Like the STC it builds basic-block sequences spanning functions and
reserves a Conflict Free Area, but the CFA holds the most frequently
referenced *individual basic blocks* — pulled out of their sequences. The
paper's evaluation (Section 7.3) observes exactly the consequence this
reproduces: a larger CFA pulls more blocks out of their sequences,
"breaking the sequential execution jumping in and out of the CFA", so the
Torr layout matches STC on miss rate but trails it on fetch bandwidth.
"""

from __future__ import annotations

import numpy as np

from repro.cfg.blocks import INSTR_BYTES
from repro.cfg.layout import Layout
from repro.cfg.program import Program
from repro.cfg.weighted import WeightedCFG
from repro.core.mapping import CacheGeometry, map_sequences
from repro.core.seeds import auto_seeds
from repro.core.stc import STCParams
from repro.core.tracebuild import TraceParams, build_sequences

__all__ = ["torrellas_layout"]


def torrellas_layout(
    program: Program,
    cfg: WeightedCFG,
    geometry: CacheGeometry,
    *,
    exec_threshold: int | None = None,
    branch_threshold: float = 0.08,
) -> Layout:
    """Sequences + block-granularity CFA."""
    if exec_threshold is None:
        exec_threshold = max(1, int(STCParams.exec_fraction * int(cfg.block_count.sum())))
    sequences = build_sequences(
        cfg,
        auto_seeds(program, cfg),
        TraceParams(exec_threshold=exec_threshold, branch_threshold=branch_threshold),
    )
    # the most frequently referenced individual blocks fill the CFA; they
    # are laid out there in *sequence order*, so pulled neighbours stay
    # adjacent (pulling them out of their sequences is still what breaks
    # sequential execution at the CFA boundary, per the paper's analysis)
    counts = cfg.block_count
    hot_order = np.argsort(counts, kind="stable")[::-1]
    position: dict[int, tuple[int, int]] = {}
    for si, seq in enumerate(sequences):
        for bi, block in enumerate(seq):
            position[block] = (si, bi)
    chosen: list[int] = []
    budget = geometry.cfa_bytes
    sizes = program.block_size.astype(np.int64) * INSTR_BYTES
    for block in hot_order:
        block = int(block)
        if counts[block] == 0 or budget <= 0:
            break
        if sizes[block] <= budget:
            chosen.append(block)
            budget -= int(sizes[block])
    n_seq = len(sequences)
    cfa_blocks = sorted(chosen, key=lambda b: position.get(b, (n_seq, b)))
    return map_sequences(
        program,
        sequences,
        geometry,
        name="Torr",
        cfa_blocks=cfa_blocks,
    )
