"""Weighted dynamic control-flow graph.

"Instrumenting the database and running the Training set, we obtained a
directed control flow graph with weighted edges" (paper, Section 5). Nodes
are basic blocks, edge weights are observed transition counts; node weights
are execution counts. Call and return transitions appear as ordinary edges
(call block -> callee entry; callee return block -> the block following the
call site), which is exactly what lets the greedy sequence builder inline
callees into a trace.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

from repro.cfg.blocks import BlockKind
from repro.cfg.program import Program

__all__ = ["WeightedCFG"]


class WeightedCFG:
    """Block-level weighted digraph with execution counts."""

    def __init__(self, n_blocks: int) -> None:
        self._n = int(n_blocks)
        self.block_count = np.zeros(self._n, dtype=np.int64)
        self._out: dict[int, dict[int, int]] = {}
        self._in: dict[int, dict[int, int]] = {}

    #: per source block, its sorted ``(succ, count)`` pairs and out-weight (see :meth:`_exit`)
    _exits: dict[int, tuple[tuple[tuple[int, int], ...], int]] | None = None

    def __getstate__(self) -> dict:  # pickles carry the profile, never the derived table
        return {key: value for key, value in self.__dict__.items() if key != "_exits"}

    # -- construction ----------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        n_blocks: int,
        edges: Iterable[tuple[int, int, int]],
        block_count: np.ndarray | None = None,
    ) -> "WeightedCFG":
        """Build from ``(src, dst, count)`` triples.

        If ``block_count`` is omitted, node counts are inferred as the total
        outgoing edge weight (with incoming weight as a fallback for sinks).
        """
        cfg = cls(n_blocks)
        for src, dst, count in edges:
            cfg.add_transition(int(src), int(dst), int(count))
        if block_count is not None:
            cfg.block_count = np.asarray(block_count, dtype=np.int64).copy()
        else:
            for b, succs in cfg._out.items():
                cfg.block_count[b] = sum(succs.values())
            for b, preds in cfg._in.items():
                if cfg.block_count[b] == 0:
                    cfg.block_count[b] = sum(preds.values())
        return cfg

    def add_transition(self, src: int, dst: int, count: int = 1) -> None:
        if count <= 0:
            raise ValueError("transition count must be positive")
        self._exits = None
        self._out.setdefault(src, {})
        self._out[src][dst] = self._out[src].get(dst, 0) + count
        self._in.setdefault(dst, {})
        self._in[dst][src] = self._in[dst].get(src, 0) + count

    # -- queries ---------------------------------------------------------

    @property
    def n_blocks(self) -> int:
        return self._n

    @property
    def n_edges(self) -> int:
        return sum(len(s) for s in self._out.values())

    def _exit(self, block: int) -> tuple[tuple[tuple[int, int], ...], int]:
        """``block``'s sorted ``(succ, count)`` pairs and out-weight, from a table built whole
        on the first query and only then published: threads sharing a profile never see part of it."""
        table = self._exits
        if table is None:
            table = self._exits = {
                b: (tuple(sorted(succs.items(), key=lambda kv: (-kv[1], kv[0]))), sum(succs.values()))
                for b, succs in self._out.items()
            }
        return table.get(block, ((), 0))

    def successors(self, block: int) -> list[tuple[int, int]]:
        """``(succ, count)`` pairs, heaviest first (ties by block id), in a new list; sorted once per profile."""
        return list(self._exit(block)[0])

    def predecessors(self, block: int) -> list[tuple[int, int]]:
        preds = self._in.get(block)
        if not preds:
            return []
        return sorted(preds.items(), key=lambda kv: (-kv[1], kv[0]))

    def out_weight(self, block: int) -> int:
        """Total count of ``block``'s outgoing transitions, summed once per profile."""
        return self._exit(block)[1]

    def edge_count(self, src: int, dst: int) -> int:
        return self._out.get(src, {}).get(dst, 0)

    def probability(self, src: int, dst: int) -> float:
        """Observed probability of taking ``src -> dst`` among src's exits."""
        total = self.out_weight(src)
        return self.edge_count(src, dst) / total if total else 0.0

    def hottest_successor(self, block: int) -> tuple[int, int] | None:
        succs = self.successors(block)
        return succs[0] if succs else None

    def edges(self) -> Iterator[tuple[int, int, int]]:
        for src in sorted(self._out):
            for dst, count in sorted(self._out[src].items()):
                yield src, dst, count

    def executed_blocks(self) -> np.ndarray:
        """Ids of blocks with a nonzero execution count."""
        return np.flatnonzero(self.block_count > 0)

    # -- aggregations ----------------------------------------------------

    def procedure_call_graph(self, program: Program) -> dict[tuple[int, int], int]:
        """Aggregate inter-procedure edge weights ``(caller pid, callee pid) -> count``.

        Only cross-procedure transitions out of CALL blocks are counted, so
        this is the weighted call graph used by Pettis & Hansen procedure
        ordering (return transitions are excluded to avoid double-counting).
        """
        graph: dict[tuple[int, int], int] = {}
        proc = program.block_proc
        kind = program.block_kind
        for src, dst, count in self.edges():
            if kind[src] != BlockKind.CALL:
                continue
            p, q = int(proc[src]), int(proc[dst])
            if p != q:
                key = (p, q)
                graph[key] = graph.get(key, 0) + count
        return graph
