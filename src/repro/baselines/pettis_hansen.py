"""Pettis & Hansen profile-guided code positioning (PLDI 1990).

Two levels, both driven by the weighted CFG:

* **Basic-block positioning** (within each procedure): bottom-up chaining —
  process intra-procedure edges heaviest first, concatenating the chains
  whose tail/head they connect; the entry chain leads, remaining chains
  follow by connection weight; never-executed blocks ("fluff") sink to the
  bottom of the procedure, which is P&H's procedure splitting in spirit.
* **Procedure positioning**: closest-is-best — process call-graph edges
  heaviest first, merging the procedure chains that contain caller and
  callee in the orientation that puts the most strongly connected endpoints
  next to each other.

As the paper notes (Section 6), the algorithm does not consider the target
cache geometry — there is no CFA.
"""

from __future__ import annotations

import numpy as np

from repro.cfg.layout import Layout
from repro.cfg.program import Program
from repro.cfg.weighted import WeightedCFG

__all__ = ["pettis_hansen_layout"]


class _Chains:
    """Union of ordered chains supporting tail/head concatenation."""

    def __init__(self, items: list[int]) -> None:
        self.chain_of = {x: i for i, x in enumerate(items)}
        self.chains: dict[int, list[int]] = {i: [x] for i, x in enumerate(items)}

    def try_join(self, a: int, b: int) -> bool:
        """Concatenate the chain ending in ``a`` with the one starting at ``b``."""
        ca, cb = self.chain_of[a], self.chain_of[b]
        if ca == cb or self.chains[ca][-1] != a or self.chains[cb][0] != b:
            return False
        self._merge(ca, cb)
        return True

    def _merge(self, ca: int, cb: int) -> None:
        for x in self.chains[cb]:
            self.chain_of[x] = ca
        self.chains[ca].extend(self.chains.pop(cb))


def _order_blocks(program: Program, cfg: WeightedCFG, proc_blocks: tuple[int, ...]) -> list[int]:
    """P&H bottom-up block chaining for one procedure."""
    counts = cfg.block_count
    hot = [b for b in proc_blocks if counts[b] > 0]
    fluff = [b for b in proc_blocks if counts[b] == 0]
    if not hot:
        return list(proc_blocks)
    members = set(hot)
    edges = [
        (count, src, dst)
        for src in hot
        for dst, count in cfg.successors(src)
        if dst in members and dst != src
    ]
    edges.sort(key=lambda e: (-e[0], e[1], e[2]))
    chains = _Chains(hot)
    for _count, src, dst in edges:
        chains.try_join(src, dst)

    # entry chain first, remaining chains by total weight
    entry = proc_blocks[0]
    ordered: list[int] = []
    seen_chains: set[int] = set()

    def emit(chain_id: int) -> None:
        if chain_id in seen_chains:
            return
        seen_chains.add(chain_id)
        ordered.extend(chains.chains[chain_id])

    if entry in chains.chain_of:
        emit(chains.chain_of[entry])
    remaining = sorted(
        (cid for cid in chains.chains if cid not in seen_chains),
        key=lambda cid: (-sum(int(counts[b]) for b in chains.chains[cid]), chains.chains[cid][0]),
    )
    for cid in remaining:
        emit(cid)
    ordered.extend(fluff)
    return ordered


def _order_procedures(program: Program, cfg: WeightedCFG) -> list[int]:
    """Closest-is-best procedure ordering over the weighted call graph."""
    call_graph = cfg.procedure_call_graph(program)
    # undirected edge weights between procedures
    weights: dict[tuple[int, int], int] = {}
    for (p, q), count in call_graph.items():
        key = (min(p, q), max(p, q))
        weights[key] = weights.get(key, 0) + count
    edges = sorted(weights.items(), key=lambda kv: (-kv[1], kv[0]))

    chains: dict[int, list[int]] = {p.pid: [p.pid] for p in program.procedures}
    chain_of = {p.pid: p.pid for p in program.procedures}

    def connection(a: int, b: int) -> int:
        key = (min(a, b), max(a, b))
        return weights.get(key, 0)

    for (p, q), _count in edges:
        cp, cq = chain_of[p], chain_of[q]
        if cp == cq:
            continue
        a, b = chains[cp], chains[cq]
        # four orientations; pick the one whose seam (the two procedures
        # made adjacent by the merge) carries the heaviest connection
        orientations = ((a, b), (a, b[::-1]), (a[::-1], b), (b, a))
        best, best_score = None, -1
        for left, right in orientations:
            seam = connection(left[-1], right[0])
            if seam > best_score:
                best, best_score = left + right, seam
        for pid in best:
            chain_of[pid] = cp
        chains[cp] = best
        del chains[cq]

    counts = cfg.block_count
    proc_weight = {
        p.pid: sum(int(counts[b]) for b in p.blocks) for p in program.procedures
    }
    ordered_chains = sorted(
        chains.values(),
        key=lambda chain: (-max(proc_weight[pid] for pid in chain), chain[0]),
    )
    return [pid for chain in ordered_chains for pid in chain]


def pettis_hansen_layout(program: Program, cfg: WeightedCFG) -> Layout:
    """The P&H layout: procedure ordering + per-procedure block chaining."""
    order: list[int] = []
    for pid in _order_procedures(program, cfg):
        order.extend(_order_blocks(program, cfg, program.procedures[pid].blocks))
    return Layout.from_order(program, np.asarray(order), name="P&H")
