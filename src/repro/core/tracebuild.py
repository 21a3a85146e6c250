"""Greedy sequence building (paper Section 5.2, Figure 3).

Starting from each seed, follow the most frequently executed path out of
each basic block — visiting called subroutines inline, since a call block's
hottest successor is the callee's entry. A transition is *valid* when the
successor is unvisited, its execution weight reaches the Exec Threshold,
and the transition probability reaches the Branch Threshold. Valid
transitions that are not taken are noted and later seed secondary traces;
invalid ones are discarded.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass

from repro.cfg.weighted import WeightedCFG

__all__ = ["TraceParams", "build_sequences"]


@dataclass(frozen=True)
class TraceParams:
    """The two thresholds of the sequence builder.

    ``exec_threshold`` is an absolute execution count (the paper's
    ExecThresh; Figure 3 uses 4). ``branch_threshold`` is the minimum
    transition probability (Figure 3 uses 0.4).
    """

    exec_threshold: int = 4
    branch_threshold: float = 0.4

    def __post_init__(self) -> None:
        if self.exec_threshold < 0:
            raise ValueError("exec_threshold must be >= 0")
        if not 0.0 <= self.branch_threshold <= 1.0:
            raise ValueError("branch_threshold must be in [0, 1]")


def build_sequences(
    cfg: WeightedCFG,
    seeds: Iterable[int],
    params: TraceParams = TraceParams(),
    visited: set[int] | None = None,
    *,
    explore_from_visited: bool = False,
) -> list[list[int]]:
    """Build main and secondary sequences from the seeds, in order.

    ``visited`` carries state across calls (multi-pass builds reuse it so a
    block is placed exactly once); it is updated in place when given.

    ``explore_from_visited`` is used by the later passes of the multi-pass
    STC build: a seed placed by an earlier (tighter-threshold) pass is not
    re-placed, but the exploration walks through already-placed blocks to
    find the valid transitions the earlier pass rejected, and grows this
    pass's sequences from those.
    """
    visited = visited if visited is not None else set()
    exits: dict[int, tuple] = {}  # the frontier walks' table, see _note_frontier
    sequences: list[list[int]] = []

    for seed in seeds:
        seed = int(seed)
        pending: deque[int] = deque()
        if seed in visited:
            if explore_from_visited:
                _note_frontier(cfg, seed, params, visited, pending, exits)
            else:
                continue
        elif cfg.block_count[seed] < params.exec_threshold:
            continue
        else:
            pending.append(seed)
        while pending:
            start = pending.popleft()
            if start in visited:
                continue
            sequence = _grow(cfg, start, params, visited, pending)
            if sequence:
                sequences.append(sequence)
    return sequences


def _note_frontier(
    cfg: WeightedCFG,
    seed: int,
    params: TraceParams,
    visited: set[int],
    pending: deque[int],
    exits: dict[int, tuple],
) -> None:
    """Walk already-placed blocks reachable from ``seed``, noting every
    valid transition into unplaced territory. ``exits``, shared by one
    call's walks, holds each walked block's ``(succ, valid)`` pairs: the
    static half of :func:`_grow`'s test (``succ in visited`` can change)."""
    frontier = [seed]
    walked = {seed}
    while frontier:
        block = frontier.pop()
        entry = exits.get(block)
        if entry is None:
            out_weight = cfg.out_weight(block)
            entry = exits[block] = tuple(
                (succ, cfg.block_count[succ] >= params.exec_threshold and count / out_weight >= params.branch_threshold)
                for succ, count in cfg.successors(block)
            )
        for succ, valid in entry:
            if succ in visited:
                if succ not in walked:
                    walked.add(succ)
                    frontier.append(succ)
            elif valid:
                pending.append(succ)


def _grow(
    cfg: WeightedCFG,
    start: int,
    params: TraceParams,
    visited: set[int],
    pending: deque[int],
) -> list[int]:
    """Grow one sequence greedily; note untaken valid transitions."""
    sequence = [start]
    visited.add(start)
    current = start
    while True:
        out_weight = cfg.out_weight(current)
        chosen = None
        for succ, count in cfg.successors(current):
            if succ in visited:
                continue
            if cfg.block_count[succ] < params.exec_threshold:
                continue
            if count / out_weight < params.branch_threshold:
                continue
            if chosen is None:
                chosen = succ
            else:
                pending.append(succ)  # noted for a secondary trace
        if chosen is None:
            break
        sequence.append(chosen)
        visited.add(chosen)
        current = chosen
    return sequence
