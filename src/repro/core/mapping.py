"""Sequence mapping with a Conflict Free Area (paper Section 5.3, Figure 4).

The address space is viewed as a logical array of caches, each the size and
alignment of the physical i-cache. The most popular sequences are packed —
whole, never split — into the start of the first logical cache: the
Conflict Free Area. That address range is kept free of code in every other
logical cache, so nothing can ever evict the CFA's contents. The remaining
sequences fill the non-CFA area of successive logical caches, and the cold
remainder of the program then fills the entire address space, including the
reserved ranges ("this rarely executed code is expected not to produce many
conflicts with the sequences placed in the CFA").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cfg.blocks import INSTR_BYTES
from repro.cfg.layout import Layout
from repro.cfg.program import Program

__all__ = ["CacheGeometry", "map_sequences"]


@dataclass(frozen=True)
class CacheGeometry:
    """Physical i-cache size and the CFA carved out of it (bytes)."""

    cache_bytes: int
    cfa_bytes: int
    line_bytes: int = 32

    def __post_init__(self) -> None:
        if self.cache_bytes <= 0 or self.cache_bytes % self.line_bytes:
            raise ValueError("cache size must be a positive multiple of the line size")
        if not 0 <= self.cfa_bytes < self.cache_bytes:
            raise ValueError("CFA must be smaller than the cache")


class _Allocator:
    """Byte allocator over the logical cache array with a forbidden window.

    While ``protecting`` is on, the CFA window ``[k*C + base, k*C + limit)``
    of every logical cache ``k >= 1`` is skipped (the window of cache 0 is
    where the protected sequences themselves live).
    """

    def __init__(self, geometry: CacheGeometry) -> None:
        self.geometry = geometry
        self.cursor = 0
        self.protecting = geometry.cfa_bytes > 0
        self.gaps: list[tuple[int, int]] = []  # skipped [start, end) ranges

    def _window_clash(self, start: int, size: int) -> int | None:
        """Next allowed start if [start, start+size) enters a CFA window."""
        if not self.protecting:
            return None
        cache = self.geometry.cache_bytes
        cfa = self.geometry.cfa_bytes
        end = start + size
        # check the windows of the caches this range touches
        for k in range(start // cache, end // cache + 1):
            if k == 0:
                continue
            w_start, w_end = k * cache, k * cache + cfa
            if start < w_end and end > w_start:
                return w_end
        return None

    def place(self, size: int) -> int:
        """Allocate ``size`` contiguous bytes; returns the start address.

        An allocation larger than a logical cache's free area can never fit
        between two reserved windows: it is placed straddling the window
        (self-conflict is unavoidable for such a block anyway).
        """
        start = self.cursor
        if self.protecting and size > self.geometry.cache_bytes - self.geometry.cfa_bytes:
            self.cursor = start + size
            return start
        while True:
            bump = self._window_clash(start, size)
            if bump is None:
                break
            self.gaps.append((start, bump))
            start = bump
        self.cursor = start + size
        return start


def map_sequences(
    program: Program,
    sequences: list[list[int]],
    geometry: CacheGeometry,
    *,
    name: str,
    cfa_sequences: list[list[int]] | None = None,
    cfa_blocks: list[int] | None = None,
) -> Layout:
    """Produce a layout from ordered sequences and a cache geometry.

    CFA policy (pick one):

    * ``cfa_sequences`` — the paper's multi-pass STC mapping: the first
      pass's sequences are admitted to the CFA whole, in order; any that do
      not fit join the front of the regular sequence stream.
    * ``cfa_blocks`` (Torrellas baseline) — pin the given individual blocks
      into the CFA, pulling them out of their sequences.
    * neither (default) — single-pass form: the main ``sequences``
      themselves are the CFA candidates.

    Cold code (the blocks no sequence placed), in block-id order, fills the
    gaps the protected windows left, gap by gap, then follows the last
    sequence: one cumulative sum over the cold sizes says how many blocks
    fit in each gap, and the first that does not moves on to the next one.
    """
    sizes = program.block_size.astype(np.int64) * INSTR_BYTES
    address = np.full(program.n_blocks, -1, dtype=np.int64)
    alloc = _Allocator(geometry)

    # -- fill the CFA -------------------------------------------------------
    if cfa_blocks is not None:
        budget = geometry.cfa_bytes
        for block in cfa_blocks:
            if sizes[block] <= budget:
                address[block] = alloc.place(int(sizes[block]))
                budget -= int(sizes[block])
    else:
        if cfa_sequences is not None:
            candidates, overflow = cfa_sequences, []
        else:
            candidates, overflow = sequences, None
        budget = geometry.cfa_bytes
        for seq in candidates:
            seq_size = int(sizes[list(seq)].sum())
            if seq_size <= budget:
                for block in seq:
                    address[block] = alloc.place(int(sizes[block]))
                budget -= seq_size
            elif overflow is not None:
                overflow.append(seq)
        if cfa_sequences is not None:
            sequences = overflow + sequences

    # -- the remaining sequences around the protected window ----------------
    if alloc.cursor < geometry.cfa_bytes:
        alloc.cursor = geometry.cfa_bytes  # do not mix sequences into the CFA
    for seq in sequences:
        rest = [b for b in seq if address[b] < 0]  # the CFA's blocks are placed
        if not rest:
            continue
        seq_size = int(sizes[rest].sum())
        if seq_size <= geometry.cache_bytes - geometry.cfa_bytes or not alloc.protecting:
            start = alloc.place(seq_size)
            for block in rest:
                address[block] = start
                start += int(sizes[block])
        else:
            # longer than a logical cache's free area: place block by block,
            # breaking only where the protected window forces a jump
            for block in rest:
                address[block] = alloc.place(int(sizes[block]))

    # -- cold remainder fills the entire address space ----------------------
    cold = np.flatnonzero(address < 0)
    # offset[i]: bytes of the cold blocks before cold[i]
    offset = np.concatenate(([0], np.cumsum(sizes[cold])))
    first = 0  # the first cold block not placed yet
    for g_start, g_end in alloc.gaps:
        # the blocks first..stop-1 fit in this gap; block ``stop`` does not,
        # so it and every later block move on to the next gap
        stop = int(np.searchsorted(offset, offset[first] + (g_end - g_start), side="right")) - 1
        address[cold[first:stop]] = g_start + offset[first:stop] - offset[first]
        first = stop
    address[cold[first:]] = alloc.cursor + offset[first:-1] - offset[first]

    layout = Layout(name=name, address=address)
    layout.validate(program)
    return layout
