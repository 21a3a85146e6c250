"""Code layouts: the mapping from basic block to memory address.

As in the paper (Section 7.1), a layout never rewrites code: every block
keeps its original size, only its address changes. A layout may contain
gaps — the CFA mapping of Figure 4 deliberately leaves the conflict-free
address range of every subsequent "logical cache" copy empty.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.cfg.blocks import INSTR_BYTES
from repro.cfg.program import Program

__all__ = ["Layout"]


@dataclass(frozen=True)
class Layout:
    """Byte address of every basic block of a program.

    Attributes
    ----------
    name:
        Short identifier used in experiment tables (``orig``, ``P&H``, ...).
    address:
        ``int64[n_blocks]`` byte address of each block's first instruction.
    """

    name: str
    address: np.ndarray

    @classmethod
    def from_order(
        cls,
        program: Program,
        order: Sequence[int] | np.ndarray,
        *,
        name: str,
        start: int = 0,
    ) -> "Layout":
        """Contiguous layout: blocks placed back-to-back in ``order``."""
        order = np.asarray(order, dtype=np.int64)
        if order.shape[0] != program.n_blocks or np.unique(order).shape[0] != order.shape[0]:
            raise ValueError("order must be a permutation of all block ids")
        sizes = program.block_size[order].astype(np.int64) * INSTR_BYTES
        starts = start + np.concatenate(([0], np.cumsum(sizes[:-1])))
        address = np.empty(program.n_blocks, dtype=np.int64)
        address[order] = starts
        return cls(name=name, address=address)

    @classmethod
    def original(cls, program: Program) -> "Layout":
        """The compiler/link-order layout: block ids in increasing order."""
        return cls.from_order(program, np.arange(program.n_blocks), name="orig")

    @classmethod
    def from_placements(
        cls,
        program: Program,
        placements: dict[int, int],
        *,
        name: str,
    ) -> "Layout":
        """Layout from explicit ``block -> byte address`` placements (may have gaps)."""
        address = np.full(program.n_blocks, -1, dtype=np.int64)
        for block, addr in placements.items():
            address[block] = addr
        if (address < 0).any():
            missing = int((address < 0).sum())
            raise ValueError(f"{missing} blocks left unplaced")
        layout = cls(name=name, address=address)
        layout.validate(program)
        return layout

    # -- persistence -------------------------------------------------------

    def save(self, path) -> None:
        """Persist to ``.npz`` (name + addresses); see :meth:`load`."""
        np.savez_compressed(path, name=np.array(self.name), address=self.address)

    @classmethod
    def load(cls, path, program: Program | None = None) -> "Layout":
        """Load a layout saved with :meth:`save`; validates against
        ``program`` when given."""
        with np.load(path, allow_pickle=False) as data:
            layout = cls(name=str(data["name"]), address=data["address"].astype(np.int64))
        if program is not None:
            if layout.address.shape[0] != program.n_blocks:
                raise ValueError("layout block count does not match program")
            layout.validate(program)
        return layout

    # -- queries ---------------------------------------------------------

    def end_address(self, program: Program) -> np.ndarray:
        """Byte address one past the last instruction of each block."""
        return self.address + program.block_size.astype(np.int64) * INSTR_BYTES

    def extent_bytes(self, program: Program) -> int:
        """Highest occupied byte address (the layout's memory extent)."""
        return int(self.end_address(program).max()) if program.n_blocks else 0

    def order(self) -> np.ndarray:
        """Block ids sorted by address (the physical code order)."""
        return np.argsort(self.address, kind="stable")

    def is_sequential(self, src: int, dst: int, program: Program) -> bool:
        """True if ``dst`` starts exactly where ``src`` ends (no taken branch)."""
        return int(self.address[dst]) == int(self.address[src]) + int(program.block_size[src]) * INSTR_BYTES

    def validate(self, program: Program) -> None:
        """Check blocks do not overlap; raises ``ValueError`` otherwise."""
        order = self.order()
        starts = self.address[order]
        ends = starts + program.block_size[order].astype(np.int64) * INSTR_BYTES
        if (starts[1:] < ends[:-1]).any():
            bad = int(np.argmax(starts[1:] < ends[:-1]))
            a, b = int(order[bad]), int(order[bad + 1])
            raise ValueError(f"blocks {a} and {b} overlap in layout {self.name!r}")
