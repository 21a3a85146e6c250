"""Tables and the catalog: heap files plus their indexes.

A :class:`Table` owns a heap file (pages of tuples, reached through the
buffer manager) and any number of named indexes. Tuple ids are
``(page number, slot)`` pairs, so index lookups resolve through the buffer
manager exactly like the real kernel's ``heap_fetch``.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.kernel import decide
from repro.kernel.registry import Registry
from repro.minidb.btree import BTreeIndex
from repro.minidb.buffer import BufferManager
from repro.minidb.hashindex import HashIndex
from repro.minidb.tuples import Schema

__all__ = ["Table", "TID"]

TID = tuple


class Table:
    """A heap table with optional B-tree/hash indexes."""

    def __init__(self, name: str, schema: Schema, buffer: BufferManager, registry: Registry) -> None:
        self.name = name
        self.schema = schema
        self.buffer = buffer
        self.registry = registry
        self.fid = buffer.storage.create_file()
        self.n_rows = 0
        # keyed by (column, kind): the paper's Btree and Hash database
        # variants share one binary, so one Database may carry both kinds
        self.indexes: dict[tuple[str, str], BTreeIndex | HashIndex] = {}
        self._getnext = registry.scope(f"heap_getnext[{name}]", "access", sites=1, decides=1)
        self._fetch = registry.scope(f"heap_fetch[{name}]", "access", sites=1, decides=1)
        self._update = registry.scope(f"heap_update[{name}]", "access", sites=1, decides=1)
        # attribute extraction is per-table specialized code in real kernels
        self._deform = registry.scope(f"heap_deform[{name}]", "access", sites=0, decides=2)

    # -- data loading (not traced: the paper profiles query execution only) --

    def insert(self, row: tuple) -> TID:
        """Append a row to the heap and maintain all indexes."""
        self.schema.validate_row(row)
        storage = self.buffer.storage
        n_pages = storage.n_pages(self.fid)
        if n_pages == 0:
            pageno = storage.extend(self.fid)
        else:
            pageno = n_pages - 1
            if storage.read_page(self.fid, pageno).full:
                pageno = storage.extend(self.fid)
        slot = storage.read_page(self.fid, pageno).add(row)
        tid = (pageno, slot)
        self.n_rows += 1
        for (column, _kind), index in self.indexes.items():
            index.insert(row[self.schema.index_of(column)], tid)
        return tid

    def create_index(self, column: str, kind: str = "btree", *, unique: bool = False) -> None:
        """Index an existing column; backfills from current heap contents."""
        if (column, kind) in self.indexes:
            raise ValueError(f"column {column!r} already has a {kind} index on {self.name!r}")
        name = f"{self.name}_{column}_{kind}"
        if kind == "btree":
            index: BTreeIndex | HashIndex = BTreeIndex(name, self.registry, unique=unique)
        elif kind == "hash":
            index = HashIndex(name, self.registry, unique=unique)
        else:
            raise ValueError(f"unknown index kind {kind!r}")
        col_idx = self.schema.index_of(column)
        storage = self.buffer.storage
        for pageno in range(storage.n_pages(self.fid)):
            page = storage.read_page(self.fid, pageno)
            for slot, row in enumerate(page.rows):
                index.insert(row[col_idx], (pageno, slot))
        self.indexes[(column, kind)] = index

    # -- access methods (traced) --------------------------------------------

    def heap_scan(self) -> Iterator[tuple]:
        """Yield every row in heap order, one instrumented call per page."""
        storage = self.buffer.storage
        n_pages = storage.n_pages(self.fid)
        for pageno in range(n_pages):
            with self._getnext:
                page = self.buffer.get_page(self.fid, pageno)
                decide(pageno + 1 < n_pages)  # more pages to come?
                rows = page.rows
                with self._deform:
                    decide(page.full)  # short tail page vs full page
            yield from rows

    def fetch(self, tid: TID) -> tuple:
        """Fetch one row by tuple id, through the buffer manager."""
        with self._fetch:
            pageno, slot = tid
            page = self.buffer.get_page(self.fid, pageno)
            decide(slot < len(page.rows) - 1)  # slot position within page
            row = page.rows[slot]
            with self._deform:
                decide(page.full)
            return row

    def update(self, tid: TID, new_row: tuple) -> None:
        """Replace a row in place (OLTP write path, traced).

        Indexed columns must keep their values: like PostgreSQL's HOT
        updates, in-place replacement is only legal when no index entry
        would change (the OLTP transactions only touch balances/counters).
        """
        self.schema.validate_row(new_row)
        with self._update:
            pageno, slot = tid
            page = self.buffer.get_page(self.fid, pageno)
            old_row = page.rows[slot]
            for (column, _kind), _index in self.indexes.items():
                idx = self.schema.index_of(column)
                if old_row[idx] != new_row[idx]:
                    raise ValueError(
                        f"update would change indexed column {column!r} on {self.name!r}"
                    )
            decide(slot < len(page.rows) - 1)
            page.rows[slot] = new_row

    def index_on(self, column: str, kind: str = "btree") -> BTreeIndex | HashIndex:
        try:
            return self.indexes[(column, kind)]
        except KeyError:
            raise KeyError(f"table {self.name!r} has no {kind} index on {column!r}") from None
