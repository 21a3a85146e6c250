"""Storage manager: files of fixed-capacity pages (Figure 1, bottom layer).

The storage manager knows nothing about tuples' meaning: it hands out page
objects by ``(file id, page number)``. Reads are instrumented — in the real
kernel this layer is where I/O system calls and file-offset arithmetic live.
"""

from __future__ import annotations

from repro.kernel import kernel_routine

__all__ = ["Page", "StorageManager", "DEFAULT_PAGE_CAPACITY"]

#: Tuples per page. With ~128-byte TPC-D tuples this models an 8 KB page.
DEFAULT_PAGE_CAPACITY = 64


class Page:
    """A slotted page: a bounded list of rows."""

    __slots__ = ("rows", "capacity")

    def __init__(self, capacity: int) -> None:
        self.rows: list[tuple] = []
        self.capacity = capacity

    @property
    def full(self) -> bool:
        return len(self.rows) >= self.capacity

    def add(self, row: tuple) -> int:
        if self.full:
            raise ValueError("page full")
        self.rows.append(row)
        return len(self.rows) - 1


class StorageManager:
    """Owns all files; the buffer manager is its only client."""

    def __init__(self, page_capacity: int = DEFAULT_PAGE_CAPACITY) -> None:
        self._files: dict[int, list[Page]] = {}
        self._next_fid = 0
        self.page_capacity = page_capacity
        self.reads = 0

    def create_file(self) -> int:
        fid = self._next_fid
        self._next_fid += 1
        self._files[fid] = []
        return fid

    def n_pages(self, fid: int) -> int:
        return len(self._files[fid])

    def extend(self, fid: int) -> int:
        """Append an empty page; returns its page number."""
        pages = self._files[fid]
        pages.append(Page(self.page_capacity))
        return len(pages) - 1

    @kernel_routine("storage", sites=0, decides=1, name="smgr_read")
    def read_page(self, fid: int, pageno: int) -> Page:
        """Fetch a page (models the seek+read path of the real storage layer)."""
        from repro.kernel import decide

        pages = self._files[fid]
        # data-dependent path: reading the current tail page vs an inner page
        decide(pageno == len(pages) - 1)
        self.reads += 1
        return pages[pageno]
