"""Dynamic basic-block traces.

A :class:`BlockTrace` is the reproduction's stand-in for an ATOM-style
instruction trace: the sequence of executed basic-block ids, stored as a
NumPy ``int32`` array so the simulators can work vectorized. Independent
runs (e.g. separate queries) are concatenated with a ``SEPARATOR`` sentinel
so that no false transition is recorded across run boundaries.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

import numpy as np

__all__ = ["DEFAULT_CHUNK_EVENTS", "SEPARATOR", "BlockTrace"]

#: Sentinel event separating independent runs within one trace.
SEPARATOR = -1

#: Events per window of every streamed pass over a trace, and per chunk of
#: a stored trace: one size, so default reads pass stored chunks through
#: without re-slicing.
DEFAULT_CHUNK_EVENTS = 2_000_000


class BlockTrace:
    """Immutable sequence of executed basic-block ids (plus run separators)."""

    __slots__ = ("events",)

    def __init__(self, events: np.ndarray | Sequence[int]) -> None:
        events = np.asarray(events, dtype=np.int32)
        if events.ndim != 1:
            raise ValueError("trace must be one-dimensional")
        if events.size and int(events.min()) < SEPARATOR:
            raise ValueError("negative block id in trace")
        self.events = events
        self.events.setflags(write=False)

    # -- construction ----------------------------------------------------

    @classmethod
    def concatenate(cls, traces: Iterable["BlockTrace"]) -> "BlockTrace":
        """Join traces with separators so no cross-run transition appears."""
        parts: list[np.ndarray] = []
        sep = np.asarray([SEPARATOR], dtype=np.int32)
        for trace in traces:
            if parts:
                parts.append(sep)
            parts.append(trace.events)
        if not parts:
            return cls(np.empty(0, dtype=np.int32))
        return cls(np.concatenate(parts))

    # -- basic queries ---------------------------------------------------

    def __len__(self) -> int:
        return int(self.events.shape[0])

    @property
    def valid(self) -> np.ndarray:
        """Boolean mask of real (non-separator) events."""
        return self.events != SEPARATOR

    @property
    def n_events(self) -> int:
        """Number of basic-block executions (separators excluded)."""
        return int(self.valid.sum())

    def block_ids(self) -> np.ndarray:
        """The executed block ids with separators removed."""
        return self.events[self.valid]

    def n_instructions(self, block_size: np.ndarray) -> int:
        """Dynamic instruction count given the program's block-size table."""
        ids = self.block_ids()
        return int(block_size[ids].astype(np.int64).sum()) if ids.size else 0

    def instruction_positions(self, block_size: np.ndarray) -> np.ndarray:
        """``int64`` start position (in instructions) of each *valid* event.

        Positions keep increasing across run separators: the runs execute
        back-to-back in one process, as in the paper's profiling runs.
        """
        ids = self.block_ids()
        sizes = block_size[ids].astype(np.int64)
        positions = np.zeros(ids.shape[0], dtype=np.int64)
        if ids.size > 1:
            np.cumsum(sizes[:-1], out=positions[1:])
        return positions

    def iter_events(
        self,
        chunk_events: int,
        *,
        start_event: int = 0,
        stop_event: int | None = None,
    ) -> Iterator[tuple[np.ndarray, int | None]]:
        """Yield ``(window, next_event)`` in windows of ``chunk_events``.

        ``next_event`` is the event just past the window (``None`` at end
        of trace); the simulators use it for their chunk-boundary
        sequentiality check. Stored traces
        (:class:`~repro.profiling.tracestore.TraceStore`) expose the same
        iterator, which is what lets the simulators stream either kind.

        ``start_event``/``stop_event`` restrict iteration to the event
        slice ``[start_event, stop_event)``; windows still fall at the
        same absolute offsets as a full iteration would place them when
        ``start_event`` is a multiple of ``chunk_events``, and the final
        window's ``next_event`` peeks past ``stop_event`` into the
        underlying stream — which is what makes shard-wise iteration
        splice together bit-identically to one full pass.
        """
        if chunk_events <= 0:
            raise ValueError("chunk_events must be positive")
        events = self.events
        n = events.shape[0]
        stop = n if stop_event is None else min(max(int(stop_event), 0), n)
        start = min(max(int(start_event), 0), stop)
        while start < stop:
            end = min(start + chunk_events, stop)
            yield events[start:end], (int(events[end]) if end < n else None)
            start = end

    def segments(self) -> Iterator[np.ndarray]:
        """Yield each separator-delimited run as an array of block ids."""
        bounds = np.flatnonzero(self.events == SEPARATOR)
        start = 0
        for b in bounds:
            yield self.events[start:b]
            start = int(b) + 1
        yield self.events[start:]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BlockTrace(n_events={self.n_events}, len={len(self)})"
