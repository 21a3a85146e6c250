"""Compact, chunked, on-disk block traces.

A stored trace is the streaming twin of :class:`~repro.profiling.trace.
BlockTrace`: the same ``int32`` event stream (block ids plus ``SEPARATOR``
sentinels between runs), but written incrementally by the tracer and read
back window by window, so neither producer nor consumer ever holds more
than one chunk in memory.

File layout (all integers little-endian)::

    header    magic ``RTRC``, format version, nominal chunk size,
              total/valid event counts, directory offset, CRC-32
    chunks    back-to-back compressed chunks of exactly ``chunk_events``
              events (the last chunk may be shorter)
    directory one fixed-size record per chunk — byte offset, compressed
              size, event count, CRC-32 of the compressed bytes, encoding
              flags — followed by a CRC-32 of the directory itself

Each chunk is delta-encoded (first event absolute, then successive
differences — block ids emitted back to back are usually close, so the
deltas are small and zlib squeezes them hard) and deflate-compressed. A
chunk whose deltas overflow ``int32`` falls back to raw encoding, flagged
per chunk in the directory.

Readers memory-map the file and decompress only the chunks they touch.
Every structural problem — bad magic, unknown version, truncated file,
CRC mismatch, short chunk — raises :class:`TraceFormatError`, which cache
loaders treat as corruption (rebuild) rather than a crash.

Writes are atomic: :class:`TraceWriter` streams into a temporary of its
own next to ``path`` (``tempfile.mkstemp``, ``<name>.<random>.tmp``) and
renames over ``path`` only when ``close()`` has written a complete,
self-consistent file, so a killed writer can never leave a half-written
trace behind at the final path, and two writers of one path never write
into each other's temporary.
"""

from __future__ import annotations

import mmap
import os
import struct
import tempfile
import zlib
from collections import deque
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from repro.profiling.trace import DEFAULT_CHUNK_EVENTS, SEPARATOR, BlockTrace

__all__ = [
    "TRACE_FORMAT_VERSION",
    "TraceFormatError",
    "TraceStore",
    "TraceWriter",
    "write_trace",
]

#: On-disk format version; readers reject anything else.
TRACE_FORMAT_VERSION = 1

_MAGIC = b"RTRC"
#: magic, version, reserved, chunk_events, n_events, n_valid, dir_offset, crc
_HEADER = struct.Struct("<4sHHIQQQI")
#: offset, compressed size, event count, crc32, flags
_RECORD = struct.Struct("<QIIII")
_DIR_COUNT = struct.Struct("<I")
_DIR_CRC = struct.Struct("<I")

_FLAG_DELTA = 1


class TraceFormatError(RuntimeError):
    """The trace file is truncated, corrupt, or of an unknown version."""


def _encode_chunk(events: np.ndarray) -> tuple[bytes, int]:
    """Compress one chunk; returns (payload, flags)."""
    deltas = np.diff(events.astype(np.int64), prepend=np.int64(0))
    if deltas.size and (deltas.max() > np.iinfo(np.int32).max or deltas.min() < np.iinfo(np.int32).min):
        return zlib.compress(np.ascontiguousarray(events, dtype=np.int32).tobytes()), 0
    return zlib.compress(deltas.astype(np.int32).tobytes()), _FLAG_DELTA


def _decode_chunk(payload: bytes, n_events: int, flags: int) -> np.ndarray:
    try:
        raw = zlib.decompress(payload, bufsize=4 * n_events)
    except zlib.error as exc:
        raise TraceFormatError(f"undecompressable trace chunk: {exc}") from exc
    arr = np.frombuffer(raw, dtype=np.int32)
    if arr.shape[0] != n_events:
        raise TraceFormatError(
            f"trace chunk decoded to {arr.shape[0]} events, directory says {n_events}"
        )
    if flags & _FLAG_DELTA:
        arr = np.cumsum(arr, dtype=np.int32)  # exact: every prefix sum is an event
    arr.setflags(write=False)
    return arr


class TraceWriter:
    """Streams an event sequence into a stored trace, chunk by chunk.

    The run/separator protocol mirrors :meth:`BlockTrace.concatenate`:
    callers push events with :meth:`append_events` and close each logical
    run with :meth:`end_run`; a ``SEPARATOR`` is inserted exactly between
    non-empty runs, never leading or trailing.
    """

    def __init__(self, path: Path | str, chunk_events: int = DEFAULT_CHUNK_EVENTS) -> None:
        if chunk_events <= 0:
            raise ValueError("chunk_events must be positive")
        self._path = Path(path)
        self._path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=self._path.parent, prefix=self._path.name + ".", suffix=".tmp"
        )
        self._tmp = Path(tmp)
        self._fh = os.fdopen(fd, "wb")
        self._fh.write(b"\0" * _HEADER.size)  # placeholder; rewritten on close
        self._chunk_events = chunk_events
        self._pending: deque[np.ndarray] = deque()
        self._pending_n = 0
        self._records: list[tuple[int, int, int, int, int]] = []
        self._n_events = 0
        self._n_valid = 0
        self._offset = _HEADER.size
        self._any_prev_run = False
        self._run_events = 0
        self._closed = False

    # -- run protocol ----------------------------------------------------

    def append_events(self, events: np.ndarray) -> None:
        """Append events to the current run (empty arrays are no-ops)."""
        events = np.asarray(events, dtype=np.int32)
        if events.size == 0:
            return
        if self._run_events == 0 and self._any_prev_run:
            self._push(np.asarray([SEPARATOR], dtype=np.int32))
        self._run_events += int(events.size)
        self._push(events)

    def end_run(self) -> None:
        """Close the current run; the next events start a new segment."""
        if self._run_events:
            self._any_prev_run = True
            self._run_events = 0

    # -- chunk machinery -------------------------------------------------

    def _push(self, events: np.ndarray) -> None:
        self._pending.append(events)
        self._pending_n += int(events.size)
        self._n_events += int(events.size)
        self._n_valid += int(np.count_nonzero(events != SEPARATOR))
        while self._pending_n >= self._chunk_events:
            self._emit(self._chunk_events)

    def _emit(self, take: int) -> None:
        parts: list[np.ndarray] = []
        need = take
        while need:
            head = self._pending[0]
            if head.shape[0] <= need:
                parts.append(head)
                self._pending.popleft()
                need -= head.shape[0]
            else:
                parts.append(head[:need])
                self._pending[0] = head[need:]
                need = 0
        self._pending_n -= take
        chunk = parts[0] if len(parts) == 1 else np.concatenate(parts)
        payload, flags = _encode_chunk(chunk)
        self._records.append((self._offset, len(payload), take, zlib.crc32(payload), flags))
        self._fh.write(payload)
        self._offset += len(payload)

    # -- finalization ----------------------------------------------------

    def close(self) -> "TraceStore":
        """Finish the file atomically and return a store over it."""
        if self._closed:
            raise RuntimeError("TraceWriter already closed")
        self.end_run()
        if self._pending_n:
            self._emit(self._pending_n)
        directory = bytearray(_DIR_COUNT.pack(len(self._records)))
        for record in self._records:
            directory += _RECORD.pack(*record)
        directory += _DIR_CRC.pack(zlib.crc32(bytes(directory)))
        dir_offset = self._offset
        self._fh.write(bytes(directory))
        head = _HEADER.pack(
            _MAGIC, TRACE_FORMAT_VERSION, 0, self._chunk_events,
            self._n_events, self._n_valid, dir_offset, 0,
        )
        head = head[:-4] + struct.pack("<I", zlib.crc32(head[:-4]))
        self._fh.seek(0)
        self._fh.write(head)
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._fh.close()
        os.replace(self._tmp, self._path)
        self._closed = True
        return TraceStore(self._path)

    def abort(self) -> None:
        """Discard the partial file (safe to call after a failure)."""
        if not self._closed:
            self._closed = True
            try:
                self._fh.close()
            finally:
                self._tmp.unlink(missing_ok=True)

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        if exc_type is not None:
            self.abort()
        elif not self._closed:
            self.close()


def write_trace(trace: BlockTrace, path: Path | str,
                chunk_events: int = DEFAULT_CHUNK_EVENTS) -> "TraceStore":
    """Store an in-memory trace (keeps the event stream bit-identical)."""
    writer = TraceWriter(path, chunk_events)
    try:
        # the events already carry their separators: bypass the run protocol
        n = trace.events.shape[0]
        for start in range(0, n, chunk_events):
            writer._push(trace.events[start : start + chunk_events])
        return writer.close()
    except BaseException:
        writer.abort()
        raise


class TraceStore:
    """Read side of a stored trace.

    The one read path is :meth:`iter_events`: the same windows as
    ``BlockTrace.iter_events`` over the same event stream. Every consumer
    reads windows — the simulators, the training profile
    (:func:`~repro.profiling.profiler.profile_trace`), reuse distances and
    branch prediction — so each accepts either kind of trace, gives
    bit-identical results and decodes a stored trace one chunk at a time.
    :meth:`materialize` is an explicit whole-trace read for tests and
    round-trip checks.

    Stores pickle as just their path and re-open lazily, so a workload
    holding stored traces costs nothing to fan out to worker processes.
    """

    def __init__(self, path: Path | str) -> None:
        self._path = Path(path)
        self._records: list[tuple[int, int, int, int, int]] | None = None
        self._n_events = 0
        self._n_valid = 0
        self._chunk_events = DEFAULT_CHUNK_EVENTS

    @property
    def path(self) -> Path:
        return self._path

    # -- directory -------------------------------------------------------

    def _ensure(self) -> list[tuple[int, int, int, int, int]]:
        if self._records is not None:
            return self._records
        try:
            size = self._path.stat().st_size
            with open(self._path, "rb") as fh:
                head = fh.read(_HEADER.size)
                if len(head) < _HEADER.size:
                    raise TraceFormatError(f"{self._path}: truncated header")
                magic, version, _, chunk_events, n_events, n_valid, dir_offset, crc = (
                    _HEADER.unpack(head)
                )
                if magic != _MAGIC:
                    raise TraceFormatError(f"{self._path}: not a trace file")
                if crc != zlib.crc32(head[:-4]):
                    raise TraceFormatError(f"{self._path}: header CRC mismatch")
                if version != TRACE_FORMAT_VERSION:
                    raise TraceFormatError(
                        f"{self._path}: format version {version}, "
                        f"reader supports {TRACE_FORMAT_VERSION}"
                    )
                if dir_offset + _DIR_COUNT.size + _DIR_CRC.size > size:
                    raise TraceFormatError(f"{self._path}: truncated directory")
                fh.seek(dir_offset)
                directory = fh.read(size - dir_offset)
        except OSError as exc:
            raise TraceFormatError(f"{self._path}: unreadable trace file: {exc}") from exc
        (n_chunks,) = _DIR_COUNT.unpack_from(directory, 0)
        body_end = _DIR_COUNT.size + n_chunks * _RECORD.size
        if body_end + _DIR_CRC.size > len(directory):
            raise TraceFormatError(f"{self._path}: truncated directory")
        (dir_crc,) = _DIR_CRC.unpack_from(directory, body_end)
        if dir_crc != zlib.crc32(directory[:body_end]):
            raise TraceFormatError(f"{self._path}: directory CRC mismatch")
        records = [
            _RECORD.unpack_from(directory, _DIR_COUNT.size + i * _RECORD.size)
            for i in range(n_chunks)
        ]
        total = sum(r[2] for r in records)
        if total != n_events:
            raise TraceFormatError(
                f"{self._path}: directory events ({total}) != header events ({n_events})"
            )
        for offset, comp_size, _, _, _ in records:
            if offset + comp_size > dir_offset:
                raise TraceFormatError(f"{self._path}: chunk extends past the directory")
        self._records = records
        self._n_events = n_events
        self._n_valid = n_valid
        self._chunk_events = chunk_events or DEFAULT_CHUNK_EVENTS
        return records

    def verify(self, deep: bool = False) -> None:
        """Raise :class:`TraceFormatError` on any structural problem.

        ``deep=True`` additionally decompresses every chunk and checks its
        CRC; the default validates only the header and directory.
        """
        self._ensure()
        if deep:
            for _ in self._iter_stored():
                pass

    # -- streaming reads -------------------------------------------------

    def _iter_stored(
        self, start_event: int = 0, stop_event: int | None = None
    ) -> Iterator[np.ndarray]:
        """Decompress stored chunks, restricted to ``[start_event, stop_event)``.

        The directory's per-chunk event counts locate the overlapping
        chunks, so a slice near the end of a long trace never touches the
        chunks before it — shard workers pay only for their own span.
        """
        records = self._ensure()
        if not records:
            return
        stop = self._n_events if stop_event is None else min(stop_event, self._n_events)
        if start_event >= stop:
            return
        pos = 0
        with open(self._path, "rb") as fh:
            with mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as mm:
                for offset, comp_size, n_events, crc, flags in records:
                    lo, hi = pos, pos + n_events
                    pos = hi
                    if hi <= start_event:
                        continue
                    if lo >= stop:
                        break
                    payload = mm[offset : offset + comp_size]
                    if len(payload) != comp_size or zlib.crc32(payload) != crc:
                        raise TraceFormatError(f"{self._path}: chunk CRC mismatch")
                    arr = _decode_chunk(payload, n_events, flags)
                    del payload  # not held across the yield
                    a = start_event - lo if lo < start_event else 0
                    b = stop - lo if hi > stop else n_events
                    yield arr if a == 0 and b == n_events else arr[a:b]

    def iter_events(
        self,
        chunk_events: int | None = None,
        *,
        start_event: int = 0,
        stop_event: int | None = None,
    ) -> Iterator[tuple[np.ndarray, int | None]]:
        """Yield ``(window, next_event)`` in windows of ``chunk_events``.

        Windows partition the event stream exactly as slicing the
        materialized array would; ``next_event`` is the event just past
        the window (``None`` at end of trace), which the simulators need
        for their chunk-boundary sequentiality check. When the window
        size equals the stored chunk size (the default), stored chunks
        stream through without copying.

        ``start_event``/``stop_event`` restrict iteration to the event
        slice ``[start_event, stop_event)`` — the same contract as
        :meth:`BlockTrace.iter_events`: the final window's ``next_event``
        peeks one event past ``stop_event`` into the underlying stream,
        and only the stored chunks overlapping the slice are decompressed.
        """
        window = chunk_events or self._chunk_events
        if window <= 0:
            raise ValueError("chunk_events must be positive")
        self._ensure()
        total = self._n_events
        stop = total if stop_event is None else min(max(int(stop_event), 0), total)
        start = min(max(int(start_event), 0), stop)
        limit = stop - start
        if limit == 0:
            return
        # decode one event past the slice: the final window's boundary peek
        stored = self._iter_stored(start, min(stop + 1, total))
        buf: deque[np.ndarray] = deque()
        have = 0
        exhausted = False

        def pull() -> None:
            nonlocal have, exhausted
            try:
                arr = next(stored)
            except StopIteration:
                exhausted = True
                return
            if arr.shape[0]:
                buf.append(arr)
                have += arr.shape[0]

        emitted = 0
        while emitted < limit:
            take = min(window, limit - emitted)
            while have < take + 1 and not exhausted:
                pull()
            parts: list[np.ndarray] = []
            need = take
            while need:
                head = buf[0]
                if head.shape[0] <= need:
                    parts.append(head)
                    buf.popleft()
                    need -= head.shape[0]
                else:
                    parts.append(head[:need])
                    buf[0] = head[need:]
                    need = 0
            have -= take
            emitted += take
            out = parts[0] if len(parts) == 1 else np.concatenate(parts)
            yield out, (int(buf[0][0]) if have else None)

    # -- whole-trace reads -----------------------------------------------

    def materialize(self) -> BlockTrace:
        """The whole trace in memory, decoded afresh on every call."""
        if self._ensure():
            return BlockTrace(np.concatenate(list(self._iter_stored())))
        return BlockTrace(np.empty(0, dtype=np.int32))

    @property
    def n_events(self) -> int:
        """Valid (non-separator) event count, from the header."""
        self._ensure()
        return self._n_valid

    def __len__(self) -> int:
        self._ensure()
        return self._n_events

    def __reduce__(self):
        return (TraceStore, (str(self._path),))

    def stats(self) -> dict:
        """On-disk footprint vs the raw int32 stream."""
        records = self._ensure()
        stored = self._path.stat().st_size
        raw = 4 * self._n_events
        return {
            "path": str(self._path),
            "bytes": stored,
            "raw_bytes": raw,
            "compression_ratio": raw / stored if stored else 0.0,
            "n_chunks": len(records),
            "chunk_events": self._chunk_events,
            "n_events": self._n_events,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceStore({str(self._path)!r})"
