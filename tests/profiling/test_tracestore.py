"""On-disk trace format: round-trip identity, corruption detection.

The store must be a bit-faithful twin of the in-memory event stream —
same events, same windows, same separator placement — and every way a
file can be damaged (truncation, flipped bytes, foreign/vintage headers)
must surface as a clean :class:`TraceFormatError`, never a crash or a
silently wrong trace.
"""

import functools
import pickle
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.profiling import (
    TRACE_FORMAT_VERSION,
    BlockTrace,
    TraceFormatError,
    TraceStore,
    TraceWriter,
    write_trace,
)
from repro.experiments import prediction
from repro.profiling import locality, profile_trace, profiler, reuse_distances
from repro.profiling.trace import SEPARATOR
from repro.profiling.tracestore import _FLAG_DELTA, _HEADER, _MAGIC, _decode_chunk, _encode_chunk
from repro.simulators import run_fused
from repro.validate.generators import random_case


def _events(draw_ids, n):
    return np.asarray(draw_ids, dtype=np.int32)[:n]


event_arrays = st.lists(
    st.one_of(st.integers(0, 5000), st.just(SEPARATOR)), min_size=0, max_size=400
).map(lambda xs: np.asarray(xs, dtype=np.int32))


@given(event_arrays, st.integers(1, 64))
@settings(max_examples=60, deadline=None)
def test_round_trip_identity(tmp_path_factory, events, chunk_events):
    path = tmp_path_factory.mktemp("trace") / "t.trace"
    store = write_trace(BlockTrace(events), path, chunk_events)
    np.testing.assert_array_equal(store.materialize().events, events)
    assert len(store) == events.shape[0]
    assert store.n_events == int(np.count_nonzero(events != SEPARATOR))
    store.verify(deep=True)


@given(event_arrays, st.integers(1, 64), st.integers(1, 64))
@settings(max_examples=60, deadline=None)
def test_windowed_reads_match_blocktrace(tmp_path_factory, events, stored, window):
    path = tmp_path_factory.mktemp("trace") / "t.trace"
    store = write_trace(BlockTrace(events), path, stored)
    got = list(store.iter_events(window))
    want = list(BlockTrace(events).iter_events(window))
    assert len(got) == len(want)
    for (g_win, g_next), (w_win, w_next) in zip(got, want):
        np.testing.assert_array_equal(g_win, w_win)
        assert g_next == w_next


def test_writer_run_protocol_matches_concatenate(tmp_path):
    runs = [
        np.asarray(r, dtype=np.int32)
        for r in ([1, 2, 3], [], [4], [5, 6], [], [], [7])
    ]
    with TraceWriter(tmp_path / "runs.trace", chunk_events=4) as writer:
        for run in runs:
            writer.append_events(run)
            writer.end_run()
    store = TraceStore(tmp_path / "runs.trace")
    expected = BlockTrace.concatenate([BlockTrace(r) for r in runs if r.size])
    np.testing.assert_array_equal(store.materialize().events, expected.events)


def test_mid_run_appends_do_not_split_the_run(tmp_path):
    writer = TraceWriter(tmp_path / "t.trace", chunk_events=3)
    writer.append_events(np.asarray([1, 2], dtype=np.int32))
    writer.append_events(np.asarray([3, 4], dtype=np.int32))  # same run
    writer.end_run()
    writer.append_events(np.asarray([5], dtype=np.int32))
    store = writer.close()
    np.testing.assert_array_equal(
        store.materialize().events,
        np.asarray([1, 2, 3, 4, SEPARATOR, 5], dtype=np.int32),
    )


def test_empty_trace(tmp_path):
    store = write_trace(BlockTrace(np.empty(0, dtype=np.int32)), tmp_path / "e.trace")
    assert len(store) == 0
    assert list(store.iter_events(16)) == []
    assert store.materialize().events.size == 0


def test_delta_overflow_falls_back_to_raw(tmp_path):
    # a separator followed by a huge block id jumps by 2**31: too wide
    # for an int32 delta, so the chunk must store raw
    hi = np.iinfo(np.int32).max
    events = np.asarray([0, SEPARATOR, hi, SEPARATOR, hi], dtype=np.int32)
    store = write_trace(BlockTrace(events), tmp_path / "wide.trace")
    np.testing.assert_array_equal(store.materialize().events, events)
    store.verify(deep=True)


def _int64_decode(payload: bytes, flags: int) -> np.ndarray:
    """The chunk decoder as it was: the deltas summed in int64, then cast."""
    arr = np.frombuffer(zlib.decompress(payload), dtype=np.int32)
    return np.cumsum(arr, dtype=np.int64).astype(np.int32) if flags & _FLAG_DELTA else arr


_HI = int(np.iinfo(np.int32).max)

#: low and top-of-range block ids with separators between them
wide_event_arrays = st.lists(
    st.one_of(st.integers(0, 1000), st.integers(_HI - 1000, _HI), st.just(SEPARATOR)),
    min_size=1,
    max_size=300,
).map(lambda xs: np.asarray(xs, dtype=np.int32))


@given(wide_event_arrays)
@settings(max_examples=100, deadline=None)
def test_chunk_decode_matches_the_int64_delta_sum(events):
    payload, flags = _encode_chunk(events)
    decoded = _decode_chunk(payload, events.shape[0], flags)
    assert decoded.dtype == np.int32
    np.testing.assert_array_equal(decoded, _int64_decode(payload, flags))
    np.testing.assert_array_equal(decoded, events)


def test_delta_chunk_with_the_largest_ids_decodes_exactly():
    # deltas of 2**31 - 1 and -2**31, the extremes an int32 delta can hold
    events = np.asarray([0, _HI, SEPARATOR, _HI - 1, 5, _HI, SEPARATOR, 0], dtype=np.int32)
    payload, flags = _encode_chunk(events)
    assert flags == _FLAG_DELTA
    decoded = _decode_chunk(payload, events.shape[0], flags)
    np.testing.assert_array_equal(decoded, _int64_decode(payload, flags))
    np.testing.assert_array_equal(decoded, events)


def test_chunk_decode_peak_stays_under_two_and_a_half_chunks():
    """Decompressing into a buffer sized to the chunk and summing in int32
    holds the raw deltas and the events, twice the decoded bytes; an int64
    sum and a growing output buffer held about five times."""
    rng = np.random.default_rng(3)
    events = (50_000 + np.cumsum(rng.integers(-3, 4, size=200_000))).astype(np.int32)
    events[::997] = SEPARATOR
    payload, flags = _encode_chunk(events)
    assert flags == _FLAG_DELTA
    tracemalloc.start()
    try:
        decoded = _decode_chunk(payload, events.shape[0], flags)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(decoded, events)
    assert peak <= 2.5 * events.nbytes


def test_truncated_file_is_a_clean_error(tmp_path):
    path = tmp_path / "t.trace"
    events = np.arange(5000, dtype=np.int32)
    write_trace(BlockTrace(events), path, chunk_events=512)
    data = path.read_bytes()
    for cut in (0, 3, _HEADER.size, len(data) // 2, len(data) - 2):
        path.write_bytes(data[:cut])
        with pytest.raises(TraceFormatError):
            TraceStore(path).verify(deep=True)


def test_corrupt_chunk_byte_is_a_clean_error(tmp_path):
    path = tmp_path / "t.trace"
    write_trace(BlockTrace(np.arange(5000, dtype=np.int32)), path, chunk_events=512)
    data = bytearray(path.read_bytes())
    data[_HEADER.size + 7] ^= 0xFF  # inside the first compressed chunk
    path.write_bytes(bytes(data))
    store = TraceStore(path)
    store.verify()  # shallow check reads only header + directory
    with pytest.raises(TraceFormatError, match="CRC"):
        store.verify(deep=True)


# -- crafted corruption corpus --------------------------------------------
#
# Each case damages exactly one structure and re-seals every checksum
# *around* it, so the error must come from the check that guards that
# structure — not from a coarser one tripping first.


def _written(tmp_path, n=5000, chunk_events=512):
    path = tmp_path / "t.trace"
    write_trace(BlockTrace(np.arange(n, dtype=np.int32)), path, chunk_events)
    return path


def test_zero_length_store_is_rejected(tmp_path):
    path = tmp_path / "empty.trace"
    path.write_bytes(b"")
    with pytest.raises(TraceFormatError, match="truncated header"):
        TraceStore(path).verify()


def test_directory_truncated_mid_record(tmp_path):
    path = _written(tmp_path)
    data = path.read_bytes()
    dir_offset = _HEADER.unpack_from(data)[6]
    path.write_bytes(data[: dir_offset + 3])  # cut inside the chunk count
    with pytest.raises(TraceFormatError, match="truncated directory"):
        TraceStore(path).verify()


def test_flipped_version_byte_breaks_header_crc(tmp_path):
    # unlike test_version_mismatch_is_rejected (which re-seals the CRC),
    # a *silently* flipped version byte must already fail the header CRC
    path = _written(tmp_path)
    data = bytearray(path.read_bytes())
    data[len(_MAGIC)] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(TraceFormatError, match="header CRC"):
        TraceStore(path).verify()


def test_bad_recorded_chunk_crc_fails_deep_verify(tmp_path):
    # corrupt the *recorded* CRC of chunk 0 (the payload stays intact) and
    # re-seal the directory CRC: shallow verify passes, deep verify must
    # notice the payload no longer matches its record
    path = _written(tmp_path)
    data = bytearray(path.read_bytes())
    dir_offset = _HEADER.unpack_from(data)[6]
    count_size = struct.calcsize("<I")
    record_size = struct.calcsize("<QIIII")
    # record 0's crc32 field sits after offset (Q) + comp_size (I) + n_events (I)
    crc_field = dir_offset + count_size + struct.calcsize("<QII")
    struct.pack_into("<I", data, crc_field, 0xDEADBEEF)
    (n_chunks,) = struct.unpack_from("<I", data, dir_offset)
    body_end = dir_offset + count_size + n_chunks * record_size
    struct.pack_into("<I", data, body_end, zlib.crc32(bytes(data[dir_offset:body_end])))
    path.write_bytes(bytes(data))
    store = TraceStore(path)
    store.verify()  # header + directory are self-consistent
    with pytest.raises(TraceFormatError, match="chunk CRC"):
        store.verify(deep=True)


def test_foreign_file_is_rejected(tmp_path):
    path = tmp_path / "not-a-trace.bin"
    path.write_bytes(b"PK\x03\x04" + b"\0" * 64)
    with pytest.raises(TraceFormatError, match="not a trace file"):
        TraceStore(path).verify()


def test_version_mismatch_is_rejected(tmp_path):
    path = tmp_path / "t.trace"
    write_trace(BlockTrace(np.arange(100, dtype=np.int32)), path)
    data = bytearray(path.read_bytes())
    # stamp a future version and re-seal the header CRC so the version
    # check itself (not the CRC) is what rejects the file
    head = bytearray(data[: _HEADER.size])
    struct.pack_into("<H", head, len(_MAGIC), TRACE_FORMAT_VERSION + 1)
    struct.pack_into("<I", head, _HEADER.size - 4, zlib.crc32(bytes(head[:-4])))
    data[: _HEADER.size] = head
    path.write_bytes(bytes(data))
    with pytest.raises(TraceFormatError, match="version"):
        TraceStore(path).verify()


def test_missing_file_is_a_clean_error(tmp_path):
    with pytest.raises(TraceFormatError, match="unreadable"):
        TraceStore(tmp_path / "absent.trace").verify()


def test_pickle_round_trip_reopens_by_path(tmp_path):
    path = tmp_path / "t.trace"
    events = np.arange(300, dtype=np.int32)
    store = write_trace(BlockTrace(events), path, chunk_events=64)
    clone = pickle.loads(pickle.dumps(store))
    assert clone.path == store.path
    np.testing.assert_array_equal(clone.materialize().events, events)


def test_abort_leaves_no_file(tmp_path):
    path = tmp_path / "t.trace"
    with pytest.raises(RuntimeError, match="boom"):
        with TraceWriter(path) as writer:
            writer.append_events(np.arange(10, dtype=np.int32))
            raise RuntimeError("boom")
    assert list(tmp_path.iterdir()) == []  # neither the trace nor its temporary


def test_two_writers_of_one_path_both_close(tmp_path):
    """Two writers of one path, as two processes building one workload
    into a shared cache: each streams into its own temporary, both close,
    and the trace left at the path verifies and reads back whole."""
    path = tmp_path / "t.trace"
    events = np.arange(10, dtype=np.int32)
    first, second = TraceWriter(path, chunk_events=4), TraceWriter(path, chunk_events=4)
    first.append_events(events)
    second.append_events(events)
    first.close()
    second.close()
    store = TraceStore(path)
    store.verify(deep=True)
    np.testing.assert_array_equal(store.materialize().events, events)
    assert [p.name for p in tmp_path.iterdir()] == ["t.trace"]


def test_stats_report_compression(tmp_path):
    # block ids emitted back to back are close: deltas compress hard
    events = np.cumsum(np.ones(20_000, dtype=np.int32)) % 900
    store = write_trace(BlockTrace(events.astype(np.int32)), tmp_path / "t.trace", 4096)
    stats = store.stats()
    assert stats["n_events"] == 20_000
    assert stats["n_chunks"] == 5
    assert stats["raw_bytes"] == 80_000
    assert stats["bytes"] < stats["raw_bytes"]
    assert stats["compression_ratio"] > 1.0


def test_analyses_read_a_stored_trace_in_windows(tmp_path, monkeypatch):
    """The training profile, reuse distances and the prediction pass read
    a three-window stored trace window by window, never whole, and give
    what they give on the in-memory trace."""
    case = random_case(3)
    trace, program, layout = case.trace, case.program, case.layout
    window = -(-len(trace) // 3)
    layouts = {layout.name: layout}

    def analyses(trace):
        cfg = profile_trace(trace, program.n_blocks)
        [stream] = prediction.predict(trace, program, layouts, max_events=len(trace) - 2)
        return (
            cfg.block_count.tolist(),
            sorted(cfg.edges()),
            sorted(reuse_distances(trace, program.block_size).tolist()),
            (stream.n_branches, stream.n_mispredicted, stream.n_taken),
        )

    want = analyses(trace)
    store = write_trace(trace, tmp_path / "t.trace", chunk_events=window)
    assert len(list(store.iter_events(window))) == 3

    def whole_read(self):
        raise AssertionError("read the stored trace whole")

    monkeypatch.setattr(TraceStore, "materialize", whole_read)
    monkeypatch.setattr(profiler, "DEFAULT_CHUNK_EVENTS", window)
    monkeypatch.setattr(locality, "DEFAULT_CHUNK_EVENTS", window)
    monkeypatch.setattr(prediction, "run_fused", functools.partial(run_fused, chunk_events=window))
    assert analyses(store) == want
