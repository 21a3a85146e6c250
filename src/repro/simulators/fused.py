"""Fused multi-configuration simulation: one trace pass, many streams.

The fetch and trace-cache simulators are incremental streams
(:class:`~repro.simulators.fetch.FetchStream`,
:class:`~repro.simulators.tracecache.TraceCacheStream`) whose i-cache
configurations are attached miss counters. This driver runs any number of
such streams — across layouts and configurations — in a *single* pass
over the trace: each window of events is expanded to the
layout-independent :class:`~repro.simulators.fetch.ChunkContext` once,
then for each distinct layout the per-layout event arrays are computed
once and fed to every stream of that layout, together with one
:class:`~repro.simulators.fetch.FetchLengths` handle per line size, the
memo of fetch starts that the fetch streams of a (layout, line size)
share. Fetch streams evaluate SEQ.3 only at their fetch starts, and the
trace-cache walk only at the positions it visits; no stream builds an
array with one entry per instruction. Evaluating a single layout is a
pass with one stream; its attached counters and metric methods give the
Table 3/4 cells.

Peak memory is one window's expansion regardless of how many streams are
fused: layouts are processed sequentially per window and the expansion is
dropped before the next layout's is built. Because every stream carries
its own state across windows, fused results are bit-identical to running
each simulation alone.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.cfg.layout import Layout
from repro.cfg.program import Program
from repro.profiling.trace import DEFAULT_CHUNK_EVENTS
from repro.simulators.fetch import FetchLengths, expand_chunk, iter_chunk_contexts

__all__ = ["run_fused"]


def run_fused(
    trace,
    program: Program,
    pairs: Sequence[tuple[Layout, object]],
    *,
    chunk_events: int = DEFAULT_CHUNK_EVENTS,
    start_event: int = 0,
    stop_event: int | None = None,
) -> None:
    """Feed every ``(layout, stream)`` pair in one pass over ``trace``.

    ``trace`` is a :class:`~repro.profiling.trace.BlockTrace` or an
    on-disk :class:`~repro.profiling.tracestore.TraceStore`. Streams are
    mutated in place; read their counters and metrics afterwards.
    A stream is anything with a ``line_bytes`` attribute and a
    ``feed(chunk, lengths)`` method. Streams sharing the same layout
    *object* share the per-window expansion, and among those, streams
    with equal ``line_bytes`` share one ``lengths`` handle (the memo of
    SEQ.3 fetch starts).

    ``start_event``/``stop_event`` restrict the pass to that event slice
    of the trace; the sharded engine (:mod:`repro.simulators.sharded`)
    uses window-aligned slices so consecutive passes splice together
    bit-identically to one full pass.
    """
    if not pairs:
        return
    # group by layout identity, preserving first-seen order
    groups: list[tuple[Layout, list]] = []
    index: dict[int, int] = {}
    for layout, stream in pairs:
        at = index.get(id(layout))
        if at is None:
            index[id(layout)] = len(groups)
            groups.append((layout, [stream]))
        else:
            groups[at][1].append(stream)

    for ctx in iter_chunk_contexts(
        trace, program, chunk_events, start_event=start_event, stop_event=stop_event
    ):
        for layout, streams in groups:
            chunk = expand_chunk(ctx, layout)
            lengths_for: dict[int, FetchLengths] = {}
            for stream in streams:
                line_bytes = stream.line_bytes
                lengths = lengths_for.get(line_bytes)
                if lengths is None:
                    lengths = lengths_for[line_bytes] = FetchLengths(chunk, line_bytes)
                stream.feed(chunk, lengths)
            del chunk, lengths, lengths_for  # one expansion live at a time
