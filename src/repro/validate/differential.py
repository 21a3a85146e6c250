"""Differential harness: production simulators vs. loop-literal oracles.

For every generated case the harness runs the production streams
(:class:`~repro.simulators.fetch.FetchStream`,
:class:`~repro.simulators.tracecache.TraceCacheStream`, with attached
i-cache miss counters) through both drivers — the fused streaming driver
(:func:`~repro.simulators.fused.run_fused`) and the shard-parallel driver
(:func:`~repro.simulators.sharded.run_sharded`, with a shard count derived
from the case seed so coverage spans 1..n window partitions, and the
direct-mapped counters on a stream of their own so both its stitched and
its relayed path run) — and the oracles of
:mod:`repro.validate.oracles`, then compares every counter
exactly: instruction/fetch/taken counts, the miss count of each cache
organization (fused and sharded, against the oracle), and the full
line-access stream of the fused pass and of the relayed sharded stream,
each recorded by a :class:`LineLog` consumer. For the trace cache it
also compares the entry table each driver carries out of the pass
(``state_dict()["entries"]``, what a relay or a resumed run starts from)
with the oracle's. Any mismatch becomes a :class:`Divergence` carrying
the case's reproduction seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.simulators.fetch import FetchStream
from repro.simulators.fused import run_fused
from repro.simulators.icache import CacheConfig, miss_counter
from repro.simulators.sharded import run_sharded
from repro.simulators.tracecache import TraceCacheStream
from repro.validate.generators import GeneratedCase, random_case
from repro.validate.oracles import (
    oracle_direct_mapped,
    oracle_fetch,
    oracle_trace_cache,
    oracle_two_way_lru,
    oracle_victim,
)

__all__ = [
    "Divergence",
    "LineLog",
    "diff_fetch_case",
    "diff_trace_cache_case",
    "run_differential",
]


class LineLog:
    """A stream consumer that records the line accesses it is fed.

    Attached to a fetch or trace-cache stream like any miss counter, it
    keeps every chunk, so a check can compare the whole line stream with
    an oracle's. Its state is its chunks, so it relays like a counter.
    """

    def __init__(self) -> None:
        self.chunks: list[np.ndarray] = []

    def feed(self, lines: np.ndarray) -> None:
        self.chunks.append(lines)

    def state_dict(self) -> dict:
        return {"chunks": list(self.chunks)}

    def load_state(self, state: dict) -> None:
        self.chunks = list(state["chunks"])

    def lines(self) -> list[int]:
        """The recorded stream as one list."""
        return np.concatenate(self.chunks).tolist() if self.chunks else []


@dataclass
class Divergence:
    """One counter on which production and oracle disagree."""

    case: dict
    counter: str
    production: object
    oracle: object

    def to_json(self) -> dict:
        return {
            "case": self.case,
            "counter": self.counter,
            "production": repr(self.production),
            "oracle": repr(self.oracle),
        }


def _config_label(config: CacheConfig) -> str:
    return (
        f"{config.size_bytes}B/L{config.line_bytes}"
        f"/A{config.associativity}/V{config.victim_lines}"
    )


def _oracle_misses(lines, config: CacheConfig) -> int:
    if config.victim_lines:
        return oracle_victim(lines, config)
    if config.associativity == 2:
        return oracle_two_way_lru(lines, config)
    return oracle_direct_mapped(lines, config)


def _case_shards(case: GeneratedCase) -> int:
    """Deterministic per-case shard count in 2..4 (the plan clamps to the
    window count, so degenerate single-window cases are covered too)."""
    return 2 + case.seed % 3


def diff_fetch_case(case: GeneratedCase) -> list[Divergence]:
    """Diff the SEQ.3 fetch unit + i-cache models on one case."""
    line_bytes = case.cache_configs[0].line_bytes
    kwargs = dict(line_bytes=line_bytes, chunk_events=case.chunk_events)
    ora = oracle_fetch(case.trace, case.program, case.layout, **kwargs)

    counters = [miss_counter(config) for config in case.cache_configs]
    log = LineLog()
    fused_stream = FetchStream(
        case.layout.name, line_bytes=line_bytes, consumers=[*counters, log]
    )
    run_fused(
        case.trace,
        case.program,
        [(case.layout, fused_stream)],
        chunk_events=case.chunk_events,
    )
    # the sharded leg takes both paths of run_sharded: the stream with only
    # the direct-mapped counters is journal-stitched, the other (its line
    # log included) relays whole
    sharded_counters = [miss_counter(config) for config in case.cache_configs]
    stitched = [c for c in sharded_counters if c.kind == "dm"]
    relayed = [c for c in sharded_counters if c.kind != "dm"]
    sharded_log = LineLog()
    sharded_streams = [
        FetchStream(case.layout.name, line_bytes=line_bytes, consumers=group)
        for group in (stitched, [*relayed, sharded_log])
    ]
    report = run_sharded(
        case.trace,
        case.program,
        [(case.layout, stream) for stream in sharded_streams],
        chunk_events=case.chunk_events,
        shards=_case_shards(case),
    )

    info = case.describe()
    out: list[Divergence] = []

    def check(counter: str, production, oracle) -> None:
        if production != oracle:
            out.append(Divergence(case=info, counter=counter, production=production, oracle=oracle))

    check(
        "fetch.sharded.family_job_ran",
        any(key[0] == "family" for key in report.computed),
        report.plan.n_shards > 1,
    )
    if report.plan.n_shards == 1:  # one shard on one worker is one job
        check("fetch.sharded.one_shard_jobs", report.n_jobs, 1)
    paths = [("fused", fused_stream)] + [("sharded", stream) for stream in sharded_streams]
    for path, result in paths:
        check(f"fetch.{path}.n_instructions", result.n_instructions, ora.n_instructions)
        check(f"fetch.{path}.n_fetches", result.n_fetches, ora.n_fetches)
        check(f"fetch.{path}.n_taken", result.n_taken, ora.n_taken)
    check("fetch.fused.lines", log.lines(), ora.lines)
    check("fetch.sharded.lines", sharded_log.lines(), ora.lines)

    for config, counter, sharded in zip(case.cache_configs, counters, sharded_counters):
        label = _config_label(config)
        expected = _oracle_misses(ora.lines, config)
        check(f"icache.fused.{label}", counter.misses, expected)
        check(f"icache.sharded.{label}", sharded.misses, expected)
    return out


def _entry_table(stream: TraceCacheStream) -> dict:
    """The stream's filled entries keyed by index, as the oracle keeps them."""
    entries = stream.state_dict()["entries"]
    return {index: entry for index, entry in enumerate(entries) if entry is not None}


def diff_trace_cache_case(case: GeneratedCase) -> list[Divergence]:
    """Diff the trace-cache simulation on one case."""
    line_bytes = case.cache_configs[0].line_bytes
    kwargs = dict(line_bytes=line_bytes, chunk_events=case.chunk_events)
    ora = oracle_trace_cache(case.trace, case.program, case.layout, case.tc_config, **kwargs)

    counters = [miss_counter(config) for config in case.cache_configs]
    log = LineLog()
    fused_stream = TraceCacheStream(
        case.layout.name,
        case.tc_config,
        line_bytes=line_bytes,
        consumers=[*counters, log],
    )
    run_fused(
        case.trace,
        case.program,
        [(case.layout, fused_stream)],
        chunk_events=case.chunk_events,
    )
    sharded_counters = [miss_counter(config) for config in case.cache_configs]
    sharded_log = LineLog()
    sharded_stream = TraceCacheStream(
        case.layout.name,
        case.tc_config,
        line_bytes=line_bytes,
        consumers=[*sharded_counters, sharded_log],
    )
    run_sharded(
        case.trace,
        case.program,
        [(case.layout, sharded_stream)],
        chunk_events=case.chunk_events,
        shards=_case_shards(case),
    )

    info = case.describe()
    out: list[Divergence] = []

    def check(counter: str, production, oracle) -> None:
        if production != oracle:
            out.append(Divergence(case=info, counter=counter, production=production, oracle=oracle))

    for path, result in (("fused", fused_stream), ("sharded", sharded_stream)):
        check(f"tc.{path}.n_instructions", result.n_instructions, ora.n_instructions)
        check(f"tc.{path}.n_hits", result.n_hits, ora.n_hits)
        check(f"tc.{path}.n_misses", result.n_misses, ora.n_misses)
        check(f"tc.{path}.n_taken", result.n_taken, ora.n_taken)
        check(f"tc.{path}.entries", _entry_table(result), ora.entries)
    check("tc.fused.miss_lines", log.lines(), ora.miss_lines)
    check("tc.sharded.miss_lines", sharded_log.lines(), ora.miss_lines)

    for config, counter, sharded in zip(case.cache_configs, counters, sharded_counters):
        label = _config_label(config)
        expected = _oracle_misses(ora.miss_lines, config)
        check(f"tc.icache.fused.{label}", counter.misses, expected)
        check(f"tc.icache.sharded.{label}", sharded.misses, expected)
    return out


def run_differential(seed: int, n_cases: int) -> tuple[int, list[Divergence]]:
    """Run ``n_cases`` generated cases; returns (cases run, divergences).

    Per-case seeds are spawned from ``seed`` via ``SeedSequence`` so each
    reported divergence reproduces standalone with
    ``random_case(case_seed)``.
    """
    case_seeds = np.random.SeedSequence(seed).generate_state(n_cases)
    divergences: list[Divergence] = []
    for case_seed in case_seeds.tolist():
        case = random_case(int(case_seed))
        divergences.extend(diff_fetch_case(case))
        divergences.extend(diff_trace_cache_case(case))
    return n_cases, divergences
