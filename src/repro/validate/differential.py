"""Differential harness: production simulators vs. loop-literal oracles.

For every generated case the harness runs the production code through
*all three* of its entry points — the one-shot simulators
(:func:`~repro.simulators.fetch.simulate_fetch`,
:func:`~repro.simulators.tracecache.simulate_trace_cache`), the fused
streaming driver (:func:`~repro.simulators.fused.run_fused` feeding
incremental streams with attached i-cache miss counters), and the
shard-parallel driver (:func:`~repro.simulators.sharded.run_sharded`,
with a shard count derived from the case seed so coverage spans 1..n
window partitions) — and the oracles of :mod:`repro.validate.oracles`,
then compares every counter exactly: instruction/fetch/taken counts, the
full line-access stream, and the miss count of each cache organization
(fused, sharded and batched, against the oracle). Any mismatch becomes a
:class:`Divergence` carrying the case's reproduction seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.simulators.fetch import FetchStream, simulate_fetch
from repro.simulators.fused import run_fused
from repro.simulators.icache import CacheConfig, count_misses, miss_counter
from repro.simulators.sharded import run_sharded
from repro.simulators.tracecache import TraceCacheStream, simulate_trace_cache
from repro.validate.generators import GeneratedCase, random_case
from repro.validate.oracles import (
    oracle_direct_mapped,
    oracle_fetch,
    oracle_trace_cache,
    oracle_two_way_lru,
    oracle_victim,
)

__all__ = ["Divergence", "diff_fetch_case", "diff_trace_cache_case", "run_differential"]


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


def _concat(chunks) -> list:
    if not chunks:
        return []
    return np.concatenate(chunks).tolist() if len(chunks) > 1 else chunks[0].tolist()


def _case_shards(case: GeneratedCase) -> int:
    """Deterministic per-case shard count in 2..4 (the plan clamps to the
    window count, so degenerate single-window cases are covered too)."""
    return 2 + case.seed % 3


def diff_fetch_case(case: GeneratedCase) -> list[Divergence]:
    """Diff the SEQ.3 fetch unit + i-cache models on one case."""
    line_bytes = case.cache_configs[0].line_bytes
    kwargs = dict(line_bytes=line_bytes, chunk_events=case.chunk_events)
    ora = oracle_fetch(case.trace, case.program, case.layout, **kwargs)

    one_shot = simulate_fetch(case.trace, case.program, case.layout, **kwargs)
    counters = [miss_counter(config) for config in case.cache_configs]
    fused_stream = FetchStream(
        case.layout.name, line_bytes=line_bytes, consumers=counters, collect_lines=True
    )
    run_fused(
        case.trace,
        case.program,
        [(case.layout, fused_stream)],
        chunk_events=case.chunk_events,
    )
    sharded_counters = [miss_counter(config) for config in case.cache_configs]
    sharded_stream = FetchStream(
        case.layout.name, line_bytes=line_bytes, consumers=sharded_counters, collect_lines=True
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

    for path, result in (
        ("one_shot", one_shot), ("fused", fused_stream), ("sharded", sharded_stream)
    ):
        check(f"fetch.{path}.n_instructions", result.n_instructions, ora.n_instructions)
        check(f"fetch.{path}.n_fetches", result.n_fetches, ora.n_fetches)
        check(f"fetch.{path}.n_taken", result.n_taken, ora.n_taken)
    check("fetch.one_shot.lines", _concat(one_shot.line_chunks), ora.lines)
    check("fetch.fused.lines", _concat(fused_stream.line_chunks), ora.lines)
    check("fetch.sharded.lines", _concat(sharded_stream.line_chunks), ora.lines)

    for config, counter, sharded in zip(case.cache_configs, counters, sharded_counters):
        label = _config_label(config)
        expected = _oracle_misses(ora.lines, config)
        check(f"icache.fused.{label}", counter.misses, expected)
        check(f"icache.sharded.{label}", sharded.misses, expected)
        check(f"icache.batched.{label}", count_misses(one_shot.line_chunks, config), expected)
    return out


def diff_trace_cache_case(case: GeneratedCase) -> list[Divergence]:
    """Diff the trace-cache simulation on one case."""
    line_bytes = case.cache_configs[0].line_bytes
    kwargs = dict(line_bytes=line_bytes, chunk_events=case.chunk_events)
    ora = oracle_trace_cache(case.trace, case.program, case.layout, case.tc_config, **kwargs)

    one_shot = simulate_trace_cache(
        case.trace, case.program, case.layout, case.tc_config, **kwargs
    )
    counters = [miss_counter(config) for config in case.cache_configs]
    fused_stream = TraceCacheStream(
        case.layout.name,
        case.tc_config,
        line_bytes=line_bytes,
        consumers=counters,
        collect_lines=True,
    )
    run_fused(
        case.trace,
        case.program,
        [(case.layout, fused_stream)],
        chunk_events=case.chunk_events,
    )
    sharded_counters = [miss_counter(config) for config in case.cache_configs]
    sharded_stream = TraceCacheStream(
        case.layout.name,
        case.tc_config,
        line_bytes=line_bytes,
        consumers=sharded_counters,
        collect_lines=True,
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

    for path, result in (
        ("one_shot", one_shot), ("fused", fused_stream), ("sharded", sharded_stream)
    ):
        check(f"tc.{path}.n_instructions", result.n_instructions, ora.n_instructions)
        check(f"tc.{path}.n_hits", result.n_hits, ora.n_hits)
        check(f"tc.{path}.n_misses", result.n_misses, ora.n_misses)
        check(f"tc.{path}.n_taken", result.n_taken, ora.n_taken)
    check("tc.one_shot.miss_lines", _concat(one_shot.miss_line_chunks), ora.miss_lines)
    check("tc.fused.miss_lines", _concat(fused_stream.miss_line_chunks), ora.miss_lines)
    check("tc.sharded.miss_lines", _concat(sharded_stream.miss_line_chunks), ora.miss_lines)

    for config, counter, sharded in zip(case.cache_configs, counters, sharded_counters):
        label = _config_label(config)
        expected = _oracle_misses(ora.miss_lines, config)
        check(f"tc.icache.fused.{label}", counter.misses, expected)
        check(f"tc.icache.sharded.{label}", sharded.misses, expected)
        check(
            f"tc.icache.batched.{label}",
            count_misses(one_shot.miss_line_chunks, config),
            expected,
        )
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
