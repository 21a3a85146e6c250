"""Metamorphic laws over the production simulators.

Each law states an equivalence or invariant that must hold for *any*
generated input, and checks it by running the production simulators on
both sides of the equivalence (the differential harness separately pins
production to the oracles, so the laws get bit-exact semantics for free):

* **concat ≡ chunked** — simulating a concatenated in-memory trace and
  the same trace streamed from an on-disk store (any stored chunk size)
  give identical counters at any simulation window, and the store
  round-trips the event stream byte for byte;
* **cold permutation** — permuting the addresses of never-executed
  blocks (among equal sizes, so the layout stays valid) changes no
  counter: fetch bandwidth is a property of the executed path only;
* **CFA conflict-freedom** — a trace touching only mapped sequences
  never conflict-misses inside the Conflict Free Area: every fully
  protected cache line misses exactly once (cold miss), regardless of
  how much other sequence code the trace interleaves;
* **fused group split** — :func:`~repro.simulators.fused.run_fused` over
  any partition of the (layout, stream) pairs equals a solo pass of each
  stream, stream for stream, carried state included;
* **shard split** — :func:`~repro.simulators.sharded.run_sharded` over
  any window-aligned partition of the *trace* (any shard count from the
  degenerate single shard up to one shard per window, serial or with
  worker processes) equals one fused pass, counters and carried state
  alike, on both the journal-stitched and the relayed path; one shard on
  one worker runs as one job.

Every law is exercised both at a tiny simulation window (so fetch and
fill windows truncate at chunk boundaries many times per trace) and at a
window larger than the trace (the single-chunk fast path).
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro.cfg.blocks import INSTR_BYTES
from repro.cfg.layout import Layout
from repro.core.mapping import CacheGeometry, map_sequences
from repro.profiling.trace import BlockTrace
from repro.profiling.tracestore import TraceWriter
from repro.simulators.fetch import FetchStream
from repro.simulators.fused import run_fused
from repro.simulators.icache import CacheConfig, miss_counter
from repro.simulators.sharded import run_sharded
from repro.simulators.tracecache import TraceCacheStream
from repro.validate.differential import LineLog
from repro.validate.generators import (
    random_cache_configs,
    random_layout,
    random_program,
    random_trace,
    random_trace_cache_config,
)
from repro.validate.oracles import oracle_direct_mapped

__all__ = [
    "LAW_CHUNK_EVENTS",
    "law_cfa_conflict_free",
    "law_cold_permutation",
    "law_concat_vs_chunked",
    "law_fused_group_split",
    "law_shard_split",
    "run_laws",
]

#: Simulation windows every law runs at: chunk-boundary-heavy and
#: single-chunk.
LAW_CHUNK_EVENTS = (7, 1_000_000)


def _counters(trace, program, layout, configs, tc_config, *, line_bytes, chunk_events) -> dict:
    """Every observable counter of a fetch and a trace-cache stream over
    ``layout``, fed in one fused pass."""
    counters = [miss_counter(config) for config in configs]
    fetch_log, tc_log = LineLog(), LineLog()
    fetch = FetchStream(layout.name, line_bytes=line_bytes, consumers=[*counters, fetch_log])
    tc = TraceCacheStream(layout.name, tc_config, line_bytes=line_bytes, consumers=[tc_log])
    run_fused(trace, program, [(layout, fetch), (layout, tc)], chunk_events=chunk_events)
    out = {
        "fetch.n_instructions": fetch.n_instructions,
        "fetch.n_fetches": fetch.n_fetches,
        "fetch.n_taken": fetch.n_taken,
        "fetch.lines": tuple(fetch_log.lines()),
    }
    for config, counter in zip(configs, counters):
        key = f"miss/{config.size_bytes}/{config.associativity}/{config.victim_lines}"
        out[key] = counter.misses
    out["tc.n_hits"] = tc.n_hits
    out["tc.n_misses"] = tc.n_misses
    out["tc.miss_lines"] = tuple(tc_log.lines())
    return out


def _diff_keys(a: dict, b: dict) -> list[str]:
    return [key for key in a if a[key] != b.get(key)]


def _state_equal(a, b) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_state_equal(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return a.shape == b.shape and bool((a == b).all())
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_state_equal(x, y) for x, y in zip(a, b))
    return a == b


# -- law 1: trace concatenation ≡ chunked/stored simulation ----------------


def law_concat_vs_chunked(
    rng: np.random.Generator, tmp_dir: Path, chunk_events: int
) -> list[str]:
    program = random_program(rng)
    layout = random_layout(rng, program)
    runs = [
        trace
        for trace in (random_trace(rng, program, max_events=120) for _ in range(int(rng.integers(1, 5))))
        if len(trace)
    ]
    if not runs:
        return []
    trace = BlockTrace.concatenate(runs)
    stored_chunk = int(rng.choice((2, 5, 64, 10_000)))
    path = tmp_dir / f"law1-{rng.integers(1 << 31)}.trc"
    with TraceWriter(path, chunk_events=stored_chunk) as writer:
        for run in runs:
            writer.append_events(run.events)
            writer.end_run()
    store_path = path  # writer renamed tmp onto path on close

    from repro.profiling.tracestore import TraceStore

    store = TraceStore(store_path)
    violations: list[str] = []
    if not np.array_equal(store.materialize().events, trace.events):
        violations.append("store round-trip changed the event stream")
    configs = random_cache_configs(rng)
    tc_config = random_trace_cache_config(rng)
    line_bytes = configs[0].line_bytes
    mem = _counters(
        trace, program, layout, configs, tc_config,
        line_bytes=line_bytes, chunk_events=chunk_events,
    )
    disk = _counters(
        store, program, layout, configs, tc_config,
        line_bytes=line_bytes, chunk_events=chunk_events,
    )
    for key in _diff_keys(mem, disk):
        violations.append(
            f"in-memory vs stored (stored_chunk={stored_chunk}) differ on {key}"
        )
    return violations


# -- law 2: permuting cold blocks changes nothing --------------------------


def law_cold_permutation(rng: np.random.Generator, chunk_events: int) -> list[str]:
    program = random_program(rng)
    layout = random_layout(rng, program)
    trace = random_trace(rng, program)
    executed = set(trace.block_ids().tolist())
    cold_by_size: dict[int, list[int]] = {}
    for block in range(program.n_blocks):
        if block not in executed:
            cold_by_size.setdefault(int(program.block_size[block]), []).append(block)

    address = layout.address.copy()
    swapped = False
    for group in cold_by_size.values():
        if len(group) < 2:
            continue
        permuted = list(group)
        rng.shuffle(permuted)
        address[group] = layout.address[permuted]
        swapped = True
    if not swapped:
        return []
    shuffled = Layout(name="cold-permuted", address=address)
    shuffled.validate(program)

    configs = random_cache_configs(rng)
    tc_config = random_trace_cache_config(rng)
    line_bytes = configs[0].line_bytes
    base = _counters(
        trace, program, layout, configs, tc_config,
        line_bytes=line_bytes, chunk_events=chunk_events,
    )
    after = _counters(
        trace, program, shuffled, configs, tc_config,
        line_bytes=line_bytes, chunk_events=chunk_events,
    )
    return [
        f"cold-block permutation changed {key}" for key in _diff_keys(base, after)
    ]


# -- law 3: CFA-mapped sequences never conflict-miss -----------------------


def law_cfa_conflict_free(rng: np.random.Generator, chunk_events: int) -> list[str]:
    program = random_program(rng)
    line_bytes = 32
    cache_bytes = int(rng.choice((256, 512)))
    cfa_bytes = line_bytes * int(rng.integers(1, cache_bytes // line_bytes))
    geometry = CacheGeometry(cache_bytes=cache_bytes, cfa_bytes=cfa_bytes, line_bytes=line_bytes)

    # carve random disjoint sequences out of the block set
    blocks = rng.permutation(program.n_blocks).tolist()
    sequences: list[list[int]] = []
    at = 0
    while at < len(blocks) and len(sequences) < 6:
        take = int(rng.integers(1, 4))
        sequences.append(blocks[at : at + take])
        at += take
    if not sequences:
        return []
    n_cfa_candidates = int(rng.integers(1, len(sequences) + 1))
    cfa_candidates = sequences[:n_cfa_candidates]
    rest = sequences[n_cfa_candidates:]

    # replay map_sequences' greedy whole-sequence admission to learn which
    # candidates actually land in the CFA
    sizes = program.block_size.astype(np.int64) * INSTR_BYTES
    budget = geometry.cfa_bytes
    in_cfa: set[int] = set()
    for seq in cfa_candidates:
        seq_size = int(sizes[list(seq)].sum())
        if seq_size <= budget:
            in_cfa.update(seq)
            budget -= seq_size
    layout = map_sequences(
        program, rest, geometry, name="cfa-law", cfa_sequences=cfa_candidates
    )

    violations: list[str] = []
    for block in in_cfa:
        start = int(layout.address[block])
        end = start + int(sizes[block])
        if start < 0 or end > geometry.cfa_bytes:
            violations.append(f"CFA block {block} placed at [{start}, {end}) outside the CFA")
    if not in_cfa:
        return violations

    # Trace only mapped sequence blocks whose line footprint stays out of
    # the protected sets. Two mapped shapes legitimately reach into them
    # and are excluded: sequences too long for a logical cache's free area
    # (placed straddling a reserved window — self-conflict is accepted),
    # and SEQ.3's second-line access spilling from the line just before a
    # reserved window.
    protected_lines = geometry.cfa_bytes // line_bytes  # cfa is line-aligned
    cache_lines = cache_bytes // line_bytes

    def conflict_free(block: int) -> bool:
        first = int(layout.address[block]) // line_bytes
        last = (int(layout.address[block]) + int(sizes[block]) - 1) // line_bytes
        return all(
            line < protected_lines or line % cache_lines >= protected_lines
            for line in range(first, last + 2)  # +1: SEQ.3 next-line access
        )

    hot = sorted(
        block
        for block in in_cfa.union(b for seq in sequences for b in seq)
        if conflict_free(block)
    )
    if not hot:
        return violations
    events = [int(rng.choice(hot)) for _ in range(int(rng.integers(1, 400)))]
    trace = BlockTrace(np.asarray(events, dtype=np.int32))

    log = LineLog()
    stream = FetchStream(layout.name, line_bytes=line_bytes, consumers=[log])
    run_fused(trace, program, [(layout, stream)], chunk_events=chunk_events)
    config = CacheConfig(size_bytes=cache_bytes, line_bytes=line_bytes)
    _, per_line = oracle_direct_mapped(log.lines(), config, per_line=True)
    for line, miss_count in per_line.items():
        if line < protected_lines and miss_count != 1:
            violations.append(
                f"protected line {line} missed {miss_count} times (conflict in the CFA)"
            )
    return violations


# -- law 4: fused group results ≡ per-task results for any split -----------


def law_fused_group_split(rng: np.random.Generator, chunk_events: int) -> list[str]:
    program = random_program(rng)
    trace = random_trace(rng, program)
    layouts = [random_layout(rng, program, name=f"L{i}") for i in range(int(rng.integers(1, 4)))]
    configs = random_cache_configs(rng)
    tc_config = random_trace_cache_config(rng)
    line_bytes = configs[0].line_bytes

    def build_pairs():
        """Fresh (layout, stream) pairs for one variant."""
        pairs = []
        for layout in layouts:
            counters = [miss_counter(config) for config in configs]
            pairs.append(
                (layout, FetchStream(layout.name, line_bytes=line_bytes, consumers=counters))
            )
            counters = [miss_counter(config) for config in configs]
            pairs.append(
                (
                    layout,
                    TraceCacheStream(
                        layout.name, tc_config, line_bytes=line_bytes, consumers=counters
                    ),
                )
            )
        return pairs

    # reference: every stream fed in its own pass
    solo = build_pairs()
    for pair in solo:
        run_fused(trace, program, [pair], chunk_events=chunk_events)

    # all streams in one fused pass
    fused_all = build_pairs()
    run_fused(trace, program, fused_all, chunk_events=chunk_events)

    # a random partition of the streams, one fused pass per group
    split = build_pairs()
    order = rng.permutation(len(split)).tolist()
    n_groups = int(rng.integers(1, len(split) + 1))
    groups: list[list] = [[] for _ in range(n_groups)]
    for slot, pair_index in enumerate(order):
        groups[slot % n_groups].append(split[pair_index])
    for group in groups:
        if group:
            run_fused(trace, program, group, chunk_events=chunk_events)

    violations: list[str] = []
    for label, pairs in (("all-in-one", fused_all), ("split", split)):
        for (_, reference), (_, stream) in zip(solo, pairs):
            if not _state_equal(stream.state_dict(), reference.state_dict()):
                violations.append(
                    f"fused {label} {type(stream).__name__} {stream.layout_name!r}: "
                    f"state differs from its solo pass"
                )
    return violations


# -- law 5: sharded trace-split results ≡ one fused pass -------------------


def law_shard_split(rng: np.random.Generator, chunk_events: int) -> list[str]:
    """Sharded simulation is invariant to the shard partition and equal to
    one fused pass — counters *and* carried state (per-set cache tags,
    victim buffer, trace-cache entries)."""
    program = random_program(rng)
    trace = random_trace(rng, program)
    layouts = [
        random_layout(rng, program, name=f"L{i}") for i in range(int(rng.integers(1, 3)))
    ]
    configs = random_cache_configs(rng)
    tc_config = random_trace_cache_config(rng)
    line_bytes = configs[0].line_bytes

    def build_pairs():
        pairs = []
        for layout in layouts:
            # a stream with only the direct-mapped counter (configs[0]) is
            # journal-stitched; the one with every configuration relays whole
            for counters in ([miss_counter(configs[0])], [miss_counter(c) for c in configs]):
                pairs.append(
                    (layout, FetchStream(layout.name, line_bytes=line_bytes, consumers=counters))
                )
            counters = [miss_counter(config) for config in configs]
            pairs.append(
                (
                    layout,
                    TraceCacheStream(
                        layout.name, tc_config, line_bytes=line_bytes, consumers=counters
                    ),
                )
            )
        return pairs

    fused = build_pairs()
    run_fused(trace, program, fused, chunk_events=chunk_events)

    n_windows = max(1, -(-len(trace) // chunk_events))
    shard_counts = sorted({1, int(rng.integers(1, n_windows + 2)), n_windows})
    violations: list[str] = []
    for shards in shard_counts:
        jobs = int(rng.integers(1, 3))
        sharded = build_pairs()
        report = run_sharded(
            trace, program, sharded, chunk_events=chunk_events, shards=shards, jobs=jobs
        )
        if report.plan.n_shards == 1 and jobs == 1:
            if report.n_jobs != 1:
                violations.append(f"one shard on one worker ran {report.n_jobs} jobs, not one")
        elif not any(key[0] == "family" for key in report.computed):
            violations.append(
                f"sharded (shards={shards}, jobs={jobs}) ran no family job: "
                f"the journal stitch went untested"
            )
        for (_, reference), (_, stream) in zip(fused, sharded):
            if not _state_equal(stream.state_dict(), reference.state_dict()):
                violations.append(
                    f"sharded (shards={shards}, jobs={jobs}) {type(stream).__name__} "
                    f"{stream.layout_name!r}: state diverged from fused"
                )
    return violations


def run_laws(seed: int, rounds: int = 12) -> tuple[int, list[dict]]:
    """Run every law ``rounds`` times at each window size.

    Returns ``(cases run, violations)``; each violation carries the law
    name, the case seed and the window size for standalone reproduction.
    """
    laws = {
        "concat_vs_chunked": None,  # needs a temp dir, handled below
        "cold_permutation": law_cold_permutation,
        "cfa_conflict_free": law_cfa_conflict_free,
        "fused_group_split": law_fused_group_split,
        "shard_split": law_shard_split,
    }
    case_seeds = np.random.SeedSequence(seed).generate_state(rounds)
    n_cases = 0
    violations: list[dict] = []
    with tempfile.TemporaryDirectory(prefix="repro-validate-") as tmp:
        tmp_dir = Path(tmp)
        for case_seed in case_seeds.tolist():
            for chunk_events in LAW_CHUNK_EVENTS:
                for name, law in laws.items():
                    rng = np.random.default_rng(int(case_seed))
                    if law is None:
                        found = law_concat_vs_chunked(rng, tmp_dir, chunk_events)
                    else:
                        found = law(rng, chunk_events)
                    n_cases += 1
                    violations.extend(
                        {
                            "law": name,
                            "seed": int(case_seed),
                            "chunk_events": chunk_events,
                            "detail": detail,
                        }
                        for detail in found
                    )
    return n_cases, violations
