"""Sharded chunk-parallel simulation, bit-identical to :func:`run_fused`.

The fused driver streams the whole trace through every simulation stream
sequentially. At paper scale (SF 0.1, ~2 billion instructions) that single
pass is the wall-clock bottleneck, so this module partitions the chunked
trace into contiguous *shard* spans of whole simulation windows and runs
the fused pass per shard in parallel workers. Because window boundaries
fall at the same absolute event offsets whether the trace is walked in one
pass or shard by shard (``iter_events(start_event=, stop_event=)``), the
only coupling between shards is the Python-level carried state of the
streams themselves. One rule decides how a stream reproduces that state
exactly: direct-mapped counters stitch, everything else relays whole.

* **Stitched:** a :class:`~repro.simulators.fetch.FetchStream` whose
  consumers are all direct-mapped miss counters runs cold per shard in
  the parallel *family* jobs. Its fetch counts carry no cross-window
  state (the SEQ.3 fetch orbit restarts at every window), so per-shard
  counts add up. Each counter records a *journal*: per touched set, the
  first access, the only one whose hit/miss outcome depends on pre-shard
  state, and the end tag. The sequential reconciliation pass folds each
  shard's journal onto the carried tags in O(touched sets): it corrects
  the cold miss count and advances the per-set state without replaying
  a single access.
* **Relayed whole:** every other stream, that is a fetch stream with any
  2-way or victim counter and every
  :class:`~repro.simulators.tracecache.TraceCacheStream`, runs as its
  own sequential *relay chain*: shard ``k`` is simulated seeded with
  shard ``k-1``'s pickled end state (the stream's counts and carried
  state, and its counters' states), so the chain is exact by
  construction. Distinct chains still run concurrently with each other
  and with the family jobs.
* **One shard on one worker:** nothing runs side by side, so every
  stream, stitched kind included, relays in a single chain of one job:
  one fused pass over twins of all the streams, seeded with the caller's
  state. Its one payload is the caller's whole result, so the job is
  never checkpointed.

Shard jobs and relay steps run on the shared job scheduler
(:func:`repro.util.scheduler.run_jobs`): each is a checkpoint/retry unit
(``checkpoint.load/store`` hooks), a relay step waits for its
predecessor, transient failures retry with backoff, a parallel run that
stalls raises :class:`ShardTimeoutError`, and a dead worker pool degrades
to in-process execution of the remaining jobs. Results are bit-identical
to :func:`run_fused` for any shard count, any worker count, and any
interleaving of checkpoint resumes.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.cfg.program import Program
from repro.profiling.trace import DEFAULT_CHUNK_EVENTS
from repro.simulators.fetch import FetchStream
from repro.simulators.fused import run_fused
from repro.simulators.icache import (
    _DirectMappedCounter,
    _TwoWayLRUCounter,
    _VictimCounter,
    counter_from_spec,
    counter_spec,
)
from repro.simulators.tracecache import TraceCacheConfig, TraceCacheStream
from repro.util.scheduler import run_jobs

__all__ = [
    "ShardError",
    "ShardPlan",
    "ShardReport",
    "ShardTimeoutError",
    "plan_shards",
    "run_sharded",
]


# -- shard planning ------------------------------------------------------


@dataclass(frozen=True)
class ShardPlan:
    """Contiguous shard spans over a trace's event stream.

    ``bounds`` has one entry per shard boundary (``n_shards + 1`` in
    total); every interior boundary is a multiple of ``chunk_events``, so
    each shard covers whole simulation windows and shard-wise iteration
    reproduces the exact window sequence of a full pass.
    """

    chunk_events: int
    n_events: int  # total events in the trace, separators included
    bounds: tuple[int, ...]

    @property
    def n_shards(self) -> int:
        return len(self.bounds) - 1

    def span(self, shard: int) -> tuple[int, int]:
        return self.bounds[shard], self.bounds[shard + 1]

    def signature(self) -> tuple:
        """Checkpoint-key component identifying this exact partition."""
        return ("shard-plan", self.chunk_events, self.n_events, self.bounds)


def plan_shards(
    n_events: int,
    chunk_events: int = DEFAULT_CHUNK_EVENTS,
    shards: int = 1,
) -> ShardPlan:
    """Split ``n_events`` into at most ``shards`` window-aligned spans.

    Windows are distributed near-evenly; a request for more shards than
    there are windows collapses to one shard per window.
    """
    if chunk_events <= 0:
        raise ValueError("chunk_events must be positive")
    if shards < 1:
        raise ValueError("shards must be >= 1")
    n_windows = -(-n_events // chunk_events)
    n_shards = max(1, min(int(shards), n_windows))
    base, rem = divmod(n_windows, n_shards)
    bounds = [0]
    w = 0
    for s in range(n_shards):
        w += base + (1 if s < rem else 0)
        bounds.append(min(w * chunk_events, n_events))
    return ShardPlan(int(chunk_events), int(n_events), tuple(bounds))


# -- errors and reporting ------------------------------------------------


class ShardError(RuntimeError):
    """A shard job or relay step failed permanently."""

    def __init__(self, key: tuple, cause: BaseException) -> None:
        super().__init__(f"shard job {key!r} failed: {cause!r}")
        self.key = key
        self.cause = cause


class ShardTimeoutError(RuntimeError):
    """No shard job completed within ``task_timeout`` seconds."""

    def __init__(self, keys: list, timeout: float) -> None:
        super().__init__(
            f"no shard job completed in {timeout:.1f}s; "
            f"still running: {', '.join(map(repr, keys))}"
        )
        self.keys = keys
        self.timeout = timeout


@dataclass
class ShardReport:
    """What a :func:`run_sharded` call actually did."""

    plan: ShardPlan
    computed: list = field(default_factory=list)  # job keys run this call
    checkpointed: list = field(default_factory=list)  # job keys loaded
    pool_error: BaseException | None = None  # why the worker pool died
    remaining: int = 0  # jobs the dead pool left to run in-process

    @property
    def degraded(self) -> bool:
        """The worker pool died and the call finished in-process."""
        return self.pool_error is not None

    @property
    def n_jobs(self) -> int:
        return len(self.computed) + len(self.checkpointed)


# -- stream classification -----------------------------------------------


def _spec(layout_index: int, stream) -> tuple:
    """A picklable recipe for a cold twin of a caller stream."""
    tc_config = None
    if isinstance(stream, TraceCacheStream):
        cfg = stream.config
        tc_config = (cfg.n_entries, cfg.trace_instructions, cfg.branch_limit)
    return (
        layout_index,
        stream.line_bytes,
        tc_config,
        tuple(counter_spec(c) for c in stream.consumers),
    )


def _state(stream) -> dict:
    """A relayed stream's complete carried state, counters included."""
    return {
        "counters": [c.state_dict() for c in stream.consumers],
        "stream": stream.state_dict(),
    }


def _load_state(stream, state: dict) -> None:
    """Restore a relayed stream from a :func:`_state` snapshot."""
    for counter, cstate in zip(stream.consumers, state["counters"]):
        counter.load_state(cstate)
    stream.load_state(state["stream"])


def _index_layouts(pairs):
    """The distinct layouts of ``pairs`` and one ``(layout index, stream)``
    entry per pair; unknown stream/consumer types are rejected rather
    than silently simulated wrong."""
    layouts: list = []
    index: dict[int, int] = {}
    entries: list[tuple] = []
    for layout, stream in pairs:
        li = index.get(id(layout))
        if li is None:
            li = index[id(layout)] = len(layouts)
            layouts.append(layout)
        if not isinstance(stream, (FetchStream, TraceCacheStream)):
            raise TypeError(
                f"run_sharded cannot shard stream type {type(stream).__name__}"
            )
        for consumer in stream.consumers:
            if not isinstance(
                consumer, (_DirectMappedCounter, _TwoWayLRUCounter, _VictimCounter)
            ):
                raise TypeError(
                    f"run_sharded cannot shard consumer type {type(consumer).__name__}"
                )
        entries.append((li, stream))
    return layouts, entries


def _stitched(stream) -> bool:
    """A fetch stream with only direct-mapped counters runs in the family
    jobs; every other stream relays whole."""
    return isinstance(stream, FetchStream) and all(
        isinstance(c, _DirectMappedCounter) for c in stream.consumers
    )


# -- shard workers -------------------------------------------------------

def _family_shard(trace, program, layouts, chunk_events, plan, family_specs, shard_idx):
    """Cold fused pass of every family stream over one shard span, its
    direct-mapped counters recording their journals."""
    start, stop = plan.span(shard_idx)
    streams = []
    pairs = []
    for li, line_bytes, _, cspecs in family_specs:
        consumers = [
            _DirectMappedCounter(n_sets, record_journal=True) for _, n_sets in cspecs
        ]
        stream = FetchStream(layouts[li].name, line_bytes=line_bytes, consumers=consumers)
        streams.append(stream)
        pairs.append((layouts[li], stream))
    run_fused(
        trace, program, pairs,
        chunk_events=chunk_events, start_event=start, stop_event=stop,
    )
    return [
        {
            "n_instructions": stream.n_instructions,
            "n_fetches": stream.n_fetches,
            "n_taken": stream.n_taken,
            "journals": [c.shard_journal() for c in stream.consumers],
        }
        for stream in streams
    ]


def _relay_shard(trace, program, layouts, chunk_events, plan, specs, shard_idx, states):
    """One relay step: simulate a shard with every stream of a chain seeded
    with its end state after the previous shard; returns the new end
    states."""
    start, stop = plan.span(shard_idx)
    pairs = []
    for (li, line_bytes, tc_config, cspecs), state in zip(specs, states):
        counters = [counter_from_spec(cs) for cs in cspecs]
        if tc_config is None:
            stream = FetchStream(layouts[li].name, line_bytes=line_bytes, consumers=counters)
        else:
            stream = TraceCacheStream(
                layouts[li].name,
                TraceCacheConfig(*tc_config),
                line_bytes=line_bytes,
                consumers=counters,
            )
        _load_state(stream, state)
        pairs.append((layouts[li], stream))
    run_fused(
        trace, program, pairs,
        chunk_events=chunk_events, start_event=start, stop_event=stop,
    )
    return {"states": [_state(stream) for _, stream in pairs]}


# -- journal reconciliation ----------------------------------------------


def _stitch_dm(counter, journal) -> None:
    """Fold a cold direct-mapped shard onto carried state.

    The only state-dependent access per set is the shard's first: the cold
    run counted it as a miss unconditionally (cold tags are -1), so it
    flips to a hit exactly when the incoming tag equals the recorded head.
    Every later access compares against a tag set within the shard and is
    already correct; the end state is the shard's end tags over the
    incoming tags.
    """
    tags = counter._tags
    sets = journal["sets"]
    hits = int((journal["head"] == tags[sets]).sum())
    counter.misses += int(journal["misses"]) - hits
    tags[sets] = journal["end"]


def _reconcile(family, chains, n_shards: int, payloads: dict) -> None:
    """Write shard results back into the caller's live streams, in shard
    order, exactly as one full fused pass would have left them."""
    for idx, (_, stream) in enumerate(family):
        for s in range(n_shards):
            p = payloads[("family", s)][idx]
            stream.n_instructions += int(p["n_instructions"])
            stream.n_fetches += int(p["n_fetches"])
            stream.n_taken += int(p["n_taken"])
            for counter, journal in zip(stream.consumers, p["journals"]):
                _stitch_dm(counter, journal)
    for ci, chain in enumerate(chains):
        for (_, stream), state in zip(chain, payloads[("relay", ci, n_shards - 1)]["states"]):
            _load_state(stream, state)


def _predecessor(key: tuple) -> tuple | None:
    """A relay step runs seeded with the previous step's end state."""
    if key[0] == "relay" and key[2] > 0:
        return ("relay", key[1], key[2] - 1)
    return None


# -- driver --------------------------------------------------------------


def run_sharded(
    trace,
    program: Program,
    pairs: Sequence[tuple],
    *,
    chunk_events: int = DEFAULT_CHUNK_EVENTS,
    shards: int | ShardPlan | None = None,
    jobs: int = 1,
    retries: int = 0,
    task_timeout: float | None = None,
    checkpoint=None,
    on_job=lambda key, source: None,
    on_retry=lambda key, exc, attempt: None,
) -> ShardReport:
    """Feed every ``(layout, stream)`` pair shard-parallel over ``trace``.

    Drop-in equivalent of :func:`run_fused`: streams are mutated in place
    and end up bit-identical — counters *and* carried state — to a single
    fused pass, for any ``shards``/``jobs`` combination. ``shards`` is a
    shard count (default: ``jobs``; below 1 is a :class:`ValueError`) or
    a precomputed :class:`ShardPlan`; ``jobs > 1`` fans the shard jobs and
    relay steps over a fork-based process pool (platforms without
    ``fork``, and ``jobs=1``, run in-process). One shard with ``jobs <= 1``
    is one job, a single fused pass.

    ``checkpoint``, when given, must expose ``load(key) -> payload|None``
    and ``store(key, payload)``; keys are ``("family", shard)`` and
    ``("relay", chain, shard)`` tuples. The caller is responsible for
    scoping the store to this exact trace, stream composition, initial
    stream state, and shard plan (``ShardPlan.signature()``); the suite
    engine scopes by workload settings, task keys and plan. A one-job
    plan neither loads nor stores. ``on_job`` receives ``(key, source)``
    for every job satisfied, with ``source`` ``"checkpoint"`` or
    ``"computed"``. Failures that can succeed on retry
    (:func:`repro.util.scheduler.is_transient`) retry up to ``retries``
    times with backoff, each announced to ``on_retry(key, exc, attempt)``;
    ``task_timeout`` bounds how long a parallel run may go with no job
    completing (:class:`ShardTimeoutError`); a dead worker pool degrades
    to in-process execution of the remaining jobs, and the report records
    why it died and how many jobs it left.
    """
    n_events = len(trace)
    if isinstance(shards, ShardPlan):
        plan = shards
        if plan.chunk_events != chunk_events or plan.n_events != n_events:
            raise ValueError("shard plan does not match this trace/window size")
    else:
        plan = plan_shards(n_events, chunk_events, max(jobs, 1) if shards is None else shards)
    report = ShardReport(plan=plan)
    if not pairs:
        return report
    layouts, entries = _index_layouts(pairs)
    n_shards = plan.n_shards
    if n_shards == 1 and jobs <= 1:  # nothing runs side by side: one chain
        family, chains, checkpoint = [], [entries], None
    else:
        family = [entry for entry in entries if _stitched(entry[1])]
        chains = [[entry] for entry in entries if not _stitched(entry[1])]
    family_specs = tuple(_spec(li, stream) for li, stream in family)
    chain_specs = [tuple(_spec(li, stream) for li, stream in chain) for chain in chains]
    seeds = [[_state(stream) for _, stream in chain] for chain in chains]

    def run_job(key: tuple, previous):
        if key[0] == "family":
            return _family_shard(
                trace, program, layouts, chunk_events, plan, family_specs, key[1]
            )
        _, ci, s = key
        states = previous["states"] if s else seeds[ci]
        return _relay_shard(
            trace, program, layouts, chunk_events, plan, chain_specs[ci], s, states
        )

    def done(key: tuple, payload, source: str) -> None:
        (report.checkpointed if source == "checkpoint" else report.computed).append(key)
        on_job(key, source)

    def pool_broken(exc: BaseException, remaining: list) -> None:
        report.pool_error = exc
        report.remaining = len(remaining)

    keys = [("family", s) for s in range(n_shards)] if family else []
    keys += [("relay", ci, s) for ci in range(len(chains)) for s in range(n_shards)]
    payloads = run_jobs(
        keys, run_job,
        jobs=jobs, retries=retries, timeout=task_timeout,
        after=_predecessor, checkpoint=checkpoint,
        on_done=done,
        on_retry=on_retry,
        on_failed=ShardError,
        on_stall=lambda running, timeout: ShardTimeoutError(sorted(running), timeout),
        on_pool_broken=pool_broken,
    )
    _reconcile(family, chains, n_shards, payloads)
    return report
