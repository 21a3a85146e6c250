"""Shared experiment plumbing: cached workloads, layout builders, CLI."""

from __future__ import annotations

import argparse
import os
import threading
import weakref

from repro.baselines import original_layout, pettis_hansen_layout, torrellas_sequences
from repro.cache import default_cache
from repro.cfg.layout import Layout
from repro.cfg.weighted import WeightedCFG
from repro.core import CacheGeometry, STCParams, stc_sequences
from repro.experiments.config import KB
from repro.profiling import profile_trace
from repro.profiling.tracestore import TraceFormatError, TraceStore
from repro.tpcd.workload import Workload, WorkloadSettings

__all__ = [
    "WorkloadSettings",
    "get_workload",
    "training_profile",
    "build_layout",
    "layouts_for",
    "standard_parser",
    "suite_parser",
    "shard_count",
    "settings_from_args",
    "suite_options_from_args",
    "resolve_jobs",
]


_WORKLOADS: dict[WorkloadSettings, Workload] = {}
#: Training profiles for settings-stamped workloads, keyed by the settings
#: (never by ``id()`` — object ids are reused after garbage collection and
#: would silently alias a stale profile to a different workload).
_PROFILES: dict[WorkloadSettings, WeightedCFG] = {}
#: Profiles for ad-hoc workloads, keyed by the live instance itself.
_PROFILES_ADHOC: "weakref.WeakKeyDictionary[Workload, WeightedCFG]" = weakref.WeakKeyDictionary()
#: Serializes every load-or-build of a workload or profile in the process,
#: so concurrent callers (the service's worker threads) build each one
#: once: trace capture must run alone, because the kernel tracer is
#: process-global. A memo hit never takes the lock. Shard workers never
#: call this module: a worker forked while another thread holds the lock
#: inherits it locked.
_BUILD_LOCK = threading.Lock()


def _stored_traces_ok(workload: Workload) -> bool:
    """A cached workload is only usable if its trace files still read.

    Workloads persist with :class:`TraceStore` handles into the cache
    directory; if those files were deleted or damaged since, the pickle
    hit must be treated as a miss so the workload (and its traces) are
    rebuilt.
    """
    for trace in (workload.training_trace, workload.test_trace):
        if isinstance(trace, TraceStore):
            try:
                trace.verify()
            except TraceFormatError:
                return False
    return True


def get_workload(settings: WorkloadSettings = WorkloadSettings()) -> Workload:
    """Build (once per process) and cache the workload for these settings.

    Built workloads are also persisted to the artifact cache, so a second
    run at the same settings — in any process — skips database generation
    and trace capture entirely.
    """
    workload = _WORKLOADS.get(settings)
    if workload is not None:
        return workload
    with _BUILD_LOCK:
        if settings not in _WORKLOADS:
            cache = default_cache()
            workload = cache.load("workload", settings)
            if not isinstance(workload, Workload) or not _stored_traces_ok(workload):
                workload = settings.build()
                cache.store("workload", settings, workload)
            workload.settings = settings
            _WORKLOADS[settings] = workload
        return _WORKLOADS[settings]


def training_profile(workload: Workload) -> WeightedCFG:
    """The weighted CFG profiled from the Training set (cached)."""
    settings = workload.settings
    memo, key = (_PROFILES_ADHOC, workload) if settings is None else (_PROFILES, settings)
    profile = memo.get(key)
    if profile is not None:
        return profile
    with _BUILD_LOCK:
        if key not in memo:
            profile = None if settings is None else default_cache().load("profile", settings)
            if not isinstance(profile, WeightedCFG):
                profile = profile_trace(workload.training_trace, workload.program.n_blocks)
                if settings is not None:
                    default_cache().store("profile", settings, profile)
            memo[key] = profile
        return memo[key]


def layouts_for(
    workload: Workload,
    cache_kb: int,
    cfa_kb: int,
    *,
    names: tuple[str, ...] = ("orig", "P&H", "Torr", "auto", "ops"),
) -> dict[str, Layout]:
    """Build the evaluation layouts for one cache/CFA geometry
    (:func:`build_layout` of each name)."""
    return {name: build_layout(workload, name, cache_kb, cfa_kb) for name in names}


def build_layout(
    workload: Workload, name: str, cache_kb: int, cfa_kb: int, memo: dict | None = None
) -> Layout:
    """Build the evaluation layout ``name`` for one cache/CFA geometry.

    ``orig`` and ``P&H`` ignore the geometry (the paper notes P&H does not
    consider the target cache); ``Torr``/``auto``/``ops`` are geometry-
    dependent, but only in their last step. Their sequences depend on the
    profile, and the STC's on the CFA size too, never on the cache size:
    ``memo``, a dict the caller keeps for one pass, holds them between
    calls (keyed by layout kind, parameters and CFA bytes), so the rows of
    a grid build each of them once.
    """
    program = workload.program
    cfg = training_profile(workload)
    geometry = CacheGeometry(cache_bytes=cache_kb * KB, cfa_bytes=cfa_kb * KB)
    if name == "orig":
        return original_layout(program)
    if name == "P&H":
        return pettis_hansen_layout(program, cfg)
    memo = {} if memo is None else memo
    if name == "Torr":
        key = ("sequences", "Torr")
        if key not in memo:
            memo[key] = torrellas_sequences(program, cfg)
    elif name in ("auto", "ops"):
        params = STCParams(seed_mode=name)
        key = ("sequences", params, geometry.cfa_bytes)
        if key not in memo:
            memo[key] = stc_sequences(program, cfg, geometry.cfa_bytes, params)
    else:
        raise KeyError(name)
    return memo[key].layout(program, geometry)


def shard_count(text: str) -> int:
    """``argparse`` type of a shard-count flag: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def standard_parser(description: str) -> argparse.ArgumentParser:
    """A CLI parser with the workload's flags: ``--scale``, ``--seed`` and
    ``--kernel-seed``."""
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--scale", type=float, default=0.005, help="TPC-D scale factor (default 0.005)")
    parser.add_argument("--seed", type=int, default=7, help="data generator seed")
    parser.add_argument("--kernel-seed", type=int, default=2029, help="kernel model seed")
    return parser


def suite_parser(description: str) -> argparse.ArgumentParser:
    """:func:`standard_parser` plus the flags of an evaluation-suite run:
    ``--jobs``, ``--shards``, ``--resume``, ``--task-timeout`` and
    ``--manifest`` (read by :func:`suite_options_from_args`)."""
    parser = standard_parser(description)
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the evaluation suite's shard jobs; above 1 "
        "the suite runs shard-parallel (0 = all cores, default 1)",
    )
    parser.add_argument(
        "--shards",
        type=shard_count,
        default=None,
        help="partition the trace into this many shard spans for the suite's "
        "pass (bit-identical to the fused pass; shard jobs become the "
        "checkpoint/resume unit; default: --jobs)",
    )
    parser.add_argument(
        "--resume",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="checkpoint each completed suite task and resume interrupted runs "
        "from the checkpoints (--no-resume recomputes everything)",
    )
    parser.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="abort a parallel suite run if no shard job completes for this long",
    )
    parser.add_argument(
        "--manifest",
        default=None,
        metavar="PATH",
        help="write a JSON run manifest (settings, git rev, per-task timing, "
        "cache hit/miss counters, retries and failures)",
    )
    return parser


def suite_options_from_args(args) -> dict:
    """Fault-tolerance/observability kwargs threaded into the suite."""
    return {
        "shards": args.shards,
        "resume": args.resume,
        "task_timeout": args.task_timeout,
        "manifest": args.manifest,
    }


def resolve_jobs(jobs: int | None) -> int:
    """Map the ``--jobs`` flag to a worker count (0/negative = all cores)."""
    if jobs is None or jobs <= 0:
        return os.cpu_count() or 1
    return jobs


def settings_from_args(args) -> WorkloadSettings:
    return WorkloadSettings(scale=args.scale, seed=args.seed, kernel_seed=args.kernel_seed)
