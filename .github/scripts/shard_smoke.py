"""CI smoke for the sharded simulation driver.

Builds a small generated case whose trace spans nine simulation windows,
runs the fused reference pass, then drives ``run_sharded`` through the
paths CI cares about: a four-shard run with an injected permanent failure
(must raise naming the shard job and keep the completed jobs
checkpointed), a resume that recomputes only the missing jobs, and a
two-worker pool run. Every sharded variant is gated on **byte identity**
with the fused pass: counters and carried stream state are pickled and
compared as raw bytes. The resumed run must also cover exactly the
expected job mix: one family job per shard for the journal-stitched
stream, and one relay step per shard for each stream relayed whole.

Run: ``PYTHONPATH=src python .github/scripts/shard_smoke.py``
"""

from __future__ import annotations

import os
import pickle
import sys
import tempfile

os.environ.setdefault("REPRO_CACHE_DIR", tempfile.mkdtemp(prefix="repro-ci-cache-"))

from repro.simulators import (  # noqa: E402
    FetchStream,
    ShardError,
    TraceCacheStream,
    miss_counter,
    run_fused,
    run_sharded,
)
from repro.simulators import sharded as sharded_mod  # noqa: E402
from repro.validate.generators import random_case  # noqa: E402

SEED = 2  # 514 events; chunk 64 -> 9 windows -> a real 4-shard partition
CHUNK = 64
SHARDS = 4
FAIL_SHARD = 2
REAL_FAMILY = sharded_mod._family_shard
#: streams of ``build_pairs`` that relay whole: the fetch stream with every
#: cache configuration and the trace-cache stream
RELAYED_STREAMS = 2


def build_pairs(case):
    line_bytes = case.cache_configs[0].line_bytes
    return [
        # only the direct-mapped counter: journal-stitched in the family jobs
        (
            case.layout,
            FetchStream(
                case.layout.name,
                line_bytes=line_bytes,
                consumers=[miss_counter(case.cache_configs[0])],
            ),
        ),
        (
            case.layout,
            FetchStream(
                case.layout.name,
                line_bytes=line_bytes,
                consumers=[miss_counter(c) for c in case.cache_configs],
            ),
        ),
        (
            case.layout,
            TraceCacheStream(
                case.layout.name,
                case.tc_config,
                line_bytes=line_bytes,
                consumers=[miss_counter(c) for c in case.cache_configs],
            ),
        ),
    ]


def snapshot_bytes(pairs) -> bytes:
    """Canonical pickle of every stream's state, counters included."""
    return pickle.dumps([stream.state_dict() for _, stream in pairs], protocol=4)


class DictCheckpoint:
    def __init__(self):
        self.data = {}

    def load(self, key):
        return self.data.get(key)

    def store(self, key, payload):
        self.data[key] = payload


def main() -> None:
    case = random_case(SEED)
    fused_pairs = build_pairs(case)
    run_fused(case.trace, case.program, fused_pairs, chunk_events=CHUNK)
    reference = snapshot_bytes(fused_pairs)

    # 1. injected permanent failure: the run must raise naming the shard
    # job and leave everything that completed in the checkpoint store
    def boom(trace, program, chunk_events, plan, family, shard_idx):
        if shard_idx == FAIL_SHARD:
            raise ValueError("injected CI shard failure")
        return REAL_FAMILY(trace, program, chunk_events, plan, family, shard_idx)

    ckpt = DictCheckpoint()
    sharded_mod._family_shard = boom
    try:
        try:
            run_sharded(
                case.trace, case.program, build_pairs(case),
                chunk_events=CHUNK, shards=SHARDS, checkpoint=ckpt,
            )
        except ShardError as exc:
            print(f"injected failure surfaced as expected: {exc}")
            if exc.key != ("family", FAIL_SHARD):
                sys.exit(f"FAIL: error names {exc.key!r}, not the failing shard")
        else:
            sys.exit("FAIL: expected ShardError from the injected failure")
    finally:
        sharded_mod._family_shard = REAL_FAMILY
    if not ckpt.data:
        sys.exit("FAIL: no shard jobs survived the crash as checkpoints")

    # 2. resume: only the missing shard jobs recompute, and the stitched
    # result is byte-identical to the fused pass
    survived = set(ckpt.data)
    pairs = build_pairs(case)
    report = run_sharded(
        case.trace, case.program, pairs,
        chunk_events=CHUNK, shards=SHARDS, checkpoint=ckpt,
    )
    if report.plan.n_shards != SHARDS:
        sys.exit(f"FAIL: expected {SHARDS} shards, planned {report.plan.n_shards}")
    if sorted(report.checkpointed) != sorted(survived):
        sys.exit("FAIL: resume did not reuse every surviving checkpoint")
    if any(key in survived for key in report.computed):
        sys.exit("FAIL: resume recomputed an already-checkpointed shard job")
    expected = [("family", s) for s in range(SHARDS)] + [
        ("relay", chain, s) for chain in range(RELAYED_STREAMS) for s in range(SHARDS)
    ]
    covered = sorted(report.computed + report.checkpointed)
    if covered != sorted(expected):
        sys.exit(
            f"FAIL: resumed run covered jobs {covered}, expected {SHARDS} family "
            f"jobs and {SHARDS} relay jobs per relayed stream"
        )
    if snapshot_bytes(pairs) != reference:
        sys.exit("FAIL: resumed sharded result is not byte-identical to fused")

    # 3. pool path: two workers over the same plan, same byte identity
    pool_pairs = build_pairs(case)
    run_sharded(
        case.trace, case.program, pool_pairs,
        chunk_events=CHUNK, shards=SHARDS, jobs=2,
    )
    if snapshot_bytes(pool_pairs) != reference:
        sys.exit("FAIL: pooled sharded result is not byte-identical to fused")

    print(
        f"shard smoke OK: {len(survived)} jobs checkpointed across the crash, "
        f"{len(report.computed)} recomputed on resume, byte-identical to fused "
        f"(serial and 2-worker pool)"
    )


if __name__ == "__main__":
    main()
