"""CI smoke for the fault-tolerant suite engine.

Two phases, each at a tiny scale with one injected failure:

1. a failing task: one task's streams fail to build, in the calling
   process. The failure must name the task and leave the completed tasks
   checkpointed; the resumed run must recompute only the missing tasks,
   match a from-scratch run bit for bit, and emit a manifest recording
   checkpoint provenance and per-task timing;
2. a failing worker: with ``jobs=2`` the suite's pass runs its shard jobs
   on a worker pool, and the last family shard job fails there. The
   failure must name that shard job; the resumed run must reuse the shard
   jobs checkpointed before it and match a from-scratch run;
3. a flaky one-worker pass: with ``jobs=1`` the suite's pass is a single
   shard job, which fails once with a transient ``OSError``. The run must
   complete, match a from-scratch run, and its manifest must show one
   ``retry`` event naming that job and one ``shard-job`` event.

Run: ``PYTHONPATH=src python .github/scripts/fault_smoke.py``
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import tempfile
import time
from pathlib import Path

os.environ.setdefault("REPRO_CACHE_DIR", tempfile.mkdtemp(prefix="repro-ci-cache-"))

from repro.cache import default_cache  # noqa: E402
from repro.experiments import suite as suite_mod  # noqa: E402
from repro.experiments.config import PRIMARY_ROWS  # noqa: E402
from repro.experiments.harness import get_workload  # noqa: E402
from repro.simulators import sharded as sharded_mod  # noqa: E402
from repro.tpcd.workload import WorkloadSettings  # noqa: E402

SETTINGS = WorkloadSettings(scale=0.0005)
GRID = PRIMARY_ROWS[:2]
FAIL_TASK = ("row", GRID[1])
FAIL_JOB = ("family", 1)  # the last family shard job: jobs=2 plans two shards
ONE_JOB = ("relay", 0, 0)  # the only job of a one-worker, one-shard pass
REAL_UNIT = suite_mod._unit_for
REAL_FAMILY = sharded_mod._family_shard
REAL_RELAY = sharded_mod._relay_shard


def flatten(s):
    out = {"n": s.n_instructions}
    for row, cells in sorted(s.cells.items()):
        for name, m in sorted(cells.items()):
            out[repr((row, name))] = dataclasses.astuple(m)
    out["assoc"] = s.assoc_miss
    out["victim"] = s.victim_miss
    out["tc"] = (s.tc_ideal, s.tc_hit_rate, sorted(s.tc_ipc.items()))
    out["tc_ops"] = sorted(s.tc_ops_ipc.items())
    return out


def shard_checkpoints() -> list[Path]:
    return list(default_cache().root.rglob("suite-shard/*.pkl"))


def failing_task(workload) -> None:
    def boom(wl, task, grid, cache_sizes, layout_memo=None):
        if task == FAIL_TASK:
            raise ValueError("injected CI task failure")
        return REAL_UNIT(wl, task, grid, cache_sizes, layout_memo)

    suite_mod._unit_for = boom
    try:
        try:
            suite_mod.compute_suite(workload, GRID, jobs=2)
        except suite_mod.SuiteTaskError as exc:
            print(f"injected failure surfaced as expected: {exc}")
            if suite_mod._task_label(FAIL_TASK) not in str(exc):
                sys.exit("FAIL: error does not name the failing task")
        else:
            sys.exit("FAIL: expected SuiteTaskError from the injected failure")
    finally:
        suite_mod._unit_for = REAL_UNIT

    manifest = Path(tempfile.mkdtemp(prefix="repro-ci-manifest-")) / "resume.json"
    resumed = suite_mod.compute_suite(workload, GRID, jobs=2, manifest=manifest)
    fresh = suite_mod.compute_suite(workload, GRID, jobs=1, resume=False)
    if flatten(resumed) != flatten(fresh):
        sys.exit("FAIL: resumed results differ from an uninterrupted run")

    data = json.loads(manifest.read_text())
    sources = [t["source"] for t in data["tasks"]]
    if data["status"] != "completed":
        sys.exit(f"FAIL: manifest status {data['status']!r}")
    if "checkpoint" not in sources:
        sys.exit("FAIL: resume recomputed everything; no checkpoints were reused")
    if any(t["seconds"] < 0 for t in data["tasks"]):
        sys.exit("FAIL: manifest has negative task timings")
    print(
        f"failing task OK: {sources.count('checkpoint')} checkpointed, "
        f"{sources.count('computed')} recomputed, manifest at {manifest}"
    )


def failing_worker(workload) -> None:
    parent = os.getpid()

    def boom(trace, program, chunk_events, plan, family, shard_idx):
        if ("family", shard_idx) == FAIL_JOB:
            # fail once another shard job is checkpointed, so the resume
            # has something to reuse
            deadline = time.monotonic() + 60
            while not shard_checkpoints() and time.monotonic() < deadline:
                time.sleep(0.05)
            raise ValueError(f"injected CI worker failure (in pid {os.getpid()})")
        return REAL_FAMILY(trace, program, chunk_events, plan, family, shard_idx)

    # a fresh cache: the first phase's task checkpoints would leave no pass
    os.environ["REPRO_CACHE_DIR"] = tempfile.mkdtemp(prefix="repro-ci-cache-")
    sharded_mod._family_shard = boom
    try:
        try:
            suite_mod.compute_suite(workload, GRID, jobs=2)
        except suite_mod.SuiteTaskError as exc:
            print(f"injected worker failure surfaced as expected: {exc}")
            if exc.task != ("shard", FAIL_JOB):
                sys.exit(f"FAIL: error names {exc.task!r}, not the failing shard job")
            if f"(in pid {parent})" in str(exc):
                sys.exit("FAIL: the shard job did not run on a worker")
        else:
            sys.exit("FAIL: expected SuiteTaskError from the injected worker failure")
    finally:
        sharded_mod._family_shard = REAL_FAMILY
    survived = len(shard_checkpoints())

    manifest = Path(tempfile.mkdtemp(prefix="repro-ci-manifest-")) / "shard-resume.json"
    resumed = suite_mod.compute_suite(workload, GRID, jobs=2, manifest=manifest)
    fresh = suite_mod.compute_suite(workload, GRID, jobs=1, resume=False)
    if flatten(resumed) != flatten(fresh):
        sys.exit("FAIL: resumed results differ from an uninterrupted run")

    data = json.loads(manifest.read_text())
    sources = [e["source"] for e in data["events"] if e["type"] == "shard-job"]
    if data["status"] != "completed":
        sys.exit(f"FAIL: manifest status {data['status']!r}")
    if not survived or sources.count("checkpoint") != survived:
        sys.exit(
            f"FAIL: {survived} shard jobs checkpointed before the failure, "
            f"{sources.count('checkpoint')} reused by the resume"
        )
    print(
        f"failing worker OK: {sources.count('checkpoint')} shard jobs checkpointed, "
        f"{sources.count('computed')} recomputed, manifest at {manifest}"
    )


def flaky_one_job_pass(workload) -> None:
    failed = []

    def flaky(trace, program, chunk_events, plan, chain, shard_idx, states):
        if not failed:
            failed.append(shard_idx)
            raise OSError("injected CI transient failure")
        return REAL_RELAY(trace, program, chunk_events, plan, chain, shard_idx, states)

    # a fresh cache: earlier phases' task checkpoints would leave no pass
    os.environ["REPRO_CACHE_DIR"] = tempfile.mkdtemp(prefix="repro-ci-cache-")
    manifest = Path(tempfile.mkdtemp(prefix="repro-ci-manifest-")) / "one-job-retry.json"
    sharded_mod._relay_shard = flaky
    try:
        result = suite_mod.compute_suite(workload, GRID, jobs=1, manifest=manifest)
    finally:
        sharded_mod._relay_shard = REAL_RELAY
    if not failed:
        sys.exit("FAIL: the injected transient failure never fired")
    fresh = suite_mod.compute_suite(workload, GRID, jobs=1, resume=False)
    if flatten(result) != flatten(fresh):
        sys.exit("FAIL: the retried one-job pass differs from an uninterrupted run")

    data = json.loads(manifest.read_text())
    retries = [e["task"] for e in data["events"] if e["type"] == "retry"]
    shard_jobs = [e["job"] for e in data["events"] if e["type"] == "shard-job"]
    if data["status"] != "completed":
        sys.exit(f"FAIL: manifest status {data['status']!r}")
    if retries != [suite_mod._task_label(("shard", ONE_JOB))]:
        sys.exit(f"FAIL: expected one retry event naming {ONE_JOB!r}, got {retries}")
    if shard_jobs != [list(ONE_JOB)]:
        sys.exit(f"FAIL: expected one shard-job event for {ONE_JOB!r}, got {shard_jobs}")
    print(f"flaky one-job pass OK: {ONE_JOB!r} retried once, manifest at {manifest}")


def main() -> None:
    workload = get_workload(SETTINGS)
    failing_task(workload)
    failing_worker(workload)
    flaky_one_job_pass(workload)
    print("fault-tolerance smoke OK")


if __name__ == "__main__":
    main()
