"""Workload definitions and result checks shared by the e2e benchmark.

Import this only after ``src/`` is on ``sys.path`` (``run.py`` does that).
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from repro.experiments.config import CACHE_CFA_GRID, PRIMARY_ROWS
from repro.serve.codec import result_digest, serialize_suite

HERE = Path(__file__).resolve().parent
BASELINE = HERE / "baseline.json"
#: Scratch space inside the checkout: per-run artifact caches (removed at
#: exit) and the memo of digests seen per input set, which lets runs in
#: separate processes check each other on any seed.
WORK = HERE / ".work"
DIGEST_MEMO = WORK / "digests.json"

#: Default scale factor of the three ``dss-primary*`` workloads; the
#: full-grid workload runs at half of it. A full benchmark pass (92 runs)
#: must finish within 57 minutes on a 2-vCPU machine; larger scales do not.
DEFAULT_SCALE = 0.0005
DEFAULT_SEED = 7


@dataclass(frozen=True)
class Workload:
    name: str
    scale_factor: float  # multiple of --scale
    grid: tuple[tuple[int, int], ...]
    tc_rows: tuple[tuple[int, int], ...]
    jobs: int
    shards: int | None
    #: Typical cold suite wall at the default scale on 2 vCPUs. A run of
    #: ``--seconds`` makes ``seconds // nominal_suite_s`` suites (at least
    #: one): a fixed amount of work, the same on every commit compared.
    nominal_suite_s: float

    def scale(self, base: float) -> float:
        return base * self.scale_factor

    def digest_key(self, base: float, seed: int) -> str:
        """Workloads with equal keys must produce equal result digests."""
        return json.dumps([self.scale(base), seed, self.grid, self.tc_rows])


#: Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("dss-primary", 1.0, PRIMARY_ROWS, PRIMARY_ROWS, 1, None, 13.0),
        Workload("dss-fullgrid-notc", 0.5, CACHE_CFA_GRID, (), 1, None, 13.0),
        Workload("dss-primary-jobs2", 1.0, PRIMARY_ROWS, PRIMARY_ROWS, 2, None, 7.5),
        Workload("dss-primary-shards2", 1.0, PRIMARY_ROWS, PRIMARY_ROWS, 2, 2, 8.0),
    )
}


def suite_tasks(grid, tc_rows) -> list[tuple[str, object]]:
    """``compute_suite``'s canonical task order (tasks sharing a layout
    sit next to each other, so fused groups share their expansion)."""
    tasks: list[tuple[str, object]] = [("base", "orig"), ("tc", "orig"), ("base", "P&H")]
    tc_set = set(tc_rows)
    for row in grid:
        tasks.append(("row", row))
        if row in tc_set:
            tasks.append(("tc_ops", row))
    tasks.extend(("tc_ops", row) for row in tc_rows if row not in set(grid))
    return tasks


def n_streams(grid, tc_rows) -> int:
    """Simulation streams the suite feeds: one per layout of each task."""
    return sum(3 if kind == "row" else 1 for kind, _ in suite_tasks(grid, tc_rows))


def engine_call(workload, spec: Workload, jobs: int, shards: int | None, cache_dir: str):
    """One cold ``compute_suite`` call on the empty artifact cache ``cache_dir``.

    Returns ``(seconds, suite or None, manifest dict)``; a failed call is a
    measured outcome, not an error of the benchmark.
    """
    os.environ["REPRO_CACHE_DIR"] = cache_dir
    from repro.experiments.suite import compute_suite

    manifest = Path(cache_dir) / "manifest.json"
    t0 = time.perf_counter()
    try:
        suite = compute_suite(
            workload, spec.grid, tc_rows=spec.tc_rows, jobs=jobs, shards=shards,
            manifest=manifest,
        )
    except Exception as exc:
        print(f"suite failed: {exc!r}", file=sys.stderr)
        suite = None
    seconds = time.perf_counter() - t0
    return seconds, suite, json.loads(manifest.read_text())


def operations(manifest: dict) -> tuple[int, int]:
    """(attempted, failed) engine operations of one call: shard jobs on a
    sharded run, suite tasks otherwise. A call that did not complete
    counts every operation as failed."""
    jobs = sum(1 for e in manifest["events"] if e["type"] == "shard-job")
    attempted = max(1, jobs or manifest["n_tasks"])
    if manifest["status"] != "completed":
        return attempted, attempted
    return attempted, sum(1 for t in manifest["tasks"] if t["status"] == "failed")


def suite_digest(suite) -> str:
    """SHA-256 of the suite's canonical JSON serialization."""
    return result_digest(serialize_suite(suite))


def sanity_errors(suite, grid, tc_rows) -> list[str]:
    """Shape and range checks that hold for any seed."""
    errors = []
    if suite.n_instructions <= 0:
        errors.append("no instructions simulated")
    for row in grid:
        cells = suite.cells.get(row, {})
        if sorted(cells) != sorted(("orig", "P&H", "Torr", "auto", "ops")):
            errors.append(f"row {row}: layouts {sorted(cells)}")
        for name, cell in cells.items():
            if not 0.0 <= cell.miss_rate <= 100.0 or not 0.0 < cell.ipc <= cell.ideal_ipc:
                errors.append(f"row {row} {name}: out of range {cell}")
    if not 0.0 < suite.tc_hit_rate < 1.0:
        errors.append(f"trace-cache hit rate {suite.tc_hit_rate}")
    if sorted(suite.tc_ops_ipc) != sorted(tc_rows):
        errors.append(f"trace-cache rows {sorted(suite.tc_ops_ipc)}")
    return errors


def pinned_digest(workload: Workload, base: float, seed: int) -> str | None:
    """The digest recorded in ``baseline.json`` for these inputs, if any."""
    if not BASELINE.exists():
        return None
    pins = json.loads(BASELINE.read_text())
    if pins.get("scale") != base or pins.get("seed") != seed:
        return None
    return pins.get("digests", {}).get(workload.name)


def check_shared_digest(key: str, digest: str) -> str | None:
    """Record ``digest`` under ``key`` in the memo file, or return the
    different digest an earlier run recorded there."""
    WORK.mkdir(exist_ok=True)
    memo = json.loads(DIGEST_MEMO.read_text()) if DIGEST_MEMO.exists() else {}
    seen = memo.get(key)
    if seen is not None:
        return None if seen == digest else seen
    memo[key] = digest
    fd, tmp = tempfile.mkstemp(dir=WORK, suffix=".tmp")
    with os.fdopen(fd, "w") as fh:
        json.dump(memo, fh, indent=1, sort_keys=True)
    os.replace(tmp, DIGEST_MEMO)
    return None


def result_errors(suite, workload: Workload, base: float, seed: int) -> list[str]:
    """Every correctness check one suite result must pass."""
    errors = sanity_errors(suite, workload.grid, workload.tc_rows)
    digest = suite_digest(suite)
    pinned = pinned_digest(workload, base, seed)
    if pinned is not None and pinned != digest:
        errors.append(f"digest {digest} != pinned {pinned}")
    other = check_shared_digest(workload.digest_key(base, seed), digest)
    if other is not None:
        errors.append(f"digest {digest} != {other} from another workload on the same inputs")
    return errors
