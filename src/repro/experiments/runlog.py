"""Structured run manifests: what a suite run did, task by task.

Every :func:`repro.experiments.suite.compute_suite` invocation can record
a machine-readable manifest — the workload settings, git revision,
per-task wall-clock and attempt counts, checkpoint provenance
(``computed`` vs ``checkpoint``), retry/failure/stall events, and the
artifact-cache counter deltas for the run. Long sweeps become observable
and post-mortems after a crash need no log archaeology: the manifest says
exactly which tasks finished, which were resumed from checkpoints, and
what failed with which error.

Schema (``schema_version`` 1): a single JSON object with

* run identity: ``label``, ``git_revision``, ``python``, ``settings``,
  ``jobs``, ``resume``, ``task_timeout``, ``retries``, ``started_at``;
* ``status`` — ``running`` / ``completed`` / ``cached`` / ``failed``,
  plus ``error`` and ``wall_seconds`` once finished;
* ``tasks`` — one record per finished task: ``label``, ``kind``,
  ``status``, ``source``, ``seconds``, ``attempts`` (and ``error`` for
  failures);
* ``events`` — ordered retry / failure / stall / pool-degradation
  records, and at the end one ``disk-full`` record per errno in
  :data:`DISK_FULL_ERRNOS` that dropped stores during the run;
* ``cache`` — :class:`repro.cache.CacheStats` deltas over the run.

The manifest is also the run's only progress report: with ``echo`` on,
the log prints one ``stderr`` line for each task record and event as it
records it, stamped with the seconds since the run started, and a last
line with the run's status; task lines count completed tasks as ``k/N``.
A shard job shows up the moment it finishes, so a long pass is visible
while it runs.
"""

from __future__ import annotations

import dataclasses
import json
import platform
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Any

from repro.cache import ArtifactCache

__all__ = ["DISK_FULL_ERRNOS", "MANIFEST_SCHEMA_VERSION", "RunLog", "git_revision"]

MANIFEST_SCHEMA_VERSION = 1

#: Store failures that mean the disk or the user's quota is full.
DISK_FULL_ERRNOS = ("ENOSPC", "EDQUOT")


def git_revision() -> str | None:
    """The current source revision, or ``None`` outside a git checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    rev = proc.stdout.strip()
    return rev if proc.returncode == 0 and rev else None


class RunLog:
    """Accumulates per-task records and events for one suite run.

    The log is cheap enough to keep unconditionally; serialization to a
    manifest file only happens when the caller asks for one, and
    ``echo=True`` prints each record as it is made.
    """

    def __init__(
        self,
        label: str,
        *,
        settings: Any = None,
        jobs: int = 1,
        resume: bool = True,
        task_timeout: float | None = None,
        retries: int = 0,
        n_tasks: int = 0,
        cache: ArtifactCache | None = None,
        echo: bool = False,
        clock=time.perf_counter,
    ) -> None:
        self._clock = clock
        self._echo = echo
        self._done = 0
        self._t0 = clock()
        self._cache = cache
        self._stats0 = cache.stats.snapshot() if cache is not None else None
        self.data: dict[str, Any] = {
            "schema_version": MANIFEST_SCHEMA_VERSION,
            "label": label,
            "started_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "git_revision": git_revision(),
            "python": platform.python_version(),
            "settings": dataclasses.asdict(settings) if settings is not None else None,
            "jobs": jobs,
            "resume": resume,
            "task_timeout": task_timeout,
            "retries": retries,
            "n_tasks": n_tasks,
            "status": "running",
            "tasks": [],
            "events": [],
        }

    # -- recording ---------------------------------------------------------

    def task_done(
        self, label: str, kind: str, *, seconds: float, attempts: int, source: str
    ) -> None:
        """One task finished; ``source`` is ``computed`` or ``checkpoint``."""
        self.data["tasks"].append(
            {
                "label": label,
                "kind": kind,
                "status": "completed",
                "source": source,
                "seconds": round(seconds, 6),
                "attempts": attempts,
            }
        )
        self._done += 1
        tail = " [checkpoint]" if source == "checkpoint" else ""
        self._print(f"{self._done}/{self.data['n_tasks']} {label}{tail}")

    def task_failed(self, label: str, kind: str, error: BaseException, attempts: int) -> None:
        self.data["tasks"].append(
            {
                "label": label,
                "kind": kind,
                "status": "failed",
                "attempts": attempts,
                "error": repr(error),
            }
        )
        self.event("failure", task=label, error=repr(error))

    def task_retry(self, label: str, error: BaseException, attempt: int) -> None:
        self.event("retry", task=label, attempt=attempt, error=repr(error))

    def event(self, kind: str, **fields: Any) -> None:
        self.data["events"].append({"type": kind, **fields})
        self._print(" ".join([kind, *(f"{name}={value}" for name, value in fields.items())]))

    def _print(self, text: str) -> None:
        if self._echo:
            elapsed = self._clock() - self._t0
            print(f"[{self.data['label']} +{elapsed:.2f}s] {text}", file=sys.stderr, flush=True)

    # -- serialization -----------------------------------------------------

    def finish(self, status: str = "completed", error: str | None = None) -> None:
        self.data["status"] = status
        if error is not None:
            self.data["error"] = error
        self.data["wall_seconds"] = round(self._clock() - self._t0, 6)
        if self._cache is not None and self._stats0 is not None:
            delta = self._cache.stats.delta(self._stats0)
            self.data["cache"] = delta
            for name in DISK_FULL_ERRNOS:
                dropped = delta.get(f"store_errors.{name}", 0)
                if dropped:
                    self.event("disk-full", errno=name, dropped_stores=dropped)
        self._print(status)

    def write(self, path: Path | str) -> Path:
        """Serialize the manifest as JSON; parent directories are created."""
        path = Path(path)
        if path.parent != Path("."):
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.data, indent=2, default=str) + "\n")
        return path
