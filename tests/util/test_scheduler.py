"""The job scheduler on toy jobs: retry, backoff, chains, checkpoints,
stalls and pool death, each in milliseconds (under a second with a pool).

Every engine failure path runs through :func:`run_jobs`, so these tests
pin its rules without a workload: the suite- and shard-level tests only
show that the engines wire their hooks to it.
"""

import os
import time

import pytest

from repro.util import scheduler
from repro.util.scheduler import backoff, run_jobs


class Failed(RuntimeError):
    def __init__(self, key, exc):
        super().__init__(f"{key!r} failed: {exc!r}")
        self.key = key


class Stalled(RuntimeError):
    def __init__(self, keys, timeout):
        super().__init__(f"stalled on {keys!r}")
        self.keys = keys
        self.timeout = timeout


class Log:
    """The hooks of one :func:`run_jobs` call, each recording its calls."""

    def __init__(self):
        self.done = []
        self.retried = []
        self.failed = []
        self.broken = []

    def hooks(self, **overrides) -> dict:
        hooks = dict(
            after=lambda key: None,
            on_done=lambda key, payload, source: self.done.append((key, source)),
            on_retry=lambda key, exc, attempt: self.retried.append((key, attempt)),
            on_failed=self._failed,
            on_stall=Stalled,
            on_pool_broken=lambda exc, remaining: self.broken.append((exc, remaining)),
        )
        hooks.update(overrides)
        return hooks

    def _failed(self, key, exc):
        self.failed.append((key, exc))
        return Failed(key, exc)


class DictCheckpoint:
    def __init__(self, data=None):
        self.data = dict(data or {})
        self.stored = []

    def load(self, key):
        return self.data.get(key)

    def store(self, key, payload):
        self.stored.append((key, payload))
        self.data[key] = payload


@pytest.fixture
def sleeps(monkeypatch):
    """The backoff delays asked for, none of them slept."""
    asked = []
    monkeypatch.setattr(scheduler.time, "sleep", asked.append)
    return asked


@pytest.mark.parametrize(
    "exc, runs", [(OSError("transient"), 3), (ValueError("permanent"), 1)], ids=str
)
def test_failure_retries_only_when_transient_then_goes_to_on_failed(sleeps, exc, runs):
    log = Log()
    calls = []

    def run(key, previous):
        calls.append(key)
        if key == "bad":
            raise exc
        return key

    with pytest.raises(Failed) as excinfo:
        run_jobs(["ok", "bad"], run, retries=2, **log.hooks())
    assert excinfo.value.__cause__ is exc
    assert calls == ["ok"] + ["bad"] * runs
    assert log.retried == [("bad", attempt) for attempt in range(1, runs)]
    assert log.failed == [("bad", exc)]
    assert log.done == [("ok", "computed")]


def test_backoff_delays_grow(sleeps):
    failures = iter([OSError("1"), MemoryError("2"), EOFError("3")])

    def run(key, previous):
        exc = next(failures, None)
        if exc is not None:
            raise exc
        return "payload"

    log = Log()
    assert run_jobs(["k"], run, retries=3, **log.hooks()) == {"k": "payload"}
    assert log.retried == [("k", 1), ("k", 2), ("k", 3)]
    assert sleeps == [backoff(1), backoff(2), backoff(3)]
    assert sleeps[0] > 0 and all(a < b for a, b in zip(sleeps, sleeps[1:]))


@pytest.mark.parametrize("jobs", [1, 2])
def test_key_runs_after_its_predecessor_and_receives_its_payload(jobs):
    keys = [("chain", a, s) for a in range(2) for s in range(3)]

    def after(key):
        _, a, s = key
        return ("chain", a, s - 1) if s else None

    def run(key, previous):
        assert (previous is None) == (key[2] == 0)
        return (previous or ()) + (key,)

    log = Log()
    results = run_jobs(keys, run, jobs=jobs, **log.hooks(after=after))
    for key in keys:
        _, a, s = key
        assert results[key] == tuple(("chain", a, step) for step in range(s + 1))
    order = [key for key, _ in log.done]
    assert all(order.index(after(key)) < order.index(key) for key in keys if key[2])


def test_checkpoint_skips_loaded_keys_and_stores_every_computed_one():
    checkpoint = DictCheckpoint({"a": "stored-a"})
    calls = []

    def run(key, previous):
        calls.append(key)
        return f"fresh-{key}"

    log = Log()
    results = run_jobs(["a", "b", "c"], run, checkpoint=checkpoint, **log.hooks())
    assert calls == ["b", "c"]
    assert results == {"a": "stored-a", "b": "fresh-b", "c": "fresh-c"}
    assert checkpoint.stored == [("b", "fresh-b"), ("c", "fresh-c")]
    assert log.done == [("a", "checkpoint"), ("b", "computed"), ("c", "computed")]


def test_stall_on_the_pool_names_only_the_blocked_job(tmp_path):
    """The quick jobs take milliseconds, so a 0.5 s timeout is far above
    anything the pool waits on before the blocked job stalls it."""
    release = tmp_path / "release"  # cross-process: workers are forks

    def run(key, previous):
        if key == "blocked":
            deadline = time.monotonic() + 30  # bounded, and released below
            while not release.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
        return key

    log = Log()
    try:
        with pytest.raises(Stalled) as excinfo:
            run_jobs(["quick", "blocked", "also-quick"], run, jobs=2, timeout=0.5, **log.hooks())
    finally:
        release.write_text("x")  # let the orphaned worker finish
    assert excinfo.value.keys == ["blocked"]
    assert excinfo.value.timeout == 0.5
    assert sorted(key for key, _ in log.done) == ["also-quick", "quick"]


def test_dead_pool_hands_the_remaining_keys_to_the_parent():
    parent = os.getpid()

    def run(key, previous):
        if key == "killer" and os.getpid() != parent:
            os._exit(3)  # hard worker death: no exception crosses the pipe
        return os.getpid()

    log = Log()
    keys = ["a", "killer", "b", "c"]
    results = run_jobs(keys, run, jobs=2, **log.hooks())
    assert sorted(results) == sorted(keys)
    ((exc, remaining),) = log.broken
    assert "BrokenProcessPool" in repr(exc)
    assert "killer" in remaining
    assert all(results[key] == parent for key in remaining)
    assert log.failed == []
