"""One fault-tolerant job scheduler for the simulation engines.

The sharded engine (:func:`repro.simulators.run_sharded`), which makes
every pass of the evaluation suite, runs its shard jobs and relay steps
through :func:`run_jobs`, one key per job. It alone owns checkpoint
restore and store, retry of the failures that can succeed on retry
(:func:`is_transient`) with :func:`backoff`, the stall timeout of a
process pool, and the fallback to in-parent execution when the pool
dies. The suite retries its stream construction by the same two rules.

Pool workers receive the job function through the pool initializer.
Under ``fork`` initializer arguments are inherited, not pickled, so the
workload and its trace handles reach the workers copy-on-write, and
concurrent calls from several threads each fork their workers with their
own context.
"""

from __future__ import annotations

import errno
import multiprocessing
import time
from collections.abc import Callable, Hashable, Sequence
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool

__all__ = ["backoff", "is_transient", "run_jobs"]

_RETRY_BACKOFF_SECONDS = 0.05

#: ``OSError`` kinds that fail the same way however often they are retried.
_PERMANENT_OS_ERRORS = (
    PermissionError,
    FileNotFoundError,
    IsADirectoryError,
    NotADirectoryError,
)

#: A full or read-only disk: waiting a few milliseconds frees nothing.
_PERMANENT_ERRNOS = frozenset(
    getattr(errno, name) for name in ("ENOSPC", "EDQUOT", "EROFS") if hasattr(errno, name)
)


def is_transient(exc: BaseException) -> bool:
    """Whether a failure can succeed on retry.

    Memory pressure (``MemoryError``), a truncated read (``EOFError``)
    and other I/O errors (a failed fork, a cache read hiccup) retry. A
    missing or forbidden path, a full or read-only disk, and every non-I/O
    exception (a deterministic bug in the job) do not.
    """
    if isinstance(exc, (MemoryError, EOFError)):
        return True
    return (
        isinstance(exc, OSError)
        and not isinstance(exc, _PERMANENT_OS_ERRORS)
        and exc.errno not in _PERMANENT_ERRNOS
    )


def backoff(attempt: int) -> float:
    """Seconds to wait before retry ``attempt`` (1, 2, ...): doubling."""
    return _RETRY_BACKOFF_SECONDS * (2 ** (attempt - 1))


# The job function of a pool worker, installed in the worker process by the
# pool initializer. The parent process never sets it.
_job: Callable | None = None


def _init_worker(run: Callable) -> None:
    global _job
    _job = run


def _work(key, previous):
    return _job(key, previous)


def run_jobs(
    keys: Sequence[Hashable],
    run: Callable,
    *,
    after: Callable,
    on_done: Callable,
    on_retry: Callable,
    on_failed: Callable,
    on_stall: Callable,
    on_pool_broken: Callable,
    jobs: int = 1,
    retries: int = 0,
    timeout: float | None = None,
    checkpoint=None,
) -> dict:
    """Compute a payload for every key of ``keys``; returns ``{key: payload}``.

    ``run(key, previous)`` computes one key's payload, where ``previous``
    is the payload of its predecessor ``after(key)``, or ``None`` when
    ``after(key)`` is ``None``. Keys must be listed after their
    predecessors.

    Keys run one at a time in order in the calling process, or, with
    ``jobs > 1`` where the platform can fork, on a pool of up to ``jobs``
    workers. A failed key is retried after a backoff, up to ``retries``
    times, when :func:`is_transient` allows it.

    ``checkpoint``, when given, exposes ``load(key) -> payload | None``
    and ``store(key, payload)``. The callbacks:

    * ``on_done(key, payload, source)`` for every key satisfied, with
      ``source`` ``"checkpoint"`` or ``"computed"``;
    * ``on_retry(key, exc, attempt)`` before a transient failure retries;
    * ``on_failed(key, exc)`` returns the exception to raise for a
      permanent failure, ``on_stall(keys, timeout)`` the one to raise when
      no pool job completes in ``timeout`` seconds (``keys`` are those
      still running);
    * ``on_pool_broken(exc, remaining)`` before the ``remaining`` keys of
      a dead pool run in the calling process.
    """
    results: dict = {}
    if checkpoint is not None:
        for key in keys:
            payload = checkpoint.load(key)
            if payload is not None:
                results[key] = payload
                on_done(key, payload, "checkpoint")
    todo = [key for key in keys if key not in results]
    attempts = dict.fromkeys(todo, 0)

    def previous(key):
        before = after(key)
        return None if before is None else results[before]

    def settle(key, payload, exc) -> bool:
        """Record one finished attempt; returns whether to run it again."""
        if exc is None:
            results[key] = payload
            if checkpoint is not None:
                checkpoint.store(key, payload)
            on_done(key, payload, "computed")
            return False
        if attempts[key] > retries or not is_transient(exc):
            raise on_failed(key, exc) from exc
        on_retry(key, exc, attempts[key])
        time.sleep(backoff(attempts[key]))
        return True

    def in_parent(keys: list) -> None:
        for key in keys:
            again = True
            while again:
                attempts[key] += 1
                try:
                    payload, exc = run(key, previous(key)), None
                except Exception as error:
                    payload, exc = None, error
                again = settle(key, payload, exc)

    def on_pool(keys: list, n_workers: int) -> list:
        """Run ``keys`` on a fork pool; returns those a dead pool left undone."""
        pool = ProcessPoolExecutor(
            max_workers=n_workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_init_worker,
            initargs=(run,),
        )
        waiting = list(keys)
        in_flight: dict = {}
        try:
            while waiting or in_flight:
                blocked = []
                for key in waiting:
                    before = after(key)
                    if before is not None and before not in results:
                        blocked.append(key)
                        continue
                    attempts[key] += 1
                    in_flight[pool.submit(_work, key, previous(key))] = key
                waiting = blocked
                done, _ = wait(in_flight, timeout=timeout, return_when=FIRST_COMPLETED)
                if not done:
                    raise on_stall(list(in_flight.values()), timeout)
                for future in done:
                    key = in_flight.pop(future)
                    try:
                        payload, exc = future.result(), None
                    except BrokenProcessPool:
                        raise
                    except Exception as error:  # the job raised, or its result did not unpickle
                        payload, exc = None, error
                    if settle(key, payload, exc):
                        waiting.insert(0, key)
            return []
        except BrokenProcessPool as exc:
            remaining = [key for key in keys if key not in results]
            on_pool_broken(exc, remaining)
            return remaining
        finally:
            pool.shutdown(wait=False, cancel_futures=True)

    n_workers = min(max(1, jobs), len(todo))
    if n_workers > 1 and "fork" in multiprocessing.get_all_start_methods():
        todo = on_pool(todo, n_workers)
    in_parent(todo)
    return results
