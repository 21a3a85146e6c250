"""One fault-tolerant job scheduler for the simulation engines.

The suite engine (:func:`repro.experiments.suite.compute_suite`) runs its
tasks, as one batch in the calling process, and the sharded engine
(:func:`repro.simulators.run_sharded`) its shard jobs and relay chains
through :func:`run_jobs`, which alone owns checkpoint restore and store,
retry of the failures that can succeed on retry (:func:`is_transient`)
with backoff, the stall timeout of a process pool, and the fallback to
in-parent execution when the pool dies.

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

__all__ = ["is_transient", "run_jobs"]

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


def _backoff(attempt: int) -> float:
    return _RETRY_BACKOFF_SECONDS * (2 ** (attempt - 1))


# The job function of a pool worker, installed in the worker process by the
# pool initializer. The parent process never sets it.
_job: Callable | None = None


def _init_worker(run: Callable) -> None:
    global _job
    _job = run


def _work(batch: list, inputs: dict):
    return _job(batch, inputs)


def _no_predecessor(key) -> None:
    return None


def _ignore(*args) -> None:
    return None


def _stall_error(keys: list, timeout: float) -> TimeoutError:
    return TimeoutError(f"no job completed in {timeout:.1f}s; still running: {keys!r}")


def run_jobs(
    keys: Sequence[Hashable],
    run: Callable,
    *,
    on_failed: Callable,
    on_stall: Callable = _stall_error,
    limit: int = 1,
    jobs: int = 1,
    retries: int = 0,
    timeout: float | None = None,
    after: Callable = _no_predecessor,
    checkpoint=None,
    on_done: Callable = _ignore,
    on_retry: Callable = _ignore,
    on_pool_broken: Callable = _ignore,
) -> dict:
    """Compute a payload for every key of ``keys``; returns ``{key: payload}``.

    ``run(batch, inputs)`` computes the keys of ``batch`` (a list) and
    returns ``(payloads, errors)``, two dicts keyed by job key; ``inputs``
    maps each key of the batch whose ``after(key)`` is not ``None`` to that
    predecessor's payload. A ``run`` that raises fails every key of its
    batch. Keys must be listed after their predecessors.

    Keys run in contiguous batches of at most ``limit``: in order in the
    calling process, or, with ``jobs > 1`` where the platform can fork,
    on a pool of up to ``jobs`` workers. A failed key is retried up to
    ``retries`` times when :func:`is_transient` allows it; the failed keys
    of one batch retry together after a backoff.

    ``checkpoint``, when given, exposes ``load(key) -> payload | None``
    and ``store(key, payload)``. The callbacks:

    * ``on_done(key, payload, seconds, attempts, source)`` for every key
      satisfied, with ``source`` ``"checkpoint"`` (``seconds`` and
      ``attempts`` 0) or ``"computed"``. A computed key's ``seconds`` is
      its share of its batch's wall time in the calling process, and the
      time from its batch's submission to its arrival on the pool;
    * ``on_retry(key, exc, attempt)`` before a transient failure retries;
    * ``on_failed(key, exc, attempts)`` returns the exception to raise for
      a permanent failure, ``on_stall(keys, timeout)`` the one to raise
      when no pool batch completes in ``timeout`` seconds (``keys`` are
      those still running; by default a :class:`TimeoutError`);
    * ``on_pool_broken(exc, remaining)`` before the ``remaining`` keys of
      a dead pool run in the calling process.
    """
    results: dict = {}
    if checkpoint is not None:
        for key in keys:
            payload = checkpoint.load(key)
            if payload is not None:
                results[key] = payload
                on_done(key, payload, 0.0, 0, "checkpoint")
    todo = [key for key in keys if key not in results]
    attempts = dict.fromkeys(todo, 0)

    def ready(batch: list) -> bool:
        return all(after(key) is None or after(key) in results for key in batch)

    def inputs(batch: list) -> dict:
        return {key: results[after(key)] for key in batch if after(key) is not None}

    def deliver(batch: list, payloads: dict, errors: dict, seconds: Callable) -> list:
        """Record one finished batch; returns its keys to run again."""
        for key in batch:
            if key in payloads:
                results[key] = payloads[key]
                if checkpoint is not None:
                    checkpoint.store(key, payloads[key])
                on_done(key, payloads[key], seconds(key), attempts[key], "computed")
        retry = []
        for key, exc in errors.items():
            if attempts[key] <= retries and is_transient(exc):
                on_retry(key, exc, attempts[key])
                retry.append(key)
            else:
                raise on_failed(key, exc, attempts[key]) from exc
        if retry:
            time.sleep(_backoff(max(attempts[key] for key in retry)))
        return retry

    def batches(keys: list) -> list:
        return [keys[i : i + limit] for i in range(0, len(keys), limit)]

    def in_parent(keys: list) -> None:
        queue = batches(keys)
        while queue:
            batch = queue.pop(0)
            for key in batch:
                attempts[key] += 1
            t0 = time.perf_counter()
            try:
                payloads, errors = run(batch, inputs(batch))
            except Exception as exc:
                payloads, errors = {}, dict.fromkeys(batch, exc)
            share = (time.perf_counter() - t0) / len(batch)
            retry = deliver(batch, payloads, errors, lambda key: share)
            if retry:
                queue.insert(0, retry)

    def on_pool(keys: list, n_workers: int) -> list:
        """Run ``keys`` on a fork pool; returns those a dead pool left undone."""
        pool = ProcessPoolExecutor(
            max_workers=n_workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_init_worker,
            initargs=(run,),
        )
        waiting = batches(keys)
        in_flight: dict = {}
        submitted: dict = {}
        try:
            while waiting or in_flight:
                blocked = []
                for batch in waiting:
                    if not ready(batch):
                        blocked.append(batch)
                        continue
                    in_flight[pool.submit(_work, batch, inputs(batch))] = batch
                    for key in batch:
                        attempts[key] += 1
                        submitted[key] = time.perf_counter()
                waiting = blocked
                done, _ = wait(in_flight, timeout=timeout, return_when=FIRST_COMPLETED)
                if not done:
                    running = [key for batch in in_flight.values() for key in batch]
                    raise on_stall(running, timeout)
                for future in done:
                    batch = in_flight.pop(future)
                    try:
                        payloads, errors = future.result()
                    except BrokenProcessPool:
                        raise
                    except Exception as exc:  # the job raised, or its result did not unpickle
                        payloads, errors = {}, dict.fromkeys(batch, exc)
                    arrived = time.perf_counter()
                    retry = deliver(batch, payloads, errors, lambda key: arrived - submitted[key])
                    if retry:
                        waiting.insert(0, retry)
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
