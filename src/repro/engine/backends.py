"""Execution backends: how a plan of :class:`DeltaTask`s actually runs.

Every backend takes ``(stream, tasks)`` and returns the per-task results
in task order — the contract that keeps γ bit-identical whatever the
execution strategy.  Three strategies are built in:

* :class:`SerialBackend` — the default: the tasks in order in the
  calling thread, a sweep's scans stacked (:func:`~repro.engine.tasks.
  evaluate_tasks`); the reference the others are tested against.
* :class:`ThreadBackend` — a shared thread pool.  The numpy kernels
  release the GIL for long stretches (sorting, histogramming), so
  threads already overlap usefully without any pickling cost.
* :class:`ProcessBackend` — a process pool fed *chunks* of tasks, so the
  columnar event arrays are pickled once per chunk rather than once per
  Δ.  Best for large streams where each Δ evaluation dominates.

A fourth strategy serves long-lived processes:

* :class:`AsyncBackend` — a thread pool that *also* accepts plans
  non-blockingly (:meth:`~AsyncBackend.submit_plan` returns a
  :class:`PlanHandle` immediately); many concurrent submitters share the
  one bounded pool, their tasks interleaving FIFO, so no request can
  starve the others.  The analysis service's job queue runs on it.

Backends are picked by name (``get_backend("thread")``), optionally with
a worker count (``"process:4"``), and keep their pools alive across runs
so repeated sweeps amortize the startup cost.

Every ``run``/``submit_plan`` accepts an optional
:class:`~repro.engine.cancel.CancelToken`.  Workers check the token
before evaluating each task; a cancelled (or deadline-expired) token
raises :class:`~repro.utils.errors.JobCancelled` naming the task it
stopped at, which rides the backends' existing fail-fast path — pending
tasks of the plan are cancelled exactly as after any task failure.
"""

from __future__ import annotations

import math
import os
import threading
from abc import ABC, abstractmethod
from collections.abc import Callable, Sequence
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout
from functools import partial

from repro.engine.cancel import CancelToken
from repro.engine.tasks import DeltaTask, evaluate_tasks, wrap_task_failure
from repro.linkstream.stream import LinkStream
from repro.utils.errors import EngineError

TickCallback = Callable[[int], None]


def _default_jobs() -> int:
    return max(os.cpu_count() or 1, 1)


class ExecutionBackend(ABC):
    """Executes a plan of independent tasks, preserving task order."""

    name: str = "abstract"

    @property
    def workers(self) -> int:
        """How many tasks can make progress at once (1 when in-process)."""
        return 1

    @abstractmethod
    def run(
        self,
        stream: LinkStream,
        tasks: Sequence[DeltaTask],
        *,
        tick: TickCallback | None = None,
        cancel: CancelToken | None = None,
    ) -> list:
        """Evaluate every task on ``stream``; ``results[i]`` matches
        ``tasks[i]``.  ``tick(n)`` is called as batches of ``n`` tasks
        complete (progress reporting).  ``cancel`` is checked at task
        boundaries: once it reads cancelled, the plan fails fast with
        :class:`~repro.utils.errors.JobCancelled` naming the task it
        stopped at, and pending tasks are abandoned."""

    def close(self) -> None:
        """Release any pooled workers (idempotent)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class SerialBackend(ExecutionBackend):
    """Evaluate tasks in order in the calling thread (the default)."""

    name = "serial"

    def run(self, stream, tasks, *, tick=None, cancel=None):
        # The debugging reference: a task evaluated alone fails with
        # its own exception, unwrapped.
        return evaluate_tasks(stream, tasks, tick=tick, cancel=cancel, wrap=False)


class _PooledBackend(ExecutionBackend):
    """Shared lazy-pool plumbing for the thread and process backends."""

    def __init__(self, jobs: int | None = None) -> None:
        if jobs is not None and jobs < 1:
            raise EngineError("jobs must be a positive integer")
        self._jobs = jobs or _default_jobs()
        self._pool: Executor | None = None

    @property
    def jobs(self) -> int:
        return self._jobs

    @property
    def workers(self) -> int:
        return self._jobs

    @abstractmethod
    def _make_pool(self) -> Executor: ...

    def _ensure_pool(self) -> Executor:
        if self._pool is None:
            self._pool = self._make_pool()
        return self._pool

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __repr__(self) -> str:
        return f"{type(self).__name__}(jobs={self._jobs})"


class ThreadBackend(_PooledBackend):
    """Evaluate tasks on a persistent thread pool."""

    name = "thread"

    def _make_pool(self) -> Executor:
        return ThreadPoolExecutor(
            max_workers=self._jobs, thread_name_prefix="repro-sweep"
        )

    def run(self, stream, tasks, *, tick=None, cancel=None):
        if len(tasks) <= 1:
            return _run_serial_wrapped(stream, tasks, tick, cancel)
        pool = self._ensure_pool()
        futures = [
            pool.submit(_guarded_evaluate, task, stream, cancel) for task in tasks
        ]
        results = []
        for i, future in enumerate(futures):
            try:
                results.append(future.result())
            except BaseException as exc:
                # Don't leave the rest of the plan burning CPU on a sweep
                # that already failed (or was interrupted), and don't lose
                # which Δ failed.
                _cancel_pending(futures[i + 1 :])
                if isinstance(exc, EngineError) or not isinstance(exc, Exception):
                    raise
                raise wrap_task_failure(tasks[i], exc) from exc
            if tick is not None:
                tick(1)
        return results


def _cancel_pending(futures) -> None:
    """Best-effort cancellation of not-yet-started futures."""
    for future in futures:
        future.cancel()


def _guarded_evaluate(task: DeltaTask, stream: LinkStream, cancel) -> object:
    """Worker entry point for thread pools: check the cancel token at
    the last moment before evaluating, so a cancelled plan abandons
    every task that has not actually started."""
    if cancel is not None:
        cancel.guard(task)
    return task.evaluate(stream)


def _run_serial_wrapped(stream, tasks, tick, cancel=None) -> list:
    """Serial fallback for pooled backends' tiny plans, keeping their
    error contract: failures are wrapped with the task identity."""
    return evaluate_tasks(stream, tasks, tick=tick, cancel=cancel)


def _evaluate_chunk(stream: LinkStream, tasks: Sequence[DeltaTask]) -> list:
    """Worker entry point: evaluate one chunk of tasks on one stream
    (its scans stacked, see :func:`~repro.engine.tasks.evaluate_tasks`).

    Failures are wrapped here, worker-side, so the task identity (kind
    and Δ) survives the pickling boundary back to the parent process.
    """
    return evaluate_tasks(stream, tasks)


class ProcessBackend(_PooledBackend):
    """Evaluate chunked task batches on a persistent process pool.

    Parameters
    ----------
    jobs:
        Worker processes (default: the CPU count).
    chunk_size:
        Tasks per submitted batch.  Default: enough chunks for ~4 waves
        per worker, so stragglers balance while the stream's columnar
        arrays are still pickled only once per chunk.
    """

    name = "process"

    def __init__(self, jobs: int | None = None, *, chunk_size: int | None = None) -> None:
        super().__init__(jobs)
        if chunk_size is not None and chunk_size < 1:
            raise EngineError("chunk_size must be a positive integer")
        self._chunk_size = chunk_size

    def _make_pool(self) -> Executor:
        return ProcessPoolExecutor(max_workers=self._jobs)

    def _chunks(self, tasks: Sequence[DeltaTask]) -> list[Sequence[DeltaTask]]:
        size = self._chunk_size
        if size is None:
            size = max(1, math.ceil(len(tasks) / (4 * self._jobs)))
        return [tasks[i : i + size] for i in range(0, len(tasks), size)]

    def run(self, stream, tasks, *, tick=None, cancel=None):
        if len(tasks) <= 1:
            return _run_serial_wrapped(stream, tasks, tick, cancel)
        if cancel is not None:
            cancel.guard(tasks[0])
        pool = self._ensure_pool()
        chunks = self._chunks(tasks)
        futures = [pool.submit(_evaluate_chunk, stream, chunk) for chunk in chunks]
        results = []
        for i, future in enumerate(futures):
            try:
                chunk_results = self._collect(future, futures[i:], chunks[i], cancel)
            except BaseException:
                # The worker already named the failing task (see
                # _evaluate_chunk); just stop the remaining chunks.
                _cancel_pending(futures[i + 1 :])
                raise
            results.extend(chunk_results)
            if tick is not None:
                tick(len(chunk_results))
        return results

    @staticmethod
    def _collect(future, remaining, chunk, cancel):
        """One chunk's results, polling the cancel token while waiting.

        Cancellation is chunk-granular and best-effort: a token cannot
        cross the process boundary, so not-yet-started chunks are
        cancelled while the chunk currently in a worker finishes on its
        own (its result is discarded by the raised
        :class:`~repro.utils.errors.JobCancelled`).
        """
        if cancel is None:
            return future.result()
        while True:
            try:
                return future.result(timeout=0.1)
            except _FuturesTimeout:
                if cancel.cancelled:
                    _cancel_pending(remaining)
                    cancel.guard(chunk[0])


class PlanHandle:
    """A submitted plan's pending results (the async backend's future).

    ``results[i]`` matches ``tasks[i]``, exactly like a blocking
    :meth:`ExecutionBackend.run` — but the handle is returned the moment
    the plan's tasks are queued, and resolves from pool callbacks with
    no thread blocked per plan.  The first task failure wins, cancels
    every not-yet-started task of the plan (the fail-fast contract), and
    becomes the handle's error.
    """

    def __init__(self, tasks: Sequence[DeltaTask], tick: TickCallback | None) -> None:
        self._tasks = tasks
        self._tick = tick
        self._results: list = [None] * len(tasks)
        self._remaining = len(tasks)
        self._error: BaseException | None = None
        # Reentrant: cancelling pending futures fires their callbacks
        # synchronously on this thread, re-entering _on_task_done.
        self._lock = threading.RLock()
        self._done = threading.Event()
        self._futures: list = []
        self._callbacks: list[Callable[["PlanHandle"], None]] = []

    def _attach(self, futures: Sequence) -> None:
        """Wire the plan's futures in; callbacks on already-finished
        futures fire immediately, so attachment is race-free."""
        # The lock is reentrant, so holding it here stays safe even when
        # an already-finished future fires _on_task_done synchronously.
        with self._lock:
            self._futures = list(futures)
        if not futures:
            self._settle()
            return
        for i, future in enumerate(futures):
            future.add_done_callback(partial(self._on_task_done, i))

    def _on_task_done(self, index: int, future) -> None:
        callbacks = None
        with self._lock:
            if self._done.is_set():
                return
            try:
                self._results[index] = future.result()
            except BaseException as exc:
                if self._error is None:
                    if isinstance(exc, EngineError) or not isinstance(exc, Exception):
                        self._error = exc
                    else:
                        wrapped = wrap_task_failure(self._tasks[index], exc)
                        wrapped.__cause__ = exc
                        self._error = wrapped
                    _cancel_pending(self._futures)
            self._remaining -= 1
            if self._remaining == 0:
                callbacks = self._settle_locked()
        if self._error is None and self._tick is not None:
            self._tick(1)
        if callbacks is not None:
            self._fire(callbacks)

    def _settle(self) -> None:
        with self._lock:
            callbacks = self._settle_locked()
        self._fire(callbacks)

    def _settle_locked(self) -> list:
        self._done.set()
        callbacks, self._callbacks = self._callbacks, []
        return callbacks

    def _fire(self, callbacks) -> None:
        for callback in callbacks:
            callback(self)

    def done(self) -> bool:
        return self._done.is_set()

    def add_done_callback(self, callback: Callable[["PlanHandle"], None]) -> None:
        """Run ``callback(handle)`` once the plan settles (immediately if
        it already has).  Runs on the thread finishing the last task."""
        with self._lock:
            if not self._done.is_set():
                self._callbacks.append(callback)
                return
        callback(self)

    def result(self, timeout: float | None = None) -> list:
        """Block for the plan's results (or raise its first failure)."""
        if not self._done.wait(timeout):
            raise EngineError(
                f"plan of {len(self._tasks)} tasks not done within {timeout}s"
            )
        if self._error is not None:
            raise self._error
        return self._results

    def __repr__(self) -> str:
        if not self._done.is_set():
            return f"PlanHandle(pending, {self._remaining}/{len(self._tasks)} tasks left)"
        state = "failed" if self._error is not None else "done"
        return f"PlanHandle({state}, {len(self._tasks)} tasks)"


class AsyncBackend(ThreadBackend):
    """A thread backend that also accepts plans without blocking.

    :meth:`submit_plan` queues every task on the shared pool and returns
    a :class:`PlanHandle` immediately; results assemble from pool
    callbacks.  Many plans interleave FIFO on the one bounded pool, so
    concurrent requests share workers fairly.  The blocking ``run`` is
    inherited, so the async backend drops into any engine unchanged.
    """

    name = "async"

    def submit_plan(
        self,
        stream: LinkStream,
        tasks: Sequence[DeltaTask],
        *,
        tick: TickCallback | None = None,
        cancel: CancelToken | None = None,
    ) -> PlanHandle:
        handle = PlanHandle(tasks, tick)
        pool = self._ensure_pool()
        futures = [
            pool.submit(_guarded_evaluate, task, stream, cancel) for task in tasks
        ]
        handle._attach(futures)
        return handle


_BACKENDS: dict[str, type[ExecutionBackend]] = {
    SerialBackend.name: SerialBackend,
    ThreadBackend.name: ThreadBackend,
    ProcessBackend.name: ProcessBackend,
    AsyncBackend.name: AsyncBackend,
}


def available_backends() -> list[str]:
    """Names accepted by :func:`get_backend` (and ``REPRO_ENGINE``)."""
    return sorted(_BACKENDS)


def get_backend(
    spec: str | ExecutionBackend | None,
    *,
    jobs: int | None = None,
) -> ExecutionBackend:
    """Resolve a backend from a name, a ``"name:jobs"`` spec, or an
    instance (returned as-is).  ``None`` means the serial default.  An
    explicit ``jobs`` argument wins over a ``:jobs`` suffix in the spec
    (so a CLI ``--jobs`` overrides a ``REPRO_ENGINE=thread:16`` default).

    The serial backend runs in the calling thread and has no workers, so
    any worker count attached to it (``"serial:8"``, or ``jobs=`` with a
    serial spec) is a configuration mistake and raises
    :class:`EngineError` rather than being silently dropped.
    """
    if isinstance(spec, ExecutionBackend):
        return spec
    if spec is None:
        spec = SerialBackend.name
    name, _, jobs_part = spec.partition(":")
    name = name.strip().lower()
    if jobs_part:
        try:
            spec_jobs = int(jobs_part)
        except ValueError:
            raise EngineError(f"bad worker count in backend spec {spec!r}") from None
        if jobs is None:
            jobs = spec_jobs
    if name not in _BACKENDS:
        raise EngineError(
            f"unknown backend {name!r}; available: {available_backends()}"
        )
    cls = _BACKENDS[name]
    if cls is SerialBackend:
        if jobs is not None:
            raise EngineError(
                "the serial backend runs in-process and has no workers; "
                f"drop the worker count (got jobs={jobs}) or pick "
                "'thread' or 'process'"
            )
        return SerialBackend()
    return cls(jobs)
