"""A small job queue: many requests, one bounded set of runners.

:class:`JobQueue` is the concurrency heart of the analysis service, but
it is deliberately service-agnostic: a job is any zero-argument callable
(in the daemon, a closure around ``analyze_stream`` or an engine sweep).
The queue adds the three behaviours a long-lived shared process needs:

* **Admission control** — at most ``max_pending`` computations may wait
  for a runner; past that, :meth:`~JobQueue.submit` raises
  :class:`~repro.utils.errors.AdmissionError` (the daemon maps it to a
  429-style response) instead of letting the backlog grow without bound.
* **Deadlines** — ``submit(..., timeout=5.0)`` gives the job a
  :class:`~repro.engine.cancel.CancelToken` expiring then.  The runner
  executes the job inside a :func:`~repro.engine.cancel.cancel_scope`,
  so every engine sweep the job performs inherits the token and fails
  fast (:class:`~repro.utils.errors.JobCancelled` naming the task it
  stopped at) once the deadline passes.
* **Request coalescing** — ``submit(..., key=...)`` with the key of an
  in-flight computation does not start new work: the new job *attaches*
  to the running computation and both jobs see the identical result.
  The attached job may relax the shared deadline (the computation lives
  as long as its most patient requester) but never tightens it.  Keys
  are the caller's notion of identity — the service derives them from
  the stream fingerprint, the Δ-grid, and the measure tokens.

Finished jobs stay queryable (status, result) until more than
:data:`MAX_FINISHED_JOBS` have finished; past that, the oldest finished
jobs are forgotten, so a long-lived daemon holds bounded job state.  A
forgotten job looks exactly like an unknown one.

Runners are plain threads (``runners`` of them); the heavy parallelism
lives below, in the engine's backend pool that all jobs share.  Keeping
the two pools separate is what makes the design deadlock-free: a runner
blocked on a sweep never occupies a backend worker.
"""

from __future__ import annotations

import threading
import uuid
from collections import OrderedDict
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor

from repro.engine.cancel import CancelToken, cancel_scope
from repro.utils.errors import AdmissionError, EngineError, JobCancelled

#: Job lifecycle states (terminal: done / failed / cancelled).
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

TERMINAL_STATES = frozenset({DONE, FAILED, CANCELLED})

#: Finished jobs a :class:`JobQueue` keeps for status and result
#: queries; beyond it the oldest finished jobs are forgotten.
MAX_FINISHED_JOBS = 1024


class Job:
    """One submitted request: a handle to poll, wait on, or cancel.

    Several jobs may share one computation (coalescing); each job still
    has its own id, label, and cancellation — cancelling one attached
    job never kills work another job is waiting for.
    """

    def __init__(
        self,
        job_id: str,
        label: str,
        key: str | None,
        *,
        on_settle: Callable[[list["Job"]], None] | None = None,
    ) -> None:
        self.id = job_id
        self.label = label
        self.key = key
        #: Whether this job attached to an in-flight computation instead
        #: of starting its own.
        self.coalesced = False
        self._event = threading.Event()
        self._lock = threading.Lock()
        self._state = QUEUED
        self._result = None
        self._error: BaseException | None = None
        self._computation: "_Computation | None" = None
        #: Called (outside every lock) after a cancel settles this job;
        #: the owning queue's retention hook.
        self._on_settle = on_settle

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    @property
    def done(self) -> bool:
        """Whether the job reached a terminal state (any of them)."""
        return self.state in TERMINAL_STATES

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job settles; ``True`` if it did in time."""
        return self._event.wait(timeout)

    def result(self, timeout: float | None = None):
        """The job's value — blocking, raising the job's failure if any."""
        if not self._event.wait(timeout):
            raise EngineError(f"job {self.id} not done within {timeout}s")
        if self._error is not None:
            raise self._error
        return self._result

    @property
    def error(self) -> BaseException | None:
        """The terminal failure (``None`` while live or on success)."""
        with self._lock:
            return self._error

    def cancel(self, reason: str = "cancelled by client") -> bool:
        """Detach and cancel this job.  The shared computation's token is
        cancelled only when no other live job is attached — the last one
        out turns off the lights.  Returns ``False`` if already settled."""
        computation = self._computation
        if computation is not None:
            settled = computation.cancel_job(self, reason)
        else:
            settled = self._settle(CANCELLED, error=JobCancelled(reason))
        if settled and self._on_settle is not None:
            self._on_settle([self])
        return settled

    def _mark_running(self) -> None:
        with self._lock:
            if self._state == QUEUED:
                self._state = RUNNING

    def _settle(self, state: str, *, result=None, error=None) -> bool:
        with self._lock:
            if self._state in TERMINAL_STATES:
                return False
            self._state = state
            self._result = result
            self._error = error
        self._event.set()
        return True

    def __repr__(self) -> str:
        return f"Job(id={self.id!r}, state={self.state!r}, label={self.label!r})"


class _Computation:
    """One unit of actual work, shared by every job coalesced onto it."""

    def __init__(self, key: str | None, fn: Callable[[], object], token: CancelToken) -> None:
        self.key = key
        self.fn = fn
        self.token = token
        self.jobs: list[Job] = []
        self.lock = threading.Lock()
        self.started = False
        self.finished = False

    def attach(self, job: Job) -> bool:
        """Add ``job`` to this computation; ``False`` if it already
        finished (the caller starts a fresh one instead)."""
        with self.lock:
            if self.finished:
                return False
            self.jobs.append(job)
            job._computation = self
            return True

    def cancel_job(self, job: Job, reason: str) -> bool:
        with self.lock:
            if not job._settle(CANCELLED, error=JobCancelled(reason)):
                return False
            self.jobs.remove(job)
            last = not self.jobs
        if last:
            self.token.cancel(reason)
        return True

    def settle_all(self, state: str, *, result=None, error=None) -> list[Job]:
        with self.lock:
            self.finished = True
            jobs, self.jobs = self.jobs, []
        for job in jobs:
            job._settle(state, result=result, error=error)
        return jobs


class JobQueue:
    """Bounded asynchronous execution of analysis jobs.

    Parameters
    ----------
    runners:
        Concurrent jobs (threads).  Each runner mostly waits on engine
        sweeps, so a handful suffices even under heavy load.
    max_pending:
        Admission limit: computations allowed to *wait* for a runner.
        Running computations don't count — the limit bounds the backlog,
        not the concurrency.
    """

    def __init__(self, *, runners: int = 4, max_pending: int = 32) -> None:
        if runners < 1:
            raise EngineError("runners must be a positive integer")
        if max_pending < 0:
            raise EngineError("max_pending must be >= 0")
        self.runners = runners
        self.max_pending = max_pending
        self._pool = ThreadPoolExecutor(
            max_workers=runners, thread_name_prefix="repro-job"
        )
        self._lock = threading.Lock()
        self._jobs: dict[str, Job] = {}
        #: Ids of finished jobs still in ``_jobs``, oldest first.
        self._finished: OrderedDict[str, None] = OrderedDict()
        self._inflight: dict[str, _Computation] = {}
        self._queued = 0
        self._running = 0
        self._closed = False
        self.counters = {
            "submitted": 0,
            "coalesced": 0,
            "rejected": 0,
            "completed": 0,
            "failed": 0,
            "cancelled": 0,
        }

    def submit(
        self,
        fn: Callable[[], object],
        *,
        key: str | None = None,
        timeout: float | None = None,
        label: str = "",
    ) -> Job:
        """Queue ``fn`` and return its :class:`Job` immediately.

        ``key`` opts into coalescing: if a computation with the same key
        is in flight, the job attaches to it (and ``fn`` is dropped —
        the in-flight computation's result serves both).  ``timeout``
        sets the job's deadline in seconds.  Raises
        :class:`~repro.utils.errors.AdmissionError` when the queue's
        backlog is full.
        """
        job = Job(uuid.uuid4().hex[:12], label, key, on_settle=self._retire)
        token = CancelToken.with_timeout(timeout)
        with self._lock:
            if self._closed:
                raise EngineError("job queue is closed")
            if key is not None:
                computation = self._inflight.get(key)
                if computation is not None and computation.attach(job):
                    # A coalesced request never tightens the shared
                    # deadline: the computation outlives its most
                    # patient requester.
                    computation.token.extend_deadline(token.deadline)
                    job.coalesced = True
                    self.counters["submitted"] += 1
                    self.counters["coalesced"] += 1
                    self._jobs[job.id] = job
                    return job
            if self._queued >= self.max_pending:
                self.counters["rejected"] += 1
                raise AdmissionError(
                    f"job queue full: {self._queued} jobs already waiting "
                    f"(max_pending={self.max_pending}); retry later"
                )
            computation = _Computation(key, fn, token)
            computation.attach(job)
            if key is not None:
                self._inflight[key] = computation
            self._jobs[job.id] = job
            self._queued += 1
            self.counters["submitted"] += 1
        self._pool.submit(self._execute, computation)
        return job

    def _execute(self, computation: _Computation) -> None:
        with self._lock:
            self._queued -= 1
            self._running += 1
        with computation.lock:
            computation.started = True
            abandoned = not computation.jobs
            for job in computation.jobs:
                job._mark_running()
        try:
            if abandoned or computation.token.cancelled:
                # Every requester cancelled (or the deadline passed)
                # while the computation waited for a runner.
                reason = computation.token.reason or "cancelled"
                self._finish(
                    computation, CANCELLED, error=JobCancelled(reason)
                )
                return
            try:
                with cancel_scope(computation.token):
                    value = computation.fn()
            except JobCancelled as exc:
                self._finish(computation, CANCELLED, error=exc)
            except BaseException as exc:
                self._finish(computation, FAILED, error=exc)
            else:
                self._finish(computation, DONE, result=value)
        finally:
            with self._lock:
                self._running -= 1

    def _finish(self, computation: _Computation, state: str, *, result=None, error=None) -> None:
        with self._lock:
            if computation.key is not None:
                if self._inflight.get(computation.key) is computation:
                    del self._inflight[computation.key]
        settled = computation.settle_all(state, result=result, error=error)
        counter = {DONE: "completed", FAILED: "failed", CANCELLED: "cancelled"}[state]
        with self._lock:
            self.counters[counter] += max(1, len(settled))
            self._retire_locked(settled)

    def _retire(self, jobs: list[Job]) -> None:
        with self._lock:
            self._retire_locked(jobs)

    def _retire_locked(self, jobs: list[Job]) -> None:
        """Mark ``jobs`` finished, then forget the oldest finished jobs
        beyond :data:`MAX_FINISHED_JOBS`."""
        for job in jobs:
            if job.id in self._jobs:
                self._finished[job.id] = None
        while len(self._finished) > MAX_FINISHED_JOBS:
            job_id, _ = self._finished.popitem(last=False)
            del self._jobs[job_id]

    def job(self, job_id: str) -> Job | None:
        """Look up a job by id (``None`` when unknown)."""
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> list[Job]:
        """Every job the queue retains (live, or among the last
        :data:`MAX_FINISHED_JOBS` finished), oldest submission first."""
        with self._lock:
            return list(self._jobs.values())

    def forget(self, job_id: str) -> bool:
        """Drop a settled job from the registry (``False`` if live or
        unknown) — the service's result-retention hook."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or not job.done:
                return False
            del self._jobs[job_id]
            self._finished.pop(job_id, None)
            return True

    def stats(self) -> dict:
        """Counters plus the queue's live occupancy."""
        with self._lock:
            return {
                **self.counters,
                "queued": self._queued,
                "running": self._running,
                "max_pending": self.max_pending,
                "runners": self.runners,
                "retained": len(self._jobs),
            }

    def close(self, *, cancel_pending: bool = True) -> None:
        """Stop accepting work and shut the runner pool down."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            live = [job for job in self._jobs.values() if not job.done]
        if cancel_pending:
            for job in live:
                job.cancel("job queue shut down")
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "JobQueue":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        stats = self.stats()
        return (
            f"JobQueue(runners={self.runners}, queued={stats['queued']}, "
            f"running={stats['running']})"
        )
