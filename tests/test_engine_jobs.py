"""Cancellation and the job queue: cancel tokens, coalescing, limits."""

from __future__ import annotations

import re
import sys
import threading
import time
from dataclasses import dataclass, field

import pytest

from repro.engine import (
    CancelToken,
    JobQueue,
    SweepEngine,
    cancel_scope,
    current_cancel_token,
    get_backend,
)
from repro.engine import jobs as jobs_module
from repro.engine.tasks import DeltaTask
from repro.utils.errors import AdmissionError, EngineError, JobCancelled


@dataclass(frozen=True)
class SquareTask(DeltaTask):
    """delta -> delta**2, with an optional pause and an evaluation log."""

    pause: float = 0.0
    log: list = field(default_factory=list, compare=False, hash=False)

    @property
    def kind(self) -> str:
        return "square"

    def _token(self) -> tuple:
        return (self.pause,)

    def evaluate(self, stream):
        if self.pause:
            time.sleep(self.pause)
        self.log.append(self.delta)
        return self.delta**2


class TestCancelToken:
    def test_live_by_default(self):
        token = CancelToken()
        assert not token.cancelled
        assert token.reason is None
        token.guard()  # no raise

    def test_explicit_cancel_first_reason_wins(self):
        token = CancelToken()
        token.cancel("first")
        token.cancel("second")
        assert token.cancelled
        assert token.reason == "first"

    def test_deadline_expiry(self):
        token = CancelToken.with_timeout(0.0)
        assert token.expired
        assert token.cancelled
        assert token.reason == "deadline exceeded"

    def test_no_timeout_never_expires(self):
        token = CancelToken.with_timeout(None)
        assert token.deadline is None
        assert not token.cancelled

    def test_extend_deadline_never_tightens(self):
        token = CancelToken.with_timeout(10.0)
        earlier = token.deadline - 5.0
        token.extend_deadline(earlier)
        assert token.deadline > earlier
        later = token.deadline + 5.0
        token.extend_deadline(later)
        assert token.deadline == later
        token.extend_deadline(None)  # most patient requester: no deadline
        assert token.deadline is None
        token.extend_deadline(123.0)  # no-op once unlimited
        assert token.deadline is None

    def test_guard_names_task_kind_and_delta(self):
        token = CancelToken()
        token.cancel("deadline exceeded")
        with pytest.raises(JobCancelled, match=r"square task at delta=7"):
            token.guard(SquareTask(delta=7.0))

    def test_scope_binds_and_restores(self):
        assert current_cancel_token() is None
        outer, inner = CancelToken(), CancelToken()
        with cancel_scope(outer):
            assert current_cancel_token() is outer
            with cancel_scope(inner):
                assert current_cancel_token() is inner
            assert current_cancel_token() is outer
        assert current_cancel_token() is None


class TestBackendCancellation:
    @pytest.mark.parametrize("spec", ["serial", "thread:2"])
    def test_cancelled_token_fails_fast(self, spec, chain_stream):
        backend = get_backend(spec)
        token = CancelToken()
        token.cancel()
        tasks = [SquareTask(delta=float(d)) for d in range(1, 5)]
        try:
            with pytest.raises(JobCancelled, match=r"square task at delta="):
                backend.run(chain_stream, tasks, cancel=token)
        finally:
            backend.close()

    def test_mid_plan_deadline_names_stopped_task(self, chain_stream):
        backend = get_backend("serial")
        token = CancelToken.with_timeout(0.12)
        tasks = [SquareTask(delta=float(d), pause=0.05) for d in range(1, 20)]
        with pytest.raises(
            JobCancelled, match=r"deadline exceeded before square task at delta="
        ):
            backend.run(chain_stream, tasks, cancel=token)
        # Fail-fast: the deadline stopped the plan well before the tail.
        assert sum(len(t.log) for t in tasks) < len(tasks)

    def test_run_picks_up_scope_token(self, chain_stream):
        token = CancelToken()
        token.cancel("scope cancel")
        tasks = [SquareTask(delta=1.0)]
        with SweepEngine("serial", cache=None) as engine:
            with cancel_scope(token):
                with pytest.raises(JobCancelled, match="scope cancel"):
                    engine.run(chain_stream, tasks)


class TestJobQueue:
    def test_result_roundtrip(self):
        with JobQueue(runners=2) as queue:
            job = queue.submit(lambda: "value", label="simple")
            assert job.result(5) == "value"
            assert job.state == "done"
            assert not job.coalesced

    def test_failure_is_raised_and_recorded(self):
        with JobQueue(runners=1) as queue:
            job = queue.submit(lambda: 1 / 0)
            with pytest.raises(ZeroDivisionError):
                job.result(5)
            assert job.state == "failed"
            assert queue.stats()["failed"] == 1

    def test_coalescing_runs_fn_once(self):
        gate = threading.Event()
        calls = []

        def work():
            gate.wait(5)
            calls.append(1)
            return "shared"

        with JobQueue(runners=1, max_pending=8) as queue:
            first = queue.submit(work, key="same")
            attached = [queue.submit(work, key="same") for _ in range(4)]
            gate.set()
            assert first.result(5) == "shared"
            for job in attached:
                assert job.coalesced
                assert job.result(5) == "shared"
        assert len(calls) == 1
        assert queue.stats()["coalesced"] == 4

    def test_post_completion_submission_starts_fresh(self):
        with JobQueue(runners=1) as queue:
            queue.submit(lambda: 1, key="k").result(5)
            again = queue.submit(lambda: 2, key="k")
            assert not again.coalesced
            assert again.result(5) == 2

    def test_admission_control_rejects_backlog(self):
        started = threading.Event()
        gate = threading.Event()

        def blocker():
            started.set()
            gate.wait(5)

        with JobQueue(runners=1, max_pending=1) as queue:
            queue.submit(blocker)
            assert started.wait(5)
            queue.submit(lambda: 1)  # fills the single backlog slot
            with pytest.raises(AdmissionError, match="job queue full"):
                queue.submit(lambda: 2)
            assert queue.stats()["rejected"] == 1
            gate.set()

    def test_deadline_cancels_mid_plan_naming_task(self, chain_stream):
        tasks = [SquareTask(delta=float(d), pause=0.05) for d in range(1, 40)]
        with SweepEngine("serial", cache=None) as engine:
            with JobQueue(runners=1) as queue:
                job = queue.submit(
                    lambda: engine.run(chain_stream, tasks), timeout=0.12
                )
                with pytest.raises(JobCancelled) as excinfo:
                    job.result(10)
        # The deadline rode the cancel scope into the engine and stopped
        # the plan at a named task: kind plus Δ.
        assert re.search(
            r"deadline exceeded before square task at delta=\d+", str(excinfo.value)
        )
        assert job.state == "cancelled"

    def test_cancel_last_job_cancels_computation(self):
        gate = threading.Event()
        entered = threading.Event()

        def work():
            entered.set()
            token = current_cancel_token()
            for _ in range(100):
                if token.cancelled:
                    token.guard()
                time.sleep(0.02)
            return "finished"

        with JobQueue(runners=1) as queue:
            job = queue.submit(work, key="k")
            assert entered.wait(5)
            assert job.cancel("not needed anymore")
            assert job.state == "cancelled"
            with pytest.raises(JobCancelled, match="not needed anymore"):
                job.result(10)
            gate.set()

    def test_cancel_one_of_many_keeps_computation_alive(self):
        gate = threading.Event()

        def work():
            gate.wait(5)
            return "shared"

        with JobQueue(runners=1) as queue:
            keeper = queue.submit(work, key="k")
            leaver = queue.submit(work, key="k")
            assert leaver.cancel()
            gate.set()
            assert keeper.result(5) == "shared"
            assert leaver.state == "cancelled"

    def test_coalesced_job_extends_deadline(self):
        gate = threading.Event()

        def work():
            gate.wait(5)
            return "done"

        with JobQueue(runners=1) as queue:
            first = queue.submit(work, key="k", timeout=0.2)
            patient = queue.submit(work, key="k", timeout=60.0)
            time.sleep(0.3)  # past the first deadline
            gate.set()
            # The shared computation lives as long as its most patient
            # requester: neither job was killed by the earlier deadline.
            assert first.result(5) == "done"
            assert patient.result(5) == "done"

    def test_forget_drops_only_settled_jobs(self):
        gate = threading.Event()
        with JobQueue(runners=1) as queue:
            live = queue.submit(lambda: gate.wait(5))
            assert not queue.forget(live.id)
            gate.set()
            live.result(5)
            assert queue.forget(live.id)
            assert queue.job(live.id) is None

    def test_oldest_finished_jobs_are_forgotten(self, monkeypatch):
        monkeypatch.setattr(jobs_module, "MAX_FINISHED_JOBS", 3)
        gate = threading.Event()
        with JobQueue(runners=1) as queue:
            live = queue.submit(lambda: gate.wait(5))
            done = [queue.submit(lambda i=i: i) for i in range(5)]
            for job in done:
                # Queued behind the live job: nothing finished yet.
                assert queue.job(job.id) is job
            gate.set()
            for i, job in enumerate(done):
                assert job.result(5) == i
            queue.close()  # waits until the runner has retired every job
            # Six finished, three retained: the live job and the two
            # oldest results were forgotten, newest kept.
            assert [j.id for j in queue.jobs()] == [j.id for j in done[2:]]
            assert queue.job(live.id) is None
            assert queue.stats()["retained"] == 3
            # A forgotten job's handle still works for its holder.
            assert done[0].result(0) == 0

    def test_cancelled_jobs_count_as_finished(self, monkeypatch):
        monkeypatch.setattr(jobs_module, "MAX_FINISHED_JOBS", 1)
        gate = threading.Event()
        with JobQueue(runners=1) as queue:
            blocker = queue.submit(lambda: gate.wait(5))
            waiting = queue.submit(lambda: 1)
            assert waiting.cancel("no longer needed")
            assert queue.job(waiting.id) is waiting
            gate.set()
            blocker.result(5)
            queue.close()
            assert queue.job(waiting.id) is None
            assert [j.id for j in queue.jobs()] == [blocker.id]

    def test_retention_holds_under_concurrent_settles(self, monkeypatch):
        # More runners than cores, a tiny switch interval, and cancels
        # racing completions: the retained set must still be exactly the
        # newest finished jobs, each one settled.
        monkeypatch.setattr(jobs_module, "MAX_FINISHED_JOBS", 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            queue = JobQueue(runners=6, max_pending=1000)
            submitted = [queue.submit(lambda i=i: i) for i in range(300)]
            for job in submitted[::7]:
                job.cancel("racing a runner")
            for job in submitted:
                assert job.wait(10)
            queue.close()
        finally:
            sys.setswitchinterval(interval)
        retained = queue.jobs()
        assert len(retained) == 8
        assert all(job.done for job in retained)
        assert queue.stats()["retained"] == 8
        assert sorted(queue._finished) == sorted(j.id for j in retained)

    def test_closed_queue_rejects_submissions(self):
        queue = JobQueue(runners=1)
        queue.close()
        with pytest.raises(EngineError, match="closed"):
            queue.submit(lambda: 1)
