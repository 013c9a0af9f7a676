"""Tests for the sweep-execution engine (tasks, backends, cache, scheduler).

The contract under test: every backend and every cache state returns γ
and per-Δ scores **bit-identical** to the serial reference, and a warm
cache performs zero per-Δ evaluations.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dataclasses import dataclass, field

from repro.core import classical_sweep, gamma_stability, occupancy_method
from repro.engine import (
    AnalysisTask,
    DeltaTask,
    MISS,
    DiskStore,
    MemoryStore,
    OccupancyMeasure,
    ProcessBackend,
    SerialBackend,
    StderrProgress,
    SweepCache,
    SweepEngine,
    ThreadBackend,
    available_backends,
    default_engine,
    engine_from_env,
    get_backend,
    plan_occupancy_sweep,
    resolve_engine,
    set_default_engine,
)
from repro.temporal.reachability import SCAN_COUNTS
from repro.generators import time_uniform_stream, two_mode_stream_by_rho
from repro.linkstream import LinkStream
from repro.utils.errors import EngineError


@pytest.fixture(scope="module")
def synthetic() -> LinkStream:
    return time_uniform_stream(12, 6, 5000.0, seed=0)


@pytest.fixture(scope="module")
def process_backend():
    backend = ProcessBackend(jobs=2)
    yield backend
    backend.close()


def assert_identical_sweeps(a, b):
    """γ and every per-Δ score must match exactly (no tolerance)."""
    assert a.gamma == b.gamma
    assert a.deltas.tolist() == b.deltas.tolist()
    for pa, pb in zip(a.points, b.points):
        assert pa.scores == pb.scores
        assert pa.num_trips == pb.num_trips
        assert pa.num_windows == pb.num_windows


class CountingEvaluator:
    """Counts backward scans — the sweep's numeric kernel.

    Every per-Δ evaluation performs exactly one series scan, alone or
    in a stack of the sweep's scans, and ``SCAN_COUNTS["series"]``
    tallies each, so ``calls`` counts per-Δ evaluations for in-process
    (serial/thread) backends.
    """

    def __init__(self):
        self._base = SCAN_COUNTS["series"]

    @property
    def calls(self) -> int:
        return SCAN_COUNTS["series"] - self._base


@pytest.fixture
def count_evaluations():
    return CountingEvaluator()


def occupancy_task(delta: float, **measure_kwargs) -> AnalysisTask:
    """A fused task carrying just the occupancy measure."""
    return AnalysisTask(
        delta=delta, measures=(OccupancyMeasure(**measure_kwargs),)
    )


@dataclass(frozen=True)
class ExplodingTask(DeltaTask):
    """Module-level (picklable) task whose evaluation always fails."""

    @property
    def kind(self) -> str:
        return "exploding"

    def _token(self) -> tuple:
        return ()

    def evaluate(self, stream):
        raise ValueError("boom")


@dataclass(frozen=True)
class DyingTask(DeltaTask):
    """Module-level (picklable) task whose worker process dies at Δ = 1.

    It only dies outside the process that built it, so a plan that
    falls back to in-process evaluation fails the test instead of
    killing the test runner.
    """

    parent: int = 0

    @property
    def kind(self) -> str:
        return "dying"

    def _token(self) -> tuple:
        return ()

    def evaluate(self, stream):
        import os

        if self.delta == 1.0 and os.getpid() != self.parent:
            os._exit(1)
        return self.delta


@dataclass(frozen=True)
class RecordingTask(DeltaTask):
    """Task that logs its evaluation into a shared list (thread use only)."""

    log: list = field(default_factory=list)

    @property
    def kind(self) -> str:
        return "recording"

    def _token(self) -> tuple:
        return ()

    def evaluate(self, stream):
        import time

        self.log.append(self.delta)
        time.sleep(0.05)  # give the consumer time to cancel the queue
        return self.delta


class TestBackendRegistry:
    def test_available_names(self):
        assert available_backends() == ["process", "serial", "thread"]

    def test_get_by_name(self):
        assert isinstance(get_backend("serial"), SerialBackend)
        assert isinstance(get_backend("thread"), ThreadBackend)
        assert isinstance(get_backend("process"), ProcessBackend)
        assert isinstance(get_backend(None), SerialBackend)

    def test_name_with_job_count(self):
        backend = get_backend("thread:3")
        assert backend.jobs == 3

    def test_explicit_jobs_beats_spec_suffix(self):
        # A CLI --jobs must override a REPRO_ENGINE=thread:16 default.
        assert get_backend("thread:8", jobs=2).jobs == 2
        with pytest.raises(EngineError):
            get_backend("thread:many", jobs=2)

    def test_instance_passthrough(self):
        backend = ThreadBackend(jobs=2)
        assert get_backend(backend) is backend

    def test_unknown_name_rejected(self):
        with pytest.raises(EngineError):
            get_backend("gpu")

    def test_bad_job_count_rejected(self):
        with pytest.raises(EngineError):
            get_backend("thread:many")
        with pytest.raises(EngineError):
            ThreadBackend(jobs=0)

    def test_serial_with_worker_count_rejected(self):
        """Regression: 'serial:8' used to silently discard the worker
        count instead of flagging the misconfiguration."""
        with pytest.raises(EngineError, match="serial"):
            get_backend("serial:8")
        with pytest.raises(EngineError, match="serial"):
            get_backend("serial", jobs=4)
        with pytest.raises(EngineError, match="serial"):
            SweepEngine(jobs=4)  # default backend is serial
        assert isinstance(get_backend("serial"), SerialBackend)


class TestBackendFailures:
    """Regression: a failing task used to leave the rest of the plan
    running and surface a bare traceback with no task identity."""

    def test_thread_failure_names_task_and_cancels_pending(self, synthetic):
        backend = ThreadBackend(jobs=1)
        log: list = []
        tasks = [ExplodingTask(delta=1.5)] + [
            RecordingTask(delta=float(i), log=log) for i in range(2, 10)
        ]
        with pytest.raises(EngineError, match=r"exploding task at delta=1\.5"):
            backend.run(synthetic, tasks)
        backend.close()  # waits for any straggler already started
        # The failure cancelled the queue: at most the task the single
        # worker had already grabbed ran, not the whole plan.
        assert len(log) <= 1

    def test_thread_failure_chains_original_exception(self, synthetic):
        backend = ThreadBackend(jobs=2)
        with pytest.raises(EngineError) as excinfo:
            backend.run(synthetic, [ExplodingTask(delta=3.0), ExplodingTask(delta=4.0)])
        assert isinstance(excinfo.value.__cause__, ValueError)
        backend.close()

    def test_process_failure_names_task(self, synthetic, process_backend):
        tasks = [
            occupancy_task(100.0),
            ExplodingTask(delta=2.5),
            occupancy_task(200.0),
        ]
        with pytest.raises(EngineError, match=r"exploding task at delta=2\.5"):
            process_backend.run(synthetic, tasks)

    def test_serial_failure_stays_transparent(self, synthetic):
        # The serial backend is the debugging reference: no wrapping.
        with pytest.raises(ValueError, match="boom"):
            SerialBackend().run(synthetic, [ExplodingTask(delta=1.0)])

    def test_single_task_plans_keep_the_error_contract(self, synthetic, process_backend):
        # The serial fast path for tiny plans must wrap failures just
        # like the pooled path (the coarse-delta tail is often 1 task).
        backend = ThreadBackend(jobs=2)
        with pytest.raises(EngineError, match=r"exploding task at delta=7"):
            backend.run(synthetic, [ExplodingTask(delta=7.0)])
        backend.close()
        with pytest.raises(EngineError, match=r"exploding task at delta=8"):
            process_backend.run(synthetic, [ExplodingTask(delta=8.0)])


    def test_dead_process_worker_is_a_named_error_and_the_pool_recovers(
        self, synthetic
    ):
        import os
        import threading

        def run_bounded(engine, tasks):
            # Run on a helper thread so a hang fails the test instead of
            # stalling the suite.
            outcome: dict = {}

            def target():
                try:
                    outcome["value"] = engine.run(synthetic, tasks)
                except BaseException as exc:
                    outcome["error"] = exc

            thread = threading.Thread(target=target, daemon=True)
            thread.start()
            thread.join(timeout=120)
            assert not thread.is_alive(), "the process backend hung"
            return outcome

        parent = os.getpid()
        with SweepEngine("process:2", cache=None) as engine:
            first = run_bounded(
                engine,
                [DyingTask(delta=float(d), parent=parent) for d in range(1, 5)],
            )
            assert isinstance(first.get("error"), EngineError)
            assert "dying task at delta=1 " in str(first["error"])
            # The broken pool was dropped: the next run starts a fresh one.
            second = run_bounded(
                engine,
                [DyingTask(delta=float(d), parent=parent) for d in range(2, 5)],
            )
            assert "error" not in second, second.get("error")
            assert second["value"] == [2.0, 3.0, 4.0]


class TestBackendDeterminism:
    """ISSUE acceptance: default-argument sweeps are bit-identical under
    all three backends on generator streams."""

    @pytest.fixture(scope="class")
    def streams(self):
        return [
            time_uniform_stream(10, 5, 4000.0, seed=1),
            two_mode_stream_by_rho(8, 30, 3, 6000.0, 0.5, seed=2),
        ]

    def test_thread_matches_serial(self, streams):
        with SweepEngine(ThreadBackend(jobs=4), cache=None) as engine:
            for stream in streams:
                serial = occupancy_method(stream, engine=SweepEngine(cache=None))
                threaded = occupancy_method(stream, engine=engine)
                assert_identical_sweeps(serial, threaded)

    def test_process_matches_serial(self, streams, process_backend):
        engine = SweepEngine(process_backend, cache=None)
        for stream in streams:
            serial = occupancy_method(stream, engine=SweepEngine(cache=None))
            processed = occupancy_method(stream, engine=engine)
            assert_identical_sweeps(serial, processed)

    def test_process_chunking_preserves_order(self, synthetic, process_backend):
        tasks = plan_occupancy_sweep(
            np.geomspace(synthetic.resolution(), synthetic.span, 9), methods=("mk",)
        )
        results = process_backend.run(synthetic, tasks)
        assert [r["occupancy"].delta for r in results] == [t.delta for t in tasks]

    @settings(max_examples=20, deadline=None)
    @given(
        num_nodes=st.integers(5, 12),
        links_per_pair=st.integers(2, 5),
        seed=st.integers(0, 10_000),
    )
    def test_property_thread_and_cache_hit_match_serial(
        self, num_nodes, links_per_pair, seed
    ):
        stream = time_uniform_stream(num_nodes, links_per_pair, 3000.0, seed=seed)
        serial = occupancy_method(
            stream, num_deltas=6, engine=SweepEngine(cache=None)
        )
        threaded_engine = SweepEngine(ThreadBackend(jobs=3), cache=SweepCache.build())
        with threaded_engine:
            threaded = occupancy_method(stream, num_deltas=6, engine=threaded_engine)
            rerun = occupancy_method(stream, num_deltas=6, engine=threaded_engine)
        assert_identical_sweeps(serial, threaded)
        assert_identical_sweeps(serial, rerun)
        assert threaded_engine.cache.hits >= 6  # the re-run was pure lookups


class TestCacheStores:
    def test_memory_store_lru_eviction(self):
        store = MemoryStore(max_entries=2)
        store.put("a", 1)
        store.put("b", 2)
        assert store.get("a") == 1  # refresh "a"
        store.put("c", 3)  # evicts "b", the least recently used
        assert store.get("b") is MISS
        assert store.get("a") == 1
        assert store.get("c") == 3

    def test_disk_store_roundtrip_and_corruption_tolerance(self, tmp_path):
        store = DiskStore(tmp_path)
        key = "ab" + "0" * 62
        assert store.get(key) is MISS
        store.put(key, {"x": 1})
        assert store.get(key) == {"x": 1}
        next(tmp_path.rglob("*.pkl")).write_bytes(b"not a pickle")
        assert store.get(key) is MISS  # corrupt entry degrades to a miss

    def test_layered_cache_promotes_disk_hits(self, tmp_path):
        memory = MemoryStore()
        cache = SweepCache([memory, DiskStore(tmp_path)])
        key = "cd" + "0" * 62
        cache.put(key, 42)
        memory.clear()
        assert cache.get(key) == 42  # found on disk...
        assert memory.get(key) == 42  # ...and promoted to memory
        assert cache.stats() == {"hits": 1, "misses": 0}

    def test_empty_store_list_rejected(self):
        with pytest.raises(EngineError):
            SweepCache([])


class TestWarmCache:
    def test_warm_rerun_performs_zero_evaluations(
        self, synthetic, count_evaluations
    ):
        """ISSUE acceptance: a warm-cache re-run of the same sweep runs
        zero backward scans."""
        engine = SweepEngine(cache=SweepCache.build())
        cold = occupancy_method(synthetic, engine=engine)
        cold_calls = count_evaluations.calls
        assert cold_calls == len(cold.points)
        warm = occupancy_method(synthetic, engine=engine)
        assert count_evaluations.calls == cold_calls  # zero new evaluations
        assert_identical_sweeps(cold, warm)

    def test_disk_cache_survives_engine_restart(
        self, synthetic, tmp_path, count_evaluations
    ):
        first = SweepEngine(cache=SweepCache.build(disk_dir=tmp_path))
        cold = occupancy_method(synthetic, num_deltas=8, engine=first)
        cold_calls = count_evaluations.calls
        # A fresh engine (fresh memory layer) over the same directory —
        # as a new process would see it.
        second = SweepEngine(cache=SweepCache.build(disk_dir=tmp_path))
        warm = occupancy_method(synthetic, num_deltas=8, engine=second)
        assert count_evaluations.calls == cold_calls
        assert_identical_sweeps(cold, warm)

    def test_refinement_reuses_first_round_points(self, synthetic, count_evaluations):
        engine = SweepEngine(cache=SweepCache.build())
        base = occupancy_method(synthetic, num_deltas=8, engine=engine)
        calls_before = count_evaluations.calls
        refined = occupancy_method(
            synthetic, num_deltas=8, refine_rounds=1, engine=engine
        )
        # Only the newly inserted refinement deltas were evaluated.
        new_points = len(refined.points) - len(base.points)
        assert count_evaluations.calls - calls_before == new_points

    def test_different_parameters_do_not_collide(self, synthetic):
        engine = SweepEngine(cache=SweepCache.build())
        deltas = [10.0, 100.0, 1000.0]
        coarse = occupancy_method(synthetic, deltas=deltas, bins=64, engine=engine)
        fine = occupancy_method(synthetic, deltas=deltas, bins=4096, engine=engine)
        assert coarse.points[0].scores != fine.points[0].scores

    def test_different_streams_do_not_collide(self, synthetic):
        engine = SweepEngine(cache=SweepCache.build())
        other = time_uniform_stream(12, 6, 5000.0, seed=9)
        a = occupancy_method(synthetic, num_deltas=6, engine=engine)
        b = occupancy_method(other, num_deltas=6, engine=engine)
        assert a.gamma != b.gamma or a.points[0].scores != b.points[0].scores


class TestClassicalSweepEngine:
    def test_classical_through_engine_matches_serial(self, synthetic):
        deltas = np.geomspace(synthetic.resolution(), synthetic.span, 5)
        plain = classical_sweep(synthetic, deltas, engine=SweepEngine(cache=None))
        with SweepEngine(ThreadBackend(jobs=2), cache=None) as engine:
            threaded = classical_sweep(synthetic, deltas, engine=engine)
        assert plain.column("density").tolist() == threaded.column("density").tolist()
        assert (
            plain.column("distance_hops").tolist()
            == threaded.column("distance_hops").tolist()
        )

    def test_classical_warm_cache(self, synthetic):
        engine = SweepEngine(cache=SweepCache.build())
        deltas = np.geomspace(synthetic.resolution(), synthetic.span, 5)
        classical_sweep(synthetic, deltas, engine=engine)
        misses = engine.cache.misses
        classical_sweep(synthetic, deltas, engine=engine)
        assert engine.cache.misses == misses  # second sweep: pure hits
        assert engine.cache.hits >= 5

    def test_classical_and_occupancy_keys_disjoint(self, synthetic):
        engine = SweepEngine(cache=SweepCache.build())
        deltas = [50.0, 500.0]
        classical_sweep(synthetic, deltas, compute_distances=False, engine=engine)
        result = occupancy_method(synthetic, deltas=deltas, engine=engine)
        assert result.points[0].scores["mk"] >= 0.0  # not a ClassicalPoint


class TestEngineSharing:
    def test_gamma_stability_shares_engine(self, synthetic, count_evaluations):
        engine = SweepEngine(cache=SweepCache.build())
        occupancy_method(synthetic, num_deltas=6, engine=engine)
        calls_after_full = count_evaluations.calls
        stability = gamma_stability(
            synthetic, num_resamples=3, num_deltas=6, engine=engine
        )
        # The full-stream sweep inside gamma_stability was a pure cache hit;
        # only the subsampled streams were evaluated.
        subsample_calls = count_evaluations.calls - calls_after_full
        assert subsample_calls <= 3 * 6
        assert stability.gamma_full > 0
        # Re-running the whole analysis is free: same seed, same subsamples.
        count_before = count_evaluations.calls
        gamma_stability(synthetic, num_resamples=3, num_deltas=6, engine=engine)
        assert count_evaluations.calls == count_before


class TestDefaultEngine:
    @pytest.fixture(autouse=True)
    def isolate_default(self):
        set_default_engine(None)
        yield
        set_default_engine(None)

    def test_resolve_none_uses_process_default(self):
        assert resolve_engine(None) is default_engine()

    def test_resolve_instance_passthrough(self):
        engine = SweepEngine(cache=None)
        assert resolve_engine(engine) is engine

    def test_resolve_backend_name(self):
        engine = resolve_engine("thread")
        assert isinstance(engine.backend, ThreadBackend)
        engine.close()

    def test_engine_scope_closes_owned_engines_only(self, synthetic):
        from repro.engine import engine_scope

        with engine_scope("thread:2") as eng:
            occupancy_method(synthetic, num_deltas=6, engine=eng)
            assert eng.backend._pool is not None
        assert eng.backend._pool is None  # scope built it, scope closed it
        mine = SweepEngine(ThreadBackend(jobs=2), cache=None)
        occupancy_method(synthetic, num_deltas=6, engine=mine)
        with engine_scope(mine) as resolved:
            assert resolved is mine
        assert mine.backend._pool is not None  # caller-owned engines stay open
        mine.close()

    def test_string_engine_matches_instance(self, synthetic):
        by_name = occupancy_method(synthetic, num_deltas=6, engine="thread:2")
        serial = occupancy_method(
            synthetic, num_deltas=6, engine=SweepEngine(cache=None)
        )
        assert_identical_sweeps(serial, by_name)

    def test_env_var_selects_backend(self, synthetic, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "thread:2")
        set_default_engine(None)
        engine = default_engine()
        assert isinstance(engine.backend, ThreadBackend)
        assert engine.backend.jobs == 2
        via_env = occupancy_method(synthetic, num_deltas=6)
        serial = occupancy_method(
            synthetic, num_deltas=6, engine=SweepEngine(cache=None)
        )
        assert_identical_sweeps(serial, via_env)
        engine.close()

    def test_env_var_cache_dir(self, tmp_path, monkeypatch, synthetic):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        engine = engine_from_env()
        occupancy_method(synthetic, num_deltas=6, engine=engine)
        assert list(tmp_path.rglob("*.pkl"))  # results persisted to disk

    def test_bad_env_backend_raises_cleanly(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "quantum")
        with pytest.raises(EngineError):
            engine_from_env()


class TestProgress:
    def test_progress_sees_cached_and_computed_tasks(self, synthetic, capsys):
        import io

        buffer = io.StringIO()
        engine = SweepEngine(
            cache=SweepCache.build(), progress=StderrProgress(buffer)
        )
        occupancy_method(synthetic, num_deltas=6, engine=engine)
        cold = buffer.getvalue()
        assert "sweep 6/6" in cold
        assert "cached" not in cold
        occupancy_method(synthetic, num_deltas=6, engine=engine)
        warm = buffer.getvalue()[len(cold):]
        assert "(6 cached)" in warm

    def test_empty_plan_is_a_noop(self):
        engine = SweepEngine(cache=SweepCache.build())
        assert engine.run(time_uniform_stream(5, 2, 100.0, seed=0), []) == []


class TestTaskKeys:
    def test_measure_key_depends_on_every_parameter(self):
        base = occupancy_task(10.0)
        variants = [
            occupancy_task(11.0),
            occupancy_task(10.0, methods=("mk", "std")),
            occupancy_task(10.0, bins=64),
            occupancy_task(10.0, exact=True),
            AnalysisTask(
                delta=10.0, measures=(OccupancyMeasure(),), include_self=True
            ),
            AnalysisTask(delta=10.0, measures=(OccupancyMeasure(),), origin=0.0),
        ]
        keys = {task.result_keys("f" * 64)[0] for task in [base, *variants]}
        assert len(keys) == len(variants) + 1

    def test_measure_key_ignores_riding_companions(self):
        # The occupancy entry of a fused occupancy+classical task must be
        # the very entry an occupancy-only sweep reads, or the per-measure
        # cache could never warm across measure sets.
        from repro.engine import ClassicalMeasure

        alone = occupancy_task(10.0)
        fused = AnalysisTask(
            delta=10.0, measures=(OccupancyMeasure(), ClassicalMeasure())
        )
        assert alone.result_keys("f" * 64)[0] == fused.result_keys("f" * 64)[0]
        assert len(fused.result_keys("f" * 64)) == 2

    def test_cache_key_depends_on_stream_fingerprint(self):
        task = occupancy_task(10.0)
        assert task.result_keys("a" * 64) != task.result_keys("b" * 64)

    def test_cache_key_depends_on_eval_version(self, monkeypatch):
        # Persistent caches must invalidate when the numerics change.
        task = occupancy_task(10.0)
        old = task.result_keys("a" * 64)
        monkeypatch.setattr("repro.engine.tasks.EVAL_VERSION", 999)
        assert task.result_keys("a" * 64) != old


class TestConcurrency:
    def test_concurrent_engineless_sweeps_share_default_cache_safely(self):
        from concurrent.futures import ThreadPoolExecutor

        streams = [time_uniform_stream(8, 3, 2000.0, seed=s) for s in range(8)]
        with ThreadPoolExecutor(max_workers=4) as pool:
            gammas = list(
                pool.map(lambda s: occupancy_method(s, num_deltas=6).gamma, streams)
            )
        assert all(g > 0 for g in gammas)
