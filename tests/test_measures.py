"""Tests for the fused measure pipeline: one aggregation + one scan per
Δ serving a whole measure set, per-measure cache isolation, and the
distance measure's merge algebra.

The acceptance contract: ``analyze_stream`` requesting occupancy +
classical measures performs exactly one aggregation and one backward
scan per Δ (asserted via the scan/aggregation instrumentation counters),
with results bit-identical to dedicated per-measure sweeps on every
backend.
"""

from __future__ import annotations

import pytest

from repro.core import analyze_stream, classical_sweep, occupancy_method
from repro.engine import (
    AnalysisTask,
    ClassicalMeasure,
    MeasureSpec,
    MetricsMeasure,
    OccupancyMeasure,
    ProcessBackend,
    SweepCache,
    SweepEngine,
    ThreadBackend,
    available_measures,
    normalize_measures,
    plan_measure_sweep,
    resolve_measure,
)
from repro.generators import time_uniform_stream
from repro.graphseries import aggregate, clear_aggregate_cache
from repro.graphseries.aggregation import AGGREGATION_COUNTS
from repro.linkstream import LinkStream
from repro.temporal.reachability import SCAN_COUNTS, DistanceTotals, scan_series
from repro.utils.errors import EngineError, ValidationError


@pytest.fixture(scope="module")
def stream() -> LinkStream:
    return time_uniform_stream(12, 6, 5000.0, seed=0)


@pytest.fixture(scope="module")
def series(stream):
    return aggregate(stream, 500.0)


def scan_count() -> int:
    return SCAN_COUNTS["series"]


def aggregation_count() -> int:
    return AGGREGATION_COUNTS["aggregate"]


def assert_identical_points(a, b):
    assert a.scores == b.scores
    assert a.num_trips == b.num_trips
    assert a.num_windows == b.num_windows
    assert a.distribution.values.tolist() == b.distribution.values.tolist()
    assert a.distribution.weights.tolist() == b.distribution.weights.tolist()


def assert_identical_classical(a, b):
    assert a.snapshot == b.snapshot
    assert a.distances == b.distances


class TestMeasureSpecs:
    def test_registry_names(self):
        # The registry is open (plugins may add names at runtime); the
        # built-ins must always be present.
        assert {
            "classical",
            "components",
            "metrics",
            "occupancy",
            "reachability",
            "trips",
        } <= set(available_measures())

    def test_resolve_by_name_and_instance(self):
        assert isinstance(resolve_measure("occupancy"), OccupancyMeasure)
        custom = OccupancyMeasure(bins=64)
        assert resolve_measure(custom) is custom
        with pytest.raises(EngineError):
            resolve_measure("bogus")

    def test_normalize_rejects_duplicates_and_empties(self):
        with pytest.raises(EngineError, match="duplicate"):
            normalize_measures(("occupancy", OccupancyMeasure(bins=64)))
        with pytest.raises(EngineError, match="at least one"):
            normalize_measures(())

    def test_measures_are_specs(self):
        for name in available_measures():
            assert isinstance(resolve_measure(name), MeasureSpec)

    def test_task_requires_measures(self):
        with pytest.raises(EngineError):
            AnalysisTask(delta=10.0, measures=())


class TestFusedEvaluation:
    def test_one_aggregation_one_scan_per_task(self, stream):
        task = AnalysisTask(
            delta=500.0,
            measures=(OccupancyMeasure(), ClassicalMeasure(), MetricsMeasure()),
        )
        s0, a0 = scan_count(), aggregation_count()
        results = task.evaluate(stream)
        assert scan_count() - s0 == 1
        assert aggregation_count() - a0 <= 1  # <= : the series store may hit
        assert set(results) == {"occupancy", "classical", "metrics"}

    def test_fused_equals_dedicated_single_measure_scans(self, stream):
        fused = AnalysisTask(
            delta=500.0, measures=(OccupancyMeasure(), ClassicalMeasure())
        ).evaluate(stream)
        occupancy_alone = AnalysisTask(
            delta=500.0, measures=(OccupancyMeasure(),)
        ).evaluate(stream)["occupancy"]
        classical_alone = AnalysisTask(
            delta=500.0, measures=(ClassicalMeasure(),)
        ).evaluate(stream)["classical"]
        assert_identical_points(fused["occupancy"], occupancy_alone)
        assert_identical_classical(fused["classical"], classical_alone)

    def test_metrics_measure_matches_distance_free_classical(self, stream):
        metrics = AnalysisTask(
            delta=500.0, measures=(MetricsMeasure(),)
        ).evaluate(stream)["metrics"]
        sweep = classical_sweep(
            stream, [250.0, 500.0], compute_distances=False,
            engine=SweepEngine(cache=None),
        )
        assert metrics.distances is None
        assert metrics.snapshot == sweep.points[1].snapshot

    @pytest.mark.parametrize(
        "backend_factory",
        [
            lambda: None,
            lambda: ThreadBackend(jobs=4),
            lambda: ProcessBackend(jobs=2),
        ],
        ids=["serial", "thread", "process"],
    )
    def test_fused_sweep_bit_identical_across_backends(
        self, stream, backend_factory
    ):
        """Multi-collector scans vs separate single-measure scans, across
        all backends."""
        deltas = [50.0, 500.0, 5000.0]
        reference_occ = occupancy_method(
            stream, deltas=deltas, engine=SweepEngine(cache=None)
        )
        reference_cls = classical_sweep(
            stream, deltas, engine=SweepEngine(cache=None)
        )
        with SweepEngine(backend_factory(), cache=None) as engine:
            fused = occupancy_method(
                stream,
                deltas=deltas,
                measures=("classical",),
                engine=engine,
            )
        assert fused.gamma == reference_occ.gamma
        for pa, pb in zip(fused.points, reference_occ.points):
            assert_identical_points(pa, pb)
        for ca, cb in zip(fused.companions["classical"], reference_cls.points):
            assert_identical_classical(ca, cb)

    def test_companions_ride_refinement_rounds(self, stream):
        result = occupancy_method(
            stream,
            num_deltas=6,
            refine_rounds=1,
            measures=("classical",),
            engine=SweepEngine(cache=None),
        )
        companions = result.companions["classical"]
        assert len(companions) == len(result.points)
        assert [c.delta for c in companions] == [p.delta for p in result.points]


class TestAnalyzeStreamFusion:
    def test_one_aggregation_one_scan_per_delta(self, stream):
        """Acceptance: occupancy + classical from exactly one aggregation
        and one backward scan per Δ."""
        deltas = [50.0, 500.0, 5000.0]
        clear_aggregate_cache()  # count materializations from a cold memo
        s0, a0 = scan_count(), aggregation_count()
        report = analyze_stream(
            stream,
            validate=False,
            measures=("occupancy", "classical"),
            deltas=deltas,
            engine=SweepEngine(cache=None),
        )
        assert scan_count() - s0 == len(deltas)
        assert aggregation_count() - a0 == len(deltas)
        assert report.classical is not None
        assert len(report.classical.points) == len(report.saturation.points)

    def test_matches_dedicated_sweeps(self, stream):
        deltas = [50.0, 500.0, 5000.0]
        report = analyze_stream(
            stream,
            validate=False,
            measures=("occupancy", "classical", "metrics"),
            deltas=deltas,
            engine=SweepEngine(cache=None),
        )
        occ = occupancy_method(stream, deltas=deltas, engine=SweepEngine(cache=None))
        cls = classical_sweep(stream, deltas, engine=SweepEngine(cache=None))
        assert report.gamma == occ.gamma
        for pa, pb in zip(report.saturation.points, occ.points):
            assert_identical_points(pa, pb)
        assert (
            report.classical.column("distance_time").tolist()
            == cls.column("distance_time").tolist()
        )
        assert (
            report.classical.column("density").tolist()
            == cls.column("density").tolist()
        )
        # Metrics carry the same snapshot means, no distances.
        assert (
            report.metrics.column("density").tolist()
            == cls.column("density").tolist()
        )
        assert all(p.distances is None for p in report.metrics.points)

    def test_occupancy_measure_is_required(self, stream):
        with pytest.raises(ValidationError, match="occupancy"):
            analyze_stream(stream, measures=("classical",))


class TestPerMeasureCache:
    def test_warm_occupancy_cold_classical_rescans_once(self, stream):
        """Acceptance: a warm occupancy cache plus a cold classical
        request re-scans each Δ exactly once (narrowed to the missing
        measure) and serves occupancy from cache."""
        deltas = [50.0, 500.0]
        engine = SweepEngine(cache=SweepCache.build())
        warm = occupancy_method(stream, deltas=deltas, engine=engine)
        s0 = scan_count()
        fused = occupancy_method(
            stream, deltas=deltas, measures=("classical",), engine=engine
        )
        assert scan_count() - s0 == len(deltas)  # one narrowed scan per Δ
        for pa, pb in zip(fused.points, warm.points):
            assert_identical_points(pa, pb)
        # Fully warm set: no scan at all.
        s1 = scan_count()
        rerun = occupancy_method(
            stream, deltas=deltas, measures=("classical",), engine=engine
        )
        assert scan_count() - s1 == 0
        for ca, cb in zip(
            rerun.companions["classical"], fused.companions["classical"]
        ):
            assert_identical_classical(ca, cb)

    def test_fused_run_warms_single_measure_sweeps(self, stream):
        deltas = [50.0, 500.0]
        engine = SweepEngine(cache=SweepCache.build())
        occupancy_method(
            stream, deltas=deltas, measures=("classical",), engine=engine
        )
        s0 = scan_count()
        occupancy_method(stream, deltas=deltas, engine=engine)
        classical_sweep(stream, deltas, engine=engine)
        assert scan_count() - s0 == 0  # both single-measure sweeps pure hits

    def test_measure_keys_isolate_parameters(self, stream):
        engine = SweepEngine(cache=SweepCache.build())
        deltas = [50.0, 500.0]
        coarse = occupancy_method(stream, deltas=deltas, bins=64, engine=engine)
        fine = occupancy_method(stream, deltas=deltas, bins=4096, engine=engine)
        assert coarse.points[0].scores != fine.points[0].scores

    @pytest.mark.parametrize("delta", [1e-07, 86400.0, 1 / 3])
    @pytest.mark.parametrize("origin", [None, 12.5])
    @pytest.mark.parametrize("span", [None, (0.1, 1e6 / 3)])
    def test_measure_keys_keep_their_bytes(self, delta, origin, span):
        """Keys are spliced from memoised pieces, but every byte of the
        payload is the literal ``repr`` of the original key tuple."""
        import hashlib

        from repro.engine.tasks import EVAL_VERSION

        measures = normalize_measures(
            ("occupancy", "classical", "trips:max_samples=64")
        )
        for include_self in (False, True):
            task = AnalysisTask(
                delta=delta, measures=measures, include_self=include_self,
                origin=origin, span=span,
            )
            expected = []
            for measure in measures:
                fields = (
                    EVAL_VERSION, "measure", repr(task.delta), include_self,
                    None if origin is None else repr(float(origin)),
                    measure.name, measure.token(),
                )
                if span is not None:
                    fields += (
                        ("span", (repr(float(span[0])), repr(float(span[1])))),
                    )
                digest = hashlib.sha256(b"fingerprint")
                digest.update(repr(fields).encode())
                expected.append(digest.hexdigest())
            assert task.result_keys("fingerprint") == expected
            assert [
                task.measure_key("fingerprint", m) for m in measures
            ] == expected

    def test_cache_off_run_still_fuses(self, stream):
        deltas = [50.0, 500.0]
        clear_aggregate_cache()
        s0, a0 = scan_count(), aggregation_count()
        occupancy_method(
            stream,
            deltas=deltas,
            measures=("classical", "metrics"),
            engine=SweepEngine(cache=None),
        )
        assert scan_count() - s0 == len(deltas)
        assert aggregation_count() - a0 == len(deltas)


class TestDistanceTotals:
    def test_distance_sums_are_exact_integers(self, series):
        totals = DistanceTotals()
        scan_series(series, totals)
        assert isinstance(totals.dist_sum, int)
        assert isinstance(totals.hops_sum, int)
        assert isinstance(totals.count_sum, int)


class TestPlanMeasureSweep:
    def test_plan_builds_one_fused_task_per_delta(self):
        tasks = plan_measure_sweep([10.0, 20.0], ("occupancy", "classical"))
        assert [t.delta for t in tasks] == [10.0, 20.0]
        assert all(isinstance(t, AnalysisTask) for t in tasks)
        assert all(len(t.measures) == 2 for t in tasks)

    def test_engine_results_are_per_measure_dicts(self, stream):
        tasks = plan_measure_sweep([500.0], ("occupancy", "metrics"))
        with SweepEngine(cache=None) as engine:
            result = engine.run(stream, tasks)[0]
        assert set(result) == {"occupancy", "metrics"}
        assert result["occupancy"].num_trips > 0
        assert result["metrics"].distances is None
