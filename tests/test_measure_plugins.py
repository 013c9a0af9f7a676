"""Tests for the open measure layer: user-defined measure plugins.

The acceptance contract of the plugin system: a measure class defined
*here* (not in ``repro``) and registered at runtime runs through
``occupancy_method(measures=...)``, ``analyze_stream``, and the CLI;
its results are bit-identical on serial/thread/process backends; and a
warm cache re-run performs zero additional scans.  The new built-ins (``trips``, ``components``, ``reachability``)
must match independent brute-force recomputation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from repro.cli import main
from repro.core import analyze_stream, gamma_stability, occupancy_method
from repro.engine import (
    AnalysisTask,
    ClassicalMeasure,
    ComponentsMeasure,
    MeasureSpec,
    OccupancyMeasure,
    ProcessBackend,
    ReachabilityMeasure,
    SweepCache,
    SweepEngine,
    ThreadBackend,
    TripsMeasure,
    available_measures,
    build_measure,
    measure_schema,
    normalize_measures,
    parse_measure_spec,
    parse_measures_arg,
    register_measure,
    resolve_measure,
    unregister_measure,
)
from repro.generators import time_uniform_stream
from repro.graphseries import aggregate
from repro.linkstream import write_tsv
from repro.temporal import (
    ChainCollector,
    CountingCollector,
    TripListCollector,
    bruteforce_component_sizes,
    bruteforce_minimal_trips,
    bruteforce_pair_reachability,
    scan_series,
)
from repro.temporal.reachability import SCAN_COUNTS
from repro.utils.errors import EngineError, ValidationError
from tests.splicing import spliced_scans


class HopHistogramCollector:
    """Counts minimal trips by hop count (a plugin's scan collector)."""

    def __init__(self, max_hops: int) -> None:
        self.counts = np.zeros(max_hops + 1, dtype=np.int64)

    @property
    def empty(self) -> bool:
        return not int(self.counts.sum())

    def record(self, source, dep, targets, arrivals, hops, durations) -> None:
        if targets.size:
            clipped = np.minimum(hops, self.counts.size - 1)
            np.add.at(self.counts, clipped, 1)

    def merge(self, other: "HopHistogramCollector") -> "HopHistogramCollector":
        self.counts += other.counts
        return self


@register_measure
@dataclass(frozen=True)
class HopHistogramMeasure(MeasureSpec):
    """A third-party measure: hop-count histogram of all minimal trips.

    Defined in the test suite, not in ``repro`` — the registry must
    treat it exactly like a built-in.
    """

    max_hops: int = 8

    scans = True
    cache_weight = 1.5

    @property
    def name(self) -> str:
        return "hop_hist"

    def make_collector(self) -> HopHistogramCollector:
        return HopHistogramCollector(self.max_hops)

    def finalize(self, delta, geometry, payload, collector):
        return collector.counts.tolist()


@pytest.fixture(scope="module")
def stream():
    return time_uniform_stream(12, 6, 5000.0, seed=0)


@pytest.fixture(scope="module")
def small_stream():
    return time_uniform_stream(8, 4, 2000.0, seed=1)


@pytest.fixture
def events_file(tmp_path, stream):
    path = tmp_path / "events.tsv"
    write_tsv(stream, path)
    return path


def scan_count() -> int:
    return SCAN_COUNTS["series"]


class TestRegistry:
    def test_builtins_and_plugin_registered(self):
        names = available_measures()
        assert "hop_hist" in names
        assert {"trips", "components", "reachability"} <= set(names)

    def test_reregistering_same_class_is_idempotent(self):
        assert register_measure(HopHistogramMeasure) is HopHistogramMeasure

    def test_duplicate_name_rejected_without_replace(self):
        @dataclass(frozen=True)
        class Impostor(MeasureSpec):
            @property
            def name(self) -> str:
                return "hop_hist"

            def finalize(self, delta, geometry, payload, collector):
                return None

        with pytest.raises(EngineError, match="already registered"):
            register_measure(Impostor)
        # replace=True takes the name over; restore the original after.
        try:
            register_measure(Impostor, replace=True)
            assert isinstance(resolve_measure("hop_hist"), Impostor)
        finally:
            register_measure(HopHistogramMeasure, replace=True)
        assert isinstance(resolve_measure("hop_hist"), HopHistogramMeasure)

    def test_non_measure_class_rejected(self):
        with pytest.raises(EngineError, match="MeasureSpec subclass"):
            register_measure(dict)

    def test_measure_without_defaults_rejected(self):
        @dataclass(frozen=True)
        class NoDefaults(MeasureSpec):
            required: int  # no default: cannot resolve by bare name

            @property
            def name(self) -> str:
                return "no_defaults"

            def finalize(self, delta, geometry, payload, collector):
                return None

        with pytest.raises(EngineError, match="instantiable with no"):
            register_measure(NoDefaults)
        assert "no_defaults" not in available_measures()

    def test_unregister(self):
        @register_measure
        @dataclass(frozen=True)
        class Ephemeral(MeasureSpec):
            @property
            def name(self) -> str:
                return "ephemeral"

            def finalize(self, delta, geometry, payload, collector):
                return None

        assert "ephemeral" in available_measures()
        unregister_measure("ephemeral")
        assert "ephemeral" not in available_measures()
        unregister_measure("ephemeral")  # unknown names are a no-op

    def test_schema_reflects_dataclass_fields(self):
        assert measure_schema("hop_hist") == {"max_hops": int}
        assert measure_schema("trips") == {"max_samples": int, "seed": int}
        assert measure_schema(ComponentsMeasure) == {"include_isolated": bool}

    def test_token_derives_from_parameters(self):
        assert HopHistogramMeasure(max_hops=4).token() == (("max_hops", 4),)
        # Different parameters, different cache identity.
        assert (
            HopHistogramMeasure(max_hops=4).token()
            != HopHistogramMeasure(max_hops=5).token()
        )

    def test_token_is_memoised_and_list_parameters_are_frozen(self):
        # token() is built once per spec instance; a list parameter the
        # caller mutates after first use must not leave it stale, so
        # lists are stored as tuples on construction.
        methods = ["mk", "ks"]
        spec = OccupancyMeasure(methods=methods)
        token = spec.token()
        assert spec.token() is token
        assert spec.methods == ("mk", "ks")
        methods.append("cre")
        assert spec.methods == ("mk", "ks")
        assert spec.token() == OccupancyMeasure(methods=("mk", "ks")).token()
        assert spec == OccupancyMeasure(methods=("mk", "ks"))
        assert hash(spec) == hash(OccupancyMeasure(methods=("mk", "ks")))


class TestSpecParsing:
    def test_bare_and_parameterized_names(self):
        spec = parse_measure_spec("hop_hist:max_hops=5")
        assert spec == HopHistogramMeasure(max_hops=5)
        assert parse_measure_spec("hop_hist") == HopHistogramMeasure()

    def test_params_ride_following_commas(self):
        specs = parse_measures_arg(
            "occupancy,trips:max_samples=64,seed=3,components:include_isolated=true"
        )
        assert [s.name for s in specs] == ["occupancy", "trips", "components"]
        assert specs[1] == TripsMeasure(max_samples=64, seed=3)
        assert specs[2] == ComponentsMeasure(include_isolated=True)

    def test_tuple_parameters_use_plus(self):
        spec = parse_measure_spec("occupancy:methods=mk+std,bins=128")
        assert spec.methods == ("mk", "std")
        assert spec.bins == 128

    def test_unknown_measure_lists_available(self):
        with pytest.raises(EngineError, match="available"):
            parse_measures_arg("occupancy,bogus")

    def test_malformed_parameter_syntax(self):
        with pytest.raises(EngineError, match="key=value"):
            parse_measures_arg("trips:max_samples")
        with pytest.raises(EngineError, match="before any measure"):
            parse_measures_arg("max_samples=4,trips")

    def test_unknown_parameter_lists_schema(self):
        with pytest.raises(EngineError, match="max_samples=<int>"):
            parse_measures_arg("trips:bogus=1")

    def test_bad_value_types(self):
        with pytest.raises(EngineError, match="max_samples"):
            parse_measures_arg("trips:max_samples=lots")
        with pytest.raises(EngineError, match="boolean"):
            parse_measures_arg("components:include_isolated=maybe")

    def test_resolve_and_normalize_accept_spec_strings(self):
        assert resolve_measure("trips:max_samples=9") == TripsMeasure(max_samples=9)
        measures = normalize_measures(("occupancy", "trips:seed=2"))
        assert measures[1] == TripsMeasure(seed=2)

    def test_build_measure_validates(self):
        assert build_measure("hop_hist", {"max_hops": "3"}) == HopHistogramMeasure(3)
        with pytest.raises(EngineError, match="unknown measure"):
            build_measure("nope")


class TestPluginEndToEnd:
    """Acceptance: a runtime-registered measure through every entry point."""

    def test_through_occupancy_method(self, stream):
        deltas = [50.0, 500.0, 5000.0]
        result = occupancy_method(
            stream,
            deltas=deltas,
            measures=("hop_hist",),
            engine=SweepEngine(cache=None),
        )
        histograms = result.companions["hop_hist"]
        assert len(histograms) == len(result.points)
        for point, histogram in zip(result.points, histograms):
            assert sum(histogram) == point.num_trips

    def test_through_analyze_stream(self, stream):
        report = analyze_stream(
            stream,
            validate=False,
            measures=("occupancy", "hop_hist:max_hops=6"),
            deltas=[50.0, 500.0],
            engine=SweepEngine(cache=None),
        )
        assert "hop_hist" in report.companions
        assert len(report.companions["hop_hist"]) == 2
        assert all(len(h) == 7 for h in report.companions["hop_hist"])

    def test_through_cli(self, events_file, capsys):
        code = main(
            [
                "analyze",
                str(events_file),
                "--num-deltas",
                "6",
                "--measures",
                "occupancy,hop_hist:max_hops=6",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "hop_hist at gamma:" in out

    @pytest.mark.parametrize(
        "backend_factory",
        [
            lambda: None,
            lambda: ThreadBackend(jobs=4),
            lambda: ProcessBackend(jobs=2),
        ],
        ids=["serial", "thread", "process"],
    )
    def test_bit_identical_across_backends(self, stream, backend_factory):
        deltas = [50.0, 500.0, 5000.0]
        reference = occupancy_method(
            stream,
            deltas=deltas,
            measures=(HopHistogramMeasure(), TripsMeasure(max_samples=40)),
            engine=SweepEngine(cache=None),
        )
        with SweepEngine(backend_factory(), cache=None) as engine:
            run = occupancy_method(
                stream,
                deltas=deltas,
                measures=(HopHistogramMeasure(), TripsMeasure(max_samples=40)),
                engine=engine,
            )
        assert run.gamma == reference.gamma
        assert run.companions["hop_hist"] == reference.companions["hop_hist"]
        for sample_a, sample_b in zip(
            run.companions["trips"], reference.companions["trips"]
        ):
            assert sample_a.num_trips == sample_b.num_trips
            assert sample_a.hops_total == sample_b.hops_total
            assert sample_a.duration_total == sample_b.duration_total
            for field in ("u", "v", "dep", "arr", "hops", "durations"):
                assert (
                    getattr(sample_a.trips, field).tolist()
                    == getattr(sample_b.trips, field).tolist()
                )

    def test_warm_cache_rerun_scans_nothing(self, stream):
        deltas = [50.0, 500.0]
        engine = SweepEngine(cache=SweepCache.build())
        first = occupancy_method(
            stream, deltas=deltas, measures=("hop_hist",), engine=engine
        )
        before = scan_count()
        second = occupancy_method(
            stream, deltas=deltas, measures=("hop_hist",), engine=engine
        )
        assert scan_count() - before == 0
        assert second.companions["hop_hist"] == first.companions["hop_hist"]

    def test_plugin_parameters_isolate_cache_entries(self, stream):
        deltas = [50.0, 500.0]
        engine = SweepEngine(cache=SweepCache.build())
        wide = occupancy_method(
            stream,
            deltas=deltas,
            measures=(HopHistogramMeasure(max_hops=8),),
            engine=engine,
        )
        narrow = occupancy_method(
            stream,
            deltas=deltas,
            measures=(HopHistogramMeasure(max_hops=2),),
            engine=engine,
        )
        assert all(len(h) == 9 for h in wide.companions["hop_hist"])
        assert all(len(h) == 3 for h in narrow.companions["hop_hist"])


class TestTripsMeasureBruteforce:
    def test_uncapped_sample_matches_bruteforce(self, small_stream):
        delta = 250.0
        series = aggregate(small_stream, delta)
        oracle = bruteforce_minimal_trips(series)
        result = AnalysisTask(
            delta=delta, measures=(TripsMeasure(max_samples=10**6),)
        ).evaluate(small_stream)["trips"]
        assert result.num_trips == len(oracle)
        assert result.hops_total == int(oracle.hops.sum())
        assert result.duration_total == oracle.durations.sum().item()
        assert sorted(result.trips.as_tuples()) == sorted(oracle.as_tuples())

    def test_capped_sample_is_subset_with_exact_totals(self, small_stream):
        delta = 250.0
        series = aggregate(small_stream, delta)
        oracle = set(bruteforce_minimal_trips(series).as_tuples())
        result = AnalysisTask(
            delta=delta, measures=(TripsMeasure(max_samples=7),)
        ).evaluate(small_stream)["trips"]
        assert len(result.trips) == 7
        assert result.num_trips == len(oracle)
        assert set(result.trips.as_tuples()) <= oracle

    def test_seed_changes_the_sample_not_the_totals(self, small_stream):
        results = [
            AnalysisTask(
                delta=250.0, measures=(TripsMeasure(max_samples=5, seed=seed),)
            ).evaluate(small_stream)["trips"]
            for seed in (0, 1)
        ]
        assert results[0].num_trips == results[1].num_trips
        assert results[0].hops_total == results[1].hops_total
        tuples = [set(r.trips.as_tuples()) for r in results]
        assert tuples[0] != tuples[1]


class TestComponentsMeasureBruteforce:
    @pytest.mark.parametrize("include_isolated", [False, True])
    def test_histogram_matches_bfs_oracle(self, small_stream, include_isolated):
        delta = 250.0
        series = aggregate(small_stream, delta)
        expected = np.zeros(series.num_nodes + 1, dtype=np.int64)
        for __, u, v in series.edge_groups():
            sizes = bruteforce_component_sizes(series.num_nodes, u, v)
            for size in sizes:
                expected[size] += 1
            if include_isolated:
                touched = np.union1d(u, v).size
                expected[1] += series.num_nodes - touched
        result = AnalysisTask(
            delta=delta,
            measures=(ComponentsMeasure(include_isolated=include_isolated),),
        ).evaluate(small_stream)["components"]
        assert result.size_counts.tolist() == expected.tolist()
        assert result.num_components == int(expected.sum())
        nonzero = np.flatnonzero(expected)
        assert result.largest_size == int(nonzero[-1])


class TestReachabilityMeasureBruteforce:
    def test_matrices_match_forward_scan_oracle(self, small_stream):
        delta = 250.0
        series = aggregate(small_stream, delta)
        reach, dist, hops = bruteforce_pair_reachability(series)
        result = AnalysisTask(
            delta=delta, measures=(ReachabilityMeasure(),)
        ).evaluate(small_stream)["reachability"]
        assert result.pair_reachable_steps.tolist() == reach.tolist()
        assert result.pair_distance_sum.tolist() == dist.tolist()
        assert result.pair_hops_sum.tolist() == hops.tolist()

    def test_global_stats_match_classical_distances(self, small_stream):
        results = AnalysisTask(
            delta=250.0, measures=(ReachabilityMeasure(), ClassicalMeasure())
        ).evaluate(small_stream)
        assert (
            results["reachability"].distance_stats()
            == results["classical"].distances
        )


class TestStabilityCompanions:
    def test_companions_ride_subsample_sweeps(self, stream):
        result = gamma_stability(
            stream,
            num_resamples=3,
            num_deltas=6,
            measures=("metrics",),
            engine=SweepEngine(cache=SweepCache.build()),
        )
        assert set(result.companions_full) == {"metrics"}
        assert set(result.companions_at_gamma) == {"metrics"}
        assert len(result.companions_at_gamma["metrics"]) == len(result.gammas)
        for point in result.companions_at_gamma["metrics"]:
            assert point.distances is None
            assert point.snapshot.mean_density > 0

    def test_no_measures_means_no_companions(self, stream):
        result = gamma_stability(
            stream,
            num_resamples=2,
            num_deltas=5,
            engine=SweepEngine(cache=SweepCache.build()),
        )
        assert result.companions_full == {}
        assert result.companions_at_gamma == {}


class TestAnalyzeStreamMeasureSet:
    def test_occupancy_entry_must_stay_parameter_free(self, stream):
        with pytest.raises(ValidationError, match="bins"):
            analyze_stream(
                stream, validate=False, measures=("occupancy:bins=64",)
            )

    def test_conflicting_duplicate_specs_rejected(self, stream):
        # Same name, different parameters: silently keeping either spec
        # would lose the other — must be rejected, like the engine layer.
        with pytest.raises(ValidationError, match="conflicting"):
            analyze_stream(
                stream,
                validate=False,
                measures=(
                    "occupancy",
                    "trips:max_samples=8",
                    "trips:max_samples=1024",
                ),
            )

    def test_duplicate_companions_dedupe(self, stream):
        report = analyze_stream(
            stream,
            validate=False,
            measures=("occupancy", "metrics", "metrics"),
            deltas=[50.0, 500.0],
            engine=SweepEngine(cache=None),
        )
        assert report.metrics is not None


class TestChainCollectorParity:
    def test_merge_and_empty_under_window_spans(self, small_stream):
        series = aggregate(small_stream, 250.0)

        def chain():
            return ChainCollector(TripListCollector(), CountingCollector())

        full = chain()
        scan_series(series, full)
        assert chain().empty
        for merged in spliced_scans(series, chain):
            assert not merged.empty
            trips_full = sorted(full.collectors[0].trips().as_tuples())
            trips_merged = sorted(merged.collectors[0].trips().as_tuples())
            assert trips_merged == trips_full
            assert merged.collectors[1].num_trips == full.collectors[1].num_trips
            assert merged.collectors[1].max_hops == full.collectors[1].max_hops

    def test_merge_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="chains of"):
            ChainCollector(CountingCollector()).merge(ChainCollector())
        with pytest.raises(ValidationError, match="ChainCollector"):
            ChainCollector().merge(CountingCollector())


class TestCappedTripListCollector:
    def test_cap_validated(self):
        with pytest.raises(ValidationError):
            TripListCollector(max_trips=0)

    def test_mismatched_caps_refuse_to_merge(self):
        with pytest.raises(ValidationError, match="caps or seeds"):
            TripListCollector(max_trips=4).merge(TripListCollector(max_trips=5))

    def test_span_merge_equals_unspliced_capped_collection(self, small_stream):
        series = aggregate(small_stream, 250.0)
        full = TripListCollector(max_trips=9, seed=3)
        scan_series(series, full)
        for merged in spliced_scans(
            series, lambda: TripListCollector(max_trips=9, seed=3)
        ):
            assert merged.num_recorded == full.num_recorded
            assert merged.hops_total == full.hops_total
            assert sorted(merged.trips().as_tuples()) == sorted(
                full.trips().as_tuples()
            )


class TestCLIErrorPaths:
    def test_unknown_measure_lists_available(self, events_file, capsys):
        code = main(
            ["analyze", str(events_file), "--measures", "occupancy,bogus"]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "unknown measure" in err
        assert "occupancy" in err  # the available list is spelled out

    def test_malformed_parameter_fails_cleanly(self, events_file, capsys):
        code = main(
            [
                "analyze",
                str(events_file),
                "--measures",
                "occupancy,trips:max_samples",
            ]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "key=value" in err

    def test_bad_parameter_value_fails_cleanly(self, events_file, capsys):
        code = main(
            [
                "analyze",
                str(events_file),
                "--measures",
                "occupancy,trips:max_samples=lots",
            ]
        )
        assert code == 2
        assert "max_samples" in capsys.readouterr().err

    def test_occupancy_still_required(self, events_file, capsys):
        code = main(["analyze", str(events_file), "--measures", "trips"])
        assert code == 2
        assert "occupancy" in capsys.readouterr().err


class TestEntryPointDiscovery:
    """Measures advertised by installed packages (the ``repro.measures``
    entry-point group) register at first registry use."""

    @staticmethod
    def _fake_point(name, target):
        class Point:
            def load(self):
                if isinstance(target, Exception):
                    raise target
                return target

        point = Point()
        point.name = name
        return point

    @pytest.fixture(autouse=True)
    def _restore_registry(self):
        from repro.engine import measures as measures_mod

        yield
        # Re-scan the real (empty) environment so later tests see no
        # leftover fakes or recorded failures.
        for name in ("ep_spark", "ep_hooked"):
            try:
                unregister_measure(name)
            except EngineError:
                pass
        measures_mod.load_entry_point_measures(reload=True)

    def test_spec_entry_point_registers(self, monkeypatch):
        from repro.engine import measures as measures_mod

        @dataclass(frozen=True)
        class SparkMeasure(MeasureSpec):
            @property
            def name(self):
                return "ep_spark"

            def finalize(self, delta, geometry, payload, collector):
                return None

        monkeypatch.setattr(
            measures_mod,
            "_entry_points",
            lambda: [self._fake_point("spark", SparkMeasure)],
        )
        loaded = measures_mod.load_entry_point_measures(reload=True)
        assert loaded == ["spark"]
        assert "ep_spark" in available_measures()
        assert not measures_mod.ENTRY_POINT_FAILURES

    def test_callable_entry_point_runs_as_hook(self, monkeypatch):
        from repro.engine import measures as measures_mod

        @dataclass(frozen=True)
        class HookedMeasure(MeasureSpec):
            @property
            def name(self):
                return "ep_hooked"

            def finalize(self, delta, geometry, payload, collector):
                return None

        def hook():
            register_measure(HookedMeasure)

        monkeypatch.setattr(
            measures_mod,
            "_entry_points",
            lambda: [self._fake_point("hooked", hook)],
        )
        measures_mod.load_entry_point_measures(reload=True)
        assert "ep_hooked" in available_measures()

    def test_broken_entry_point_is_recorded_not_fatal(self, monkeypatch):
        from repro.engine import measures as measures_mod

        monkeypatch.setattr(
            measures_mod,
            "_entry_points",
            lambda: [
                self._fake_point("broken", ImportError("no module named spam")),
            ],
        )
        with pytest.warns(RuntimeWarning, match="broken measure entry point"):
            loaded = measures_mod.load_entry_point_measures(reload=True)
        assert loaded == []
        assert measures_mod.ENTRY_POINT_FAILURES == [
            ("broken", "no module named spam")
        ]
        # The registry still works.
        assert "occupancy" in available_measures()

    def test_non_measure_target_is_a_failure(self, monkeypatch):
        from repro.engine import measures as measures_mod

        monkeypatch.setattr(
            measures_mod,
            "_entry_points",
            lambda: [self._fake_point("junk", object())],
        )
        with pytest.warns(RuntimeWarning):
            measures_mod.load_entry_point_measures(reload=True)
        assert measures_mod.ENTRY_POINT_FAILURES[0][0] == "junk"

    def test_scan_runs_once_unless_reloaded(self, monkeypatch):
        from repro.engine import measures as measures_mod

        calls = []

        def spy():
            calls.append(1)
            return []

        monkeypatch.setattr(measures_mod, "_entry_points", spy)
        measures_mod.load_entry_point_measures(reload=True)
        measures_mod.load_entry_point_measures()
        available_measures()  # registry uses trigger the lazy scan
        assert len(calls) == 1


class TestDescribeMeasures:
    def test_records_cover_registry(self):
        from repro.engine import describe_measures

        records = describe_measures()
        names = [record["name"] for record in records]
        assert names == sorted(names)
        assert "occupancy" in names
        assert "hop_hist" in names  # plugins introspect like built-ins

    def test_record_shape(self):
        from repro.engine import describe_measures

        record = next(
            r for r in describe_measures() if r["name"] == "trips"
        )
        assert record["scans"] is True
        assert record["summary"]  # first docstring line
        params = {p["name"]: p for p in record["params"]}
        assert "max_samples" in params
        assert params["max_samples"]["type"] == "int"
