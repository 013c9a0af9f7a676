"""Storage backends and the dataset catalog: bit-identity out of core.

Covers the :class:`StreamStorage` contract for the in-memory
:class:`ColumnarStorage` default and the on-disk
:class:`PartitionedStorage`, the ``repro.datasets.catalog`` layer
(ingest/open/list/info/reindex and the ``repro datasets`` CLI), the
engine's span plumbing (``AnalysisTask.span`` slices through the
backend; span-less cache keys stay byte-identical), and the headline
property: ingest → partitioned catalog → analyze is bit-identical to
the in-memory stream on both scan kernels, while ``STORAGE_COUNTS``
proves a task whose windows span k partitions opens exactly k files.
"""

import os
import pickle
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings
from strategies import link_streams

from repro.core import analyze_stream
from repro.datasets import (
    dataset_info,
    ingest_file,
    ingest_stream,
    list_datasets,
    open_dataset,
    reindex_dataset,
)
from repro.datasets.catalog import catalog_root
from repro.engine import SweepEngine, plan_measure_sweep
from repro.engine.tasks import AnalysisTask
from repro.linkstream import LinkStream, write_tsv
from repro.reporting import render_analysis
from repro.storage import (
    STORAGE_COUNTS,
    ColumnarStorage,
    PartitionedStorage,
)
from repro.storage.partitioned import (
    chain_boundaries,
    parse_partition_filename,
    partition_filename,
    plan_partition_cuts,
)
from repro.utils.errors import EngineError, StorageError


def sample_stream(num_events: int = 24, *, directed: bool = True) -> LinkStream:
    """Small deterministic stream with ties and a few repeated pairs."""
    u = [i % 5 for i in range(num_events)]
    v = [(i + 1 + i // 7) % 5 for i in range(num_events)]
    t = [float(i // 2) for i in range(num_events)]  # paired timestamps
    u = [a if a != b else (a + 1) % 5 for a, b in zip(u, v)]
    return LinkStream(u, v, t, directed=directed, num_nodes=5)


def point_key(point) -> tuple:
    """Flatten a SweepPoint for bit-identity comparison (its occupancy
    distribution defines no ``__eq__``)."""
    return (
        point.delta,
        point.num_windows,
        point.num_nonempty_windows,
        point.num_trips,
        tuple(sorted(point.scores.items())),
    )


def snapshot_counts() -> dict:
    return dict(STORAGE_COUNTS)


def counts_delta(before: dict) -> dict:
    return {key: STORAGE_COUNTS[key] - before[key] for key in before}


class TestColumnarStorage:
    def test_linkstream_delegates_to_columnar_backend(self):
        stream = sample_stream()
        assert isinstance(stream.storage, ColumnarStorage)
        u, v, t = stream.storage.columns()
        assert u is stream.sources and v is stream.targets
        assert not u.flags.writeable
        assert stream.storage.num_events == stream.num_events
        assert stream.storage.time_range() == (stream.t_min, stream.t_max)
        assert stream.storage.num_timestamps() == len(stream.distinct_timestamps())

    def test_slice_time_matches_mask_selection(self):
        stream = sample_stream()
        storage = stream.storage
        sliced = storage.slice_time(2.0, 7.0)
        t = stream.timestamps
        mask = (t >= 2.0) & (t < 7.0)
        np.testing.assert_array_equal(sliced.timestamps, t[mask])
        np.testing.assert_array_equal(sliced.sources, stream.sources[mask])
        closed = storage.slice_time(2.0, 7.0, half_open=False)
        mask_closed = (t >= 2.0) & (t <= 7.0)
        np.testing.assert_array_equal(closed.timestamps, t[mask_closed])

    def test_slice_nodes_keeps_both_endpoint_events(self):
        stream = sample_stream()
        kept = stream.storage.slice_nodes([0, 1, 2])
        assert kept.num_events
        assert set(np.unique(kept.sources)) <= {0, 1, 2}
        assert set(np.unique(kept.targets)) <= {0, 1, 2}

    def test_to_events_round_trips(self):
        stream = sample_stream(num_events=8)
        events = list(stream.storage.to_events())
        assert len(events) == 8
        rebuilt = ColumnarStorage.from_events(
            np.array([e[0] for e in events]),
            np.array([e[1] for e in events]),
            np.array([e[2] for e in events]),
        )
        np.testing.assert_array_equal(
            rebuilt.timestamps, stream.timestamps
        )

    def test_empty_storage_metadata(self):
        empty = ColumnarStorage.from_events(
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
        )
        assert empty.num_events == 0
        assert empty.time_range() is None
        assert empty.num_timestamps() == 0
        assert empty.fingerprint_chain() == ()

    def test_unknown_options_rejected(self):
        with pytest.raises(StorageError, match="unknown ColumnarStorage"):
            ColumnarStorage.from_events(
                np.zeros(1, dtype=np.int64),
                np.ones(1, dtype=np.int64),
                np.zeros(1, dtype=np.float64),
                bogus=True,
            )


class TestPartitionPlanning:
    def test_cuts_cover_and_never_split_timestamp_runs(self):
        t = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 2.0, 3.0, 3.0, 3.0, 4.0])
        cuts = plan_partition_cuts(t, 2)
        assert cuts[0][0] == 0 and cuts[-1][1] == t.size
        for (_, hi), (lo, _) in zip(cuts, cuts[1:]):
            assert hi == lo
        for lo, hi in cuts:
            if hi < t.size:
                assert t[hi - 1] != t[hi]

    def test_chain_boundaries_cap(self):
        cuts = [(i * 10, (i + 1) * 10) for i in range(40)]
        picked = chain_boundaries(cuts, limit=16)
        assert len(picked) <= 16
        assert picked == sorted(picked)
        interior = {hi for _, hi in cuts[:-1]}
        assert set(picked) <= interior

    def test_filename_round_trip_negative_times(self):
        name = partition_filename(3, -2.5, 7.0)
        assert "/" not in name and "-2.5" not in name.split("_", 1)[1]
        assert parse_partition_filename(name, "f") == (3, -2.5, 7.0)
        with pytest.raises(StorageError, match="malformed"):
            parse_partition_filename("part-xx_0_1.npz", "f")


class TestPartitionedStorage:
    def make_dataset(self, tmp_path, stream, partition_events=4):
        return ingest_stream(
            stream,
            "unit",
            root=str(tmp_path),
            partition_events=partition_events,
        )

    def test_open_answers_metadata_without_loading(self, tmp_path):
        stream = sample_stream()
        self.make_dataset(tmp_path, stream)
        before = snapshot_counts()
        reopened = open_dataset("unit", root=str(tmp_path))
        assert reopened.num_events == stream.num_events
        assert reopened.t_min == stream.t_min
        assert reopened.t_max == stream.t_max
        assert reopened.storage.num_timestamps() == len(
            stream.distinct_timestamps()
        )
        assert reopened.fingerprint() == stream.fingerprint()
        assert counts_delta(before)["partitions_opened"] == 0

    def test_round_trip_is_equal_and_bit_identical(self, tmp_path):
        stream = sample_stream()
        self.make_dataset(tmp_path, stream)
        reopened = open_dataset("unit", root=str(tmp_path))
        assert reopened == stream
        np.testing.assert_array_equal(reopened.sources, stream.sources)
        np.testing.assert_array_equal(reopened.targets, stream.targets)
        np.testing.assert_array_equal(reopened.timestamps, stream.timestamps)
        assert reopened.timestamps.dtype == stream.timestamps.dtype

    def test_slice_time_opens_only_overlapping_partitions(self, tmp_path):
        stream = sample_stream()  # t = 0..11, 4 events per partition
        manifest = self.make_dataset(tmp_path, stream, partition_events=4)
        total = len(manifest["partitions"])
        assert total >= 4
        entries = manifest["partitions"]
        # A span covering exactly the middle two partitions.
        start = entries[1]["t_min"]
        end = entries[2]["t_max"] + 0.5
        expected = sum(
            1
            for e in entries
            if e["t_max"] >= start and e["t_min"] < end
        )
        assert expected == 2
        reopened = open_dataset("unit", root=str(tmp_path))
        before = snapshot_counts()
        sliced = reopened.slice_time(start, end)
        delta = counts_delta(before)
        assert delta["partitions_opened"] == 0  # pruning reads no bytes
        assert delta["partitions_pruned"] == total - expected
        assert sliced == stream.restrict_time(start, end)
        assert counts_delta(before)["partitions_opened"] == expected

    def test_restrict_time_goes_through_storage_pruning(self, tmp_path):
        stream = sample_stream()
        self.make_dataset(tmp_path, stream, partition_events=4)
        reopened = open_dataset("unit", root=str(tmp_path))
        before = snapshot_counts()
        restricted = reopened.restrict_time(0.0, 2.0)
        assert counts_delta(before)["partitions_pruned"] > 0
        assert restricted == stream.restrict_time(0.0, 2.0)

    def test_missing_partition_error_names_file(self, tmp_path):
        stream = sample_stream()
        manifest = self.make_dataset(tmp_path, stream)
        victim = manifest["partitions"][1]["file"]
        os.unlink(tmp_path / "unit" / victim)
        reopened = open_dataset("unit", root=str(tmp_path))
        with pytest.raises(StorageError, match=victim.replace(".", r"\.")) as err:
            reopened.sources
        assert "missing partition file" in str(err.value)

    def test_corrupt_partition_error_names_file(self, tmp_path):
        stream = sample_stream()
        manifest = self.make_dataset(tmp_path, stream)
        victim = manifest["partitions"][0]["file"]
        (tmp_path / "unit" / victim).write_bytes(b"not a zip archive")
        reopened = open_dataset("unit", root=str(tmp_path))
        with pytest.raises(StorageError, match="corrupt partition file") as err:
            reopened.sources
        assert victim in str(err.value)

    def test_verify_catches_silent_bit_flip(self, tmp_path):
        stream = sample_stream()
        manifest = self.make_dataset(tmp_path, stream)
        victim = tmp_path / "unit" / manifest["partitions"][0]["file"]
        with np.load(victim) as archive:
            u, v, t = archive["u"].copy(), archive["v"], archive["t"]
        u[0] += 1
        np.savez(victim, u=u, v=v, t=t)
        lax = open_dataset("unit", root=str(tmp_path))
        lax.sources  # loads fine without verification
        strict = open_dataset("unit", root=str(tmp_path), verify=True)
        with pytest.raises(StorageError, match="content hash mismatch"):
            strict.sources

    def test_manifest_format_guard(self, tmp_path):
        stream = sample_stream()
        self.make_dataset(tmp_path, stream)
        manifest_path = tmp_path / "unit" / "manifest.json"
        manifest_path.write_text('{"format": "other-v9"}')
        with pytest.raises(StorageError, match="unsupported manifest format"):
            open_dataset("unit", root=str(tmp_path))

    def test_fingerprint_chain_matches_prefix_fingerprints(self, tmp_path):
        stream = sample_stream()
        self.make_dataset(tmp_path, stream, partition_events=4)
        reopened = open_dataset("unit", root=str(tmp_path))
        chain = reopened.fingerprint_chain
        assert chain  # interior partition cuts recorded
        for count, fingerprint in chain:
            assert fingerprint == stream.prefix_fingerprint(count)

    def test_pickle_ships_handle_not_bytes(self, tmp_path):
        stream = sample_stream()
        self.make_dataset(tmp_path, stream)
        reopened = open_dataset("unit", root=str(tmp_path))
        reopened.sources  # materialize the cache, then drop it on pickle
        clone = pickle.loads(pickle.dumps(reopened))
        assert clone == stream
        sliced = reopened.slice_time(2.0, 5.0)
        clone_sliced = pickle.loads(pickle.dumps(sliced))
        assert clone_sliced == stream.restrict_time(2.0, 5.0)

    def test_partition_events_env_override(self, tmp_path, monkeypatch):
        stream = sample_stream()
        monkeypatch.setenv("REPRO_PARTITION_EVENTS", "6")
        manifest = ingest_stream(stream, "env", root=str(tmp_path))
        assert manifest["partition_events"] == 6
        assert len(manifest["partitions"]) == stream.num_events // 6
        monkeypatch.setenv("REPRO_PARTITION_EVENTS", "zero")
        with pytest.raises(StorageError, match="REPRO_PARTITION_EVENTS"):
            ingest_stream(stream, "bad", root=str(tmp_path))


class TestCatalog:
    def test_root_resolution(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_DATASETS_DIR", raising=False)
        with pytest.raises(StorageError, match="no catalog root configured"):
            catalog_root()
        monkeypatch.setenv("REPRO_DATASETS_DIR", str(tmp_path))
        assert catalog_root() == str(tmp_path)
        assert catalog_root("/elsewhere") == "/elsewhere"

    def test_ingest_refuses_overwrite_without_force(self, tmp_path):
        stream = sample_stream()
        ingest_stream(stream, "dup", root=str(tmp_path))
        with pytest.raises(StorageError, match="already exists"):
            ingest_stream(stream, "dup", root=str(tmp_path))
        ingest_stream(stream, "dup", root=str(tmp_path), overwrite=True)

    def test_invalid_dataset_name_rejected(self, tmp_path):
        with pytest.raises(StorageError, match="invalid dataset name"):
            ingest_stream(sample_stream(), "../escape", root=str(tmp_path))

    def test_list_and_info(self, tmp_path):
        assert list_datasets(str(tmp_path)) == []
        ingest_stream(sample_stream(), "alpha", root=str(tmp_path))
        ingest_stream(sample_stream(12), "beta", root=str(tmp_path))
        names = [entry["name"] for entry in list_datasets(str(tmp_path))]
        assert names == ["alpha", "beta"]
        info = dataset_info("beta", root=str(tmp_path))
        assert info["events"] == 12
        assert info["nodes"] == 5
        assert info["fingerprint"] == sample_stream(12).fingerprint()

    def test_ingest_file_matches_whole_file_reader(self, tmp_path):
        stream = sample_stream()
        events = tmp_path / "events.tsv"
        write_tsv(stream, events)
        ingest_file(
            events, "fromfile", root=str(tmp_path / "cat"), chunk_events=5
        )
        reopened = open_dataset("fromfile", root=str(tmp_path / "cat"))
        # TSV timestamps parse to float64 on both paths.
        from repro.linkstream import read_tsv

        assert reopened == read_tsv(events)
        assert reopened.fingerprint() == read_tsv(events).fingerprint()

    def test_labeled_stream_round_trips(self, tmp_path):
        stream = LinkStream.from_triples(
            [("ana", "bob", 1.0), ("bob", "cal", 2.0), ("cal", "ana", 3.0)]
        )
        ingest_stream(stream, "named", root=str(tmp_path))
        reopened = open_dataset("named", root=str(tmp_path))
        assert reopened == stream
        assert reopened.labels == stream.labels

    def test_reindex_reproduces_manifest(self, tmp_path):
        stream = sample_stream()
        original = ingest_stream(
            stream, "rebuild", root=str(tmp_path), partition_events=4
        )
        rebuilt = reindex_dataset("rebuild", root=str(tmp_path))
        assert rebuilt["fingerprint"] == original["fingerprint"]
        assert rebuilt["manifest_digest"] == original["manifest_digest"]
        assert rebuilt["chain"] == original["chain"]  # content unchanged
        assert open_dataset("rebuild", root=str(tmp_path)) == stream

    def test_reindex_recovers_from_lost_manifest(self, tmp_path):
        stream = sample_stream()
        original = ingest_stream(
            stream, "lost", root=str(tmp_path), partition_events=4
        )
        os.unlink(tmp_path / "lost" / "manifest.json")
        rebuilt = reindex_dataset("lost", root=str(tmp_path))
        assert rebuilt["fingerprint"] == original["fingerprint"]
        assert rebuilt["chain"] == []  # no prior manifest to vouch for it
        assert open_dataset("lost", root=str(tmp_path)) == stream

    def test_reindex_names_corrupt_file(self, tmp_path):
        manifest = ingest_stream(
            sample_stream(), "hurt", root=str(tmp_path), partition_events=4
        )
        victim = manifest["partitions"][2]["file"]
        (tmp_path / "hurt" / victim).write_bytes(b"garbage")
        with pytest.raises(StorageError, match="corrupt partition file") as err:
            reindex_dataset("hurt", root=str(tmp_path))
        assert victim in str(err.value)


class TestDatasetsCli:
    @pytest.fixture()
    def events_file(self, tmp_path):
        path = tmp_path / "toy.tsv"
        write_tsv(sample_stream(), path)
        return path

    def run(self, argv):
        from repro.cli import main

        return main(argv)

    def test_bare_datasets_still_lists_replicas(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_DATASETS_DIR", raising=False)
        assert self.run(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "irvine" in out
        assert "no dataset catalog configured" in out

    def test_ingest_list_info_index(self, tmp_path, events_file, capsys):
        root = str(tmp_path / "cat")
        assert (
            self.run(
                [
                    "datasets",
                    "ingest",
                    "toy",
                    "--events",
                    str(events_file),
                    "--root",
                    root,
                    "--partition-events",
                    "4",
                ]
            )
            == 0
        )
        assert "ingested" in capsys.readouterr().out
        assert self.run(["datasets", "list", "--root", root]) == 0
        assert "toy" in capsys.readouterr().out
        assert self.run(["datasets", "info", "toy", "--root", root, "--verify"]) == 0
        out = capsys.readouterr().out
        assert "fingerprint" in out and "partitions ok" in out
        assert self.run(["datasets", "index", "toy", "--root", root]) == 0
        assert "reindexed" in capsys.readouterr().out

    def test_env_var_supplies_root(self, tmp_path, events_file, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_DATASETS_DIR", str(tmp_path / "cat"))
        assert (
            self.run(["datasets", "ingest", "toy", "--events", str(events_file)])
            == 0
        )
        capsys.readouterr()
        assert self.run(["datasets", "list"]) == 0
        assert "toy" in capsys.readouterr().out

    def test_usage_errors_exit_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_DATASETS_DIR", raising=False)
        assert self.run(["datasets", "info", "toy"]) == 2  # no root
        assert self.run(["datasets", "ingest", "toy"]) == 2  # no --events
        assert (
            self.run(["datasets", "info", "ghost", "--root", str(tmp_path)]) == 2
        )
        err = capsys.readouterr().err
        assert "manifest" in err


class TestSpanTasks:
    MEASURES = ("occupancy",)

    def test_span_none_leaves_tokens_byte_identical(self):
        from repro.engine import normalize_measures

        specs = normalize_measures(self.MEASURES)
        plain = AnalysisTask(delta=2.0, measures=specs)
        spanned = AnalysisTask(delta=2.0, measures=specs, span=(0.0, 4.0))
        assert len(plain._token()) == 3  # the historical shape
        assert plain._token() == AnalysisTask(delta=2.0, measures=specs, span=None)._token()
        assert spanned._token() != plain._token()
        assert ("span", ("0.0", "4.0")) in spanned._token()
        stream = sample_stream()
        key_plain = plain.measure_key(stream.fingerprint(), specs[0])
        key_spanned = spanned.measure_key(stream.fingerprint(), specs[0])
        assert key_plain != key_spanned

    def test_span_validation(self):
        from repro.engine import normalize_measures

        specs = normalize_measures(self.MEASURES)
        for bad in ((3.0, 3.0), (5.0, 1.0), (0.0, float("inf"))):
            with pytest.raises(EngineError, match="span"):
                AnalysisTask(delta=1.0, measures=specs, span=bad)

    def test_narrow_propagates_span(self):
        from repro.engine import normalize_measures

        specs = normalize_measures(self.MEASURES)
        task = AnalysisTask(delta=2.0, measures=specs, span=(0.0, 6.0))
        assert task.narrow([0]).span == (0.0, 6.0)

    def test_spanned_evaluation_equals_restricted_stream(self):
        stream = sample_stream()
        tasks_spanned = plan_measure_sweep(
            [2.0, 3.0], self.MEASURES, span=(0.0, 6.0)
        )
        tasks_plain = plan_measure_sweep([2.0, 3.0], self.MEASURES)
        restricted = stream.restrict_time(0.0, 6.0)
        with SweepEngine("serial") as engine:
            spanned = engine.run(stream, tasks_spanned)
            direct = engine.run(restricted, tasks_plain)
        for a, b in zip(spanned, direct):
            assert point_key(a["occupancy"]) == point_key(b["occupancy"])

    def test_spanned_task_opens_exactly_k_partitions(self, tmp_path):
        stream = sample_stream()
        manifest = ingest_stream(
            stream, "sweep", root=str(tmp_path), partition_events=4
        )
        entries = manifest["partitions"]
        total = len(entries)
        span = (entries[1]["t_min"], entries[1]["t_max"] + 0.25)
        k = sum(
            1
            for e in entries
            if e["t_max"] >= span[0] and e["t_min"] < span[1]
        )
        assert 0 < k < total
        reopened = open_dataset("sweep", root=str(tmp_path))
        tasks = plan_measure_sweep([1.0], self.MEASURES, span=span)
        before = snapshot_counts()
        with SweepEngine("serial") as engine:
            [result] = engine.run(reopened, tasks)
        delta = counts_delta(before)
        assert delta["partitions_opened"] == k
        assert delta["partitions_pruned"] == total - k
        restricted = stream.restrict_time(*span)
        with SweepEngine("serial") as engine:
            [expected] = engine.run(
                restricted, plan_measure_sweep([1.0], self.MEASURES)
            )
        assert point_key(result["occupancy"]) == point_key(
            expected["occupancy"]
        )


class TestServiceOnPartitionedStreams:
    def test_register_dataset_serves_bit_identical_text(self, tmp_path):
        from repro.service.daemon import AnalysisService

        stream = sample_stream()
        ingest_stream(stream, "svc", root=str(tmp_path), partition_events=4)
        with AnalysisService(runners=1) as service:
            before = snapshot_counts()
            fingerprint = service.register_dataset("svc", root=str(tmp_path))
            assert fingerprint == stream.fingerprint()
            assert counts_delta(before)["partitions_opened"] == 0
            job = service.submit_analyze(
                fingerprint, num_deltas=6, validate=True, timeout=120
            )
            served = service.result(job.id, wait=120)["result"]["text"]
        offline = render_analysis(
            analyze_stream(stream, num_deltas=6, validate=True)
        )
        assert served == offline

    def test_unknown_dataset_maps_to_repro_error(self, tmp_path):
        from repro.service.daemon import AnalysisService

        with AnalysisService(runners=1) as service:
            with pytest.raises(StorageError, match="manifest"):
                service.register_dataset("ghost", root=str(tmp_path))


class TestRoundTripProperty:
    """Ingest → PartitionedStorage → analyze ≡ in-memory, bit for bit."""

    @settings(max_examples=12, deadline=None)
    @given(stream=link_streams(min_events=4, max_events=14))
    def test_partitioned_analysis_is_bit_identical(self, stream):
        assume(stream.t_max > stream.t_min)  # analyze needs a positive span
        with tempfile.TemporaryDirectory() as root:
            ingest_stream(stream, "prop", root=root, partition_events=3)
            reopened = open_dataset("prop", root=root)
            assert reopened.fingerprint() == stream.fingerprint()
            assert reopened == stream
            report_mem = analyze_stream(stream, num_deltas=5)
            report_disk = analyze_stream(reopened, num_deltas=5)
            assert render_analysis(report_mem) == render_analysis(report_disk)
            assert report_mem.gamma == report_disk.gamma

    @settings(max_examples=10, deadline=None)
    @given(stream=link_streams(min_events=3, max_events=12))
    def test_slices_agree_with_in_memory_selection(self, stream):
        with tempfile.TemporaryDirectory() as root:
            ingest_stream(stream, "prop", root=root, partition_events=3)
            reopened = open_dataset("prop", root=root)
            span = (stream.t_min + 1.0, max(stream.t_min + 2.0, stream.t_max))
            assert reopened.restrict_time(*span) == stream.restrict_time(*span)
            assert reopened.slice_time(*span) == stream.slice_time(*span)
