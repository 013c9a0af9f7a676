"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import main
from repro.generators import time_uniform_stream
from repro.linkstream import read_tsv, write_tsv


@pytest.fixture
def events_file(tmp_path):
    stream = time_uniform_stream(10, 6, 5000.0, seed=0)
    path = tmp_path / "events.tsv"
    write_tsv(stream, path)
    return path


class TestAnalyze:
    def test_prints_gamma(self, events_file, capsys):
        code = main(["analyze", str(events_file), "--num-deltas", "8", "--undirected"])
        out = capsys.readouterr().out
        assert code == 0
        assert "saturation scale gamma" in out
        assert "<-- gamma" in out

    def test_validate_flag(self, events_file, capsys):
        code = main(
            ["analyze", str(events_file), "--num-deltas", "8", "--validate", "--undirected"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "transitions collapse" in out
        assert "recommendation" in out

    def test_missing_file_fails_cleanly(self, tmp_path, capsys):
        code = main(["analyze", str(tmp_path / "nope.tsv")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_alternative_method(self, events_file, capsys):
        code = main(
            ["analyze", str(events_file), "--num-deltas", "8", "--method", "cre"]
        )
        assert code == 0
        assert "'cre'" in capsys.readouterr().out

    def test_unknown_method_fails_cleanly(self, events_file, capsys):
        code = main(["analyze", str(events_file), "--method", "bogus"])
        assert code == 2

    def test_measures_add_classical_columns(self, events_file, capsys):
        code = main(
            [
                "analyze",
                str(events_file),
                "--num-deltas",
                "6",
                "--measures",
                "occupancy,classical",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "density" in out
        assert "d_time" in out
        assert "<-- gamma" in out

    def test_measures_metrics_only_columns(self, events_file, capsys):
        code = main(
            [
                "analyze",
                str(events_file),
                "--num-deltas",
                "6",
                "--measures",
                "occupancy,metrics",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "density" in out
        assert "d_time" not in out  # no distance scanning was requested

    def test_measures_must_include_occupancy(self, events_file, capsys):
        code = main(
            ["analyze", str(events_file), "--measures", "classical"]
        )
        assert code == 2
        assert "occupancy" in capsys.readouterr().err

    def test_unknown_measure_fails_cleanly(self, events_file, capsys):
        code = main(
            ["analyze", str(events_file), "--measures", "occupancy,bogus"]
        )
        assert code == 2

    def test_measures_do_not_change_occupancy_evidence(self, events_file, capsys):
        code = main(["analyze", str(events_file), "--num-deltas", "6"])
        assert code == 0
        plain = capsys.readouterr().out
        code = main(
            [
                "analyze",
                str(events_file),
                "--num-deltas",
                "6",
                "--measures",
                "occupancy,classical",
            ]
        )
        assert code == 0
        fused = capsys.readouterr().out
        # Same gamma line; the occupancy columns are bit-identical, the
        # fused run only appends classical columns.
        gamma_line = next(l for l in plain.splitlines() if "saturation scale" in l)
        assert gamma_line in fused


class TestAnalyzeEngine:
    def test_thread_backend_matches_serial(self, events_file, capsys):
        code = main(["analyze", str(events_file), "--num-deltas", "8"])
        assert code == 0
        serial_out = capsys.readouterr().out
        code = main(
            [
                "analyze",
                str(events_file),
                "--num-deltas",
                "8",
                "--backend",
                "thread",
                "--jobs",
                "2",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out == serial_out  # bit-identical evidence

    def test_cache_dir_persists_results(self, events_file, tmp_path, capsys):
        cache_dir = tmp_path / "sweep-cache"
        args = [
            "analyze",
            str(events_file),
            "--num-deltas",
            "8",
            "--cache-dir",
            str(cache_dir),
        ]
        assert main(args) == 0
        cold_out = capsys.readouterr().out
        entries = list(cache_dir.rglob("*.pkl"))
        assert entries  # per-delta results written
        assert main(args) == 0  # warm re-run, served from disk
        assert capsys.readouterr().out == cold_out

    def test_progress_flag_writes_stderr(self, events_file, capsys):
        code = main(["analyze", str(events_file), "--num-deltas", "8", "--progress"])
        assert code == 0
        assert "sweep" in capsys.readouterr().err

    def test_unknown_backend_rejected(self, events_file):
        with pytest.raises(SystemExit):
            main(["analyze", str(events_file), "--backend", "gpu"])

    def test_sharded_analysis_matches_serial(self, events_file, capsys):
        code = main(["analyze", str(events_file), "--num-deltas", "8"])
        assert code == 0
        serial_out = capsys.readouterr().out
        code = main(
            [
                "analyze",
                str(events_file),
                "--num-deltas",
                "8",
                "--backend",
                "thread",
                "--jobs",
                "2",
                "--shards",
                "2",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out == serial_out  # bit-identical evidence

    def test_bad_shards_value_fails_cleanly(self, events_file, capsys):
        code = main(["analyze", str(events_file), "--shards", "lots"])
        assert code == 2
        assert "shard" in capsys.readouterr().err

    def test_jobs_with_serial_backend_fails_cleanly(self, events_file, capsys):
        # Regression: a worker count on the (default) serial backend was
        # silently discarded; now it is a clean configuration error.
        code = main(["analyze", str(events_file), "--jobs", "4"])
        assert code == 2
        assert "serial" in capsys.readouterr().err


class TestAggregate:
    def test_writes_window_edges(self, events_file, tmp_path, capsys):
        out_path = tmp_path / "series.tsv"
        code = main(
            [
                "aggregate",
                str(events_file),
                "--delta",
                "500",
                "--output",
                str(out_path),
            ]
        )
        assert code == 0
        lines = [l for l in out_path.read_text().splitlines() if not l.startswith("#")]
        assert lines
        windows = {int(l.split("\t")[0]) for l in lines}
        assert max(windows) <= 10

    def test_human_delta_units(self, events_file, tmp_path):
        out_path = tmp_path / "series.tsv"
        code = main(
            ["aggregate", str(events_file), "--delta", "10min", "--output", str(out_path)]
        )
        assert code == 0


class TestGenerate:
    def test_uniform_roundtrip(self, tmp_path, capsys):
        out_path = tmp_path / "synth.tsv"
        code = main(
            [
                "generate",
                "uniform",
                "--output",
                str(out_path),
                "--nodes",
                "8",
                "--links-per-pair",
                "3",
                "--span",
                "1000",
            ]
        )
        assert code == 0
        stream = read_tsv(out_path)
        assert stream.num_events == 28 * 3

    def test_dataset_replica(self, tmp_path):
        out_path = tmp_path / "enron.tsv"
        code = main(["generate", "enron", "--output", str(out_path)])
        assert code == 0
        assert read_tsv(out_path).num_events > 1000

    def test_two_mode(self, tmp_path):
        out_path = tmp_path / "tm.tsv"
        code = main(
            [
                "generate",
                "two-mode",
                "--output",
                str(out_path),
                "--nodes",
                "6",
                "--links-per-pair",
                "10",
                "--span",
                "2000",
                "--rho",
                "0.5",
            ]
        )
        assert code == 0
        assert read_tsv(out_path).num_events > 0


class TestDatasets:
    def test_lists_all(self, capsys):
        code = main(["datasets"])
        out = capsys.readouterr().out
        assert code == 0
        for name in ("irvine", "facebook", "enron", "manufacturing"):
            assert name in out


class TestCachePrewarm:
    def test_prewarm_then_analyze_is_fully_warm(self, events_file, tmp_path, capsys):
        from repro.temporal.reachability import SCAN_COUNTS

        cache_dir = tmp_path / "cache"
        code = main(
            [
                "cache", "prewarm", str(events_file),
                "--cache-dir", str(cache_dir),
                "--num-deltas", "6",
                "--measures", "occupancy,classical",
                "--undirected",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "prewarmed 6 window lengths x 2 measures" in out
        assert cache_dir.is_dir()
        # The replayed sweep spec serves the matching analyze without a
        # single backward scan.
        before = SCAN_COUNTS["series"]
        code = main(
            [
                "analyze", str(events_file),
                "--num-deltas", "6",
                "--measures", "occupancy,classical",
                "--cache-dir", str(cache_dir),
                "--undirected",
            ]
        )
        assert code == 0
        assert "<-- gamma" in capsys.readouterr().out
        assert SCAN_COUNTS["series"] - before == 0

    def test_prewarm_on_a_full_disk_warns(self, events_file, tmp_path, capsys, monkeypatch):
        import errno
        import tempfile

        def no_space(*args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(tempfile, "mkstemp", no_space)
        cache_dir = tmp_path / "cache"
        code = main(
            [
                "cache", "prewarm", str(events_file),
                "--cache-dir", str(cache_dir),
                "--num-deltas", "6",
                "--undirected",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "0 entries" in captured.out
        assert "warning: 6 cache writes failed" in captured.err

    def test_prewarm_requires_events(self, tmp_path, capsys):
        code = main(["cache", "prewarm", "--cache-dir", str(tmp_path)])
        assert code == 2
        assert "event file" in capsys.readouterr().err

    def test_stats_rejects_events(self, events_file, tmp_path, capsys):
        code = main(
            ["cache", "stats", str(events_file), "--cache-dir", str(tmp_path)]
        )
        assert code == 2
        assert "takes no event file" in capsys.readouterr().err

    def test_prewarm_parameterized_measures(self, events_file, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        code = main(
            [
                "cache", "prewarm", str(events_file),
                "--cache-dir", str(cache_dir),
                "--num-deltas", "5",
                "--measures", "trips:max_samples=8,components",
                "--undirected",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "trips, components" in out

    def test_prewarm_unknown_measure_fails_cleanly(
        self, events_file, tmp_path, capsys
    ):
        code = main(
            [
                "cache", "prewarm", str(events_file),
                "--cache-dir", str(tmp_path),
                "--measures", "bogus",
            ]
        )
        assert code == 2
        assert "unknown measure" in capsys.readouterr().err


class TestMeasuresList:
    def test_measures_list_command(self, capsys):
        code = main(["measures", "list"])
        out = capsys.readouterr().out
        assert code == 0
        assert "registered measures" in out
        assert "occupancy" in out
        assert "trips" in out
        assert "max_samples: int" in out  # schema with types and defaults
        assert "repro.measures" in out  # the entry-point group is advertised

    def test_analyze_measures_list_needs_no_events(self, capsys):
        code = main(["analyze", "--measures-list"])
        out = capsys.readouterr().out
        assert code == 0
        assert "registered measures" in out

    def test_measures_list_outputs_match(self, capsys):
        main(["measures", "list"])
        via_measures = capsys.readouterr().out
        main(["analyze", "--measures-list"])
        via_analyze = capsys.readouterr().out
        assert via_measures == via_analyze

    def test_analyze_without_events_or_list_fails_cleanly(self, capsys):
        code = main(["analyze"])
        err = capsys.readouterr().err
        assert code == 2
        assert "event file" in err
