"""Unit tests for the one-call analysis report."""

import numpy as np
import pytest

from repro.core import analyze_stream
from repro.engine import MeasureSpec, SweepCache, SweepEngine
from repro.generators import time_uniform_stream
from repro.linkstream import LinkStream, statistics
from repro.temporal.reachability import SCAN_COUNTS, SCAN_WINDOWS


@pytest.fixture(scope="module")
def report():
    stream = time_uniform_stream(12, 6, 8000.0, seed=4)
    return analyze_stream(stream, num_deltas=10, bins=1024)


class TestAnalyzeStream:
    def test_bundles_all_parts(self, report):
        assert report.summary.num_nodes == 12
        assert report.gamma > 0
        assert report.transitions_lost_at_gamma is not None
        assert 0 <= report.transitions_lost_at_gamma <= 1
        assert report.elongation_at_gamma is not None

    def test_recommendation_is_half_gamma(self, report):
        assert report.recommended_delta == pytest.approx(report.gamma / 2)

    def test_text_rendering(self, report):
        text = report.to_text()
        assert "saturation scale gamma" in text
        assert "recommendation" in text
        assert "transitions" in text

    def test_validation_can_be_skipped(self):
        stream = time_uniform_stream(8, 4, 2000.0, seed=1)
        report = analyze_stream(stream, validate=False, num_deltas=8, bins=512)
        assert report.transitions_lost_at_gamma is None
        assert report.elongation_at_gamma is None
        assert "recommendation" in report.to_text()

    def test_stream_without_transitions(self):
        # Two disjoint pairs at far-apart times: no 2-hop trips exist.
        stream = LinkStream([0, 2], [1, 3], [0, 500], num_nodes=4)
        report = analyze_stream(stream, num_deltas=6, bins=256)
        assert report.transitions_lost_at_gamma is None
        assert report.to_text()  # renders without the loss line

    def test_kwargs_forwarded(self):
        stream = time_uniform_stream(8, 4, 2000.0, seed=2)
        report = analyze_stream(stream, validate=False, num_deltas=8, method="cre")
        assert report.saturation.method == "cre"


class TestWarmPathWork:
    """A warm analysis does only cache lookups: counted, not timed."""

    NUM_DELTAS = 10

    @pytest.fixture
    def spies(self, monkeypatch):
        calls = {"inter_contact_times": 0, "params": 0}
        gaps = statistics.inter_contact_times
        params = MeasureSpec.params

        def counted_gaps(stream):
            calls["inter_contact_times"] += 1
            return gaps(stream)

        def counted_params(spec):
            calls["params"] += 1
            return params(spec)

        monkeypatch.setattr(statistics, "inter_contact_times", counted_gaps)
        monkeypatch.setattr(MeasureSpec, "params", counted_params)
        return calls

    def _work(self, spies, run):
        before = dict(spies)
        scans = dict(SCAN_COUNTS)
        windows = dict(SCAN_WINDOWS)
        result = run()
        done = {key: spies[key] - before[key] for key in spies}
        done["scans"] = sum(SCAN_COUNTS[k] - scans[k] for k in scans)
        done["windows"] = sum(SCAN_WINDOWS[k] - windows[k] for k in windows)
        return result, done

    def test_warm_repeat_computes_no_stream_fact(self, spies):
        stream = time_uniform_stream(10, 5, 4000.0, seed=6)
        engine = SweepEngine("serial", cache=SweepCache())

        def analyze():
            return analyze_stream(
                stream, validate=False, engine=engine,
                num_deltas=self.NUM_DELTAS, bins=512,
            )

        cold, cold_work = self._work(spies, analyze)
        assert cold_work["inter_contact_times"] == 1
        assert cold_work["scans"] == self.NUM_DELTAS
        warm, warm_work = self._work(spies, analyze)
        assert warm_work["inter_contact_times"] == 0
        assert warm_work["scans"] == 0 and warm_work["windows"] == 0
        # The occupancy spec is shared by every task of the sweep: its
        # token is built once per analysis, not once per Δ.
        assert warm_work["params"] == 1
        assert warm.summary == cold.summary
        assert warm.gamma == cold.gamma
        assert [p.scores for p in warm.saturation.points] == [
            p.scores for p in cold.saturation.points
        ]
        assert warm.to_text() == cold.to_text()
