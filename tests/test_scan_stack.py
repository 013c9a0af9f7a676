"""Stacked sweep scans: one kernel step commits a run of every Δ.

:func:`~repro.temporal.reachability.scan_stack` scans the series of one
stream at several Δ as one stack.  Each Δ must come out exactly as a
solo :func:`~repro.temporal.reachability.scan_series` of that Δ: the
same trips in the same order, the same collector states, the same
:class:`ScanResult` and byte-identical checkpoint records — whatever the
stack size (the cell budget decides it) and however the steps chunk.
The engine stacks consecutive tasks of a plan and keeps its cancel and
failure contract per Δ.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.occupancy import OccupancyCollector
from repro.engine import AnalysisTask, CancelToken, SweepEngine
from repro.engine.measures import MeasureSpec
from repro.generators import time_uniform_stream
from repro.graphseries import aggregate
from repro.temporal import reachability
from repro.temporal.bruteforce import reference_scan
from repro.temporal.collectors import TripListCollector
from repro.temporal.reachability import (
    SCAN_BATCHES,
    SCAN_COUNTS,
    SCAN_ROWS,
    SCAN_WINDOWS,
    CheckpointRecorder,
    ScanJob,
    scan_series,
    scan_stack,
    stack_capacity,
)
from repro.utils.errors import EngineError, JobCancelled, ValidationError
from strategies import link_streams


def _trips(collector: TripListCollector) -> list:
    trips = collector.trips()
    return [
        (a.dtype.str, a.tolist())
        for a in (trips.u, trips.v, trips.dep, trips.arr, trips.hops,
                  trips.durations)
    ]


def _occupancy(collector: OccupancyCollector) -> tuple:
    return (collector._counts.tolist(), collector._ones, collector.num_trips)


def _record(recorder: CheckpointRecorder) -> tuple:
    return (
        [
            (
                c.window, c.last_processed, c.shape, c.finite,
                c.mask.tobytes(), c.keys.dtype.str, c.keys.tobytes(),
            )
            for c in recorder.checkpoints
        ],
        recorder.span_trips,
        [
            (_trips(trips), _occupancy(occupancy))
            for trips, occupancy in recorder.spans
        ],
    )


def _scan_state(result, trips, occupancy, recorder) -> tuple:
    return (result, _trips(trips), _occupancy(occupancy), _record(recorder))


def _consumers():
    return TripListCollector(), OccupancyCollector(), CheckpointRecorder()


@settings(max_examples=60, deadline=None)
@given(
    stream=st.one_of(
        link_streams(max_nodes=7, max_events=60, max_time=80),
        link_streams(max_nodes=7, max_events=60, max_time=80, float_time=True),
    ),
    fractions=st.lists(
        st.floats(0.01, 1.0), min_size=1, max_size=7, unique=True
    ),
    stack=st.sampled_from(["one", "two", "all"]),
)
def test_stacked_scans_equal_solo_scans(stream, fractions, stack):
    span = max(float(stream.t_max - stream.t_min), 1.0)
    deltas = [span * f for f in sorted(fractions)]
    series = [aggregate(stream, delta) for delta in deltas]
    solo = []
    for s in series:
        trips, occupancy, recorder = _consumers()
        result = scan_series(s, [trips, occupancy], checkpoints=recorder)
        solo.append(_scan_state(result, trips, occupancy, recorder))

    n = stream.num_nodes
    per_stack = {"one": 1, "two": 2, "all": len(series)}[stack]
    budget = reachability.BATCH_CELL_BUDGET
    # The budget sizes the stacks and, split over a stack's scans, the
    # groups a step commits in: small stacks chunk their steps too.
    reachability.BATCH_CELL_BUDGET = per_stack * n * n
    try:
        assert stack_capacity(n) == per_stack
        stacked = []
        for lo in range(0, len(series), per_stack):
            chunk = series[lo:lo + per_stack]
            consumers = [_consumers() for _ in chunk]
            results = scan_stack(
                [
                    ScanJob(s, [trips, occupancy], checkpoints=recorder)
                    for s, (trips, occupancy, recorder) in zip(chunk, consumers)
                ]
            )
            stacked += [
                _scan_state(result, *c) for result, c in zip(results, consumers)
            ]
            # The per-source reference loop stays the oracle.
            oracle = TripListCollector()
            reference_scan(chunk[0], oracle)
            assert _trips(oracle) == _trips(consumers[0][0])
    finally:
        reachability.BATCH_CELL_BUDGET = budget
    for delta, expected, got in zip(deltas, solo, stacked):
        assert got == expected, f"stacked scan differs at delta={delta!r}"


@pytest.fixture(scope="module")
def replica_series():
    stream = time_uniform_stream(15, 4, 6000.0, seed=5)
    span = stream.t_max - stream.t_min
    return [aggregate(stream, span / k) for k in (400, 300, 200, 120, 60, 20)]


def test_stack_commits_once_per_step_and_tallies_per_scan(replica_series):
    before = (SCAN_COUNTS["series"], SCAN_ROWS["series"], SCAN_WINDOWS["series"])
    batches = SCAN_BATCHES["series"]
    for s in replica_series:
        scan_series(s, OccupancyCollector())
    solo = (
        SCAN_COUNTS["series"] - before[0],
        SCAN_ROWS["series"] - before[1],
        SCAN_WINDOWS["series"] - before[2],
    )
    solo_batches = SCAN_BATCHES["series"] - batches
    before = (SCAN_COUNTS["series"], SCAN_ROWS["series"], SCAN_WINDOWS["series"])
    batches = SCAN_BATCHES["series"]
    scan_stack([ScanJob(s, OccupancyCollector()) for s in replica_series])
    stacked = (
        SCAN_COUNTS["series"] - before[0],
        SCAN_ROWS["series"] - before[1],
        SCAN_WINDOWS["series"] - before[2],
    )
    assert stacked == solo
    assert SCAN_BATCHES["series"] - batches < solo_batches / 2


def test_stack_rejects_unstackable_scans(replica_series):
    from repro.temporal.reachability import DistanceTotals

    with pytest.raises(ValidationError, match="stack"):
        scan_stack(
            [ScanJob(s, DistanceTotals()) for s in replica_series[:2]]
        )


# -- the engine's stacks: cancel and failure contract -----------------------


class _SlowCollector(OccupancyCollector):  # repro: ignore[collector-contract] -- merge and empty are inherited
    """Sleeps on every delivery, so a stack takes a while."""

    def __init__(self, pause: float) -> None:
        super().__init__()
        self.pause = pause

    def record_batch(self, *args) -> None:
        import time

        time.sleep(self.pause)
        super().record_batch(*args)


@dataclass(frozen=True)
class SlowMeasure(MeasureSpec):
    """Counts trips slowly (a scanning measure for deadline tests)."""

    pause: float = 0.02

    scans = True

    @property
    def name(self) -> str:
        return "slow"

    def make_collector(self):
        return _SlowCollector(self.pause)

    def finalize(self, delta, geometry, payload, collector):
        return collector.num_trips


#: Which collector (in creation order) the failing measure breaks.
_FAIL = {"made": 0, "at": -1}


class _BrokenCollector(OccupancyCollector):  # repro: ignore[collector-contract] -- merge and empty are inherited
    def __init__(self, broken: bool) -> None:
        super().__init__()
        self.broken = broken

    def record_batch(self, *args) -> None:
        if self.broken:
            raise RuntimeError("collector broke")
        super().record_batch(*args)


@dataclass(frozen=True)
class BrokenMeasure(MeasureSpec):
    """The ``_FAIL["at"]``-th collector made raises on its first trips."""

    scans = True

    @property
    def name(self) -> str:
        return "broken"

    def make_collector(self):
        index = _FAIL["made"]
        _FAIL["made"] += 1
        return _BrokenCollector(index == _FAIL["at"])

    def finalize(self, delta, geometry, payload, collector):
        return collector.num_trips


@pytest.fixture(scope="module")
def sweep_stream():
    return time_uniform_stream(10, 6, 8000.0, seed=2)


def _tasks(stream, measure, count):
    span = stream.t_max - stream.t_min
    return [
        AnalysisTask(delta=span / k, measures=(measure,))
        for k in np.linspace(400, 200, count)
    ]


def test_deadline_expiring_mid_stack_stops_the_stack(sweep_stream):
    tasks = _tasks(sweep_stream, SlowMeasure(pause=0.05), 6)
    with SweepEngine(cache=None) as engine:
        windows = SCAN_WINDOWS["series"]
        engine.run(sweep_stream, tasks)
        full = SCAN_WINDOWS["series"] - windows
        windows = SCAN_WINDOWS["series"]
        token = CancelToken.with_timeout(0.1)
        with pytest.raises(
            JobCancelled, match=r"deadline exceeded before analysis task at delta="
        ):
            engine.run(sweep_stream, tasks, cancel=token)
    # One stack holds every task; it stopped well before its end.
    assert stack_capacity(sweep_stream.num_nodes) >= len(tasks)
    assert SCAN_WINDOWS["series"] - windows < full


def test_stack_failure_names_its_delta(sweep_stream):
    tasks = _tasks(sweep_stream, BrokenMeasure(), 5)
    _FAIL.update(made=0, at=2)
    ticks: list = []
    with SweepEngine(cache=None) as engine:
        with pytest.raises(
            EngineError, match=rf"analysis task at delta={tasks[2].delta:g} failed"
        ) as excinfo:
            engine.backend.run(sweep_stream, tasks, tick=ticks.append)
    assert isinstance(excinfo.value.__cause__, RuntimeError)
    assert not ticks  # nothing finished: the stack failed as a whole
    _FAIL.update(made=0, at=-1)
    with SweepEngine(cache=None) as engine:
        engine.backend.run(sweep_stream, tasks, tick=ticks.append)
    assert ticks == [1] * len(tasks)  # one tick per task
