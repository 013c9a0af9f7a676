"""Ablation — the run kernel vs the per-source reference loop.

The reference loop (``repro.temporal.bruteforce.reference_scan``) walks
one Python iteration per source row per window; the run kernel behind
``scan_series`` packs each ``(arrival rank, hop)`` cell into one int64
lexicographic key and applies a whole run of conflict-free windows with
a handful of vectorized passes (see *The scan kernel* in
``repro.temporal.reachability``).  Two regimes:

* **dense** (a synthetic stream, n = 600, thousands of hops per
  window): the run kernel must beat the reference loop by at least
  ``MIN_SPEEDUP``, best-of-``ROUNDS`` interleaved so a scheduling
  hiccup cannot fake (or hide) the win;
* **sparse** (the irvine replica at paper scale over the 28-point Δ
  grid, ~1.6 source rows per window): here the fixed per-step cost is
  what matters, and runs spread it over several windows.  The gate is
  a work counter, not a wall clock: the kernel must commit at most
  ``MAX_COMMIT_RATIO`` state commits per window (``SCAN_BATCHES`` over
  ``SCAN_WINDOWS``), and it must extract trips across runs: its row
  buffer turns many commits into trips in one flush, so a wrapped
  collector counts the scan's ``record_batch`` deliveries, which may
  be at most ``MAX_DELIVERY_RATIO`` per state commit.  The record also
  carries the row-buffer flush count.  Wall times land in the bench
  record ungated.
* **stacked** (the same replica and grid): a cold sweep through a
  serial engine scans its Δ as stacks, one kernel step committing a run
  of every Δ of a stack (*Stacked sweeps* in
  ``repro.temporal.reachability``).  Another counter gate: the sweep
  may make at most ``MAX_STACKED_RATIO`` of the state commits
  (``SCAN_BATCHES``) of the same scans run one Δ at a time through
  ``scan_series``, with exactly the same ``SCAN_ROWS`` and
  ``SCAN_WINDOWS``.

Both regimes gate on bit-identity first — the full collector and
accumulator state on the dense stream, every trip of every Δ on the
replica.  The reference loop is the oracle: any divergence fails the
bench before any timing is reported.
"""

from __future__ import annotations

from time import perf_counter

from _harness import dataset_stream, emit, sweep_size

from repro.core.occupancy import OccupancyCollector
from repro.core.sweep import log_delta_grid
from repro.engine import SweepCache, SweepEngine, plan_occupancy_sweep
from repro.engine.incremental import clear_incremental_store
from repro.generators import time_uniform_stream
from repro.graphseries import aggregate
from repro.graphseries.aggregation import clear_aggregate_cache
from repro.reporting import render_table
from repro.temporal import (
    SCAN_BATCHES,
    SCAN_ROWS,
    SCAN_WINDOWS,
    CheckpointRecorder,
    CountingCollector,
    TripListCollector,
    reference_scan,
    scan_series,
)
from repro.temporal import reachability
from repro.temporal.reachability import DistanceTotals

#: Dense synthetic workload: every pair linked once, uniform in time —
#: the same stream the sharding ablation uses — cut into coarse windows
#: so the per-window scan work dominates aggregation.
NUM_NODES = 600
SPAN = 100_000.0
DELTA = SPAN / 64.0

#: The acceptance claim of the kernel rewrite.
MIN_SPEEDUP = 3.0
ROUNDS = 3

#: Sparse regime: a paper replica, its commits per window gated
#: (runs measure ~0.36 commits per window on irvine at paper scale).
SPARSE_REPLICA = "irvine"
MAX_COMMIT_RATIO = 0.5
#: Trip deliveries per state commit: the scan buffers committed rows
#: and extracts their trips per flush, not per run.
MAX_DELIVERY_RATIO = 0.25
#: State commits of the stacked cold sweep over those of the same scans
#: one Δ at a time (irvine makes ~1.9k against ~14.7k).
MAX_STACKED_RATIO = 0.25


class DeliveryCounter:
    """Wraps a collector and counts the scan's ``record_batch`` calls."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.deliveries = 0

    def record(self, source, dep, targets, arrivals, hops, durations) -> None:
        self.inner.record(source, dep, targets, arrivals, hops, durations)

    def record_batch(
        self, sources, dep, targets, arrivals, hops, durations
    ) -> None:
        self.deliveries += 1
        self.inner.record_batch(
            sources, dep, targets, arrivals, hops, durations
        )


#: The two scans compared, under the labels the bench records keep.
SCANS = {"batched": scan_series, "reference": reference_scan}


def _consumer_state(series, kernel):
    counts = CountingCollector()
    totals = DistanceTotals()
    result = SCANS[kernel](series, [counts, totals])
    return (
        result.num_trips,
        counts.num_trips,
        counts.max_hops,
        counts.max_duration,
        totals.S,
        totals.C,
        totals.SH,
        totals.dist_sum,
        totals.hops_sum,
        totals.count_sum,
    )


def test_scan_kernel_ablation(benchmark, capsys):
    stream = time_uniform_stream(NUM_NODES, 1, SPAN, seed=3)
    series = aggregate(stream, DELTA)

    def compare():
        # Full consumer state first: the oracle check gates the timings.
        states = {k: _consumer_state(series, k) for k in ("batched", "reference")}
        assert states["batched"] == states["reference"], (
            "run kernel diverged from the reference loop: "
            f"{states['batched']} != {states['reference']}"
        )

        timings = {"batched": [], "reference": []}
        trips = {}
        for _ in range(ROUNDS):
            for kernel in ("batched", "reference"):
                start = perf_counter()
                result = SCANS[kernel](series, [])
                timings[kernel].append(perf_counter() - start)
                trips[kernel] = result.num_trips
        assert trips["batched"] == trips["reference"]
        best = {kernel: min(elapsed) for kernel, elapsed in timings.items()}
        rows = [
            [kernel, best[kernel], trips[kernel]]
            for kernel in ("reference", "batched")
        ]
        rows.append(["speedup", best["reference"] / best["batched"], ""])
        return rows, best

    rows, best = benchmark.pedantic(compare, rounds=1, iterations=1)
    table = render_table(
        ["kernel", "wall_seconds", "trips"],
        rows,
        title=(
            f"Ablation — scan kernel (n={NUM_NODES}, "
            f"{series.num_steps} windows, {stream.num_events} events)"
        ),
    )
    speedup = best["reference"] / best["batched"]
    emit(
        capsys,
        "ablation_scan_kernel",
        table,
        data={
            "num_nodes": NUM_NODES,
            "num_events": stream.num_events,
            "num_windows": series.num_steps,
            "delta": DELTA,
            "reference_seconds": float(best["reference"]),
            "batched_seconds": float(best["batched"]),
            "speedup": float(speedup),
        },
    )
    assert speedup >= MIN_SPEEDUP, (
        f"run kernel only {speedup:.2f}x faster than the reference loop "
        f"({best['batched']:.3f}s vs {best['reference']:.3f}s); "
        f"need >= {MIN_SPEEDUP}x"
    )


def _sparse_scan(series, kernel):
    """One occupancy-shaped scan; returns its trips and histogram, and
    how many ``record_batch`` deliveries the occupancy collector got."""
    trips = TripListCollector()
    occupancy = DeliveryCounter(OccupancyCollector())
    result = SCANS[kernel](series, [trips, occupancy])
    t = trips.trips()
    state = (
        result.num_trips,
        [a.tolist() for a in (t.u, t.v, t.dep, t.arr, t.hops, t.durations)],
        occupancy.inner._counts.tolist(),
        occupancy.inner._ones,
    )
    return state, occupancy.deliveries


def _work() -> dict:
    return {
        "windows": SCAN_WINDOWS["series"],
        "rows": SCAN_ROWS["series"],
        "commits": SCAN_BATCHES["series"],
    }


def _since(before: dict) -> dict:
    return {key: value - before[key] for key, value in _work().items()}


def _stacked_sweep_counts(stream, deltas, series_list) -> dict:
    """The scan work of a cold serial-engine sweep of ``deltas`` (its Δ
    scanned as stacks) and of the same scans one Δ at a time: each with
    the sweep's occupancy collector and a checkpoint recorder."""
    before = _work()
    start = perf_counter()
    for series in series_list:
        scan_series(
            series, OccupancyCollector(), checkpoints=CheckpointRecorder()
        )
    solo_seconds = perf_counter() - start
    solo = _since(before)
    clear_incremental_store()
    clear_aggregate_cache()
    before = _work()
    start = perf_counter()
    with SweepEngine("serial", cache=SweepCache()) as engine:
        engine.run(stream, plan_occupancy_sweep(deltas, methods=("mk",)))
    stacked_seconds = perf_counter() - start
    stacked = _since(before)
    return {
        "solo": solo,
        "stacked": stacked,
        "ratio": stacked["commits"] / solo["commits"],
        "solo_seconds": solo_seconds,
        "stacked_seconds": stacked_seconds,
    }


def test_scan_kernel_sparse_replica(benchmark, capsys, monkeypatch):
    stream = dataset_stream(SPARSE_REPLICA)
    deltas = log_delta_grid(stream, num=sweep_size())
    series_list = [aggregate(stream, float(delta)) for delta in deltas]
    # Count the row buffer's flushes (of a nonempty buffer).
    flushes = [0]
    flush = reachability._RowBuffer.flush

    def counted_flush(rows):
        flushes[0] += rows.rows > 0
        return flush(rows)

    monkeypatch.setattr(reachability._RowBuffer, "flush", counted_flush)

    def compare():
        seconds = {"batched": 0.0, "reference": 0.0}
        windows = SCAN_WINDOWS["series"]
        rows = SCAN_ROWS["series"]
        commits = SCAN_BATCHES["series"]
        flushes[0] = 0
        deliveries = 0
        for delta, series in zip(deltas, series_list):
            states = {}
            for kernel in ("batched", "reference"):
                start = perf_counter()
                states[kernel], delivered = _sparse_scan(series, kernel)
                seconds[kernel] += perf_counter() - start
                if kernel == "batched":
                    deliveries += delivered
            assert states["batched"] == states["reference"], (
                f"run kernel diverged from the reference loop at "
                f"delta={delta}"
            )
        counts = {
            "windows": SCAN_WINDOWS["series"] - windows,
            "rows": SCAN_ROWS["series"] - rows,
            "commits": SCAN_BATCHES["series"] - commits,
            "deliveries": deliveries,
            "flushes": flushes[0],
        }
        return seconds, counts

    seconds, counts = benchmark.pedantic(compare, rounds=1, iterations=1)
    stacked = _stacked_sweep_counts(stream, deltas, series_list)
    ratio = counts["commits"] / counts["windows"]
    delivery_ratio = counts["deliveries"] / counts["commits"]
    table = render_table(
        ["kernel", "wall_seconds", "windows", "rows", "commits",
         "flushes", "deliveries"],
        [
            ["reference", seconds["reference"], counts["windows"], counts["rows"],
             counts["rows"], "", ""],
            ["batched", seconds["batched"], counts["windows"],
             counts["rows"], counts["commits"], counts["flushes"],
             counts["deliveries"]],
            ["commits/window", ratio, "", "", "", "", ""],
            ["deliveries/commit", delivery_ratio, "", "", "", "", ""],
            ["one Δ at a time", stacked["solo_seconds"],
             stacked["solo"]["windows"], stacked["solo"]["rows"],
             stacked["solo"]["commits"], "", ""],
            ["stacked sweep", stacked["stacked_seconds"],
             stacked["stacked"]["windows"], stacked["stacked"]["rows"],
             stacked["stacked"]["commits"], "", ""],
            ["stacked/one at a time", stacked["ratio"], "", "", "", "", ""],
        ],
        title=(
            f"Ablation — scan kernel, sparse regime ({SPARSE_REPLICA} "
            f"replica, {len(deltas)} deltas, {stream.num_events} events)"
        ),
    )
    emit(
        capsys,
        "ablation_scan_kernel_sparse",
        table,
        data={
            "replica": SPARSE_REPLICA,
            "num_events": stream.num_events,
            "num_deltas": len(deltas),
            "windows": counts["windows"],
            "rows": counts["rows"],
            "commits": counts["commits"],
            "commits_per_window": float(ratio),
            "flushes": counts["flushes"],
            "deliveries": counts["deliveries"],
            "deliveries_per_commit": float(delivery_ratio),
            "reference_seconds": float(seconds["reference"]),
            "batched_seconds": float(seconds["batched"]),
            "stacked": stacked,
        },
    )
    assert stacked["stacked"]["rows"] == stacked["solo"]["rows"]
    assert stacked["stacked"]["windows"] == stacked["solo"]["windows"]
    assert stacked["ratio"] <= MAX_STACKED_RATIO, (
        f"the stacked cold sweep made {stacked['stacked']['commits']} state "
        f"commits against {stacked['solo']['commits']} one delta at a time "
        f"({stacked['ratio']:.3f}); need <= {MAX_STACKED_RATIO}"
    )
    assert ratio <= MAX_COMMIT_RATIO, (
        f"run kernel committed {counts['commits']} times over "
        f"{counts['windows']} windows ({ratio:.2f} per window); need "
        f"<= {MAX_COMMIT_RATIO}"
    )
    assert delivery_ratio <= MAX_DELIVERY_RATIO, (
        f"the scan delivered trips {counts['deliveries']} times over "
        f"{counts['commits']} state commits ({delivery_ratio:.2f} per "
        f"commit); need <= {MAX_DELIVERY_RATIO}"
    )
