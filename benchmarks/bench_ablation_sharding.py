"""Ablation — within-Δ sharding of one huge occupancy evaluation.

Grid parallelism is useless on the coarse-Δ tail of a sweep: one Δ, one
task, one worker, everyone else idle.  The engine's shard path splits
that single evaluation into destination-partition scans (the arrival
matrix's columns are independent dynamic programs) and merges the
occupancy histograms integer-exactly.  This bench pins that path on a
single coarse Δ of a dense synthetic stream:

* work — a serial-engine sharded run performs exactly one restricted
  series scan per shard (a counter gate: a shared runner's clock
  cannot fake or hide it);
* bit-identity — every merged sweep point (serial, process and thread
  backends) must equal the serial reference exactly, scores, trip
  counts, and distribution alike;
* wall time — unsharded (one worker) vs sharded across the pool, kept
  in the table and the JSON record but not asserted: on a shared
  2-core runner the comparison flips run to run.
"""

from __future__ import annotations

import os
from time import perf_counter

from _harness import emit

from repro.engine import SweepEngine, plan_occupancy_sweep
from repro.generators import time_uniform_stream
from repro.reporting import render_table
from repro.temporal.reachability import SCAN_COUNTS

JOBS = min(4, os.cpu_count() or 1)

#: One coarse Δ — span/4, i.e. the expensive tail of a sweep where the
#: whole plan is a single task.
SPAN = 100_000.0
COARSE_DELTA = SPAN / 4.0


def _assert_identical(point, reference):
    assert point.scores == reference.scores
    assert point.num_trips == reference.num_trips
    assert point.num_windows == reference.num_windows
    assert point.num_nonempty_windows == reference.num_nonempty_windows
    assert point.distribution.values.tolist() == reference.distribution.values.tolist()
    assert point.distribution.weights.tolist() == reference.distribution.weights.tolist()


def test_sharding_ablation(benchmark, capsys):
    # Dense enough that the O(n * |E_k|) backward scan dominates the
    # shared per-shard costs (aggregation, window bookkeeping).
    stream = time_uniform_stream(600, 1, SPAN, seed=3)
    tasks = plan_occupancy_sweep([COARSE_DELTA], methods=("mk",))
    warmup = plan_occupancy_sweep([SPAN / 2.0, SPAN], methods=("mk",))

    def compare():
        rows = []
        with SweepEngine(cache=None) as serial_engine:
            start = perf_counter()
            reference = serial_engine.run(stream, tasks)[0]["occupancy"]
            serial_time = perf_counter() - start
        rows.append(["serial (reference)", 1, serial_time])

        # At least 2 shards even on a single-core machine, so the shard
        # path itself (restricted scans + histogram merge) always runs.
        shard_count = max(2, JOBS)
        with SweepEngine(cache=None, shards=shard_count) as serial_engine:
            before = SCAN_COUNTS["series"]
            point = serial_engine.run(stream, tasks)[0]["occupancy"]
            scans = SCAN_COUNTS["series"] - before
        _assert_identical(point, reference)

        timings = {}
        for label, shards in (("unsharded", 1), ("sharded", shard_count)):
            with SweepEngine(f"process:{JOBS}", cache=None, shards=shards) as engine:
                engine.run(stream, warmup)  # spawn + import the pool workers
                # Best of two rounds, so a scheduling hiccup on a busy
                # CI runner cannot fake (or hide) the sharding speedup.
                elapsed = []
                for _ in range(2):
                    start = perf_counter()
                    point = engine.run(stream, tasks)[0]["occupancy"]
                    elapsed.append(perf_counter() - start)
                timings[label] = min(elapsed)
            _assert_identical(point, reference)
            rows.append([f"process:{JOBS} {label}", shards, timings[label]])

        with SweepEngine(f"thread:{JOBS}", cache=None, shards=shard_count) as engine:
            point = engine.run(stream, tasks)[0]["occupancy"]
        _assert_identical(point, reference)

        return rows, timings, shard_count, scans

    rows, timings, shard_count, scans = benchmark.pedantic(
        compare, rounds=1, iterations=1
    )
    table = render_table(
        ["configuration", "shards", "wall_seconds"],
        rows,
        title=(
            f"Ablation — within-delta sharding (1 coarse delta, "
            f"{stream.num_events} events, jobs={JOBS})"
        ),
    )
    emit(
        capsys,
        "ablation_sharding",
        table,
        data={
            "jobs": JOBS,
            "num_events": stream.num_events,
            "coarse_delta": COARSE_DELTA,
            "unsharded_seconds": float(timings["unsharded"]),
            "sharded_seconds": float(timings["sharded"]),
            "speedup": float(timings["unsharded"] / timings["sharded"]),
            "shard_count": shard_count,
            "serial_sharded_scans": scans,
        },
    )

    # The work claim: the sharded evaluation of one Δ is exactly one
    # restricted scan per shard (no unsharded scan beside them).
    assert scans == shard_count, (
        f"{scans} series scans for {shard_count} shards of one delta"
    )
