"""Ablation — sweep-execution backends and the result cache.

The occupancy sweep is embarrassingly parallel across Δ, so the engine
offers thread- and process-pool backends next to the serial reference,
plus a content-addressed cache that turns repeated sweeps into lookups.
This bench measures all of it on the paper-scale Irvine replica:

* serial vs thread vs process wall time for one cold sweep;
* cold- vs warm-cache wall time (the warm sweep recomputes nothing).

Whatever the timings, every backend must return the exact same γ and
per-Δ scores — that assertion is the real regression guard.  The warm
sweep is gated on work counters, not on the clock: it scans nothing and
hits the cache once per per-measure key.  Both timings stay in the
record.
"""

from __future__ import annotations

import os
from time import perf_counter

from _harness import emit

from repro.core import log_delta_grid, occupancy_method
from repro.engine import SweepCache, SweepEngine
from repro.reporting import render_table
from repro.temporal.reachability import SCAN_COUNTS

JOBS = min(4, os.cpu_count() or 1)


def _timed_sweep(stream, deltas, engine):
    start = perf_counter()
    result = occupancy_method(stream, deltas=deltas, engine=engine)
    return result, perf_counter() - start


def test_engine_backend_comparison(benchmark, capsys, irvine_stream):
    deltas = log_delta_grid(irvine_stream, num=16)

    def compare():
        rows = []
        results = {}
        for spec in ("serial", f"thread:{JOBS}", f"process:{JOBS}"):
            with SweepEngine(spec, cache=None) as engine:
                result, elapsed = _timed_sweep(irvine_stream, deltas, engine)
            results[spec] = result
            rows.append([f"{spec} (cold, no cache)", elapsed, result.gamma])

        cached = SweepEngine("serial", cache=SweepCache.build())
        cold, cold_time = _timed_sweep(irvine_stream, deltas, cached)
        scans = sum(SCAN_COUNTS.values())
        hits = cached.cache.hits
        warm, warm_time = _timed_sweep(irvine_stream, deltas, cached)
        warm_work = {
            "scans": sum(SCAN_COUNTS.values()) - scans,
            "cache_hits": cached.cache.hits - hits,
        }
        results["cache-warm"] = warm
        rows.append(["serial + cache (cold)", cold_time, cold.gamma])
        rows.append(["serial + cache (warm)", warm_time, warm.gamma])
        return rows, results, (cold_time, warm_time), warm_work

    rows, results, (cold_time, warm_time), warm_work = benchmark.pedantic(
        compare, rounds=1, iterations=1
    )
    table = render_table(
        ["configuration", "wall_seconds", "gamma_s"],
        rows,
        title=f"Ablation — engine backends ({len(deltas)} deltas, jobs={JOBS})",
    )
    emit(
        capsys,
        "ablation_engine_backends",
        table,
        data={
            "jobs": JOBS,
            "num_deltas": len(deltas),
            "gamma_s": float(results["serial"].gamma),
            "wall_seconds": {row[0]: float(row[1]) for row in rows},
            "cache_cold_seconds": float(cold_time),
            "cache_warm_seconds": float(warm_time),
            "warm_scans": warm_work["scans"],
            "warm_cache_hits": warm_work["cache_hits"],
        },
    )

    # Bit-identical results whatever the execution strategy or cache state.
    reference = results["serial"]
    for result in results.values():
        assert result.gamma == reference.gamma
        assert [p.scores for p in result.points] == [
            p.scores for p in reference.points
        ]
    # The warm sweep recomputes nothing: no scan at all, and one cache hit
    # per per-measure key (one occupancy result per Δ).
    assert warm_work["scans"] == 0
    assert warm_work["cache_hits"] == len(results["cache-warm"].points)
