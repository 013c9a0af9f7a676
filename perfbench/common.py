"""Shared pieces: cold isolation, timing, append batches, metric output.

Every end-to-end time is kept as a ``(start, end)`` pair of
``speed.now()`` stamps while the run goes and rescaled to the reference
speed at its end (``speed.py``).
"""

from __future__ import annotations

import resource
import statistics

import numpy as np

import speed

#: End-to-end metric names and units, in ``BENCHMARK.json`` order.
END_TO_END = {
    "setup_s": "s",
    "analyze_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
    "cold_p50_ms": "ms",
    "warm_p50_ms": "ms",
    "warm_p95_ms": "ms",
    "append_p50_ms": "ms",
    "requests_per_s": "1/s",
}

#: Per-layer metric names and units (the traced run).
PER_LAYER = {
    "temporal.scan_s": "s",
    "temporal.scan_share": "frac",
    "temporal.scan_calls": "count",
    "temporal.windows": "count",
    "temporal.rows": "count",
    "temporal.batches": "count",
    "temporal.rows_per_window": "count",
    "temporal.checkpoints": "count",
    "temporal.checkpoint_s": "s",
    "engine.incremental.store_mb": "MB",
    "engine.incremental.records": "count",
    "engine.incremental.resumes": "count",
    "engine.incremental.splices": "count",
    "graphseries.aggregate_s": "s",
    "graphseries.aggregate_share": "frac",
    "graphseries.aggregate_calls": "count",
    "engine.measures.finalize_s": "s",
    "engine.measures.payload_s": "s",
    "core.select_s": "s",
    "core.summary_s": "s",
    "engine.cache.gets": "count",
    "engine.cache.hit_ratio": "frac",
    "engine.cache.get_ms": "ms",
    "engine.cache.put_ms": "ms",
    "engine.scheduler.run_s": "s",
    "engine.jobs.wait_ms": "ms",
    "engine.jobs.run_ms": "ms",
    "engine.jobs.coalesced": "count",
    "engine.jobs.retained": "count",
    "service.http_ms": "ms",
    "service.streams": "count",
    "linkstream.parse_s": "s",
    "storage.slice_s": "s",
    "storage.partitions_opened": "count",
    "trace.overhead_frac": "frac",
}

#: Setups per run; ``setup_s`` is their median.
SETUP_REPEATS = 21


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setup(build, repeats: int = SETUP_REPEATS, discard=None):
    """Run ``build()`` ``repeats`` times; (median reference seconds, last result).

    ``discard``, if given, releases each earlier result, untimed.
    """
    intervals = []
    result = None
    for _ in range(repeats):
        if result is not None and discard is not None:
            discard(result)
        speed.probe()
        start = speed.now()
        result = build()
        intervals.append((start, speed.now()))
    speed.probe()
    return statistics.median(speed.seconds(i) for i in intervals), result


def ref_seconds(intervals) -> list[float]:
    """``(start, end)`` pairs of ``speed.now()`` stamps as durations at
    the reference speed."""
    return [speed.seconds(i) for i in intervals]


def isolate_cold():
    """Drop every process-wide cache a cold analysis could reuse."""
    from repro.engine.incremental import clear_incremental_store
    from repro.graphseries.aggregation import clear_aggregate_cache

    clear_incremental_store()
    clear_aggregate_cache()


def reuse_counters() -> dict:
    """Snapshot of the library's reuse counters (read between operations)."""
    from repro.engine.incremental import INCREMENTAL_COUNTS
    from repro.graphseries.aggregation import AGGREGATION_COUNTS

    return {
        "resumes": INCREMENTAL_COUNTS["resumes"],
        "splices": INCREMENTAL_COUNTS["splices"],
        "aggregate_splices": AGGREGATION_COUNTS["incremental"],
    }


def scan_counters() -> dict:
    """Snapshot of the scan kernels' work tallies, summed over kernels."""
    from repro.storage import STORAGE_COUNTS
    from repro.temporal.reachability import SCAN_BATCHES, SCAN_ROWS, SCAN_WINDOWS

    return {
        "windows": sum(SCAN_WINDOWS.values()),
        "rows": sum(SCAN_ROWS.values()),
        "batches": sum(SCAN_BATCHES.values()),
        "partitions_opened": STORAGE_COUNTS["partitions_opened"],
    }


def append_batch(stream, rng: np.random.Generator, fraction: float = 0.01):
    """An in-order batch of ~``fraction`` of the stream's events, spread
    over the next ``fraction`` of its span, between existing nodes."""
    count = max(10, int(stream.num_events * fraction))
    start = int(stream.t_max) + 1
    width = max(int(stream.span * fraction), count)
    times = np.sort(rng.integers(start, start + width, count))
    n = stream.num_nodes
    u = rng.integers(0, n, count)
    v = (u + 1 + rng.integers(0, n - 1, count)) % n
    return list(zip(u.tolist(), v.tolist(), times.tolist()))


def percentile_ms(samples_s, q: float) -> float:
    """The ``q``-th percentile in ms; 0 when a failed run took no samples."""
    if not samples_s:
        return 0.0
    return float(np.percentile(np.asarray(samples_s), q)) * 1e3


def median_ms(samples_s) -> float:
    return percentile_ms(samples_s, 50)


def end_to_end(values: dict) -> dict:
    return {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit in END_TO_END.items()
    }


def per_layer(values: dict) -> dict:
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in PER_LAYER.items()
    }


def layer_metrics(tracer, scan_delta: dict, analysis_s: float) -> dict:
    """Per-layer numbers from a finished traced run.

    ``scan_delta`` holds the scan-kernel and storage tallies over the
    run (:func:`scan_counters` differences); ``analysis_s`` is the base
    of the two shares: the time of the operations that scan.
    """
    own = tracer.self_times()
    total = tracer.total_times()
    counts = tracer.counts
    samples = tracer.samples
    gets = counts["engine.cache.gets"]
    puts = counts["engine.cache.puts"]
    windows = scan_delta["windows"]
    scan_total = total.get("temporal.scan", 0.0)
    return {
        "temporal.scan_s": own.get("temporal.scan", 0.0),
        "temporal.scan_share": scan_total / analysis_s if analysis_s else 0.0,
        "temporal.scan_calls": counts["temporal.scan_calls"],
        "temporal.windows": windows,
        "temporal.rows": scan_delta["rows"],
        "temporal.batches": scan_delta["batches"],
        "temporal.rows_per_window": scan_delta["rows"] / windows if windows else 0.0,
        "temporal.checkpoints": counts["temporal.checkpoints"],
        "temporal.checkpoint_s": total.get("temporal.checkpoint", 0.0),
        "engine.incremental.records": counts["engine.incremental.records"],
        "engine.incremental.resumes": counts["engine.incremental.resumes"],
        "engine.incremental.splices": counts["engine.incremental.splices"],
        "graphseries.aggregate_s": total.get("graphseries.aggregate", 0.0),
        "graphseries.aggregate_share": (
            total.get("graphseries.aggregate", 0.0) / analysis_s if analysis_s else 0.0
        ),
        "graphseries.aggregate_calls": counts["graphseries.aggregate_calls"],
        "engine.measures.finalize_s": own.get("engine.measures.finalize", 0.0),
        "engine.measures.payload_s": own.get("engine.measures.payload", 0.0),
        "core.select_s": own.get("core.select", 0.0),
        "core.summary_s": own.get("core.summary", 0.0),
        "engine.cache.gets": gets,
        "engine.cache.hit_ratio": counts["engine.cache.hits"] / gets if gets else 0.0,
        "engine.cache.get_ms": total.get("engine.cache.get", 0.0) / gets * 1e3 if gets else 0.0,
        "engine.cache.put_ms": total.get("engine.cache.put", 0.0) / puts * 1e3 if puts else 0.0,
        "engine.scheduler.run_s": own.get("engine.scheduler", 0.0),
        "engine.jobs.wait_ms": (
            statistics.median(samples["engine.jobs.wait_ms"])
            if samples["engine.jobs.wait_ms"] else 0.0
        ),
        "engine.jobs.run_ms": (
            statistics.median(samples["engine.jobs.run_ms"])
            if samples["engine.jobs.run_ms"] else 0.0
        ),
        "engine.jobs.coalesced": counts["engine.jobs.coalesced"],
        "service.http_ms": (
            statistics.median(samples["service.http_ms"])
            if samples["service.http_ms"] else 0.0
        ),
        "linkstream.parse_s": total.get("linkstream.parse", 0.0),
        "storage.slice_s": total.get("storage.slice", 0.0),
        "storage.partitions_opened": scan_delta["partitions_opened"],
    }


def out_dir():
    """Output directory (traces, temporary files) inside the benchmark's tree."""
    from pathlib import Path

    out = Path(__file__).resolve().parent / "out"
    out.mkdir(exist_ok=True)
    return out


def trace_path(workload: str, seed: int):
    return out_dir() / f"trace-{workload}-seed{seed}.json"
