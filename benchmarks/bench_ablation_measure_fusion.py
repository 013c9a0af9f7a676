"""Ablation — fusing per-Δ measure evaluations into one scan.

The occupancy method and the classical-parameter comparison both reduce
to "aggregate at Δ, run the backward scan, score" — yet evaluating them
as separate sweeps pays one full ``O(nM)`` scan per *measure kind* per
grid point.  The engine's fused measure pipeline aggregates once and
scans once per Δ, feeding every measure's collector from the same pass.
This bench pins the claims on an occupancy + classical sweep:

* scan count — the fused sweep must perform exactly one backward scan
  and one aggregation per Δ, against two scans (and up to two
  aggregations) per Δ for the dedicated per-measure sweeps;
* wall time — recorded for both pipelines, not gated: the fused
  pipeline's accumulator forces one-window runs, so its margin over two
  scans is a few percent, inside a shared runner's noise.  The exact
  scan and aggregation counts carry the claim;
* bit-identity — fused results must equal the dedicated single-measure
  sweeps exactly: γ, scores, distributions, snapshot means, and distance
  statistics alike.

The scan-count and bit-identity assertions always apply.
"""

from __future__ import annotations

from time import perf_counter

from _harness import emit

from repro.core import classical_sweep, log_delta_grid, occupancy_method
from repro.engine import SweepEngine
from repro.graphseries.aggregation import AGGREGATION_COUNTS, clear_aggregate_cache
from repro.reporting import render_table
from repro.temporal.reachability import SCAN_COUNTS


def _counters() -> tuple[int, int]:
    return SCAN_COUNTS["series"], AGGREGATION_COUNTS["aggregate"]


def _assert_identical(fused, occ_reference, cls_reference):
    assert fused.gamma == occ_reference.gamma
    for pa, pb in zip(fused.points, occ_reference.points):
        assert pa.scores == pb.scores
        assert pa.num_trips == pb.num_trips
        assert pa.distribution.values.tolist() == pb.distribution.values.tolist()
        assert pa.distribution.weights.tolist() == pb.distribution.weights.tolist()
    for ca, cb in zip(fused.companions["classical"], cls_reference.points):
        assert ca.snapshot == cb.snapshot
        assert ca.distances == cb.distances


def test_measure_fusion_ablation(benchmark, capsys, irvine_stream):
    deltas = log_delta_grid(irvine_stream, num=10)

    def compare():
        # Best of two rounds per pipeline for the recorded timings; scan
        # counters are read on the final round only (cache off on both
        # sides, so every round is pure compute).
        separate_times, fused_times = [], []
        for _ in range(2):
            # Per-measure path: one dedicated sweep per measure kind,
            # each with its own aggregation + scan per Δ.
            clear_aggregate_cache()
            s0, a0 = _counters()
            start = perf_counter()
            occ = occupancy_method(
                irvine_stream, deltas=deltas, engine=SweepEngine(cache=None)
            )
            cls = classical_sweep(
                irvine_stream, deltas, engine=SweepEngine(cache=None)
            )
            separate_times.append(perf_counter() - start)
            s1, a1 = _counters()
            separate_scans, separate_aggs = s1 - s0, a1 - a0

            clear_aggregate_cache()
            start = perf_counter()
            fused = occupancy_method(
                irvine_stream,
                deltas=deltas,
                measures=("classical",),
                engine=SweepEngine(cache=None),
            )
            fused_times.append(perf_counter() - start)
            s2, a2 = _counters()
            fused_scans, fused_aggs = s2 - s1, a2 - a1

            _assert_identical(fused, occ, cls)
        return {
            "separate": (min(separate_times), separate_scans, separate_aggs),
            "fused": (min(fused_times), fused_scans, fused_aggs),
        }

    timings = benchmark.pedantic(compare, rounds=1, iterations=1)
    rows = [
        [label, *timings[label]] for label in ("separate", "fused")
    ]
    table = render_table(
        ["pipeline", "wall_seconds", "backward_scans", "aggregations"],
        rows,
        title=(
            f"Ablation — measure fusion (occupancy + classical, "
            f"{len(deltas)} deltas, {irvine_stream.num_events} events)"
        ),
    )
    fused_time, fused_scans, fused_aggs = timings["fused"]
    separate_time, separate_scans, separate_aggs = timings["separate"]
    emit(
        capsys,
        "ablation_measure_fusion",
        table,
        data={
            "num_deltas": len(deltas),
            "num_events": irvine_stream.num_events,
            "separate_seconds": float(separate_time),
            "separate_scans": int(separate_scans),
            "separate_aggregations": int(separate_aggs),
            "fused_seconds": float(fused_time),
            "fused_scans": int(fused_scans),
            "fused_aggregations": int(fused_aggs),
            "speedup": float(separate_time / fused_time),
        },
    )
    # The acceptance claims: exactly one scan and one aggregation per Δ
    # fused, against one per measure kind separate.
    assert fused_scans == len(deltas)
    assert fused_aggs == len(deltas)
    assert separate_scans == 2 * len(deltas)
    assert fused_scans < separate_scans
