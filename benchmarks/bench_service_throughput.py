"""Ablation — analysis-service throughput and latency.

Drives a real ``repro serve`` daemon (ephemeral port, in-process) over
HTTP through :class:`~repro.service.ServiceClient` and measures three
request regimes:

* cold — distinct analyses, every one computed from scratch;
* warm — the same analyses repeated, served entirely from the engine
  cache (zero scans on the daemon side);
* coalesced — N identical concurrent requests for an uncached analysis,
  all attached to one in-flight computation.

Reported per regime: requests/second, p50/p99 latency, wall-clock.
Whatever the timings, two invariants must hold: a warm request is
faster than a cold one at the median, and the N-request coalesced burst
finishes in far less than N times a single cold request.  The warm
phase is also gated on work counters, not clocks: it performs zero
scans and zero ``inter_contact_times`` passes (the stream summary is
computed once per stream, on its first analysis), and the daemon accepts
zero new connections during it (read from ``/v1/health``: the client's
keep-alive connection carries every request).  The coalesced burst
opens exactly one connection per client thread.  The run also
smoke-tests the daemon lifecycle end to end: start, upload, submit,
poll, fetch, shutdown.
"""

from __future__ import annotations

import threading
from time import perf_counter

from _harness import emit

from repro.generators import time_uniform_stream
from repro.linkstream import statistics, write_tsv
from repro.reporting import render_table
from repro.service import AnalysisService, ServiceClient
from repro.service.daemon import ServiceServer
from repro.temporal.reachability import SCAN_COUNTS

N_COLD = 10
N_COALESCED = 8


def _percentile(samples, q: float) -> float:
    ordered = sorted(samples)
    index = round(q / 100 * (len(ordered) - 1))
    return ordered[index]


def _run_requests(client, fingerprint, grids, *, concurrent=False):
    """One analyze (submit + long-poll fetch) per grid size; returns the
    per-request latencies and the overall wall-clock."""
    latencies = [0.0] * len(grids)

    def one(index: int, num_deltas: int) -> None:
        start = perf_counter()
        job = client.analyze(fingerprint, num_deltas=num_deltas)
        client.fetch(job["job_id"], wait=300)
        latencies[index] = perf_counter() - start

    wall_start = perf_counter()
    if concurrent:
        threads = [
            threading.Thread(target=one, args=(i, g)) for i, g in enumerate(grids)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    else:
        for index, grid in enumerate(grids):
            one(index, grid)
    return latencies, perf_counter() - wall_start


def test_service_throughput(benchmark, capsys, tmp_path, monkeypatch):
    cold_file = tmp_path / "cold.tsv"
    burst_file = tmp_path / "burst.tsv"
    write_tsv(time_uniform_stream(24, 8, 12000.0, seed=7), cold_file)
    # The burst targets its own stream so nothing from the cold phase is
    # cached: the coalesced requests genuinely need a fresh computation.
    write_tsv(time_uniform_stream(24, 8, 12000.0, seed=8), burst_file)

    service = AnalysisService(jobs=2, runners=4, max_pending=64)
    server = ServiceServer(("127.0.0.1", 0), service)
    server_thread = threading.Thread(target=server.serve_forever, daemon=True)
    server_thread.start()
    client = ServiceClient(
        f"http://127.0.0.1:{server.server_address[1]}", timeout=300
    )
    gap_passes = [0]
    gaps = statistics.inter_contact_times

    def counted_gaps(stream):
        gap_passes[0] += 1
        return gaps(stream)

    monkeypatch.setattr(statistics, "inter_contact_times", counted_gaps)

    def accepted() -> int:
        return client.health()["connections"]["accepted"]

    def scenario():
        fingerprint = client.upload_stream(str(cold_file))
        grids = [8 + i for i in range(N_COLD)]
        before_cold = accepted()
        cold, cold_wall = _run_requests(client, fingerprint, grids)
        before_warm = accepted()
        scans, passes = sum(SCAN_COUNTS.values()), gap_passes[0]
        warm, warm_wall = _run_requests(client, fingerprint, grids)
        warm_work = {
            "scans": sum(SCAN_COUNTS.values()) - scans,
            "inter_contact_passes": gap_passes[0] - passes,
        }
        burst_fp = client.upload_stream(str(burst_file))
        before_burst = accepted()
        burst, burst_wall = _run_requests(
            client, burst_fp, [12] * N_COALESCED, concurrent=True
        )
        health = client.health()
        connections = {
            "cold": before_warm - before_cold,
            "warm": before_burst - before_warm,
            "coalesced": health["connections"]["accepted"] - before_burst,
        }
        return (
            cold, cold_wall, warm, warm_wall, warm_work, burst, burst_wall,
            health["queue"], connections,
        )

    try:
        (
            cold, cold_wall, warm, warm_wall, warm_work, burst, burst_wall, stats,
            connections,
        ) = benchmark.pedantic(scenario, rounds=1, iterations=1)
        shutdown = client.shutdown()
        server_thread.join(timeout=30)
    finally:
        client.close()
        server.server_close()
        service.close()

    rows = [
        [
            label,
            len(latencies),
            len(latencies) / wall,
            _percentile(latencies, 50) * 1e3,
            _percentile(latencies, 99) * 1e3,
            wall,
            connections[key],
        ]
        for key, label, latencies, wall in (
            ("cold", "cold (distinct grids)", cold, cold_wall),
            ("warm", "warm (cache hits)", warm, warm_wall),
            (
                "coalesced",
                f"coalesced ({N_COALESCED} identical, concurrent)",
                burst,
                burst_wall,
            ),
        )
    ]
    table = render_table(
        ["regime", "requests", "req_per_s", "p50_ms", "p99_ms", "wall_s", "connections"],
        rows,
        title=(
            f"Ablation — service throughput (runners=4, "
            f"coalesced={stats['coalesced']}, submitted={stats['submitted']})"
        ),
    )
    emit(
        capsys,
        "ablation_service_throughput",
        table,
        data={
            "runners": 4,
            "coalesced": int(stats["coalesced"]),
            "submitted": int(stats["submitted"]),
            "regimes": {
                "cold": {
                    "requests": len(cold),
                    "connections_accepted": connections["cold"],
                    "wall_seconds": float(cold_wall),
                    "p50_ms": float(_percentile(cold, 50) * 1e3),
                    "p99_ms": float(_percentile(cold, 99) * 1e3),
                },
                "warm": {
                    "requests": len(warm),
                    "connections_accepted": connections["warm"],
                    "scans": warm_work["scans"],
                    "inter_contact_passes": warm_work["inter_contact_passes"],
                    "wall_seconds": float(warm_wall),
                    "p50_ms": float(_percentile(warm, 50) * 1e3),
                    "p99_ms": float(_percentile(warm, 99) * 1e3),
                },
                "coalesced": {
                    "requests": len(burst),
                    "connections_accepted": connections["coalesced"],
                    "wall_seconds": float(burst_wall),
                    "p50_ms": float(_percentile(burst, 50) * 1e3),
                    "p99_ms": float(_percentile(burst, 99) * 1e3),
                },
            },
        },
    )

    # Lifecycle smoke: the daemon answered every request and shut down
    # cleanly on demand.
    assert shutdown["status"] == "shutting down"
    assert not server_thread.is_alive()
    assert stats["failed"] == 0 and stats["cancelled"] == 0
    # A warm request never recomputes: it must beat cold at the median,
    # and it does no scan and no inter-contact pass (counter-gated).
    assert _percentile(warm, 50) < _percentile(cold, 50)
    assert warm_work == {"scans": 0, "inter_contact_passes": 0}
    # Keep-alive, counter-gated: one client's requests ride its one open
    # connection (no new connection in the cold or warm phase), and the
    # burst's threads open one connection each.
    assert connections == {"cold": 0, "warm": 0, "coalesced": N_COALESCED}
    # Coalescing: N identical concurrent requests cost one computation,
    # not N — far under N times a single cold request.
    assert burst_wall < N_COALESCED * _percentile(cold, 50)
