"""The ``daemon-mixed`` workload: an in-process daemon under mixed traffic.

Set-up (timed, repeated; ``setup_s`` is the median) ingests the facebook
replica into a temporary partitioned catalog, starts ``ServiceServer``
over ``AnalysisService(jobs=2, runners=2)`` on a free localhost port,
uploads a small synthetic stream (``POST /v1/streams``) and registers
the catalog dataset (``POST /v1/datasets``).  Each stream's first
analysis is cold.

Two closed-loop clients (each sends its next request only after the
previous one returned) then run a fixed plan in lockstep, one step at a
time, of three kinds:

* **cold** — client A analyses facebook on a grid size never requested
  before (``COLD_GRIDS``) while client B waits;
* **append** — client B appends to the synthetic stream
  (``POST /v1/append``) and analyses the grown stream while client A
  sends ``BACKGROUND_WARM["append"]`` warm requests;
  ``APPENDS_PER_COLD`` of these follow each cold step;
* **warm block** — both clients send ``BLOCK_REQUESTS`` warm requests
  each; one block follows every cold and every append step, so the warm
  samples are spread over the whole run.

``cold_p50_ms`` and ``append_p50_ms`` come from the cold and append
steps.  ``warm_p50_ms``, ``warm_p95_ms`` and ``requests_per_s`` are the
medians over the warm blocks of each block's p50, p95 and throughput,
so a slow second of the machine moves one block, not the figure; every
time is rescaled to the reference speed (``speed.py``).  Warm
requests beside an append are checked but not timed: they wait on the
interpreter lock and spread too widely to gate on.

Client A's warm requests target the synthetic stream, client B's the
facebook replica.  After the plan, untimed checks compare every response
text with offline ``render_analysis`` of the same stream (appends: a
from-scratch build of the grown stream).
"""

from __future__ import annotations

import contextlib
import shutil
import statistics
import tempfile
import threading
import time

import numpy as np

from common import (
    append_batch,
    isolate_cold,
    layer_metrics,
    median_ms,
    out_dir,
    peak_rss_mb,
    percentile_ms,
    ref_seconds,
    scan_counters,
    timed_setup,
    trace_path,
)
from oracle import text_digest
from spans import Tracer, instrument, overhead_frac
import speed

#: Grid size of the warm repeats, per stream.
WARM_GRID = {"facebook": 6, "synthetic": 10}
#: The stream each client's warm requests target.  Fixed per client so
#: the two never ask for the same analysis at once: coalescing would
#: make latencies depend on how the clients happen to interleave.
WARM_STREAM = {"A": "synthetic", "B": "facebook"}
#: Grid sizes of client A's cold facebook analyses (never requested
#: before); client B makes ``APPENDS_PER_COLD`` appends to the synthetic
#: stream after each (``append_p50_ms`` is a median over 12).
COLD_GRIDS = (7, 8, 9, 10, 11, 12)
APPENDS_PER_COLD = 2
APPENDS = APPENDS_PER_COLD * len(COLD_GRIDS)
#: The client that runs each kind of step; the other sends warm requests.
OWNER = {"cold": "A", "append": "B"}
#: Warm requests the idle client sends during each cold or append step.
#: None beside a cold scan: how much of the core 20 warm requests took
#: from it varied with how their threads interleaved, and daemon
#: ``cold_p50_ms`` spread 15-19% over runs with them, 6% without.
BACKGROUND_WARM = {"cold": 0, "append": 20}
#: Warm requests per client in each warm block (200 a block: its p95
#: has ten samples beyond it).
BLOCK_REQUESTS = 100
#: Synthetic stream: nodes, links per pair, span (seconds).
SYNTHETIC = (20, 3, 20000.0)


def _label_rows(u, v, t) -> list[list]:
    return [[f"n{a}", f"n{b}", float(c)] for a, b, c in zip(u, v, t)]


def _synthetic(seed: int):
    """The synthetic stream's event text and ``APPENDS`` in-order batches
    of ``[u, v, t]`` label triples (``append_batch`` on the growing stream)."""
    from repro.generators.uniform import time_uniform_stream

    stream = time_uniform_stream(*SYNTHETIC, seed=seed)
    rows = _label_rows(stream.sources.tolist(), stream.targets.tolist(), stream.timestamps.tolist())
    text = "".join(f"{u}\t{v}\t{t}\n" for u, v, t in rows)
    rng = np.random.default_rng([seed, 2])
    batches = []
    for _ in range(APPENDS):
        batch = append_batch(stream, rng)
        batches.append(_label_rows(*zip(*batch)))
        stream = stream.extend(batch)
    return text, batches


class Daemon:
    """One daemon instance with both streams registered."""

    def __init__(self, seed: int) -> None:
        from repro.datasets.catalog import ingest_stream
        from repro.datasets.registry import load
        from repro.service import AnalysisService, ServiceClient
        from repro.service.daemon import ServiceServer

        self.root = tempfile.mkdtemp(prefix="catalog-", dir=out_dir())
        ingest_stream(load("facebook", scale="paper", seed=seed), "facebook", root=self.root)
        self.text, self.batches = _synthetic(seed)
        self.service = AnalysisService(jobs=2, runners=2)
        self.server = ServiceServer(("127.0.0.1", 0), self.service)
        # A short poll interval lets close() return at once instead of
        # after up to half a second (the default), once per set-up.
        self.thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self.thread.start()
        self.url = f"http://127.0.0.1:{self.server.server_address[1]}"
        client = ServiceClient(self.url, timeout=120.0)
        self.fingerprints = {
            "synthetic": client.upload_stream_bytes(self.text.encode(), directed=False),
            "facebook": client.register_dataset("facebook", root=self.root),
        }

    def client(self):
        from repro.service import ServiceClient

        return ServiceClient(self.url, timeout=120.0)

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=30)
        self.service.close()
        shutil.rmtree(self.root, ignore_errors=True)


class Phase:
    """The two clients' plan, their timings and every response text."""

    def __init__(self, daemon: Daemon, tracer) -> None:
        self.daemon = daemon
        self.tracer = tracer
        self.lock = threading.Lock()
        #: Per warm block: request intervals, and its first start and
        #: last end.  Every timing is a ``(start, end)`` pair of
        #: ``speed.now()`` stamps.
        self.blocks: list[dict] = []
        self.cold: list[tuple] = []
        self.appends: list[tuple] = []
        self.errors: list[str] = []
        #: (stream key, grid) -> response texts seen.
        self.texts: dict[tuple, list[str]] = {}
        self.synthetic = daemon.fingerprints["synthetic"]
        self.plan: list[tuple] = []
        self.step: tuple | None = None
        self.started = 0.0
        self.seconds = 0.0

    def analyze(self, client, key, fingerprint, grid) -> tuple:
        """One analyze request (submit + long-poll); returns its interval."""
        start = speed.now()
        job = client.analyze(fingerprint, num_deltas=grid)
        result = client.fetch(job["job_id"], wait=120)
        end = speed.now()
        if self.tracer is not None:
            run_s = self.tracer.job_run_seconds(job["job_id"])
            if run_s is not None:
                self.tracer.sample("service.http_ms", (speed.wall((start, end)) - run_s) * 1e3)
        with self.lock:
            self.texts.setdefault((key, grid), []).append(result["text"])
        return start, end

    def warm_op(self, client, key: str) -> tuple:
        return self.analyze(client, key, self.daemon.fingerprints[key], WARM_GRID[key])

    def warm_block(self, client, key: str, number: int) -> None:
        start = speed.now()
        times = [self.warm_op(client, key) for _ in range(BLOCK_REQUESTS)]
        end = speed.now()
        with self.lock:
            block = self.blocks[number]
            block["times"].extend(times)
            block["start"] = min(block["start"], start)
            block["end"] = max(block["end"], end)

    def cold_op(self, client, grid: int) -> None:
        fingerprint = self.daemon.fingerprints["facebook"]
        interval = self.analyze(client, "facebook", fingerprint, grid)
        with self.lock:
            self.cold.append(interval)

    def append_op(self, client, number: int) -> None:
        start = speed.now()
        grown = client.append(self.synthetic, self.daemon.batches[number])
        self.synthetic = grown["fingerprint"]
        self.analyze(client, f"synthetic+{number + 1}", self.synthetic, WARM_GRID["synthetic"])
        with self.lock:
            self.appends.append((start, speed.now()))

    def _request(self, request_id):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.request(request_id)

    def _next_step(self) -> None:
        """Barrier action: a speed probe (no request is in flight), then
        the next step of the plan, then warm blocks until ``seconds``
        have passed, then ``None`` (stop)."""
        speed.probe()
        if self.plan:
            self.step = self.plan.pop(0)
        elif time.perf_counter() - self.started < self.seconds:
            self.step = ("warm", None)
        else:
            self.step = None
            return
        if self.step[0] == "warm":
            self.blocks.append({"times": [], "start": (float("inf"),) * 2, "end": (0.0, 0.0)})
            self.step = ("warm", len(self.blocks) - 1)

    def client_loop(self, name, barrier) -> None:
        client = self.daemon.client()
        key = WARM_STREAM[name]
        count = 0
        try:
            while True:
                barrier.wait()
                if self.step is None:
                    return
                kind, arg = self.step
                with self._request(f"{name}-{count}"):
                    if kind == "warm":
                        self.warm_block(client, key, arg)
                    elif OWNER[kind] != name:
                        for _ in range(BACKGROUND_WARM[kind]):
                            self.warm_op(client, key)
                    elif kind == "cold":
                        self.cold_op(client, arg)
                    else:
                        self.append_op(client, arg)
                count += 1
        except threading.BrokenBarrierError:
            pass
        except Exception as exc:  # a failed request fails the run's checks
            with self.lock:
                self.errors.append(f"client {name}: {type(exc).__name__}: {exc}")
            barrier.abort()

    def run(self, seconds: float) -> None:
        appends = iter(range(APPENDS))
        for grid in COLD_GRIDS:
            self.plan += [("cold", grid), ("warm", None)]
            for _ in range(APPENDS_PER_COLD):
                self.plan += [("append", next(appends)), ("warm", None)]
        self.started = time.perf_counter()
        self.seconds = seconds
        barrier = threading.Barrier(2, action=self._next_step)
        threads = [
            threading.Thread(target=self.client_loop, args=(name, barrier)) for name in ("A", "B")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def warm_figures(self) -> tuple[float, float, float]:
        """Medians over the warm blocks of (p50 ms, p95 ms, requests/s)."""
        blocks = [b for b in self.blocks if b["times"]]
        if not blocks:
            return 0.0, 0.0, 0.0
        times = [ref_seconds(b["times"]) for b in blocks]
        return (
            statistics.median(median_ms(t) for t in times),
            statistics.median(percentile_ms(t, 95) for t in times),
            statistics.median(
                len(b["times"]) / speed.seconds((b["start"], b["end"])) for b in blocks
            ),
        )

    def busy_seconds(self) -> float:
        """Summed (unscaled) time of every timed request: the base of the
        traced layer shares."""
        warm = [i for block in self.blocks for i in block["times"]]
        return sum(speed.wall(i) for i in warm + self.cold + self.appends)


def _offline_texts(phase: Phase, seed: int) -> dict:
    """Offline ``render_analysis`` for every (stream key, grid) answered.

    Built from scratch: the facebook replica generated in memory, the
    synthetic stream and each grown version parsed from its event text.
    """
    from repro.core.report import analyze_stream
    from repro.datasets.registry import load
    from repro.engine import SweepCache, SweepEngine
    from repro.linkstream import read_tsv
    from repro.reporting import render_analysis

    streams = {"facebook": load("facebook", scale="paper", seed=seed)}
    text = phase.daemon.text
    path = out_dir() / "tmp" / f"synthetic-{seed}.tsv"
    for number in range(APPENDS + 1):
        if number:
            text += "".join(f"{u}\t{v}\t{t}\n" for u, v, t in phase.daemon.batches[number - 1])
        path.write_text(text, encoding="utf-8")
        streams["synthetic" if number == 0 else f"synthetic+{number}"] = read_tsv(
            path, directed=False
        )
    path.unlink()
    expected = {}
    for key, grid in sorted(phase.texts):
        isolate_cold()
        report = analyze_stream(
            streams[key],
            validate=False,
            num_deltas=grid,
            engine=SweepEngine("serial", cache=SweepCache()),
        )
        expected[(key, grid)] = render_analysis(report)
    isolate_cold()
    return expected


def run_daemon(seed: int, seconds: float, checker, trace: bool):
    """Run ``daemon-mixed``; returns (end-to-end values, layer values)."""
    tracer = Tracer() if trace else None
    restore = instrument(tracer) if trace else (lambda: None)
    scans_before = scan_counters()
    layers = None
    try:
        setup_s, daemon = timed_setup(lambda: Daemon(seed), discard=Daemon.close)
        try:
            phase = Phase(daemon, tracer)
            prime = daemon.client()
            # Each stream's first analysis is cold; the facebook one joins
            # client A's cold analyses in cold_p50_ms.
            speed.probe()
            primed_synthetic = phase.analyze(
                prime, "synthetic", daemon.fingerprints["synthetic"], WARM_GRID["synthetic"]
            )
            speed.probe()
            phase.cold_op(prime, WARM_GRID["facebook"])
            phase.run(seconds)
            if trace:
                restore()
                layers = _layers(tracer, daemon, phase, scans_before)
                tracer.write_chrome_trace(trace_path("daemon-mixed", seed))
        finally:
            daemon.close()
    finally:
        restore()
    # Read before the offline checks below, whose analyses would raise it.
    rss_mb = peak_rss_mb()

    for error in phase.errors:
        checker.record(False, error)
    expected = _offline_texts(phase, seed)
    for key, texts in sorted(phase.texts.items()):
        want = text_digest(expected[key])
        for text in texts:
            checker.record(
                text_digest(text) == want,
                f"daemon text for {key} differs from offline render_analysis",
            )
    warm_p50, warm_p95, requests_per_s = phase.warm_figures()
    values = {
        "setup_s": setup_s,
        # Every cold analysis: both streams' first and client A's.
        "analyze_s": sum(ref_seconds(phase.cold + [primed_synthetic])),
        "peak_rss_mb": rss_mb,
        "ok_frac": checker.ok_frac,
        "cold_p50_ms": median_ms(ref_seconds(phase.cold)),
        "warm_p50_ms": warm_p50,
        "warm_p95_ms": warm_p95,
        "append_p50_ms": median_ms(ref_seconds(phase.appends)),
        "requests_per_s": requests_per_s,
    }
    return values, layers


def _layers(tracer, daemon: Daemon, phase: Phase, scans_before: dict) -> dict:
    """Per-layer numbers, the retention gauges read at the end, and the
    tracing overhead on one client's warm requests."""
    from repro.engine.incremental import incremental_stats

    scans_after = scan_counters()
    layers = layer_metrics(
        tracer,
        {k: scans_after[k] - scans_before[k] for k in scans_after},
        phase.busy_seconds(),
    )
    layers["engine.incremental.store_mb"] = incremental_stats()["nbytes"] / 2**20
    layers["engine.jobs.retained"] = len(daemon.service.queue.jobs())
    layers["service.streams"] = len(daemon.service.list_streams())
    client = daemon.client()
    fingerprint = daemon.fingerprints["synthetic"]

    def warm_request():
        job = client.analyze(fingerprint, num_deltas=WARM_GRID["synthetic"])
        client.fetch(job["job_id"], wait=120)

    layers["trace.overhead_frac"] = overhead_frac(warm_request)
    return layers
