"""The offline workloads: ``replicas-cold`` and ``dense-fused``.

Both run the serial engine in this process.  A run is a fixed plan:
for each stream in turn,

1. **cold** — the stream's analysis with every reusable state dropped
   first (incremental store, aggregate memo, a fresh ``SweepCache``);
   the reuse counters must not move and the cache must not hit;
2. **append** — ``Plan.appends`` batches of ~1% more events appended
   in order (``LinkStream.extend``):

   * ``dense-fused`` (``Plan.reanalyze``): each batch grows the previous
     version, which is analysed on the parent's Δ grid, resuming the
     previous version's checkpointed scans; afterwards a **cold**
     analysis of each grown version both adds a cold sample and is the
     from-scratch check of that append's result;
   * ``replicas-cold``: the write alone (``extend`` and the grown
     stream's fingerprint), each batch on the parent and checked
     against a from-scratch build.  Re-analysing a grown replica does
     not resume (README.md), so it would only be one more cold analysis;

then **warm**: ``WARM_REPEATS`` rounds, each repeating every stream's
analysis once through the engine of its cold analysis, served by its
sweep cache.  Taken in rounds, each stream's samples spread over the
whole warm phase instead of a burst of a second or two.  If the plan
ends before ``--seconds``, warm rounds continue until then.

Latency metrics are per stream, summed over the stream set (README.md),
each operation's time rescaled to the reference speed (``speed.py``).
"""

from __future__ import annotations

import contextlib
import gc
import statistics
import time
from dataclasses import dataclass

import numpy as np

from common import (
    append_batch,
    isolate_cold,
    layer_metrics,
    median_ms,
    peak_rss_mb,
    percentile_ms,
    ref_seconds,
    reuse_counters,
    scan_counters,
    timed_setup,
    trace_path,
)
from oracle import digest
from spans import Tracer, instrument, overhead_frac
import speed



@dataclass
class Plan:
    """One stream, its analysis arguments, and how it is appended to."""

    name: str
    stream: object
    kwargs: dict
    appends: int
    #: Re-analyse each grown version (else time the write alone).
    reanalyze: bool


#: Warm repeats per stream: its p95 then has ten samples beyond it.
WARM_REPEATS = 200
REPLICAS = ("irvine", "facebook", "enron", "manufacturing")


def replicas_plans(seed: int) -> list[Plan]:
    from repro.datasets.registry import load

    return [
        Plan(
            name,
            load(name, scale="paper", seed=seed),
            {"num_deltas": 28},
            appends=25,
            reanalyze=False,
        )
        for name in REPLICAS
    ]


def dense_plans(seed: int) -> list[Plan]:
    from repro.generators.uniform import time_uniform_stream

    stream = time_uniform_stream(600, 1, 100000.0, seed=seed)
    span = stream.t_max - stream.t_min
    deltas = np.array([span / k for k in (128, 64, 32)])
    return [
        Plan(
            "dense",
            stream,
            {"deltas": deltas, "measures": ("occupancy", "classical")},
            appends=2,
            reanalyze=True,
        )
    ]


def _analyze(stream, kwargs, engine):
    from repro.core.report import analyze_stream

    return analyze_stream(stream, validate=False, engine=engine, **kwargs)


def _fresh_engine():
    from repro.engine import SweepCache, SweepEngine

    return SweepEngine("serial", cache=SweepCache())


class OfflineRun:
    """Executes the plans; keeps every timing and feeds the checker."""

    def __init__(self, seed: int, checker, tracer=None) -> None:
        self.seed = seed
        self.checker = checker
        self.tracer = tracer
        #: Per stream name: cold (its grown version's included), warm and
        #: append operations as ``(start, end)`` pairs of ``speed.now()``
        #: stamps.
        self.cold: dict[str, list[tuple]] = {}
        self.warm: dict[str, list[tuple]] = {}
        self.appends: dict[str, list[tuple]] = {}
        self.ops: list[tuple] = []
        #: Time of the operations that scan (cold, re-analysing appends):
        #: the base of the traced layer shares.
        self.scan_ops_s = 0.0
        self.store_mb = 0.0
        self.engines: list[tuple[Plan, object]] = []

    def _timed(self, kind, fn, scans: bool = False):
        span = self.tracer.span(f"op.{kind}") if self.tracer else contextlib.nullcontext()
        with span:
            start = speed.now()
            result = fn()
            interval = (start, speed.now())
        self.ops.append(interval)
        if scans:
            self.scan_ops_s += speed.wall(interval)
        return result, interval

    def _note_store(self) -> None:
        from repro.engine.incremental import incremental_stats

        self.store_mb = max(self.store_mb, incremental_stats()["nbytes"] / 2**20)

    def cold_op(self, label, stream, kwargs):
        """One isolated cold analysis; returns (digest or None, engine)."""
        isolate_cold()
        gc.collect()
        engine = _fresh_engine()
        before = reuse_counters()
        report, interval = self._timed(
            "cold", lambda: _analyze(stream, kwargs, engine), scans=True
        )
        self._note_store()
        reused = reuse_counters() != before
        value = digest(report)
        matches = self.checker.reference_ok(label, value)
        ok = self.checker.record(
            not reused and engine.cache.hits == 0 and matches,
            f"cold {label}: reused={reused} cache hits={engine.cache.hits} "
            f"reference match={matches}",
        )
        self.cold.setdefault(label.split("+")[0], []).append(interval)
        return (value if ok else None), engine

    def warm_op(self, plan: Plan, engine, expected) -> None:
        report, interval = self._timed(
            "warm", lambda: _analyze(plan.stream, plan.kwargs, engine)
        )
        self.warm.setdefault(plan.name, []).append(interval)
        self.checker.record(
            expected is not None and digest(report) == expected,
            f"warm {plan.name} differs from its cold analysis",
        )

    def reanalyze_appends(self, plan: Plan, engine, parent, rng) -> None:
        """Grow the stream ``plan.appends`` times by ~1%, analysing each
        version on the parent's grid; then check each from scratch."""
        kwargs = {k: v for k, v in plan.kwargs.items() if k != "num_deltas"}
        kwargs["deltas"] = np.array([float(d) for d in parent.deltas])
        stream = plan.stream
        grown_versions = []
        for _ in range(plan.appends):
            batch = append_batch(stream, rng)

            def grow_and_analyze(stream=stream, batch=batch):
                grown = stream.extend(batch)
                return grown, _analyze(grown, kwargs, engine)

            (stream, report), interval = self._timed("append", grow_and_analyze, scans=True)
            self._note_store()
            self.appends.setdefault(plan.name, []).append(interval)
            grown_versions.append((stream, digest(report)))
            del report
        for number, (grown, appended) in enumerate(grown_versions, 1):
            label = f"{plan.name}+append" + (str(number) if number > 1 else "")
            scratch, _ = self.cold_op(label, grown, kwargs)
            self.checker.record(
                scratch is not None and appended == scratch,
                f"append {number} on {plan.name} differs from a from-scratch analysis",
            )

    def write_append_op(self, plan: Plan, rng) -> None:
        """Append ~1% events; check the grown stream against a fresh build."""
        from repro.linkstream import LinkStream

        stream = plan.stream
        batch = append_batch(stream, rng)

        def grow():
            grown = stream.extend(batch)
            grown.fingerprint()
            return grown

        grown, interval = self._timed("append", grow)
        self.appends.setdefault(plan.name, []).append(interval)
        u, v, t = (np.asarray(column) for column in zip(*batch))
        scratch = LinkStream(
            np.concatenate([stream.sources, u]),
            np.concatenate([stream.targets, v]),
            np.concatenate([stream.timestamps, t.astype(stream.timestamps.dtype)]),
            directed=stream.directed,
            num_nodes=stream.num_nodes,
        )
        self.checker.record(
            grown.num_events == stream.num_events + len(batch)
            and grown.fingerprint() == scratch.fingerprint(),
            f"append on {plan.name} differs from a from-scratch build",
        )

    def run(self, plans: list[Plan], seconds: float, warm: int = WARM_REPEATS) -> None:
        started = time.perf_counter()
        rng = np.random.default_rng([self.seed, 1])
        expected = {}
        for plan in plans:
            value, engine = self.cold_op(plan.name, plan.stream, plan.kwargs)
            expected[plan.name] = value
            self.engines.append((plan, engine))
            if plan.reanalyze:
                if value is not None:
                    self.reanalyze_appends(plan, engine, value, rng)
            else:
                for _ in range(plan.appends):
                    self.write_append_op(plan, rng)
        gc.collect()
        rounds = 0
        while rounds < warm or time.perf_counter() - started < seconds:
            for plan, engine in self.engines:
                self.warm_op(plan, engine, expected[plan.name])
            rounds += 1
        isolate_cold()

    def metrics(self, setup_s: float) -> dict:
        """End-to-end values.  Cold time is summed over the stream set of
        each stream's median; warm and append latencies likewise, so a
        figure never sits on the boundary between two streams' costs."""

        cold, warm, appends = (
            {name: ref_seconds(intervals) for name, intervals in samples.items()}
            for samples in (self.cold, self.warm, self.appends)
        )

        def summed_ms(samples, q):
            return sum(percentile_ms(times, q) for times in samples.values())

        cold_all = [t for times in cold.values() for t in times]
        return {
            "setup_s": setup_s,
            "analyze_s": sum(statistics.median(t) for t in cold.values()),
            "peak_rss_mb": peak_rss_mb(),
            "ok_frac": self.checker.ok_frac,
            "cold_p50_ms": median_ms(cold_all),
            "warm_p50_ms": summed_ms(warm, 50),
            "warm_p95_ms": summed_ms(warm, 95),
            "append_p50_ms": summed_ms(appends, 50),
            "requests_per_s": len(self.ops) / sum(ref_seconds(self.ops)),
        }


def run_offline(workload: str, seed: int, seconds: float, checker, trace: bool):
    """Run one offline workload; returns (end-to-end values, layer values)."""
    build = replicas_plans if workload == "replicas-cold" else dense_plans
    setup_s, plans = timed_setup(lambda: build(seed))
    tracer = Tracer() if trace else None
    restore = instrument(tracer) if trace else (lambda: None)
    scans_before = scan_counters()
    run = OfflineRun(seed, checker, tracer)
    try:
        run.run(plans, seconds)
    finally:
        restore()
    values = run.metrics(setup_s)
    if not trace:
        return values, None
    scans_after = scan_counters()
    delta = {k: scans_after[k] - scans_before[k] for k in scans_after}
    layers = layer_metrics(tracer, delta, run.scan_ops_s)
    layers["engine.incremental.store_mb"] = run.store_mb
    plan, engine = run.engines[0]
    layers["trace.overhead_frac"] = overhead_frac(
        lambda: _analyze(plan.stream, plan.kwargs, engine)
    )
    tracer.write_chrome_trace(trace_path(workload, seed))
    return values, layers
