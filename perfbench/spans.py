"""In-memory span tracing for the benchmark's traced run.

Nothing under ``src/`` knows about this module.  :func:`instrument`
replaces each layer's public entry point *where its caller looks it
up* with a wrapper that records a span and counts work:

* modules bind names with ``from ... import``, so module-level
  functions are patched in the importing module (for example
  ``repro.engine.incremental.scan_series``, which is what the
  incremental session calls);
* methods are patched on the class that defines them
  (``CheckpointRecorder.capture``, ``SweepCache.get``, every
  ``MeasureSpec`` subclass's ``finalize`` / ``series_payload``...).

A span is ``(id, name, start, end, parent, request, thread)``.  Parents
come from a per-thread stack, so a layer's self time is its duration
minus its children's (children run in the same thread).  Requests are
tagged with :meth:`Tracer.request`; a job inherits the request of the
client call that submitted it.  Counts go through one lock: the thread
backend's workers update the library's own counter dicts with unlocked
``+=``, so the daemon workload counts work here instead.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import threading
import time
from collections import Counter, defaultdict

# Span record fields.
_ID, _NAME, _START, _END, _PARENT, _REQUEST, _THREAD = range(7)


class Tracer:
    """Collects spans and counts; thread-safe."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 1
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.samples: dict[str, list[float]] = defaultdict(list)
        #: Job id -> {"run_s": ...}, filled by the wrapped job queue.
        self.jobs: dict[str, dict] = {}
        self.epoch = time.perf_counter()

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_request(self):
        stack = self._stack()
        if stack:
            return stack[-1][_REQUEST]
        return getattr(self._local, "request", None)

    @contextlib.contextmanager
    def request(self, request_id):
        """Tag every span opened in this thread with ``request_id``."""
        previous = getattr(self._local, "request", None)
        self._local.request = request_id
        try:
            yield
        finally:
            self._local.request = previous

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = stack[-1][_ID] if stack else None
        record = [
            span_id,
            name,
            time.perf_counter(),
            None,
            parent,
            self.current_request(),
            threading.get_ident(),
        ]
        stack.append(record)
        try:
            yield record
        finally:
            record[_END] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples[name].append(value)

    def job_run_seconds(self, job_id: str) -> float | None:
        """The run time the wrapped job queue recorded for ``job_id``."""
        with self._lock:
            return self.jobs.get(job_id, {}).get("run_s")

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus time covered by child spans."""
        with self._lock:
            spans = list(self.spans)
        child_time: dict[int, float] = defaultdict(float)
        for span in spans:
            if span[_PARENT] is not None:
                child_time[span[_PARENT]] += span[_END] - span[_START]
        totals: dict[str, float] = defaultdict(float)
        for span in spans:
            own = span[_END] - span[_START] - child_time.get(span[_ID], 0.0)
            totals[span[_NAME]] += own
        return dict(totals)

    def total_times(self) -> dict[str, float]:
        """Seconds per span name, nested calls of the same name once."""
        with self._lock:
            spans = list(self.spans)
        names = {span[_ID]: span[_NAME] for span in spans}
        totals: dict[str, float] = defaultdict(float)
        for span in spans:
            if names.get(span[_PARENT]) == span[_NAME]:
                continue
            totals[span[_NAME]] += span[_END] - span[_START]
        return dict(totals)

    def write_chrome_trace(self, path) -> None:
        """Write the spans as Chrome trace-event JSON (``chrome://tracing``)."""
        with self._lock:
            spans = sorted(self.spans, key=lambda s: s[_START])
        threads: dict[int, int] = {}
        events = []
        for span in spans:
            tid = threads.setdefault(span[_THREAD], len(threads))
            events.append(
                {
                    "name": span[_NAME],
                    "cat": span[_NAME].split(".")[0],
                    "ph": "X",
                    "ts": round((span[_START] - self.epoch) * 1e6, 3),
                    "dur": round((span[_END] - span[_START]) * 1e6, 3),
                    "pid": 0,
                    "tid": tid,
                    "args": {
                        "id": span[_ID],
                        "parent": span[_PARENT],
                        "request": span[_REQUEST],
                    },
                }
            )
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


# ---------------------------------------------------------------------------
# Instrumentation: which entry point each layer is timed at.
# ---------------------------------------------------------------------------


def _traced(tracer: Tracer, name: str, fn, after=None):
    """``fn`` wrapped in a span; ``after(result, args, kwargs)`` counts."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if after is not None:
            after(result, args, kwargs)
        return result

    return wrapper


def _measure_classes():
    from repro.engine.measures import MEASURE_REGISTRY, MeasureSpec

    seen = []
    pending = [MeasureSpec, *MEASURE_REGISTRY.values()]
    while pending:
        cls = pending.pop()
        if cls in seen:
            continue
        seen.append(cls)
        pending.extend(cls.__subclasses__())
    return seen


def instrument(tracer: Tracer):
    """Patch every layer's entry point; returns a callable that undoes it."""
    import repro.core.report as report_mod
    import repro.engine.incremental as incremental_mod
    import repro.service.daemon as daemon_mod
    from repro.engine import backends
    from repro.engine.cache import MISS, SweepCache
    from repro.engine.jobs import JobQueue
    from repro.engine.scheduler import SweepEngine
    from repro.storage.partitioned import PartitionedStorage
    from repro.temporal.reachability import CheckpointRecorder

    patches: list[tuple[object, str, object]] = []

    def patch(owner, attr, name, after=None):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        patches.append((owner, attr, original))
        setattr(owner, attr, _traced(tracer, name, original, after))

    def count(name):
        return lambda result, args, kwargs: tracer.count(name)

    def after_scan(result, args, kwargs):
        tracer.count("temporal.scan_calls")
        if kwargs.get("resume") is not None:
            tracer.count("engine.incremental.resumes")
        if kwargs.get("checkpoints") is not None:
            tracer.count("engine.incremental.records")

    def after_capture(result, args, kwargs):
        if result:
            tracer.count("temporal.checkpoints")

    def after_get(result, args, kwargs):
        tracer.count("engine.cache.gets")
        if result is not MISS:
            tracer.count("engine.cache.hits")

    # temporal: the scan and its checkpoint captures.
    patch(incremental_mod, "scan_series", "temporal.scan", after_scan)
    patch(CheckpointRecorder, "capture", "temporal.checkpoint", after_capture)
    # graphseries: aggregation, and the incremental prefix splice.
    patch(incremental_mod, "aggregate_cached", "graphseries.aggregate",
          count("graphseries.aggregate_calls"))
    patch(incremental_mod, "aggregate_prefix_extended",
          "engine.incremental.splice", count("engine.incremental.splices"))
    # engine.measures: every class that defines the hook.
    for cls in _measure_classes():
        if "finalize" in cls.__dict__:
            patch(cls, "finalize", "engine.measures.finalize")
        if "series_payload" in cls.__dict__:
            patch(cls, "series_payload", "engine.measures.payload")
    # core: selection (occupancy_method minus the engine run) and summary.
    patch(report_mod, "occupancy_method", "core.select")
    patch(report_mod, "stream_summary", "core.summary")
    # engine: scheduler, backends, cache.
    patch(SweepEngine, "run", "engine.scheduler")
    for cls in (backends.SerialBackend, backends.ThreadBackend, backends.ProcessBackend):
        if "run" in cls.__dict__:
            patch(cls, "run", "engine.backend")
    patch(SweepCache, "get", "engine.cache.get", after_get)
    patch(SweepCache, "put", "engine.cache.put", count("engine.cache.puts"))
    # storage: partition loads and slices.
    patch(PartitionedStorage, "columns", "storage.slice")
    patch(PartitionedStorage, "slice_time", "storage.slice")
    # linkstream: parsing uploaded event files.
    patch(daemon_mod, "read_tsv", "linkstream.parse")

    # engine.jobs: submit-to-start wait and run time, per job.
    original_submit = JobQueue.__dict__["submit"]
    patches.append((JobQueue, "submit", original_submit))

    @functools.wraps(original_submit)
    def submit(queue, fn, *, key=None, timeout=None, label=""):
        request = tracer.current_request()
        submitted = time.perf_counter()
        record: dict = {}

        def job_fn():
            started = time.perf_counter()
            tracer.sample("engine.jobs.wait_ms", (started - submitted) * 1e3)
            try:
                with tracer.request(request), tracer.span("engine.jobs.run"):
                    return fn()
            finally:
                record["run_s"] = time.perf_counter() - started
                tracer.sample("engine.jobs.run_ms", record["run_s"] * 1e3)

        job = original_submit(queue, job_fn, key=key, timeout=timeout, label=label)
        if job.coalesced:
            tracer.count("engine.jobs.coalesced")
        with tracer._lock:
            tracer.jobs[job.id] = record
        return job

    JobQueue.submit = submit

    def restore() -> None:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)

    return restore


def overhead_frac(call, rounds: int = 5, block_s: float = 0.3) -> float:
    """Median latency of ``call()`` traced vs untraced, minus one.

    Untraced and traced blocks of ``block_s`` seconds alternate, so drift
    in the machine's speed hits both sides alike.
    """
    samples: dict[bool, list[float]] = {False: [], True: []}
    for _ in range(rounds):
        for traced in (False, True):
            restore = instrument(Tracer()) if traced else None
            try:
                end = time.perf_counter() + block_s
                while True:
                    start = time.perf_counter()
                    call()
                    now = time.perf_counter()
                    samples[traced].append(now - start)
                    if now >= end:
                        break
            finally:
                if restore is not None:
                    restore()
    return statistics.median(samples[True]) / statistics.median(samples[False]) - 1.0
