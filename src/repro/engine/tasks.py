"""Sweep plans: the unit of work the execution engine schedules.

A Δ sweep — the inner loop of the occupancy method and of the classical-
parameter analysis — is a set of fully independent evaluations, one per
aggregation period.  This module makes that structure explicit, in two
layers:

* A :class:`~repro.engine.measures.MeasureSpec` names **one quantity**
  computable from the series aggregated at Δ — the occupancy sweep
  point, the classical parameters, trip samples, component histograms,
  per-pair reachability... — and knows how to contribute a collector to
  the backward scan, how to finalize the collected state into its
  result, and how to describe itself for the cache.  Measures live in
  an open registry (:mod:`repro.engine.measures`) that user code extends
  at runtime via :func:`~repro.engine.measures.register_measure`; the
  task and scheduler machinery below is generic over it.
* An :class:`AnalysisTask` carries a **set** of measures for one Δ.  It
  aggregates the stream once, runs **one** backward scan feeding every
  measure's collector (the scan's multi-consumer contract,
  :func:`~repro.temporal.reachability.scan_series`), and emits one
  result per measure.  The scheduler caches each measure's result under
  its own key, so a warm occupancy cache plus a cold classical request
  re-scans exactly once — computing only the missing measures — and
  every per-measure result stays individually reusable.

Tasks are small frozen dataclasses so they pickle cheaply to worker
processes; the stream itself is shipped separately (once per chunk).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Any

import hashlib

import numpy as np

from repro.engine.measures import (
    ClassicalMeasure,
    MeasureSpec,
    MetricsMeasure,
    OccupancyMeasure,
    SeriesGeometry,
    normalize_measures,
)
from repro.engine.cancel import CancelToken
from repro.engine.incremental import IncrementalScanSession, aggregate_sessions
from repro.linkstream.stream import LinkStream
from repro.temporal.reachability import (
    ScanJob,
    StackedScanError,
    scan_stack,
    stack_capacity,
)
from repro.utils.errors import EngineError

#: Version of the evaluation numerics baked into every cache key.  Bump
#: whenever any code a task's ``evaluate`` depends on changes results
#: (aggregation, the backward scan, occupancy collection, scoring), so
#: persistent disk caches from older releases invalidate instead of
#: silently serving stale sweep points.  (3: the open measure registry —
#: parameter-schema-derived measure tokens.)
EVAL_VERSION = 3


@dataclass(frozen=True)
class DeltaTask(ABC):
    """One independent unit of sweep work: evaluate one Δ on a stream.

    Tasks may emit **several separately-cacheable results** (the fused
    :class:`AnalysisTask` emits one per measure).  The default
    implementations below describe the single-result case; the scheduler
    only ever speaks the multi-result protocol (:meth:`result_keys`,
    :meth:`narrow`, :meth:`split_result`, :meth:`assemble`).
    """

    delta: float

    #: Relative cost of recomputing this task's cached result — the disk
    #: store's eviction class (cheaper entries are swept first).
    cache_weight = 1.0

    @property
    @abstractmethod
    def kind(self) -> str:
        """Short tag naming the evaluation this task performs."""

    @abstractmethod
    def evaluate(self, stream: LinkStream) -> Any:
        """Run the numerics for this Δ and return the per-Δ result."""

    @abstractmethod
    def _token(self) -> tuple:
        """The parameters (beyond the stream) that determine the result."""

    def cache_key(self, stream_fingerprint: str) -> str:
        """Content address of this task's result on a given stream."""
        payload = repr((EVAL_VERSION, self.kind, repr(self.delta), self._token()))
        digest = hashlib.sha256()
        digest.update(stream_fingerprint.encode())
        digest.update(payload.encode())
        return digest.hexdigest()

    # -- multi-result protocol (single-result defaults) -------------------

    def result_keys(self, stream_fingerprint: str) -> list[str]:
        """One cache key per separately-reusable sub-result."""
        return [self.cache_key(stream_fingerprint)]

    def result_weights(self) -> list[float]:
        """Eviction weight per sub-result, aligned with :meth:`result_keys`."""
        return [self.cache_weight]

    def narrow(self, missing: Sequence[int]) -> "DeltaTask":
        """A task computing only the sub-results at ``missing`` (indices
        into :meth:`result_keys`).  Single-result tasks are indivisible."""
        return self

    def split_result(self, value: Any) -> list:
        """Split an :meth:`evaluate` result into key-aligned parts."""
        return [value]

    def assemble(self, parts: list) -> Any:
        """Inverse of :meth:`split_result`: the caller-facing result from
        key-aligned parts (cached and fresh alike)."""
        return parts[0]


def _measure_digest(
    stream_fingerprint: str, head: str, measure: MeasureSpec, tail: str
) -> str:
    digest = hashlib.sha256()
    digest.update(stream_fingerprint.encode())
    digest.update((head + measure.key_repr() + tail).encode())
    return digest.hexdigest()


def _origin_token(origin: float | None) -> str | None:
    return None if origin is None else repr(float(origin))


def _span_token(span: tuple[float, float]) -> tuple[str, str]:
    return (repr(float(span[0])), repr(float(span[1])))


def _check_span(span: tuple[float, float] | None) -> None:
    if span is None:
        return
    if len(span) != 2:
        raise EngineError(f"span must be a (start, end) pair, got {span!r}")
    start, end = float(span[0]), float(span[1])
    if not (np.isfinite(start) and np.isfinite(end)) or start >= end:
        raise EngineError(
            f"span must be a finite (start, end) pair with start < end, "
            f"got {span!r}"
        )


def _restrict_span(
    stream: LinkStream, span: tuple[float, float] | None
) -> LinkStream:
    """The sub-stream a spanned task evaluates.

    ``slice_time`` asks the storage backend for exactly the half-open
    time range the task's windows cover — on a partitioned backend only
    the overlapping partitions are ever loaded, which is what makes a
    narrow-span sweep over an out-of-core dataset cheap.
    """
    if span is None:
        return stream
    return stream.slice_time(float(span[0]), float(span[1]))


@dataclass(frozen=True)
class AnalysisTask(DeltaTask):
    """Aggregate at Δ once, scan once, emit one result per measure.

    The fused per-Δ evaluation: the measure set shares a single
    aggregation (through the per-process series store) and a single
    backward scan feeding every measure's collector.  ``evaluate``
    returns a dict mapping measure name to its result; the scheduler
    caches each entry under its own per-measure key (see
    :meth:`result_keys`) and :meth:`narrow`\\ s the task to the missing
    measures on partial cache hits.  Any registered measure — built-in
    or plugin — rides unchanged: the task is generic over the
    :class:`~repro.engine.measures.MeasureSpec` contract.
    """

    measures: tuple[MeasureSpec, ...] = ()
    include_self: bool = False
    origin: float | None = None
    #: Optional half-open ``(start, end)`` time span: the task evaluates
    #: the sub-stream of events with ``start <= t < end`` (sliced via
    #: the storage backend, so partitioned datasets load only the
    #: overlapping partitions).  ``None`` — the default, and the only
    #: value older plans ever produced — evaluates the full stream and
    #: leaves every cache key byte-identical to before spans existed.
    span: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if not self.measures:
            raise EngineError("an AnalysisTask needs at least one measure")
        names = [m.name for m in self.measures]
        if len(set(names)) != len(names):
            raise EngineError(f"duplicate measure names in task: {names}")
        _check_span(self.span)
        if self.span is not None:
            object.__setattr__(
                self, "span", (float(self.span[0]), float(self.span[1]))
            )

    @property
    def kind(self) -> str:
        return "analysis"

    def _token(self) -> tuple:
        token = (
            tuple((m.name, m.token()) for m in self.measures),
            self.include_self,
            _origin_token(self.origin),
        )
        if self.span is not None:
            token += (("span", _span_token(self.span)),)
        return token

    # -- per-measure cache identity ---------------------------------------

    def measure_key(self, stream_fingerprint: str, measure: MeasureSpec) -> str:
        """Content address of one measure's result at this Δ.

        Depends only on the stream, Δ, the task-level scan parameters,
        and *that* measure — never on which other measures ride the same
        fused task — so any sweep requesting the measure at this Δ reuses
        the entry, fused or not.  A task with a time
        span appends the span to the payload (span-less keys stay
        byte-identical to every release before spans existed).

        The payload is ``repr`` of the tuple ``(EVAL_VERSION, "measure",
        repr(delta), include_self, origin token, measure name, measure
        token[, ("span", span token)])``, assembled from the task's
        affixes and the measure's memoised :meth:`~repro.engine.
        measures.MeasureSpec.key_repr`, so a warm analysis re-``repr``\\ s
        nothing per measure.
        """
        head, tail = self._key_affixes(EVAL_VERSION)
        return _measure_digest(stream_fingerprint, head, measure, tail)

    def _key_affixes(self, version: int) -> tuple[str, str]:
        """The measure-independent head and tail of the key payload."""
        head = (
            f"({version!r}, 'measure', {repr(self.delta)!r}, "
            f"{self.include_self!r}, {_origin_token(self.origin)!r}, "
        )
        if self.span is None:
            return head, ")"
        return head, f", {('span', _span_token(self.span))!r})"

    def result_keys(self, stream_fingerprint: str) -> list[str]:
        head, tail = self._key_affixes(EVAL_VERSION)
        return [
            _measure_digest(stream_fingerprint, head, m, tail)
            for m in self.measures
        ]

    def result_weights(self) -> list[float]:
        return [m.cache_weight for m in self.measures]

    def narrow(self, missing: Sequence[int]) -> "AnalysisTask":
        subset = tuple(self.measures[i] for i in missing)
        if subset == self.measures:
            return self
        return AnalysisTask(
            delta=self.delta,
            measures=subset,
            include_self=self.include_self,
            origin=self.origin,
            span=self.span,
        )

    def split_result(self, value: dict) -> list:
        return [value[m.name] for m in self.measures]

    def assemble(self, parts: list) -> dict:
        return {m.name: part for m, part in zip(self.measures, parts)}

    # -- evaluation --------------------------------------------------------

    def evaluate(self, stream: LinkStream) -> dict:
        evaluation = self.prepare(self.session(stream))
        if evaluation.job is not None:
            evaluation.session.run(evaluation.job)
        return self.finish(evaluation)

    def session(self, stream: LinkStream) -> IncrementalScanSession:
        """This task's view of the series store, on its span of
        ``stream``."""
        return IncrementalScanSession(
            _restrict_span(stream, self.span),
            delta=float(self.delta),
            origin=self.origin,
            include_self=self.include_self,
            consumer_tokens=tuple(
                (m.name, m.collector_token()) for m in self.measures if m.scans
            ),
        )

    def prepare(self, session: IncrementalScanSession) -> "Evaluation":
        """Aggregate at Δ (unless ``session`` already holds its series)
        and set up the one scan: everything :meth:`evaluate` does before
        scanning.  :func:`evaluate_tasks` scans several prepared tasks
        as one stack."""
        series = session.series()
        collectors = {
            m.name: m.make_collector() for m in self.measures if m.scans
        }
        job = session.scan_job(list(collectors.values())) if collectors else None
        return Evaluation(session, series, collectors, job)

    def finish(self, evaluation: "Evaluation") -> dict:
        """The per-measure results of a prepared and scanned task."""
        series = evaluation.series
        geometry = SeriesGeometry(
            num_nodes=series.num_nodes,
            num_windows=series.num_steps,
            num_nonempty_windows=int(series.nonempty_steps().size),
        )
        collectors = evaluation.collectors
        return {
            m.name: m.finalize(
                float(self.delta),
                geometry,
                m.series_payload(series) if m.has_payload else None,
                collectors.get(m.name),
            )
            for m in self.measures
        }


@dataclass
class Evaluation:
    """A prepared :class:`AnalysisTask`: its incremental session, the
    aggregated series, one collector per scanning measure, and the scan
    to run (``None`` when no measure scans)."""

    session: IncrementalScanSession
    series: Any
    collectors: dict
    job: ScanJob | None


def wrap_task_failure(task: DeltaTask, exc: BaseException) -> EngineError:
    """An :class:`EngineError` naming the failing task (kind plus Δ).
    Callers raise it with ``from exc`` so the traceback keeps the
    numeric frames."""
    return EngineError(f"{task.kind} task at delta={task.delta:g} failed: {exc}")


def evaluate_tasks(
    stream: LinkStream,
    tasks: Sequence[DeltaTask],
    *,
    tick: Callable[[int], None] | None = None,
    cancel: CancelToken | None = None,
    wrap: bool = True,
) -> list:
    """Evaluate a plan of tasks in order; ``results[i]`` matches
    ``tasks[i]``.  The one in-process evaluation loop of the backends.

    Every :class:`AnalysisTask`'s session is built first.  A session
    whose series is in the store, or splices from a warm ancestor, keeps
    that path; the other Δ that share a (span-restricted stream, origin)
    are aggregated together, from one pair sort of the stream
    (:func:`~repro.engine.incremental.aggregate_sessions`).  Then
    consecutive :class:`AnalysisTask`\\ s whose scans are stackable
    (no resume plan, no state accumulator: see
    :attr:`~repro.temporal.reachability.ScanJob.stackable`) and share a
    node set and ``include_self`` are scanned as one stack
    (:func:`~repro.temporal.reachability.scan_stack`) of at most
    :func:`~repro.temporal.reachability.stack_capacity` scans; each
    session then commits its record and each task finishes.  Every
    other task evaluates alone.  Results, cache keys and records are
    those of evaluating each task alone.

    ``cancel`` is checked before the sessions are built, before each
    task and, inside a stack, before each block of lockstep steps, where
    :class:`~repro.utils.errors.JobCancelled` names the first unfinished
    Δ.  ``tick(1)`` follows each finished task.  A failure of a task
    evaluated alone propagates as is unless ``wrap`` (then it becomes an
    :class:`EngineError` naming the task); a failure inside a stack
    always becomes one naming the Δ it belongs to.  A task whose
    session cannot be built fails before any task is evaluated.
    """
    results: list = [None] * len(tasks)
    stack: list[tuple[int, Evaluation]] = []

    def guarded(task, fn, *args):
        try:
            return fn(*args)
        except EngineError:
            raise
        except Exception as exc:
            if not wrap:
                raise
            raise wrap_task_failure(task, exc) from exc

    def done(index: int, value) -> None:
        results[index] = value
        if tick is not None:
            tick(1)

    def run_stack() -> None:
        members = list(stack)
        stack.clear()
        if len(members) == 1:
            index, evaluation = members[0]
            task = tasks[index]
            guarded(task, evaluation.session.run, evaluation.job)
            done(index, guarded(task, task.finish, evaluation))
            return
        check = None
        if cancel is not None:
            def check(slot: int) -> None:
                cancel.guard(tasks[members[slot][0]])
        try:
            scan_stack(
                [evaluation.job for _, evaluation in members],
                include_self=tasks[members[0][0]].include_self,
                check=check,
            )
        except StackedScanError as exc:
            cause = exc.__cause__
            if isinstance(cause, EngineError):
                raise cause from None
            raise wrap_task_failure(
                tasks[members[exc.slot][0]], cause
            ) from cause
        for _, evaluation in members:
            evaluation.session.commit(evaluation.job)
        for index, evaluation in members:
            task = tasks[index]
            if cancel is not None:
                cancel.guard(task)
            done(index, guarded(task, task.finish, evaluation))

    if cancel is not None and tasks:
        cancel.guard(tasks[0])
    sessions = {
        index: guarded(task, task.session, stream)
        for index, task in enumerate(tasks)
        if isinstance(task, AnalysisTask)
    }
    aggregate_sessions(sessions.values())
    for index, task in enumerate(tasks):
        if cancel is not None:
            cancel.guard(task)
        if not isinstance(task, AnalysisTask):
            if stack:
                run_stack()
            done(index, guarded(task, task.evaluate, stream))
            continue
        evaluation = guarded(task, task.prepare, sessions.pop(index))
        job = evaluation.job
        if job is None:
            done(index, guarded(task, task.finish, evaluation))
            continue
        if stack:
            lead_task = tasks[stack[0][0]]
            n = stack[0][1].job.series.num_nodes
            if (
                not job.stackable
                or job.series.num_nodes != n
                or task.include_self != lead_task.include_self
                or len(stack) >= stack_capacity(n)
            ):
                run_stack()
        stack.append((index, evaluation))
        if not job.stackable:
            run_stack()
    if stack:
        run_stack()
    return results


def plan_measure_sweep(
    deltas: np.ndarray,
    measures: "Sequence[str | MeasureSpec] | str | MeasureSpec",
    *,
    include_self: bool = False,
    origin: float | None = None,
    span: tuple[float, float] | None = None,
) -> list[AnalysisTask]:
    """One fused :class:`AnalysisTask` per candidate Δ, in grid order.

    ``measures`` accepts measure names (parameterized specs like
    ``"trips:max_samples=64"`` included),
    :class:`~repro.engine.measures.MeasureSpec` instances, or a mix;
    every Δ evaluates the whole set from one aggregation and one scan.
    ``span`` restricts every task to the half-open ``(start, end)``
    time range — the out-of-core entry point: on a catalog-backed
    stream only the partitions overlapping the span are loaded.
    """
    measure_set = normalize_measures(measures)
    return [
        AnalysisTask(
            delta=float(delta),
            measures=measure_set,
            include_self=include_self,
            origin=origin,
            span=span,
        )
        for delta in np.asarray(deltas, dtype=np.float64)
    ]


def plan_occupancy_sweep(
    deltas: np.ndarray,
    *,
    methods: tuple[str, ...],
    bins: int = 4096,
    exact: bool = False,
    include_self: bool = False,
    origin: float | None = None,
) -> list[AnalysisTask]:
    """An occupancy-only measure sweep (sugar over
    :func:`plan_measure_sweep`).  Each task's result is a dict with one
    ``"occupancy"`` entry holding the
    :class:`~repro.core.saturation.SweepPoint`."""
    return plan_measure_sweep(
        deltas,
        OccupancyMeasure(methods=tuple(methods), bins=bins, exact=exact),
        include_self=include_self,
        origin=origin,
    )


def plan_classical_sweep(
    deltas: np.ndarray,
    *,
    compute_distances: bool = True,
    origin: float | None = None,
) -> list[AnalysisTask]:
    """A classical-parameters measure sweep (sugar over
    :func:`plan_measure_sweep`).  Each task's result is a dict with one
    ``"classical"`` (or, without distances, ``"metrics"``) entry holding
    the :class:`~repro.core.classical.ClassicalPoint`."""
    return plan_measure_sweep(
        deltas,
        ClassicalMeasure() if compute_distances else MetricsMeasure(),
        origin=origin,
    )
