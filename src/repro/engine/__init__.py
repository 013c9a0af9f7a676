"""Sweep-execution engine: task planning, pluggable backends, caching.

The occupancy method and its companions all share one workload shape —
evaluate many independent aggregation periods Δ on one stream.  This
package turns that loop into an explicit plan of
:class:`~repro.engine.tasks.DeltaTask`s executed by a pluggable
:class:`~repro.engine.backends.ExecutionBackend` behind a
content-addressed :class:`~repro.engine.cache.SweepCache`:

* :mod:`repro.engine.measures` — the measure layer as an **open plugin
  registry**: the declarative :class:`MeasureSpec` contract (dataclass
  fields are the parameter schema, hashed into the cache key),
  :func:`register_measure` for user-defined measures, the
  ``name[:key=value,...]`` spec parser behind the CLI, and six
  built-ins (occupancy, classical, metrics, trips, components,
  reachability) registered exactly like plugins;
* :mod:`repro.engine.tasks` — the fused per-Δ :class:`AnalysisTask`
  that aggregates once, scans once, and emits one separately-cached
  result per measure, generic over the registry;
* :mod:`repro.engine.backends` — serial (default), thread-pool, and
  chunked process-pool execution of whole Δs, all bit-identical;
* :mod:`repro.engine.cancel` — cooperative cancellation:
  :class:`CancelToken` (explicit cancel or deadline) checked at every
  task boundary, carried by ``cancel_scope`` so nested sweeps inherit
  request deadlines;
* :mod:`repro.engine.jobs` — :class:`JobQueue`, bounded asynchronous
  job execution with admission control, per-job deadlines, and request
  coalescing (the analysis service's core);
* :mod:`repro.engine.incremental` — warm-append reuse: per-stream
  spliced aggregations and checkpointed scan records that let an
  appended stream's evaluation rescan only the unsettled suffix,
  bit-identically (:class:`IncrementalScanSession`);
* :mod:`repro.engine.cache` — layered memory/disk result store keyed on
  the stream fingerprint plus the task parameters;
* :mod:`repro.engine.scheduler` — :class:`SweepEngine`, the cache-aware
  dispatcher (``run``), plus the ``REPRO_ENGINE`` / ``REPRO_CACHE_DIR``
  defaults;
* :mod:`repro.engine.progress` — listener hooks for long sweeps.

Typical use::

    from repro.engine import SweepEngine

    engine = SweepEngine("process", jobs=8)
    result = occupancy_method(stream, engine=engine)     # parallel sweep
    again = occupancy_method(stream, engine=engine)      # pure cache hits
"""

from repro.engine.backends import (
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    available_backends,
    get_backend,
)
from repro.engine.cancel import CancelToken, cancel_scope, current_cancel_token
from repro.engine.jobs import Job, JobQueue
from repro.engine.cache import (
    MISS,
    CacheStore,
    DiskStore,
    MemoryStore,
    SweepCache,
)
from repro.engine.progress import NULL_PROGRESS, ProgressListener, StderrProgress
from repro.engine.scheduler import (
    CACHE_DIR_ENV_VAR,
    CACHE_MAX_BYTES_ENV_VAR,
    ENGINE_ENV_VAR,
    SweepEngine,
    cache_max_bytes_from_env,
    default_engine,
    engine_from_env,
    engine_scope,
    resolve_engine,
    set_default_engine,
)
from repro.engine.measures import (
    ENTRY_POINT_FAILURES,
    ENTRY_POINT_GROUP,
    MEASURE_REGISTRY,
    ClassicalMeasure,
    ComponentsMeasure,
    ComponentsPoint,
    MeasureSpec,
    MetricsMeasure,
    OccupancyMeasure,
    ReachabilityMeasure,
    ReachabilityPoint,
    SeriesGeometry,
    TripSample,
    TripsMeasure,
    available_measures,
    build_measure,
    describe_measures,
    load_entry_point_measures,
    measure_schema,
    normalize_measures,
    parse_measure_spec,
    parse_measures_arg,
    register_measure,
    resolve_measure,
    unregister_measure,
)
from repro.engine.incremental import (
    INCREMENTAL_COUNTS,
    IncrementalScanSession,
    clear_incremental_store,
    incremental_stats,
)
from repro.engine.tasks import (
    AnalysisTask,
    DeltaTask,
    plan_classical_sweep,
    plan_measure_sweep,
    plan_occupancy_sweep,
)

__all__ = [
    "DeltaTask",
    "AnalysisTask",
    "MeasureSpec",
    "SeriesGeometry",
    "OccupancyMeasure",
    "ClassicalMeasure",
    "MetricsMeasure",
    "TripsMeasure",
    "TripSample",
    "ComponentsMeasure",
    "ComponentsPoint",
    "ReachabilityMeasure",
    "ReachabilityPoint",
    "MEASURE_REGISTRY",
    "register_measure",
    "unregister_measure",
    "available_measures",
    "describe_measures",
    "load_entry_point_measures",
    "ENTRY_POINT_GROUP",
    "ENTRY_POINT_FAILURES",
    "measure_schema",
    "build_measure",
    "parse_measure_spec",
    "parse_measures_arg",
    "normalize_measures",
    "resolve_measure",
    "plan_measure_sweep",
    "plan_occupancy_sweep",
    "plan_classical_sweep",
    "ExecutionBackend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "get_backend",
    "available_backends",
    "CancelToken",
    "cancel_scope",
    "current_cancel_token",
    "Job",
    "JobQueue",
    "IncrementalScanSession",
    "INCREMENTAL_COUNTS",
    "incremental_stats",
    "clear_incremental_store",
    "SweepCache",
    "CacheStore",
    "MemoryStore",
    "DiskStore",
    "MISS",
    "SweepEngine",
    "default_engine",
    "set_default_engine",
    "resolve_engine",
    "engine_scope",
    "engine_from_env",
    "cache_max_bytes_from_env",
    "ENGINE_ENV_VAR",
    "CACHE_DIR_ENV_VAR",
    "CACHE_MAX_BYTES_ENV_VAR",
    "ProgressListener",
    "StderrProgress",
    "NULL_PROGRESS",
]
