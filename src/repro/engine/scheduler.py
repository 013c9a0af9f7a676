"""The sweep engine: plan in, results out.

:class:`SweepEngine` is the seam between the sweep callers
(:func:`~repro.core.saturation.occupancy_method` and friends) and the
execution machinery.  ``run(stream, tasks)`` is one pass:

1. probes the :class:`~repro.engine.cache.SweepCache` for every task's
   **per-result keys** (a fused :class:`~repro.engine.tasks.AnalysisTask`
   has one key per measure, keyed on the stream fingerprint + Δ + that
   measure's parameters),
2. narrows each partially-cached task to its missing results and hands
   only those narrowed tasks to the :class:`ExecutionBackend`,
3. stores every fresh per-measure result under its own key and returns
   the assembled results in task order.

A warm occupancy cache plus a cold classical request therefore re-scans
each Δ exactly once — computing only the classical measure — and a fully
warm measure set is served without touching the backend at all.  A run
honours a :class:`~repro.engine.cancel.CancelToken` (passed explicitly
or inherited from the calling thread's ``cancel_scope``), cancelling
pending work via the backends' fail-fast path.

The unit of parallel work is a whole Δ: the backends spread a plan's
tasks over their workers, and each task aggregates and scans its Δ in
one piece.

The process-wide **default engine** is what sweeps use when no engine is
passed explicitly.  It is configured from the environment on first use:

* ``REPRO_ENGINE`` — backend spec, e.g. ``serial`` (default), ``thread``,
  ``process``, or ``thread:8`` to pin the worker count;
* ``REPRO_CACHE_DIR`` — adds a persistent on-disk result store;
* ``REPRO_CACHE_MAX_BYTES`` — size cap for that store (LRU eviction).

An in-memory cache is always on for the default engine: results are
immutable and deterministic, so reuse is free correctness-wise and turns
refinement rounds, stability re-runs, and repeated interactive sweeps
into lookups.
"""

from __future__ import annotations

import os
from collections.abc import Iterator, Sequence
from contextlib import contextmanager

from repro.engine.backends import ExecutionBackend, get_backend
from repro.engine.cancel import CancelToken, current_cancel_token
from repro.engine.cache import MISS, SweepCache
from repro.engine.progress import NULL_PROGRESS, ProgressListener
from repro.engine.tasks import DeltaTask
from repro.linkstream.stream import LinkStream
from repro.utils.errors import EngineError

#: Environment variable selecting the default engine's backend.
ENGINE_ENV_VAR = "REPRO_ENGINE"
#: Environment variable adding a disk store to the default engine.
CACHE_DIR_ENV_VAR = "REPRO_CACHE_DIR"
#: Environment variable capping the disk store's size in bytes.
CACHE_MAX_BYTES_ENV_VAR = "REPRO_CACHE_MAX_BYTES"


class SweepEngine:
    """Executes sweep plans through a backend, behind a result cache.

    Parameters
    ----------
    backend:
        An :class:`ExecutionBackend`, a backend name (``"serial"``,
        ``"thread"``, ``"process"``, optionally ``"name:jobs"``), or
        ``None`` for serial.
    cache:
        A :class:`SweepCache`, or ``None`` to disable caching entirely.
    jobs:
        Worker count when ``backend`` is given by name.
    progress:
        A :class:`ProgressListener` notified as tasks complete.
    """

    def __init__(
        self,
        backend: str | ExecutionBackend | None = None,
        *,
        cache: SweepCache | None = None,
        jobs: int | None = None,
        progress: ProgressListener | None = None,
    ) -> None:
        self.backend = get_backend(backend, jobs=jobs)
        self.cache = cache
        self.progress = progress if progress is not None else NULL_PROGRESS

    def run(
        self,
        stream: LinkStream,
        tasks: Sequence[DeltaTask],
        *,
        cancel: CancelToken | None = None,
    ) -> list:
        """Evaluate every task on ``stream``; ``results[i]`` matches
        ``tasks[i]``.  Cached results are never recomputed: each task's
        sub-results (one per measure for fused tasks) are probed and
        stored individually, and tasks with partial hits are narrowed to
        exactly their missing measures before execution.

        ``cancel`` defaults to the calling thread's
        :func:`~repro.engine.cancel.cancel_scope` token, so deadlines set
        at a request boundary reach every nested sweep.
        """
        tasks = list(tasks)
        total = len(tasks)
        # Per-result cache probing.  ``missing[i] is None`` encodes the
        # cache-off case: evaluate the whole task, store nothing.
        parts: list[list] = [[] for _ in range(total)]
        keys: list[list[str]] = [[] for _ in range(total)]
        missing: list[list[int] | None] = [None] * total
        narrowed: list[DeltaTask | None] = list(tasks)
        if self.cache is not None:
            fingerprint = stream.fingerprint()
            for i, task in enumerate(tasks):
                keys[i] = task.result_keys(fingerprint)
                parts[i] = [self.cache.get(key) for key in keys[i]]
                missing[i] = [
                    j for j, part in enumerate(parts[i]) if part is MISS
                ]
                narrowed[i] = task.narrow(missing[i]) if missing[i] else None
        pending = [i for i in range(total) if narrowed[i] is not None]

        self.progress.on_start(total)
        done = total - len(pending)
        if done:
            self.progress.on_advance(done, total, cached=True)
        if pending:
            if cancel is None:
                cancel = current_cancel_token()

            def tick(n: int) -> None:
                nonlocal done
                done += n
                self.progress.on_advance(done, total)

            fresh = self.backend.run(
                stream,
                [narrowed[i] for i in pending],
                tick=tick,
                cancel=cancel,
            )
            for i, raw in zip(pending, fresh):
                fresh_parts = narrowed[i].split_result(raw)
                if missing[i] is None:
                    # Cache off: the narrowed task is the task itself.
                    parts[i] = fresh_parts
                    continue
                # Per-result weights ride along so the disk store's
                # eviction sweep knows each measure's recompute cost.
                weights = tasks[i].result_weights()
                for j, part in zip(missing[i], fresh_parts):
                    parts[i][j] = part
                    self.cache.put(keys[i][j], part, weight=weights[j])

        # The aggregated series the run materialized stay in the bounded
        # process-wide memo (repro.graphseries.aggregate_cached) on
        # purpose: validation and one-shot follow-ups re-read the series
        # a sweep just built.  Callers wanting the memory back call
        # clear_aggregate_cache().

        self.progress.on_finish(total)
        return [tasks[i].assemble(parts[i]) for i in range(total)]

    def close(self) -> None:
        """Release backend workers (the cache stays usable)."""
        self.backend.close()

    def __enter__(self) -> "SweepEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"SweepEngine(backend={self.backend!r}, cache={self.cache!r})"


def cache_max_bytes_from_env(environ=None) -> int | None:
    """The ``REPRO_CACHE_MAX_BYTES`` disk-store cap, validated.

    Shared by every consumer of the variable (the default engine, the
    CLI's engine builder, ``repro cache``), so a malformed value fails
    the same clean way everywhere.
    """
    env = os.environ if environ is None else environ
    text = env.get(CACHE_MAX_BYTES_ENV_VAR) or None
    if text is None:
        return None
    try:
        return int(text)
    except ValueError:
        raise EngineError(
            f"bad {CACHE_MAX_BYTES_ENV_VAR} value {text!r}: "
            "expected a byte count"
        ) from None


def engine_from_env(environ=None) -> SweepEngine:
    """Build an engine from ``REPRO_ENGINE`` / ``REPRO_CACHE_DIR`` /
    ``REPRO_CACHE_MAX_BYTES``."""
    env = os.environ if environ is None else environ
    cache_dir = env.get(CACHE_DIR_ENV_VAR) or None
    return SweepEngine(
        env.get(ENGINE_ENV_VAR) or None,
        cache=SweepCache.build(
            disk_dir=cache_dir,
            disk_max_bytes=cache_max_bytes_from_env(env),
        ),
    )


_default_engine: SweepEngine | None = None


def default_engine() -> SweepEngine:
    """The process-wide engine, built from the environment on first use."""
    global _default_engine
    if _default_engine is None:
        _default_engine = engine_from_env()
    return _default_engine


def set_default_engine(engine: SweepEngine | None) -> None:
    """Replace the process-wide engine (``None`` re-reads the environment
    on next use)."""
    global _default_engine
    _default_engine = engine


def resolve_engine(engine: SweepEngine | str | None) -> SweepEngine:
    """The engine a sweep should use: an instance as-is, a backend name
    as a fresh cached engine, ``None`` as the process default."""
    if engine is None:
        return default_engine()
    if isinstance(engine, SweepEngine):
        return engine
    return SweepEngine(engine, cache=SweepCache.build())


@contextmanager
def engine_scope(engine: SweepEngine | str | None) -> Iterator[SweepEngine]:
    """Resolve ``engine`` for the duration of one analysis call.

    Sweep entry points accept an engine instance, a backend name, or
    ``None``.  A name means "a private engine for this call": it is
    built once here — so refinement rounds and repeated internal sweeps
    share its cache — and its worker pool is closed on exit.  Instances
    and the process default are passed through untouched; their
    lifetime belongs to the caller.
    """
    owns = not (engine is None or isinstance(engine, SweepEngine))
    resolved = resolve_engine(engine)
    try:
        yield resolved
    finally:
        if owns:
            resolved.close()
