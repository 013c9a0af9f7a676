"""The occupancy method: automatic detection of the saturation scale γ.

This is the paper's primary contribution (Section 4).  For every
candidate aggregation period Δ the stream is aggregated, all minimal
trips of the series are computed with the backward scan, and the
distribution of their occupancy rates is scored against the uniform
density on ``[0, 1]``.  The saturation scale γ is the Δ maximizing the
Monge–Kantorovich proximity (by default) — the aggregation period at
which the distribution is maximally stretched, separating the faithful
range (below γ) from the altered range (beyond γ).

The method is fully automatic and parameter-free: called with just a
link stream it chooses its own Δ grid and returns γ together with the
full sweep evidence.

Per-Δ evaluations run through the :mod:`repro.engine` subsystem: the
grid becomes a plan of independent **fused measure tasks** dispatched to
a pluggable backend (serial by default, threads or processes on request)
behind a content-addressed per-measure result cache, so re-runs,
refinement rounds, and stability analyses never recompute a sweep point.
Companion measures (the classical parameters, snapshot metrics) can ride
the same sweep: each Δ is then aggregated once and scanned once for the
whole set, instead of once per measure kind.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.distribution import OccupancyDistribution
from repro.core.sweep import log_delta_grid, refine_grid
from repro.core.uniformity import get_method
from repro.engine import (
    OccupancyMeasure,
    engine_scope,
    normalize_measures,
    plan_measure_sweep,
)
from repro.linkstream.stream import LinkStream
from repro.utils.errors import SweepError, ValidationError
from repro.utils.timeunits import format_duration


@dataclass(frozen=True)
class SweepPoint:
    """Everything measured at one aggregation period Δ."""

    delta: float
    num_windows: int
    num_nonempty_windows: int
    num_trips: int
    distribution: OccupancyDistribution
    scores: dict[str, float]

    @property
    def mk_proximity(self) -> float:
        return self.scores["mk"]


@dataclass(frozen=True)
class SaturationResult:
    """Outcome of the occupancy method on one link stream.

    ``companions`` holds the results of any companion measures requested
    alongside occupancy (``measures=`` on :func:`occupancy_method`):
    one list per measure name, aligned index-for-index with ``points``
    — every companion value was computed from the *same* aggregation
    and the *same* backward scan as its sweep point.
    """

    gamma: float
    method: str
    points: list[SweepPoint] = field(repr=False)
    companions: dict[str, list] = field(default_factory=dict, repr=False)

    @property
    def deltas(self) -> np.ndarray:
        """Evaluated aggregation periods, ascending."""
        return np.array([p.delta for p in self.points])

    def scores(self, method: str | None = None) -> np.ndarray:
        """Score per evaluated Δ under ``method`` (default: the primary)."""
        name = self.method if method is None else method
        return np.array([p.scores[name] for p in self.points])

    def gamma_for(self, method: str) -> float:
        """The Δ an alternative selection method would return."""
        scores = self.scores(method)
        return float(self.deltas[int(np.argmax(scores))])

    def point_at_gamma(self) -> SweepPoint:
        """The sweep point selected as the saturation scale."""
        idx = int(np.argmax(self.scores()))
        return self.points[idx]

    def describe(self) -> str:
        """One-line human summary."""
        return (
            f"saturation scale gamma = {format_duration(self.gamma)} "
            f"({self.gamma:.6g}s) by method '{self.method}' over "
            f"{len(self.points)} aggregation periods"
        )


def occupancy_method(
    stream: LinkStream,
    deltas: np.ndarray | None = None,
    *,
    method: str = "mk",
    extra_methods: tuple[str, ...] = (),
    num_deltas: int = 40,
    bins: int = 4096,
    exact: bool = False,
    include_self: bool = False,
    refine_rounds: int = 0,
    refine_points: int = 8,
    origin: float | None = None,
    engine=None,
    measures=(),
) -> SaturationResult:
    """Determine the saturation scale γ of a link stream.

    Parameters
    ----------
    stream:
        The link stream under study (directed or not, int or float
        timestamps).
    deltas:
        Candidate aggregation periods.  Defaults to a log grid from the
        timestamp resolution to the stream span — the paper's full range.
    method:
        Selection statistic maximized to pick γ (see
        :mod:`repro.core.uniformity`); the paper's choice ``"mk"`` by
        default.
    extra_methods:
        Additional statistics to evaluate at every Δ (cheap; used by the
        comparison figure).
    num_deltas:
        Grid size when ``deltas`` is not given.
    bins, exact:
        Occupancy accumulator resolution (see
        :class:`~repro.core.occupancy.OccupancyCollector`).
    include_self:
        Score cyclic trips ``u -> u`` as well (off by default, as the
        paper considers pairs of distinct nodes).
    refine_rounds, refine_points:
        Optional two-stage search: after each round, insert
        ``refine_points`` extra Δ values around the current maximum.
        With the default 0, the grid is used as-is (paper behaviour).
    origin:
        Absolute start of window 0 (defaults to the first event).
    engine:
        How to execute the sweep: a
        :class:`~repro.engine.scheduler.SweepEngine`, a backend name
        (``"serial"``, ``"thread"``, ``"process"``), or ``None`` for the
        process default (configurable via ``REPRO_ENGINE`` /
        ``REPRO_CACHE_DIR``).  Every backend returns bit-identical
        results; cached sweep points are reused, never recomputed.
    measures:
        Companion measures to evaluate at every Δ **from the same
        aggregation and the same backward scan** as the occupancy
        distribution — measure names (``"classical"``, ``"metrics"``)
        or :class:`~repro.engine.MeasureSpec` instances.  Results land
        in :attr:`SaturationResult.companions`, aligned with
        ``points`` (refinement rounds included).

    Returns
    -------
    SaturationResult
        γ plus the full evidence (per-Δ distributions and scores), and
        any companion measure results.
    """
    if stream.num_events < 2:
        raise ValidationError("occupancy method needs at least two events")
    if deltas is None:
        deltas = log_delta_grid(stream, num=num_deltas)
    else:
        deltas = np.unique(np.asarray(deltas, dtype=np.float64))
        if deltas.size < 2:
            raise SweepError("a sweep needs at least two window lengths")
        if np.any(deltas <= 0):
            raise SweepError("aggregation periods must be positive")
    # "mk" is always evaluated so SweepPoint.mk_proximity stays available.
    methods = tuple(dict.fromkeys((method, "mk", *extra_methods)))
    for name in methods:
        get_method(name)  # validate early
    measure_set = normalize_measures(
        (
            OccupancyMeasure(methods=methods, bins=bins, exact=exact),
            *measures,
        )
    )

    with engine_scope(engine) as eng:
        entries = _evaluate_deltas(
            stream, deltas, measure_set, include_self, origin, eng
        )
        for _ in range(refine_rounds):
            current = np.array([e["occupancy"].delta for e in entries])
            scores = np.array([e["occupancy"].scores[method] for e in entries])
            best = int(np.argmax(scores))
            extra = refine_grid(current, best, points=refine_points)
            if not extra.size:
                break
            entries.extend(
                _evaluate_deltas(
                    stream, extra, measure_set, include_self, origin, eng
                )
            )
            entries.sort(key=lambda e: e["occupancy"].delta)

    points = [e["occupancy"] for e in entries]
    companions = {
        m.name: [e[m.name] for e in entries]
        for m in measure_set
        if m.name != "occupancy"
    }
    final_scores = np.array([p.scores[method] for p in points])
    gamma = points[int(np.argmax(final_scores))].delta
    return SaturationResult(
        gamma=float(gamma), method=method, points=points, companions=companions
    )


def _evaluate_deltas(
    stream: LinkStream,
    deltas: np.ndarray,
    measure_set,
    include_self: bool,
    origin: float | None,
    engine,
) -> list[dict]:
    """One fused task per Δ; returns per-Δ measure-result dicts."""
    tasks = plan_measure_sweep(
        deltas,
        measure_set,
        include_self=include_self,
        origin=origin,
    )
    return engine.run(stream, tasks)
