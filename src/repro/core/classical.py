"""Classical-parameter sweeps (Section 3, Figure 2).

The paper motivates the occupancy method by showing that the standard
graph-series statistics — density, connectivity, and the three distance
notions — drift *smoothly* with the aggregation period, exposing no
threshold.  This module reproduces that analysis: for each Δ it reports
the snapshot means and the distance statistics of the aggregated series.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine import (
    ClassicalMeasure,
    MetricsMeasure,
    engine_scope,
    plan_classical_sweep,
)
from repro.graphseries.metrics import SeriesMetrics
from repro.linkstream.stream import LinkStream
from repro.temporal.reachability import DistanceStats


@dataclass(frozen=True)
class ClassicalPoint:
    """Classical parameters of the series aggregated at one Δ."""

    delta: float
    snapshot: SeriesMetrics
    distances: DistanceStats | None

    @property
    def mean_distance_in_time(self) -> float:
        """Mean ``d_time`` in window counts (Figure 2 bottom-left)."""
        if self.distances is None:
            return float("nan")
        return self.distances.mean_distance_steps

    @property
    def mean_distance_in_hops(self) -> float:
        """Mean ``d_hops`` (Figure 2 bottom-right, empty squares)."""
        if self.distances is None:
            return float("nan")
        return self.distances.mean_distance_hops

    @property
    def mean_distance_in_absolute_time(self) -> float:
        """Mean ``d_abstime = Δ · d_time`` (Figure 2 bottom-right, filled)."""
        return self.delta * self.mean_distance_in_time


@dataclass(frozen=True)
class ClassicalSweep:
    """Classical parameters over a Δ grid."""

    points: list[ClassicalPoint]

    @property
    def deltas(self) -> np.ndarray:
        return np.array([p.delta for p in self.points])

    def column(self, name: str) -> np.ndarray:
        """Extract one named series: ``density``, ``non_isolated``,
        ``largest_component``, ``distance_time``, ``distance_hops``,
        ``distance_abs_time``."""
        getters = {
            "density": lambda p: p.snapshot.mean_density,
            "non_isolated": lambda p: p.snapshot.mean_non_isolated,
            "largest_component": lambda p: p.snapshot.mean_largest_component,
            "mean_degree": lambda p: p.snapshot.mean_degree,
            "distance_time": lambda p: p.mean_distance_in_time,
            "distance_hops": lambda p: p.mean_distance_in_hops,
            "distance_abs_time": lambda p: p.mean_distance_in_absolute_time,
        }
        if name not in getters:
            raise KeyError(f"unknown column {name!r}; available: {sorted(getters)}")
        return np.array([getters[name](p) for p in self.points])


def classical_sweep(
    stream: LinkStream,
    deltas: np.ndarray,
    *,
    compute_distances: bool = True,
    origin: float | None = None,
    engine=None,
) -> ClassicalSweep:
    """Measure the classical parameters at every Δ in the grid.

    ``compute_distances=False`` skips the reachability scan and reports
    only the cheap per-snapshot statistics.  The sweep runs through the
    :mod:`repro.engine` subsystem as a plan of fused measure tasks;
    ``engine`` accepts an engine instance, a backend name, or ``None``
    for the process default.

    To get these columns *and* an occupancy sweep from one scan per Δ,
    request the ``"classical"`` measure on
    :func:`~repro.core.saturation.occupancy_method` (or
    :func:`~repro.core.report.analyze_stream`) instead of running two
    sweeps.
    """
    tasks = plan_classical_sweep(
        deltas, compute_distances=compute_distances, origin=origin
    )
    name = (ClassicalMeasure() if compute_distances else MetricsMeasure()).name
    with engine_scope(engine) as eng:
        results = eng.run(stream, tasks)
    return ClassicalSweep([r[name] for r in results])
