"""Aggregation-period grids for Δ sweeps.

The occupancy method varies Δ "from its minimal value, the resolution of
the timestamps, until the whole length T of study" (Section 4).  A
logarithmic grid matches how the phenomenon unfolds (the distribution
drifts over orders of magnitude).  The paper's formal ``Δ = T/K``
constraint is relaxed to half-open windows (see
:mod:`repro.graphseries.aggregation`).
"""

from __future__ import annotations

import numpy as np

from repro.linkstream.stream import LinkStream
from repro.utils.errors import SweepError


def log_delta_grid(
    stream: LinkStream,
    *,
    num: int = 40,
    min_delta: float | None = None,
    max_delta: float | None = None,
) -> np.ndarray:
    """Log-spaced window lengths from the timestamp resolution to the span.

    Parameters
    ----------
    stream:
        Stream whose resolution and span bound the grid by default.
    num:
        Number of grid points (deduplicated after rounding; the result
        may be slightly shorter).
    min_delta, max_delta:
        Override the grid bounds.
    """
    if num < 2:
        raise SweepError("a sweep needs at least two window lengths")
    low = stream.resolution() if min_delta is None else float(min_delta)
    high = _default_max_delta(stream) if max_delta is None else float(max_delta)
    if not 0 < low < high:
        raise SweepError(f"invalid sweep bounds [{low}, {high}]")
    grid = np.geomspace(low, high, num)
    return np.unique(grid)


def _default_max_delta(stream: LinkStream) -> float:
    """Slightly more than the span, so the coarsest window holds *every*
    event (windows are half-open; Δ = span would spill the last event
    into a sliver second window)."""
    return stream.span * (1.0 + 1e-9)


def refine_grid(deltas: np.ndarray, best_index: int, *, points: int = 8) -> np.ndarray:
    """A finer grid bracketing ``deltas[best_index]`` (two-stage sweeps).

    Spans from the left neighbour to the right neighbour of the best
    point, log-spaced, endpoints excluded (they were already evaluated).
    """
    deltas = np.asarray(deltas, dtype=np.float64)
    if deltas.ndim != 1 or deltas.size < 2:
        raise SweepError("need an evaluated grid of at least two points")
    if not 0 <= best_index < deltas.size:
        raise SweepError("best_index out of range")
    low = deltas[max(best_index - 1, 0)]
    high = deltas[min(best_index + 1, deltas.size - 1)]
    if low == high:
        return np.empty(0)
    inner = np.geomspace(low, high, points + 2)[1:-1]
    return np.setdiff1d(inner, deltas)
