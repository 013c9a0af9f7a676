"""Susceptible-Infected simulation on streams and series.

An SI process starts from a seed node; every event ``(u, v, t)`` whose
source is already infected *strictly before* ``t`` transmits to ``v``
with probability β (time causality — Remark 1 of the paper — means a
node infected by an event cannot retransmit within the same instant or
window).  With β = 1 the infected set at ``+∞`` is exactly the temporal
reachability set of the seed, which ties the simulator to the
reachability engine and gives tests a ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphseries.series import GraphSeries
from repro.linkstream.stream import LinkStream
from repro.temporal.paths import _expand_undirected, _stream_groups
from repro.utils.errors import ValidationError
from repro.utils.rng import ensure_rng


@dataclass(frozen=True)
class SpreadResult:
    """Outcome of one SI run.

    ``infection_time[v]`` is the time (stream) or window index (series)
    at which ``v`` became infected, ``+inf`` if never; the seed carries
    its start time.
    """

    seed: int
    start_time: float
    beta: float
    infection_time: np.ndarray

    @property
    def infected(self) -> np.ndarray:
        """Indices of nodes reached by the process (seed included)."""
        return np.flatnonzero(np.isfinite(self.infection_time))

    @property
    def outbreak_size(self) -> int:
        return int(np.isfinite(self.infection_time).sum())

    def outbreak_curve(self, times: np.ndarray) -> np.ndarray:
        """Cumulative number of infected nodes at each query time."""
        finite = np.sort(self.infection_time[np.isfinite(self.infection_time)])
        return np.searchsorted(finite, np.asarray(times), side="right")


def _run_si(
    groups,
    num_nodes: int,
    seed: int,
    start_time: float,
    beta: float,
    rng: np.random.Generator | None,
) -> np.ndarray:
    infection = np.full(num_nodes, np.inf)
    infection[seed] = start_time
    for time_value, us, vs in groups:
        if time_value < start_time:
            continue
        # Infected strictly before this instant/window can transmit
        # (the seed transmits from start_time onward, inclusive).
        contagious = infection < time_value
        contagious[seed] = infection[seed] <= time_value
        candidates = contagious[us] & ~np.isfinite(infection[vs])
        if beta < 1.0 and rng is not None:
            candidates &= rng.random(us.size) < beta
        hit = np.unique(vs[candidates])
        infection[hit] = time_value
    return infection


def si_spread_stream(
    stream: LinkStream,
    seed_node: int,
    start_time: float,
    *,
    beta: float = 1.0,
    seed: int | np.random.Generator | None = None,
) -> SpreadResult:
    """Run an SI process over the raw link stream.

    With ``beta = 1`` the result is deterministic and equals temporal
    reachability from ``(seed_node, start_time)``.
    """
    _check_args(stream.num_nodes, seed_node, beta)
    rng = ensure_rng(seed) if beta < 1.0 else None
    groups = list(_stream_groups(stream))
    groups.reverse()  # ascending time
    if not stream.directed:
        groups = [
            (t, *(_expand_undirected(u, v))) for t, u, v in groups
        ]
    infection = _run_si(
        groups, stream.num_nodes, seed_node, start_time, beta, rng
    )
    return SpreadResult(seed_node, start_time, beta, infection)


def si_spread_series(
    series: GraphSeries,
    seed_node: int,
    start_step: int,
    *,
    beta: float = 1.0,
    seed: int | np.random.Generator | None = None,
) -> SpreadResult:
    """Run an SI process over an aggregated series.

    Transmission uses window indices: a node infected in window ``k``
    transmits from window ``k+1`` onward — the aggregated analogue of
    strict time causality.  Note the information loss at work: within a
    window the true event order is unknown, so the aggregate both
    *denies* same-window chains the stream would have allowed and
    *backdates* events that actually preceded the start time inside the
    seed window; the simulated outbreak diverges from the stream's as Δ
    grows.
    """
    _check_args(series.num_nodes, seed_node, beta)
    rng = ensure_rng(seed) if beta < 1.0 else None
    groups = []
    for step, u, v in series.edge_groups():
        if not series.directed:
            u, v = _expand_undirected(u, v)
        groups.append((step, u, v))
    infection = _run_si(
        groups, series.num_nodes, seed_node, float(start_step), beta, rng
    )
    return SpreadResult(seed_node, float(start_step), beta, infection)


def _check_args(num_nodes: int, seed_node: int, beta: float) -> None:
    if not 0 <= seed_node < num_nodes:
        raise ValidationError(f"seed node {seed_node} out of range")
    if not 0.0 < beta <= 1.0:
        raise ValidationError(f"beta must be in (0, 1], got {beta}")
