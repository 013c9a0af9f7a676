"""Spreading fidelity of aggregated series vs the original stream.

For a sample of (seed, start-time) pairs, compare the set of nodes an
SI process reaches on the raw stream against the set it reaches on the
series aggregated at Δ (same absolute start).  The Jaccard similarity
of the two outbreak sets, averaged over seeds, is the **spreading
fidelity** of Δ — a direct, simulation-level reading of the alteration
the occupancy method detects: fidelity stays near 1 below the
saturation scale and degrades beyond it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphseries.aggregation import aggregate_cached, window_index
from repro.linkstream.stream import LinkStream
from repro.spreading.si import si_spread_series, si_spread_stream
from repro.utils.errors import ValidationError
from repro.utils.rng import ensure_rng


@dataclass(frozen=True)
class FidelityPoint:
    """Fidelity summary of one aggregation period."""

    delta: float
    mean_jaccard: float
    mean_size_ratio: float
    num_probes: int


@dataclass(frozen=True)
class FidelityCurve:
    """Fidelity over a Δ grid."""

    points: list[FidelityPoint]

    @property
    def deltas(self) -> np.ndarray:
        return np.array([p.delta for p in self.points])

    @property
    def mean_jaccards(self) -> np.ndarray:
        return np.array([p.mean_jaccard for p in self.points])

    def fidelity_at(self, delta: float) -> float:
        idx = int(np.argmin(np.abs(self.deltas - delta)))
        return float(self.mean_jaccards[idx])


def _sample_probes(
    stream: LinkStream, num_probes: int, rng: np.random.Generator
) -> list[tuple[int, float]]:
    """(seed node, start time) pairs anchored on actual events.

    Seeds are event sources (so the process has a chance to move) and
    start times the matching event times, sampled uniformly from the
    first 80% of the span to leave room to spread.
    """
    horizon = stream.t_min + 0.8 * stream.span
    eligible = np.flatnonzero(stream.timestamps <= horizon)
    if not eligible.size:
        eligible = np.arange(stream.num_events)
    chosen = rng.choice(eligible, size=min(num_probes, eligible.size), replace=False)
    return [
        (int(stream.sources[i]), float(stream.timestamps[i])) for i in chosen
    ]


def reachability_fidelity(
    stream: LinkStream,
    deltas: np.ndarray,
    *,
    num_probes: int = 30,
    seed: int | np.random.Generator | None = 0,
    origin: float | None = None,
) -> FidelityCurve:
    """Deterministic (β = 1) spreading fidelity per aggregation period.

    With β = 1 the outbreak equals the temporal reachability set, so
    this measures exactly the propagation structure the paper is about
    — no Monte-Carlo noise, same probes across all Δ.
    """
    if stream.num_events < 2:
        raise ValidationError("need events to probe spreading fidelity")
    rng = ensure_rng(seed)
    if origin is None:
        origin = stream.t_min
    probes = _sample_probes(stream, num_probes, rng)
    stream_sets = []
    for node, t_start in probes:
        result = si_spread_stream(stream, node, t_start)
        stream_sets.append(set(result.infected.tolist()))

    points = []
    for delta in np.asarray(deltas, dtype=np.float64):
        # Shares the per-process series store with the sweep engine, so
        # probing Δ values a sweep already aggregated costs no window
        # pass.
        series = aggregate_cached(stream, [float(delta)], origin=origin)[0]
        jaccards = []
        ratios = []
        for (node, t_start), truth in zip(probes, stream_sets):
            start_step = int(window_index(np.array([t_start]), float(delta), origin)[0])
            result = si_spread_series(series, node, start_step)
            approx = set(result.infected.tolist())
            union = truth | approx
            inter = truth & approx
            jaccards.append(len(inter) / len(union) if union else 1.0)
            ratios.append(len(approx) / len(truth) if truth else 1.0)
        points.append(
            FidelityPoint(
                delta=float(delta),
                mean_jaccard=float(np.mean(jaccards)),
                mean_size_ratio=float(np.mean(ratios)),
                num_probes=len(probes),
            )
        )
    return FidelityCurve(points)
