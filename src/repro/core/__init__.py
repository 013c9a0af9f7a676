"""Core contribution: the occupancy method and its companions.

* :func:`occupancy_method` — automatic, parameter-free detection of the
  saturation scale γ (Section 4).
* :mod:`repro.core.distribution` / :mod:`repro.core.uniformity` — the
  occupancy-rate distributions and the five uniformity statistics
  (Section 7).
* :mod:`repro.core.validation` — information-loss measures validating γ
  (Section 8).
* :mod:`repro.core.classical` — the smooth classical parameters that
  motivate the method (Section 3).
* :mod:`repro.core.decomposition` — per-activity-period γ (Section 9
  perspective).
"""

from repro.core.classical import ClassicalPoint, ClassicalSweep, classical_sweep
from repro.core.decomposition import (
    ActivityPeriod,
    PerPeriodSaturation,
    per_period_saturation,
    split_by_activity,
)
from repro.core.distribution import OccupancyDistribution, uniform_reference
from repro.core.occupancy import (
    OccupancyCollector,
    series_occupancy,
    stream_occupancy_at,
)
from repro.core.report import StreamReport, analyze_stream
from repro.core.saturation import SaturationResult, SweepPoint, occupancy_method
from repro.core.stability import StabilityResult, gamma_stability
from repro.core.sweep import (
    log_delta_grid,
    refine_grid,
)
from repro.core.uniformity import (
    SelectionMethod,
    available_methods,
    get_method,
    score_distribution,
    shannon_method,
)
from repro.core.validation import (
    ElongationCurve,
    ElongationPoint,
    TransitionLossCurve,
    elongation_at,
    elongation_curve,
    shortest_transitions,
    stream_minimal_trips,
    transition_loss_curve,
    transitions_lost_fraction,
)

__all__ = [
    "occupancy_method",
    "SaturationResult",
    "SweepPoint",
    "gamma_stability",
    "StabilityResult",
    "analyze_stream",
    "StreamReport",
    "OccupancyDistribution",
    "uniform_reference",
    "OccupancyCollector",
    "series_occupancy",
    "stream_occupancy_at",
    "SelectionMethod",
    "available_methods",
    "get_method",
    "score_distribution",
    "shannon_method",
    "log_delta_grid",
    "refine_grid",
    "classical_sweep",
    "ClassicalSweep",
    "ClassicalPoint",
    "stream_minimal_trips",
    "shortest_transitions",
    "transitions_lost_fraction",
    "transition_loss_curve",
    "TransitionLossCurve",
    "elongation_at",
    "elongation_curve",
    "ElongationPoint",
    "ElongationCurve",
    "split_by_activity",
    "per_period_saturation",
    "ActivityPeriod",
    "PerPeriodSaturation",
]
