"""Temporal reachability engine.

Implements the paper's ``O(nM)`` backward dynamic program (Section 5)
computing earliest-arrival / minimum-hop information and emitting all
**minimal trips** (Definition 5) of a graph series or of a raw link
stream, plus reference brute-force implementations used to verify it.
"""

from repro.temporal.bruteforce import (
    bruteforce_component_sizes,
    bruteforce_minimal_trips,
    bruteforce_pair_reachability,
    enumerate_temporal_paths,
    minimal_trips_from_paths,
    reference_scan,
)
from repro.temporal.collectors import (
    ChainCollector,
    CountingCollector,
    TripCollector,
    TripListCollector,
    record_batch_fallback,
    trip_priorities,
)
from repro.temporal.paths import (
    earliest_arrival_path,
    forward_earliest_arrival,
    temporal_path_is_valid,
)
from repro.temporal.reachability import (
    SCAN_BATCHES,
    SCAN_ROWS,
    SCAN_WINDOWS,
    CheckpointRecorder,
    DistanceStats,
    DistanceTotals,
    EarliestArrivalAccumulator,
    ResumePlan,
    ScanCheckpoint,
    ScanResult,
    scan_series,
    scan_stream,
)
from repro.temporal.trips import PairTripIndex, TripSet, check_pareto

__all__ = [
    "TripSet",
    "PairTripIndex",
    "check_pareto",
    "minimal_trips_from_paths",
    "TripCollector",
    "TripListCollector",
    "CountingCollector",
    "ChainCollector",
    "trip_priorities",
    "record_batch_fallback",
    "scan_series",
    "scan_stream",
    "ScanCheckpoint",
    "CheckpointRecorder",
    "ResumePlan",
    "SCAN_ROWS",
    "SCAN_WINDOWS",
    "SCAN_BATCHES",
    "ScanResult",
    "DistanceStats",
    "DistanceTotals",
    "EarliestArrivalAccumulator",
    "forward_earliest_arrival",
    "earliest_arrival_path",
    "temporal_path_is_valid",
    "bruteforce_minimal_trips",
    "bruteforce_pair_reachability",
    "bruteforce_component_sizes",
    "enumerate_temporal_paths",
    "reference_scan",
]
