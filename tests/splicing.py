"""Scans whose consumers are reassembled from window spans by ``merge``."""

from __future__ import annotations

from repro.temporal.reachability import (
    SCAN_WINDOWS,
    CheckpointRecorder,
    ResumePlan,
    scan_series,
)


def spliced_scans(series, make):
    """Scan ``series`` twice with fresh consumers from ``make()``, each
    time reassembled from window spans by the consumers' ``merge``:

    * a checkpointed scan, whose frozen spans fold into its consumers at
      the end of the scan;
    * a scan resumed against that record, which settles at the first
      checkpoint and splices every cached span below it.

    Returns the two assembled consumers, for comparison with a plain
    scan's.
    """
    recorder = CheckpointRecorder()
    recorded = make()
    scan_series(series, recorded, checkpoints=recorder)
    assert len(recorder.spans) >= 2, "the scan must cut several spans"
    plan = ResumePlan(
        recorder.checkpoints, recorder.spans, recorder.span_trips,
        limit=series.num_steps,
    )
    resumed = make()
    before = SCAN_WINDOWS["series"]
    scan_series(series, resumed, resume=plan)
    scanned = SCAN_WINDOWS["series"] - before
    assert scanned < series.nonempty_steps().size, "the resume must settle"
    return recorded, resumed
