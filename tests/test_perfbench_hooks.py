"""The benchmark's traced run patches the program's entry points by name.

``perfbench/spans.py:instrument`` looks up module functions where their
callers look them up (``repro.engine.incremental.aggregate_cached``...)
and methods on the classes that define them.  A moved or renamed entry
point makes the traced benchmark raise before its workload starts; this
round trip fails fast instead.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

import repro.engine.incremental as incremental
from repro.engine import SweepEngine
from repro.engine.tasks import plan_measure_sweep
from repro.generators import time_uniform_stream
from repro.graphseries import clear_aggregate_cache

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
HOOKS = ("aggregate_cached", "aggregate_prefix_extended", "scan_series")


def test_instrument_wraps_the_engine_hooks_and_restores_them(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    originals = {name: getattr(incremental, name) for name in HOOKS}
    tracer = spans.Tracer()
    restore = spans.instrument(tracer)
    try:
        for name, original in originals.items():
            wrapped = getattr(incremental, name)
            assert wrapped is not original
            assert wrapped.__wrapped__ is original
        # The engine aggregates a cold grid through the patched name.
        clear_aggregate_cache()
        stream = time_uniform_stream(8, 4, 2000.0, seed=1)
        plan = plan_measure_sweep(np.geomspace(10.0, 1000.0, 5), "occupancy")
        with SweepEngine("serial", cache=None) as engine:
            engine.run(stream, plan)
    finally:
        restore()
        clear_aggregate_cache()
    assert tracer.counts["graphseries.aggregate_calls"] == 1
    for name, original in originals.items():
        assert getattr(incremental, name) is original
