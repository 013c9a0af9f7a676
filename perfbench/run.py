"""The repo benchmark: one command, three workloads, every output checked.

Usage (from the repository root)::

    python3 perfbench/run.py --workload replicas-cold --seed 0 --seconds 6 --trace 0

Workloads (see README.md for why each exists):

* ``replicas-cold`` — the four paper replicas, each analysed cold
  (``analyze_stream(validate=False, num_deltas=28)``, serial engine);
* ``dense-fused``   — a dense uniform stream, occupancy + classical on a
  coarse fixed grid, cold;
* ``daemon-mixed``  — an in-process daemon driven over HTTP by two
  closed-loop clients: warm repeats, cold analyses and appends.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` patches every
layer's entry point (``spans.py``), prints the per-layer metrics and
writes Chrome trace-event JSON under ``perfbench/out/``.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exits non-zero, printing no result, when
the program under test cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"

WORKLOADS = ("replicas-cold", "dense-fused", "daemon-mixed")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _prepare_environment() -> None:
    """Import the program from this checkout, with no outside settings."""
    if not (SOURCE / "repro" / "__init__.py").is_file():
        sys.exit(f"error: cannot find the program's sources at {SOURCE}")
    sys.path.insert(0, str(SOURCE))
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    # Temporary files (the daemon spools uploads) stay inside the checkout.
    from common import out_dir

    spool = out_dir() / "tmp"
    spool.mkdir(exist_ok=True)
    tempfile.tempdir = str(spool)


def _pin() -> int:
    """Pin this process, and the speed sampler, to one core; returns it.

    Every thread of the benchmark -- the daemon's handlers and workers
    and both clients included -- then shares one core, so a hand-off
    between threads never waits for the host to wake another virtual
    CPU.  Unpinned, that wait made warm daemon requests 2x slower
    whenever the shared host was busy, against 1.25x for CPU-bound work
    (README.md, *Noise*).
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def main(argv=None) -> int:
    args = _parse_args(argv)
    cpu = _pin()
    _prepare_environment()
    import speed
    from common import end_to_end, out_dir, per_layer
    from oracle import Checker

    checker = Checker(args.seed)
    trace = bool(args.trace)
    # Offline (one thread): CPU time, probed periodically.  The daemon:
    # wall time, probed between the plan's steps (speed.py).
    speed.start(out_dir(), cpu, clock="wall" if args.workload == "daemon-mixed" else "cpu")
    try:
        if args.workload == "daemon-mixed":
            from daemon_mixed import run_daemon

            values, layers = run_daemon(args.seed, args.seconds, checker, trace)
        else:
            from offline import run_offline

            values, layers = run_offline(args.workload, args.seed, args.seconds, checker, trace)
        print(f"speed factor = {speed.run_factor():.4g}", file=sys.stderr)
    finally:
        speed.stop()

    for failure in checker.failures[:20]:
        print(f"check failed: {failure}", file=sys.stderr)
    for name, value in sorted(values.items()):
        print(f"{name} = {value:.6g}", file=sys.stderr)
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": per_layer(layers) if trace else end_to_end(values),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
