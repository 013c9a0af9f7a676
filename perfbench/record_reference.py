"""Record ``reference.json``: the offline workloads' expected results.

Runs each offline workload's cold analyses (the append-grown streams
included) once, untimed, with the legacy per-source scan kernel
(``REPRO_SCAN_KERNEL=legacy``) as the oracle, and stores each analysis'
digest (γ, per-Δ scores, hash of the rendered text) per seed.  The
benchmark compares its results with these for every seed listed.

Usage (from the repository root)::

    python3 perfbench/record_reference.py --seeds 0 1 2
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import run
from oracle import Checker


class Recorder(Checker):
    """A checker that keeps every cold digest as the reference."""

    def __init__(self) -> None:
        super().__init__(seed=-1)
        self.digests: dict[str, dict] = {}

    def reference_ok(self, name: str, value) -> bool:
        self.digests[name] = value.to_json()
        return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="record reference.json")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    args = parser.parse_args(argv)
    run._prepare_environment()
    os.environ["REPRO_SCAN_KERNEL"] = "legacy"
    from offline import OfflineRun, dense_plans, replicas_plans
    from oracle import REFERENCE_PATH

    seeds = {}
    if REFERENCE_PATH.exists():
        seeds = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))["seeds"]
    for seed in args.seeds:
        recorder = Recorder()
        for build in (replicas_plans, dense_plans):
            OfflineRun(seed, recorder).run(build(seed), 0.0, warm=0)
        if recorder.failures:
            print("\n".join(recorder.failures), file=sys.stderr)
            return 1
        seeds[str(seed)] = recorder.digests
        print(f"seed {seed}: {len(recorder.digests)} analyses", file=sys.stderr)
    payload = {
        "oracle": "REPRO_SCAN_KERNEL=legacy",
        "seeds": dict(sorted(seeds.items(), key=lambda item: int(item[0]))),
    }
    REFERENCE_PATH.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
