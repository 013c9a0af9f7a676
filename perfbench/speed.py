"""Machine-speed sampler: timings rescaled to a reference speed.

The shared host's speed drifts: its cores slow down by up to ~1.8x for
seconds to minutes at a time (README.md, *Noise*), and a set of ten
runs that straddles such a phase spreads by more than any bound a
benchmark can afford.  Medians inside a run cannot remove it.

A side process (``python3 speed.py --sample FILE CPU PERIOD``), pinned
to the benchmark's own core, runs a fixed probe -- small numpy sorts
and ufuncs, a dict-heavy Python loop and random reads from a 64 MB
array, the mix the analyses spend their time in -- and appends each
probe's CPU time (its own thread's, so waiting for the core does not
count) with the probe's midpoint on the system-wide monotonic clock,
which ``time.perf_counter`` reads too.  An operation timed over
``[t0, t1]`` is reported as::

    busy * NOMINAL_MS / mean(probe CPU ms over [t0, t1])

that is, in seconds of a machine on which the probe costs
``NOMINAL_MS``.  The mean takes the probes inside the interval -- or
inside the ``MIN_WINDOW_S`` around its midpoint, if that is longer --
and the nearest probe, or request's probes, on either side.  Nothing in the probe comes from
the program under test, so a faster program still reads faster.

Two modes, one per kind of workload:

* ``clock="cpu"`` (offline, one thread): the sampler probes every
  ``PERIOD_S`` seconds, and ``busy`` is the process's CPU time, so the
  probe's ~5% of the core is not charged to the operation.  Measured
  over 5 minutes of repeated cold and warm replica analyses, that left
  a quartile spread of 3-7% against 10-27% unscaled, and 7-18% with the
  probe on the other core, whose speed only partly follows this one's.
* ``clock="wall"`` (the daemon, whose latencies are wall times): the
  sampler probes only when asked (:func:`probe`), ``PROBES_PER_REQUEST``
  times, at points where no request is in flight, so it never delays
  one.
"""

from __future__ import annotations

import os
import select
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

#: Seconds between probe starts.
PERIOD_S = 0.1
#: Probe CPU time (ms) at the reference speed: about its typical cost on
#: the 2-core box.
NOMINAL_MS = 4.0
#: Shortest window of probes an interval is rescaled by.
MIN_WINDOW_S = 1.0
#: Probes per request when probing on request: an interval is then
#: rescaled by the probes at its two ends, and one probe alone varies
#: by ~20%.
PROBES_PER_REQUEST = 5
#: Bytes the parent sends to request probes (``PERIOD = 0``).
_PROBE = b"p"


def _probe(small: np.ndarray, big: np.ndarray, index: np.ndarray) -> None:
    """~4 ms of work whose slowdown tracks the analyses' (of its numpy,
    Python and memory-bound parts alone, their sum tracked repeated cold
    and warm replica analyses best)."""
    a = small
    for _ in range(80):
        a = np.minimum(a, a[::-1] + 1.0)
        a.sort()
    table: dict[int, int] = {}
    for i in range(12000):
        key = i & 511
        table[key] = table.get(key, 0) + i
    for _ in range(10):
        big[index].sum()


def _sample(path: str, cpu: int, period: float) -> None:
    """Probe on ``cpu`` every ``period`` seconds, or ``PROBES_PER_REQUEST``
    times per request byte (answered with a newline) when ``period`` is
    0, until standard input closes (the parent stopped or died)."""
    os.sched_setaffinity(0, {cpu})
    small = np.random.default_rng(0).random(2048)
    big = np.random.default_rng(1).random(8 * 2**20)
    index = np.random.default_rng(2).integers(0, big.size, 20000)
    with open(path, "a", encoding="utf-8") as out:
        while True:
            if not period and not os.read(0, 1):
                return
            for _ in range(1 if period else PROBES_PER_REQUEST):
                start = time.perf_counter()
                busy = time.thread_time()
                _probe(small, big, index)
                busy = time.thread_time() - busy
                out.write(f"{(start + time.perf_counter()) / 2:.6f} {busy * 1e3:.6f}\n")
            out.flush()
            if not period:
                os.write(1, b"\n")
                continue
            wait = max(0.0, period - (time.perf_counter() - start))
            if select.select([0], [], [], wait)[0] and not os.read(0, 1):
                return


class Sampler:
    """The side process and the probes it has written so far."""

    def __init__(self, directory: Path, cpu: int, period: float) -> None:
        self.path = directory / f"speed-{os.getpid()}.txt"
        self.path.write_text("", encoding="utf-8")
        self.on_demand = not period
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--sample", str(self.path), str(cpu), str(period)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE if self.on_demand else None,
        )
        self._times = np.empty(0)
        self._cpu_ms = np.empty(0)
        # Wait for the first probes, so set-up is measured too.
        deadline = time.perf_counter() + 30.0
        while self._load() < 3:
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                self.stop()
                raise RuntimeError("the speed sampler did not start")
            if self.on_demand:
                self.probe()
            else:
                time.sleep(PERIOD_S)

    def probe(self) -> None:
        """``PROBES_PER_REQUEST`` probes now (on-demand mode); returns
        when they have ended."""
        self.proc.stdin.write(_PROBE)
        self.proc.stdin.flush()
        if not self.proc.stdout.read(1):
            raise RuntimeError("the speed sampler stopped")

    def _load(self) -> int:
        rows = [line.split() for line in self.path.read_text(encoding="utf-8").splitlines()]
        rows = [row for row in rows if len(row) == 2]
        if rows:
            data = np.array(rows, dtype=float)
            self._times, self._cpu_ms = data[:, 0], data[:, 1]
        return len(rows)

    def factor(self, t0: float, t1: float) -> float:
        """Mean probe cost over ``[t0, t1]`` relative to ``NOMINAL_MS``."""
        middle, half = (t0 + t1) / 2, max(t1 - t0, MIN_WINDOW_S) / 2
        if self._times[-1] <= middle + half:
            # Wait until a probe follows the window (periodic mode).
            deadline = time.perf_counter() + 2.0
            while self._load() and self._times[-1] <= middle + half:
                if self.on_demand or time.perf_counter() > deadline:
                    break
                time.sleep(PERIOD_S)
        # The probes inside the window and the nearest request's (or the
        # nearest probe) on either side.
        side = PROBES_PER_REQUEST if self.on_demand else 1
        first = max(np.searchsorted(self._times, middle - half) - side, 0)
        last = np.searchsorted(self._times, middle + half, side="right") + side
        return float(self._cpu_ms[first:last].mean()) / NOMINAL_MS

    def run_factor(self) -> float:
        """Mean probe cost over the run so far, relative to ``NOMINAL_MS``."""
        self._load()
        return float(self._cpu_ms.mean()) / NOMINAL_MS

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        elif not self.proc.stdin.closed:
            self.proc.stdin.close()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self.path.unlink(missing_ok=True)


_SAMPLER: Sampler | None = None
_CPU_CLOCK = False


def start(directory: Path, cpu: int, clock: str) -> None:
    """Start the run's sampler on ``cpu``; ``clock`` is ``"cpu"``
    (periodic probes, CPU time rescaled) or ``"wall"`` (probes on
    request, wall time rescaled).  Stop it with :func:`stop`."""
    global _SAMPLER, _CPU_CLOCK
    _CPU_CLOCK = clock == "cpu"
    _SAMPLER = Sampler(directory, cpu, PERIOD_S if _CPU_CLOCK else 0.0)


def probe() -> None:
    """Probe now if the sampler probes on request; else nothing."""
    if _SAMPLER is not None and _SAMPLER.on_demand:
        _SAMPLER.probe()


def stop() -> None:
    global _SAMPLER
    if _SAMPLER is not None:
        _SAMPLER.stop()
        _SAMPLER = None


def now() -> tuple[float, float]:
    """A time stamp: (``perf_counter``, process CPU time)."""
    return time.perf_counter(), time.process_time()


def seconds(interval: tuple) -> float:
    """``(start, end)`` :func:`now` stamps as a duration at the reference speed."""
    (t0, c0), (t1, c1) = interval
    busy = c1 - c0 if _CPU_CLOCK else t1 - t0
    return busy / _SAMPLER.factor(t0, t1)


def wall(interval: tuple) -> float:
    """Unscaled wall time of a ``(start, end)`` pair of :func:`now` stamps."""
    return interval[1][0] - interval[0][0]


def run_factor() -> float:
    return _SAMPLER.run_factor()


if __name__ == "__main__":
    if len(sys.argv) == 5 and sys.argv[1] == "--sample":
        _sample(sys.argv[2], int(sys.argv[3]), float(sys.argv[4]))
    else:
        sys.exit("usage: speed.py --sample FILE CPU PERIOD")
