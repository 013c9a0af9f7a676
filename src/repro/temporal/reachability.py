"""Backward reachability scan — the paper's ``O(nM)`` dynamic program.

Section 5 sketches the algorithm: *"a dynamic programming scheme going
backward in time: at one step, knowing all the minimal trips of the
series starting not before time k+1, the algorithm computes the minimal
trips starting exactly at time k, their duration and their minimum
number of hops."*

Concretely, the scan maintains two ``n x n`` matrices while sweeping the
windows ``k = K .. 1``:

* ``A[u, v]`` — earliest arrival at ``v`` among temporal paths leaving
  ``u`` at time >= ``k`` (the next window to be processed);
* ``H[u, v]`` — minimum hop count among the paths achieving ``A[u, v]``.

Processing window ``k``, a hop ``(u, w)`` reaches ``v`` at time ``k`` if
``w == v`` and otherwise at ``A_next[w, v]`` (the continuation departs at
``>= k+1``: two links of one window never chain — Remark 1 of the
paper).  Whenever the best candidate strictly improves on
``A_next[u, v]``, the quadruplet ``(u, v, k, arrival)`` is a **minimal
trip**: departing later arrives strictly later, and every path achieving
this arrival makes its first hop exactly at ``k``.  Candidates tying on
arrival keep the smaller hop count, so ``H`` stays exact.

Each window touches only the rows of its edge sources, with all reads
staged from a pre-window copy, giving ``O(n · |E_k|)`` work per window —
``O(nM)`` overall, matching the paper's claim.  The same scan runs on a
raw link stream by treating each distinct timestamp as a window and
switching the duration convention from ``arr - dep + 1`` (window counts)
to ``arr - dep`` (Definition 4).

The scan kernel
---------------
One kernel, the **run kernel**, runs every scan.

* *Rank steps.*  The state steps over the **ranks** of the scan's
  nonempty windows: with ``W`` of them, rank ``r`` is the ``r``-th
  nonempty window in ascending order.  Each ``(A, H)`` cell is packed
  into one int64 lexicographic key ``A * K + H`` for the *whole* scan,
  with ``A`` a rank, ``K = W + 2`` (no minimal trip takes more than
  ``W`` hops) and infinite cells at ``a_inf * K + (K - 1)``,
  ``a_inf = W``.  One vectorized minimum over the packed keys selects
  the earliest arrival with the fewest-hops tie-break for free.  Every
  key is below ``K * K``, so the state is int32 while that fits (``W <
  46340``, half the bytes of every step) and int64 beyond.  ``W`` is at
  most the edge count, so the keys cannot overflow for any series that
  fits in memory (``W >= 2**31`` is a named error).
* *One decode table.*  A rank → value table decodes ranks wherever a
  consumer sees them: ``series.nonempty_steps()`` for a series, the
  distinct timestamps for a stream (:func:`scan_stream` scans the
  stream's rank series).  Trip collectors get decoded departures and
  arrivals, state accumulators get real window indices with the
  :data:`INT_INF`/:data:`HOP_INF` sentinels, and a
  :class:`ScanCheckpoint` keeps a reference to its scan's table.
* *The run rule.*  A window writes the state rows of its hop sources
  and reads the rows of its sources and of its hop targets.  Walking
  the windows in scan order (latest first), a window joins the open
  run unless an earlier window of that run writes a row it reads.  A
  window alone is a run of length 1.
* *Why it is exact.*  No window of a run reads or writes a row another
  window of the run writes, so every read of the run sees the pre-run
  state — exactly the state the window would see if the run's earlier
  windows were applied first.  This is the same independence argument
  the per-window update relies on (continuation reads come from the
  pre-window state, never from intra-window writes; two links of one
  window never chain).  Sources are unique across a run, so all its
  row writes commit at once.
* *What breaks a run.*  Besides a conflict, a run never absorbs a
  window where the scan must see the state between two windows: a
  checkpoint capture position (``checkpoints=``), a resume candidate
  (``resume=``), or any window of a scan feeding a state accumulator
  (``close_run`` folds the state between every pair of windows, so
  such scans run one window per run).  Runs are planned in blocks of
  up to :data:`LAST_PLAN_BLOCK` windows, and never span two blocks; a
  resumed scan's blocks start at :data:`FIRST_PLAN_BLOCK` windows and
  double, so a resumed scan that settles after a few windows plans
  only those.
* *The layout.*  Per block of windows, the planner sorts the hops by
  (window descending, source), giving one *segment* per (window,
  source) pair with its own departure rank; a run is a contiguous
  range of segments.  A run commits as one *group*, or — when its
  staged ``(hops × width)`` working set would exceed
  :data:`BATCH_CELL_BUDGET` — as several groups of whole segments,
  which bounds memory (one state commit per group,
  :data:`SCAN_BATCHES`).  Within a group the planner lays the segments
  out largest first (stably by hop count), so the segments with more
  than ``r`` hops are always a prefix, and precomputes everything that
  does not depend on the state (:class:`_RunBlock`): one gather index
  per group holding its hop targets rank-major (all first hops, then
  all second hops, ...) followed by its sources; the direct hops as
  flat positions in the group's candidate rows with their keys
  ``rank * K + 1``; and per hop rank the prefix length to fold.
* *The step.*  The per-group body is a short, fixed sequence of
  state-dependent numpy calls (:func:`_apply_run`): one gather yields
  the continuation rows and the old rows; each further hop rank folds
  into the segment minima with one in-place ``np.minimum`` on a
  prefix; ``+ 1`` costs the continuation its hop; one flat write
  scatters the direct hops; the strict-improvement mask and the
  lexicographic minimum with the old rows are written straight into
  the row buffer (``np.less``/``np.minimum`` with ``out=``), whose
  rows commit to the state.  Accumulators see each group's old and new
  rows as one batch (``observe_rows``).
* *The row buffer.*  Trips are not extracted per run: a scan-local
  buffer (:class:`_RowBuffer`) holds the committed groups' masks and
  new rows, consecutive laid-out segments of one block.  A flush clears
  the diagonal of every buffered row at once (unless
  ``include_self``), runs one C-order ``nonzero``, decodes the trips
  (departure, arrival, hops, duration) through the table and delivers
  one ``record_batch`` per collector; the flushes' counts are the
  scan's trip count.  A checkpoint capture does not flush: it marks the
  buffer row where the consumers hand off, and the flush delivers the
  trips above the mark to the old consumers (a scan feeding state
  accumulators, which see every commit, flushes and hands off at once).
  The scan flushes before a settled resume freezes the consumers and at
  its end; the buffer flushes itself when a group comes from another
  block or would not fit, and once it holds :data:`ROW_BUFFER_CELLS`
  cells (near 0.5 MiB, so a dense scan flushes while the rows are still
  in cache).
* *Emission order.*  The buffer holds whole groups, and a group is a
  contiguous range of segments laid out only within itself, so a flush
  restores segment order by reindexing the buffered mask rows.  Its
  C-order ``nonzero`` then walks segments in (window descending,
  source) order and columns ascending within each — the order of the
  per-source reference loop
  (:func:`repro.temporal.bruteforce.reference_scan`) — and flushes
  follow one another in scan order, so a delivered batch may span many
  windows but its rows are still in that order.
* *Per-row adapters.*  Consumers without the batch methods get their
  per-source/per-row protocol, in that same order, with the same
  arguments.
* *Stacked sweeps.*  A sweep scans one stream's series at many Δ, and
  on sparse series each scan pays a fixed cost per state commit, not
  per cell.  :func:`scan_stack` runs several such scans (one node set)
  as one **stack**: their packed states are one array, scan ``s``
  owning rows ``[s * n, (s + 1) * n)``, packed with one common ``K`` and
  ``a_inf`` (the stack's largest ``W``).  Step ``i`` of the stack
  commits run ``i`` of every scan still running as one group (or, over
  the cell budget, several), through the same sequence of numpy calls
  as a solo run: the planner lays each block of lockstep steps out
  across the stack (:func:`_stack_block`), with the gather, direct-hop
  and source indices offset by each scan's rows.  Stacking is exact:
  the scans' row ranges are disjoint, so no hop of one scan reads or
  writes a row of another, and each scan's run ``i`` sees exactly the
  state its own runs ``< i`` left — the solo scan's state.  The common
  ``K`` changes no comparison: every key of a scan orders by (rank,
  hop) with hops below either radix.  What stays per Δ: its rank →
  value table and consumers (the row buffer delivers each scan's trips
  in its own order, decoded through its own table), its
  :class:`CheckpointRecorder` (a capture re-encodes the scan's rows to
  its own ``K``, so records are byte-identical to a solo scan's) and
  its tallies.  :data:`SCAN_BATCHES` counts a stacked commit once.  A
  stack holds only scans without a resume plan or state accumulators
  (both must see the state between two of a scan's windows), and only
  as many as fit :data:`BATCH_CELL_BUDGET` (:func:`stack_capacity`);
  each step's groups share that budget.  :func:`scan_series` and
  :func:`scan_stream` are stacks of one.

The kernel is bit-identical to the reference loop — same trips in the
same order, same collector states, same accumulator sums — across
directed/undirected input, ``include_self``, checkpoints, resumes,
and every backend.  :data:`SCAN_ROWS`,
:data:`SCAN_WINDOWS` and :data:`SCAN_BATCHES` tally its work per scan
kind (per process), next to the pass counter :data:`SCAN_COUNTS`.

One scan, many measures
-----------------------
:func:`scan_series` accepts a *set* of consumers and feeds them all from
a single backward pass, so evaluating several measures of one aggregated
series (occupancy rates, distance statistics, full trip lists) costs one
scan, not one scan per measure.  Two consumer shapes exist:

* **trip collectors** (anything with ``record(...)`` — the
  :class:`~repro.temporal.collectors.TripCollector` protocol) receive
  every minimal-trip batch the scan discovers;
* **state accumulators** (anything with ``observe_row(...)`` /
  ``close_run(...)`` — see :class:`DistanceTotals`) watch the arrival
  matrix itself and fold per-departure-step quantities in closed form.
  An accumulator may additionally define ``begin(num_nodes,
  num_steps)``, called once before the backward pass with the scan's
  exact geometry, and ``finish()``, called once after it — the hooks
  per-pair accumulators use to allocate their state and fold its tail.

:class:`DistanceTotals` is the accumulator behind the classical distance
statistics (Figure 2 bottom); it used to be hard-wired into the scan via
a ``compute_distances`` flag and is now an ordinary member of the
consumer set, splicable across window spans like the trip collectors.
:class:`EarliestArrivalAccumulator` keeps the same sums *per ordered
pair* instead of globally — the state behind the engine's
``reachability`` measure.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import partial
from typing import Any

import numpy as np

from repro.graphseries.series import GraphSeries
from repro.linkstream.stream import LinkStream
from repro.temporal.collectors import record_batch_fallback
from repro.utils.errors import ValidationError

#: Sentinel for "unreachable" in integer arrival matrices.  Kept far from
#: the dtype maximum so that ``+ 1`` arithmetic can never overflow.
INT_INF = np.iinfo(np.int64).max // 4
#: Sentinel for "no hop count" (unreachable entries).
HOP_INF = np.iinfo(np.int64).max // 4

#: Scan instrumentation: how many backward passes this process has run.
#: The measure-fusion tests and benches assert "one scan per Δ" against
#: these counters; they are plain tallies with no behavioural effect
#: (each worker process keeps its own).
SCAN_COUNTS = {"series": 0, "stream": 0}
#: Work tallies per scan kind (same no-behaviour caveats as
#: :data:`SCAN_COUNTS`, which counts each scan of a stack): ``SCAN_ROWS``
#: counts source-row updates — one per (window, source) pair —
#: ``SCAN_WINDOWS`` nonempty windows processed, and ``SCAN_BATCHES``
#: state commits: one per run (a run of conflict-free windows commits at
#: once; one over the cell budget commits per chunk), and one per step
#: of a stack (a stacked commit counts once, whatever the number of
#: scans it advances).  Tests and benches assert how much work a scan
#: did, not just that one happened.
SCAN_ROWS = {"series": 0, "stream": 0}
SCAN_WINDOWS = {"series": 0, "stream": 0}
SCAN_BATCHES = {"series": 0, "stream": 0}

#: Upper bound on the cells (hop rows × state width) the kernel stages
#: per chunk; chunks always hold whole segments.  At int64 this bounds
#: each staged continuation matrix near 8 MB.  It also bounds a stack:
#: its scans' states together fit the budget, and a step's chunks get
#: the budget's share of one scan.  The value never affects results,
#: only peak memory (tests shrink it to exercise the multi-chunk path
#: and small stacks).
BATCH_CELL_BUDGET = 1 << 20

#: State cells (committed rows × state width) the kernel's row
#: buffer holds before it flushes them into trips (it also flushes at
#: a settle boundary, at a block change and at the end of the scan).
#: Sparse scans commit a few rows per run, so one flush serves many
#: runs.  The bound keeps a solo scan's buffer (at most 9 bytes a cell:
#: the packed key and the improvement flag) near 0.5 MiB, in cache; a
#: commit larger than the bound gets a buffer of its own size and
#: flushes at once.  Twice the bound ran no faster and raised the peak
#: RSS of a cold sweep of the four paper replicas by 5-11 MB (four
#: seeds).  A stack's buffer holds the bound once per scan, up to
#: :data:`STACK_BUFFER_SCANS` times: each flush feeds every scan of the
#: stack, so a buffer of one scan's size would feed each several times
#: as often as a solo scan.
ROW_BUFFER_CELLS = 1 << 16
#: Scans' worth of :data:`ROW_BUFFER_CELLS` a stack's row buffer holds
#: at most.  Four cut a cold sweep of the four paper replicas by ~15%
#: against one, for ~3 MB of peak RSS.
STACK_BUFFER_SCANS = 4

#: Windows in a resumed scan's first run-planning block; each later
#: block doubles, up to :data:`LAST_PLAN_BLOCK` windows, so a resumed
#: scan that settles after a few windows plans little more than those
#: (a run never spans two blocks).  Its lockstep steps come in blocks
#: of the same first size, doubling up to :data:`LAST_STEP_BLOCK`.
#: Every other scan plans in the largest blocks from the start: each
#: block costs a fixed few dozen numpy calls.
FIRST_PLAN_BLOCK = 8
#: The largest run-planning block of one scan, in windows.
LAST_PLAN_BLOCK = 512
#: The largest lockstep block of a stack, in steps: it bounds the
#: layout a stack of many scans holds at once.
LAST_STEP_BLOCK = 128


@dataclass(frozen=True)
class DistanceStats:
    """Aggregate distance statistics over all pairs and departure steps.

    ``mean_distance_steps`` is the mean of ``d_time(u, v, t)`` (in window
    counts) over every ordered pair ``u != v`` and every departure step
    ``t`` with a finite distance; ``mean_distance_hops`` averages
    ``d_hops`` over the same support.  Multiply the former by Δ to get the
    paper's *distance in absolute time*.
    """

    mean_distance_steps: float
    mean_distance_hops: float
    reachable_fraction: float
    reachable_count: int


class DistanceTotals:
    """Accumulates the classical distance sums from a backward scan.

    The scan exposes two hooks.  :meth:`observe_row` sees every state-row
    update (the pre- and post-window arrival/hop rows of the touched
    source) and maintains the current window-state totals ``S = Σ A``,
    ``C = #finite``, ``SH = Σ H`` over finite non-diagonal entries.
    :meth:`close_run` folds those totals into the departure-step sums for
    a run of steps over which the state is constant (every step between
    two nonempty windows sees the same reachability picture), in closed
    form.

    All sums are kept as exact Python integers — every contribution is an
    integer, so spliced window spans (:meth:`absorb_segment`) add up to
    exactly the whole scan's sums, and the final means divide once at
    :meth:`stats` time.  (The former float-accumulation path agreed
    bit-for-bit below 2**53 but was neither splice-stable nor exact
    beyond it.)
    """

    __slots__ = ("S", "C", "SH", "dist_sum", "hops_sum", "count_sum")

    def __init__(self) -> None:
        self.S = 0
        self.C = 0
        self.SH = 0
        self.dist_sum = 0
        self.hops_sum = 0
        self.count_sum = 0

    def observe_row(
        self,
        source: int,
        step: int,
        old_A: np.ndarray,
        old_H: np.ndarray,
        new_A: np.ndarray,
        new_H: np.ndarray,
        self_col: int,
    ) -> None:
        """Fold one source-row update into the window-state totals.

        ``source`` is the node whose state row was updated and ``step``
        the window being processed (both unused here — the totals are
        global and folded run-wise through :meth:`close_run` — but part
        of the accumulator contract so per-pair accumulators can fold
        row-wise instead).  ``self_col`` is the column of the row's own
        node: the diagonal entry, excluded from distance statistics.
        """
        old_finite = old_A < INT_INF
        new_finite = new_A < INT_INF
        old_finite[self_col] = False
        new_finite[self_col] = False
        self.S += int(new_A[new_finite].sum()) - int(old_A[old_finite].sum())
        self.C += int(new_finite.sum()) - int(old_finite.sum())
        self.SH += int(new_H[new_finite].sum()) - int(old_H[old_finite].sum())

    def observe_rows(
        self,
        sources: np.ndarray,
        step: int,
        old_A: np.ndarray,
        old_H: np.ndarray,
        new_A: np.ndarray,
        new_H: np.ndarray,
        self_cols: np.ndarray,
    ) -> None:
        """Vectorized :meth:`observe_row` over one batch of source rows.

        ``old_A``/``old_H``/``new_A``/``new_H`` are ``(len(sources),
        num_nodes)`` matrices, ``self_cols`` the per-row diagonal column.
        The totals are sums of exact integers, so folding the whole batch
        at once is bit-identical to per-row :meth:`observe_row` calls.
        """
        old_finite = old_A < INT_INF
        new_finite = new_A < INT_INF
        rows = np.arange(self_cols.size)
        old_finite[rows, self_cols] = False
        new_finite[rows, self_cols] = False
        self.S += int(new_A[new_finite].sum()) - int(old_A[old_finite].sum())
        self.C += int(new_finite.sum()) - int(old_finite.sum())
        self.SH += int(new_H[new_finite].sum()) - int(old_H[old_finite].sum())

    def close_run(self, t_low: int, t_high: int) -> None:
        """Fold the current state into the sums for departures in
        ``[t_low, t_high]``.

        For each departure step ``t`` in the run, every finite entry
        contributes ``A - t + 1`` to the distance-in-steps sum and ``H``
        to the hops sum; with ``S``, ``C``, ``SH`` constant across the
        run this folds into closed form.
        """
        if t_high < t_low:
            return
        run_len = t_high - t_low + 1
        t_total = (t_low + t_high) * run_len // 2
        self.dist_sum += run_len * (self.S + self.C) - self.C * t_total
        self.hops_sum += run_len * self.SH
        self.count_sum += run_len * self.C

    def segment_handoff(self) -> "DistanceTotals":
        """Freeze this accumulator as a scan segment; return its successor.

        The checkpoint contract of incremental scan resume: at a
        checkpointed window boundary the scan swaps in the returned
        accumulator, which *takes over* the live window-state totals
        ``S``/``C``/``SH`` (they describe the scan state, not this
        span's contributions) and keeps folding; ``self`` keeps only the
        departure-run sums it accumulated — exactly one window span's
        contribution, splicable via :meth:`absorb_segment`.
        """
        live = DistanceTotals()
        live.S, live.C, live.SH = self.S, self.C, self.SH
        self.S = self.C = self.SH = 0
        return live

    def absorb_segment(self, other: "DistanceTotals") -> "DistanceTotals":
        """Add a cached span's *contributions* (in-place; returns ``self``).

        Splicing a contiguous window span adds only the departure-run
        sums: the span's ``S``/``C``/``SH`` are scan state already
        carried forward by the handoff chain (zero on stored segments),
        never a contribution.  Reads but never mutates
        ``other``, so cached segments survive any number of splices.
        """
        if not isinstance(other, DistanceTotals):
            raise ValidationError(
                f"cannot splice DistanceTotals with {type(other).__name__}"
            )
        self.dist_sum += other.dist_sum
        self.hops_sum += other.hops_sum
        self.count_sum += other.count_sum
        return self

    def stats(self, num_nodes: int, num_steps: int) -> DistanceStats:
        """Assemble the accumulated sums into :class:`DistanceStats`.

        ``num_nodes`` and ``num_steps`` give the support of the means:
        the series geometry.
        """
        total_possible = num_nodes * (num_nodes - 1) * num_steps
        count = self.count_sum
        return DistanceStats(
            mean_distance_steps=self.dist_sum / count if count else float("inf"),
            mean_distance_hops=self.hops_sum / count if count else float("inf"),
            reachable_fraction=count / total_possible if total_possible else 0.0,
            reachable_count=count,
        )


class EarliestArrivalAccumulator:
    """Per-pair earliest-arrival sums from a backward scan.

    The same closed-form departure-run folding as
    :class:`DistanceTotals`, kept *per ordered pair* instead of
    globally: for every source ``u`` and every destination ``v`` the
    accumulator counts the departure steps from which ``u`` reaches
    ``v`` (``reach_steps``) and sums the corresponding distances in
    window counts (``dist_sum``, each finite entry contributing ``A - t
    + 1`` per departure step ``t``) and minimum hop counts
    (``hops_sum``).  All three are exact ``int64`` matrices of shape
    ``(num_nodes, num_nodes)``.

    Folding is **row-wise**: a state row only changes when the scan
    updates it, so each row's current values are constant over the
    departure steps between two of its updates.  :meth:`observe_row`
    folds the outgoing values over that interval in closed form — ``O(
    width)`` per row update, the same order as the update itself — and
    :meth:`finish` folds each row's final values down to departure step
    0.  (:meth:`close_run`, the global-run hook, is a deliberate no-op
    here.)

    Diagonal entries (``u == v``) are accumulated like any other
    and must be masked by the consumer (the measure zeroes them, per the
    paper's pairs-of-distinct-nodes convention).
    """

    __slots__ = (
        "num_nodes",
        "num_steps",
        "reach_steps",
        "dist_sum",
        "hops_sum",
        "_A",
        "_H",
        "_row_hi",
    )

    def __init__(self) -> None:
        self.num_nodes = 0
        self.num_steps = 0
        self.reach_steps: np.ndarray | None = None
        self.dist_sum: np.ndarray | None = None
        self.hops_sum: np.ndarray | None = None
        self._A: np.ndarray | None = None
        self._H: np.ndarray | None = None
        self._row_hi: np.ndarray | None = None

    def begin(self, num_nodes: int, num_steps: int) -> None:
        """Allocate state for a scan of ``num_nodes`` nodes over
        ``num_steps`` departure steps."""
        self.num_nodes = int(num_nodes)
        self.num_steps = int(num_steps)
        shape = (num_nodes, num_nodes)
        self.reach_steps = np.zeros(shape, dtype=np.int64)
        self.dist_sum = np.zeros(shape, dtype=np.int64)
        self.hops_sum = np.zeros(shape, dtype=np.int64)
        self._A = np.full(shape, INT_INF, dtype=np.int64)
        self._H = np.full(shape, HOP_INF, dtype=np.int64)
        #: Highest departure step whose contribution for the row's
        #: *current* values is still pending.  The initial all-infinite
        #: rows contribute nothing, so starting at the last step is safe.
        self._row_hi = np.full(num_nodes, num_steps - 1, dtype=np.int64)

    def _fold_row(
        self,
        source: int,
        A_row: np.ndarray,
        H_row: np.ndarray,
        t_low: int,
        t_high: int,
    ) -> None:
        """Fold one row's constant values over departures ``[t_low, t_high]``."""
        if t_high < t_low:
            return
        finite = A_row < INT_INF
        if not finite.any():
            return
        run_len = t_high - t_low + 1
        t_total = (t_low + t_high) * run_len // 2
        self.reach_steps[source, finite] += run_len
        self.dist_sum[source, finite] += run_len * (A_row[finite] + 1) - t_total
        self.hops_sum[source, finite] += run_len * H_row[finite]

    def observe_row(
        self,
        source: int,
        step: int,
        old_A: np.ndarray,
        old_H: np.ndarray,
        new_A: np.ndarray,
        new_H: np.ndarray,
        self_col: int,
    ) -> None:
        """Fold the outgoing row values, then mirror the update.

        The row's old values were the reachability picture for every
        departure step in ``(step, row_hi]`` — no lower window has
        touched the row in between.
        """
        k = int(step)
        self._fold_row(source, old_A, old_H, k + 1, int(self._row_hi[source]))
        self._A[source] = new_A
        self._H[source] = new_H
        self._row_hi[source] = k

    def observe_rows(
        self,
        sources: np.ndarray,
        step: int,
        old_A: np.ndarray,
        old_H: np.ndarray,
        new_A: np.ndarray,
        new_H: np.ndarray,
        self_cols: np.ndarray,
    ) -> None:
        """Vectorized :meth:`observe_row` over one batch of source rows.

        Folds every row's outgoing values over its pending departure run
        ``[step + 1, row_hi]`` in one closed-form pass (all integer
        arithmetic, so bit-identical to per-row folding), then mirrors
        the whole batch.  ``sources`` are unique within a window by
        construction, so the fancy-indexed ``+=`` never collides.
        """
        k = int(step)
        t_hi = self._row_hi[sources]
        run_len = t_hi - k  # run [k + 1, t_hi] has t_hi - k steps
        active = run_len > 0
        finite = (old_A < INT_INF) & active[:, None]
        if finite.any():
            run = run_len[:, None]
            t_total = ((k + 1 + t_hi) * run_len // 2)[:, None]
            # Mask *before* multiplying: run * INT_INF would wrap int64.
            a = np.where(finite, old_A, 0)
            h = np.where(finite, old_H, 0)
            self.reach_steps[sources] += np.where(finite, run, 0)
            self.dist_sum[sources] += np.where(
                finite, run * (a + 1) - t_total, 0
            )
            self.hops_sum[sources] += np.where(finite, run * h, 0)
        self._A[sources] = new_A
        self._H[sources] = new_H
        self._row_hi[sources] = k

    def close_run(self, t_low: int, t_high: int) -> None:
        """No-op: folding happens row-wise (see the class docstring)."""

    def finish(self) -> None:
        """Fold every row's final values over the remaining departures
        ``[0, row_hi]`` (called once by the scan, after the last window).

        The mirrored scan state is dead afterwards and is released —
        cached scan spans should carry the three result matrices, not
        two garbage state copies too.
        """
        if self._A is None:
            return
        # One closed-form, masked pass over every row (all integer
        # arithmetic, so bit-identical to folding row by row): a row's
        # pending run [0, row_hi] has row_hi + 1 steps.  The dead state
        # is reused in place; `reach` is zero off the finite cells, so
        # the sentinels multiply to zero and never wrap.
        run_len = self._row_hi + 1
        reach = np.where(self._A < INT_INF, run_len[:, None], 0)
        self.reach_steps += reach
        A = self._A
        A += 1
        A *= reach
        t_total = (self._row_hi * run_len // 2)[:, None]
        np.subtract(A, t_total, out=A, where=reach > 0)
        self.dist_sum += A
        H = self._H
        H *= reach
        self.hops_sum += H
        self._A = None
        self._H = None
        self._row_hi = None

    def segment_handoff(self) -> "EarliestArrivalAccumulator":
        """Freeze this accumulator as a scan segment; return its successor.

        The checkpoint contract of incremental scan resume: the
        successor takes over the *live* mirrored scan state (``_A``/
        ``_H``/``_row_hi`` — including each row's pending departure-run
        obligation) with fresh zero contribution matrices, while
        ``self`` keeps exactly the contributions folded so far: one
        window span, splicable via :meth:`absorb_segment`.  ``self`` is
        sealed (state dropped without folding — its pending runs moved
        to the successor) just like :meth:`finish` leaves a completed
        accumulator.
        """
        live = EarliestArrivalAccumulator()
        live.num_nodes = self.num_nodes
        live.num_steps = self.num_steps
        live.reach_steps = np.zeros_like(self.reach_steps)
        live.dist_sum = np.zeros_like(self.dist_sum)
        live.hops_sum = np.zeros_like(self.hops_sum)
        live._A = self._A
        live._H = self._H
        live._row_hi = self._row_hi
        self._A = None
        self._H = None
        self._row_hi = None
        return live

    def absorb_segment(
        self, other: "EarliestArrivalAccumulator"
    ) -> "EarliestArrivalAccumulator":
        """Add a cached span's contribution matrices (in-place; returns
        ``self``).  Both sides must come from scans of one node set.
        Reads but never mutates ``other``, so cached segments survive
        any number of splices."""
        if not isinstance(other, EarliestArrivalAccumulator):
            raise ValidationError(
                "cannot splice EarliestArrivalAccumulator with "
                f"{type(other).__name__}"
            )
        if (
            self.reach_steps is None
            or other.reach_steps is None
            or self.reach_steps.shape != other.reach_steps.shape
        ):
            raise ValidationError(
                "cannot splice reachability segments of different shapes"
            )
        self.reach_steps += other.reach_steps
        self.dist_sum += other.dist_sum
        self.hops_sum += other.hops_sum
        return self


@dataclass(frozen=True)
class ScanResult:
    """Outcome of a backward scan."""

    num_trips: int
    num_steps: int


class ScanCheckpoint:
    """One frozen window-boundary state of a backward scan.

    Captured at the *top* of the scan iteration for ``window`` — before
    that iteration's departure-run close and before the window's hops
    apply — so it is the exact incoming state a later scan reaches when
    it arrives at the same window.  ``last_processed`` is the previous
    (higher) nonempty window already applied; a resumed scan may only
    settle here when its own previous window matches, otherwise the
    pending departure run differs.

    Built from the scan's packed keys ``P = A * K + H`` over rank steps
    (see the module docstring's *The scan kernel*), it keeps only the
    **finite cells**: ``mask`` packs the C-order bitmap
    ``P < a_inf * K`` with :func:`numpy.packbits`, and ``keys`` holds
    those cells' keys in C order, in the narrowest integer dtype that
    holds every key (``np.min_scalar_type(K * K - 1)``).  Both arrays
    are read-only; ``shape`` is the state's ``(nodes, width)`` and
    ``finite`` the number of keys.  A sparse state (most pairs still
    unreachable) costs little more than its finite keys; a fully finite
    one ``⌈nodes · width / 8⌉`` bytes more than a dense narrow copy.
    ``table`` is a reference (not a copy) to the scan's rank → window
    table, which fixes ``a_inf = len(table)`` and ``K = a_inf + 2``; an
    append that adds windows changes ``K``, so a resumed scan compares
    keys directly only when its ``K`` matches and otherwise compares
    the decoded finite cells.  The dense packed keys ``P`` and the
    canonical ``A``/``H`` (real window indices, with the
    :data:`INT_INF`/:data:`HOP_INF` sentinels) are rebuilt on demand.
    """

    __slots__ = (
        "window", "last_processed", "mask", "keys", "shape", "finite",
        "table",
    )

    def __init__(
        self, window: int, last_processed: int, P: np.ndarray,
        table: np.ndarray, radix: int | None = None,
    ) -> None:
        a_inf = int(table.size)
        K = a_inf + 2
        # A stacked scan packs with the stack's radix; the finite keys
        # are re-encoded to the scan's own.
        radix = K if radix is None else radix
        finite = P < (radix - 2) * radix
        keys = P[finite]
        if radix != K:
            keys, hops = np.divmod(keys, radix)
            keys *= K
            keys += hops
        self.window = int(window)
        self.last_processed = int(last_processed)
        self.mask = np.packbits(finite)
        self.keys = keys.astype(np.min_scalar_type(K * K - 1))
        self.mask.setflags(write=False)
        self.keys.setflags(write=False)
        self.shape = P.shape
        self.finite = int(self.keys.size)
        self.table = table

    @property
    def K(self) -> int:
        """The packing radix: every packed hop count is below it."""
        return int(self.table.size) + 2

    @property
    def P(self) -> np.ndarray:
        """The dense int64 packed keys (rebuilt on each access)."""
        a_inf = int(self.table.size)
        K = a_inf + 2
        P = np.full(self.shape, a_inf * K + K - 1, dtype=np.int64)
        finite = np.unpackbits(self.mask, count=P.size).view(bool)
        P.reshape(-1)[finite] = self.keys
        return P

    @property
    def A(self) -> np.ndarray:
        """The canonical arrival matrix (decoded on each access)."""
        return _unpack_rows(self.P, self.table)[0]

    @property
    def H(self) -> np.ndarray:
        """The canonical hop matrix (decoded on each access)."""
        return _unpack_rows(self.P, self.table)[1]

    @property
    def nbytes(self) -> int:
        return int(self.mask.nbytes + self.keys.nbytes)


class CheckpointRecorder:
    """Collects checkpoints and consumer spans during one scan.

    Pass one to :func:`scan_series` (``checkpoints=``) to capture resume
    state: at selected window boundaries the scan snapshots its state as
    a :class:`ScanCheckpoint` and hands every consumer off to a fresh
    successor (``segment_handoff``), so ``spans[i]`` ends up holding
    exactly the consumers' contributions from ``checkpoints[i]``'s
    window down to the next boundary (the last span runs to the end of
    the scan, terminal folds included).  ``span_trips[i]`` counts the
    trips recorded in that span.  Consumers live *before* the first
    checkpoint (the caller's own objects) are never stored — they become
    the assembled result.

    Captures happen at scan iterations 1, 2, 4, 8, … counted from the
    scan's start (descending windows, so they sit at the stream's newest
    end, where future appends settle): a scan of ``W`` nonempty windows
    keeps ``⌊log₂(W − 1)⌋ + 1`` checkpoints, and a resume that settles
    ``d`` iterations below the appended suffix scans at most ``2d``.
    Each holds its finite-cell bitmask and narrow finite keys
    (:attr:`ScanCheckpoint.nbytes`).  ``max_bytes`` caps their total
    (``None``: unbounded); a capture that would exceed it is skipped,
    keeping the near-end checkpoints.
    """

    def __init__(self, *, max_bytes: int | None = None) -> None:
        self.checkpoints: list[ScanCheckpoint] = []
        self.spans: list[tuple] = []
        self.span_trips: list[int] = []
        self._max_bytes = None if max_bytes is None else int(max_bytes)
        self._bytes = 0

    def wants(self, iterations: np.ndarray) -> np.ndarray:
        """Which iterations the scan should capture before (0-based from
        the scan's start; the incoming state of iteration 0 is
        all-infinite and never worth storing).  The scan asks once, for
        every iteration, and carries the answer in its run plan."""
        it = np.asarray(iterations)
        return (it >= 1) & ((it & (it - 1)) == 0)

    def capture(
        self, window: int, last_processed: int, P: np.ndarray,
        table: np.ndarray, radix: int | None = None,
    ) -> bool:
        """Store the finite cells of the packed state ``P`` (decoded by
        ``table``; packed with ``radix``, by default ``len(table) + 2``)
        as one checkpoint; ``False`` when the byte budget is spent (the
        scan then simply keeps feeding the current span).  The cost
        depends on the finite count, so the checkpoint is built before
        the budget decides."""
        ckpt = ScanCheckpoint(window, last_processed, P, table, radix)
        cost = ckpt.nbytes
        if self._max_bytes is not None and self._bytes + cost > self._max_bytes:
            return False
        self.checkpoints.append(ckpt)
        self._bytes += cost
        return True

    def store_span(self, consumers, trips: int) -> None:
        """Record one completed span's frozen consumers and trip count."""
        self.spans.append(tuple(consumers))
        self.span_trips.append(int(trips))

    def adopt_tail(
        self,
        checkpoints: Sequence[ScanCheckpoint],
        spans: Sequence[tuple],
        span_trips: Sequence[int],
    ) -> None:
        """Append a settled scan's reused tail (shared, immutable refs
        from the previous record) so the new record stays complete."""
        self.checkpoints.extend(checkpoints)
        self.spans.extend(spans)
        self.span_trips.extend(span_trips)
        self._bytes += sum(c.nbytes for c in checkpoints)

    @property
    def nbytes(self) -> int:
        """Bytes held by the recorded checkpoint states."""
        return self._bytes


class ResumePlan:
    """Cached checkpoints a resumed scan may settle against.

    Built from a previous scan's record over a *prefix* of the current
    series: only checkpoints strictly below ``limit`` (the straddle
    window — the first window any appended event touches) are
    candidates, since above it the two series differ.  Checkpoint
    windows descend in capture order, so the eligible ones are a
    contiguous tail slice, keeping span alignment intact.
    """

    def __init__(
        self,
        checkpoints: Sequence[ScanCheckpoint],
        spans: Sequence[tuple],
        span_trips: Sequence[int],
        *,
        limit: int,
    ) -> None:
        if not len(checkpoints) == len(spans) == len(span_trips):
            raise ValidationError(
                "resume plan needs one span and trip count per checkpoint"
            )
        first = len(checkpoints)
        for i, ckpt in enumerate(checkpoints):
            if ckpt.window < limit:
                first = i
                break
        self._checkpoints = list(checkpoints[first:])
        self._spans = list(spans[first:])
        self._span_trips = [int(t) for t in span_trips[first:]]
        self._by_window = {
            ckpt.window: i for i, ckpt in enumerate(self._checkpoints)
        }
        #: The candidate windows, for the run planner (a run never
        #: absorbs one: the scan compares its incoming state).
        self.windows = np.fromiter(self._by_window, dtype=np.int64)

    def __len__(self) -> int:
        return len(self._checkpoints)

    def candidate(self, window: int) -> tuple[int, ScanCheckpoint] | None:
        """The eligible checkpoint at ``window`` (with its index), if any."""
        index = self._by_window.get(int(window))
        if index is None:
            return None
        return index, self._checkpoints[index]

    def tail(
        self, index: int
    ) -> tuple[list[ScanCheckpoint], list[tuple], list[int]]:
        """Everything from checkpoint ``index`` down: the reusable tail."""
        return (
            self._checkpoints[index:],
            self._spans[index:],
            self._span_trips[index:],
        )


def _absorb_span(original, part) -> None:
    """Fold one cached span consumer into the caller's consumer.

    Accumulators splice via ``absorb_segment`` (contributions only);
    trip collectors via their ``merge``, which reads but never
    mutates the absorbed side — both leave the cached segment pristine.
    """
    absorb = getattr(original, "absorb_segment", None)
    if absorb is not None:
        absorb(part)
    else:
        original.merge(part)


def _require_segment_support(items) -> None:
    """Checkpointing/resume demands the handoff contract of every consumer."""
    for item in items:
        if not hasattr(item, "segment_handoff"):
            raise ValidationError(
                f"{type(item).__name__} does not support segment_handoff; "
                "checkpointed scans need every consumer to implement the "
                "checkpoint contract"
            )


def consumer_list(collector) -> list:
    """The ``collector`` argument of a scan (``None``, one consumer, or
    a sequence of consumers) as a list."""
    if collector is None:
        return []
    if isinstance(collector, (list, tuple)):
        return list(collector)
    return [collector]


def _split_consumers(collector) -> tuple[list, list]:
    """Normalize the ``collector`` argument into (trip collectors,
    state accumulators).

    Accepts ``None``, a single consumer, or a sequence of consumers.
    Trip collectors implement ``record`` (the
    :class:`~repro.temporal.collectors.TripCollector` protocol); state
    accumulators implement ``observe_row`` (:class:`DistanceTotals`).
    """
    trip_collectors: list = []
    accumulators: list = []
    for item in consumer_list(collector):
        if hasattr(item, "observe_row"):
            accumulators.append(item)
        elif hasattr(item, "record"):
            trip_collectors.append(item)
        else:
            raise ValidationError(
                f"{type(item).__name__} is neither a trip collector "
                "(record) nor a state accumulator (observe_row)"
            )
    return trip_collectors, accumulators


def _chunk_bounds(seg_sizes: np.ndarray, max_rows: int) -> np.ndarray:
    """Greedy chunking of a run's segments: as many whole segments per
    chunk as fit ``max_rows`` hop rows (always at least one).

    Returns the chunk boundaries as indices into the segment list
    (length ``num_chunks + 1``, starting 0, ending ``seg_sizes.size``).
    """
    cum = np.cumsum(seg_sizes)
    bounds = [0]
    while bounds[-1] < seg_sizes.size:
        lo = bounds[-1]
        base = int(cum[lo - 1]) if lo else 0
        hi = int(np.searchsorted(cum, base + max_rows, side="right"))
        bounds.append(max(hi, lo + 1))
    return np.asarray(bounds, dtype=np.int64)


def _unpack_rows(
    P_rows: np.ndarray, table: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Decode packed keys (state rows, or a checkpoint's finite keys)
    into canonical ``(A, H)``: arrivals as ``table`` values (real window
    indices for a series), sentinels restored.  Committed infinite cells
    are always the canonical ``a_inf * K + (K - 1)`` (never the
    incremented ``(a_inf + 1) * K`` candidate form, which loses every
    lexicographic minimum against it), so the fixup mask is exactly
    ``rank == a_inf``.  Narrow checkpoint keys widen to int64 first, so
    the sentinels fit.
    """
    a_inf = table.size
    P_rows = P_rows.astype(np.int64, copy=False)
    A = P_rows // (a_inf + 2)
    H = P_rows - A * (a_inf + 2)
    infinite = A == a_inf
    if a_inf and (table[0] != 0 or table[-1] != a_inf - 1):
        # Not the identity (a series with empty windows): decode.
        # Infinite cells clip onto the last window; the fixup below
        # overwrites them.
        A = table.take(A, mode="clip")
    A[infinite] = INT_INF
    H[infinite] = HOP_INF
    return A, H


class _RowBuffer:
    """Committed rows whose minimal trips the run kernel has not
    extracted yet.

    Each state commit of the run kernel (one *group*: a step of the
    stack, or one chunk of a step over the cell budget) writes its
    strict-improvement mask and its new packed rows into the next
    consecutive rows of ``mask`` and ``keys`` (``np.less``/
    ``np.minimum`` with ``out=``).  Buffered rows are laid-out segments
    ``[lo, lo + rows)`` of one :class:`_RunBlock`, and the buffer always
    holds whole groups.

    :meth:`flush` turns everything buffered into trips at once: it
    clears the diagonal (unless ``include_self``), puts the rows in
    delivery order (scan by scan, each in segment order; within a group
    the kernel lays segments out by size, see :class:`_RunBlock`), runs
    one C-order ``nonzero``, decodes the packed keys (radix ``K``) and
    feeds each scan's current consumers one ``record_batch`` each, with
    ranks decoded through that scan's rank → value table (durations are
    ``arr - dep + extra``: ``extra`` is 1 for a series, 0 for a
    stream).  ``trips[slot]`` counts each scan's trips.  A checkpoint
    capture does not flush: it marks the buffer row where its scan's
    consumers hand off (:meth:`handoff`), and the flush delivers the
    scan's trips from rows above the mark, hands off, then delivers the
    rest.  The buffer flushes itself when a group comes from another
    block or would not fit, and once it holds its cell bound; the scan
    flushes it between lockstep blocks, before a settle and at its end.
    """

    __slots__ = (
        "slots", "K", "extra", "include_self", "width",
        "cap", "mask", "keys", "dtype", "block", "lo", "rows", "trips",
        "handoffs", "slot",
    )

    def __init__(
        self,
        slots: list,
        K: int,
        extra: int,
        include_self: bool,
        width: int,
        dtype: type,
    ) -> None:
        self.slots = slots
        self.K = K
        self.extra = extra
        self.include_self = include_self
        self.width = width
        #: Rows that make up the cell bound (at least one).
        cells = ROW_BUFFER_CELLS * min(len(slots), STACK_BUFFER_SCANS)
        self.cap = max(-(-cells // max(width, 1)), 1)
        self.mask: np.ndarray | None = None
        self.keys: np.ndarray | None = None
        self.dtype = dtype
        self.block: _RunBlock | None = None
        self.lo = 0
        self.rows = 0
        self.trips = [0] * len(slots)
        #: Per scan, the buffer rows where its consumers hand off.
        self.handoffs: dict[int, list[int]] = {}
        #: The scan whose consumers are being fed (``None`` between
        #: deliveries): a failure there is that scan's.
        self.slot: int | None = None

    def claim(self, block: "_RunBlock", lo: int, nseg: int) -> None:
        """Make room for a group of ``nseg`` rows starting at laid-out
        segment ``lo`` of ``block``."""
        if self.rows and (
            block is not self.block or self.rows + nseg > self.cap
        ):
            self.flush()
        if not self.rows:
            self.block = block
            self.lo = lo
            if self.mask is None or nseg > self.mask.shape[0]:
                size = max(self.cap, nseg)
                self.mask = np.empty((size, self.width), dtype=bool)
                self.keys = np.empty((size, self.width), dtype=self.dtype)

    def handoff(self, slot: int) -> None:
        """Scan ``slot`` captured a checkpoint: its consumers hand off
        after the trips of the rows buffered so far — at the next flush,
        or at once for a scan with state accumulators (they see every
        commit as it happens)."""
        if self.rows and not self.slots[slot].accumulators:
            self.handoffs.setdefault(slot, []).append(self.rows)
            return
        self.flush()
        self.slots[slot].handoff(self.trips[slot])

    def flush(self) -> None:
        """Extract, decode and deliver every buffered trip, with the
        deferred handoffs between them; empty the buffer and add each
        scan's trip count to :attr:`trips`."""
        rows = self.rows
        if not rows:
            return
        self.rows = 0
        block, lo = self.block, self.lo
        self.block = None
        mask = self.mask[:rows]
        if not self.include_self:
            diag = block.sources[lo:lo + rows]
            at = np.arange(0, rows * self.width, self.width) + diag
            mask.reshape(-1)[at] = False
        if (
            block.slots is None
            and not self.handoffs
            and not self.slots[0].collectors
        ):
            # A scan only counting its trips.
            self.trips[0] += int(np.count_nonzero(mask))
            return
        # C-order nonzero over rows in delivery order: scan by scan,
        # segments in (window descending, source) order, columns
        # ascending within each — the reference loop's window-by-window,
        # source-by-source emission order.  (Flat indices: a 2-D
        # nonzero is several times slower.)
        width = self.width
        if block.order is None:
            flat = np.flatnonzero(mask)
            row_idx, col_idx = np.divmod(flat, width)
        else:
            ordered = np.argsort(block.order[lo:lo + rows])
            row_idx, col_idx = np.divmod(np.flatnonzero(mask[ordered]), width)
            row_idx = ordered[row_idx]
            flat = row_idx * width + col_idx
        # Recorded cells improved, hence are finite: decoding the keys
        # needs no sentinel fixup.
        ranks, hops = np.divmod(
            self.keys[:rows].reshape(-1)[flat].astype(np.int64), self.K
        )
        del flat
        buffered = row_idx
        row_idx = row_idx + lo
        trip = (
            block.sources[row_idx],
            block.ranks[row_idx],
            col_idx,
            ranks,
            hops,
        )
        # Delivery order keeps each scan's trips contiguous.
        bounds = (
            [0, ranks.size] if block.slots is None
            else np.searchsorted(
                block.slots[row_idx], np.arange(len(self.trips) + 1)
            ).tolist()
        )
        handoffs, self.handoffs = self.handoffs, {}
        for slot, (a, b) in enumerate(zip(bounds, bounds[1:])):
            # A scan's rows above a handoff row precede the rest in
            # delivery order (groups commit in step order).
            for cut in handoffs.get(slot, ()):
                c = a + int(np.count_nonzero(buffered[a:b] < cut))
                self._deliver(slot, trip, a, c)
                self.slots[slot].handoff(self.trips[slot])
                a = c
            self._deliver(slot, trip, a, b)

    def _deliver(self, slot: int, trip: tuple, a: int, b: int) -> None:
        """Feed trips ``[a, b)`` (sources, departure ranks, targets,
        arrival ranks, hops) to scan ``slot``'s consumers, decoded."""
        if a == b:
            return
        self.trips[slot] += b - a
        self.slot = slot
        table = self.slots[slot].table
        sources, deps, targets, arrivals, hops = (c[a:b] for c in trip)
        deps = table[deps]
        arrivals = table[arrivals]
        durations = arrivals - deps
        if self.extra:
            durations += self.extra
        for collector in self.slots[slot].collectors:
            record_batch = getattr(collector, "record_batch", None)
            if record_batch is not None:
                record_batch(sources, deps, targets, arrivals, hops, durations)
            else:
                record_batch_fallback(
                    collector, sources, deps, targets, arrivals, hops,
                    durations,
                )
        self.slot = None


class _Segments:
    """One block of consecutive windows of one scan, cut into runs.

    The block's hops (expanded for undirected input) sort by (scan
    position, source) — window descending, then source — so each
    (window, source) pair is one contiguous **segment** in *segment
    order* and every run of the block's windows is a contiguous range
    of segments.  ``sources``, ``ranks`` (the rank of the segment's
    departure window) and ``sizes`` are per segment; ``targets`` holds
    the hop targets in segment order, segment ``i``'s at
    ``hop_at[i]:hop_at[i + 1]``.  Run ``r`` is segments
    ``run_segs[r]:run_segs[r + 1]`` and scan positions
    ``run_pos[r]:run_pos[r + 1]``.
    """

    __slots__ = (
        "sources", "ranks", "sizes", "hop_at", "targets", "run_segs",
        "run_pos",
    )


class _RunBlock:
    """One lockstep block of a stack, laid out for the run kernel.

    Step ``i`` of the block commits run ``i`` of every scan of the stack
    that is still running (a stack of one: its runs, one per step).
    The step's segments, from all its scans, form one **group** or,
    when its hops exceed the chunk budget, several groups of whole
    consecutive segments.  Segment order within a step is (scan,
    segment order); within each group the segments are *laid out* by
    hop count descending (stably), so the segments holding more than
    ``r`` hops are always a prefix.  All per-segment arrays are in
    laid-out order:

    * ``rows`` (the stacked state row each segment writes: scan ``s``
      owns rows ``[s * n, (s + 1) * n)``), ``sources`` (the segment's
      node), ``ranks`` (the rank of its departure window in its scan),
      and ``slots`` (its scan; ``None`` for a stack of one);
    * ``order``, the position of each segment in delivery order (scan
      by scan, each in segment order; ``None`` when laid-out order
      already is delivery order), which the row buffer uses to put the
      trips it extracts in order;
    * ``gather``, one index array holding per group its hop targets'
      rows rank-major (every segment's first hop, then every second
      hop of the segments with two or more, ...) followed by its rows,
      so one ``P[...]`` gather yields both the continuation rows and
      the old rows;
    * ``dpos``/``dkey``, per group the direct hops as flat positions in
      the group's candidate rows (``row * n + column``) with their
      packed keys ``rank * K + 1``.
    """

    __slots__ = (
        "rows", "sources", "ranks", "slots", "order",
        "gather", "dpos", "dkey",
    )


def _previous_writers(
    sources: np.ndarray,
    seg_pos: np.ndarray,
    targets: np.ndarray,
    hop_pos: np.ndarray,
    count: int,
) -> np.ndarray:
    """For each of a block's ``count`` scan positions, the latest earlier
    position whose window writes a row this window reads (-1 if none).

    A window writes its source rows and reads its sources and its hop
    targets.  The touches are sorted by (row, position) with a window's
    reads ahead of its own writes, so a running maximum over the writes
    — offset per row so each row's values exceed every earlier row's —
    yields, at each read, the latest strictly earlier writer of its row.
    """
    nseg = sources.size
    rows = np.concatenate([sources, targets, sources])
    pos = np.concatenate([seg_pos, hop_pos, seg_pos])
    writes = np.zeros(rows.size, dtype=bool)
    writes[rows.size - nseg:] = True
    order = np.argsort((rows * count + pos) * 2 + writes)
    rows, pos, writes = rows[order], pos[order], writes[order]
    base = rows * (count + 1)
    latest = np.maximum.accumulate(np.where(writes, base + pos + 1, base))
    latest -= base + 1
    reads = ~writes
    writer = np.full(count, -1, dtype=np.int64)
    np.maximum.at(writer, pos[reads], latest[reads])
    return writer


def _greedy_runs(writer: np.ndarray) -> list[int]:
    """Cut a block into runs, greedily in scan order: position ``i``
    opens a new run when its latest earlier writer (``writer[i]``) lies
    inside the open run; otherwise it joins it.  Returns run starts."""
    starts = [0]
    start = 0
    for i, latest in enumerate(writer.tolist()):
        if latest >= start and i:
            start = i
            starts.append(i)
    return starts


def _plan_segments(
    series: GraphSeries,
    windows: np.ndarray,
    first: int,
    end: int,
    stops: np.ndarray,
    single: bool,
) -> _Segments:
    """Sort scan positions ``[first, end)`` of one scan into segments
    and cut them into runs (see :class:`_Segments`).  A run opens at
    every scan position where ``stops`` is set; ``single`` makes every
    window its own run.  The sort and conflict temporaries die here."""
    n = series.num_nodes
    nw = windows.size
    count = end - first
    # Scan positions [first, end) are ascending windows [j_lo, j_hi).
    j_lo, j_hi = nw - end, nw - first
    # Edge offsets of the windows (edges sort by window).
    offsets = np.searchsorted(
        series.edge_steps,
        windows[j_lo:j_hi + 1] if j_hi < nw
        else np.append(windows[j_lo:], windows[-1] + 1),
    )
    u = series.edge_sources[offsets[0]:offsets[-1]]
    v = series.edge_targets[offsets[0]:offsets[-1]]
    pos = np.repeat(
        np.arange(count - 1, -1, -1, dtype=np.int64), np.diff(offsets)
    )
    if not series.directed:
        u, v = np.concatenate([u, v]), np.concatenate([v, u])
        pos = np.concatenate([pos, pos])
    key = pos * n + u
    order = np.argsort(key, kind="stable")
    key = key[order]
    nhops = key.size
    # Segment heads: where the sorted (position, source) key changes.
    head = np.empty(nhops, dtype=bool)
    head[0] = True
    np.not_equal(key[1:], key[:-1], out=head[1:])
    starts = np.flatnonzero(head)
    seg_pos, sources = np.divmod(key[starts], n)
    segs = _Segments()
    segs.sources = sources
    # Scan position p of the block is the window of rank j_hi - 1 - p.
    segs.ranks = j_hi - 1 - seg_pos
    segs.hop_at = np.append(starts, nhops)
    segs.sizes = np.diff(segs.hop_at)
    segs.targets = v[order]
    del u, v, pos, key, order
    if single:
        run_starts = np.arange(count)
    else:
        seg_of = np.cumsum(head) - 1
        writer = _previous_writers(
            sources, seg_pos, segs.targets, seg_pos[seg_of], count
        )
        writer[stops[first:end]] = count
        run_starts = _greedy_runs(writer)
    segs.run_segs = np.append(np.searchsorted(seg_pos, run_starts), starts.size)
    segs.run_pos = np.append(run_starts, count) + first
    return segs


def _stack_block(
    pieces: list,
    n: int,
    K: int,
    stacked: bool,
    max_rows: int,
    dtype: type,
) -> tuple[list[int], list[tuple]]:
    """Lay out one lockstep block of a stack as one :class:`_RunBlock`.

    ``pieces`` holds, scan by scan, ``(slot, segs, r0, r1, step0)``:
    runs ``[r0, r1)`` of one :class:`_Segments` of scan ``slot`` go to
    the block's steps ``step0, step0 + 1, ...``; ``stacked`` tells a
    stack of several scans from a stack of one.  Returns, per step, its
    window count and the kernel's ``(block, g0, g1, groups)`` layout
    (see :func:`_apply_run`): a step of more than ``max_rows`` hops
    commits as several groups of whole segments; ``n`` is the node
    count (the state's width) and ``dtype`` the state's.  Everything
    here is state-independent, so the numpy calls of a step do not grow
    with the stack.
    """
    nsteps = max(step0 + r1 - r0 for _, _, r0, r1, step0 in pieces)
    windows = np.zeros(nsteps, dtype=np.int64)
    columns = []
    for slot, segs, r0, r1, step0 in pieces:
        a, b = int(segs.run_segs[r0]), int(segs.run_segs[r1])
        windows[step0:step0 + r1 - r0] += np.diff(segs.run_pos[r0:r1 + 1])
        columns.append((
            segs.sources[a:b],
            segs.ranks[a:b],
            segs.sizes[a:b],
            segs.targets[segs.hop_at[a]:segs.hop_at[b]],
            np.repeat(
                np.arange(step0, step0 + r1 - r0),
                np.diff(segs.run_segs[r0:r1 + 1]),
            ),
            np.full(b - a, slot, dtype=np.int64),
        ))
    sources, ranks, sizes, v, seg_step, seg_slot = (
        np.concatenate(column) for column in zip(*columns)
    )
    del columns
    nseg = sources.size
    nhops = v.size
    if stacked:
        # Segment order: by step, then scan (the pieces come scan by
        # scan, each in step order), moving each segment's hops along.
        order = np.argsort(seg_step, kind="stable")
        hop_from = np.append(0, np.cumsum(sizes)[:-1])[order]
        sources, ranks, sizes = sources[order], ranks[order], sizes[order]
        seg_step, seg_slot = seg_step[order], seg_slot[order]
        del order
        starts = np.append(0, np.cumsum(sizes)[:-1])
        v = v[np.repeat(hop_from - starts, sizes) + np.arange(nhops)]
        del hop_from
    else:
        starts = np.append(0, np.cumsum(sizes)[:-1])
    seg_of = np.repeat(np.arange(nseg), sizes)
    run_segs = np.searchsorted(seg_step, np.arange(nsteps + 1))
    # The state rows: scan s owns rows [s * n, (s + 1) * n).
    seg_rows = sources + seg_slot * n if stacked else sources
    hop_rows = v + (seg_slot * n)[seg_of] if stacked else v
    # Groups: a step commits at once unless its hops exceed the chunk
    # budget; then it commits in chunks of whole segments.
    hop_at = np.append(starts, nhops)
    run_hops = np.diff(hop_at[run_segs])
    group_segs = run_segs
    run_groups = np.arange(run_segs.size)
    big = np.flatnonzero(run_hops > max_rows)
    if big.size:
        cuts = [run_segs[:1]]
        group_count = np.ones(run_hops.size, dtype=np.int64)
        for r, (s0, s1) in enumerate(zip(run_segs[:-1], run_segs[1:])):
            if run_hops[r] <= max_rows:
                cuts.append(np.array([s1]))
            else:
                chunks = _chunk_bounds(sizes[s0:s1], max_rows)[1:]
                group_count[r] = chunks.size
                cuts.append(chunks + s0)
        group_segs = np.concatenate(cuts)
        run_groups = np.append(0, np.cumsum(group_count))
    ngroups = group_segs.size - 1
    group_hops = hop_at[group_segs]
    g_of = np.repeat(np.arange(ngroups), np.diff(group_segs))
    # Lay each group's segments out by size, largest first (stable), and
    # its hops rank-major, ordered by segment within each rank.
    hop_group = g_of[seg_of]
    # Each hop's row in its group's candidate rows (its laid-out
    # segment's position in the group).
    seg_row = seg_of - group_segs[hop_group]
    block = _RunBlock()
    # Delivery order: scan by scan, each in segment order.
    block.order = seg_slot * nseg + np.arange(nseg) if stacked else None
    block.rows, block.sources, block.slots, block.ranks = (
        seg_rows, sources, seg_slot if stacked else None, ranks
    )
    hop_order = None
    if nhops > nseg:
        lay = np.lexsort((-sizes, g_of))
        if np.any(lay != np.arange(nseg)):
            laid_pos = np.empty(nseg, dtype=np.int64)
            laid_pos[lay] = np.arange(nseg)
            block.order = lay if block.order is None else block.order[lay]
            block.rows, block.sources, block.ranks = (
                seg_rows[lay], sources[lay], ranks[lay]
            )
            if stacked:
                block.slots = seg_slot[lay]
            seg_row = laid_pos[seg_of]
            seg_row -= group_segs[hop_group]
        rank = np.arange(nhops)
        rank -= starts[seg_of]
        hop_order = np.lexsort((seg_row, rank, hop_group))
        rank = rank[hop_order]
    # Per group: its hops' rows rank-major, then its laid-out rows.  The
    # sort keeps every group's hops inside the group's own range, so
    # hop_group also gives the group of a sorted position.
    block.gather = np.empty(nhops + nseg, dtype=np.int64)
    at = group_segs[hop_group]
    at += np.arange(nhops)
    block.gather[at] = hop_rows if hop_order is None else hop_rows[hop_order]
    del at, hop_order, hop_rows
    block.gather[np.arange(nseg) + group_hops[1:][g_of]] = block.rows
    # Direct hops, in segment order: flat positions in the candidate rows.
    dpos = seg_row
    dpos *= n
    dpos += v
    dkey = ranks[seg_of]
    dkey *= K
    dkey += 1
    direct_at = group_hops
    block.dpos = dpos
    block.dkey = dkey.astype(dtype, copy=False)
    # Folds: per group and rank >= 1, where the rank's rows start in the
    # group's gather section and how many segments reach that rank.
    folds: list = [()] * ngroups
    if nhops > nseg:
        ranked = np.flatnonzero(rank > 0)
        fold_key = hop_group[ranked] * nhops + rank[ranked]
        brk = np.flatnonzero(
            np.append(True, fold_key[1:] != fold_key[:-1])
        )
        fold_at = ranked[brk]
        fold_count = np.diff(np.append(brk, ranked.size))
        fold_group = hop_group[fold_at]
        fold_off = fold_at - group_hops[fold_group]
        for g, off, c in zip(
            fold_group.tolist(), fold_off.tolist(), fold_count.tolist()
        ):
            folds[g] += ((off, c),)
    # Per group, its gather offset within its step's section.
    group_start = group_hops + group_segs
    run_of_group = np.repeat(np.arange(run_hops.size), np.diff(run_groups))
    group_list = list(
        zip(
            (group_start[:-1] - group_start[run_groups[run_of_group]]).tolist(),
            np.diff(group_hops).tolist(),
            np.diff(group_segs).tolist(),
            group_segs.tolist(),
            direct_at.tolist(),
            direct_at[1:].tolist(),
            folds,
        )
    )
    if big.size:
        bounds = run_groups.tolist()
        run_group_lists = [
            tuple(group_list[lo:hi]) for lo, hi in zip(bounds, bounds[1:])
        ]
    else:
        run_group_lists = [(group,) for group in group_list]
    run_gather = group_start[run_groups].tolist()
    return windows.tolist(), [
        (block, g0, g1, groups)
        for g0, g1, groups in zip(run_gather, run_gather[1:], run_group_lists)
    ]


def _apply_run(
    P: np.ndarray,
    rows: _RowBuffer,
    accumulators: list,
    step: int | None,
    kind: str,
    windows: int,
    block: _RunBlock,
    g0: int,
    g1: int,
    groups: tuple,
) -> None:
    """Apply one lockstep step — one run of conflict-free windows of
    every scan of the stack still running — to the stacked packed
    state.  Bit-identical to the reference loop
    (:func:`repro.temporal.bruteforce.reference_scan`) applied window by
    window, scan by scan (see the module docstring's *The scan kernel*
    for the run rule and *Stacked sweeps* for why stacking is exact).

    ``P`` is the stacked scan state with each ``(arrival rank, hop)``
    pair packed into a single int64 lexicographic key ``A * K + H``
    (``K = rows.K``), infinite cells at the ``a_inf * K + (K - 1)``
    sentinel.  ``step`` is the run's first window (only a stack of one
    has accumulators, and its scans run one window per run), ``kind``
    the tally key and ``windows`` the step's window count.  The step is
    ``block``'s gather section ``[g0, g1)``, committed as ``groups``:
    per group ``(off, nhops, nseg, s0, d0, d1, folds)`` — its gather
    section offset, hop and segment counts, first laid-out segment,
    direct-hop range and its ``(offset, count)`` fold per hop rank (see
    :class:`_RunBlock`).

    Per group, every step depends on the state and nothing else: one
    gather yields the continuation rows (rank-major) and the old rows;
    each rank's rows fold into the segment minima with one in-place
    ``np.minimum`` on a prefix (segments are laid out largest first);
    the continuation costs one hop (``+ 1``); one flat write scatters
    the direct hops; then the strict-improvement mask and the
    lexicographic minimum with the old rows go straight into the row
    buffer, whose rows commit to the state.  Trips are extracted later,
    many groups at once (:meth:`_RowBuffer.flush`).

    A step whose hops exceed the chunk budget comes as several groups
    of whole segments, so it never stages much more than the budget's
    hop rows at once; its groups then read a copied pre-step stash,
    since earlier groups have committed.  A step of one group reads the
    live state directly (nothing commits before its reads are staged).
    """
    index = block.gather[g0:g1]
    if len(groups) == 1:
        stash = P
    else:
        involved = np.unique(index)
        # Fancy indexing copies: this is the pre-step stash.
        stash = P[involved]
        index = np.searchsorted(involved, index)
    K = rows.K
    SCAN_WINDOWS[kind] += windows
    SCAN_BATCHES[kind] += len(groups)
    for off, nhops, nseg, s0, d0, d1, folds in groups:
        SCAN_ROWS[kind] += nseg
        G = stash[index[off:off + nhops + nseg]]
        # Segment minima of the packed keys: arrival first, hop
        # tie-break for free.  Rank 0 holds every segment's first hop.
        cand = G[:nseg]
        for at, reach in folds:
            np.minimum(cand[:reach], G[at:at + reach], out=cand[:reach])
        # The continuation costs one more hop: with H < K packed in the
        # low digit, + 1 increments the hop component alone.  All-
        # infinite segments carry (a_inf * K + K - 1) + 1 = (a_inf + 1)
        # * K, which still sorts above every real candidate and the
        # stashed infinity — the reference loop's never-committed
        # HOP_INF + 1.
        cand += 1
        # A direct hop arrives at its own window, always earlier than
        # any continuation (which departs at the *next* window).
        # (window, source, target) triples are unique, so the scatter
        # never collides.
        cand.reshape(-1)[block.dpos[d0:d1]] = block.dkey[d0:d1]
        # Compare and commit entirely in key space: `candidate < floor`
        # (floor = the old keys' arrival component alone) is the
        # reference loop's `arr < old_A` — strict arrival improvement,
        # the trip-record condition, independent of either hop count —
        # and the lexicographic minimum with the old keys is its
        # improved/tie-better selection: a tie on arrival resolves to
        # the smaller hop via the low digit.
        old = G[nhops:]
        floor = old // K
        floor *= K
        rows.claim(block, s0, nseg)
        r = rows.rows
        np.less(cand, floor, out=rows.mask[r:r + nseg])
        new = np.minimum(cand, old, out=rows.keys[r:r + nseg])
        P[block.rows[s0:s0 + nseg]] = new
        rows.rows = r + nseg
        if accumulators:
            # Scans with accumulators run one window per run.
            _observe(
                accumulators, block.sources[s0:s0 + nseg], step, old, new,
                rows.slots[0].table,
            )
        if rows.rows >= rows.cap:
            rows.flush()
        # Release this group's gather before the next one allocates
        # its own: in a chunked step each is near the cell budget.
        del G, cand, old, floor


def _observe(
    accumulators: list,
    sources: np.ndarray,
    step: int,
    old: np.ndarray,
    new: np.ndarray,
    table: np.ndarray,
) -> None:
    """Feed one committed group of a window to the state accumulators,
    its rows decoded to real window indices through ``table`` (a row's
    diagonal column is its source).

    Rows come in laid-out order (sources are unique within a window, so
    ``observe_rows`` sees the same rows in some order); the per-row
    adapter for third-party accumulators with only ``observe_row``
    walks them in source order, as the reference loop does.
    """
    old_A, old_H = _unpack_rows(old, table)
    new_A, new_H = _unpack_rows(new, table)
    for accumulator in accumulators:
        observe_rows = getattr(accumulator, "observe_rows", None)
        if observe_rows is not None:
            observe_rows(sources, step, old_A, old_H, new_A, new_H, sources)
        else:
            for i in np.argsort(sources).tolist():
                accumulator.observe_row(
                    int(sources[i]), step, old_A[i], old_H[i], new_A[i],
                    new_H[i], int(sources[i]),
                )


@dataclass
class ScanJob:
    """One scan of a stack (see :func:`scan_stack`): a series, its
    consumers (``collector``, as for :func:`scan_series`), and optionally
    a :class:`CheckpointRecorder` and a :class:`ResumePlan`."""

    series: GraphSeries
    collector: Any = None
    checkpoints: CheckpointRecorder | None = None
    resume: ResumePlan | None = None

    @property
    def stackable(self) -> bool:
        """Whether the scan may share a stack with others: it has no
        resume plan and feeds no state accumulator (both need the state
        between two of its windows, see *Stacked sweeps*)."""
        return self.resume is None and not _split_consumers(self.collector)[1]


class StackedScanError(Exception):
    """A scan of a stack failed; :attr:`slot` is its index in the stack.

    The original exception is the ``__cause__``.  A stack of one (every
    :func:`scan_series` call) raises the original exception instead.
    """

    def __init__(self, slot: int, cause: BaseException) -> None:
        super().__init__(f"scan {slot} of the stack failed: {cause}")
        self.slot = slot


def scan_series(
    series: GraphSeries,
    collector=None,
    *,
    include_self: bool = False,
    checkpoints: CheckpointRecorder | None = None,
    resume: ResumePlan | None = None,
) -> ScanResult:
    """Run the backward scan over a graph series.

    Parameters
    ----------
    series:
        The aggregated series ``G_Δ``.
    collector:
        One consumer, a sequence of consumers, or ``None`` to only count
        trips.  Trip collectors (``record``) receive every minimal trip
        found (durations in window counts, ``arr - dep + 1``); state
        accumulators (``observe_row`` — e.g. :class:`DistanceTotals` for
        the classical distance statistics) watch the arrival-matrix rows
        themselves.  All consumers are fed from this **single** backward
        pass — the primitive behind the engine's fused measure pipeline.
    include_self:
        Whether to report cyclic trips ``u -> ... -> u`` (the paper
        considers pairs of distinct nodes; off by default).  Applies to
        every trip collector of the set; distance accumulators always
        exclude the diagonal, per the definition.
    checkpoints:
        Optional :class:`CheckpointRecorder` capturing bounded scan-state
        snapshots plus per-span consumer contributions for later resume.
        Requires every consumer to implement ``segment_handoff``.
    resume:
        Optional :class:`ResumePlan` from a previous scan of a time
        prefix of this series.  The scan proceeds normally from the
        newest window; on reaching a cached checkpoint whose incoming
        state (and pending departure run) matches exactly — the
        **settled boundary** — it stops and splices every earlier
        window's cached contributions into the consumers instead of
        recomputing them.  The assembled consumers, the trip count, and
        any new record are bit-identical to a from-scratch scan: the
        backward DP's state at a boundary *is* its entire memory of the
        windows above it.

    Both options change only how much work is redone, never any result.
    The scan runs as a stack of one (:func:`scan_stack`).
    """
    SCAN_COUNTS["series"] += 1
    job = ScanJob(series, collector, checkpoints, resume)
    return _scan(
        [job], "series", [series.nonempty_steps()], 1,
        include_self=include_self,
    )[0]


def scan_stack(
    jobs: Sequence[ScanJob],
    *,
    include_self: bool = False,
    check: Callable[[int], None] | None = None,
) -> list[ScanResult]:
    """Run the backward scans of several series of one node set as one
    stack: the same kernel as :func:`scan_series`, with a batching axis
    (see the module docstring's *Stacked sweeps*).

    Returns one :class:`ScanResult` per job, and feeds each job's
    consumers (and its recorder) exactly as a :func:`scan_series` call
    of that job alone would — same trips in the same order, same
    records.  Every job of a stack of two or more must be
    :attr:`~ScanJob.stackable`, and the stacked state (jobs × nodes²
    cells) should fit :data:`BATCH_CELL_BUDGET` (:func:`stack_capacity`).
    ``check``, when given, is called with the index of the first
    unfinished job before each block of lockstep steps (the engine's
    cancellation point).  In a stack of two or more, a failure raises
    :class:`StackedScanError` naming the job.
    """
    jobs = list(jobs)
    if not jobs:
        return []
    if len(jobs) > 1:
        n = jobs[0].series.num_nodes
        for job in jobs:
            if not job.stackable or job.series.num_nodes != n:
                raise ValidationError(
                    "a stack needs scans of one node set, with no resume "
                    "plan and no state accumulator"
                )
    SCAN_COUNTS["series"] += len(jobs)
    return _scan(
        jobs, "series", [job.series.nonempty_steps() for job in jobs], 1,
        include_self=include_self, check=check,
    )


def stack_capacity(num_nodes: int) -> int:
    """How many full-width scans of ``num_nodes`` nodes one stack holds
    within :data:`BATCH_CELL_BUDGET` state cells (at least one)."""
    return max(BATCH_CELL_BUDGET // max(num_nodes * num_nodes, 1), 1)


class _Slot:
    """One scan of a stack: its consumers, checkpoint and resume state,
    and its runs, planned lazily in blocks of windows
    (:func:`_plan_segments`)."""

    def __init__(self, index: int, job: ScanJob, table: np.ndarray) -> None:
        self.index = index
        self.series = series = job.series
        self.table = table
        self.items = items = consumer_list(job.collector)
        self.originals = list(items)
        if job.checkpoints is not None or job.resume is not None:
            _require_segment_support(items)
        self.collectors, self.accumulators = _split_consumers(items)
        self.recorder = job.checkpoints
        self.resume = job.resume
        self.resume_at = frozenset() if job.resume is None else frozenset(
            job.resume.windows.tolist()
        )
        self.a_inf = int(table.size)
        self.windows = windows = series.nonempty_steps()
        nw = int(windows.size)
        # Capture positions by scan iteration, asked once per scan.
        self.capture = (
            None if self.recorder is None
            else self.recorder.wants(np.arange(nw, dtype=np.int64))
        )
        # Scan positions where the scan must see the state between two
        # windows: a run may start there but never absorb them.
        stops = (
            np.zeros(nw, dtype=bool) if self.capture is None
            else self.capture.copy()
        )
        if job.resume is not None:
            stops |= np.isin(windows[::-1], job.resume.windows)
        self.stops = stops
        # Accumulators fold the state between every pair of windows
        # (close_run), so their scans run one window per run, and the
        # scan looks at every one.
        self.single = bool(self.accumulators)
        self.first = 0
        self.size = LAST_PLAN_BLOCK if job.resume is None else FIRST_PLAN_BLOCK
        self.segs: _Segments | None = None
        self.next = 0
        self.captures = 0
        self.span_base = 0
        self.settled: int | None = None
        #: Consumer spans to fold into the caller's consumers at the end
        #: — frozen handoff spans from this scan, then (when settled)
        #: the reused cached tail, in scan order.
        self.assembly: list[tuple] = []

    @property
    def done(self) -> bool:
        """Whether every run of the scan has been handed out."""
        return self.first >= self.windows.size and (
            self.segs is None or self.next == self.segs.run_segs.size - 1
        )

    def take(self, count: int) -> list[tuple]:
        """The next ``count`` runs (fewer at the end), as ``(slot, segs,
        r0, r1, step0)`` pieces for :func:`_stack_block`."""
        pieces = []
        taken = 0
        while taken < count:
            if self.segs is None or self.next == self.segs.run_segs.size - 1:
                if self.first >= self.windows.size:
                    break
                end = min(self.windows.size, self.first + self.size)
                self.size = min(2 * self.size, LAST_PLAN_BLOCK)
                self.segs = _plan_segments(
                    self.series, self.windows, self.first, end, self.stops,
                    self.single,
                )
                self.first = end
                self.next = 0
            r0 = self.next
            r1 = min(self.segs.run_segs.size - 1, r0 + count - taken)
            pieces.append((self.index, self.segs, r0, r1, taken))
            self.next = r1
            taken += r1 - r0
        return pieces

    def marks(self, segs: _Segments, r0: int, r1: int) -> list[tuple]:
        """``(offset, mark)`` for the runs ``[r0, r1)`` the scan must look
        at before they apply: ``mark`` is ``(slot, window,
        last_processed, capture)``, with ``last_processed`` the previous
        (higher) window applied (``None`` before the first)."""
        pos = segs.run_pos[r0:r1]
        hit = (
            np.arange(pos.size) if self.single
            else np.flatnonzero(self.stops[pos])
        )
        nw = self.windows.size
        out = []
        for i, p in zip(hit.tolist(), pos[hit].tolist()):
            out.append((
                i,
                (
                    self,
                    int(self.windows[nw - 1 - p]),
                    int(self.windows[nw - p]) if p else None,
                    bool(self.capture is not None and self.capture[p]),
                ),
            ))
        return out

    def handoff(self, trips: int) -> None:
        """A capture happened: freeze the current span, continue with
        the consumers' successors."""
        if self.captures:
            self.recorder.store_span(self.items, trips - self.span_base)
            self.assembly.append(tuple(self.items))
        self.captures += 1
        self.span_base = trips
        self.items = [item.segment_handoff() for item in self.items]
        self.collectors, self.accumulators = _split_consumers(self.items)

    def finish(self, trips: int) -> ScanResult:
        """Close the scan after its last window (or its settle) and fold
        its spans into the caller's consumers."""
        recorder = self.recorder
        if self.settled is not None:
            # Settled: every window at and below the boundary is served
            # from cache.  One final handoff freezes the live consumers
            # (sealing the caller's objects when no capture happened yet
            # — their scan state moved to the discarded successor,
            # exactly like finish without re-folding runs the cached
            # tail already covers).
            frozen = tuple(self.items)
            self.items = [item.segment_handoff() for item in self.items]
            if self.captures:
                if recorder is not None:
                    recorder.store_span(frozen, trips - self.span_base)
                self.assembly.append(frozen)
            tail_ckpts, tail_spans, tail_trips = self.resume.tail(self.settled)
            trips += sum(tail_trips)
            if recorder is not None:
                recorder.adopt_tail(tail_ckpts, tail_spans, tail_trips)
            self.assembly.extend(tail_spans)
        else:
            if self.accumulators and self.windows.size:
                # Departures at or below the earliest nonempty window
                # all see the final state.
                for accumulator in self.accumulators:
                    accumulator.close_run(0, int(self.windows[0]))
            for accumulator in self.accumulators:
                # Completion hook: row-wise accumulators fold their
                # tails here.
                finish = getattr(accumulator, "finish", None)
                if finish is not None:
                    finish()
            if self.captures:
                # Freeze the last span's trip collectors as a capture
                # does (an occupancy span keeps its nonzero bins) and
                # drop their successors.  Accumulators stay live: their
                # handoff allocates fresh state (n × n matrices).
                for collector in self.collectors:
                    collector.segment_handoff()
                if recorder is not None:
                    recorder.store_span(self.items, trips - self.span_base)
                self.assembly.append(tuple(self.items))
        for span in self.assembly:
            for original, part in zip(self.originals, span):
                _absorb_span(original, part)
        return ScanResult(num_trips=trips, num_steps=self.series.num_steps)


class _Lockstep:
    """The steps of a stack: step ``i`` commits run ``i`` of every scan
    still running.  Steps are laid out in blocks (:func:`_stack_block`)
    of :data:`LAST_STEP_BLOCK` steps (for a resumed scan,
    :data:`FIRST_PLAN_BLOCK` doubling up to that); before each block, ``before`` gets the
    first unfinished scan, which :attr:`head` also names.  Yields
    ``(marks, windows, run)`` per step: the marks of :meth:`_Slot.marks`
    in scan order, and :func:`_apply_run`'s arguments."""

    def __init__(self, slots: list[_Slot], layout, before) -> None:
        self.slots = slots
        self.layout = layout
        self.before = before
        self.head = 0

    def __iter__(self):
        resumed = any(slot.resume is not None for slot in self.slots)
        size = FIRST_PLAN_BLOCK if resumed else LAST_STEP_BLOCK
        while True:
            live = [slot for slot in self.slots if not slot.done]
            if not live:
                return
            self.head = live[0].index
            self.before(self.head)
            pieces = [piece for slot in live for piece in slot.take(size)]
            size = min(2 * size, LAST_STEP_BLOCK)
            windows, runs = self.layout(pieces)
            marks: list = [()] * len(runs)
            for index, segs, r0, r1, step0 in pieces:
                for offset, mark in self.slots[index].marks(segs, r0, r1):
                    marks[step0 + offset] += (mark,)
            del pieces
            yield from zip(marks, windows, runs)
            # The block dies before the next one is laid out.
            del marks, windows, runs


def _before_block(rows: _RowBuffer, check, head: int) -> None:
    """Between two lockstep blocks: deliver the finished block's trips
    (so it can die), then let ``check`` see the first unfinished scan."""
    rows.flush()
    if check is not None:
        check(head)


def _settles(state: np.ndarray, table: np.ndarray, ckpt: ScanCheckpoint) -> bool:
    """Whether a scan's packed ``state`` (radix ``len(table) + 2``)
    equals a checkpoint's.

    Equal states have equal finite-cell counts and equal finite-cell
    masks, so most candidates fail on the count, the rest mostly on the
    packed mask, before any key is compared.  Appends are in time order,
    so the ranks of windows at or below the straddle window never
    change and new windows rank above them: an equal K means no new
    window, hence equal tables, and the finite keys compare directly,
    in the checkpoint's dtype (it holds every committed key; numpy 1.x
    compares int64 with uint64 through float64).  Otherwise (the usual
    case after an append) both sides' finite keys decode through their
    own tables and compare canonically.
    """
    a_inf = int(table.size)
    K = a_inf + 2
    finite = state < a_inf * K
    if np.count_nonzero(finite) != ckpt.finite:
        return False
    if not np.array_equal(np.packbits(finite), ckpt.mask):
        return False
    keys = state[finite]
    if ckpt.K == K:
        return np.array_equal(keys.astype(ckpt.keys.dtype), ckpt.keys)
    cur_A, cur_H = _unpack_rows(keys, table)
    ck_A, ck_H = _unpack_rows(ckpt.keys, ckpt.table)
    return np.array_equal(cur_A, ck_A) and np.array_equal(cur_H, ck_H)


def _scan(
    jobs: list[ScanJob],
    kind: str,
    tables: list[np.ndarray],
    extra: int,
    *,
    include_self: bool,
    check: Callable[[int], None] | None = None,
) -> list[ScanResult]:
    """The backward scans of a stack of ``jobs`` (one node set), each
    over its series' nonempty windows, ranks decoded through its
    ``tables`` entry (durations ``arr - dep + extra``), work tallied
    under ``kind``; see :func:`scan_series` and :func:`scan_stack`."""
    n = jobs[0].series.num_nodes
    slots = [
        _Slot(index, job, table)
        for index, (job, table) in enumerate(zip(jobs, tables))
    ]
    for slot in slots:
        for accumulator in slot.accumulators:
            # Geometry hook: per-pair accumulators allocate their state
            # from the scan's exact shape.
            begin = getattr(accumulator, "begin", None)
            if begin is not None:
                begin(n, slot.series.num_steps)
    # Rank steps: arrivals are ranks < W and no minimal trip takes more
    # than W hops (each hop departs one nonempty window later), so the
    # packed keys stay below (W + 1) * (W + 2).  A stack packs every
    # scan with its largest W.
    a_inf = max(slot.a_inf for slot in slots)
    if a_inf >= 1 << 31:
        raise ValidationError(
            f"{a_inf} nonempty windows overflow the packed scan state "
            "(at most 2**31 - 1)"
        )
    K = a_inf + 2
    # Every key is below K * K: int32 holds them unless W >= 46340.
    dtype = np.int32 if K * K <= np.iinfo(np.int32).max else np.int64
    P = np.full((len(slots) * n, n), a_inf * K + (K - 1), dtype=dtype)
    #: Committed rows not yet turned into trips (see *The scan kernel*).
    rows = _RowBuffer(slots, K, extra, include_self, n, dtype)
    steps = _Lockstep(
        slots,
        partial(
            _stack_block, n=n, K=K, stacked=len(slots) > 1, dtype=dtype,
            max_rows=max(BATCH_CELL_BUDGET // (len(slots) * n), 1),
        ),
        lambda head: _before_block(rows, check, head),
    )
    # Only a stack of one may hold accumulators (or a resume plan).
    lead = slots[0]
    try:
        for marks, windows, run in steps:
            step = None
            for slot, step, last, wanted in marks:
                rows.slot = slot.index
                if step in slot.resume_at and last is not None:
                    # A resumed scan is a stack of one: P is its state.
                    index, ckpt = slot.resume.candidate(step)
                    if ckpt.last_processed == last and _settles(
                        P, slot.table, ckpt
                    ):
                        slot.settled = index
                        break
                # last is never None at a capture: wants() skips
                # iteration 0.
                if wanted and slot.recorder.capture(
                    step, last, P[slot.index * n:(slot.index + 1) * n],
                    slot.table, K,
                ):
                    rows.handoff(slot.index)
                if slot.accumulators and last is not None:
                    # The current state (built from windows > step) is
                    # the exact reachability picture for every departure
                    # step t in [step + 1, last]: no edges exist in
                    # between.
                    for accumulator in slot.accumulators:
                        accumulator.close_run(step + 1, last)
            else:
                rows.slot = None
                _apply_run(P, rows, lead.accumulators, step, kind, windows, *run)
                run = None  # a finished block dies before the next is laid out
                continue
            break  # settled: the cached tail serves the rest
        # Before a settle freezes the consumers, or at the scan's end.
        rows.flush()
        results = []
        for slot in slots:
            rows.slot = slot.index
            results.append(slot.finish(rows.trips[slot.index]))
        return results
    except Exception as exc:
        if len(slots) == 1:
            raise
        slot = steps.head if rows.slot is None else rows.slot
        raise StackedScanError(slot, exc) from exc


def scan_stream(
    stream: LinkStream,
    collector=None,
    *,
    include_self: bool = False,
) -> ScanResult:
    """Run the backward scan directly on a link stream.

    Each distinct timestamp is one "window"; durations follow the
    link-stream convention ``arr - dep`` (Definition 4), so single-event
    trips have duration 0.  Used to compute the original stream's minimal
    trips and shortest transitions for the validation measures
    (Section 8).  ``collector`` accepts one trip collector or a sequence
    of them; state accumulators are series-only (the closed-form run
    folding assumes integer window indices).

    The stream becomes its **rank series** — window ``r`` holds the
    distinct pairs of the ``r``-th distinct timestamp — which the same
    kernel as :func:`scan_series` scans, decoding ranks through the
    distinct timestamps.  Trips arrive in the reference loop's order with
    its values and dtypes.  On float timestamps
    :attr:`~repro.temporal.collectors.TripListCollector.duration_total`
    is summed once per delivered batch, so its last bits may differ from
    a per-source sum; the trips themselves are exact.
    """
    SCAN_COUNTS["stream"] += 1
    if _split_consumers(collector)[1]:
        raise ValidationError(
            "state accumulators (distance statistics) are defined on "
            "aggregated series; scan_stream only feeds trip collectors"
        )
    table = stream.distinct_timestamps()
    if not table.size:
        return ScanResult(num_trips=0, num_steps=0)
    t, u, v = stream.timestamps, stream.sources, stream.targets
    # Events are in (t, u, v) order with undirected pairs canonical, so
    # repeated pairs of one timestamp are adjacent.
    fresh = np.empty(t.size, dtype=bool)
    fresh[0] = True
    np.not_equal(t[1:], t[:-1], out=fresh[1:])
    ranks = np.cumsum(fresh) - 1
    fresh[1:] |= (u[1:] != u[:-1]) | (v[1:] != v[:-1])
    ranked = GraphSeries(
        stream.num_nodes, table.size, ranks[fresh], u[fresh], v[fresh],
        directed=stream.directed,
    )
    return _scan(
        [ScanJob(ranked, collector)], "stream", [table], 0,
        include_self=include_self,
    )[0]
