"""repro — reproduction of *Non-Altering Time Scales for Aggregation of
Dynamic Networks into Series of Graphs* (Léo, Crespelle & Fleury,
CoNEXT 2015).

Quickstart::

    from repro import LinkStream, occupancy_method

    stream = LinkStream.from_triples([("a", "b", 0), ("b", "c", 5), ...])
    result = occupancy_method(stream)
    print(result.describe())      # the saturation scale gamma

    # The stream grew?  Append in order (index triples) and re-analyze —
    # cached prefix aggregations splice and checkpointed scans resume,
    # so only the appended suffix is recomputed (bit-identical to
    # from-scratch; see *Streaming appends* below):
    a, c = stream.index_of("a"), stream.index_of("c")
    grown = stream.extend([(a, c, 9)])
    print(occupancy_method(grown).describe())

Every scan-backed quantity above runs on one backward-scan kernel,
checked against a per-source reference loop — see *Scan kernel* below.

Traces too big to re-read whole?  Ingest once into a partitioned
dataset catalog and analyze spans out of core (see *Dataset catalog &
out-of-core streams* below)::

    from repro.datasets import ingest_file, open_dataset

    ingest_file("trace.tsv.gz", "mytrace", root="~/datasets")
    lazy = open_dataset("mytrace", root="~/datasets")   # manifest only
    result = occupancy_method(lazy)     # same gamma, same cache keys

Contributing code?  ``repro lint src/repro`` checks the project
invariants described below before the test suite ever runs.

Packages
--------
``repro.linkstream``
    Link-stream container, IO, operations, statistics.
``repro.graphseries``
    Snapshots, graph series, aggregation engines, graph metrics.
``repro.temporal``
    Backward reachability scan producing minimal trips (the O(nM)
    engine), forward scans, brute-force oracles.
``repro.core``
    The occupancy method, occupancy distributions, uniformity
    statistics, loss validation, classical sweeps.
``repro.generators`` / ``repro.datasets``
    Synthetic families of Section 6, replicas of the four traces, and
    the on-disk dataset catalog (``repro datasets``).
``repro.storage``
    Columnar storage backends behind :class:`LinkStream`: the in-memory
    default and the partitioned out-of-core backend.
``repro.baselines``
    Related-work aggregation-scale selectors for comparison.
``repro.reporting``
    Plain-text tables and ASCII charts used by the bench harness.
``repro.engine``
    Sweep-execution engine: task planning, pluggable backends, caching,
    cancellation, and the bounded job queue.
``repro.service``
    Long-lived analysis daemon (``repro serve``), HTTP/JSON API, and
    the matching client.

One scan, many measures
-----------------------
Everything measured at one aggregation period — the occupancy
distribution, the classical parameters, the snapshot metrics — derives
from the same two artifacts: the series ``G_Δ`` and one backward
reachability scan over it.  The engine therefore treats *measures* as
first-class (:class:`~repro.engine.MeasureSpec`): each Δ of a sweep is
one fused :class:`~repro.engine.AnalysisTask` that aggregates once,
scans once with every requested measure's collector riding the same
pass (distance statistics included — they are an ordinary mergeable
accumulator, :class:`~repro.temporal.DistanceTotals`), and emits one
result per measure.  ``analyze_stream(stream, measures=("occupancy",
"classical"))`` — CLI: ``repro analyze --measures occupancy,classical``
— computes Figure 2's top *and* bottom rows from exactly one
aggregation and one scan per Δ, bit-identical to running the sweeps
separately.  Results are cached per measure, so a warm occupancy cache
plus a cold classical request re-scans each Δ exactly once, computing
only the missing measure; aggregated series themselves are shared
through :func:`~repro.graphseries.aggregate_cached`, a process-wide
content-keyed memo warmed by sweeps and one-shot helpers alike.

Six measures ship built in: ``occupancy``, ``classical``, ``metrics``,
``trips`` (bounded minimal-trip samples with exact trip/hop/duration
totals), ``components`` (per-window component-size histograms), and
``reachability`` (per-pair earliest-arrival summaries from the scan's
arrival matrix).  Measures take parameters straight from the CLI —
``repro analyze --measures occupancy,trips:max_samples=64,seed=3`` —
and each parameter set caches under its own key.  Companion measures
also ride :func:`~repro.core.gamma_stability`'s subsample sweeps
(``measures=`` forwards through), surfacing per-resample values at each
elected γ in ``StabilityResult.companions_at_gamma``.

Writing a measure
-----------------
The measure layer is an **open plugin registry**
(:func:`~repro.engine.register_measure`): third-party code adds
measures at runtime, no engine changes required.  A measure is a frozen
dataclass subclassing :class:`~repro.engine.MeasureSpec`; its fields
are its parameter schema — hashed into its cache key automatically and
parseable from the CLI's ``name:key=value`` syntax::

    from dataclasses import dataclass
    from repro import occupancy_method
    from repro.engine import MeasureSpec, register_measure
    from repro.temporal import CountingCollector

    @register_measure
    @dataclass(frozen=True)
    class HopCount(MeasureSpec):
        scale: float = 1.0          # a parameter (cache-keyed, CLI-settable)

        scans = True                # rides the single backward scan

        @property
        def name(self) -> str:
            return "hop_count"

        def make_collector(self):
            return CountingCollector()

        def finalize(self, delta, geometry, payload, collector):
            return self.scale * collector.num_trips

    result = occupancy_method(stream, measures=("hop_count",))
    result.companions["hop_count"]              # one value per Δ

A measure declares how it feeds (``scans`` measures contribute a scan
consumer — a trip collector with ``record`` or a state accumulator with
``observe_row``/``close_run``/``begin``; ``has_payload`` measures do
per-series work in ``series_payload``), how its result is assembled
(``finalize`` receives the one collector the scan fed and reads it
without mutating it), and how dearly its results cache
(``cache_weight`` ranks recompute cost for the disk store's eviction
sweep; ``scoring_fields`` names pure post-processing parameters
excluded from the collector identity of incremental scan records).
Registered measures run everywhere built-ins do — fused tasks, all
backends, per-measure caching, ``analyze_stream``, the CLI — with
bit-identical results by construction.

Scan kernel
-----------
The backward reachability scan — the ``O(nM)`` engine every measure
rides — has one kernel (:func:`repro.temporal.scan_series`, and
:func:`repro.temporal.scan_stream` on a raw stream).  It applies whole
*runs* of consecutive windows in one vectorized step — a window joins
the open run unless an earlier window of the run writes a state row it
reads, so every read sees the pre-run state.  The state steps over the
*ranks* of the nonempty windows (a stream's distinct timestamps), with
each ``(arrival, hops)`` cell packed into one integer lexicographic key
for the whole scan; one rank → value table (the series' nonempty
windows, or the stream's timestamps) decodes ranks wherever a consumer
sees them.  The kernel has a batching axis:
:func:`repro.temporal.reachability.scan_stack` scans the series of one
stream at several Δ as one *stack*, each step committing a run of every
Δ at once (their state rows are disjoint, so they never conflict), with
each Δ's consumers, checkpoint record and results exactly those of a
scan of its own.  A serial sweep stacks its Δ this way; every other
scan is a stack of one.  Collectors and accumulators are fed whole batches
(``record_batch`` with a per-trip ``dep`` array / ``observe_rows``,
with a per-source adapter for consumers that only implement the
classic protocol).  Committed rows are buffered across runs and turned
into trips per flush, so a batch may span windows; each (window,
source) pair is contiguous and in (window descending, source) order.
Checkpoint captures, resume candidates and state accumulators cut runs
to the windows where they must see the state.

The kernel is **bit-identical** to the per-source reference loop
:func:`repro.temporal.bruteforce.reference_scan` — same trips in the
same order, same collector and accumulator state, across
directed/undirected input, ``targets`` subsets, ``include_self``,
checkpoints and resumes, and every backend.  The tests and
``benchmarks/bench_ablation_scan_kernel.py`` (which also pins the
>= 3x speedup over the loop) hold it to that.

Engine & caching
----------------
Every Δ sweep (the occupancy method, classical sweeps, stability and
per-period analyses) runs through :mod:`repro.engine`: the grid becomes
a plan of independent fused per-Δ tasks dispatched by a pluggable
backend — serial (the default, bit-identical to a plain loop), a thread
pool, or a chunked process pool — behind a content-addressed result
cache keyed on the stream fingerprint plus the Δ and per-measure
parameters.  Re-running a sweep, refining a grid, or re-analyzing the
same stream never recomputes a sweep point; with a disk cache the reuse
survives across processes.  ``REPRO_CACHE_MAX_BYTES`` (or
``DiskStore(max_bytes=...)``) caps the disk store: once it outgrows the
cap, entries are swept cheapest-to-recompute first (each measure's
``cache_weight`` — snapshot metrics age out long before trip samples),
least-recently-used first within a weight.  ``repro cache stats`` /
``repro cache clear`` manage the store from the command line, and
``repro cache prewarm EVENTS --measures ...`` replays a sweep spec into
it so later analyses of the same stream start fully warm.

Select the backend per call (``occupancy_method(stream,
engine="process")``), via a configured engine (``SweepEngine("thread",
jobs=8)``), process-wide through the ``REPRO_ENGINE`` environment
variable (``serial``, ``thread``, ``process``, or ``thread:8``), or on
the command line (``repro analyze --backend process --jobs 8
--cache-dir ~/.cache/repro``).  ``REPRO_CACHE_DIR`` adds a persistent
on-disk store to the default engine.  All backends and cache states
return bit-identical γ and per-Δ scores.

Streaming appends
-----------------
Link streams are observed, not designed — they *grow*.  Re-analyzing
after every batch of new events from scratch costs the full ``O(nM)``
scan each time, even though everything before the append point is
untouched.  The append pipeline makes growth incremental end to end:

* **Append-only extension.**  ``stream.extend(events)`` (triples or
  three arrays) returns a new stream whose arrays are bit-identical to
  a from-scratch build over the concatenated events.  Every appended
  timestamp must be strictly greater than ``t_max`` —
  :class:`~repro.utils.errors.AppendOrderError` otherwise — which is
  exactly what keeps the old events a literal prefix of the new arrays.
* **Prefix-aware fingerprints.**  The grown stream records its
  ancestry on ``fingerprint_chain`` (one ``(num_events, fingerprint)``
  entry per append), and ``prefix_fingerprint(k)`` recovers any
  recorded time-prefix's content hash without rehashing events.  Cache
  keys stay purely content-derived.
* **Spliced aggregation.**  A warm per-Δ series for the base stream is
  reused verbatim: :func:`~repro.graphseries.aggregate_prefix_extended`
  re-windows only the appended suffix and splices it onto the cached
  prefix — bit-identical to aggregating the grown stream whole.
* **Settled-boundary scan resume.**  The backward scan checkpoints its
  per-window state at scan iterations 1, 2, 4, 8, … from the stream's
  end (~``log2`` of the window count).  A checkpoint keeps only the
  finite cells: a packed bitmask of which pairs are reachable plus
  their packed keys in the smallest integer dtype, so sparse states
  (most pairs still unreachable) cost little.  On re-analysis after an
  append, the scan restarts from the new end and stops at the first
  checkpoint whose incoming state matches the recorded one — the
  *settled boundary* — splicing every earlier window's collector and
  accumulator contributions from the recorded segment spans.  A resume
  scans at most twice its settle depth below the appended windows; a
  zero-event append performs zero scans.

The engine drives all of this through
:class:`~repro.engine.IncrementalScanSession`, a process-wide
content-keyed store (always on; ``REPRO_INCREMENTAL_MAX_BYTES`` caps
it, ``0`` stores no checkpoints; ``repro cache stats`` reports it, the
checkpoint states apart) — so a warm sweep on a grown stream re-scans only the
unsettled windows of each Δ,
with results bit-identical to a cold run
(``benchmarks/bench_ablation_incremental_append.py`` pins the >= 3x
wall-clock win, the counter-verified work bounds, and the equivalence).
The daemon exposes the same pipeline over HTTP: ``POST /v1/append``
(CLI: ``repro append FINGERPRINT events.tsv``) extends a registered
stream into a new registered stream with lineage, so streaming sources
can feed a warm service and every re-analysis stays incremental.

Dataset catalog & out-of-core streams
-------------------------------------
A :class:`LinkStream` no longer assumes its events live in RAM: the
columnar arrays sit behind a :class:`~repro.storage.StreamStorage`
backend.  The in-memory :class:`~repro.storage.ColumnarStorage` default
is bit-identical to the historical layout — same fingerprints, same
cache keys — while :class:`~repro.storage.PartitionedStorage` keeps
events sharded on disk as sorted per-time-range ``.npz`` column files
under a JSON manifest.  Metadata queries (``num_events``, ``t_min``/
``t_max``, ``fingerprint()``) answer straight from the manifest without
touching event bytes, and ``slice_time`` opens only the partitions
overlapping the requested range (``repro.storage.STORAGE_COUNTS``
instruments opens/prunes/materializations).

The catalog layer (:mod:`repro.datasets.catalog`) names such stores:
``repro datasets ingest mytrace --events trace.tsv.gz`` cuts a raw
event file into partitions under ``$REPRO_DATASETS_DIR/mytrace``
(chunked reading, ``REPRO_INGEST_CHUNK_EVENTS``; partition size,
``REPRO_PARTITION_EVENTS``), recording content hashes per partition and
the stream fingerprint in the manifest.  ``repro datasets list | info
[--verify] | index`` inspect, integrity-check, and rebuild the
manifest; :func:`~repro.datasets.open_dataset` returns a lazy
partition-backed stream whose analyses are bit-identical to the
in-memory ones, so cache entries warmed by either serve the other.
Corruption never passes silently: a missing or
bit-flipped partition raises
:class:`~repro.utils.errors.StorageError` naming the exact file.

Sweeps prune with the storage: ``plan_measure_sweep(deltas, measures,
span=(start, end))`` (or ``AnalysisTask(..., span=...)``) restricts
every task to the half-open time span *through the backend*, so a
catalog-backed sweep loads exactly the partitions its windows cover —
``benchmarks/bench_ablation_out_of_core.py`` counter-asserts the
pruning and pins the allocation peak below full materialization.
Span-less tasks keep their historical cache keys byte for byte.  The
daemon joins in through ``POST /v1/datasets``
(:meth:`~repro.service.ServiceClient.register_dataset`): a catalog
dataset registers by name without materializing, and jobs against it
slice partitions on demand.

Serving analyses
----------------
Every one-shot ``repro analyze`` pays process startup and cold caches.
``repro serve`` keeps them warm instead: a long-lived daemon
(:mod:`repro.service`, stdlib HTTP — no dependencies) owns one
:class:`~repro.engine.SweepEngine` (thread backend, shared worker pool,
memory+disk sweep cache, process-wide series memo) and serves analyze
and sweep requests over a small JSON API.  Streams register once by
content fingerprint (``POST /v1/streams`` — idempotent), jobs are
asynchronous (``POST /v1/analyze`` returns a job id immediately;
``GET /v1/jobs/<id>/result?wait=`` long-polls), and the rendered report
is bit-identical to offline ``repro analyze`` on the same events.

The daemon degrades gracefully under load rather than falling over:
a bounded backlog turns excess requests away with 429 (admission
control, :class:`~repro.utils.errors.AdmissionError`); per-request
deadlines ride a :class:`~repro.engine.CancelToken` into the engine and
cancel mid-plan, naming the exact task the sweep stopped at
(:class:`~repro.utils.errors.JobCancelled`, HTTP 504); and identical
in-flight requests *coalesce* — N clients asking for the same
fingerprint, Δ grid, and measures attach to one computation and share
its result, with the shared deadline extended to the most patient
requester.  Warm repeats perform zero scans.

Client side: ``repro submit events.tsv --url http://host:8765 --wait``
uploads, analyzes, and prints the same text the offline CLI would;
``repro status`` / ``repro fetch JOB`` poll and retrieve; programmatic
access goes through :class:`~repro.service.ServiceClient`, which maps
API errors back onto this library's exception hierarchy.  ``repro
measures list`` (or ``repro analyze --measures-list``) prints every
registered measure with its parameter schema, types, and defaults —
including measures installed by third-party packages through the
``repro.measures`` entry-point group, discovered automatically at
registry first use (``--format json`` emits the same records
machine-readably).

Project invariants
------------------
Four conventions carry the repo's correctness story, and ``repro
lint`` (:mod:`repro.lint`) enforces them statically — CI runs it as a
gating job next to the tests:

* **Cache-key completeness.**  A measure's frozen-dataclass fields are
  its cache identity; a parameter added as a plain class attribute
  silently escapes ``token()`` and collides in the cache (the
  ``include_isolated`` bug PR 4 fixed by hand).  Key-builder functions
  must fold a literal ``*_VERSION`` constant into their payload so
  key-shape changes are invalidated by a reviewable bump.  Rules:
  ``cache-key-unhashed-field``, ``cache-key-scoring-fields``,
  ``cache-key-version``.
* **Determinism.**  In ``engine/``, ``temporal/``, ``graphseries/``,
  ``core/`` and ``storage/`` results are pure functions of the stream
  and the parameters: no iteration over sets without ``sorted(...)``, no
  ``random.*`` / ``time.time()`` / ``id()`` / ``hash()`` (randomness
  routes through :mod:`repro.utils.rng`, clocks are explicit and
  monotonic), no float accumulation inside integer-exact collectors —
  the bit-identity contract the tests prove backend × cache.
  Rules: ``unsorted-set-iteration``, ``nondeterministic-call``,
  ``float-accumulation``.
* **Collector contract.**  Any class with ``record`` feeds the
  backward scan, whose incremental splice and ``targets=`` subsets
  merge collectors back together, so it must also define in-place
  ``merge`` and the ``empty`` property, or reassembly silently drops
  its state.  Rules: ``collector-contract``, ``collector-merge-inplace``.
* **Lock discipline.**  In ``engine/``, ``service/`` (the daemon of
  PR 5) and ``storage/`` (whose lazily-cached columns are shared
  across service threads) — and in ``tests/``, whose lock-owning
  doubles model those classes — a lock-owning class writes its private
  state only inside
  ``with self.<lock>:`` (or ``__init__``; helpers called with the lock
  held are named ``*_locked``), and the cross-module lock-acquisition
  order must be acyclic.  Rules: ``unlocked-attribute-write``,
  ``lock-order-cycle``.

Exemptions are explicit and visible: a trailing ``# repro:
ignore[rule-id] -- reason`` comment suppresses one finding on that
line, and suppressed findings still show up in the report counts.  New
rules subclass :class:`repro.lint.Rule` — see :mod:`repro.lint` for
the how-to.
"""

from repro.core import (
    OccupancyDistribution,
    SaturationResult,
    classical_sweep,
    elongation_curve,
    log_delta_grid,
    occupancy_method,
    transition_loss_curve,
)
from repro.engine import SweepCache, SweepEngine
from repro.graphseries import GraphSeries, Snapshot, aggregate
from repro.linkstream import IntervalStream, LinkStream

__version__ = "1.5.0"

__all__ = [
    "LinkStream",
    "IntervalStream",
    "GraphSeries",
    "Snapshot",
    "aggregate",
    "occupancy_method",
    "SaturationResult",
    "OccupancyDistribution",
    "log_delta_grid",
    "classical_sweep",
    "transition_loss_curve",
    "elongation_curve",
    "SweepEngine",
    "SweepCache",
    "__version__",
]
