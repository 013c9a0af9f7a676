"""The measure layer: what a sweep evaluates at each Δ — as plugins.

A :class:`MeasureSpec` names **one quantity** computable from the series
aggregated at one Δ.  The contract is declarative: a measure is a frozen
dataclass whose fields *are* its parameter schema, and it declares

* how it feeds — :attr:`~MeasureSpec.scans` measures contribute a scan
  consumer via :meth:`~MeasureSpec.make_collector` (a trip collector or
  a state accumulator riding the single backward pass);
  :attr:`~MeasureSpec.has_payload` measures do per-series work via
  :meth:`~MeasureSpec.series_payload`;
* its cache identity — :meth:`~MeasureSpec.token` is derived
  automatically from the dataclass fields and hashed into the measure's
  per-Δ cache key (:attr:`~MeasureSpec.scoring_fields` names pure
  post-processing parameters excluded from the collector identity that
  keys incremental scan records);
* its assembly — :meth:`~MeasureSpec.finalize` turns the one collector
  the scan fed (``None`` for a measure that does not scan) plus the
  payload into the per-Δ result, reading the collector without
  mutating it;
* its eviction class — :attr:`~MeasureSpec.cache_weight` ranks how
  expensive the result is to recompute; the disk store sweeps
  cheap-to-recompute entries first.

Measures register by name into :data:`MEASURE_REGISTRY` through
:func:`register_measure` — the same API third-party code uses at
runtime, no engine changes required: the scheduler's multi-result
protocol (``result_keys`` / ``narrow`` / ``split_result`` /
``assemble``) is generic over the registry.
Registered names resolve everywhere a measure is accepted —
``occupancy_method(measures=...)``, ``analyze_stream(measures=...)``,
and the CLI's ``--measures name[:k=v,...]`` (see
:func:`parse_measures_arg`).

Writing a measure
-----------------
Subclass :class:`MeasureSpec` as a frozen dataclass, give every
parameter a default (the registry resolves bare names by instantiating
with defaults), and register it::

    from dataclasses import dataclass
    from repro.engine import MeasureSpec, register_measure

    @register_measure
    @dataclass(frozen=True)
    class HopCount(MeasureSpec):
        \"\"\"Total minimal-trip hops at each Δ.\"\"\"

        scale: float = 1.0        # a parameter: part of the cache key

        scans = True              # feeds on the backward scan

        @property
        def name(self) -> str:
            return "hop_count"

        def make_collector(self):
            from repro.temporal import CountingCollector
            return CountingCollector()

        def finalize(self, delta, geometry, payload, collector):
            return self.scale * collector.num_trips

    result = occupancy_method(stream, measures=("hop_count",))
    result.companions["hop_count"]             # one value per Δ

The collector must implement the scan's consumer protocol (``record``
for trip collectors, ``observe_row``/``close_run`` — optionally
``begin`` — for state accumulators).  Collectors may additionally
implement the batched feeds (``record_batch`` / ``observe_rows``) to
receive many windows from the scan kernel in one call
(``record_batch``'s ``dep`` is an int64 array parallel to ``sources``;
a batch may span windows, and each (window, source) pair is contiguous
and in the reference loop's order);
without them the kernel adapts back to per-source ``record`` /
per-row ``observe_row`` calls in the classic order, so plain
collectors keep working unchanged.  A collector that also implements
``segment_handoff`` and ``merge`` (every built-in does) lets an
appended stream's scan splice cached window spans instead of
rescanning them (:mod:`repro.engine.incremental`).
"""

from __future__ import annotations

import dataclasses
import typing
import warnings
from abc import ABC, abstractmethod
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.occupancy import OccupancyCollector
from repro.core.uniformity import score_distribution
from repro.graphseries.metrics import component_sizes, series_metrics
from repro.temporal.collectors import TripListCollector
from repro.temporal.reachability import (
    DistanceTotals,
    EarliestArrivalAccumulator,
)
from repro.temporal.trips import TripSet
from repro.utils.errors import EngineError


@dataclass(frozen=True)
class SeriesGeometry:
    """Shape of the series aggregated at one Δ."""

    num_nodes: int
    num_windows: int
    num_nonempty_windows: int


def _freeze(value: Any) -> Any:
    """A hashable, stable-``repr`` stand-in for a parameter value."""
    if isinstance(value, list):
        return tuple(_freeze(item) for item in value)
    return value


@dataclass(frozen=True)
class MeasureSpec(ABC):
    """One quantity measurable from the series aggregated at one Δ.

    Subclasses are frozen dataclasses (hashable, picklable) whose fields
    form the measure's parameter schema.  A measure either feeds on the
    backward scan (it contributes a collector / accumulator via
    :meth:`make_collector`) or on the series itself
    (:meth:`series_payload`), or both; :meth:`finalize` assembles the
    final per-Δ result from the collected state.
    """

    @property
    @abstractmethod
    def name(self) -> str:
        """Unique short name of the measure (``occupancy``, ``trips``,
        ...); the key under which its result is emitted."""

    #: Whether the measure contributes a collector to the backward scan.
    #: (A class attribute, not a dataclass field: it is part of the
    #: measure's *kind*, not of its parameters.)
    scans = False
    #: Whether the measure needs per-series (non-scan) work.
    has_payload = False
    #: Field names that only affect pure post-processing (scoring), not
    #: what the scan collector accumulates; excluded from
    #: :meth:`collector_token` so incremental scan records are shared
    #: across sweeps differing only in scoring.  (A class attribute — no
    #: annotation — so it never becomes a dataclass field itself.)
    scoring_fields = ()
    #: Relative cost of recomputing this measure's cached results; the
    #: disk store's LRU sweep evicts lighter (cheaper) entries first.
    cache_weight = 1.0

    def __post_init__(self) -> None:
        # List parameters are stored as tuples: the spec stays hashable,
        # and a caller mutating its list later cannot change the spec
        # (nor its memoised token()).  Subclasses that define their own
        # __post_init__ call this one first.
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, list):
                object.__setattr__(self, f.name, _freeze(value))

    def params(self) -> dict[str, Any]:
        """The declarative parameter mapping — the dataclass fields."""
        return {
            f.name: getattr(self, f.name) for f in dataclasses.fields(self)
        }

    def token(self) -> tuple:
        """Full result identity, derived from the parameter schema.

        Sorted ``(field, value)`` pairs of every dataclass field —
        automatically part of the measure's cache key, so a plugin
        measure never has to hand-roll key material for its parameters.

        Memoised on the instance at first use (one spec instance is
        shared by every Δ of a sweep), so a spec's parameters must not
        be mutated after its first ``token()`` call: specs are frozen,
        and list parameters are stored as tuples on construction.
        """
        memo = self.__dict__.get("_token")
        if memo is None:
            memo = tuple(
                sorted((key, _freeze(value)) for key, value in self.params().items())
            )
            self.__dict__["_token"] = memo
        return memo

    def key_repr(self) -> str:
        """This measure's part of a result key's payload string,
        ``repr(name) + ", " + repr(token())`` (see
        :meth:`~repro.engine.tasks.AnalysisTask.measure_key`), memoised
        like :meth:`token`."""
        memo = self.__dict__.get("_key_repr")
        if memo is None:
            memo = f"{self.name!r}, {self.token()!r}"
            self.__dict__["_key_repr"] = memo
        return memo

    def collector_token(self) -> tuple:
        """Scan-collector identity — :meth:`token` minus the
        :attr:`scoring_fields`."""
        skip = set(self.scoring_fields)
        return tuple(
            sorted(
                (key, _freeze(value))
                for key, value in self.params().items()
                if key not in skip
            )
        )

    def make_collector(self):
        """A fresh scan consumer for one evaluation (``None`` when the
        measure does not feed on the scan)."""
        return None

    def series_payload(self, series) -> Any:
        """Non-scan work on the aggregated series (``None`` if none)."""
        return None

    @abstractmethod
    def finalize(
        self,
        delta: float,
        geometry: SeriesGeometry,
        payload: Any,
        collector: Any,
    ) -> Any:
        """Assemble the per-Δ result from the collector + payload.

        ``collector`` is the one collector :meth:`make_collector` built
        and the scan fed (``None`` when :attr:`scans` is false);
        ``payload`` is :meth:`series_payload`'s result (``None`` when
        :attr:`has_payload` is false).  Implementations read the
        collector and never mutate it.
        """


# ---------------------------------------------------------------------------
# The registry: measures resolvable by name, built-in and user-defined.
# ---------------------------------------------------------------------------

#: Measure classes by name.  Populated by :func:`register_measure` —
#: the built-ins below register exactly like third-party plugins.
MEASURE_REGISTRY: dict[str, type[MeasureSpec]] = {}


def register_measure(cls=None, *, replace: bool = False):
    """Register a :class:`MeasureSpec` subclass under its name.

    Usable as a plain call (``register_measure(MyMeasure)``) or a class
    decorator (``@register_measure``).  The class must be instantiable
    with no arguments — every parameter needs a default — because bare
    names (``measures=("trips",)``, CLI ``--measures trips``) resolve by
    instantiating with defaults.  Registering the same class again is a
    no-op; registering a *different* class under an occupied name raises
    :class:`~repro.utils.errors.EngineError` unless ``replace=True``.

    Returns the class, so registration composes with other decorators.
    """

    def apply(cls):
        if not (isinstance(cls, type) and issubclass(cls, MeasureSpec)):
            raise EngineError(
                f"register_measure expects a MeasureSpec subclass, got {cls!r}"
            )
        try:
            probe = cls()
        except TypeError as exc:
            raise EngineError(
                f"measure class {cls.__name__} must be instantiable with no "
                f"arguments (give every parameter a default): {exc}"
            ) from exc
        name = probe.name
        if not isinstance(name, str) or not name:
            raise EngineError(
                f"measure class {cls.__name__} must expose a non-empty "
                f"string name, got {name!r}"
            )
        current = MEASURE_REGISTRY.get(name)
        if current is not None and current is not cls and not replace:
            raise EngineError(
                f"measure name {name!r} is already registered to "
                f"{current.__name__}; pass replace=True to override it"
            )
        MEASURE_REGISTRY[name] = cls
        return cls

    return apply if cls is None else apply(cls)


def unregister_measure(name: str) -> None:
    """Remove a measure from the registry (no-op for unknown names)."""
    MEASURE_REGISTRY.pop(name, None)


# ---------------------------------------------------------------------------
# Entry-point discovery: installed packages register without being imported.
# ---------------------------------------------------------------------------

#: The ``importlib.metadata`` entry-point group scanned for third-party
#: measures.  A distribution declares, e.g. in ``pyproject.toml``::
#:
#:     [project.entry-points."repro.measures"]
#:     hop_count = "mypkg.measures:HopCount"
#:
#: The target may be a :class:`MeasureSpec` subclass (registered
#: directly) or a zero-argument callable (invoked as a registration
#: hook, for packages registering several measures at once).
ENTRY_POINT_GROUP = "repro.measures"

#: ``(entry point name, error message)`` for every entry point that
#: failed to load on the last scan.  Broken plugins never break the
#: registry — they are recorded here, warned about once, and skipped.
ENTRY_POINT_FAILURES: list[tuple[str, str]] = []

_entry_points_loaded = False


def _entry_points():
    """The raw entry points of :data:`ENTRY_POINT_GROUP` (separated out
    so tests can monkeypatch the environment's installed packages)."""
    from importlib import metadata

    return list(metadata.entry_points(group=ENTRY_POINT_GROUP))


def load_entry_point_measures(*, reload: bool = False) -> list[str]:
    """Scan the :data:`ENTRY_POINT_GROUP` entry points once per process.

    Runs automatically at registry first use (:func:`available_measures`,
    :func:`measure_schema`, :func:`build_measure`), so merely *installing*
    a measure package makes its names resolvable — no import side effects
    required in user code.  Returns the entry-point names that loaded;
    failures land in :data:`ENTRY_POINT_FAILURES` with a warning instead
    of crashing the registry (one broken plugin must not take down every
    analysis).
    """
    global _entry_points_loaded
    if _entry_points_loaded and not reload:
        return []
    _entry_points_loaded = True
    ENTRY_POINT_FAILURES.clear()
    loaded: list[str] = []
    try:
        points = _entry_points()
    except Exception as exc:  # metadata itself unusable: degrade quietly
        ENTRY_POINT_FAILURES.append(("<scan>", str(exc)))
        return loaded
    for point in points:
        try:
            target = point.load()
            if isinstance(target, type) and issubclass(target, MeasureSpec):
                register_measure(target)
            elif callable(target):
                target()
            else:
                raise EngineError(
                    f"entry point target {target!r} is neither a "
                    "MeasureSpec subclass nor a callable registration hook"
                )
        except Exception as exc:
            ENTRY_POINT_FAILURES.append((point.name, str(exc)))
            warnings.warn(
                f"broken measure entry point {point.name!r} "
                f"({ENTRY_POINT_GROUP}): {exc}",
                RuntimeWarning,
                stacklevel=2,
            )
        else:
            loaded.append(point.name)
    return loaded


def available_measures() -> list[str]:
    """Measure names accepted by name (CLI ``--measures`` and friends)."""
    load_entry_point_measures()
    return sorted(MEASURE_REGISTRY)


def measure_schema(measure: "str | type[MeasureSpec]") -> dict[str, type]:
    """Parameter schema of a measure: field name -> annotated type.

    Accepts a registered name or a :class:`MeasureSpec` subclass.  This
    is what the CLI's ``name:key=value`` parameter coercion runs on —
    and what its error messages print.
    """
    if isinstance(measure, str):
        load_entry_point_measures()
        if measure not in MEASURE_REGISTRY:
            raise EngineError(
                f"unknown measure {measure!r}; available: {available_measures()}"
            )
        measure = MEASURE_REGISTRY[measure]
    hints = typing.get_type_hints(measure)
    return {
        f.name: hints.get(f.name, str) for f in dataclasses.fields(measure)
    }


def describe_measures() -> list[dict]:
    """Introspection records for every registered measure, sorted by
    name — what ``repro measures list`` prints.

    Each record carries the measure's name, class, one-line summary
    (the class docstring's first line), feeding mode flags, and its
    declarative parameter schema as ``{"name", "type", "default"}``
    dicts in field order.
    """
    records = []
    for name in available_measures():
        cls = MEASURE_REGISTRY[name]
        schema = measure_schema(cls)
        defaults = cls().params()
        doc = (cls.__doc__ or "").strip().splitlines()
        records.append(
            {
                "name": name,
                "class": f"{cls.__module__}.{cls.__qualname__}",
                "summary": doc[0] if doc else "",
                "scans": bool(cls.scans),
                "has_payload": bool(cls.has_payload),
                "params": [
                    {
                        "name": key,
                        "type": getattr(kind, "__name__", str(kind)),
                        "default": defaults[key],
                    }
                    for key, kind in schema.items()
                ],
            }
        )
    return records


def _describe_schema(name: str, schema: dict[str, type]) -> str:
    if not schema:
        return f"measure {name!r} takes no parameters"
    rendered = ", ".join(
        f"{key}=<{getattr(kind, '__name__', str(kind))}>"
        for key, kind in schema.items()
    )
    return f"measure {name!r} parameters: {rendered}"


def _coerce_param(name: str, key: str, text: str, kind) -> Any:
    """One ``key=value`` CLI parameter, coerced to its annotated type."""
    origin = typing.get_origin(kind)
    try:
        if origin is tuple:
            item = (typing.get_args(kind) or (str,))[0]
            return tuple(
                _coerce_param(name, key, part, item)
                for part in text.split("+")
                if part
            )
        if kind is bool:
            lowered = text.strip().lower()
            if lowered in ("1", "true", "yes", "on"):
                return True
            if lowered in ("0", "false", "no", "off"):
                return False
            raise ValueError(f"expected a boolean, got {text!r}")
        if kind is int:
            return int(text)
        if kind is float:
            return float(text)
        if kind is str:
            return text
    except ValueError as exc:
        raise EngineError(
            f"bad value for measure parameter {name}:{key}={text!r}: {exc}"
        ) from None
    raise EngineError(
        f"measure parameter {name}:{key} has unsupported type "
        f"{getattr(kind, '__name__', kind)!r} for text parsing; pass a "
        f"{MEASURE_REGISTRY.get(name, MeasureSpec).__name__} instance instead"
    )


def build_measure(name: str, params: "dict[str, str] | None" = None) -> MeasureSpec:
    """Instantiate a registered measure from text parameters.

    ``params`` maps field names to their textual values (as parsed from
    ``name:key=value,...``); values are coerced through the measure's
    declared parameter schema.  Unknown names and unknown or malformed
    parameters raise :class:`~repro.utils.errors.EngineError` with the
    available alternatives spelled out.
    """
    load_entry_point_measures()
    if name not in MEASURE_REGISTRY:
        raise EngineError(
            f"unknown measure {name!r}; available: {available_measures()}"
        )
    cls = MEASURE_REGISTRY[name]
    if not params:
        return cls()
    schema = measure_schema(cls)
    kwargs: dict[str, Any] = {}
    for key, text in params.items():
        if key not in schema:
            raise EngineError(
                f"unknown parameter {key!r} for measure {name!r}; "
                + _describe_schema(name, schema)
            )
        kwargs[key] = _coerce_param(name, key, text, schema[key])
    return cls(**kwargs)


def _parse_param_item(name: str, item: str) -> tuple[str, str]:
    key, sep, value = item.partition("=")
    key = key.strip()
    if not sep or not key:
        raise EngineError(
            f"malformed measure parameter {item!r} for {name!r}: expected "
            f"key=value ('{name}:key=value'); "
            + _describe_schema(name, measure_schema(name))
        )
    return key, value.strip()


def parse_measure_spec(text: str) -> MeasureSpec:
    """One measure from a ``name[:key=value[,key=value...]]`` spec string.

    The textual little language behind the CLI's ``--measures`` (and
    accepted anywhere a measure name is: ``measures=("trips:max_samples=
    64",)``).  Values coerce through the measure's parameter schema;
    tuple-typed parameters separate items with ``+``
    (``occupancy:methods=mk+std``).
    """
    specs = parse_measures_arg(text)
    if len(specs) != 1:
        raise EngineError(
            f"expected a single measure spec, got {len(specs)} in {text!r}"
        )
    return specs[0]


def parse_measures_arg(text: str) -> tuple[MeasureSpec, ...]:
    """A measure set from the CLI's ``--measures`` argument.

    Grammar: comma-separated measures, each ``name`` or
    ``name:key=value`` with further ``key=value`` items riding the
    following commas — ``occupancy,trips:max_samples=64,seed=3,components``
    is ``occupancy``, ``trips(max_samples=64, seed=3)``, ``components``.
    A token containing ``=`` but no ``:`` continues the preceding
    measure's parameter list.
    """
    groups: list[tuple[str, dict[str, str]]] = []
    for token in (piece.strip() for piece in text.split(",")):
        if not token:
            continue
        if ":" in token:
            name, _, first = token.partition(":")
            name = name.strip()
            if not name:
                raise EngineError(
                    f"malformed measure spec {token!r}: expected "
                    "name[:key=value,...]"
                )
            params: dict[str, str] = {}
            groups.append((name, params))
            first = first.strip()
            if first:
                key, value = _parse_param_item(name, first)
                params[key] = value
        elif "=" in token:
            if not groups:
                raise EngineError(
                    f"measure parameter {token!r} appears before any "
                    "measure name; expected name[:key=value,...]"
                )
            name, params = groups[-1]
            key, value = _parse_param_item(name, token)
            params[key] = value
        else:
            groups.append((token, {}))
    if not groups:
        raise EngineError("--measures needs at least one measure name")
    return tuple(build_measure(name, params) for name, params in groups)


def resolve_measure(spec: "str | MeasureSpec") -> MeasureSpec:
    """A :class:`MeasureSpec` from a spec string or an instance.

    Strings go through :func:`parse_measure_spec`, so both bare
    registered names (``"trips"``) and parameterized specs
    (``"trips:max_samples=64"``) resolve; instances return as-is.
    """
    if isinstance(spec, MeasureSpec):
        return spec
    if isinstance(spec, str):
        return parse_measure_spec(spec)
    raise EngineError(
        f"expected a measure name or MeasureSpec instance, got {spec!r}"
    )


def normalize_measures(
    measures: "Sequence[str | MeasureSpec] | str | MeasureSpec",
) -> tuple[MeasureSpec, ...]:
    """Resolve a measure-set spec into a tuple of unique measures.

    Accepts a single name/instance or a sequence; names resolve through
    :data:`MEASURE_REGISTRY`.  Duplicate measure names are rejected —
    one fused task emits exactly one result per name.
    """
    if isinstance(measures, (str, MeasureSpec)):
        measures = (measures,)
    resolved = tuple(resolve_measure(m) for m in measures)
    if not resolved:
        raise EngineError("a measure set needs at least one measure")
    names = [m.name for m in resolved]
    if len(set(names)) != len(names):
        raise EngineError(f"duplicate measure names in set: {names}")
    return resolved


# ---------------------------------------------------------------------------
# Built-in measures.
# ---------------------------------------------------------------------------


@register_measure
@dataclass(frozen=True)
class OccupancyMeasure(MeasureSpec):
    """Occupancy-rate distribution of all minimal trips, scored against
    the uniform density — the occupancy method's per-Δ quantity
    (Section 4), finalized as a
    :class:`~repro.core.saturation.SweepPoint`."""

    methods: tuple[str, ...] = ("mk",)
    bins: int = 4096
    exact: bool = False

    scans = True
    has_payload = False
    # Scoring methods deliberately excluded from the collector identity:
    # the collector is the same whatever statistic scores it at finalize
    # time.
    scoring_fields = ("methods",)

    @property
    def name(self) -> str:
        return "occupancy"

    def make_collector(self) -> OccupancyCollector:
        return OccupancyCollector(bins=self.bins, exact=self.exact)

    def finalize(self, delta, geometry, payload, collector):
        from repro.core.saturation import SweepPoint

        distribution = collector.distribution()
        return SweepPoint(
            delta=float(delta),
            num_windows=geometry.num_windows,
            num_nonempty_windows=geometry.num_nonempty_windows,
            num_trips=collector.num_trips,
            distribution=distribution,
            scores=score_distribution(distribution, self.methods),
        )


@register_measure
@dataclass(frozen=True)
class ClassicalMeasure(MeasureSpec):
    """Classical parameters of the aggregated series (Section 3): the
    snapshot means plus the distance statistics, finalized as a
    :class:`~repro.core.classical.ClassicalPoint`.

    The distance sums ride the same backward scan as every other
    measure, via a :class:`~repro.temporal.reachability.DistanceTotals`
    accumulator; the snapshot means are per-series payload work.
    """

    scans = True
    has_payload = True

    @property
    def name(self) -> str:
        return "classical"

    def make_collector(self) -> DistanceTotals:
        return DistanceTotals()

    def series_payload(self, series):
        return series_metrics(series)

    def finalize(self, delta, geometry, payload, collector):
        from repro.core.classical import ClassicalPoint

        distances = collector.stats(geometry.num_nodes, geometry.num_windows)
        return ClassicalPoint(float(delta), payload, distances)


@register_measure
@dataclass(frozen=True)
class MetricsMeasure(MeasureSpec):
    """Snapshot metrics only — the classical parameters without the
    distance statistics, so no scan contribution at all.  Finalized as a
    distance-free :class:`~repro.core.classical.ClassicalPoint`."""

    scans = False
    has_payload = True
    # Payload-only and cheap: first in line for cache eviction.
    cache_weight = 0.25

    @property
    def name(self) -> str:
        return "metrics"

    def series_payload(self, series):
        return series_metrics(series)

    def finalize(self, delta, geometry, payload, collector):
        from repro.core.classical import ClassicalPoint

        return ClassicalPoint(float(delta), payload, None)


@dataclass(frozen=True)
class TripSample:
    """Bounded sample of the minimal trips at one Δ, with exact totals.

    ``trips`` holds at most ``max_samples`` minimal trips in canonical
    ``(u, v, dep, arr)`` order, selected by the deterministic priority
    sketch of :func:`~repro.temporal.collectors.trip_priorities` — a
    uniform sample that is a pure function of the trip set, identical
    whatever the backend.  The totals (``num_trips``,
    ``hops_total``, ``duration_total``) always count *every* minimal
    trip, exactly.
    """

    delta: float
    num_trips: int
    hops_total: int
    duration_total: float
    max_samples: int
    trips: TripSet = field(repr=False)

    @property
    def mean_hops(self) -> float:
        """Mean hop count over all minimal trips (not just the sample)."""
        return self.hops_total / self.num_trips if self.num_trips else float("nan")

    @property
    def mean_duration(self) -> float:
        """Mean duration in window counts over all minimal trips."""
        return (
            self.duration_total / self.num_trips
            if self.num_trips
            else float("nan")
        )

    def describe(self) -> str:
        return (
            f"{self.num_trips} minimal trips "
            f"({len(self.trips)} sampled, cap {self.max_samples}); "
            f"mean hops {self.mean_hops:.3f}, "
            f"mean duration {self.mean_duration:.3f} windows"
        )


@register_measure
@dataclass(frozen=True)
class TripsMeasure(MeasureSpec):
    """Bounded minimal-trip samples plus exact trip totals.

    Materializes Section 5's raw scan output — the minimal trips
    themselves, with their durations and hop counts — as a per-Δ
    :class:`TripSample`: at most ``max_samples`` trips retained through
    the capped :class:`~repro.temporal.collectors.TripListCollector`
    (reservoir-style bottom-k priority sketch, so the sample is
    identical across backends) alongside exact
    trip/hop/duration totals over the full population.
    """

    max_samples: int = 512
    seed: int = 0

    scans = True
    has_payload = False
    # Expensive to recompute (full scan + materialized samples): evicted
    # last from a capped disk store.
    cache_weight = 4.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.max_samples < 1:
            raise EngineError("max_samples must be a positive integer")

    @property
    def name(self) -> str:
        return "trips"

    def make_collector(self) -> TripListCollector:
        return TripListCollector(max_trips=self.max_samples, seed=self.seed)

    def finalize(self, delta, geometry, payload, collector):
        sample = collector.trips()
        # Canonical order: the retained set is order-free (a bottom-k
        # sketch); sort by trip identity so equal samples are equal
        # arrays whatever order the scan and any span splices fed it.
        order = np.lexsort((sample.arr, sample.dep, sample.v, sample.u))
        return TripSample(
            delta=float(delta),
            num_trips=collector.num_recorded,
            hops_total=collector.hops_total,
            duration_total=collector.duration_total,
            max_samples=self.max_samples,
            trips=TripSet(
                sample.u[order],
                sample.v[order],
                sample.dep[order],
                sample.arr[order],
                sample.hops[order],
                sample.durations[order],
            ),
        )


@dataclass(frozen=True)
class ComponentsPoint:
    """Component-size evidence of the series aggregated at one Δ.

    ``size_counts[s]`` is how many connected components of size ``s``
    appear across the nonempty windows (weak connectivity; with
    ``include_isolated`` every edge-free node counts as a size-1
    component of its window).
    """

    delta: float
    num_windows: int
    num_nonempty_windows: int
    include_isolated: bool
    size_counts: np.ndarray = field(repr=False)

    @property
    def num_components(self) -> int:
        """Total component count across the nonempty windows."""
        return int(self.size_counts.sum())

    @property
    def largest_size(self) -> int:
        """Largest component size seen in any window."""
        nonzero = np.flatnonzero(self.size_counts)
        return int(nonzero[-1]) if nonzero.size else 0

    @property
    def mean_components_per_window(self) -> float:
        """Mean component count over the nonempty windows."""
        if not self.num_nonempty_windows:
            return float("nan")
        return self.num_components / self.num_nonempty_windows

    @property
    def mean_size(self) -> float:
        """Mean component size over all counted components."""
        total = self.num_components
        if not total:
            return float("nan")
        sizes = np.arange(self.size_counts.size, dtype=np.int64)
        return int((sizes * self.size_counts).sum()) / total

    def describe(self) -> str:
        return (
            f"{self.num_components} components over "
            f"{self.num_nonempty_windows} nonempty windows; "
            f"largest {self.largest_size}, mean size {self.mean_size:.3f}"
        )


@register_measure
@dataclass(frozen=True)
class ComponentsMeasure(MeasureSpec):
    """Per-window component-size histograms of the aggregated series.

    Pure per-series (payload) work — no scan contribution — folding each
    nonempty window's weakly-connected component sizes into one
    histogram per Δ (:class:`ComponentsPoint`).  The fragmentation view
    the classical means compress away: the whole size distribution, not
    just the largest-component mean.
    """

    include_isolated: bool = False

    scans = False
    has_payload = True
    # Payload-only, cheaper than scan measures, dearer than bare means.
    cache_weight = 0.5

    @property
    def name(self) -> str:
        return "components"

    def series_payload(self, series):
        counts = np.zeros(series.num_nodes + 1, dtype=np.int64)
        for __, u, v in series.edge_groups():
            sizes = component_sizes(series.num_nodes, u, v)
            np.add.at(counts, sizes, 1)
            if self.include_isolated:
                touched = np.union1d(u, v).size
                counts[1] += series.num_nodes - touched
        return counts

    def finalize(self, delta, geometry, payload, collector):
        return ComponentsPoint(
            delta=float(delta),
            num_windows=geometry.num_windows,
            num_nonempty_windows=geometry.num_nonempty_windows,
            include_isolated=self.include_isolated,
            size_counts=payload,
        )


@dataclass(frozen=True)
class ReachabilityPoint:
    """Per-pair earliest-arrival summaries of the series at one Δ.

    For every ordered pair ``(u, v)`` of distinct nodes:
    ``pair_reachable_steps[u, v]`` counts the departure steps from which
    ``u`` reaches ``v``; ``pair_distance_sum[u, v]`` sums the
    corresponding earliest-arrival distances in window counts
    (``arrival - departure + 1``); ``pair_hops_sum[u, v]`` sums the
    minimum hop counts.  All exact ``int64``, diagonal zeroed (the paper
    considers pairs of distinct nodes).
    """

    delta: float
    num_steps: int
    pair_reachable_steps: np.ndarray = field(repr=False)
    pair_distance_sum: np.ndarray = field(repr=False)
    pair_hops_sum: np.ndarray = field(repr=False)

    @property
    def num_nodes(self) -> int:
        return self.pair_reachable_steps.shape[0]

    @property
    def reachable_pairs(self) -> int:
        """Ordered pairs reachable from at least one departure step."""
        return int((self.pair_reachable_steps > 0).sum())

    def reachable_fraction(self, u: int, v: int) -> float:
        """Share of departure steps from which ``u`` reaches ``v``."""
        return int(self.pair_reachable_steps[u, v]) / self.num_steps

    def mean_distance(self, u: int, v: int) -> float:
        """Mean earliest-arrival distance of the pair, in window counts
        (``nan`` when the pair is never reachable)."""
        count = int(self.pair_reachable_steps[u, v])
        if not count:
            return float("nan")
        return int(self.pair_distance_sum[u, v]) / count

    def distance_stats(self):
        """The global :class:`~repro.temporal.reachability.DistanceStats`
        these per-pair sums refine — bit-identical to the ``classical``
        measure's distance statistics at the same Δ."""
        from repro.temporal.reachability import DistanceStats

        n = self.num_nodes
        count = int(self.pair_reachable_steps.sum())
        dist = int(self.pair_distance_sum.sum())
        hops = int(self.pair_hops_sum.sum())
        total_possible = n * (n - 1) * self.num_steps
        return DistanceStats(
            mean_distance_steps=dist / count if count else float("inf"),
            mean_distance_hops=hops / count if count else float("inf"),
            reachable_fraction=count / total_possible if total_possible else 0.0,
            reachable_count=count,
        )

    def describe(self) -> str:
        n = self.num_nodes
        possible = n * (n - 1)
        return (
            f"{self.reachable_pairs}/{possible} ordered pairs reachable; "
            f"mean distance "
            f"{self.distance_stats().mean_distance_steps:.3f} windows"
        )


@register_measure
@dataclass(frozen=True)
class ReachabilityMeasure(MeasureSpec):
    """Per-pair earliest-arrival summaries from the arrival matrix.

    Rides the backward scan through an
    :class:`~repro.temporal.reachability.EarliestArrivalAccumulator`:
    the same closed-form departure-run folding as the classical distance
    statistics, kept per ordered pair instead of summed globally, and
    scattered into ``n × n`` matrices by the accumulator's columns.
    """

    scans = True
    has_payload = False
    # Scan-fed and n^2-sized: dearer to recompute than the scalar
    # measures, cheaper than materialized trip samples.
    cache_weight = 2.0

    @property
    def name(self) -> str:
        return "reachability"

    def make_collector(self) -> EarliestArrivalAccumulator:
        return EarliestArrivalAccumulator()

    def finalize(self, delta, geometry, payload, collector):
        n = geometry.num_nodes
        reach = np.zeros((n, n), dtype=np.int64)
        dist = np.zeros((n, n), dtype=np.int64)
        hops = np.zeros((n, n), dtype=np.int64)
        if collector.cols is not None:
            # Fresh matrices: the accumulator's own stay untouched.
            reach[:, collector.cols] = collector.reach_steps
            dist[:, collector.cols] = collector.dist_sum
            hops[:, collector.cols] = collector.hops_sum
        np.fill_diagonal(reach, 0)
        np.fill_diagonal(dist, 0)
        np.fill_diagonal(hops, 0)
        return ReachabilityPoint(
            delta=float(delta),
            num_steps=geometry.num_windows,
            pair_reachable_steps=reach,
            pair_distance_sum=dist,
            pair_hops_sum=hops,
        )
