"""Quickstart: find the saturation scale of a link stream.

A link stream is any collection of (u, v, t) triplets.  This example
builds one from a synthetic message network, runs the occupancy method
(the paper's automatic, parameter-free detector), and prints the
saturation scale gamma together with the evidence curve.

Run:  python examples/quickstart.py
"""

from repro import occupancy_method
from repro.generators import ReplicaParameters, circadian_replica
from repro.utils.timeunits import DAY, format_duration


def main() -> None:
    # A two-week message network: 120 people, 2500 directed messages,
    # circadian rhythm (you would normally read a TSV of real events via
    # repro.linkstream.read_tsv).
    params = ReplicaParameters(num_nodes=120, num_events=2500, span=14 * DAY)
    stream = circadian_replica(params, seed=7)
    print(f"stream: {stream}")

    # One call: sweep aggregation periods from the timestamp resolution
    # to the full span, score every occupancy distribution against the
    # uniform density, return the maximum.
    #
    # Each Δ is independent, so the sweep runs through repro.engine: pass
    # engine="thread" or engine="process" (or set REPRO_ENGINE, or use
    # `repro analyze --backend process --jobs 8` on the CLI) to evaluate
    # periods in parallel — results are bit-identical to the serial
    # default, and the unit of parallel work is a whole Δ.  Sweep points
    # are cached by stream content — per measure — so repeating this call (refinement
    # rounds, stability re-runs) is free; REPRO_CACHE_DIR / --cache-dir
    # makes the cache survive restarts (REPRO_CACHE_MAX_BYTES caps it,
    # `repro cache stats|clear` manages it).
    #
    # One scan, many measures: each Δ evaluation is a *fused* task —
    # ask for companion measures and they ride the same aggregation and
    # the same backward scan instead of re-sweeping the grid:
    #
    #     result = occupancy_method(stream, measures=("classical",))
    #     result.companions["classical"]   # ClassicalPoints, one per Δ
    #
    # (equivalently: analyze_stream(stream, measures=("occupancy",
    # "classical")), or `repro analyze --measures occupancy,classical`
    # on the CLI — Figure 2 top and bottom from one scan per Δ).
    #
    # The measure set is open-ended: built-ins cover trip samples,
    # component histograms, and per-pair reachability — parameterized
    # right in the spec string ("trips:max_samples=64,seed=3" on the
    # CLI and in measures=(...) alike) — and your own code can register
    # new measures at runtime:
    #
    #     from repro.engine import MeasureSpec, register_measure
    #
    #     @register_measure
    #     @dataclass(frozen=True)
    #     class MyMeasure(MeasureSpec):
    #         ...                      # fields = parameters = cache key
    #
    # after which "my_measure" works in occupancy_method, gamma_stability
    # (per-resample companions at each elected gamma), analyze_stream,
    # and `repro analyze --measures occupancy,my_measure` — fused into
    # the same single scan per Δ, cached per parameter set.
    # See "Writing a measure" in help(repro) for the full contract.
    # (`repro cache prewarm events.tsv --measures ...` replays a sweep
    # into the disk store so later analyses start warm.)
    #
    # For many analyses, skip per-process startup entirely: `repro
    # serve` runs a long-lived daemon owning the warm caches and a
    # shared worker pool, and
    #
    #     repro submit events.tsv --wait
    #
    # uploads the stream (idempotent, by content fingerprint), queues
    # the analysis, and prints the exact text `repro analyze` would —
    # identical concurrent requests coalesce into one computation, warm
    # repeats recompute nothing, and an overfull daemon says 429 rather
    # than melting down. `repro measures list` prints every registered
    # measure (plus any installed via the "repro.measures" entry-point
    # group) with its parameter schema. See "Serving analyses" in
    # help(repro).
    result = occupancy_method(stream, num_deltas=24)
    print(result.describe())
    print()

    print("evidence (M-K proximity by aggregation period):")
    for point in result.points:
        bar = "#" * int(60 * point.mk_proximity / 0.5)
        marker = "  <-- gamma" if point.delta == result.gamma else ""
        print(
            f"  delta = {format_duration(point.delta):>8}  "
            f"proximity = {point.mk_proximity:6.3f}  {bar}{marker}"
        )
    print()

    gamma_point = result.point_at_gamma()
    print(
        f"at gamma the series has {gamma_point.num_windows} windows and "
        f"{gamma_point.num_trips} minimal trips; "
        f"{100 * gamma_point.distribution.mass_at(1.0):.1f}% of trips are "
        "single-hop (occupancy 1)."
    )
    print(
        "aggregation periods beyond gamma alter propagation properties; "
        "choose a window at or below it."
    )


if __name__ == "__main__":
    main()
