"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``analyze``   detect the saturation scale of an event file and print the
              evidence curve (optionally with validation measures and,
              via ``--measures name[:key=value,...]``, extra measure
              columns — classical parameters, trip samples, component
              histograms, reachability, or any plugin registered through
              :func:`repro.engine.register_measure` — computed from the
              same single scan per window length).
``aggregate`` aggregate an event file at a chosen window and write one
              edge-list row per (window, u, v).
``generate``  produce a synthetic stream (time-uniform, two-mode, or a
              dataset replica) as a TSV event file.
``datasets``  list the built-in dataset replicas and manage the
              out-of-core dataset catalog: ``ingest`` shards an event
              file into sorted ``.npz`` partitions with a JSON manifest,
              ``info`` prints a dataset's manifest summary, ``index``
              rebuilds the manifest from the partition files on disk.
``measures``  introspect the measure registry (``list`` prints every
              registered measure with its parameter schema, types, and
              defaults — entry-point plugins included; ``--format json``
              emits the same records machine-readably).
``lint``      run the project-invariant checker (:mod:`repro.lint`)
              over source paths: cache-key completeness, determinism,
              collector contracts, lock discipline.  Exit code 0 when
              clean, 1 with findings, 2 on usage errors.
``cache``     manage the persistent sweep-result store (``stats`` /
              ``clear`` / ``prewarm``, the last replaying a sweep spec
              into the store so later analyses start warm).
``serve``     run the long-lived analysis daemon (HTTP+JSON): streams
              and sweep caches stay warm across requests, identical
              in-flight requests coalesce, the backlog is bounded.
``submit``    upload an event file to a running daemon and queue an
              analyze job (``--wait`` blocks for the result).
``status``    poll a submitted job.
``fetch``     print a finished job's result — for analyze jobs, the
              text is bit-identical to offline ``repro analyze``.

All files are TSV with columns ``u v t`` unless ``--columns`` says
otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Sequence

from repro.core import analyze_stream, log_delta_grid
from repro.datasets import available_datasets, catalog, dataset_spec, load
from repro.engine import (
    CACHE_DIR_ENV_VAR,
    CACHE_MAX_BYTES_ENV_VAR,
    ENTRY_POINT_FAILURES,
    ENTRY_POINT_GROUP,
    DiskStore,
    ENGINE_ENV_VAR,
    StderrProgress,
    SweepCache,
    SweepEngine,
    available_backends,
    available_measures,
    cache_max_bytes_from_env,
    clear_incremental_store,
    describe_measures,
    incremental_stats,
    parse_measures_arg,
    plan_measure_sweep,
)
from repro.generators import time_uniform_stream, two_mode_stream_by_rho
from repro.graphseries import aggregate as aggregate_stream
from repro.linkstream import read_csv, read_tsv, write_tsv
from repro.linkstream.stream import LinkStream
from repro.reporting import render_analysis
from repro.service import ServiceClient, serve
from repro.storage import partitioned
from repro.utils.errors import ReproError
from repro.utils.timeunits import format_duration, parse_duration


def _read_stream(path: str, columns: str, directed: bool, fmt: str) -> LinkStream:
    reader = read_csv if fmt == "csv" else read_tsv
    return reader(path, columns=columns, directed=directed)


def _build_engine(args: argparse.Namespace) -> SweepEngine:
    """Sweep engine from the ``analyze`` flags (falling back to the
    ``REPRO_ENGINE`` / ``REPRO_CACHE_DIR`` / ``REPRO_CACHE_MAX_BYTES``
    environment defaults)."""
    backend = args.backend or os.environ.get(ENGINE_ENV_VAR) or "serial"
    cache_dir = args.cache_dir or os.environ.get(CACHE_DIR_ENV_VAR) or None
    return SweepEngine(
        backend,
        jobs=args.jobs,
        cache=SweepCache.build(
            disk_dir=cache_dir,
            disk_max_bytes=cache_max_bytes_from_env(),
        ),
        progress=StderrProgress() if args.progress else None,
    )


def _render_measures_list() -> str:
    """What ``repro measures list`` / ``analyze --measures-list`` print:
    every registered measure with its parameter schema and defaults."""
    records = describe_measures()
    lines = [f"registered measures ({len(records)}):", ""]
    for record in records:
        feeds = []
        if record["scans"]:
            feeds.append("scan")
        if record["has_payload"]:
            feeds.append("series")
        suffix = f"  [{'+'.join(feeds)}]" if feeds else ""
        lines.append(f"  {record['name']:<14} {record['summary']}{suffix}")
        if record["params"]:
            for param in record["params"]:
                lines.append(
                    f"{'':17}{param['name']}: {param['type']} "
                    f"= {param['default']!r}"
                )
        else:
            lines.append(f"{'':17}(no parameters)")
    lines.append("")
    lines.append(
        "each measure is spelled name[:key=value,...] in --measures; "
        "installed packages can add more via the "
        f"{ENTRY_POINT_GROUP!r} entry-point group"
    )
    if ENTRY_POINT_FAILURES:
        lines.append("")
        lines.append("broken entry points (skipped):")
        for name, message in ENTRY_POINT_FAILURES:
            lines.append(f"  {name}: {message}")
    return "\n".join(lines)


def _cmd_measures(args: argparse.Namespace) -> int:
    # Only one action today ("list"); argparse enforces the choice.
    if args.format == "json":
        print(json.dumps(describe_measures(), indent=2))
    else:
        print(_render_measures_list())
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import all_rules, lint_paths, render_json, render_text

    if args.list_rules:
        for rule_cls in all_rules():
            print(f"{rule_cls.id:<28} {rule_cls.summary}")
        return 0
    paths = args.paths or [os.path.dirname(os.path.abspath(__file__))]
    result = lint_paths(paths, rule_ids=args.rules or None)
    if args.format == "json":
        print(render_json(result))
    else:
        print(render_text(result))
    return 0 if result.ok else 1


def _cmd_analyze(args: argparse.Namespace) -> int:
    if args.measures_list:
        print(_render_measures_list())
        return 0
    if args.events is None:
        raise ReproError("analyze needs an event file (or --measures-list)")
    stream = _read_stream(args.events, args.columns, not args.undirected, args.format)
    measures = parse_measures_arg(args.measures)
    with _build_engine(args) as engine:
        report = analyze_stream(
            stream,
            validate=args.validate,
            measures=measures,
            num_deltas=args.num_deltas,
            method=args.method,
            refine_rounds=args.refine,
            engine=engine,
        )
    # One renderer, shared with the analysis service — that sharing is
    # what keeps served responses bit-identical to this output.
    print(render_analysis(report))
    return 0


def _cmd_aggregate(args: argparse.Namespace) -> int:
    stream = _read_stream(args.events, args.columns, not args.undirected, args.format)
    delta = parse_duration(args.delta)
    series = aggregate_stream(stream, delta)
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write("# window\tu\tv\n")
        for step, us, vs in series.edge_groups():
            for u, v in zip(us.tolist(), vs.tolist()):
                handle.write(f"{step}\t{stream.label_of(u)}\t{stream.label_of(v)}\n")
    print(
        f"aggregated {stream.num_events} events at delta = "
        f"{format_duration(delta)}: {series.num_steps} windows, "
        f"{series.num_edges_total} edges -> {args.output}"
    )
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.family == "uniform":
        stream = time_uniform_stream(
            args.nodes, args.links_per_pair, args.span, seed=args.seed
        )
    elif args.family == "two-mode":
        stream = two_mode_stream_by_rho(
            args.nodes,
            args.links_per_pair,
            max(args.links_per_pair // 10, 1),
            args.span,
            args.rho,
            seed=args.seed,
        )
    else:  # a dataset replica
        stream = load(args.family, scale=args.scale, seed=args.seed)
    write_tsv(stream, args.output)
    print(f"wrote {stream.num_events} events ({stream.num_nodes} nodes) to {args.output}")
    return 0


def _resolve_cache_dir(args: argparse.Namespace) -> str:
    cache_dir = args.cache_dir or os.environ.get(CACHE_DIR_ENV_VAR) or None
    if cache_dir is None:
        raise ReproError(
            f"no cache directory: pass --cache-dir or set ${CACHE_DIR_ENV_VAR}"
        )
    return cache_dir


def _cmd_cache(args: argparse.Namespace) -> int:
    if args.action == "prewarm":
        return _cache_prewarm(args)
    if args.events is not None:
        raise ReproError(
            f"'cache {args.action}' takes no event file (only 'cache "
            "prewarm' replays a sweep)"
        )
    cache_dir = _resolve_cache_dir(args)
    if not os.path.isdir(cache_dir):
        # Inspecting or clearing must never mkdir: a typo'd path would
        # otherwise report a convincing empty store (and leave the stray
        # directory behind) while the real cache sits elsewhere.
        raise ReproError(f"cache directory does not exist: {cache_dir}")
    store = DiskStore(cache_dir, max_bytes=cache_max_bytes_from_env())
    if args.action == "stats":
        stats = store.stats()
        cap = (
            f"{stats['max_bytes']} bytes"
            if stats["max_bytes"] is not None
            else f"none (set ${CACHE_MAX_BYTES_ENV_VAR} to cap)"
        )
        print(f"cache directory: {store.directory}")
        print(f"entries: {stats['entries']}")
        print(f"size: {stats['bytes']} bytes")
        print(f"size cap: {cap}")
        inc = incremental_stats()
        print(
            f"incremental store (this process): {inc['streams']} streams, "
            f"{inc['scan_records']} scan records, {inc['nbytes']} bytes "
            f"(cap {inc['max_bytes']})"
        )
        print(
            f"incremental checkpoints: {inc['checkpoints']} states, "
            f"{inc['checkpoint_bytes']} bytes (the rest is series and "
            "consumer spans)"
        )
    else:  # clear
        removed = store.clear()
        clear_incremental_store()
        print(f"removed {removed} cached results from {store.directory}")
    return 0


def _cache_prewarm(args: argparse.Namespace) -> int:
    """Replay a sweep spec into the disk store so later runs start warm.

    Exactly the sweep ``analyze`` would run (same grid policy, same
    fused per-Δ tasks, same per-measure cache keys), minus the report:
    every per-measure result lands in the persistent store, so the next
    ``analyze`` — or any API sweep over the same stream and measures —
    is served without a single scan.
    """
    if args.events is None:
        raise ReproError(
            "cache prewarm needs an event file: "
            "repro cache prewarm EVENTS --cache-dir DIR [--measures ...]"
        )
    # Prewarm requires a concrete store; once resolved, the engine is
    # built by the same path analyze uses (one wiring to maintain).
    args.cache_dir = _resolve_cache_dir(args)
    stream = _read_stream(args.events, args.columns, not args.undirected, args.format)
    measures = parse_measures_arg(args.measures)
    deltas = log_delta_grid(stream, num=args.num_deltas)
    tasks = plan_measure_sweep(deltas, measures)
    with _build_engine(args) as engine:
        engine.run(stream, tasks)
        store = engine.cache.stores[-1]
        stats = store.stats()
    print(
        f"prewarmed {len(tasks)} window lengths x {len(measures)} measures "
        f"({', '.join(m.name for m in measures)}) from {args.events}"
    )
    print(
        f"cache directory: {store.directory} — {stats['entries']} entries, "
        f"{stats['bytes']} bytes"
    )
    if stats["put_errors"]:
        print(
            f"warning: {stats['put_errors']} cache writes failed "
            "(disk full or not writable?)",
            file=sys.stderr,
        )
    return 0


def _cmd_datasets(args: argparse.Namespace) -> int:
    action = args.action
    if action == "list":
        return _cmd_datasets_list(args)
    if action == "info":
        return _cmd_datasets_info(args)
    if action == "ingest":
        return _cmd_datasets_ingest(args)
    if action == "index":
        return _cmd_datasets_index(args)
    raise ReproError(f"unknown datasets action {action!r}")


def _catalog_root_or_none(args: argparse.Namespace) -> str | None:
    if args.root is not None:
        return args.root
    return os.environ.get(catalog.CATALOG_ROOT_ENV_VAR) or None


def _print_catalog_summary(info: dict) -> None:
    window = (
        f" over [{info['t_min']}, {info['t_max']}]"
        if info["t_min"] is not None
        else ""
    )
    print(
        f"  {info['name']:>14}: {info['nodes']} nodes, "
        f"{info['events']} events{window}; "
        f"{info['partitions']} partitions, "
        f"{'directed' if info['directed'] else 'undirected'}"
    )


def _cmd_datasets_list(args: argparse.Namespace) -> int:
    print("built-in dataset replicas (paper Section 5):")
    for name in available_datasets():
        spec = dataset_spec(name)
        print(
            f"  {name:>14}: {spec.full.num_nodes} nodes, "
            f"{spec.full.num_events} events over {spec.full.span_days:g} days; "
            f"activity {spec.activity_paper}/person/day, "
            f"paper gamma {spec.gamma_paper_hours:g} h"
        )
    root = _catalog_root_or_none(args)
    if root is None:
        print(
            "\nno dataset catalog configured "
            f"(set {catalog.CATALOG_ROOT_ENV_VAR} or pass --root to list "
            "ingested datasets)"
        )
        return 0
    entries = catalog.list_datasets(root)
    print(f"\ncatalog datasets under {root}:")
    if not entries:
        print("  (none ingested yet — see `repro datasets ingest`)")
    for info in entries:
        _print_catalog_summary(info)
    return 0


def _cmd_datasets_info(args: argparse.Namespace) -> int:
    if not args.target:
        raise ReproError("datasets info needs a dataset name")
    root = catalog.catalog_root(_catalog_root_or_none(args))
    info = catalog.dataset_info(args.target, root=root)
    for key in (
        "name",
        "events",
        "timestamps",
        "nodes",
        "directed",
        "time_dtype",
        "t_min",
        "t_max",
        "partitions",
        "fingerprint",
        "manifest_digest",
    ):
        print(f"{key:>16}: {info[key]}")
    if args.verify:
        stream = catalog.open_dataset(args.target, root=root, verify=True)
        # Touching the columns forces every partition through its
        # content-hash check; corruption raises naming the file.
        stream.storage.columns()
        print(f"{'verify':>16}: all {info['partitions']} partitions ok")
    return 0


def _cmd_datasets_ingest(args: argparse.Namespace) -> int:
    if not args.target:
        raise ReproError("datasets ingest needs a dataset name")
    if not args.events:
        raise ReproError("datasets ingest needs --events <file>")
    root = catalog.catalog_root(_catalog_root_or_none(args))
    manifest = catalog.ingest_file(
        args.events,
        args.target,
        root=root,
        fmt=args.format,
        columns=args.columns,
        directed=not args.undirected,
        partition_events=args.partition_events,
        overwrite=args.force,
    )
    print(
        f"ingested {args.events} as {args.target!r}: "
        f"{manifest['num_events']} events, {manifest['num_nodes']} nodes, "
        f"{len(manifest['partitions'])} partitions under "
        f"{catalog.dataset_dir(args.target, root)}"
    )
    print(f"     fingerprint: {manifest['fingerprint']}")
    print(f" manifest digest: {manifest['manifest_digest']}")
    return 0


def _cmd_datasets_index(args: argparse.Namespace) -> int:
    if not args.target:
        raise ReproError("datasets index needs a dataset name")
    root = catalog.catalog_root(_catalog_root_or_none(args))
    manifest = catalog.reindex_dataset(args.target, root=root)
    print(
        f"reindexed {args.target!r}: {manifest['num_events']} events in "
        f"{len(manifest['partitions'])} partitions"
    )
    print(f"     fingerprint: {manifest['fingerprint']}")
    print(f" manifest digest: {manifest['manifest_digest']}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    print(
        f"repro analysis daemon listening on http://{args.host}:{args.port} "
        f"(backend {args.backend}, {args.runners} runners, "
        f"backlog limit {args.max_pending})",
        file=sys.stderr,
    )
    serve(
        args.host,
        args.port,
        backend=args.backend,
        jobs=args.jobs,
        runners=args.runners,
        max_pending=args.max_pending,
        default_timeout=args.timeout,
        cache_dir=args.cache_dir or os.environ.get(CACHE_DIR_ENV_VAR) or None,
        verbose=args.verbose,
    )
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    with ServiceClient(args.url) as client:
        fingerprint = client.upload_stream(
            args.events,
            columns=args.columns,
            fmt=args.format,
            directed=not args.undirected,
        )
        job = client.analyze(
            fingerprint,
            measures=args.measures,
            num_deltas=args.num_deltas,
            method=args.method,
            refine=args.refine,
            validate=args.validate,
            timeout=args.timeout,
        )
        if args.wait is not None:
            print(client.fetch(job["job_id"], wait=args.wait)["text"])
            return 0
    coalesced = " (coalesced onto an in-flight request)" if job["coalesced"] else ""
    print(f"job {job['job_id']}: {job['state']}{coalesced}")
    print(f"stream {fingerprint}")
    print(f"fetch with: repro fetch {job['job_id']} --url {args.url}")
    return 0


def _cmd_append(args: argparse.Namespace) -> int:
    """Stream an event batch into a registered stream on the daemon.

    Events are sent as parsed ``[u, v, t]`` triples; node fields that
    parse as integers are sent as indices, anything else as labels for
    the daemon to resolve against the registered stream.  Timestamps
    keep their integer-ness so appends onto integer-timestamped streams
    stay integer.
    """

    def node(field: str):
        try:
            return int(field)
        except ValueError:
            return field

    def timestamp(field: str):
        try:
            return int(field)
        except ValueError:
            return float(field)

    sep = "," if args.format == "csv" else None
    order = args.columns.split()
    events = []
    with open(args.events, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = [f.strip() for f in line.split(sep)]
            if len(fields) < len(order):
                raise ReproError(
                    f"{args.events}:{lineno}: expected columns "
                    f"{args.columns!r}, got {len(fields)} fields"
                )
            record = dict(zip(order, fields))
            events.append(
                [node(record["u"]), node(record["v"]), timestamp(record["t"])]
            )
    with ServiceClient(args.url) as client:
        response = client.append(args.fingerprint, events)
    print(f"stream {response['fingerprint']}")
    print(f"parent {response['parent']}")
    print(
        f"appended {response['appended']} events "
        f"({response['num_events']} total, {response['num_nodes']} nodes)"
    )
    print(
        f"analyze with: repro submit --url {args.url} ... or the "
        f"new fingerprint above"
    )
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    with ServiceClient(args.url) as client:
        payload = client.status(args.job) if args.job else {"jobs": client.jobs()}
    print(json.dumps(payload, indent=2))
    return 0


def _cmd_fetch(args: argparse.Namespace) -> int:
    with ServiceClient(args.url) as client:
        result = client.fetch(args.job, wait=args.wait)
    if result.get("kind") == "analyze":
        # The same bytes `repro analyze` would print for this stream.
        print(result["text"])
    else:
        print(json.dumps(result, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Saturation-scale analysis of link streams (CoNEXT 2015 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io_options(
        p: argparse.ArgumentParser, *, optional_events: bool = False
    ) -> None:
        if optional_events:
            p.add_argument(
                "events",
                nargs="?",
                default=None,
                help="event file (one interaction per line)",
            )
        else:
            p.add_argument("events", help="event file (one interaction per line)")
        p.add_argument("--columns", default="u v t", help="column order (default: 'u v t')")
        p.add_argument("--format", choices=("tsv", "csv"), default="tsv")
        p.add_argument("--undirected", action="store_true", help="treat links as undirected")

    analyze = sub.add_parser("analyze", help="detect the saturation scale")
    add_io_options(analyze, optional_events=True)
    analyze.add_argument(
        "--measures-list",
        action="store_true",
        dest="measures_list",
        help="print every registered measure with its parameter schema, "
        "types, and defaults, then exit (no event file needed)",
    )
    analyze.add_argument("--num-deltas", type=int, default=40, help="sweep grid size")
    analyze.add_argument("--method", default="mk", help="selection statistic (mk/std/cre/shannonK)")
    analyze.add_argument("--refine", type=int, default=0, help="refinement rounds")
    analyze.add_argument("--validate", action="store_true", help="also run Section 8 loss measures")
    analyze.add_argument(
        "--measures",
        default="occupancy",
        help="comma-separated measures to evaluate at every window length "
        f"({','.join(available_measures())}, plus any measure registered "
        "at runtime via repro.engine.register_measure); each entry is "
        "name[:key=value,...] with further key=value items riding the "
        "following commas (e.g. 'occupancy,trips:max_samples=64,seed=3'); "
        "the whole set is computed from ONE aggregation and ONE backward "
        "scan per delta (the fused measure pipeline), so extra measures "
        "cost no extra sweep; 'occupancy' is required (it selects "
        "gamma). Default: occupancy",
    )
    analyze.add_argument(
        "--backend",
        choices=available_backends(),
        default=None,
        help=f"sweep execution backend (default: ${ENGINE_ENV_VAR} or 'serial')",
    )
    analyze.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker threads/processes for --backend thread/process "
        "(default: the CPU count)",
    )
    analyze.add_argument(
        "--cache-dir",
        default=None,
        help="persist per-delta sweep results under this directory so warm "
        f"re-runs skip all recomputation (default: ${CACHE_DIR_ENV_VAR})",
    )
    analyze.add_argument(
        "--progress", action="store_true", help="print sweep progress to stderr"
    )
    analyze.set_defaults(func=_cmd_analyze)

    agg = sub.add_parser("aggregate", help="aggregate an event file into a graph series")
    add_io_options(agg)
    agg.add_argument("--delta", required=True, help="window length (e.g. '18h', '3600')")
    agg.add_argument("--output", required=True, help="output TSV (window, u, v)")
    agg.set_defaults(func=_cmd_aggregate)

    gen = sub.add_parser("generate", help="generate a synthetic stream")
    gen.add_argument(
        "family",
        choices=["uniform", "two-mode", *available_datasets()],
        help="synthetic family or dataset replica",
    )
    gen.add_argument("--output", required=True)
    gen.add_argument("--nodes", type=int, default=50)
    gen.add_argument("--links-per-pair", type=int, default=10)
    gen.add_argument("--span", type=float, default=100_000.0)
    gen.add_argument("--rho", type=float, default=0.5, help="two-mode low-activity share")
    gen.add_argument("--scale", choices=("paper", "full"), default="paper")
    gen.add_argument("--seed", type=int, default=0)
    gen.set_defaults(func=_cmd_generate)

    datasets = sub.add_parser(
        "datasets",
        help="list replicas and manage the partitioned dataset catalog",
        description="List the built-in dataset replicas and manage the "
        "out-of-core dataset catalog.  'list' (the default) prints the "
        "replicas plus any ingested catalog datasets; 'ingest' shards an "
        "event file into sorted .npz partitions with a JSON manifest; "
        "'info' prints a dataset's manifest summary (--verify re-hashes "
        "every partition); 'index' rebuilds the manifest from the "
        "partition files on disk.  The catalog root comes from --root or "
        f"the {catalog.CATALOG_ROOT_ENV_VAR} environment variable.",
    )
    datasets.add_argument(
        "action",
        nargs="?",
        default="list",
        choices=("list", "info", "ingest", "index"),
        help="catalog action (default: list)",
    )
    datasets.add_argument(
        "target", nargs="?", help="catalog dataset name (info/ingest/index)"
    )
    datasets.add_argument(
        "--root",
        default=None,
        help="catalog root directory "
        f"(default: ${catalog.CATALOG_ROOT_ENV_VAR})",
    )
    datasets.add_argument(
        "--events", default=None, help="event file to ingest"
    )
    datasets.add_argument(
        "--format",
        choices=("tsv", "csv", "jsonl"),
        default="tsv",
        help="event-file format for ingest (default: tsv)",
    )
    datasets.add_argument(
        "--columns", default="u v t", help="column order (default: 'u v t')"
    )
    datasets.add_argument(
        "--undirected",
        action="store_true",
        help="ingest the stream as undirected",
    )
    datasets.add_argument(
        "--partition-events",
        type=int,
        default=None,
        help="target events per partition "
        f"(default: ${partitioned.PARTITION_EVENTS_ENV_VAR} or "
        f"{partitioned.DEFAULT_PARTITION_EVENTS})",
    )
    datasets.add_argument(
        "--force",
        action="store_true",
        help="replace an existing catalog dataset on ingest",
    )
    datasets.add_argument(
        "--verify",
        action="store_true",
        help="with info: re-hash every partition against the manifest",
    )
    datasets.set_defaults(func=_cmd_datasets)

    measures = sub.add_parser(
        "measures",
        help="introspect the measure registry",
        description="Introspect the measure plugin registry. 'list' "
        "prints every registered measure (built-in and entry-point "
        "plugins alike) with its declarative parameter schema: field "
        "names, types, and defaults — the same schema that validates "
        "--measures name:key=value parameters.",
    )
    measures.add_argument("action", choices=("list",))
    measures.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (json emits the describe_measures() records "
        "verbatim, one object per measure with its parameter schema)",
    )
    measures.set_defaults(func=_cmd_measures)

    lint = sub.add_parser(
        "lint",
        help="check project invariants (determinism, cache keys, "
        "collector contracts, lock discipline)",
        description="Run the AST-based invariant checker over source "
        "paths (default: the installed repro package). Exit code 0 when "
        "clean, 1 when findings remain, 2 on usage errors. Suppress a "
        "finding with a trailing `# repro: ignore[rule-id]` comment.",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        help="files or directories to check (default: the repro package)",
    )
    lint.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format",
    )
    lint.add_argument(
        "--rule",
        action="append",
        dest="rules",
        metavar="ID",
        help="run only this rule id (repeatable)",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rule ids and exit",
    )
    lint.set_defaults(func=_cmd_lint)

    serve_cmd = sub.add_parser(
        "serve",
        help="run the long-lived analysis daemon",
        description="Serve analyses over HTTP+JSON from one warm "
        "process: registered streams, the aggregation memo, and the "
        "sweep-result cache persist across requests, so repeat "
        "analyses are pure cache hits. Identical in-flight requests "
        "coalesce onto one computation; the job backlog is bounded "
        "(full queue: HTTP 429) and each request can carry a deadline "
        "that cancels its pending work.",
    )
    serve_cmd.add_argument("--host", default="127.0.0.1")
    serve_cmd.add_argument("--port", type=int, default=8765)
    serve_cmd.add_argument(
        "--backend",
        default="thread",
        choices=available_backends(),
        help="sweep execution backend shared by every request "
        "(default: thread — one shared thread pool; each request's "
        "sweep runs on it from its runner thread)",
    )
    serve_cmd.add_argument(
        "--jobs", type=int, default=None, help="backend worker count"
    )
    serve_cmd.add_argument(
        "--runners",
        type=int,
        default=4,
        help="concurrent jobs (each runner drives one job's sweeps "
        "through the shared backend pool; default: 4)",
    )
    serve_cmd.add_argument(
        "--max-pending",
        type=int,
        default=32,
        help="admission limit: queued jobs beyond this are rejected "
        "with HTTP 429 (default: 32)",
    )
    serve_cmd.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="default per-request deadline in seconds (requests may "
        "override; default: none)",
    )
    serve_cmd.add_argument(
        "--cache-dir",
        default=None,
        help=f"persistent sweep cache directory (default: ${CACHE_DIR_ENV_VAR})",
    )
    serve_cmd.add_argument(
        "--verbose", action="store_true", help="log every HTTP request"
    )
    serve_cmd.set_defaults(func=_cmd_serve)

    def add_client_options(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--url",
            default="http://127.0.0.1:8765",
            help="daemon address (default: http://127.0.0.1:8765)",
        )

    submit = sub.add_parser(
        "submit",
        help="upload an event file to a running daemon and queue an analyze job",
    )
    add_io_options(submit)
    add_client_options(submit)
    submit.add_argument("--num-deltas", type=int, default=40, help="sweep grid size")
    submit.add_argument("--method", default="mk", help="selection statistic (mk/std/cre/shannonK)")
    submit.add_argument("--refine", type=int, default=0, help="refinement rounds")
    submit.add_argument("--validate", action="store_true", help="also run Section 8 loss measures")
    submit.add_argument(
        "--measures",
        default="occupancy",
        help="measure set, same syntax as analyze --measures (default: occupancy)",
    )
    submit.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-request deadline in seconds (past it the daemon "
        "cancels the job's pending work)",
    )
    submit.add_argument(
        "--wait",
        type=float,
        default=None,
        help="block up to this many seconds and print the result "
        "(bit-identical to offline 'repro analyze')",
    )
    submit.set_defaults(func=_cmd_submit)

    append_cmd = sub.add_parser(
        "append",
        help="append an event batch to a stream registered on a running "
        "daemon (warm incremental re-analysis)",
    )
    append_cmd.add_argument(
        "fingerprint", help="registered stream fingerprint (from submit)"
    )
    append_cmd.add_argument("events", help="event file holding the batch to append")
    append_cmd.add_argument(
        "--columns", default="u v t", help="column order (default: 'u v t')"
    )
    append_cmd.add_argument("--format", choices=("tsv", "csv"), default="tsv")
    add_client_options(append_cmd)
    append_cmd.set_defaults(func=_cmd_append)

    status = sub.add_parser("status", help="poll a submitted job")
    status.add_argument("job", nargs="?", default=None, help="job id (default: list every job)")
    add_client_options(status)
    status.set_defaults(func=_cmd_status)

    fetch = sub.add_parser("fetch", help="print a finished job's result")
    fetch.add_argument("job", help="job id")
    add_client_options(fetch)
    fetch.add_argument(
        "--wait",
        type=float,
        default=None,
        help="long-poll up to this many seconds for the job to finish",
    )
    fetch.set_defaults(func=_cmd_fetch)

    cache = sub.add_parser(
        "cache",
        help="inspect, empty, or prewarm the persistent sweep-result store",
        description="Manage the on-disk sweep cache (the store that "
        f"${CACHE_DIR_ENV_VAR} / --cache-dir point analyze at). 'stats' "
        "reports entry count, total size, and the eviction cap "
        f"(${CACHE_MAX_BYTES_ENV_VAR}: within each measure eviction "
        "weight, least-recently-used results are swept once the store "
        "outgrows it, cheapest-to-recompute weights first); 'clear' "
        "deletes every entry; 'prewarm EVENTS' replays a sweep spec "
        "into the store so later analyses of the same stream start "
        "fully warm.",
    )
    cache.add_argument("action", choices=("stats", "clear", "prewarm"))
    cache.add_argument(
        "events",
        nargs="?",
        default=None,
        help="event file to prewarm from (prewarm only)",
    )
    cache.add_argument(
        "--cache-dir",
        default=None,
        help=f"cache directory (default: ${CACHE_DIR_ENV_VAR})",
    )
    cache.add_argument("--columns", default="u v t", help="column order (default: 'u v t')")
    cache.add_argument("--format", choices=("tsv", "csv"), default="tsv")
    cache.add_argument("--undirected", action="store_true", help="treat links as undirected")
    cache.add_argument(
        "--num-deltas", type=int, default=40, help="sweep grid size (prewarm)"
    )
    cache.add_argument(
        "--measures",
        default="occupancy",
        help="measure set to prewarm, same syntax as analyze --measures "
        "(default: occupancy)",
    )
    cache.add_argument(
        "--backend",
        choices=available_backends(),
        default=None,
        help=f"sweep execution backend (default: ${ENGINE_ENV_VAR} or 'serial')",
    )
    cache.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker threads/processes for --backend thread/process",
    )
    cache.add_argument(
        "--progress", action="store_true", help="print sweep progress to stderr"
    )
    cache.set_defaults(func=_cmd_cache)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
