"""Command-line entry point: ``python -m repro <command>``.

Commands
--------
``list-datasets``
    Print the registered benchmark datasets.
``list-experiments``
    Print the experiment modules (one per paper table / figure).
``run-experiment NAME``
    Regenerate one table / figure (e.g. ``table1`` or ``figure5``).  With
    ``--engine`` the experiment's pipeline methods run through the batched
    serving engine instead of a sequential loop.
``demo``
    Run the Figure-2 style quickstart on a freshly generated Restaurant task,
    driven through the :class:`repro.api.Client` facade.  With ``--engine``
    all of the dataset's tasks are executed through the serving engine and a
    throughput summary is printed.  With ``--cluster --workers N`` the
    dataset's tasks fan out as typed specs across a sharded cluster and the
    aggregated :class:`~repro.cluster.ClusterStats` are printed.
``serve``
    Answer JSON task requests (newline-delimited; blank line flushes a batch)
    on stdin/stdout, or on a TCP socket with ``--port``.  Speaks the v2
    envelopes of :mod:`repro.api.protocol` and covers all seven task
    types.  With
    ``--cluster``, ``--workers N`` serving stacks shard the work by
    consistent hash with disjoint persistent-cache shards
    (``--cluster-mode process`` spawns them as subprocesses).  With
    ``--max-inflight`` / ``--max-queue-depth`` admission control sheds
    excess load with structured ``overloaded`` errors, and
    ``--stats-port N`` opens an HTTP side channel (``GET /`` for the JSON
    snapshot, ``/metrics``, ``/healthz``, ``/readyz``, ``/doctor``) that
    stays readable under overload.  With
    ``--tenant NAME[,weight=W][,rate=R][,burst=B][,max_inflight=M]``
    (repeatable) and/or ``--tenants-file FILE`` (a JSON object of the same
    per-tenant keys) the front door enforces per-tenant token-bucket rate
    limits and inflight caps (structured ``rate_limited`` errors) and
    schedules admitted work weighted-fair across tenants.
``stats``
    Fetch and pretty-print the observability snapshot of a running service:
    either through the main port (a ``{"type": "stats"}`` request over the
    line protocol) or from a ``--stats-port`` side channel (``GET /``).  With
    ``--format prom`` the snapshot is rendered as Prometheus text-format
    exposition (fetched as ``GET /metrics`` when a ``--stats-port`` is
    given); ``--reset`` zeroes the counters after the snapshot,
    ``--tenant NAME`` narrows it to one tenant and ``--prefix`` to one
    metric prefix (main port only: with ``--stats-port`` they exit 2).
``top``
    Live refreshing per-tenant health table against a running service:
    windowed QPS, p99 latency, shed rate, error-budget headroom and SLO
    state per tenant, plus readiness and firing alerts.  ``--once`` prints
    a single frame (scripting/CI); reads the main port or ``--stats-port``.
``doctor``
    Capture a one-shot diagnostic bundle from a running service's
    ``--stats-port`` (``GET /doctor``): effective config, stats snapshot,
    rolling windows, firing alerts, SLO states, the event tail and every
    thread's stack — one JSON file for a postmortem (``--output -`` for
    stdout).
``trace``
    Reconstruct the span waterfall of one trace from a structured event log
    (``--events`` file, default ``$REPRO_EVENTS_FILE``): per-span offsets,
    durations, tree nesting and the critical path.
"""

from __future__ import annotations

import argparse
import sys
import time

from .core import UniDMConfig
from .datasets import list_datasets, load_dataset
from .experiments import ALL_EXPERIMENTS
from .llm import CachedLLM, SimulatedLLM


def _positive_int(value: str) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {number}")
    return number


def _engine_from_args(args: argparse.Namespace):
    from .serving import EngineConfig, ExecutionEngine

    return ExecutionEngine(
        EngineConfig(max_batch_size=args.batch_size, workers=args.workers)
    )


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--engine",
        action="store_true",
        help="execute through the batched serving engine",
    )
    parser.add_argument("--batch-size", type=_positive_int, default=8, help="micro-batch size")
    parser.add_argument(
        "--workers",
        type=_positive_int,
        default=8,
        help="concurrent tasks in flight (with --cluster: number of shard workers)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="directory of a persistent completion cache (created if missing)",
    )


def _add_cluster_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cluster",
        action="store_true",
        help="shard across --workers serving stacks (consistent-hash routing, "
        "disjoint cache shards; see repro.cluster)",
    )
    parser.add_argument(
        "--autoscale",
        action="store_true",
        help="with --cluster: scale the worker count between --min-workers "
        "and --max-workers from the rolling load windows",
    )
    parser.add_argument(
        "--min-workers",
        type=_positive_int,
        default=1,
        help="lower bound of --autoscale (default: 1)",
    )
    parser.add_argument(
        "--max-workers",
        type=_positive_int,
        default=8,
        help="upper bound of --autoscale (default: 8)",
    )
    parser.add_argument(
        "--cluster-mode",
        choices=("thread", "process"),
        default="thread",
        help="cluster worker kind: in-process threads or spawned "
        "`repro serve` subprocesses (default: thread)",
    )


def _maybe_cached(llm, cache_dir: str | None):
    if cache_dir is None:
        return llm
    from .serving import PersistentCache

    return CachedLLM(llm, persistent=PersistentCache(cache_dir))


def _cmd_list_datasets(_: argparse.Namespace) -> int:
    for name in list_datasets():
        print(name)
    return 0


def _cmd_list_experiments(_: argparse.Namespace) -> int:
    for name, module in ALL_EXPERIMENTS.items():
        doc = (module.__doc__ or "").strip().splitlines()[0]
        print(f"{name:10s} {doc}")
    return 0


def _cmd_run_experiment(args: argparse.Namespace) -> int:
    if args.name not in ALL_EXPERIMENTS:
        print(f"unknown experiment {args.name!r}; available: {sorted(ALL_EXPERIMENTS)}")
        return 2
    if args.engine:
        from .eval import set_default_engine
        from .serving import EngineConfig

        print(
            "note: --engine runs cold simulated models concurrently; their "
            "noise streams are call-order-sensitive, so scores may differ "
            "slightly from the sequential reproduction",
            file=sys.stderr,
        )
        set_default_engine(
            EngineConfig(max_batch_size=args.batch_size, workers=args.workers)
        )
    kwargs = {"seed": args.seed}
    if args.max_tasks is not None:
        kwargs["max_tasks"] = args.max_tasks
    try:
        ALL_EXPERIMENTS[args.name].main(**kwargs)
    finally:
        if args.engine:
            set_default_engine(None)
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from .api import Client

    if args.cluster:
        return _demo_cluster(args)
    dataset = load_dataset("restaurant", seed=args.seed, n_records=80, n_tasks=5)
    llm = _maybe_cached(
        SimulatedLLM(knowledge=dataset.knowledge, seed=args.seed), args.cache_dir
    )
    engine = _engine_from_args(args) if args.engine else None
    client = Client.local(llm=llm, config=UniDMConfig.full(seed=args.seed), engine=engine)
    task = dataset.tasks[0]
    result = client.run_task(task)
    print("query        :", result.query)
    print("context      :", result.context_text)
    print("target prompt:", result.trace.target_prompt)
    print("answer       :", result.value)
    print("ground truth :", dataset.ground_truth[0])
    print("tokens       :", result.total_tokens)
    if engine is not None:
        from .obs.metrics import get_default_registry

        counters = [
            get_default_registry().counter(f"batcher.{name}")
            for name in ("requests", "batches", "cached")
        ]
        before = [counter.value for counter in counters]
        started = time.perf_counter()
        results = client.run_tasks(dataset.tasks)
        elapsed = time.perf_counter() - started
        requests, batches, cached = (c.value - b for c, b in zip(counters, before))
        correct = sum(
            1 for r, truth in zip(results, dataset.ground_truth) if r.value == truth
        )
        print(
            f"engine       : {len(results)} tasks in {elapsed:.3f}s "
            f"({len(results) / elapsed:.1f} tasks/s), {correct}/{len(results)} correct"
        )
        mean = requests / batches if batches else 0.0
        print(
            f"batching     : {requests} LLM calls in {batches} batches "
            f"(mean {mean:.2f}) + {cached} answered from cache"
        )
        if args.cache_dir is not None:
            print(f"cache        : hit rate {llm.hit_rate:.2f} ({args.cache_dir})")
    return 0


def _demo_cluster(args: argparse.Namespace) -> int:
    """Sharded demo: the dataset's imputation tasks fan out as typed specs."""
    from .api import Client, ImputationSpec

    dataset = load_dataset("restaurant", seed=args.seed, n_records=80, n_tasks=16)
    rows = dataset.table.to_dicts()
    specs = [
        ImputationSpec(
            rows=rows,
            target=task.record.to_dict(),
            attribute=task.attribute,
            table_name=dataset.table.name,
        )
        for task in dataset.tasks
    ]
    knowledge = dataset.knowledge
    if args.cluster_mode == "process":
        # Subprocess workers build their own stacks; the dataset's knowledge
        # store cannot ship across the process boundary, so answers come
        # from the bare simulated model.
        knowledge = None
        print(
            "note: process workers run without the demo's knowledge store; "
            "expect 'unknown' answers (use thread mode for the accuracy demo)",
            file=sys.stderr,
        )
    with Client.cluster(
        workers=args.workers,
        mode=args.cluster_mode,
        seed=args.seed,
        knowledge=knowledge,
        cache_dir=args.cache_dir,
        batch_size=args.batch_size,
    ) as client:
        started = time.perf_counter()
        results = client.submit_many(specs)
        elapsed = time.perf_counter() - started
        correct = sum(
            1 for r, truth in zip(results, dataset.ground_truth) if r.answer == truth
        )
        print(
            f"cluster      : {len(results)} specs in {elapsed:.3f}s "
            f"({len(results) / elapsed:.1f} specs/s), "
            f"{correct}/{len(results)} correct"
        )
        print(client.router.stats().describe())
    return 0


def _serve_frontend(host, args: argparse.Namespace, config: dict) -> int:
    """Put ``host`` (a service or a router — one ``FrontDoor``) behind a front-end.

    ``--port`` serves its ``handle_batch`` on TCP, otherwise on stdin/stdout;
    ``--stats-port`` adds the HTTP side channel over its ``stats_snapshot``
    and ``monitor`` (``/``, ``/metrics``, ``/healthz``, ``/readyz`` and a
    ``/doctor`` bundle recording ``config``), answered off the request path.
    """
    from .obs import serve_stats_in_thread, start_stats_server
    from .obs.diagnostics import build_bundle
    from .serving import serve_lines, start_line_server

    probes = {
        "monitor": host.monitor,
        "doctor_fn": lambda: build_bundle(
            snapshot_fn=host.stats_snapshot, monitor=host.monitor, config=config
        ),
    }
    if args.port is not None:
        import asyncio

        async def _run() -> None:
            server = await start_line_server(host.handle_batch, args.host, args.port)
            if args.stats_port is not None:
                await start_stats_server(
                    host.stats_snapshot, args.host, args.stats_port, **probes
                )
                print(f"stats on {args.host}:{args.stats_port}", file=sys.stderr)
            async with server:
                await server.serve_forever()

        print(f"serving on {args.host}:{args.port}", file=sys.stderr)
        try:
            asyncio.run(_run())
        except KeyboardInterrupt:  # pragma: no cover - interactive
            pass
        except OSError as exc:
            print(f"cannot bind {args.host}: {exc}", file=sys.stderr)
            return 1
        return 0
    if args.stats_port is not None:
        bound = serve_stats_in_thread(
            host.stats_snapshot, args.host, args.stats_port, **probes
        )
        if bound is None:
            print(
                f"cannot bind stats port {args.host}:{args.stats_port}", file=sys.stderr
            )
            return 1
        print(f"stats on {args.host}:{bound}", file=sys.stderr)
    serve_lines(host.handle_batch, sys.stdin, sys.stdout)
    print(f"served {host.requests_served} requests", file=sys.stderr)
    return 0


def _tenants_from_args(args: argparse.Namespace):
    """Build the tenant registry from --tenants-file and --tenant flags.

    Returns ``None`` (tenancy off) when neither flag was given.  Inline
    ``--tenant`` specs override same-named entries from the file.
    """
    inline = getattr(args, "tenants", None) or []
    path = getattr(args, "tenants_file", None)
    if not inline and path is None:
        return None
    from .tenancy import TenantConfig, TenantRegistry

    registry = (
        TenantRegistry.from_file(path) if path is not None else TenantRegistry()
    )
    for spec in inline:
        registry.register(TenantConfig.parse_inline(spec))
    return registry


def _slos_from_args(args: argparse.Namespace) -> list:
    """Build the SLO list from --slos-file and --slo flags.

    Inline ``--slo`` specs override same-named entries from the file.
    """
    inline = getattr(args, "slos", None) or []
    path = getattr(args, "slos_file", None)
    if not inline and path is None:
        return []
    from .obs.slo import SLOSpec, load_slos

    by_name = {}
    if path is not None:
        for spec in load_slos(path):
            by_name[spec.name] = spec
    for text in inline:
        spec = SLOSpec.parse_inline(text)
        by_name[spec.name] = spec
    return list(by_name.values())


def _serve_config(args: argparse.Namespace, slos) -> dict:
    """The effective serve configuration a doctor bundle records."""
    return {
        "command": "serve",
        "model": args.model,
        "seed": args.seed,
        "workers": args.workers,
        "batch_size": args.batch_size,
        "cluster": args.cluster,
        "cluster_mode": args.cluster_mode if args.cluster else None,
        "autoscale": bool(getattr(args, "autoscale", False)),
        "min_workers": getattr(args, "min_workers", None),
        "max_workers": getattr(args, "max_workers", None),
        "max_inflight": args.max_inflight,
        "max_queue_depth": args.max_queue_depth,
        "tenants": getattr(args, "tenants", None) or [],
        "tenants_file": getattr(args, "tenants_file", None),
        "slos": {spec.name: spec.to_payload() for spec in slos},
    }


def _cmd_serve(args: argparse.Namespace) -> int:
    try:
        tenants = _tenants_from_args(args)
    except (ValueError, OSError) as exc:
        print(f"bad tenant configuration: {exc}", file=sys.stderr)
        return 2
    try:
        slos = _slos_from_args(args)
    except (ValueError, OSError) as exc:
        print(f"bad SLO configuration: {exc}", file=sys.stderr)
        return 2
    if args.events_file is not None:
        from .obs import configure_default_event_log

        # export_env makes spawned subprocess workers (cluster --cluster-mode
        # process) inherit the sink, so one file collects the whole tree.
        configure_default_event_log(path=args.events_file, export_env=True)

    door = dict(
        max_inflight=args.max_inflight,
        max_queue_depth=args.max_queue_depth,
        tenants=tenants,
        slos=slos,
    )
    loops = []
    if args.cluster:
        from .cluster import Autoscaler, Router, Supervisor

        build = Router.spawn if args.cluster_mode == "process" else Router.local
        host = build(
            args.workers,
            seed=args.seed,
            model=args.model,
            cache_dir=args.cache_dir,
            batch_size=args.batch_size,
            **door,
        )
        print(
            f"cluster: {args.workers} {args.cluster_mode} workers", file=sys.stderr
        )
        # Elasticity control loops: the Supervisor revives crashed workers
        # in place (always on in cluster mode — a crash should never leave
        # a hole in the ring), and --autoscale resizes the worker count
        # between --min-workers/--max-workers from the rolling load windows.
        loops.append(Supervisor(host))
        if args.autoscale:
            try:
                loops.append(
                    Autoscaler(
                        host, min_workers=args.min_workers, max_workers=args.max_workers
                    )
                )
            except ValueError as exc:
                print(f"bad autoscale configuration: {exc}", file=sys.stderr)
                host.close()
                return 2
            print(
                f"autoscale: {args.min_workers}..{args.max_workers} workers",
                file=sys.stderr,
            )
    else:
        from .serving import build_service

        host = build_service(
            model=args.model,
            seed=args.seed,
            cache_dir=args.cache_dir,
            batch_size=args.batch_size,
            workers=args.workers,
            **door,
        )
    try:
        for loop in (host.monitor, *loops):
            loop.start()
        return _serve_frontend(host, args, _serve_config(args, slos))
    finally:
        for loop in loops:
            loop.stop()
        host.close()  # stops the monitor too


def _cmd_stats(args: argparse.Namespace) -> int:
    import json

    from .cli import StatsUnreachable, fetch_snapshot
    from .cli.fetch import fetch_prometheus

    if args.stats_port is not None:
        for flag, value in (
            ("--reset", args.reset), ("--tenant", args.tenant), ("--prefix", args.prefix)
        ):
            if value:
                print(
                    f"repro stats: {flag} needs the main port; drop it or --stats-port",
                    file=sys.stderr,
                )
                return 2

    def fetch() -> dict:
        return fetch_snapshot(
            args.host,
            port=args.port,
            stats_port=args.stats_port,
            timeout=args.timeout,
            prefix=args.prefix,
            tenant=args.tenant,
            reset=args.reset,
        )

    try:
        if args.format == "prom":
            if args.stats_port is not None:
                body = fetch_prometheus(
                    args.host, args.stats_port, timeout=args.timeout
                )
            else:
                from .obs import render_prometheus

                snapshot = fetch()
                body = render_prometheus(
                    snapshot.get("metrics", {}), exemplars=snapshot.get("exemplars")
                )
            print(body, end="")
            return 0
        snapshot = fetch()
    except StatsUnreachable as exc:
        print(str(exc), file=sys.stderr)
        return 1
    print(json.dumps(snapshot, indent=2, ensure_ascii=False))
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from .cli import fetch_snapshot, render_top, watch_loop

    def fetch() -> dict:
        return fetch_snapshot(
            args.host,
            port=args.port,
            stats_port=args.stats_port,
            timeout=args.timeout,
        )

    return watch_loop(
        fetch,
        lambda snapshot: render_top(snapshot, window=args.window),
        interval=args.interval,
        once=args.once,
        out=sys.stdout,
        err=sys.stderr,
    )


def _cmd_doctor(args: argparse.Namespace) -> int:
    import json

    from .cli import StatsUnreachable, fetch_probe

    if args.stats_port is None:
        print(
            "repro doctor needs --stats-port (start serve with --stats-port N)",
            file=sys.stderr,
        )
        return 2
    try:
        status, bundle = fetch_probe(
            args.host, args.stats_port, "/doctor", timeout=args.timeout
        )
    except StatsUnreachable as exc:
        print(str(exc), file=sys.stderr)
        return 1
    if status != 200:
        print(
            f"stats port {args.host}:{args.stats_port}/doctor answered "
            f"HTTP {status}: {bundle.get('error', bundle)}",
            file=sys.stderr,
        )
        return 1
    # Stamped client-side: the serving process only uses monotonic clocks.
    bundle["captured_at"] = time.time()
    bundle["target"] = f"{args.host}:{args.stats_port}"
    text = json.dumps(bundle, indent=2, ensure_ascii=False)
    if args.output == "-":
        print(text)
        return 0
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
    print(f"wrote diagnostic bundle to {args.output}", file=sys.stderr)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import os

    from .obs import get_default_event_log, render_waterfall
    from .obs.events import read_events

    path = args.events or os.environ.get("REPRO_EVENTS_FILE")
    if path:
        try:
            events = read_events(path)
        except OSError as exc:
            print(f"cannot read event log {path}: {exc}", file=sys.stderr)
            return 1
    else:
        # No file sink configured: fall back to this process's in-memory ring
        # (useful from tests and interactive sessions, not across processes).
        events = get_default_event_log().events()
    print(render_waterfall(events, args.trace_id))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list-datasets").set_defaults(fn=_cmd_list_datasets)
    subparsers.add_parser("list-experiments").set_defaults(fn=_cmd_list_experiments)

    run_parser = subparsers.add_parser("run-experiment")
    run_parser.add_argument("name")
    run_parser.add_argument("--max-tasks", type=int, default=None)
    _add_engine_flags(run_parser)
    run_parser.set_defaults(fn=_cmd_run_experiment)

    demo_parser = subparsers.add_parser("demo")
    _add_engine_flags(demo_parser)
    _add_cluster_flags(demo_parser)
    demo_parser.set_defaults(fn=_cmd_demo)

    serve_parser = subparsers.add_parser("serve")
    serve_parser.add_argument("--model", default=None, help="simulated model profile")
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument(
        "--port", type=int, default=None, help="TCP port (default: stdin/stdout)"
    )
    serve_parser.add_argument("--batch-size", type=_positive_int, default=8)
    serve_parser.add_argument("--workers", type=_positive_int, default=8)
    serve_parser.add_argument("--cache-dir", default=None)
    serve_parser.add_argument(
        "--stats-port",
        type=int,
        default=None,
        help="HTTP side-channel port: GET / (JSON snapshot), /metrics, /healthz, "
        "/readyz, /doctor",
    )
    serve_parser.add_argument(
        "--max-inflight",
        type=_positive_int,
        default=None,
        help="admission control: max requests executing at once",
    )
    serve_parser.add_argument(
        "--max-queue-depth",
        type=_positive_int,
        default=None,
        help="admission control: max requests waiting beyond --max-inflight "
        "(excess is shed with an `overloaded` error)",
    )
    serve_parser.add_argument(
        "--events-file",
        default=None,
        help="append structured span/shed/death events to this JSONL file "
        "(subprocess cluster workers inherit it via REPRO_EVENTS_FILE)",
    )
    serve_parser.add_argument(
        "--tenant",
        action="append",
        dest="tenants",
        default=None,
        metavar="NAME[,weight=W][,rate=R][,burst=B][,max_inflight=M]",
        help="register a tenant inline (repeatable); overrides same-named "
        "--tenants-file entries",
    )
    serve_parser.add_argument(
        "--tenants-file",
        default=None,
        help="JSON file of tenant configs: "
        '{"name": {"weight": ..., "rate": ..., "burst": ..., '
        '"max_inflight": ...}, ...}',
    )
    serve_parser.add_argument(
        "--slo",
        action="append",
        dest="slos",
        default=None,
        metavar="NAME[,kind=latency|error_rate][,threshold=S][,percentile=P]"
        "[,budget=F][,burn_rate=X][,severity=page|ticket][,tenant=T]"
        "[,metric=M][,total=M][,windows=10s:1m]",
        help="declare a service-level objective inline (repeatable); "
        "overrides same-named --slos-file entries",
    )
    serve_parser.add_argument(
        "--slos-file",
        default=None,
        help="JSON file of SLO specs: "
        '{"name": {"kind": ..., "threshold": ..., "tenant": ...}, ...}',
    )
    _add_cluster_flags(serve_parser)
    serve_parser.set_defaults(fn=_cmd_serve)

    stats_parser = subparsers.add_parser("stats")
    stats_parser.add_argument("--host", default="127.0.0.1")
    stats_parser.add_argument(
        "--port", type=int, default=8765, help="main serving port (line protocol)"
    )
    stats_parser.add_argument(
        "--stats-port",
        type=int,
        default=None,
        help="read the serve --stats-port side channel instead of the main port",
    )
    stats_parser.add_argument(
        "--prefix",
        default="",
        help="restrict metrics to this dotted name prefix (main-port mode only)",
    )
    stats_parser.add_argument("--timeout", type=float, default=10.0)
    stats_parser.add_argument(
        "--format",
        choices=("json", "prom"),
        default="json",
        help="output format: pretty JSON or Prometheus text exposition",
    )
    stats_parser.add_argument(
        "--reset",
        action="store_true",
        help="zero the service's metrics after taking the snapshot "
        "(main-port mode only)",
    )
    stats_parser.add_argument(
        "--tenant",
        default=None,
        help="narrow the snapshot to one tenant's metrics and state "
        "(main-port mode only)",
    )
    stats_parser.set_defaults(fn=_cmd_stats)

    top_parser = subparsers.add_parser("top")
    top_parser.add_argument("--host", default="127.0.0.1")
    top_parser.add_argument(
        "--port", type=int, default=8765, help="main serving port (line protocol)"
    )
    top_parser.add_argument(
        "--stats-port",
        type=int,
        default=None,
        help="read the serve --stats-port side channel instead of the main port",
    )
    top_parser.add_argument("--timeout", type=float, default=10.0)
    top_parser.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between refreshes",
    )
    top_parser.add_argument(
        "--window",
        default="10s",
        help="rolling window to display (10s, 1m, 5m)",
    )
    top_parser.add_argument(
        "--once",
        action="store_true",
        help="print one frame and exit (scripts, CI)",
    )
    top_parser.set_defaults(fn=_cmd_top)

    doctor_parser = subparsers.add_parser("doctor")
    doctor_parser.add_argument("--host", default="127.0.0.1")
    doctor_parser.add_argument(
        "--stats-port",
        type=int,
        default=None,
        help="serve --stats-port side channel to pull the bundle from (required)",
    )
    doctor_parser.add_argument("--timeout", type=float, default=10.0)
    doctor_parser.add_argument(
        "--output",
        default="repro-doctor.json",
        help="bundle destination file, or '-' for stdout",
    )
    doctor_parser.set_defaults(fn=_cmd_doctor)

    trace_parser = subparsers.add_parser("trace")
    trace_parser.add_argument("trace_id", help="trace id to reconstruct")
    trace_parser.add_argument(
        "--events",
        default=None,
        help="event-log JSONL file (default: $REPRO_EVENTS_FILE, else the "
        "in-process ring buffer)",
    )
    trace_parser.set_defaults(fn=_cmd_trace)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
