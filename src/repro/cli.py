"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``query``
    Load an edge-list file (or a named synthetic dataset) and run a
    query program.
``explain``
    Show the compiled plan (GHD, widths, attribute orders) for a query.
``datasets``
    List the built-in Table 3 analog datasets with their profiles.
``top``
    Live monitor over a telemetry query log (``--telemetry DIR``):
    QPS, latency quantiles, plan-cache tiers, worker lanes.
``fuzz``
    Differential query fuzzer (forwards to ``python -m repro.fuzz``):
    random datalog programs cross-checked over every execution path.
``serve``
    Long-lived query daemon over a newline-delimited-JSON socket
    protocol: warm plan/trie caches, admission control with
    backpressure, a version-stamped result cache, graceful drain
    (``docs/serving.md``).

Examples
--------
::

    python -m repro datasets
    python -m repro query --dataset patents \
        "T(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z); w=<<COUNT(*)>>."
    python -m repro explain --dataset higgs \
        "B(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z),Edge(x,p),\
Edge(p,q),Edge(q,r),Edge(p,r); w=<<COUNT(*)>>."
"""

import argparse
import sys
import time

from .ablation import LEVELS
from .api import Database
from .errors import EmptyHeadedError, UnknownRelationError
from .graphs.datasets import DATASETS, dataset_profile, load_dataset, \
    read_edgelist


def _build_database(args):
    """Construct a :class:`Database` from the shared loader flags
    (no data loaded — ``repro serve`` can start with an empty catalog
    and let clients populate it over the wire)."""
    overrides = {}
    if getattr(args, "execution_mode", None):
        # Only override when the flag is given, so the
        # REPRO_EXECUTION_MODE environment default still applies.
        overrides["execution_mode"] = args.execution_mode
    if getattr(args, "no_incremental_views", False):
        overrides["incremental_views"] = False
    return Database(ordering=args.ordering,
                    layout_level=args.layout_level,
                    use_ghd=not args.no_ghd,
                    simd=not args.no_simd,
                    **overrides)


def _load_database(args):
    db = _build_database(args)
    if args.dataset:
        edges = load_dataset(args.dataset)
    elif args.edges:
        edges = read_edgelist(args.edges)
    else:
        raise SystemExit("provide --dataset <name> or --edges <file>")
    db.load_graph("Edge", edges.tolist(), prune=args.prune,
                  undirected=not args.directed)
    return db


def _add_loader_flags(parser):
    parser.add_argument("--dataset", choices=sorted(DATASETS),
                        help="built-in Table 3 analog dataset")
    parser.add_argument("--edges", help="whitespace edge-list file")
    parser.add_argument("--prune", action="store_true",
                        help="symmetric filtering (src < dst)")
    parser.add_argument("--directed", action="store_true",
                        help="do not mirror edges")
    parser.add_argument("--ordering", default="degree",
                        help="node ordering scheme (default: degree)")
    parser.add_argument("--layout-level", default="set", choices=LEVELS,
                        help="layout optimizer granularity")
    parser.add_argument("--no-ghd", action="store_true",
                        help="force single-node GHD plans")
    parser.add_argument("--no-simd", action="store_true",
                        help="scalar intersection kernels")
    parser.add_argument("--execution-mode", default=None,
                        choices=["interpreted", "compiled"],
                        help="bag execution: block kernels with plan "
                             "caching (compiled, the default) or the "
                             "generic interpreter, the oracle and home "
                             "of the layout/SIMD ablations (also: "
                             "REPRO_EXECUTION_MODE)")
    parser.add_argument("--no-incremental-views", action="store_true",
                        help="refresh stale materialized views by "
                             "re-running their defining program "
                             "instead of semi-naive delta evaluation")


def cmd_query(args):
    """``repro query``: run a program and print its result."""
    db = _load_database(args)
    if args.trace:
        db.enable_tracing(path=args.trace)
    if args.metrics:
        db.enable_metrics()
    if args.telemetry:
        db.enable_telemetry(directory=args.telemetry,
                            slow_query_seconds=args.slow_query)
    if args.explain_logical:
        print(db.explain_logical(args.query))
        return 0
    if args.explain_analyze:
        report = db.explain_analyze(args.query)
        print(report)
        if args.metrics:
            print(db.metrics.describe(), file=sys.stderr)
        if args.trace:
            print("trace written to %s" % args.trace, file=sys.stderr)
        return 0
    start = time.perf_counter()
    result = db.query(args.query)
    elapsed = time.perf_counter() - start
    if result.relation.is_scalar():
        print(result.scalar)
    else:
        limit = args.limit
        for row_index, row in enumerate(result.tuples()):
            if row_index >= limit:
                print("... (%d more)" % (result.count - limit))
                break
            if result.annotations is not None:
                print(row, result.annotations[row_index])
            else:
                print(row)
    print("-- %d tuple(s), %.3fs, %d simulated ops"
          % (result.count, elapsed, db.counter.total_ops),
          file=sys.stderr)
    if db.last_stats is not None:
        print(db.last_stats.describe(), file=sys.stderr)
    if args.metrics:
        print(db.metrics.describe(), file=sys.stderr)
    if args.trace:
        print("trace written to %s" % args.trace, file=sys.stderr)
    if args.telemetry:
        db.disable_telemetry()  # flush query log, dump, metrics.prom
        print("telemetry written to %s" % args.telemetry,
              file=sys.stderr)
    return 0


def cmd_top(args):
    """``repro top``: live monitor over a telemetry query log."""
    import os
    from .obs.telemetry import read_query_log, render_top
    log_path = args.log
    if os.path.isdir(log_path):
        log_path = os.path.join(log_path, "queries.jsonl")
    while True:
        records = read_query_log(log_path, limit=args.limit)
        frame = render_top(records, window=args.window)
        if args.once:
            print(frame)
            return 0
        # Clear-screen redraw, plain enough for any terminal.
        print("\x1b[2J\x1b[H" + frame, flush=True)
        try:
            time.sleep(args.interval)
        except KeyboardInterrupt:
            return 0


def cmd_explain(args):
    """``repro explain``: print the compiled plan."""
    db = _load_database(args)
    try:
        print(db.explain(args.query))
    except UnknownRelationError as error:
        from .query.parser import parse
        if error.name not in {rule.head_name
                              for rule in parse(args.query).rules}:
            raise
        return _fail("%s; intermediate heads are not computed by "
                     "`explain`; use `query --explain-analyze`" % error)
    return 0


def cmd_datasets(args):
    """``repro datasets``: list the built-in dataset profiles."""
    del args
    header = "%-12s %7s %9s %6s  %s" % ("name", "nodes", "edges",
                                        "skew", "description")
    print(header)
    print("-" * len(header))
    for name in sorted(DATASETS):
        profile = dataset_profile(name)
        print("%-12s %7d %9d %6.2f  %s"
              % (name, profile["nodes"], profile["undirected_edges"],
                 profile["density_skew"], profile["description"]))
    return 0


def cmd_serve(args):
    """``repro serve``: run the long-lived query daemon."""
    from .serve import QueryService
    # A daemon pays for its imports before it announces its port, never
    # inside a request: this is what a mutation would otherwise load on
    # first use.
    from .storage import delta  # noqa: F401
    if args.dataset or args.edges:
        db = _load_database(args)
    else:
        db = _build_database(args)
    if args.telemetry:
        db.enable_telemetry(directory=args.telemetry,
                            slow_query_seconds=args.slow_query)
    elif db.telemetry is None:
        # Memory-only hub: the status op and OpenMetrics still work,
        # nothing hits disk.
        db.enable_telemetry(directory=None,
                            slow_query_seconds=args.slow_query)
    metrics_server = None
    if args.metrics_port is not None:
        metrics_server = db.serve_metrics(host=args.host,
                                          port=args.metrics_port)
        print("openmetrics on %s:%d"
              % metrics_server.server_address[:2], file=sys.stderr)
    service = QueryService(
        db, host=args.host, port=args.port,
        max_inflight=args.max_inflight,
        default_timeout=args.timeout,
        drain_timeout=args.drain_timeout,
        cache_capacity=args.cache_capacity,
        debug=args.debug, announce=True)
    try:
        service.serve_forever()
    finally:
        if metrics_server is not None:
            metrics_server.shutdown()
    return 0


def cmd_fuzz(args):
    """``repro fuzz``: delegate to the differential fuzzer CLI."""
    from .fuzz.__main__ import main as fuzz_main
    return fuzz_main(args.fuzz_args)


def build_parser():
    """Construct the argparse CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="EmptyHeaded reproduction: a relational engine for "
                    "graph processing")
    sub = parser.add_subparsers(dest="command", required=True)

    query = sub.add_parser("query", help="run a query program")
    _add_loader_flags(query)
    query.add_argument("query", help="datalog-like program text")
    query.add_argument("--limit", type=int, default=20,
                       help="max tuples to print")
    query.add_argument("--trace", metavar="FILE",
                       help="write a Chrome trace-event JSON of the "
                            "query lifecycle (chrome://tracing)")
    query.add_argument("--metrics", action="store_true",
                       help="print the metrics registry to stderr")
    query.add_argument("--telemetry", metavar="DIR",
                       help="continuous telemetry directory: rotating "
                            "JSONL query log, flight-recorder dumps, "
                            "and an OpenMetrics snapshot (see 'repro "
                            "top')")
    query.add_argument("--slow-query", type=float, metavar="SECONDS",
                       help="slow-query promotion budget: a query "
                            "slower than this re-runs traced and the "
                            "trace is archived (needs --telemetry)")
    query.add_argument("--explain-analyze", action="store_true",
                       help="print the GHD plan annotated with actual "
                            "timings and cost-model error instead of "
                            "the result tuples")
    query.add_argument("--explain-logical", action="store_true",
                       help="print the optimizer's pass-by-pass logical "
                            "plan (rewrites, GHD choice, pushdown, "
                            "attribute order) without executing")
    query.set_defaults(func=cmd_query)

    explain = sub.add_parser("explain", help="show the compiled plan")
    _add_loader_flags(explain)
    explain.add_argument("query")
    explain.set_defaults(func=cmd_explain)

    datasets = sub.add_parser("datasets",
                              help="list built-in synthetic datasets")
    datasets.set_defaults(func=cmd_datasets)

    top = sub.add_parser("top",
                         help="live monitor over a telemetry query log "
                              "(qps, latency quantiles, cache tiers, "
                              "lanes)")
    top.add_argument("log", help="telemetry directory or queries.jsonl "
                                 "path")
    top.add_argument("--interval", type=float, default=2.0,
                     help="refresh period in seconds (default: 2)")
    top.add_argument("--window", type=float, default=60.0,
                     help="trailing stats window in seconds "
                          "(default: 60)")
    top.add_argument("--limit", type=int, default=10000,
                     help="max log records to load per refresh")
    top.add_argument("--once", action="store_true",
                     help="render one frame and exit (no clear-screen)")
    top.set_defaults(func=cmd_top)

    serve = sub.add_parser(
        "serve",
        help="long-lived query daemon: warm caches, admission control, "
             "result caching, graceful drain (see docs/serving.md)")
    _add_loader_flags(serve)
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port; 0 picks a free one and prints it "
                            "(default: 0)")
    serve.add_argument("--max-inflight", type=int, default=32,
                       help="admission slots before requests are "
                            "rejected with retry_after (default: 32)")
    serve.add_argument("--timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="default per-query timeout (requests may "
                            "carry their own; default: none)")
    serve.add_argument("--drain-timeout", type=float, default=5.0,
                       metavar="SECONDS",
                       help="graceful-shutdown budget for in-flight "
                            "requests (default: 5)")
    serve.add_argument("--cache-capacity", type=int, default=256,
                       help="result-cache entries (default: 256)")
    serve.add_argument("--telemetry", metavar="DIR",
                       help="telemetry directory (query log, flight "
                            "recorder, OpenMetrics); omitted = "
                            "memory-only hub")
    serve.add_argument("--slow-query", type=float, metavar="SECONDS",
                       help="slow-query promotion budget")
    serve.add_argument("--metrics-port", type=int, default=None,
                       help="also serve GET /metrics (OpenMetrics) on "
                            "this port")
    serve.add_argument("--debug", action="store_true",
                       help="honor per-request fault-injection fields "
                            "(debug_sleep); tests only")
    serve.set_defaults(func=cmd_serve)

    fuzz = sub.add_parser("fuzz", add_help=False,
                          help="differential query fuzzer "
                               "(python -m repro.fuzz)")
    fuzz.add_argument("fuzz_args", nargs=argparse.REMAINDER,
                      help="arguments forwarded to repro.fuzz")
    fuzz.set_defaults(func=cmd_fuzz)
    return parser


def _fail(message):
    """Answer a user's mistake (syntax, unknown relation, unplannable
    rule) in one line on stderr, not with a traceback; exit code 2."""
    print("repro: error: %s" % message, file=sys.stderr)
    return 2


def main(argv=None):
    """CLI entry point; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "fuzz":
        # argparse.REMAINDER refuses leading options; hand the tail to
        # the fuzzer's own parser untouched.
        from .fuzz.__main__ import main as fuzz_main
        return fuzz_main(argv[1:])
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except EmptyHeadedError as error:
        return _fail(error)


if __name__ == "__main__":
    raise SystemExit(main())
