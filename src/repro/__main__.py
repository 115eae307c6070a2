"""Interactive SQL shell and observability CLI:  python -m repro

Without arguments, a minimal REPL over :class:`repro.Database` for
exploring the engine and the paper's optimizations.  Dot-commands:

  .help                     this text
  .profile [name]           show / set the optimizer profile
  .explain <sql>            optimized plan (physical operator tree)
  .explain! <sql>           unoptimized (bound) logical plan
  .analyze <sql>            EXPLAIN ANALYZE (actual rows and timings)
  .trace <sql>              optimize under tracing; print the rewrite trace
  .spans <sql>              run under span tracing; print the span tree
  .stats <sql>              plan statistics (the Fig. 3-style counters)
  .metrics                  engine metrics snapshot
  .doctor                   plan-feedback report (misestimates, memory,
                            regressed shapes)
  .slow [threshold_ms]      show / configure the slow-query log
  .verify <sql>             §7.3 declared-cardinality verification
  .tables / .views          catalog listing
  .demo                     load a small demo schema
  .quit

Subcommands (run against the built-in demo schema):

  python -m repro explain [--analyze] [--profile NAME] [--no-optimize] SQL
  python -m repro trace   [--profile NAME] [--json] SQL
  python -m repro metrics [--profile NAME] [--format table|prometheus|json] [SQL ...]
  python -m repro doctor  [--top N] [--profile NAME] [SQL ...]
  python -m repro serve-metrics [--port N] [--profile NAME]
  python -m repro serve [--port N] [--max-concurrent N] [--max-queue N]
                        [--rate QPS] [--timeout SECONDS] [--profile NAME]
                        [--plan-cache-size N]
  python -m repro chaos [--seed N] [--ops N] [--fsync POLICY] [--wal-dir DIR]
                        [--batch-size N] [--threads N] [--rounds N]
  python -m repro fuzz  [--runs N] [--seed N] [--time-budget SECONDS]
                        [--corpus-dir DIR] [--profile NAME] [--no-reduce]
  python -m repro replay CAPTURE.jsonl [--check-digests] [--profile NAME]
                        [--batch-size N] [--threshold PCT]
"""

from __future__ import annotations

import sys

from . import Database
from .errors import ReproError


def format_result(result, max_rows: int = 50) -> str:
    if not result.column_names:
        return "(no columns)"
    rows = result.rows[:max_rows]
    headers = result.column_names
    widths = [
        max(len(h), *(len(str(r[i])) for r in rows)) if rows else len(h)
        for i, h in enumerate(headers)
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(str(v).ljust(w) for v, w in zip(row, widths)))
    if len(result.rows) > max_rows:
        lines.append(f"... ({len(result.rows)} rows total)")
    else:
        lines.append(f"({len(result.rows)} row(s))")
    return "\n".join(lines)


DEMO_SQL = [
    "create table customer (c_id int primary key, c_name varchar(30), c_tier int)",
    "create table orders (o_id int primary key, o_cust int not null, "
    "o_total decimal(12,2), o_status varchar(1) not null)",
    "insert into customer values (1,'ACME',1),(2,'Globex',2),(3,'Initech',1)",
    "insert into orders values (10,1,100.00,'N'),(11,1,250.50,'P'),"
    "(12,2,75.25,'N'),(13,3,990.00,'P')",
    "create view orderview as select o.o_id, o.o_total, o.o_status, c.c_name "
    "from orders o left outer many to one join customer c on o.o_cust = c.c_id",
]


def run_command(db: Database, line: str) -> bool:
    """Handle one input line; returns False to exit."""
    stripped = line.strip()
    if not stripped:
        return True
    if stripped in (".quit", ".exit", "\\q"):
        return False
    try:
        if stripped == ".help":
            print(__doc__)
        elif stripped.startswith(".profile"):
            parts = stripped.split(None, 1)
            if len(parts) == 2:
                db.set_profile(parts[1])
            print(f"optimizer profile: {db.profile}")
        elif stripped.startswith(".explain!"):
            print(db.explain(stripped[len(".explain!"):].strip(), optimize=False))
        elif stripped.startswith(".explain"):
            print(db.explain(stripped[len(".explain"):].strip()))
        elif stripped.startswith(".analyze"):
            print(db.explain(stripped[len(".analyze"):].strip(), analyze=True))
        elif stripped.startswith(".trace"):
            sql = stripped[len(".trace"):].strip()
            was_tracing = db.tracing
            db.tracing = True
            try:
                db.query(sql)
            finally:
                db.tracing = was_tracing
            assert db.last_trace is not None
            print(db.last_trace.report())
        elif stripped.startswith(".spans"):
            sql = stripped[len(".spans"):].strip()
            was_tracing = db.tracing
            db.tracing = True
            try:
                db.query(sql)
            finally:
                db.tracing = was_tracing
            from .observability import render_span_tree

            root = db.spans.last_root
            assert root is not None
            print(render_span_tree(root))
        elif stripped == ".metrics":
            print(db.metrics.render())
        elif stripped == ".doctor":
            from .observability import doctor_report

            print(doctor_report(db))
        elif stripped.startswith(".slow"):
            argument = stripped[len(".slow"):].strip()
            if argument:
                threshold_ms = float(argument)
                db.slow_queries.configure(
                    threshold_s=threshold_ms / 1e3 if threshold_ms >= 0 else None
                )
                print(f"slow-query threshold: {threshold_ms:g}ms"
                      if threshold_ms >= 0 else "slow-query log disabled")
            else:
                print(db.slow_queries.render())
        elif stripped.startswith(".stats"):
            sql = stripped[len(".stats"):].strip()
            print("bound    :", db.plan_statistics(sql, optimize=False).summary())
            print("optimized:", db.plan_statistics(sql).summary())
        elif stripped.startswith(".verify"):
            from .tools import verify_join_cardinalities

            print(verify_join_cardinalities(db, stripped[len(".verify"):].strip()).summary())
        elif stripped == ".tables":
            for table in db.catalog.tables():
                print(f"  {table.schema.name}  ({len(table)} row versions)")
        elif stripped == ".views":
            for view in db.catalog.views():
                print(f"  {view.name}")
        elif stripped == ".demo":
            for sql in DEMO_SQL:
                db.execute(sql)
            print("demo schema loaded: customer, orders, orderview")
        elif stripped.startswith("."):
            print(f"unknown command {stripped.split()[0]!r}; try .help")
        else:
            outcome = db.execute(stripped.rstrip(";"))
            if outcome is None:
                print("ok")
            elif isinstance(outcome, int):
                print(f"{outcome} row(s) affected")
            else:
                print(format_result(outcome))
    except ReproError as error:
        print(f"error: {error}")
    return True


DEMO_QUERIES = [
    "select o_id, c_name from orderview where o_status = 'N'",
    "select o_id, o_total from orderview limit 2",
    "select count(*) from orderview",
]


def _demo_db(profile: str | None, plan_cache_size: int | None = None) -> Database:
    db = (Database() if plan_cache_size is None
          else Database(plan_cache_size=plan_cache_size))
    if profile:
        db.set_profile(profile)
    for sql in DEMO_SQL:
        db.execute(sql)
    return db


def run_subcommand(argv: list[str]) -> int:
    """The non-interactive observability surface.

    Runs against the demo schema (customer, orders, orderview) so the
    commands work out of the box; real applications use the library API.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="HTAP engine observability CLI (runs on the demo schema)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_explain = sub.add_parser("explain", help="print a query plan")
    p_explain.add_argument("sql", help="SELECT statement over the demo schema")
    p_explain.add_argument("--analyze", action="store_true",
                           help="execute and annotate actual rows/timings")
    p_explain.add_argument("--profile", default=None,
                           help="optimizer capability profile (default: hana)")
    p_explain.add_argument("--no-optimize", action="store_true",
                           help="show the bound plan without optimization")

    p_trace = sub.add_parser("trace", help="print the rewrite trace of a query")
    p_trace.add_argument("sql")
    p_trace.add_argument("--profile", default=None)
    p_trace.add_argument("--json", action="store_true",
                         help="dump the trace (with the span tree) as JSON")

    p_metrics = sub.add_parser(
        "metrics", help="run queries (default: a demo workload), dump metrics"
    )
    p_metrics.add_argument("sql", nargs="*",
                           help="queries to run before the snapshot")
    p_metrics.add_argument("--profile", default=None)
    p_metrics.add_argument("--format", default="table",
                           choices=("table", "prometheus", "json"),
                           help="output format (default: table)")

    p_doctor = sub.add_parser(
        "doctor",
        help="run a workload (default: demo queries incl. a deliberately "
             "misestimated one), then print the plan-feedback report",
    )
    p_doctor.add_argument("sql", nargs="*",
                          help="queries to run before the report")
    p_doctor.add_argument("--top", type=int, default=5,
                          help="entries per section (default: 5)")
    p_doctor.add_argument("--profile", default=None)

    p_serve = sub.add_parser(
        "serve-metrics",
        help="run the demo workload, then serve /metrics, /trace, /slow over HTTP",
    )
    p_serve.add_argument("--port", type=int, default=9464,
                         help="listen port (default: 9464; 0 picks a free port)")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--profile", default=None)

    p_gateway = sub.add_parser(
        "serve",
        help="serve the demo schema over the HTTP JSON gateway "
             "(POST /v1/query, /v1/session; GET /stats, /healthz)",
    )
    p_gateway.add_argument("--port", type=int, default=8080,
                           help="listen port (default: 8080; 0 picks a free port)")
    p_gateway.add_argument("--host", default="127.0.0.1")
    p_gateway.add_argument("--profile", default=None)
    p_gateway.add_argument("--max-concurrent", type=int, default=8,
                           help="statements running at once (default: 8)")
    p_gateway.add_argument("--max-queue", type=int, default=32,
                           help="admission queue bound; beyond it requests "
                                "are shed with 429 (default: 32)")
    p_gateway.add_argument("--rate", type=float, default=None, metavar="QPS",
                           help="per-tenant token-bucket rate limit "
                                "(default: unlimited)")
    p_gateway.add_argument("--timeout", type=float, default=None,
                           metavar="SECONDS",
                           help="default statement timeout, queue wait "
                                "included (default: none)")
    p_gateway.add_argument("--plan-cache-size", type=int, default=None,
                           metavar="N",
                           help="parameterized plan-cache capacity shared "
                                "by all tenants (default: 128; 0 disables)")

    p_chaos = sub.add_parser(
        "chaos",
        help="kill-and-recover chaos campaign against the durable WAL",
    )
    p_chaos.add_argument("--seed", type=int, default=0,
                         help="PRNG seed (fixed seed = reproducible campaign)")
    p_chaos.add_argument("--ops", type=int, default=60,
                         help="operations to attempt (default: 60)")
    p_chaos.add_argument("--fsync", default="commit",
                         choices=("always", "commit", "never"),
                         help="WAL fsync policy (default: commit)")
    p_chaos.add_argument("--wal-dir", default=None,
                         help="WAL directory (default: a fresh temp dir)")
    p_chaos.add_argument("--batch-size", type=int, default=None,
                         help="streaming-executor batch size for every "
                              "database the campaign opens (default: 1024)")
    p_chaos.add_argument("--threads", type=int, default=0, metavar="N",
                         help="run the concurrency variant with N writer "
                              "threads through the serving layer "
                              "(0 = single-threaded campaign; default)")
    p_chaos.add_argument("--rounds", type=int, default=3,
                         help="kill-and-recover rounds for --threads "
                              "(default: 3)")
    p_chaos.add_argument("--quiet", action="store_true",
                         help="print only the final summary line")

    p_fuzz = sub.add_parser(
        "fuzz",
        help="randomized differential/metamorphic testing of the optimizer "
             "and the streaming executor",
    )
    p_fuzz.add_argument("--runs", type=int, default=200,
                        help="cases to generate and check (default: 200)")
    p_fuzz.add_argument("--seed", type=int, default=0,
                        help="campaign seed; (seed, runs, profile) fully "
                             "determines the workload")
    p_fuzz.add_argument("--time-budget", type=float, default=None,
                        metavar="SECONDS",
                        help="stop generating new cases after this many seconds")
    p_fuzz.add_argument("--corpus-dir", default=None,
                        help="write minimized repros for any discrepancy "
                             "here as replayable .json files")
    p_fuzz.add_argument("--profile", default="hana",
                        help="optimizer capability profile (default: hana)")
    p_fuzz.add_argument("--no-reduce", action="store_true",
                        help="keep failing cases as generated (skip reduction)")
    p_fuzz.add_argument("--metrics-format", default=None,
                        choices=("table", "prometheus", "json"),
                        help="also dump the fuzz.* campaign metrics")
    p_fuzz.add_argument("--quiet", action="store_true",
                        help="print only the final summary line")

    p_replay = sub.add_parser(
        "replay",
        help="re-execute a captured workload (Database(capture_dir=...)), "
             "verify result digests, report per-shape latency deltas",
    )
    p_replay.add_argument("path", help="capture file (JSONL)")
    p_replay.add_argument("--check-digests", dest="check_digests",
                          action="store_true", default=True,
                          help="verify result digests (default)")
    p_replay.add_argument("--no-check-digests", dest="check_digests",
                          action="store_false",
                          help="skip digest verification (timing-only replay)")
    p_replay.add_argument("--profile", default=None,
                          help="optimizer profile (default: the capture header's)")
    p_replay.add_argument("--batch-size", type=int, default=None,
                          help="streaming-executor batch size for the replay")
    p_replay.add_argument("--threshold", type=float, default=None,
                          help="latency regression threshold in percent "
                               "(default: 50)")

    options = parser.parse_args(argv)
    if options.command == "chaos":
        return _run_chaos(options)
    if options.command == "fuzz":
        return _run_fuzz(options)
    if options.command == "replay":
        return _run_replay(options)
    try:
        db = _demo_db(options.profile,
                      getattr(options, "plan_cache_size", None))
        if options.command == "explain":
            print(db.explain(options.sql, optimize=not options.no_optimize,
                             analyze=options.analyze))
        elif options.command == "trace":
            db.tracing = True
            db.query(options.sql)
            assert db.last_trace is not None
            if options.json:
                import json

                print(json.dumps(db.last_trace.to_dict(spans=True), indent=1,
                                 default=str))
            else:
                print(db.last_trace.report())
        elif options.command == "serve-metrics":
            return _run_serve_metrics(db, options)
        elif options.command == "serve":
            return _run_serve(db, options)
        elif options.command == "doctor":
            return _run_doctor(db, options)
        else:
            for sql in options.sql or DEMO_QUERIES:
                db.query(sql)
            _print_metrics(db, options.format)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0


#: A query whose range predicate the System-R heuristics badly overtrim
#: (two range conjuncts -> 1/9 selectivity, but every demo order matches),
#: so the doctor report always has a misestimate to show.
DOCTOR_MISESTIMATED_SQL = (
    "select o_id from orderview where o_total > -1 and o_total < 1000000"
)


def _run_doctor(db: Database, options) -> int:
    from .observability import doctor_report

    workload = list(options.sql) or DEMO_QUERIES + [DOCTOR_MISESTIMATED_SQL]
    # Run each query a few times so the per-shape windows have samples.
    for _ in range(3):
        for sql in workload:
            db.query(sql)
    print(doctor_report(db, top=options.top))
    return 0


def _print_metrics(db: Database, fmt: str) -> None:
    if fmt == "prometheus":
        from .observability import render_prometheus

        print(render_prometheus(db.metrics), end="")
    elif fmt == "json":
        from .observability import render_metrics_json

        print(render_metrics_json(db.metrics))
    else:
        print(db.metrics.render())


def _run_serve_metrics(db: Database, options) -> int:
    from .observability import MetricsServer

    db.tracing = True
    db.slow_queries.configure(threshold_s=0.0)
    for sql in DEMO_QUERIES:
        db.query(sql)
    server = MetricsServer(db, port=options.port, host=options.host)
    print(f"serving metrics on {server.url}/metrics "
          "(also /metrics.json, /trace, /slow, /healthz; Ctrl-C to stop)",
          flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
    return 0


def _run_serve(db: Database, options) -> int:
    import signal

    from .serving import GatewayServer

    server = GatewayServer(
        db,
        port=options.port,
        host=options.host,
        max_concurrent=options.max_concurrent,
        max_queue=options.max_queue,
        rate_per_s=options.rate,
        default_timeout_s=options.timeout,
    )
    server.start()

    # SIGTERM drains too: backgrounded shells ignore SIGINT, so `kill`
    # is how supervisors and CI stop the gateway.
    def _terminate(signum, frame):
        raise KeyboardInterrupt

    try:
        signal.signal(signal.SIGTERM, _terminate)
    except ValueError:  # not the main thread (embedded use)
        pass
    print(f"serving SQL on {server.url}/v1/query "
          "(also /v1/session, /stats, /healthz; Ctrl-C to drain and stop)",
          flush=True)
    try:
        while server._thread is not None and server._thread.is_alive():
            server._thread.join(timeout=1)
    except KeyboardInterrupt:
        pass
    finally:
        drained = server.close()
        print("gateway stopped (drained)" if drained
              else "gateway stopped (drain timed out)", flush=True)
    return 0


def _run_chaos(options) -> int:
    import tempfile

    from .faults import run_chaos, run_concurrency_chaos

    wal_dir = options.wal_dir or tempfile.mkdtemp(prefix="repro-chaos-")
    log = None if options.quiet else print
    try:
        if options.threads > 0:
            report = run_concurrency_chaos(
                wal_dir,
                seed=options.seed,
                rounds=options.rounds,
                writers=options.threads,
                fsync=options.fsync,
                log=log,
            )
        else:
            report = run_chaos(
                wal_dir,
                seed=options.seed,
                ops=options.ops,
                fsync=options.fsync,
                batch_size=options.batch_size,
                log=log,
            )
    except AssertionError as error:
        print(f"chaos: INVARIANT VIOLATED: {error}", file=sys.stderr)
        return 1
    if options.quiet:
        print(report.summary())
    return 0


def _run_fuzz(options) -> int:
    from .errors import ReproError as _ReproError
    from .fuzz import run_fuzz
    from .observability import MetricsRegistry

    metrics = MetricsRegistry()
    try:
        report = run_fuzz(
            seed=options.seed,
            runs=options.runs,
            time_budget_s=options.time_budget,
            profile=options.profile,
            corpus_dir=options.corpus_dir,
            metrics=metrics,
            reduce=not options.no_reduce,
            log=None if options.quiet else print,
        )
    except _ReproError as error:
        print(f"fuzz: generator error: {error}", file=sys.stderr)
        return 2
    print(report.summary())
    for bug in report.bugs:
        print(f"fuzz: DISCREPANCY {bug.summary()}", file=sys.stderr)
    if options.metrics_format == "prometheus":
        from .observability import render_prometheus

        print(render_prometheus(metrics), end="")
    elif options.metrics_format == "json":
        from .observability import render_metrics_json

        print(render_metrics_json(metrics))
    elif options.metrics_format == "table":
        print(metrics.render())
    return 1 if report.bugs else 0


def _run_replay(options) -> int:
    from .capture import replay_workload
    from .capture.replay import REPLAY_THRESHOLD

    threshold = (options.threshold / 100.0 if options.threshold is not None
                 else REPLAY_THRESHOLD)
    try:
        report = replay_workload(
            options.path,
            check_digests=options.check_digests,
            profile=options.profile,
            batch_size=options.batch_size,
            threshold=threshold,
        )
    except (OSError, ReproError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(report.render())
    return 0 if report.ok else 1


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv:
        return run_subcommand(argv)
    print("repro — HTAP engine with the VDM optimizer "
          "(.help for commands, .demo for sample data)")
    db = Database()
    try:
        while True:
            try:
                line = input("repro> ")
            except EOFError:
                break
            if not run_command(db, line):
                break
    except KeyboardInterrupt:
        pass
    print("bye")
    return 0


if __name__ == "__main__":
    sys.exit(main())
