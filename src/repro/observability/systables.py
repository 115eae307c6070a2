"""The ``sys.*`` schema: virtual tables over live engine state.

Installed once per :class:`~repro.database.Database` by
:func:`install_sys_tables`.  Each table is a
:class:`repro.catalog.systables.SysTable` whose ``rows_fn`` closure reads
the owning database's instrumentation at scan-open time, so::

    select * from sys.query_log order by elapsed_ms desc limit 5
    select m.name, m.value from sys.metrics m where m.kind = 'counter'
    select q.query_id, o.operator, o.rows_out
      from sys.query_log q, sys.operator_stats o
     where q.query_id = o.query_id

parse, bind, optimize, and stream through the ordinary engine pipeline —
the database observing itself with its own query surface (§7's demand
that the optimizer be introspectable at catalog scale).

Tables:

``sys.query_log``       every completed statement: id, SQL, shape hash,
                        per-phase timings, rows, status, error
``sys.operator_stats``  per-operator actuals for every completed query
                        (populated unconditionally; spans stay opt-in)
``sys.plan_feedback``   per-operator est/actual/Q-error and peak bytes
``sys.query_shapes``    per-shape latency p50/p95, EWMA baseline, and
                        regression flag
``sys.metrics``         MetricsRegistry snapshot (one row per metric)
``sys.rewrite_fires``   optimizer rewrite case -> cumulative fire count
``sys.cache_entries``   cached views (SCV/DCV) and their staleness
``sys.wal_segments``    WAL segments (disk) or the in-memory log
``sys.active_spans``    flattened span tree of the current/last trace
``sys.fault_points``    fault-injection points with call/injection counts
``sys.sessions``        live serving sessions: tenant, state, counters
``sys.admission``       admission queue depth plus per-tenant shed /
                        rate-limit / breaker state
``sys.plan_cache``      parameterized plan-cache entries: shape, free /
                        fixed parameter split, hits, approximate bytes
"""

from __future__ import annotations

from .. import datatypes as dt
from ..catalog.schema import ColumnSchema, TableSchema
from ..catalog.systables import SysTable


def _schema(name: str, *columns: tuple[str, object]) -> TableSchema:
    return TableSchema(
        name, [ColumnSchema(cname, ctype, nullable=True) for cname, ctype in columns]
    )


def install_sys_tables(db) -> None:
    """Register the full ``sys.`` namespace on ``db``'s catalog."""
    register = db.catalog.register_system_table

    register(SysTable(
        _schema(
            "sys.query_log",
            ("query_id", dt.varchar(16)),
            ("sql", dt.varchar()),
            ("shape", dt.varchar(16)),
            ("status", dt.varchar(8)),
            ("error", dt.varchar()),
            ("started_at", dt.DOUBLE),
            ("elapsed_ms", dt.DOUBLE),
            ("parse_ms", dt.DOUBLE),
            ("bind_ms", dt.DOUBLE),
            ("optimize_ms", dt.DOUBLE),
            ("execute_ms", dt.DOUBLE),
            ("rows", dt.BIGINT),
            ("operators_before", dt.BIGINT),
            ("operators_after", dt.BIGINT),
            ("rewrite_fires", dt.BIGINT),
        ),
        lambda: [
            (
                e.query_id, e.sql, e.shape, e.status, e.error, e.started_at,
                e.elapsed_s * 1e3,
                None if e.parse_s is None else e.parse_s * 1e3,
                None if e.bind_s is None else e.bind_s * 1e3,
                None if e.optimize_s is None else e.optimize_s * 1e3,
                None if e.execute_s is None else e.execute_s * 1e3,
                e.rows, e.operators_before, e.operators_after,
                sum(e.rewrite_fires.values()),
            )
            for e in db.query_log.entries()
        ],
    ))

    # sys.operator_stats and sys.plan_feedback are two views over one
    # operator ring, populated unconditionally by the plan-feedback
    # collector (disable with Database(plan_feedback=False)): the executed
    # operators, and every operator.
    register(SysTable(
        _schema(
            "sys.operator_stats",
            ("query_id", dt.varchar(16)),
            ("operator", dt.varchar()),
            ("rows_out", dt.BIGINT),
            ("batches", dt.BIGINT),
            ("elapsed_ms", dt.DOUBLE),
            ("is_scan", dt.BOOLEAN),
            ("early_terminated", dt.BOOLEAN),
            ("kernel_calls", dt.BIGINT),
            ("kernel_ms", dt.DOUBLE),
            ("rows_selected", dt.BIGINT),
            ("dict_compares", dt.BIGINT),
            ("heap_evictions", dt.BIGINT),
        ),
        lambda: [
            (
                o.query_id, o.label, o.rows_out, o.chunks,
                o.elapsed_s * 1e3, o.is_scan, o.early_terminated,
                o.kernel_calls, o.kernel_s * 1e3, o.rows_selected,
                o.dict_compares, o.heap_evictions,
            )
            for o in db.query_log.operator_rows()
        ],
    ))

    register(SysTable(
        _schema(
            "sys.plan_feedback",
            ("query_id", dt.varchar(16)),
            ("op_index", dt.BIGINT),
            ("operator", dt.varchar()),
            ("kind", dt.varchar(24)),
            ("est_rows", dt.DOUBLE),
            ("actual_rows", dt.BIGINT),
            ("qerror", dt.DOUBLE),
            ("peak_bytes", dt.BIGINT),
            ("early_terminated", dt.BOOLEAN),
            ("never_executed", dt.BOOLEAN),
        ),
        lambda: [
            (
                f.query_id, f.op_index, f.label, f.kind, f.est_rows,
                f.rows_out, f.qerror, f.peak_bytes, f.early_terminated,
                f.never_executed,
            )
            for f in db.query_log.feedback_rows()
        ],
    ))

    def _shape_rows() -> list[tuple]:
        # Baselines are computed lazily: fold in any log entries appended
        # since the last scan, then snapshot.
        db.shape_baselines.sync(db.query_log)
        return db.shape_baselines.rows()

    register(SysTable(
        _schema(
            "sys.query_shapes",
            ("shape", dt.varchar(16)),
            ("example_sql", dt.varchar()),
            ("count", dt.BIGINT),
            ("p50_ms", dt.DOUBLE),
            ("p95_ms", dt.DOUBLE),
            ("baseline_ms", dt.DOUBLE),
            ("last_ms", dt.DOUBLE),
            ("regressed", dt.BOOLEAN),
        ),
        _shape_rows,
    ))

    register(SysTable(
        _schema(
            "sys.metrics",
            ("name", dt.varchar()),
            ("kind", dt.varchar(9)),
            ("value", dt.DOUBLE),
            ("count", dt.BIGINT),
            ("mean", dt.DOUBLE),
            ("p50", dt.DOUBLE),
            ("p95", dt.DOUBLE),
            ("max", dt.DOUBLE),
        ),
        lambda: _metric_rows(db.metrics),
    ))

    register(SysTable(
        _schema(
            "sys.rewrite_fires",
            ("rewrite_case", dt.varchar()),
            ("fires", dt.BIGINT),
        ),
        lambda: _rewrite_rows(db.metrics),
    ))

    register(SysTable(
        _schema(
            "sys.cache_entries",
            ("name", dt.varchar()),
            ("kind", dt.varchar(8)),
            ("query_sql", dt.varchar()),
            ("base_tables", dt.varchar()),
            ("refresh_count", dt.BIGINT),
            ("stale", dt.BOOLEAN),
        ),
        lambda: _cache_rows(db),
    ))

    register(SysTable(
        _schema(
            "sys.wal_segments",
            ("segment", dt.varchar()),
            ("bytes", dt.BIGINT),
            ("records", dt.BIGINT),
            ("durable", dt.BOOLEAN),
        ),
        lambda: [] if db.wal is None else db.wal.segment_info(),
    ))

    register(SysTable(
        _schema(
            "sys.active_spans",
            ("trace_id", dt.BIGINT),
            ("span_id", dt.BIGINT),
            ("parent_id", dt.BIGINT),
            ("name", dt.varchar()),
            ("query_id", dt.varchar(16)),
            ("duration_ms", dt.DOUBLE),
            ("events", dt.BIGINT),
        ),
        lambda: _span_rows(db.spans),
    ))

    register(SysTable(
        _schema(
            "sys.fault_points",
            ("point", dt.varchar()),
            ("armed", dt.BOOLEAN),
            ("calls", dt.BIGINT),
            ("injections", dt.BIGINT),
        ),
        lambda: db.faults.point_stats(),
    ))

    register(SysTable(
        _schema(
            "sys.sessions",
            ("session_id", dt.varchar(16)),
            ("tenant", dt.varchar()),
            ("state", dt.varchar(8)),
            ("opened_at", dt.DOUBLE),
            ("queries_run", dt.BIGINT),
            ("errors", dt.BIGINT),
            ("last_query_id", dt.varchar(16)),
            ("txn_open", dt.BOOLEAN),
        ),
        lambda: _session_rows(db),
    ))

    register(SysTable(
        _schema(
            "sys.admission",
            ("tenant", dt.varchar()),
            ("queued", dt.BIGINT),
            ("running", dt.BIGINT),
            ("max_concurrent", dt.BIGINT),
            ("queue_capacity", dt.BIGINT),
            ("admitted", dt.BIGINT),
            ("shed", dt.BIGINT),
            ("rate_limited", dt.BIGINT),
            ("timeouts", dt.BIGINT),
            ("errors", dt.BIGINT),
            ("breaker_state", dt.varchar(9)),
            ("breaker_rejects", dt.BIGINT),
        ),
        lambda: _admission_rows(db),
    ))

    register(SysTable(
        _schema(
            "sys.plan_cache",
            ("shape", dt.varchar()),
            ("param_types", dt.varchar()),
            ("params", dt.BIGINT),
            ("free_params", dt.BIGINT),
            ("fixed_values", dt.varchar()),
            ("tables", dt.varchar()),
            ("hits", dt.BIGINT),
            ("operators", dt.BIGINT),
            ("approx_bytes", dt.BIGINT),
            ("has_physical", dt.BOOLEAN),
            ("created_at", dt.DOUBLE),
            ("last_used_at", dt.DOUBLE),
        ),
        lambda: _plan_cache_rows(db),
    ))


def _metric_rows(metrics) -> list[tuple]:
    from .metrics import Counter, Gauge

    rows = []
    for name, metric in metrics.items():
        if isinstance(metric, (Counter, Gauge)):
            kind = "counter" if isinstance(metric, Counter) else "gauge"
            rows.append((name, kind, float(metric.value), None, None, None, None, None))
        else:
            summary = metric.summary()
            rows.append((
                name, "histogram", float(summary["sum"]), summary["count"],
                summary["mean"], summary["p50"], summary["p95"], summary["max"],
            ))
    return rows


def _rewrite_rows(metrics) -> list[tuple]:
    prefix = "optimizer.rewrites."
    from .metrics import Counter

    return [
        (name[len(prefix):], metric.value)
        for name, metric in metrics.items()
        if name.startswith(prefix) and isinstance(metric, Counter)
    ]


def _cache_rows(db) -> list[tuple]:
    manager = getattr(db, "cached_views", None)
    if manager is None:
        return []
    rows = []
    for info in manager.infos():
        rows.append((
            info.name, info.kind, info.query_sql, ",".join(info.base_tables),
            info.refresh_count, manager.is_stale(info.name),
        ))
    return rows


def _plan_cache_rows(db) -> list[tuple]:
    cache = getattr(db, "plan_cache", None)
    if cache is None:
        return []
    return [
        (
            entry.shape,
            ",".join(str(t) for t in entry.param_types),
            len(entry.param_types),
            len(entry.free_slots),
            ",".join(f"${slot}={value!r}" for slot, value in entry.fixed_values),
            ",".join(entry.tables),
            entry.hits,
            entry.operators_after,
            entry.approx_bytes,
            entry.physical is not None,
            entry.created_at,
            entry.last_used_at,
        )
        for entry in cache.entries()
    ]


def _session_rows(db) -> list[tuple]:
    serving = getattr(db, "serving", None)
    if serving is None:
        return []
    return [
        (
            s.session_id, s.tenant, s.state, s.opened_at, s.queries_run,
            s.errors, s.last_query_id, s.txn_open,
        )
        for s in serving.sessions()
    ]


def _admission_rows(db) -> list[tuple]:
    serving = getattr(db, "serving", None)
    if serving is None:
        return []
    snap = serving.admission.snapshot()
    # One global row (tenant '*') carries the queue columns; one row per
    # tenant carries the counters and breaker state.
    rows = [(
        "*", snap["queued"], snap["running"], snap["max_concurrent"],
        snap["queue_capacity"], None, None, None, None, None, None, None,
    )]
    for state in serving.tenants.states():
        rows.append((
            state.name, None, None, None, None,
            state.admitted, state.shed, state.rate_limited, state.timeouts,
            state.errors, state.breaker.state, state.breaker_rejects,
        ))
    return rows


def _span_rows(tracer) -> list[tuple]:
    root = tracer.root() or tracer.last_root
    if root is None:
        return []
    rows = []
    for span in root.walk():
        duration = span.duration_s
        rows.append((
            span.trace_id, span.span_id, span.parent_id, span.name,
            span.attributes.get("query_id"),
            None if duration is None else duration * 1e3,
            len(span.events),
        ))
    return rows
