"""The `Database` facade: the library's main entry point.

Example::

    from repro import Database

    db = Database()
    db.execute("create table t (id int primary key, v decimal(15,2))")
    db.execute("insert into t values (1, 10.50), (2, 20.00)")
    result = db.query("select sum(v) from t")
    print(result.rows)          # [(Decimal('30.50'),)]
    print(db.explain("select id from t"))

The optimizer profile (default ``"hana"``) controls which of the paper's
rewrites run — see :mod:`repro.optimizer.profiles` for the Table 1–4
capability models.
"""

from __future__ import annotations

import itertools
import random
import time
import warnings
from typing import Callable, Iterable, Sequence

from .algebra import Binder, explain as explain_plan, plan_stats, summarize_plan
from .algebra.binder import RelationBinding, Scope
from .algebra.expr import Const, Param, rewrite_expr
from .algebra.ops import LogicalOp, Scan, rewrite_op_exprs
from .catalog import Catalog
from .datatypes import type_of_literal
from .catalog.schema import (
    ColumnSchema,
    ForeignKey,
    TableSchema,
    UniqueConstraint,
    ViewSchema,
)
from .engine import Chunk, Executor, QueryResult
from .engine.executor import DEFAULT_BATCH_SIZE
from .engine.eval import evaluate, evaluate_predicate
from .errors import (
    BindError,
    CatalogError,
    ConstraintError,
    ExecutionError,
    QueryTimeoutError,
    TransactionError,
)
from .faults import FaultInjector
from .capture.recorder import WorkloadRecorder
from .observability import (
    ExecutionCollector,
    MetricsRegistry,
    QueryTrace,
    RewriteTally,
    SlowQueryLog,
    SpanTracer,
    attach_operator_spans,
)
from .observability.baselines import ShapeBaselines
from .observability.feedback import MISESTIMATE_QERROR, qerror
from .observability.instrument import OperatorStats, render_analyze
from .observability.querylog import QueryLog, QueryLogEntry
from .observability.systables import install_sys_tables
from .optimizer.pipeline import optimize_plan
from .sql import ast, parse_statement
from .sql.normalize import extract_shape
from .storage import (
    ColumnTable,
    DiskWriteAheadLog,
    Transaction,
    TransactionManager,
    WriteAheadLog,
)
from .storage.mvcc import NO_TID
from .storage.wal import _decode_value, _encode_value
from .storage.wal_disk import schema_from_dict, schema_to_dict


class _Statement:
    """One statement's context, from the client's call to its telemetry.

    Created before lexing — ``start`` is the statement clock, so elapsed
    time covers lex, plan-cache probe and parse — and filled in by
    :meth:`Database._run_statement` as the statement moves through its
    phases; :meth:`Database._finish` reads it back, once, into every
    statement-end sink.

    ``is_query`` says the caller expects a SELECT (``query()``, EXPLAIN
    ANALYZE, a SELECT-prefixed ``execute()``); ``seq``/``query_id`` stay
    None for DDL/DML, which are not logged as queries.  ``parsed`` carries
    the already-parsed query of a nested INSERT ... SELECT.  ``deadline``
    is an absolute ``time.monotonic()`` value or None.
    """

    __slots__ = (
        "sql", "txn", "is_query", "optimize", "analyze", "parsed", "cacheable",
        "deadline", "started_at", "start", "seq", "query_id", "span",
        "parse_s", "bind_s", "optimize_s", "execute_s", "plan",
        "operators_before", "operators_after", "rewrite_fires", "trace",
        "collector",
    )

    def __init__(
        self, sql: str | None, txn: Transaction | None = None,
        is_query: bool = True, optimize: bool = True, analyze: bool = False,
        parsed: ast.Query | None = None,
    ):
        self.started_at = time.time()
        self.start = time.perf_counter()
        self.sql = sql
        self.txn = txn
        self.is_query = is_query
        self.optimize = optimize
        self.analyze = analyze
        self.parsed = parsed
        #: Only optimized SELECTs arriving as text consult the plan cache.
        self.cacheable = is_query and optimize and not analyze and parsed is None
        self.deadline: float | None = None
        self.seq: int | None = None
        self.query_id: str | None = None
        self.span = None
        self.parse_s = self.bind_s = self.optimize_s = self.execute_s = None
        self.plan: LogicalOp | None = None
        self.operators_before = self.operators_after = 0
        self.rewrite_fires: dict[str, int] = {}
        self.trace: QueryTrace | None = None
        self.collector: ExecutionCollector | None = None


def _shape_key(sql: str) -> tuple[tuple, list, list]:
    """``((shape, literal types), literal values, tokens)`` — the plan-cache
    key of a statement plus what a hit or a parse needs next.  Raises
    whatever the lexer raises."""
    shape, values, tokens = extract_shape(sql)
    return (shape, tuple(type_of_literal(v) for v in values)), values, tokens


class Database:
    """An embedded HTAP database instance.

    ``wal_dir`` opts into the crash-consistent on-disk WAL
    (:class:`repro.storage.wal_disk.DiskWriteAheadLog`): committed work
    survives a crash and :meth:`Database.recover` rebuilds state from the
    directory.  ``fsync`` selects its durability policy (``always`` /
    ``commit`` / ``never``).  Without ``wal_dir`` the WAL stays in memory
    (the seed behaviour) and recovery is a test-only utility.

    ``batch_size`` sets the streaming executor's rows-per-batch knob
    (default 1024): smaller batches mean tighter memory bounds and earlier
    LIMIT short-circuits, larger batches amortize per-batch overhead.

    ``capture_dir`` opts into workload capture: every statement appends a
    durable JSONL record (SQL, shape hash, timings, result digest) to
    ``<capture_dir>/workload.jsonl`` for later ``python -m repro replay``.

    ``plan_feedback`` (default True) closes the estimate→execute→observe
    loop: every query runs under a collector, and the per-operator
    est/actual/Q-error rows land in ``sys.plan_feedback`` (plus the
    ``optimizer.qerror`` histogram and per-kind misestimate counters).
    Set it False to run queries with zero instrumentation beyond the base
    counters.

    ``memory_budget_bytes`` arms a *soft* per-query limit on the estimated
    bytes held by blocking operators (hash tables, sort buffers): the
    first overshoot warns (:class:`repro.errors.MemoryBudgetWarning`),
    bumps ``exec.memory_budget_exceeded``, and flips :meth:`health` to
    degraded — the query itself still completes.

    ``plan_cache_size`` bounds the parameterized plan cache (default 128
    entries; 0 disables it).  Repeated statement *shapes* — the same SQL
    with different literals — skip parse, bind, and the whole optimizer
    from their third execution on: the cached generic plan is re-bound
    with the new literal values.  Promotion is conservative (a shape is
    cached only when the parameter-generic optimization provably fires
    the same rewrites as the value-bound one), and entries self-invalidate
    on DDL, view deploys/drops, profile changes, and row-count shifts big
    enough to change plan choice.  ``sys.plan_cache`` and the
    ``plan_cache.*`` metrics expose its state.

    Every instance installs the read-only ``sys.*`` introspection schema
    (``sys.query_log``, ``sys.plan_feedback``, ``sys.metrics``, ...) —
    virtual tables over the engine's own instrumentation, queryable
    through ordinary SQL.
    """

    def __init__(
        self,
        profile: str = "hana",
        wal_enabled: bool = True,
        wal_dir: str | None = None,
        fsync: str = "commit",
        batch_size: int = DEFAULT_BATCH_SIZE,
        capture_dir: str | None = None,
        plan_feedback: bool = True,
        memory_budget_bytes: int | None = None,
        vectorized: bool = True,
        plan_cache_size: int = 128,
    ):
        self.metrics = MetricsRegistry()
        #: Hierarchical span tracer; enabled together with :attr:`tracing`.
        self.spans = SpanTracer()
        #: Ring-buffer slow-query log; set ``slow_queries.threshold_s`` (in
        #: seconds) to start capturing offenders.
        self.slow_queries = SlowQueryLog()
        #: Fault-injection registry — see :mod:`repro.faults`.  Arming any
        #: point flips :meth:`health` to ``degraded``.
        self.faults = FaultInjector(metrics=self.metrics)
        if wal_dir is not None:
            self.wal: WriteAheadLog | None = DiskWriteAheadLog(
                wal_dir, fsync=fsync, metrics=self.metrics,
                tracer=self.spans, faults=self.faults,
            )
        elif wal_enabled:
            self.wal = WriteAheadLog(
                metrics=self.metrics, tracer=self.spans, faults=self.faults
            )
        else:
            self.wal = None
        self.txn_manager = TransactionManager(
            self.wal, metrics=self.metrics, tracer=self.spans
        )
        self.catalog = Catalog()
        self._plan_feedback = plan_feedback
        self._executor = Executor(
            self.catalog, metrics=self.metrics, tracer=self.spans,
            faults=self.faults, batch_size=batch_size,
            memory_budget_bytes=memory_budget_bytes,
            vectorized=vectorized,
        )
        self._profile_name = profile
        self._tracing = False
        self._last_trace: QueryTrace | None = None
        # Hot-path metric handles, resolved once (registry lookups are
        # lock-protected; per-query code should not pay for them).
        self._m_queries = self.metrics.counter("queries.executed")
        self._m_latency = self.metrics.histogram("queries.latency_s")
        self._m_ops_before = self.metrics.histogram("plan.operators_before")
        self._m_ops_after = self.metrics.histogram("plan.operators_after")
        self._m_opt_runs = self.metrics.counter("optimizer.runs")
        self._m_opt_iters = self.metrics.histogram("optimizer.iterations")
        self._m_nonconverged = self.metrics.counter("optimizer.nonconverged")
        self._m_timeouts = self.metrics.counter("query.timeouts")
        self._m_conflict_retries = self.metrics.counter("txn.conflict_retries")
        self._m_qerror = self.metrics.histogram("optimizer.qerror")
        # Pre-registered so exporters surface them at zero from the start.
        self.metrics.counter("optimizer.rule_failures")
        self.metrics.counter("exec.memory_budget_exceeded")
        #: The statement ring behind sys.query_log and the operator ring
        #: behind sys.operator_stats / sys.plan_feedback.
        self.query_log = QueryLog()
        #: Per-shape latency baselines behind sys.query_shapes; folded in
        #: lazily from the query log at scan time.
        self.shape_baselines = ShapeBaselines(metrics=self.metrics)
        self._query_seq = itertools.count(1)
        #: CachedViewManager self-registers here (sys.cache_entries feed).
        self.cached_views = None
        #: repro.serving.SessionManager self-registers here (the
        #: sys.sessions / sys.admission feed and the health() breaker view).
        self.serving = None
        #: Workload capture (None unless capture_dir was given).
        self.capture: WorkloadRecorder | None = (
            WorkloadRecorder(capture_dir, profile=profile)
            if capture_dir is not None else None
        )
        #: Parameterized plan cache; ``plan_cache_size=0`` disables it
        #: entirely.  Shared by every session of this instance.
        from .cache.plan_cache import PlanCache

        self.plan_cache: PlanCache | None = (
            PlanCache(plan_cache_size, metrics=self.metrics)
            if plan_cache_size > 0 else None
        )
        install_sys_tables(self)

    # -- observability --------------------------------------------------------

    @property
    def tracing(self) -> bool:
        """When True, every optimized query records a full
        :class:`QueryTrace` (structured rewrite events; a plan-cache hit
        skips the optimizer, so its trace carries the cached entry's
        rewrite-fire counts and no events) *and* a span tree, retrievable
        via :attr:`last_trace`.  Off by default: the default path only
        keeps a counting tally and no spans."""
        return self._tracing

    @tracing.setter
    def tracing(self, value: bool) -> None:
        self._tracing = bool(value)
        self.spans.enabled = bool(value)

    @property
    def last_trace(self) -> QueryTrace | None:
        """The :class:`QueryTrace` of the most recent optimized query, when
        :attr:`tracing` was enabled for it; None otherwise."""
        return self._last_trace

    def _absorb_trace(self, tally: RewriteTally) -> None:
        """Fold one optimization's rewrite tally into the metrics registry."""
        self._m_opt_runs.inc()
        self._m_opt_iters.observe(tally.iterations_run)
        if not tally.converged:
            self._m_nonconverged.inc()
        for case, fires in tally.rewrite_counts.items():
            self.metrics.counter(f"optimizer.rewrites.{case}").inc(fires)

    # -- profiles -------------------------------------------------------------

    @property
    def profile(self) -> str:
        return self._profile_name

    def set_profile(self, name: str) -> None:
        """Select the optimizer capability profile (hana/postgres/x/y/z/none)."""
        from .optimizer.profiles import get_profile

        get_profile(name)  # validate
        self._profile_name = name

    # -- transactions -----------------------------------------------------------

    def begin(self) -> Transaction:
        return self.txn_manager.begin()

    def commit(self, txn: Transaction) -> None:
        self.txn_manager.commit(txn)

    def rollback(self, txn: Transaction) -> None:
        self.txn_manager.rollback(txn)

    # -- the statement lifecycle ------------------------------------------------

    def execute(self, sql: str, txn: Transaction | None = None):
        """Execute one SQL statement.

        Returns a :class:`QueryResult` for queries, an affected-row count for
        DML, and None for DDL.
        """
        # SELECTs routed through execute() share the plan cache with
        # query(); the prefix gate keeps DDL/DML off the probe path.
        is_query = sql.lstrip()[:6].upper() == "SELECT"
        return self._run_statement(_Statement(sql, txn, is_query))

    def query(
        self,
        sql: str,
        txn: Transaction | None = None,
        optimize: bool = True,
        timeout: float | None = None,
        deadline: float | None = None,
    ) -> QueryResult:
        """Run one SELECT.  ``timeout`` (seconds) arms a cooperative
        deadline checked inside every operator's per-batch loop (a long
        streaming scan is interrupted mid-operator); exceeding it raises
        :class:`repro.errors.QueryTimeoutError` and bumps
        ``query.timeouts``.

        ``deadline`` is an *absolute* ``time.monotonic()`` value for when
        the statement's time budget started before this call — the serving
        layer stamps it at submission so queue wait counts against the
        budget.  A deadline already in the past raises
        :class:`QueryTimeoutError` up front, before any planning work.
        When both are given the earlier one wins."""
        stmt = _Statement(sql, txn, optimize=optimize)
        if timeout is not None:
            armed = time.monotonic() + timeout
            deadline = armed if deadline is None else min(armed, deadline)
        stmt.deadline = deadline
        return self._run_statement(stmt)

    def _run_statement(self, stmt: _Statement):
        """The one statement lifecycle.  Cold plan, plan-cache hit, EXPLAIN
        ANALYZE, a nested INSERT ... SELECT and DDL/DML all run parse/probe →
        (queries: plan source → execute) under one ``query`` span and end
        in one :meth:`_finish` call — DESIGN §8 has the diagram.

        A statement gets its query id once parsing has said — or failed to
        say — what it is, so a lex error in ``query()`` is logged like any
        other failure while DDL/DML consume no id.
        """
        tracer = self.spans
        cache = self.plan_cache if stmt.cacheable else None
        outcome = entry = shape_key = values = tokens = None
        try:
            with tracer.span("query", sql=stmt.sql) as stmt.span:
                statement = stmt.parsed
                try:
                    if statement is None:
                        with tracer.span("parse"):
                            if cache is not None:
                                shape_key, values, tokens = _shape_key(stmt.sql)
                                entry = cache.probe(
                                    shape_key, values, self._plan_cache_env(),
                                    self._plan_cache_stats_sig,
                                )
                            if entry is None:
                                statement = parse_statement(stmt.sql, tokens=tokens)
                finally:
                    stmt.parse_s = time.perf_counter() - stmt.start
                    if stmt.is_query or isinstance(statement, ast.Query):
                        stmt.seq = next(self._query_seq)
                        stmt.query_id = f"q{stmt.seq}"
                        if stmt.span is not None:
                            stmt.span.attributes["query_id"] = stmt.query_id
                if stmt.seq is None:
                    outcome = self._route(statement, stmt.txn, stmt.sql)
                elif entry is None and not isinstance(statement, ast.Query):
                    raise ExecutionError("query() expects a SELECT statement")
                else:
                    outcome = self._execute_query(stmt, statement, entry, values)
        except BaseException as exc:
            self._finish(stmt, None, exc)
            raise
        self._finish(stmt, outcome, None)
        # Promotion is cache upkeep for later statements, not part of this
        # one: it runs after the statement's telemetry is written.
        if shape_key is not None and entry is None and cache.should_promote(shape_key):
            self._promote_shape(shape_key, stmt.sql, tokens, values, stmt.rewrite_fires)
        return outcome

    def _route(self, statement, txn: Transaction | None, sql: str):
        if isinstance(statement, ast.CreateTable):
            return self._create_table(statement)
        if isinstance(statement, ast.CreateView):
            return self._create_view(statement, sql)
        if isinstance(statement, ast.DropStatement):
            return self._drop(statement)
        if isinstance(statement, ast.Insert):
            return self._with_txn(txn, lambda t: self._insert(statement, t))
        if isinstance(statement, ast.Update):
            return self._with_txn(txn, lambda t: self._update(statement, t))
        if isinstance(statement, ast.Delete):
            return self._with_txn(txn, lambda t: self._delete(statement, t))
        raise ExecutionError(f"unsupported statement {type(statement).__name__}")

    def _execute_query(self, stmt: _Statement, query, entry, values) -> QueryResult:
        """Plan one query from its source — cold, or the probed plan-cache
        ``entry`` — and execute it under one snapshot."""
        tracer = self.spans
        deadline = stmt.deadline
        if deadline is not None and time.monotonic() > deadline:
            # The budget was consumed before execution began (queue wait
            # under admission control): fail fast, before paying for
            # planning.  Logged like any other timeout.
            raise QueryTimeoutError(
                "statement deadline exceeded before execution began"
            )
        if entry is None:
            plan, physical = self._plan_cold(stmt, query), None
        else:
            # A hit skips parse, bind, and every optimizer pass; what they
            # would have reported comes from the entry.
            plan, physical = self._materialize_cached(entry, values)
            stmt.operators_before = entry.operators_before
            stmt.operators_after = entry.operators_after
            stmt.rewrite_fires = entry.rewrite_fires
            trace = self._open_trace(stmt)
            if trace is not None:
                trace.rewrite_counts.update(entry.rewrite_fires)
        stmt.plan = plan
        # Plan feedback runs every query under a collector so per-operator
        # actuals and est/actual Q-error land in the query log
        # unconditionally; span trees stay opt-in.
        collector = (
            ExecutionCollector()
            if self._plan_feedback or tracer.enabled or stmt.analyze else None
        )
        started = time.perf_counter()
        with tracer.span("execute") as execute_span:
            txn = stmt.txn
            snapshot = self.begin() if txn is None else txn
            try:
                if physical is None:
                    result = self._executor.execute(
                        plan, snapshot, collector, deadline
                    )
                else:
                    result = self._executor.execute_physical(
                        plan, physical, snapshot, collector, deadline
                    )
            finally:
                if txn is None:
                    self.commit(snapshot)
        stmt.execute_s = time.perf_counter() - started
        if collector is not None:
            collector.elapsed_s = stmt.execute_s
            collector.result_rows = len(result.rows)
            stmt.collector = collector
            if execute_span is not None:
                attach_operator_spans(execute_span, collector)
            if stmt.trace is not None:
                stmt.trace.execution = collector
        return result

    def _finish(self, stmt: _Statement, outcome, exc: BaseException | None) -> None:
        """Statement-end telemetry.  Builds the statement's one
        :class:`QueryLogEntry` — its ``sys.query_log`` row, ``result.stats``
        and, past the threshold, its slow-log entry — and is the only
        writer of the operator ring, the ``queries.*``/``plan.*`` metrics
        and the capture record, for every plan source and every outcome."""
        elapsed = time.perf_counter() - stmt.start
        if stmt.seq is not None:
            if exc is None:
                status = "ok"
            elif isinstance(exc, QueryTimeoutError):
                status = "timeout"
                self._m_timeouts.inc()
            else:
                status = "error"
            entry = QueryLogEntry(
                query_id=stmt.query_id,
                sql=stmt.sql,
                status=status,
                error=None if exc is None else str(exc),
                started_at=stmt.started_at,
                elapsed_s=elapsed,
                parse_s=stmt.parse_s,
                bind_s=stmt.bind_s,
                optimize_s=stmt.optimize_s,
                execute_s=stmt.execute_s,
                rows=None if outcome is None else len(outcome.rows),
                operators_before=stmt.operators_before,
                operators_after=stmt.operators_after,
                rewrite_fires=dict(stmt.rewrite_fires),
                seq=stmt.seq,
            )
            if exc is None:
                if stmt.collector is not None:
                    self._record_operators(stmt.query_id, stmt.collector)
                self._m_queries.inc()
                self._m_latency.observe(elapsed)
                self._m_ops_before.observe(stmt.operators_before)
                self._m_ops_after.observe(stmt.operators_after)
                outcome.stats = entry
                slowlog = self.slow_queries
                if slowlog.threshold_s is not None and elapsed >= slowlog.threshold_s:
                    entry.plan = explain_plan(stmt.plan)
                    entry.plan_summary = self._plan_summary(stmt.plan)
                    entry.span_root = stmt.span
                    slowlog.record(entry)
            # Appended on completion (never mid-flight), so a query over
            # sys.query_log does not observe itself; afterwards it appears
            # exactly once, whatever its outcome.
            self.query_log.record(entry)
        recorder = self.capture
        # A nested INSERT ... SELECT is part of its INSERT's capture record.
        if recorder is not None and stmt.parsed is None:
            if exc is None:
                recorder.record_statement(stmt.sql, stmt.started_at, elapsed, outcome)
            else:
                recorder.record_error(stmt.sql, stmt.started_at, elapsed, exc)

    def _record_operators(self, query_id: str, collector) -> None:
        """One walk of the executed plan: stamp each operator's
        :class:`OperatorStats` (a fresh ``never_executed`` one for an
        operator that never opened) with its identity, estimate and
        Q-error, feed the Q-error metrics, and append the group to the
        operator ring.

        Early-terminated operators are excluded from the histogram and the
        misestimate counters — their actual row counts are lower bounds by
        design, not estimation failures.  Never-executed operators are
        likewise display-only.
        """
        root = collector.root
        if root is None:
            return
        group = []
        for index, op in enumerate(root.walk()):
            stats = collector.stats_for(op)
            if stats is None:
                stats = OperatorStats(op.label(), never_executed=True)
            stats.query_id = query_id
            stats.op_index = index
            stats.kind = kind = type(op).__name__.removesuffix("Exec")
            stats.est_rows = est = op.est_rows
            if est is not None:
                stats.qerror = q = qerror(est, stats.rows_out)
                if not (stats.early_terminated or stats.never_executed):
                    self._m_qerror.observe(q)
                    if q >= MISESTIMATE_QERROR:
                        self.metrics.counter(f"optimizer.misestimates.{kind}").inc()
            group.append(stats)
        self.query_log.record_operators(group)

    def _plan_summary(self, plan: LogicalOp) -> str | None:
        """One-line physical summary for the slow-query log; compiled on
        demand (only when the threshold fires) and never allowed to fail
        the query it describes."""
        try:
            return summarize_plan(self._executor.compile(plan))
        except Exception:
            return None

    # -- plan sources ---------------------------------------------------------

    def _plan_cold(self, stmt: _Statement, query: "str | ast.Query") -> LogicalOp:
        """The cold plan source: bind and (unless ``optimize=False``) run
        the rewrite pipeline, recording rewrite provenance.

        The optimizer always runs under at least a counting
        :class:`RewriteTally` (absorbed into :attr:`metrics`); under
        :attr:`tracing` a full :class:`QueryTrace` is kept on
        :attr:`last_trace`.  Phase timings and operator counts land on
        ``stmt`` and from there in ``sys.query_log``.
        """
        tracer = self.spans
        started = time.perf_counter()
        with tracer.span("bind"):
            plan = self.bind(query)
        stmt.bind_s = time.perf_counter() - started
        stmt.operators_before = stmt.operators_after = sum(1 for _ in plan.walk())
        if not stmt.optimize:
            return plan
        tally = self._open_trace(stmt) or RewriteTally()
        started = time.perf_counter()
        with tracer.span("optimize", profile=self._profile_name):
            plan = optimize_plan(
                plan, self._profile_name, self, trace=tally, spans=tracer
            )
        stmt.optimize_s = time.perf_counter() - started
        self._absorb_trace(tally)
        stmt.rewrite_fires = tally.rewrite_counts
        stmt.operators_after = sum(1 for _ in plan.walk())
        return plan

    def _open_trace(self, stmt: _Statement) -> QueryTrace | None:
        """Under :attr:`tracing`, this statement's fresh :class:`QueryTrace`,
        published as :attr:`last_trace` — so a plan-cache hit (which fires
        no rewrite events) never leaves an earlier statement's trace there."""
        if not self._tracing:
            return None
        stmt.trace = trace = QueryTrace(sql=stmt.sql, profile=self._profile_name)
        trace.span_root = stmt.span
        trace.query_id = stmt.query_id
        self._last_trace = trace
        return trace

    def _materialize_cached(self, entry, values: list):
        """The plan-cache-hit plan source: generic plan + parameter values
        → executable (plan, physical).

        Exact value repeat: reuse the entry's compiled physical tree
        outright.  Otherwise substitute Const nodes for the free Param
        slots and compile fresh (zone-map prune bounds are recomputed
        from the new values by the physical planner)."""
        if entry.physical is not None and entry.last_values == tuple(values):
            return entry.generic_plan, entry.physical
        plan = entry.generic_plan
        if entry.free_slots:
            consts = {
                slot: Const(values[slot], entry.param_types[slot])
                for slot in entry.free_slots
            }

            def replace(node):
                if isinstance(node, Param):
                    return consts[node.slot]
                return None

            plan = rewrite_op_exprs(plan, lambda e: rewrite_expr(e, replace))
        physical = self._executor.compile(plan)
        self.plan_cache.remember_compiled(entry, values, physical)
        return plan, physical

    # -- parameterized plan cache ---------------------------------------------

    def _plan_cache_env(self) -> tuple:
        """Environment head of the hit-time fingerprint: anything that can
        change plan choice without touching the statement text."""
        executor = self._executor
        return (
            self.catalog.version,
            self._profile_name,
            executor._vectorized,
            executor.batch_size,
        )

    def _plan_cache_stats_sig(self, tables: tuple[str, ...]) -> tuple:
        """Bucketed (log2) row counts of the entry's base tables: a stats
        refresh big enough to change plan choice changes a bucket and
        invalidates the entry."""
        sig = []
        for name in tables:
            try:
                sig.append(len(self.catalog.table(name)).bit_length())
            except Exception:
                sig.append(-1)
        return tuple(sig)

    def _promote_shape(
        self, shape_key: tuple, sql: str, tokens, values: list,
        expected_fires: dict,
    ) -> None:
        """Build and store the generic plan for a shape seen twice.

        The value-bound execution that just finished is the reference:
        the generic (Param-bound) optimization must fire *exactly* the
        same rewrites (``expected_fires``), or some value-dependent
        rewrite (constant folding, conjunct dedup, Fig. 10c ASJ
        subsumption ...) fired on literal values and a generic plan would
        be weaker or wrong for other values — such shapes are negatively
        cached as uncacheable.  Bind failures under parameterization (the
        binder's structural matching is textual, and ``$n`` slots break
        it for duplicated literals) and scalar subqueries (resolved
        per-execution) are uncacheable for the same reason: correctness
        never depends on caching.
        """
        from .cache.plan_cache import (
            CachedPlan,
            plan_base_tables,
            plan_has_scalar_subquery,
            plan_param_slots,
        )

        cache = self.plan_cache
        env = self._plan_cache_env()  # before bind: later DDL must mismatch
        try:
            statement = parse_statement(sql, tokens=tokens, parameterize=True)
            plan = Binder(self.catalog, parameterize=True).bind_query(statement)
            operators_before = sum(1 for _ in plan.walk())
            tally = RewriteTally()
            generic = optimize_plan(plan, self._profile_name, self, trace=tally)
        except Exception:
            cache.mark_uncacheable(shape_key)
            return
        fires = tally.rewrite_counts
        if fires != expected_fires or plan_has_scalar_subquery(generic):
            cache.mark_uncacheable(shape_key)
            return
        free = plan_param_slots(generic)
        tables = plan_base_tables(generic)
        cache.store(shape_key, CachedPlan(
            shape=shape_key[0],
            param_types=shape_key[1],
            generic_plan=generic,
            free_slots=free,
            fixed_values=tuple(
                (slot, values[slot])
                for slot in range(len(values)) if slot not in free
            ),
            fingerprint=(env, self._plan_cache_stats_sig(tables)),
            tables=tables,
            operators_before=operators_before,
            operators_after=sum(1 for _ in generic.walk()),
            rewrite_fires=fires,
        ))

    def _plan_cache_peek(self, sql: str):
        """The live cache entry this statement would hit, or None — no LRU
        touch, no counters (the EXPLAIN ``(cached)`` annotation)."""
        cache = self.plan_cache
        if cache is None:
            return None
        try:
            shape_key, values, _ = _shape_key(sql)
        except Exception:
            return None
        return cache.peek(shape_key, values, self._plan_cache_env(),
                          self._plan_cache_stats_sig)

    # -- planning ------------------------------------------------------------------

    def bind(self, sql_or_query: "str | ast.Query") -> LogicalOp:
        """Parse (if needed) and bind a query without optimizing it."""
        query = (
            parse_statement(sql_or_query) if isinstance(sql_or_query, str) else sql_or_query
        )
        if not isinstance(query, ast.Query):
            raise BindError("bind() expects a query")
        return Binder(self.catalog).bind_query(query)

    def plan_for(self, sql_or_query: "str | ast.Query", optimize: bool = True) -> LogicalOp:
        sql = sql_or_query if isinstance(sql_or_query, str) else None
        return self._plan_cold(_Statement(sql, optimize=optimize), sql_or_query)

    def explain(
        self, sql: str, optimize: bool = True, analyze: bool = False,
        physical: bool | None = None,
    ) -> str:
        """EXPLAIN (the plan tree) or EXPLAIN ANALYZE (``analyze=True``:
        actually run the query and annotate every physical operator with
        its actual row/batch counts and wall time).

        ``physical`` selects which tree plain EXPLAIN renders; it defaults
        to ``optimize``, so the optimized plan is shown as the physical
        operator tree that would execute (BatchScan, HashJoin with its
        build side, ...) while ``optimize=False`` shows the raw logical
        tree.  EXPLAIN ANALYZE always annotates the executed physical plan
        and is a statement like any other: it gets a query id and its
        ``sys.query_log`` / ``sys.operator_stats`` rows.

        Example::

            print(db.explain("select * from v limit 3", analyze=True))
            # Limit[3] (est rows=3 actual rows=3 qerror=1.00 batches=1
            #           time=0.051ms, early-terminated)
            #   BatchScan(orders)[cols=3] (est rows=1024 actual rows=1024 ...)
            # execution: 3 row(s) in 0.068ms, 1024 row(s) scanned

        Every operator carries the optimizer's estimated rows and the
        resulting Q-error (``max(est,actual)/min(est,actual)``); blocking
        operators additionally show their peak estimated memory
        (``peak≈…KB``).
        """
        if analyze:
            stmt = _Statement(sql, optimize=optimize, analyze=True)
            self._run_statement(stmt)
            return render_analyze(stmt.plan, stmt.collector)
        if physical is None:
            physical = optimize
        plan = self.plan_for(sql, optimize)
        text = (explain_plan(self._executor.compile(plan)) if physical
                else explain_plan(plan))
        if optimize and self._plan_cache_peek(sql) is not None:
            text += "\n(cached)"
        return text

    def plan_statistics(self, sql: str, optimize: bool = True):
        return plan_stats(self.plan_for(sql, optimize))

    # -- DDL ----------------------------------------------------------------------

    def _create_table(self, statement: ast.CreateTable) -> None:
        columns = [
            ColumnSchema(c.name, c.data_type, c.nullable and not c.primary_key)
            for c in statement.columns
        ]
        constraints: list[UniqueConstraint] = []
        for c in statement.columns:
            if c.primary_key:
                constraints.append(UniqueConstraint((c.name,), is_primary=True))
            elif c.unique:
                constraints.append(UniqueConstraint((c.name,)))
        for tc in statement.constraints:
            constraints.append(
                UniqueConstraint(tc.columns, is_primary=(tc.kind == "PRIMARY KEY"))
            )
        if sum(1 for u in constraints if u.is_primary) > 1:
            raise CatalogError(f"multiple primary keys on {statement.name!r}")
        schema = TableSchema(statement.name, columns, constraints)
        existed = self.catalog.has_table(schema.name)
        table = ColumnTable(schema, self.txn_manager, self.wal, faults=self.faults)
        self.catalog.create_table(table, statement.if_not_exists)
        if not existed:
            self._log_ddl_table(schema)

    def create_table_from_schema(self, schema: TableSchema) -> ColumnTable:
        """Programmatic DDL used by the workload generators and the VDM."""
        table = ColumnTable(schema, self.txn_manager, self.wal, faults=self.faults)
        self.catalog.create_table(table)
        self._log_ddl_table(schema)
        return table

    def _log_ddl_table(self, schema: TableSchema) -> None:
        if self.wal is not None and getattr(self.wal, "durable", False):
            self.wal.log_ddl(schema.name, schema_to_dict(schema))

    def _create_view(self, statement: ast.CreateView, sql: str) -> None:
        view = ViewSchema(
            statement.name,
            statement.query,
            statement.column_names,
            {m.name: m.expr for m in statement.macros},
            sql,
        )
        # Validate by binding now so broken views fail at CREATE time.
        bound = Binder(self.catalog).bind_query(statement.query)
        if statement.column_names and len(statement.column_names) != len(bound.output):
            raise CatalogError(
                f"view {statement.name!r} declares {len(statement.column_names)} "
                f"columns but its query produces {len(bound.output)}"
            )
        self.catalog.create_view(view, statement.or_replace)
        if self.wal is not None and getattr(self.wal, "durable", False):
            self.wal.log_ddl_view(view.name, sql)

    def _drop(self, statement: ast.DropStatement) -> None:
        existed = (
            self.catalog.has_table(statement.name)
            if statement.kind == "TABLE"
            else self.catalog.has_view(statement.name)
        )
        if statement.kind == "TABLE":
            self.catalog.drop_table(statement.name, statement.if_exists)
        else:
            self.catalog.drop_view(statement.name, statement.if_exists)
        if existed and self.wal is not None and getattr(self.wal, "durable", False):
            self.wal.log_drop(statement.name.lower(), statement.kind)

    # -- DML ------------------------------------------------------------------------

    def _with_txn(self, txn: Transaction | None, action) -> int:
        if txn is not None:
            return action(txn)
        auto = self.begin()
        try:
            result = action(auto)
        except Exception:
            self.txn_manager.rollback(auto)
            raise
        self.commit(auto)
        return result

    def _writable_table(self, name: str):
        """Resolve a DML target, refusing read-only (system) tables before
        any storage machinery is touched."""
        table = self.catalog.table(name)
        if getattr(table, "read_only", False):
            raise ExecutionError(
                f"{table.schema.name} is a read-only system table"
            )
        return table

    def _insert(self, statement: ast.Insert, txn: Transaction) -> int:
        table = self._writable_table(statement.table)
        schema = table.schema
        if statement.columns:
            positions = [schema.column_index(c) for c in statement.columns]
        else:
            positions = list(range(len(schema.columns)))

        def build_row(values: Sequence[object]) -> list[object]:
            if len(values) != len(positions):
                raise ExecutionError(
                    f"INSERT expects {len(positions)} values, got {len(values)}"
                )
            row: list[object] = [None] * len(schema.columns)
            for position, value in zip(positions, values):
                row[position] = value
            return row

        count = 0
        if statement.query is not None:
            result = self._run_statement(
                _Statement(None, txn, parsed=statement.query)
            )
            for row_values in result.rows:
                table.insert(txn, build_row(row_values))
                count += 1
            return count
        binder = Binder(self.catalog)
        empty_scope = Scope([])
        one_row = Chunk({}, 1)
        for value_row in statement.rows:
            values = []
            for value_ast in value_row:
                bound = binder._bind_scalar(value_ast, empty_scope, allow_agg=False)
                values.append(evaluate(bound, one_row)[0])
            table.insert(txn, build_row(values))
            count += 1
        return count

    def _update(self, statement: ast.Update, txn: Transaction) -> int:
        table = self._writable_table(statement.table)
        scan = Scan.create(table.schema)
        scope = Scope([RelationBinding(table.schema.name, scan.output)])
        binder = Binder(self.catalog)
        row_ids = table.visible_row_ids(txn)
        names = [c.name for c in table.schema.columns]
        values = [[table.column(n).get(i) for i in row_ids] for n in names]
        chunk = Chunk({col.cid: vals for col, vals in zip(scan.output, values)}, len(row_ids))
        if statement.where is not None:
            predicate = binder._bind_scalar(statement.where, scope, allow_agg=False)
            hits = evaluate_predicate(predicate, chunk)
        else:
            hits = list(range(len(row_ids)))
        assignments = []
        for name, expr_ast in statement.assignments:
            index = table.schema.column_index(name)
            bound = binder._bind_scalar(expr_ast, scope, allow_agg=False)
            assignments.append((index, evaluate(bound, chunk)))
        count = 0
        for position in hits:
            row = [chunk.column(col.cid)[position] for col in scan.output]
            for index, new_values in assignments:
                row[index] = new_values[position]
            table.update_row(txn, row_ids[position], row)
            count += 1
        return count

    def _delete(self, statement: ast.Delete, txn: Transaction) -> int:
        table = self._writable_table(statement.table)
        scan = Scan.create(table.schema)
        scope = Scope([RelationBinding(table.schema.name, scan.output)])
        binder = Binder(self.catalog)
        row_ids = table.visible_row_ids(txn)
        if statement.where is not None:
            names = [c.name for c in table.schema.columns]
            values = [[table.column(n).get(i) for i in row_ids] for n in names]
            chunk = Chunk(
                {col.cid: vals for col, vals in zip(scan.output, values)}, len(row_ids)
            )
            predicate = binder._bind_scalar(statement.where, scope, allow_agg=False)
            hits = evaluate_predicate(predicate, chunk)
        else:
            hits = list(range(len(row_ids)))
        for position in hits:
            table.delete_row(txn, row_ids[position])
        return len(hits)

    # -- bulk utilities ----------------------------------------------------------------

    def bulk_load(self, table_name: str, rows: Iterable[Sequence[object]], merge: bool = True) -> int:
        """Load rows outside transactions (generator fast path)."""
        return self.catalog.table(table_name).bulk_load(rows, merge)

    def merge_all(self) -> None:
        """Run a delta merge on every table."""
        for table in self.catalog.tables():
            table.merge_delta()

    # -- graceful degradation -----------------------------------------------------

    def run_with_retry(
        self,
        action: Callable[[Transaction], object],
        *,
        attempts: int = 5,
        base_delay_s: float = 0.005,
        max_delay_s: float = 0.25,
        retry_on: tuple[type[Exception], ...] = (TransactionError, ConstraintError),
        rng: random.Random | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        """Run ``action(txn)`` in a fresh transaction, retrying conflicts.

        Each failed attempt rolls back, bumps ``txn.conflict_retries``, and
        backs off exponentially with jitter (``base_delay_s * 2**attempt``,
        capped at ``max_delay_s``, scaled by a uniform 0.5–1.0 factor) so
        colliding writers decorrelate.  The last error is re-raised once
        ``attempts`` is exhausted.  Errors outside ``retry_on`` propagate
        immediately — only conflict-shaped failures are transient.
        """
        if attempts < 1:
            raise ValueError("attempts must be >= 1")
        rng = rng if rng is not None else random.Random()
        last_error: Exception | None = None
        for attempt in range(attempts):
            txn = self.begin()
            try:
                result = action(txn)
            except retry_on as exc:
                if txn.is_active:
                    self.rollback(txn)
                last_error = exc
                if attempt + 1 >= attempts:
                    break
                self._m_conflict_retries.inc()
                delay = min(max_delay_s, base_delay_s * (2 ** attempt))
                sleep(delay * rng.uniform(0.5, 1.0))
            except BaseException:
                if txn.is_active:
                    self.rollback(txn)
                raise
            else:
                if txn.is_active:
                    self.commit(txn)
                return result
        assert last_error is not None
        raise last_error

    def health(self) -> dict:
        """Liveness/degradation report served at ``/healthz``.

        ``status`` is ``"degraded"`` (never an HTTP error — the engine is
        still answering queries, possibly from fallback plans) when any
        fault point is armed or when degradation counters show the engine
        has already absorbed failures; otherwise ``"ok"``.
        """
        reasons: list[str] = []
        armed = self.faults.armed()
        if armed:
            reasons.append("faults armed: " + ", ".join(sorted(armed)))
        for name, label in (
            ("optimizer.rule_failures", "optimizer rules sandboxed"),
            ("wal.torn_tail_truncations", "WAL torn tails truncated"),
            ("wal.replay_skips", "unreplayable WAL records skipped"),
            ("exec.memory_budget_exceeded", "memory budget exceeded"),
        ):
            value = self.metrics.counter(name).value
            if value > 0:
                reasons.append(f"{label}: {value}")
        serving = self.serving
        if serving is not None:
            tripped = sorted(
                f"{state.name}={state.breaker.state}"
                for state in serving.tenants.states()
                if state.breaker.state != "closed"
            )
            if tripped:
                reasons.append("circuit breakers tripped: " + ", ".join(tripped))
            if serving.draining:
                reasons.append("serving layer draining")
        return {"status": "degraded" if reasons else "ok", "reasons": reasons}

    # -- durability ---------------------------------------------------------------

    def checkpoint(self) -> str:
        """Snapshot committed state into the WAL directory and truncate the log.

        Requires a durable WAL and **no active transactions**: an in-flight
        transaction's earlier records would be discarded by the checkpoint's
        LSN horizon, losing its writes if it committed afterwards.  Returns
        the checkpoint file path.
        """
        wal = self.wal
        if wal is None or not getattr(wal, "durable", False):
            raise TransactionError(
                "checkpoint requires a durable WAL (construct with wal_dir=...)"
            )
        if self.txn_manager.active_count != 0:
            raise TransactionError(
                f"checkpoint requires no active transactions "
                f"({self.txn_manager.active_count} in flight)"
            )
        snapshot = self.begin()
        try:
            tables = []
            for table in self.catalog.tables():
                rows = [
                    [row_id, [_encode_value(v) for v in values]]
                    for row_id, values in table.scan_rows(snapshot)
                ]
                tables.append(
                    {
                        "schema": schema_to_dict(table.schema),
                        "rows": rows,
                        "next_row_id": len(table.created_tids),
                    }
                )
            views = [
                {"name": view.name, "sql": view.sql}
                for view in self.catalog.views()
                if view.sql
            ]
        finally:
            self.commit(snapshot)
        return wal.write_checkpoint({"tables": tables, "views": views})

    @classmethod
    def recover(
        cls,
        wal_dir: str,
        profile: str = "hana",
        fsync: str = "commit",
        checkpoint_after: bool = True,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> "Database":
        """Rebuild a database from a WAL directory after a crash.

        Restores the newest valid checkpoint, then replays committed
        post-checkpoint records grouped per original transaction (a failure
        mid-replay rolls the half-replayed transaction back, so partial
        transactions are never visible).  Unless ``checkpoint_after=False``,
        recovery finishes by writing a fresh checkpoint — replay compacts
        row ids, so the old log's id space must not leak past recovery.
        """
        db = cls(profile=profile, wal_dir=wal_dir, fsync=fsync, batch_size=batch_size)
        db._replay_from_disk()
        if checkpoint_after:
            db.checkpoint()
        return db

    def _replay_from_disk(self) -> None:
        wal = self.wal
        assert isinstance(wal, DiskWriteAheadLog)
        # row_maps: per table, original (logged) row id -> replayed row id.
        # Seeded by the checkpoint restore, extended by replayed inserts.
        row_maps: dict[str, dict[int, int]] = {}
        replayed = 0
        skipped = 0
        with wal.suppressed():
            state = wal.checkpoint_state
            if state is not None:
                for tdata in state.get("tables", []):
                    schema = schema_from_dict(tdata["schema"])
                    table = ColumnTable(
                        schema, self.txn_manager, wal, faults=self.faults
                    )
                    self.catalog.create_table(table)
                    mapping = row_maps.setdefault(schema.name, {})
                    for row_id, values in tdata.get("rows", []):
                        decoded = [_decode_value(v) for v in values]
                        mapping[row_id] = table._append_row(
                            decoded, NO_TID, validate_unique=True
                        )
                    if mapping:
                        table.merge_delta()
                for vdata in state.get("views", []):
                    self.execute(vdata["sql"])
            records = wal.records()
            committed = {r.tid for r in records if r.kind == "commit"}
            pending: dict[int, list] = {}
            for record in records:
                kind = record.kind
                if kind == "ddl":
                    self.create_table_from_schema(schema_from_dict(record.payload))
                    row_maps[record.table] = {}
                elif kind == "ddl_view":
                    self.execute(record.payload)
                elif kind == "ddl_drop":
                    if record.payload == "TABLE":
                        self.catalog.drop_table(record.table, if_exists=True)
                        row_maps.pop(record.table, None)
                    else:
                        self.catalog.drop_view(record.table, if_exists=True)
                elif kind in ("insert", "delete"):
                    if record.tid == NO_TID:
                        # Bootstrap rows (bulk_load) are visible to every
                        # snapshot and carry no commit record.
                        try:
                            table = self.catalog.table(record.table)
                            new_id = table._append_row(
                                list(record.payload), NO_TID, validate_unique=True
                            )
                        except (CatalogError, ConstraintError) as exc:
                            skipped += self._skip_unreplayable(record.lsn, exc)
                            continue
                        row_maps.setdefault(record.table, {})[record.row_id] = new_id
                        replayed += 1
                    elif record.tid in committed:
                        pending.setdefault(record.tid, []).append(record)
                elif kind == "commit":
                    ops = pending.pop(record.tid, None)
                    if ops:
                        try:
                            replayed += self._replay_txn(record.tid, ops, row_maps)
                        except (CatalogError, ConstraintError, TransactionError) as exc:
                            skipped += self._skip_unreplayable(record.lsn, exc, len(ops))
        self.metrics.counter("wal.replays").inc()
        self.metrics.counter("wal.replayed_rows").inc(replayed)
        if skipped:
            self.metrics.counter("wal.replay_skips").inc(skipped)

    def _skip_unreplayable(self, lsn: int, exc: Exception, count: int = 1) -> int:
        """Degrade, don't die: a log whose context is gone (e.g. the only
        checkpoint corrupted away the covering DDL) still recovers what it
        can.  Atomicity holds — whole transactions are skipped, never
        prefixes — and the loss is loud: a warning now, ``wal.replay_skips``
        in the registry, and a degraded :meth:`health` until restart."""
        warnings.warn(
            f"recovery: skipping unreplayable record(s) at lsn {lsn} "
            f"({type(exc).__name__}: {exc})",
            stacklevel=3,
        )
        return count

    def _replay_txn(self, tid: int, ops: list, row_maps: dict) -> int:
        """Replay one committed transaction atomically.

        The ``wal.replay`` fault point fires *before* the replay
        transaction begins, and any replay error rolls it back — either
        way, no half-replayed transaction is ever left visible.
        """
        self.faults.fire("wal.replay", tid=tid)
        txn = self.begin()
        applied = 0
        try:
            for record in ops:
                table = self.catalog.table(record.table)
                mapping = row_maps.setdefault(record.table, {})
                if record.kind == "insert":
                    mapping[record.row_id] = table.insert(txn, record.payload)
                else:
                    mapped = mapping.get(record.payload)
                    if mapped is None:
                        raise TransactionError(
                            f"recovery: delete of unknown row {record.payload} "
                            f"in {record.table!r}"
                        )
                    table.delete_row(txn, mapped)
                applied += 1
        except Exception:
            self.rollback(txn)
            raise
        self.commit(txn)
        return applied

    def close(self) -> None:
        """Release the on-disk WAL's file handle and the capture file
        (no-ops otherwise).  An attached serving layer is drained first so
        no in-flight statement sees the WAL handle vanish under it."""
        serving = self.serving
        if serving is not None and not serving.closed:
            serving.shutdown()
        wal = self.wal
        if wal is not None and hasattr(wal, "close"):
            wal.close()
        if self.capture is not None:
            self.capture.close()
