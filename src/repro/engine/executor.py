"""Plan execution entry point.

The executor no longer interprets logical plans itself: it compiles the
(bound, optionally optimized) logical plan into a physical operator tree
(:mod:`repro.optimizer.physical_planner` → :mod:`repro.engine.physical`)
and drains the root operator's batch stream.  All pipelining, early
termination, block pruning, deadline checks, and instrumentation live in
the physical layer; this module keeps the statement-level concerns —
scalar-subquery resolution, the dead-column analysis that scans use to
read only live columns, and the materialized :class:`QueryResult`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..algebra import ops
from ..algebra.expr import Expr
from ..errors import ExecutionError
from ..storage.mvcc import Transaction
from . import kernels
from .chunk import Chunk
from .physical import DEFAULT_BATCH_SIZE, ExecContext

if TYPE_CHECKING:
    from ..observability.querylog import QueryLogEntry


@dataclass
class QueryResult:
    """A fully materialized query result."""

    column_names: list[str]
    rows: list[tuple]
    #: The statement's query-log record, set by the :class:`Database`
    #: facade (``elapsed_s``, ``operators_before``/``operators_after``,
    #: ``rewrite_fires``, ``query_id``, ...).
    stats: QueryLogEntry | None = None

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def scalar(self) -> object:
        """The single value of a 1x1 result."""
        if len(self.rows) != 1 or len(self.column_names) != 1:
            raise ExecutionError(
                f"scalar() needs a 1x1 result, got {len(self.rows)}x{len(self.column_names)}"
            )
        return self.rows[0][0]

    def column(self, name: str) -> list:
        index = self.column_names.index(name)
        return [row[index] for row in self.rows]

    def to_dicts(self) -> list[dict[str, object]]:
        return [dict(zip(self.column_names, row)) for row in self.rows]


class Executor:
    """Executes logical plans against catalog storage under a snapshot.

    Pass a :class:`repro.observability.instrument.ExecutionCollector` to
    :meth:`execute` to capture per-physical-operator actual rows, batch
    counts, wall times, and early-termination flags (the EXPLAIN ANALYZE
    machinery).  Without a collector the only instrumentation overhead is
    a couple of ``is None`` checks per batch.
    """

    def __init__(
        self, catalog, metrics=None, tracer=None, faults=None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        memory_budget_bytes: int | None = None, vectorized: bool = True,
    ):
        self._catalog = catalog
        self._tracer = tracer
        self._faults = faults
        self._batch_size = max(1, batch_size)
        #: Soft per-query memory budget (estimated bytes); None = unlimited.
        self._memory_budget = memory_budget_bytes
        #: Vectorized kernels on (the default) or forced off — the scalar
        #: arm of the fuzz differential oracle and A/B benchmarks.
        self._vectorized = vectorized
        # Pre-resolved metric handles (these are per-batch hot paths).
        if metrics is None:
            self._m_blocks_pruned = None
            self._m_blocks_scanned = None
            self._m_batches = None
            self._m_early = None
            self._m_peak = None
            self._m_op_peak = None
            self._m_budget = None
            self._m_kernel_calls = None
            self._m_rows_selected = None
            self._m_dict_compares = None
            self._m_topn = None
        else:
            self._m_blocks_pruned = metrics.counter("nse.blocks_pruned")
            self._m_blocks_scanned = metrics.counter("nse.blocks_scanned")
            self._m_batches = metrics.counter("exec.batches_produced")
            self._m_early = metrics.counter("exec.early_terminations")
            self._m_peak = metrics.histogram("exec.peak_batch_rows")
            self._m_op_peak = metrics.histogram("exec.operator_peak_bytes")
            self._m_budget = metrics.counter("exec.memory_budget_exceeded")
            self._m_kernel_calls = metrics.counter("exec.kernel_calls")
            self._m_rows_selected = metrics.counter("exec.rows_selected")
            self._m_dict_compares = metrics.counter("exec.dict_compares")
            self._m_topn = metrics.counter("exec.topn_heap_evictions")

    @property
    def batch_size(self) -> int:
        return self._batch_size

    def compile(self, plan: ops.LogicalOp):
        """Compile a logical plan to its physical operator tree, every
        operator stamped with its estimated rows."""
        # Imported lazily: the planner imports the engine package.
        from ..optimizer.physical_planner import create_physical_plan

        return create_physical_plan(plan, self._catalog)

    def execute(
        self, plan: ops.LogicalOp, txn: Transaction, collector=None,
        deadline: float | None = None,
    ) -> QueryResult:
        """Resolve scalar subqueries under ``txn``, compile, and run.

        ``deadline`` is the cooperative statement deadline (a
        ``time.monotonic()`` value checked inside every operator's
        per-batch loop; None means no timeout).  Scalar subqueries run
        under the same deadline and collector — the time budget is per
        statement, and EXPLAIN ANALYZE's rows_scanned counts subquery
        scans too.
        """
        # Scalar-subquery resolution may rewrite the tree; the resolved
        # tree is the one that runs, so EXPLAIN ANALYZE annotates it.
        resolved = self._resolve_scalar_subqueries(plan, txn, collector, deadline)
        physical = self.compile(resolved)
        return self.execute_physical(resolved, physical, txn, collector, deadline)

    def execute_physical(
        self, resolved: ops.LogicalOp, physical, txn: Transaction,
        collector=None, deadline: float | None = None,
    ) -> QueryResult:
        """Stream a prebuilt physical operator tree to completion and
        materialize the result (a plan-cache hit starts here).

        ``resolved`` is the logical plan the tree was compiled from — only
        its ``output`` columns are consulted, for result naming.  The tree
        must be free of scalar subqueries (the cache refuses such plans).
        """
        # Each execution gets its own kernel tally (a nested scalar-subquery
        # execute tallies separately and restores ours); activating None is
        # the vectorized=False gate — kernels never engage without a tally.
        tally = kernels.KernelTally() if self._vectorized else None
        previous_tally = kernels.activate(tally)
        try:
            if collector is not None:
                collector.root = physical
            ctx = ExecContext(
                self._catalog, txn,
                batch_size=self._batch_size,
                deadline=deadline,
                collector=collector,
                faults=self._faults,
                tracer=self._tracer,
                m_batches=self._m_batches,
                m_early=self._m_early,
                m_blocks_pruned=self._m_blocks_pruned,
                m_blocks_scanned=self._m_blocks_scanned,
                memory_budget=self._memory_budget,
                m_budget=self._m_budget,
                vectorized=self._vectorized,
                m_topn=self._m_topn,
            )
            stream = physical.execute(ctx)
            try:
                batches = list(stream)
            finally:
                stream.close()
            if tally is not None:
                self._flush_tally(tally, physical, collector)
            if self._m_peak is not None and ctx.peak_batch_rows:
                self._m_peak.observe(ctx.peak_batch_rows)
            if self._m_op_peak is not None:
                for nbytes in ctx.op_bytes.values():
                    self._m_op_peak.observe(nbytes)
            names = [c.name for c in resolved.output]
            if not batches:
                return QueryResult(names, [])
            chunk = Chunk.concat(batches)
            cids = [c.cid for c in resolved.output]
            return QueryResult(names, chunk.rows(cids))
        finally:
            kernels.activate(previous_tally)

    def _flush_tally(self, tally, physical, collector) -> None:
        """Fold this execution's kernel accounting into the engine-wide
        counters and (when instrumented) the per-operator collector."""
        if tally.calls or tally.dict_compares:
            if self._m_kernel_calls is not None:
                self._m_kernel_calls.inc(tally.calls)
                self._m_rows_selected.inc(tally.rows_selected)
                self._m_dict_compares.inc(tally.dict_compares)
        if collector is not None and tally.per_op:
            for op in physical.walk():
                entry = tally.per_op.get(id(op))
                if entry is not None:
                    collector.record_kernels(op, *entry)

    def _resolve_scalar_subqueries(
        self, plan: ops.LogicalOp, txn: Transaction, collector=None,
        deadline: float | None = None,
    ) -> ops.LogicalOp:
        """Evaluate uncorrelated scalar subqueries to constants under this
        query's snapshot, then substitute them into the plan."""
        from ..algebra.expr import Const, ScalarSubquery, rewrite_expr, walk
        from ..algebra.ops import rewrite_op_exprs

        def has_subquery(expr: Expr) -> bool:
            return any(isinstance(node, ScalarSubquery) for node in walk(expr))

        # Fast path: most plans have no scalar subqueries at all.
        def plan_has_subquery(node: ops.LogicalOp) -> bool:
            if isinstance(node, ops.Project):
                if any(has_subquery(e) for _, e in node.items):
                    return True
            elif isinstance(node, ops.Filter):
                if has_subquery(node.predicate):
                    return True
            elif isinstance(node, ops.Join):
                if node.condition is not None and has_subquery(node.condition):
                    return True
            elif isinstance(node, ops.Aggregate):
                if any(c.arg is not None and has_subquery(c.arg) for _, c in node.aggs):
                    return True
            return any(plan_has_subquery(child) for child in node.children)

        if not plan_has_subquery(plan):
            return plan

        def resolve_expr(expr: Expr) -> Expr:
            if not has_subquery(expr):
                return expr

            def substitute(node: Expr) -> Expr | None:
                if isinstance(node, ScalarSubquery):
                    result = self.execute(  # type: ignore[arg-type]
                        node.plan, txn, collector, deadline
                    )
                    if len(result.rows) > 1:
                        raise ExecutionError(
                            f"scalar subquery returned {len(result.rows)} rows"
                        )
                    value = result.rows[0][0] if result.rows else None
                    return Const(value, node.data_type)
                return None

            return rewrite_expr(expr, substitute)

        return rewrite_op_exprs(plan, resolve_expr)
