"""Executor instrumentation: per-operator runtime statistics.

An :class:`ExecutionCollector` is handed to
:meth:`repro.engine.executor.Executor.execute`; the physical operators then
record, for every batch they stream, the rows produced, the batch count,
and the per-batch wall time.  ``Database.explain(sql, analyze=True)`` runs
a query under a collector and annotates the physical plan tree with the
actual counts — the classic EXPLAIN ANALYZE surface.

Operators that open but get closed by a downstream consumer before their
stream is exhausted (a satisfied LIMIT, an answered EXISTS, an early-out
join probe) are flagged ``early-terminated``; operators that never open at
all (e.g. the probe side of an EXISTS that was answered by the other side)
are annotated ``(never executed)``.

:class:`OperatorStats` is also the engine's one per-operator telemetry
record: at statement end ``Database._finish`` stamps each executed plan's
records with their query id, plan position, estimate and Q-error and
appends them to the query log's operator ring, the storage behind
``sys.operator_stats`` and ``sys.plan_feedback``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..algebra import ops


@dataclass
class OperatorStats:
    """Runtime statistics for one plan operator."""

    #: Full display label, e.g. ``HashJoin[build=right]``.
    label: str
    rows_out: int = 0
    chunks: int = 0       # batches produced
    elapsed_s: float = 0.0  # inclusive of children
    is_scan: bool = False
    early_terminated: bool = False
    #: Peak estimated bytes held (blocking operators only; 0 for streamers).
    peak_bytes: int = 0
    #: Vectorized-kernel accounting (0 when the scalar path ran).
    kernel_calls: int = 0
    rows_selected: int = 0
    dict_compares: int = 0
    kernel_s: float = 0.0
    #: Bounded-heap TopN rows displaced after the heap filled.
    heap_evictions: int = 0
    #: Stamped at statement end: the statement, the pre-order position in
    #: its physical plan (root = 0), the operator class (``HashJoin`` —
    #: the misestimate-counter key), the optimizer's estimate and the
    #: Q-error against ``rows_out`` (None when the plan was not stamped
    #: with estimates).
    query_id: str | None = None
    op_index: int = 0
    kind: str = ""
    est_rows: float | None = None
    qerror: float | None = None
    #: The operator never opened at all (e.g. the skipped side of an
    #: answered EXISTS); ``rows_out`` is 0 by construction.
    never_executed: bool = False


@dataclass
class ExecutionCollector:
    """Accumulates per-operator stats during one (or more) executions.

    Keyed by operator object identity: plans are trees of distinct nodes,
    so ``id(op)`` is a stable key for the lifetime of the plan.
    """

    _stats: dict[int, OperatorStats] = field(default_factory=dict)
    root: object = None       # the plan tree actually executed
    elapsed_s: float = 0.0    # total execution wall time
    result_rows: int = 0

    def _entry(self, op) -> OperatorStats:
        stats = self._stats.get(id(op))
        if stats is None:
            # Physical operators carry a duck-typed ``is_scan_op`` marker;
            # logical Scan is still recognized for direct (test) callers.
            is_scan = isinstance(op, ops.Scan) or getattr(op, "is_scan_op", False)
            stats = OperatorStats(op.label(), is_scan=is_scan)
            self._stats[id(op)] = stats
        return stats

    def open_op(self, op) -> None:
        """Register an operator whose stream opened (it may produce 0 rows)."""
        self._entry(op)

    def record(self, op, rows: int, elapsed_s: float) -> None:
        stats = self._entry(op)
        stats.rows_out += rows
        stats.chunks += 1
        stats.elapsed_s += elapsed_s

    def mark_early(self, op) -> None:
        """Flag that a consumer closed this operator's stream early."""
        self._entry(op).early_terminated = True

    def record_memory(self, op, nbytes: int) -> None:
        """Record a blocking operator's current estimated state size."""
        stats = self._entry(op)
        if nbytes > stats.peak_bytes:
            stats.peak_bytes = nbytes

    def record_kernels(
        self, op, calls: int, rows_selected: int, dict_compares: int,
        elapsed_s: float,
    ) -> None:
        """Fold one execution's kernel tally for this operator in."""
        stats = self._entry(op)
        stats.kernel_calls += calls
        stats.rows_selected += rows_selected
        stats.dict_compares += dict_compares
        stats.kernel_s += elapsed_s

    def record_evictions(self, op, evictions: int) -> None:
        """Record a TopN operator's heap-eviction count."""
        self._entry(op).heap_evictions += evictions

    def stats_for(self, op) -> OperatorStats | None:
        return self._stats.get(id(op))

    def rows_scanned(self) -> int:
        """Total rows produced by scan operators (post-MVCC visibility)."""
        return sum(s.rows_out for s in self._stats.values() if s.is_scan)

    def operator_count(self) -> int:
        return len(self._stats)

    def annotation(self, op) -> str:
        """The EXPLAIN ANALYZE suffix for one plan node.

        Includes the optimizer's estimated rows (the physical planner
        stamps every operator) and the resulting Q-error; falls back to
        the actual-only form for an unstamped operator.
        """
        est = getattr(op, "est_rows", None)
        stats = self._stats.get(id(op))
        if stats is None:
            if est is not None:
                return f"(est rows={est:.0f}, never executed)"
            return "(never executed)"
        early = ", early-terminated" if stats.early_terminated else ""
        peak = ""
        if stats.peak_bytes:
            peak = f", peak≈{stats.peak_bytes / 1024:.1f}KB"
        if stats.kernel_calls:
            peak += f", kernels={stats.kernel_calls}"
        if stats.heap_evictions:
            peak += f", evictions={stats.heap_evictions}"
        if est is not None:
            from .feedback import qerror

            q = qerror(est, stats.rows_out)
            return (
                f"(est rows={est:.0f} actual rows={stats.rows_out} "
                f"qerror={q:.2f} batches={stats.chunks} "
                f"time={stats.elapsed_s * 1e3:.3f}ms{early}{peak})"
            )
        return (
            f"(actual rows={stats.rows_out} batches={stats.chunks} "
            f"time={stats.elapsed_s * 1e3:.3f}ms{early}{peak})"
        )


def render_analyze(plan, collector) -> str:
    """EXPLAIN ANALYZE text: the annotated plan tree plus a summary."""
    from ..algebra.printer import explain

    tree = explain(
        collector.root if collector.root is not None else plan,
        annotate=collector.annotation,
    )
    summary = (
        f"execution: {collector.result_rows} row(s) in "
        f"{collector.elapsed_s * 1e3:.3f}ms, "
        f"{collector.rows_scanned()} row(s) scanned"
    )
    return f"{tree}\n{summary}"
