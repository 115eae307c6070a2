"""The engine-wide query log: the ring buffer behind ``sys.query_log``.

Every query statement — cold plan, plan-cache hit, EXPLAIN ANALYZE, or
one that failed before it could be parsed — appends one
:class:`QueryLogEntry` on completion (success, error, or timeout) from
the statement runner's single telemetry step, ``Database._finish``, with
the per-phase timing breakdown (parse/bind/optimize/execute), the row
count, and the rewrite-fire total.  A second ring keeps per-operator
execution stats (:class:`OperatorStatRow`) for every completed query —
plan feedback made span tracing unnecessary for operator actuals — keyed
by the same ``query_id`` so ``sys.query_log`` and ``sys.operator_stats``
join in SQL.  A third ring holds per-operator est/actual/Q-error records
(:class:`repro.observability.feedback.PlanFeedbackRow`) behind
``sys.plan_feedback``.

Entries are appended *after* the query finishes, so a query over
``sys.query_log`` never observes itself mid-flight; once it completes it
appears exactly once (the invariant the fuzz corpus pins down).
Per-query operator and feedback groups are appended atomically (one
``extend`` under the lock), so a concurrent scan sees either all of a
query's rows or none of them — never a torn group.

All buffers are bounded deques — a long-lived process cannot leak memory
into its own diagnostics — and every access goes through one lock, so
threaded writers never corrupt a concurrent snapshot.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Iterator

from ..sql.normalize import shape_hash
from .feedback import PlanFeedbackRow

DEFAULT_QUERY_CAPACITY = 256
DEFAULT_OPERATOR_CAPACITY = 1024
DEFAULT_FEEDBACK_CAPACITY = 2048


@dataclass
class QueryLogEntry:
    """One completed statement."""

    query_id: str
    sql: str | None
    status: str                     # "ok" | "error" | "timeout"
    error: str | None
    started_at: float               # unix timestamp
    elapsed_s: float
    parse_s: float | None
    bind_s: float | None
    optimize_s: float | None
    execute_s: float | None
    rows: int | None
    operators_before: int
    operators_after: int
    rewrite_fires: int
    #: Monotonic statement sequence number — lets incremental consumers
    #: (the shape-baseline tracker) resume where they left off without
    #: rescanning the whole ring.
    seq: int = 0
    _shape: str | None = None

    @property
    def shape(self) -> str | None:
        """Lazy shape hash — computed on first read (scan time), never on
        the query hot path."""
        if self._shape is None and self.sql is not None:
            self._shape = shape_hash(self.sql)
        return self._shape


@dataclass
class OperatorStatRow:
    """Per-operator actuals for one completed query."""

    query_id: str
    operator: str
    rows_out: int
    batches: int
    elapsed_s: float
    is_scan: bool
    early_terminated: bool
    #: Vectorized-kernel accounting (all zero when the scalar path ran).
    kernel_calls: int = 0
    kernel_s: float = 0.0
    rows_selected: int = 0
    dict_compares: int = 0
    #: Bounded-heap TopN displacements (non-zero only for TopN operators).
    heap_evictions: int = 0


class QueryLog:
    """Bounded, lock-guarded ring buffers of query/operator/feedback rows."""

    def __init__(
        self,
        capacity: int = DEFAULT_QUERY_CAPACITY,
        operator_capacity: int = DEFAULT_OPERATOR_CAPACITY,
        feedback_capacity: int = DEFAULT_FEEDBACK_CAPACITY,
    ):
        self._lock = threading.Lock()
        self._entries: deque[QueryLogEntry] = deque(maxlen=capacity)
        self._operators: deque[OperatorStatRow] = deque(maxlen=operator_capacity)
        self._feedback: deque[PlanFeedbackRow] = deque(maxlen=feedback_capacity)

    @property
    def capacity(self) -> int:
        return self._entries.maxlen or 0

    def configure(
        self, capacity: int | None = None, operator_capacity: int | None = None,
        feedback_capacity: int | None = None,
    ) -> None:
        """Resize the retention rings (existing entries are kept, oldest
        first to go)."""
        with self._lock:
            if capacity is not None and capacity != self._entries.maxlen:
                self._entries = deque(self._entries, maxlen=capacity)
            if (
                operator_capacity is not None
                and operator_capacity != self._operators.maxlen
            ):
                self._operators = deque(
                    self._operators, maxlen=operator_capacity
                )
            if (
                feedback_capacity is not None
                and feedback_capacity != self._feedback.maxlen
            ):
                self._feedback = deque(self._feedback, maxlen=feedback_capacity)

    def record(self, entry: QueryLogEntry) -> None:
        with self._lock:
            self._entries.append(entry)

    def record_operators(self, query_id: str, collector) -> None:
        """Flatten an ExecutionCollector's per-operator stats into the ring.

        ``collector.root`` is the executed physical tree; operators are
        appended in depth-first plan order, atomically per query.
        """
        root = getattr(collector, "root", None)
        if root is None:
            return
        rows = []
        for op in root.walk():
            stats = collector.stats_for(op)
            if stats is None:
                continue
            rows.append(
                OperatorStatRow(
                    query_id=query_id,
                    operator=stats.label,
                    rows_out=stats.rows_out,
                    batches=stats.chunks,
                    elapsed_s=stats.elapsed_s,
                    is_scan=stats.is_scan,
                    early_terminated=stats.early_terminated,
                    kernel_calls=stats.kernel_calls,
                    kernel_s=stats.kernel_s,
                    rows_selected=stats.rows_selected,
                    dict_compares=stats.dict_compares,
                    heap_evictions=stats.heap_evictions,
                )
            )
        if rows:
            with self._lock:
                self._operators.extend(rows)

    def record_feedback(self, rows: list[PlanFeedbackRow]) -> None:
        """Append one query's plan-feedback rows (atomically)."""
        if rows:
            with self._lock:
                self._feedback.extend(rows)

    def entries(self) -> list[QueryLogEntry]:
        with self._lock:
            return list(self._entries)

    def operator_rows(self) -> list[OperatorStatRow]:
        with self._lock:
            return list(self._operators)

    def feedback_rows(self) -> list[PlanFeedbackRow]:
        with self._lock:
            return list(self._feedback)

    def last(self) -> QueryLogEntry | None:
        with self._lock:
            return self._entries[-1] if self._entries else None

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._operators.clear()
            self._feedback.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __iter__(self) -> Iterator[QueryLogEntry]:
        return iter(self.entries())
