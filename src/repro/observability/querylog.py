"""The engine-wide query log: the one per-statement and per-operator record.

Every query statement — cold plan, plan-cache hit, EXPLAIN ANALYZE, or
one that failed before it could be parsed — produces one
:class:`QueryLogEntry` on completion (success, error, or timeout) from
the statement runner's single telemetry step, ``Database._finish``, with
the per-phase timing breakdown (parse/bind/optimize/execute), the row
count, and the rewrite-fire tally.  That one object is the
``sys.query_log`` row, a successful query's ``result.stats``, and — past
the slow-log threshold — the slow-log entry: the slow log holds
references to log entries, and only those entries carry the slow-only
detail (rendered plan, plan summary, span tree).

Per-operator telemetry is the collector's own
:class:`~repro.observability.instrument.OperatorStats`, stamped at
statement end with its query id, pre-order index, estimate and Q-error.
Each query's group lands in one operator ring keyed by the same
``query_id``: ``sys.plan_feedback`` is every row of it,
``sys.operator_stats`` the rows of operators that executed — so the two
tables always retain the same queries.

Entries are appended *after* the query finishes, so a query over
``sys.query_log`` never observes itself mid-flight; once it completes it
appears exactly once (the invariant the fuzz corpus pins down).
Per-query operator groups are appended atomically (one ``extend`` under
the lock), so a concurrent scan sees either all of a query's rows or
none of them — never a torn group.

Both buffers are bounded deques — a long-lived process cannot leak memory
into its own diagnostics — and every access goes through one lock, so
threaded writers never corrupt a concurrent snapshot.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Iterator

from ..sql.normalize import shape_hash
from .instrument import OperatorStats

DEFAULT_QUERY_CAPACITY = 256
DEFAULT_OPERATOR_CAPACITY = 2048


@dataclass
class QueryLogEntry:
    """One completed statement.

    Example::

        result = db.query("select o.o_orderkey from orders o "
                          "left outer join customer c "
                          "on o.o_custkey = c.c_custkey")
        result.stats is db.query_log.last()   # True
        result.stats.elapsed_s          # e.g. 0.0021 (lex through execution)
        result.stats.operators_before   # 4  (Project, Join, 2x Scan)
        result.stats.operators_after    # 2  (Project, Scan)
        result.stats.rewrite_fires      # {"AJ 2a": 1}
    """

    #: Engine-wide statement id (``q1``, ``q2``, ...) — the join key into
    #: ``sys.operator_stats``, spans and the capture records.
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
    #: Named rewrite case -> fire count for this statement.
    rewrite_fires: dict[str, int]
    #: Monotonic statement sequence number — lets incremental consumers
    #: (the shape-baseline tracker) resume where they left off without
    #: rescanning the whole ring.
    seq: int = 0
    #: Slow-only detail, set when the statement crosses the slow-log
    #: threshold: the optimized plan rendered, a one-line physical
    #: operator chain, and the span tree when tracing was on.
    plan: str | None = None
    plan_summary: str | None = None
    span_root: object = None
    _shape: str | None = None

    @property
    def shape(self) -> str | None:
        """Lazy shape hash — computed on first read (scan time), never on
        the query hot path."""
        if self._shape is None and self.sql is not None:
            self._shape = shape_hash(self.sql)
        return self._shape

    @property
    def operators_removed(self) -> int:
        return self.operators_before - self.operators_after

    @property
    def recorded_at(self) -> float:
        """Unix timestamp of completion."""
        return self.started_at + self.elapsed_s

    def summary(self) -> str:
        sql = self.sql or "(unknown sql)"
        if len(sql) > 80:
            sql = sql[:77] + "..."
        line = f"{self.elapsed_s * 1e3:8.3f}ms  [{self.query_id}] {sql}"
        if self.plan_summary:
            line += f"\n           plan: {self.plan_summary}"
        return line

    def to_dict(self) -> dict:
        out = {
            "query_id": self.query_id,
            "sql": self.sql,
            "elapsed_ms": self.elapsed_s * 1e3,
            "recorded_at": self.recorded_at,
            "plan": self.plan,
            "plan_summary": self.plan_summary,
            "rewrite_fires": dict(self.rewrite_fires),
        }
        if self.span_root is not None:
            out["spans"] = self.span_root.to_dict()
        return out


class QueryLog:
    """Bounded, lock-guarded rings of statement and operator records."""

    def __init__(
        self,
        capacity: int = DEFAULT_QUERY_CAPACITY,
        operator_capacity: int = DEFAULT_OPERATOR_CAPACITY,
    ):
        self._lock = threading.Lock()
        self._entries: deque[QueryLogEntry] = deque(maxlen=capacity)
        self._operators: deque[OperatorStats] = deque(maxlen=operator_capacity)

    @property
    def capacity(self) -> int:
        return self._entries.maxlen or 0

    def configure(
        self, capacity: int | None = None, operator_capacity: int | None = None,
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

    def record(self, entry: QueryLogEntry) -> None:
        with self._lock:
            self._entries.append(entry)

    def record_operators(self, group: list[OperatorStats]) -> None:
        """Append one query's operator records (atomically)."""
        with self._lock:
            self._operators.extend(group)

    def entries(self) -> list[QueryLogEntry]:
        with self._lock:
            return list(self._entries)

    def operator_rows(self) -> list[OperatorStats]:
        """The ``sys.operator_stats`` view: operators that executed."""
        return [o for o in self.feedback_rows() if not o.never_executed]

    def feedback_rows(self) -> list[OperatorStats]:
        """The ``sys.plan_feedback`` view: every operator of every plan."""
        with self._lock:
            return list(self._operators)

    def last(self) -> QueryLogEntry | None:
        with self._lock:
            return self._entries[-1] if self._entries else None

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._operators.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __iter__(self) -> Iterator[QueryLogEntry]:
        return iter(self.entries())
