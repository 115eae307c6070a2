"""A ring-buffer slow-query log.

``Database.slow_queries`` is a :class:`SlowQueryLog`: set
``threshold_s`` to start capturing every query whose wall time meets it.
Its entries are the statements' own
:class:`~repro.observability.querylog.QueryLogEntry` records — the same
objects as ``result.stats`` and the ``sys.query_log`` rows — which, once
over the threshold, also keep the optimized plan and — when span tracing
was on — the full span tree, so a slow query can be diagnosed after the
fact without re-running it.  The buffer is bounded (oldest entries
evicted), so a long-lived process cannot leak memory into its own
diagnostics.

Example::

    db.slow_queries.threshold_s = 0.050      # 50ms
    ... serve traffic ...
    for entry in db.slow_queries:
        print(entry.summary())
    print(db.slow_queries.render())
"""

from __future__ import annotations

from collections import deque

from .querylog import QueryLogEntry

DEFAULT_CAPACITY = 32

#: ``configure`` default: leave the threshold as it is.
_UNCHANGED = object()


class SlowQueryLog:
    """Threshold-gated ring buffer of :class:`QueryLogEntry` references.

    Disabled until :attr:`threshold_s` is set (None means off) — the only
    hot-path cost while disabled is one attribute load and comparison.
    """

    def __init__(self, threshold_s: float | None = None,
                 capacity: int = DEFAULT_CAPACITY):
        self.threshold_s = threshold_s
        self._entries: deque[QueryLogEntry] = deque(maxlen=capacity)

    @property
    def capacity(self) -> int:
        return self._entries.maxlen or 0

    def configure(self, threshold_s=_UNCHANGED,
                  capacity: int | None = None) -> None:
        """Change only what is passed; ``threshold_s=None`` turns the log
        off."""
        if capacity is not None and capacity != self._entries.maxlen:
            self._entries = deque(self._entries, maxlen=capacity)
        if threshold_s is not _UNCHANGED:
            self.threshold_s = threshold_s

    def record(self, entry: QueryLogEntry) -> None:
        self._entries.append(entry)

    def entries(self) -> list[QueryLogEntry]:
        return list(self._entries)

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    def render(self) -> str:
        if not self._entries:
            return "(slow-query log empty)"
        threshold = (
            "disabled" if self.threshold_s is None
            else f"{self.threshold_s * 1e3:g}ms"
        )
        lines = [
            f"slow queries (threshold {threshold}, "
            f"{len(self._entries)}/{self.capacity} kept):"
        ]
        for entry in self._entries:
            lines.append("  " + entry.summary())
        return "\n".join(lines)
