"""Hierarchical span tracing across the full query lifecycle.

An OTel-style span model with no external dependencies: a :class:`Span`
has an id, a parent id, wall-clock start/end times, attributes, and
point-in-time events; spans nest into a tree.  The
:class:`~repro.database.Database` facade owns one :class:`SpanTracer` and,
when tracing is enabled, opens a root ``query`` span per statement with
children for

- ``parse``  — lex + plan-cache probe, + parse unless the probe hit,
- ``bind``   — name resolution / algebra construction (a plan-cache hit
  skips this and ``optimize``),
- ``optimize`` — the rewrite pipeline, with one child span per fixpoint
  iteration and one per rule pass,
- ``execute``  — plan execution, with one child span per plan operator
  (reconstructed from the EXPLAIN ANALYZE
  :class:`~repro.observability.instrument.ExecutionCollector`).

Storage touchpoints (WAL appends, MVCC commits, NSE block pruning,
cached-view hits/misses) attach *events* to whatever span is current —
cheaper than a full child span, and exactly the shape the OTel API uses
for the same purpose.

**Zero-cost-when-disabled invariant:** every hot-path call site either
checks ``tracer.enabled`` (one attribute load + branch) before doing any
span work, or calls :meth:`SpanTracer.event`, which returns immediately
when disabled.  No span objects, no clock reads, no string formatting
happen on the disabled path.

Example::

    db = Database()
    db.tracing = True
    db.query("select * from journalentryitembrowser limit 5")
    root = db.last_trace.span_root
    root.name                       # "query"
    [c.name for c in root.children] # ["parse", "bind", "optimize", "execute"]
    print(render_span_tree(root))   # indented text tree with timings
"""

from __future__ import annotations

import itertools
import threading
import time

# Events are capped per span so a bulk DML statement under tracing cannot
# balloon memory; the overflow count is kept instead.
MAX_EVENTS_PER_SPAN = 128

_ids = itertools.count(1)


class SpanEvent:
    """A point-in-time annotation on a span (e.g. one WAL append)."""

    __slots__ = ("name", "at_s", "attributes")

    def __init__(self, name: str, at_s: float, attributes: dict):
        self.name = name
        self.at_s = at_s
        self.attributes = attributes

    def to_dict(self, base_s: float) -> dict:
        out = {"name": self.name, "offset_ms": (self.at_s - base_s) * 1e3}
        if self.attributes:
            out["attributes"] = self.attributes
        return out


class Span:
    """One node of a span tree."""

    __slots__ = ("name", "span_id", "parent_id", "trace_id", "start_s",
                 "end_s", "started_at", "attributes", "events", "children",
                 "dropped_events")

    def __init__(self, name: str, parent: "Span | None" = None,
                 attributes: dict | None = None):
        self.name = name
        self.span_id = next(_ids)
        self.parent_id = None if parent is None else parent.span_id
        self.trace_id = self.span_id if parent is None else parent.trace_id
        self.start_s = time.perf_counter()
        self.end_s: float | None = None
        # Wall-clock anchor (perf_counter has an arbitrary epoch).
        self.started_at = time.time()
        self.attributes = attributes if attributes is not None else {}
        self.events: list[SpanEvent] = []
        self.children: list[Span] = []
        self.dropped_events = 0
        if parent is not None:
            parent.children.append(self)

    @property
    def duration_s(self) -> float | None:
        if self.end_s is None:
            return None
        return self.end_s - self.start_s

    def add_event(self, name: str, attributes: dict) -> None:
        if len(self.events) >= MAX_EVENTS_PER_SPAN:
            self.dropped_events += 1
            return
        self.events.append(SpanEvent(name, time.perf_counter(), attributes))

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> "Span | None":
        """The first span named ``name`` in a depth-first walk."""
        for span in self.walk():
            if span.name == name:
                return span
        return None

    def to_dict(self, base_s: float | None = None) -> dict:
        """JSON-friendly tree (offsets are relative to the tree root)."""
        if base_s is None:
            base_s = self.start_s
        duration = self.duration_s
        out: dict = {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "trace_id": self.trace_id,
            "start_offset_ms": (self.start_s - base_s) * 1e3,
            "duration_ms": None if duration is None else duration * 1e3,
        }
        if self.parent_id is None:
            out["started_at_unix"] = self.started_at
        if self.attributes:
            out["attributes"] = dict(self.attributes)
        if self.events:
            out["events"] = [e.to_dict(base_s) for e in self.events]
        if self.dropped_events:
            out["dropped_events"] = self.dropped_events
        if self.children:
            out["children"] = [c.to_dict(base_s) for c in self.children]
        return out


class _ActiveSpan:
    """Context manager that ends its span on exit (failure included)."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "SpanTracer", span: Span):
        self._tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.span.attributes["error"] = exc_type.__name__
        self._tracer.end(self.span)
        return False


class _NullSpanContext:
    """Shared no-op context manager for the disabled path."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN_CONTEXT = _NullSpanContext()


class SpanTracer:
    """Owns the per-thread span stack and the last finished root tree.

    Disabled by default; :attr:`repro.database.Database.tracing` flips it
    together with rewrite tracing.  All state is per-thread (concurrent
    sessions each build their own tree); :attr:`last_root` keeps the most
    recently *completed* root span for inspection and export.
    """

    def __init__(self) -> None:
        self.enabled = False
        self._local = threading.local()
        self.last_root: Span | None = None

    # -- stack accessors ----------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def root(self) -> Span | None:
        """The root of the tree currently being built (None when idle)."""
        stack = self._stack()
        return stack[0] if stack else None

    # -- recording ----------------------------------------------------------

    def start(self, name: str, **attributes) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(name, parent, attributes or None)
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end_s = time.perf_counter()
        stack = self._stack()
        # Tolerate out-of-order ends (exceptions unwinding several frames).
        while stack and stack[-1] is not span:
            dangling = stack.pop()
            if dangling.end_s is None:
                dangling.end_s = span.end_s
        if stack:
            stack.pop()
        if not stack:
            self.last_root = span

    def span(self, name: str, **attributes):
        """``with tracer.span("optimize"):`` — no-op when disabled."""
        if not self.enabled:
            return _NULL_SPAN_CONTEXT
        return _ActiveSpan(self, self.start(name, **attributes))

    def event(self, name: str, **attributes) -> None:
        """Attach an event to the current span; silently dropped when
        disabled or when no span is open (e.g. maintenance work outside a
        traced query)."""
        if not self.enabled:
            return
        current = self.current()
        if current is not None:
            current.add_event(name, attributes)


def attach_operator_spans(parent: Span, collector) -> None:
    """Reconstruct per-operator child spans under an ``execute`` span.

    The executor's :class:`ExecutionCollector` records each physical
    operator's inclusive wall time and output rows but not start offsets,
    so operator spans are *synthetic*: each starts at its parent's start
    and lasts its recorded inclusive time.  Operators whose stream never
    opened (e.g. the skipped side of an answered EXISTS) carry a
    ``skipped`` attribute and zero duration; early-terminated streams
    carry ``early_terminated``.
    """
    plan = collector.root
    if plan is None:
        return

    def build(op, parent_span: Span) -> None:
        stats = collector.stats_for(op)
        span = Span(f"op:{op.label()}", parent_span)
        span.start_s = parent_span.start_s
        span.started_at = parent_span.started_at
        if stats is not None:
            span.end_s = span.start_s + stats.elapsed_s
            span.attributes["rows"] = stats.rows_out
            span.attributes["batches"] = stats.chunks
            if stats.early_terminated:
                span.attributes["early_terminated"] = True
        else:
            span.end_s = span.start_s
            span.attributes["skipped"] = True
        for child in op.children:
            build(child, span)

    build(plan, parent)


def render_span_tree(root: Span) -> str:
    """An indented text rendering of one span tree (CLI surface)."""
    lines: list[str] = []

    def visit(span: Span, depth: int) -> None:
        duration = span.duration_s
        timing = "open" if duration is None else f"{duration * 1e3:.3f}ms"
        attrs = "".join(
            f" {k}={v}" for k, v in span.attributes.items() if k != "sql"
        )
        lines.append(f"{'  ' * depth}{span.name}  {timing}{attrs}")
        for event in span.events:
            detail = "".join(f" {k}={v}" for k, v in event.attributes.items())
            lines.append(f"{'  ' * (depth + 1)}@ {event.name}{detail}")
        if span.dropped_events:
            lines.append(
                f"{'  ' * (depth + 1)}@ ... {span.dropped_events} more event(s)"
            )
        for child in span.children:
            visit(child, depth + 1)

    visit(root, 0)
    return "\n".join(lines)
