"""Query observability: spans, rewrite tracing, EXPLAIN ANALYZE, metrics,
telemetry export, and the slow-query log.

Coordinated layers (see DESIGN.md, "Observability"):

1. **Span tracing** (:mod:`.spans`) — a hierarchical, OTel-style
   :class:`SpanTracer` threaded through the full query lifecycle
   (parse -> bind -> optimize -> execute -> storage events), exposed as
   ``db.last_trace.span_root`` when tracing is enabled.
2. **Rewrite tracing** (:mod:`.trace`) — a :class:`QueryTrace` threaded
   through the optimizer pipeline records which named rewrite cases fired
   (``AJ 1a``, ``AJ 2a``, ``ASJ``, ``union-uaj``, ...) per fixpoint
   iteration, queryable as structured events or rendered as a text report.
3. **Executor instrumentation** (:mod:`.instrument`) — per-operator actual
   rows / chunks / wall time, surfaced by ``Database.explain(sql,
   analyze=True)`` and as operator spans.
4. **Metrics** (:mod:`.metrics`) — a thread-safe
   :class:`MetricsRegistry` (counters, gauges, p50/p95 histograms) owned by
   the :class:`~repro.database.Database` facade.
5. **Export** (:mod:`.export` / :mod:`.server`) — Prometheus text format
   and JSON renderers plus a stdlib HTTP scrape endpoint
   (``repro serve-metrics``).
6. **Query log** (:mod:`.querylog`) — one :class:`QueryLogEntry` per
   statement (``sys.query_log``, ``result.stats``) and one ring of
   :class:`OperatorStats` records (``sys.operator_stats``,
   ``sys.plan_feedback``).  The **slow-query log** (:mod:`.slowlog`) is
   a threshold-gated ring of references to those entries, which then
   also keep the plan and span tree per offender.
7. **Plan feedback** (:mod:`.feedback` / :mod:`.baselines` /
   :mod:`.doctor`) — per-operator est/actual/Q-error, per-operator
   peak-memory accounting, per-shape rolling latency baselines with
   regression flags, and the ``repro doctor`` report over all three.

Tracing is zero-cost when disabled: the default :data:`NULL_TRACE` turns
every rewrite hook into a no-op, and every span call site checks a single
``enabled`` flag before touching the clock.
"""

from .trace import NULL_TRACE, NullTrace, QueryTrace, RewriteTally, TraceEvent  # noqa: F401
from .metrics import Counter, Gauge, Histogram, MetricsRegistry  # noqa: F401
from .instrument import (  # noqa: F401
    ExecutionCollector,
    OperatorStats,
    render_analyze,
)
from .spans import (  # noqa: F401
    Span,
    SpanEvent,
    SpanTracer,
    attach_operator_spans,
    render_span_tree,
)
from .export import (  # noqa: F401
    render_metrics_json,
    render_prometheus,
    render_spans_json,
)
from .slowlog import SlowQueryLog  # noqa: F401
from .server import MetricsServer  # noqa: F401
from .querylog import QueryLog, QueryLogEntry  # noqa: F401
from .feedback import MISESTIMATE_QERROR, qerror  # noqa: F401
from .baselines import ShapeBaselines, ShapeStats  # noqa: F401
from .doctor import doctor_report  # noqa: F401
