"""Rewrite tracing: which optimizations fired, where, and why.

The paper's evidence is *plan-shape* evidence — Tables 1-4 record which
rewrites (UAJ, limit pushdown, ASJ, the Union All interplay) fire per
engine.  This module makes the same provenance observable on our own
optimizer: a :class:`QueryTrace` rides through the pipeline and every rule
module records, per fixpoint iteration, the passes it ran and the *named*
rewrite cases that fired (``AJ 1a``, ``AJ 2a``, ``ASJ``, ``union-uaj``,
``limit-pushdown-aj``, ...).

Three trace levels keep the hot path honest:

- :data:`NULL_TRACE` — the no-op default.  Rules call ``trace.rewrite(...)``
  unconditionally; on the null trace that is a single no-op method call at
  *rewrite-fire* sites only (never per row), so disabled tracing costs
  nothing measurable.
- :class:`RewriteTally` — counting-only.  Aggregates case -> fire-count and
  the iteration count without building event objects; the
  :class:`~repro.observability.metrics.MetricsRegistry` is fed from this.
- :class:`QueryTrace` — full structured events plus a text report.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class TraceEvent:
    """One structured trace event.

    ``kind`` is one of:

    - ``"rewrite"``   — a named rewrite case fired (``name`` is the case);
    - ``"pass"``      — one optimizer pass ran (``detail`` records whether it
      changed the plan's structural signature and how many operators it
      removed; ``elapsed_s`` its wall time);
    - ``"iteration"`` — one fixpoint iteration finished;
    - ``"warning"``   — an anomaly, e.g. fixpoint non-convergence;
    - ``"execution"`` — runtime annotation attached by EXPLAIN ANALYZE.
    """

    kind: str
    name: str
    iteration: int | None = None
    detail: dict = field(default_factory=dict)
    elapsed_s: float | None = None

    def __str__(self) -> str:
        bits = [self.kind, self.name]
        if self.iteration is not None:
            bits.append(f"iter={self.iteration}")
        if self.elapsed_s is not None:
            bits.append(f"{self.elapsed_s * 1e3:.3f}ms")
        if self.detail:
            bits.append(" ".join(f"{k}={v}" for k, v in self.detail.items()))
        return " ".join(bits)


class NullTrace:
    """The zero-cost default: every hook is a no-op.

    ``enabled`` is False, so the pipeline skips per-pass timing and
    signature diffing entirely; the only residual cost of tracing is a
    no-op method call each time a rewrite actually fires.
    """

    enabled = False

    def rewrite(self, case: str, **detail) -> None:
        pass

    def begin_iteration(self, index: int) -> None:
        pass

    def end_iteration(self, index: int, changed: bool) -> None:
        pass

    def record_pass(self, name: str, iteration: int, changed: bool,
                    elapsed_s: float, operators_removed: int = 0) -> None:
        pass

    def warning(self, message: str) -> None:
        pass


NULL_TRACE = NullTrace()


class RewriteTally(NullTrace):
    """Counting-only trace: cheap enough to run on every optimization.

    Tracks case -> fire count, iterations run, and convergence — exactly
    what the metrics registry wants — without allocating event objects.
    """

    __slots__ = ("rewrite_counts", "iterations_run", "converged")

    def __init__(self) -> None:
        self.rewrite_counts: dict[str, int] = {}
        self.iterations_run = 0
        self.converged = True

    def rewrite(self, case: str, **detail) -> None:
        self.rewrite_counts[case] = self.rewrite_counts.get(case, 0) + 1

    def begin_iteration(self, index: int) -> None:
        self.iterations_run = index + 1

    def warning(self, message: str) -> None:
        self.converged = False

    def fired_cases(self) -> set[str]:
        return set(self.rewrite_counts)

    def fired(self, case: str) -> bool:
        return case in self.rewrite_counts


class QueryTrace(RewriteTally):
    """Full rewrite provenance for one optimized query.

    Example::

        db = Database()
        db.tracing = True
        db.query("select o.o_orderkey from orders o left outer join ...")
        trace = db.last_trace
        trace.fired("AJ 2a")          # -> True
        trace.rewrite_counts          # {"AJ 2a": 1}
        print(trace.report())         # human-readable per-iteration log
    """

    __slots__ = ("sql", "profile", "events", "execution", "span_root",
                 "query_id", "_iteration")
    enabled = True

    def __init__(self, sql: str | None = None, profile: str | None = None):
        super().__init__()
        self.sql = sql
        self.profile = profile
        self.events: list[TraceEvent] = []
        self.execution = None  # the statement's ExecutionCollector, once it ran
        self.span_root = None  # Span tree root, attached when span tracing ran
        self.query_id: str | None = None  # joins against sys.query_log
        self._iteration: int | None = None

    # -- recording hooks ----------------------------------------------------

    def rewrite(self, case: str, **detail) -> None:
        super().rewrite(case)
        self.events.append(TraceEvent("rewrite", case, self._iteration, detail))

    def begin_iteration(self, index: int) -> None:
        super().begin_iteration(index)
        self._iteration = index

    def end_iteration(self, index: int, changed: bool) -> None:
        self.events.append(
            TraceEvent("iteration", f"iteration {index}", index, {"changed": changed})
        )

    def record_pass(self, name: str, iteration: int, changed: bool,
                    elapsed_s: float, operators_removed: int = 0) -> None:
        detail = {"changed": changed}
        if operators_removed:
            detail["operators_removed"] = operators_removed
        self.events.append(TraceEvent("pass", name, iteration, detail, elapsed_s))

    def warning(self, message: str) -> None:
        super().warning(message)
        self.events.append(TraceEvent("warning", message, self._iteration))

    # -- queries over the event log -----------------------------------------

    def events_of(self, kind: str) -> list[TraceEvent]:
        return [e for e in self.events if e.kind == kind]

    def passes(self) -> list[TraceEvent]:
        return self.events_of("pass")

    def to_dict(self, spans: bool = False) -> dict:
        """JSON-friendly structure (used by the benchmark trace dumps).

        ``spans=True`` embeds the span tree when one was recorded; off by
        default so the benchmark dumps stay free of wall-clock noise.
        """
        out = self._base_dict()
        if spans and self.span_root is not None:
            out["spans"] = self.span_root.to_dict()
        return out

    def _base_dict(self) -> dict:
        return {
            "query_id": self.query_id,
            "sql": self.sql,
            "profile": self.profile,
            "iterations": self.iterations_run,
            "converged": self.converged,
            "rewrites": dict(self.rewrite_counts),
            "events": [
                {
                    "kind": e.kind,
                    "name": e.name,
                    "iteration": e.iteration,
                    "detail": e.detail,
                }
                for e in self.events
            ],
        }

    def report(self) -> str:
        """Render the trace as an indented text log."""
        lines = []
        header = "query trace"
        if self.profile:
            header += f" (profile={self.profile})"
        lines.append(header)
        if self.sql:
            lines.append(f"  sql: {self.sql}")
        by_iteration: dict[int | None, list[TraceEvent]] = {}
        for event in self.events:
            by_iteration.setdefault(event.iteration, []).append(event)
        for iteration in sorted(by_iteration, key=lambda i: (i is None, i)):
            if iteration is not None:
                lines.append(f"  iteration {iteration}:")
            for event in by_iteration[iteration]:
                indent = "    " if iteration is not None else "  "
                if event.kind == "iteration":
                    continue
                if event.kind == "pass":
                    changed = "changed" if event.detail.get("changed") else "no change"
                    removed = event.detail.get("operators_removed", 0)
                    suffix = f", -{removed} ops" if removed else ""
                    time_s = event.elapsed_s or 0.0
                    lines.append(
                        f"{indent}pass {event.name:<16} {changed}{suffix}"
                        f"  ({time_s * 1e3:.3f}ms)"
                    )
                elif event.kind == "rewrite":
                    detail = "".join(
                        f" {k}={v}" for k, v in event.detail.items()
                    )
                    lines.append(f"{indent}fired {event.name}{detail}")
                elif event.kind == "warning":
                    lines.append(f"{indent}WARNING {event.name}")
        lines.append(
            f"  fixpoint: {self.iterations_run} iteration(s), "
            + ("converged" if self.converged else "NOT converged")
        )
        if self.rewrite_counts:
            fired = ", ".join(
                f"{case} x{n}" for case, n in sorted(self.rewrite_counts.items())
            )
            lines.append(f"  rewrites fired: {fired}")
        else:
            lines.append("  rewrites fired: none")
        return "\n".join(lines)
