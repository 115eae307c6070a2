"""Replay a captured workload against the current build.

Every statement record is re-executed in capture order on a fresh
:class:`~repro.database.Database`.  Three things come out:

1. **Digest verification** — each query's order-insensitive result digest
   must match the captured one (``check_digests``); a mismatch is a
   correctness regression attributed to one exact SQL statement.
2. **Per-shape latency deltas** — captured vs replayed medians grouped by
   the normalized shape hash, each flagged ``REGRESSION`` or ``improved``
   beyond the threshold, so a captured production workload points at the
   statement shapes whose latency moved.  The flags are informational:
   captured timings come from another process (often another machine).
3. **Error-statement parity** — a statement that failed at capture time is
   expected to fail on replay too (and vice versa).
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

from ..errors import ReproError
from .recorder import load_capture, result_digest

REPLAY_THRESHOLD = 0.50   # shapes are single-statement samples: be tolerant


@dataclass
class DigestMismatch:
    seq: int
    sql: str
    expected: str
    actual: str

    def __str__(self) -> str:
        return (f"seq {self.seq}: digest mismatch for {self.sql!r} "
                f"(captured {self.expected[:23]}…, replayed {self.actual[:23]}…)")


@dataclass
class ReplayError:
    seq: int
    sql: str
    detail: str

    def __str__(self) -> str:
        return f"seq {self.seq}: {self.detail} ({self.sql!r})"


@dataclass
class ReplayReport:
    path: str
    threshold: float = REPLAY_THRESHOLD
    statements: int = 0
    queries: int = 0
    digests_checked: int = 0
    mismatches: list[DigestMismatch] = field(default_factory=list)
    errors: list[ReplayError] = field(default_factory=list)
    #: (shape, captured median s, replayed median s), one entry per shape.
    latencies: list[tuple[str, float, float]] = field(default_factory=list)
    shape_examples: dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.mismatches and not self.errors

    def summary(self) -> str:
        verdict = "ok" if self.ok else (
            f"{len(self.mismatches)} digest mismatch(es), "
            f"{len(self.errors)} error(s)"
        )
        return (f"replay: {self.statements} statement(s), {self.queries} "
                f"query(ies), {self.digests_checked} digest(s) checked — {verdict}")

    def render(self) -> str:
        lines = [self.summary()]
        for mismatch in self.mismatches:
            lines.append(f"  MISMATCH {mismatch}")
        for error in self.errors:
            lines.append(f"  ERROR {error}")
        if self.latencies:
            lines.append("")
            lines.append("latency by shape, captured -> replayed "
                         f"(flagged beyond {self.threshold * 100:.0f}%):")
        # Worst ratio first, like any regression report.
        for shape, captured_s, replayed_s in sorted(
            self.latencies, key=lambda item: -_ratio(item[1], item[2])
        ):
            ratio = _ratio(captured_s, replayed_s)
            flag = ("REGRESSION" if ratio > 1.0 + self.threshold
                    else "improved" if ratio < 1.0 - self.threshold else "")
            sql = self.shape_examples[shape]
            example = sql if len(sql) <= 60 else sql[:57] + "..."
            lines.append(
                f"  {shape}  {captured_s * 1e3:10.3f}ms -> "
                f"{replayed_s * 1e3:10.3f}ms  {(ratio - 1.0) * 100:+8.1f}%  "
                f"{flag:<10}  {example}"
            )
        return "\n".join(lines)


def _ratio(captured_s: float, replayed_s: float) -> float:
    return replayed_s / captured_s if captured_s else float("inf")


def replay_workload(
    path: str,
    check_digests: bool = True,
    profile: str | None = None,
    batch_size: int | None = None,
    threshold: float = REPLAY_THRESHOLD,
) -> ReplayReport:
    """Re-execute the capture at ``path``; see the module docstring."""
    from ..database import Database

    header, records = load_capture(path)
    if profile is None and header is not None:
        profile = header.get("profile") or None
    kwargs: dict = {}
    if profile:
        kwargs["profile"] = profile
    if batch_size is not None:
        kwargs["batch_size"] = batch_size
    db = Database(**kwargs)
    report = ReplayReport(path=path, threshold=threshold)
    # shape -> (captured seconds, replayed seconds), one sample per statement
    timings: dict[str, tuple[list[float], list[float]]] = {}
    try:
        for record in records:
            sql = record.get("sql")
            if not sql:
                continue
            seq = record.get("seq", report.statements + 1)
            kind = record.get("kind", "query")
            report.statements += 1
            started = time.perf_counter()
            try:
                outcome = db.execute(sql)
            except ReproError as exc:
                if kind == "error":
                    continue    # failed then, fails now: parity holds
                report.errors.append(ReplayError(
                    seq, sql, f"replay raised {type(exc).__name__}: {exc}"
                ))
                continue
            elapsed_s = time.perf_counter() - started
            if kind == "error":
                report.errors.append(ReplayError(
                    seq, sql,
                    f"captured as an error ({record.get('error')}) but replayed clean",
                ))
                continue
            shape = record.get("shape")
            if shape and record.get("elapsed_ms") is not None:
                captured, replayed = timings.setdefault(shape, ([], []))
                captured.append(record["elapsed_ms"] / 1e3)
                replayed.append(elapsed_s)
                report.shape_examples.setdefault(shape, sql)
            if kind == "query" and outcome is not None and not isinstance(outcome, int):
                report.queries += 1
                expected = record.get("digest")
                if check_digests and expected:
                    actual = result_digest(outcome)
                    report.digests_checked += 1
                    if actual != expected:
                        report.mismatches.append(
                            DigestMismatch(seq, sql, expected, actual)
                        )
    finally:
        db.close()
    report.latencies = [
        (shape, statistics.median(captured), statistics.median(replayed))
        for shape, (captured, replayed) in sorted(timings.items())
    ]
    return report
