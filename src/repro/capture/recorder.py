"""Durable JSONL workload capture.

A capture file is a plain-text, append-only log: one header line followed
by one JSON object per executed statement.  Statement records carry::

    {"kind": "query" | "dml" | "ddl" | "error",
     "seq": 3, "query_id": "q3", "sql": "...", "shape": "ab12...",
     "started_at": 1754640000.123, "elapsed_ms": 1.84,
     "rows": 5, "digest": "sha256:...",          # queries only
     "rowcount": 2,                              # DML only
     "error": "ConstraintError: ..."}            # kind == "error"

The digest is order-insensitive (a sha256 over the sorted canonicalized
rows plus the column names), so replays on a build with a different —
equally correct — physical plan still verify, while any wrong *content*
is caught.  Appends are flushed per record: a capture survives the
process dying mid-workload, which is the point.  A later session appends
to the same file, continuing ``seq`` after the last record.
"""

from __future__ import annotations

import datetime
import decimal
import hashlib
import json
import os

from ..catalog.systables import SYS_PREFIX
from ..errors import ReproError
from ..sql.normalize import shape_hash

CAPTURE_FORMAT = 1
DEFAULT_FILENAME = "workload.jsonl"


def _touches_sys(sql: str) -> bool:
    """Queries over ``sys.*`` read session state (log contents, timings),
    so their results are inherently non-reproducible on replay."""
    return SYS_PREFIX in sql.lower()


def canonical_value(value: object) -> str:
    """A type-tagged, deterministic rendering of one cell."""
    if value is None:
        return "␀"
    if isinstance(value, bool):
        return f"b:{value}"
    if isinstance(value, int):
        return f"i:{value}"
    if isinstance(value, float):
        return f"f:{value!r}"
    if isinstance(value, decimal.Decimal):
        return f"d:{value.normalize()}"
    if isinstance(value, (datetime.date, datetime.datetime)):
        return f"t:{value.isoformat()}"
    return f"s:{value}"


def result_digest(result) -> str:
    """Order-insensitive sha256 digest of a :class:`QueryResult`."""
    rows = sorted(
        "\x1f".join(canonical_value(v) for v in row) for row in result.rows
    )
    payload = "\x1d".join(result.column_names) + "\x1e" + "\x1e".join(rows)
    return "sha256:" + hashlib.sha256(payload.encode("utf-8")).hexdigest()


class WorkloadRecorder:
    """Appends one JSONL record per statement into ``capture_dir``."""

    def __init__(self, capture_dir: str, filename: str = DEFAULT_FILENAME,
                 profile: str | None = None):
        os.makedirs(capture_dir, exist_ok=True)
        self.path = os.path.join(capture_dir, filename)
        self._seq = self._resume() if os.path.exists(self.path) else 0
        fresh = not os.path.exists(self.path) or os.path.getsize(self.path) == 0
        self._handle = open(self.path, "a", encoding="utf-8")
        if fresh:
            self._write({
                "kind": "header",
                "format": CAPTURE_FORMAT,
                "profile": profile,
            })

    def _resume(self) -> int:
        """Prepare an existing capture for appending; returns its last
        ``seq``.  A malformed final line (the previous writer died
        mid-append) is cut off so this session's records never follow it."""
        with open(self.path, "rb+") as handle:
            data = handle.read()
            body = data.rstrip()
            start = body.rfind(b"\n") + 1
            try:
                complete = isinstance(json.loads(body[start:]), dict)
            except ValueError:
                complete = False
            if not complete:
                handle.truncate(start)
            elif not data.endswith(b"\n"):
                handle.write(b"\n")         # complete record, newline lost
        _header, records = load_capture(self.path)
        return records[-1].get("seq", len(records)) if records else 0

    def record_statement(self, sql: str, started_at: float, elapsed_s: float,
                         outcome) -> None:
        """Log one successful statement; ``outcome`` is the return of
        ``Database.execute`` (QueryResult / rowcount / None)."""
        entry = self._base(sql, started_at, elapsed_s)
        if outcome is None:
            entry["kind"] = "ddl"
        elif isinstance(outcome, int):
            entry["kind"] = "dml"
            entry["rowcount"] = outcome
        else:
            entry["kind"] = "query"
            entry["rows"] = len(outcome.rows)
            if _touches_sys(sql):
                entry["volatile"] = True   # session-dependent: no digest
            else:
                entry["digest"] = result_digest(outcome)
            stats = getattr(outcome, "stats", None)
            if stats is not None and stats.query_id:
                entry["query_id"] = stats.query_id
        self._write(entry)

    def record_error(self, sql: str, started_at: float, elapsed_s: float,
                     error: BaseException) -> None:
        entry = self._base(sql, started_at, elapsed_s)
        entry["kind"] = "error"
        entry["error"] = f"{type(error).__name__}: {error}"
        self._write(entry)

    def _base(self, sql: str, started_at: float, elapsed_s: float) -> dict:
        self._seq += 1
        return {
            "seq": self._seq,
            "sql": sql,
            "shape": shape_hash(sql),
            "started_at": started_at,
            "elapsed_ms": elapsed_s * 1e3,
        }

    def _write(self, entry: dict) -> None:
        json.dump(entry, self._handle, sort_keys=True)
        self._handle.write("\n")
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None  # type: ignore[assignment]


def load_capture(path: str) -> tuple[dict | None, list[dict]]:
    """Read a capture file into (header, statement records).

    Tolerates a torn trailing line (the process may have died mid-append —
    the capture is still usable up to that point).  A malformed line with
    records after it is corruption, not a torn tail: it raises
    :class:`ReproError` naming the file and line.
    """
    header: dict | None = None
    records: list[dict] = []
    torn_at: int | None = None
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            if torn_at is not None:
                raise ReproError(
                    f"{path}:{torn_at}: malformed capture record "
                    "followed by more records"
                )
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                entry = None
            if not isinstance(entry, dict):
                torn_at = lineno
                continue
            if entry.get("kind") == "header":
                header = entry
            else:
                records.append(entry)
    return header, records
