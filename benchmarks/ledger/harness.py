"""Shared plumbing of the perf ledger: manifest, statistics, spans, output.

Everything here is benchmark-side: it times calls into the engine's public
functions and never reaches into ``src/`` to change behaviour.
"""

from __future__ import annotations

import itertools
import json
import math
import resource
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

LEDGER_DIR = Path(__file__).resolve().parent
ROOT = LEDGER_DIR.parents[1]
OUT_DIR = LEDGER_DIR / "out"

# The engine lives in src/ and has no install step; the driver runs the
# command without PYTHONPATH, so the benchmark adds the path itself.  In
# a directory without src/ the import below fails and the run exits
# non-zero, which is what the contract asks for there.
sys.path.insert(0, str(ROOT / "src"))


def load_manifest() -> dict:
    """``BENCHMARK.json``: the single declaration of metrics and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@dataclass(frozen=True)
class Op:
    """One operation of a workload's fixed, seed-derived operation list.

    ``kind`` names the statement class (latency is reported per class as
    well as overall).  ``superset_sql`` is set for a bare ``LIMIT`` without
    ``ORDER BY``: any ``LIMIT``-many rows of that statement are a correct
    answer, so such a result is checked by row count and containment.
    ``heavy_ref`` marks statements whose ``optimize=False`` reference is
    too slow to compute for all of them at measurement scale.
    """

    kind: str
    sql: str
    superset_sql: str | None = None
    heavy_ref: bool = False


class InProcessWorkload:
    """Defaults of the in-process workload specs (see ``inprocess.py``)."""

    setup_repeats = 3
    warm_passes = 1
    #: Heavy ``optimize=False`` references verified per run at full scale.
    verify_sample = 0

    def db_kwargs(self, sizes: dict) -> dict:
        return {"wal_enabled": False}

    def warm_ops(self, ops: list[Op]) -> list[Op]:
        return ops

    def expected(self, op: Op):
        """Rows (sorted) an independent oracle predicts for ``op``, or None."""
        return None


def storage_scan_rate(db, table_name: str) -> float:
    """Rows per second draining ``ColumnTable.read_column_batches`` over
    every column of a table under a fresh snapshot."""
    table = db.catalog.table(table_name)
    names = [c.name for c in table.schema.columns]
    txn = db.begin()
    try:
        started = time.perf_counter()
        rows = sum(count for _, count in table.read_column_batches(
            txn, names, 1024, vectorized=True))
        elapsed = time.perf_counter() - started
    finally:
        db.commit(txn)
    return rows / elapsed if elapsed else 0.0


def median_ms(seconds: list[float]) -> float:
    return statistics.median(seconds) * 1e3 if seconds else 0.0


def mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def p95_ms(seconds: list[float]) -> float:
    """95th percentile (nearest rank)."""
    ordered = sorted(seconds)
    return ordered[math.ceil(0.95 * len(ordered)) - 1] * 1e3 if ordered else 0.0


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process (KiB on Linux) in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: What one probe pass takes on the reference box when it runs at full speed.
REFERENCE_PROBE_MS = 10.0


def probe_s() -> float:
    """CPU time this thread needs for one pass of a fixed pure-Python loop:
    how fast the box runs the interpreter right now.  CPU time, so that
    waiting for the GIL beside other threads does not count."""
    started = time.thread_time()
    total = 0
    for i in range(200_000):
        total += i * i % 7
    return time.thread_time() - started


def calibration_ms() -> float:
    """Median of five probe passes (the per-layer ``bench.calibration_ms``)."""
    return median_ms([probe_s() for _ in range(5)])


class HostSpeed:
    """Probe readings taken between the operations of one phase of a run.

    The box this ledger was built on does not run at one speed: for minutes
    at a time the same single-threaded loop takes 1.1x to 2x as long, in
    CPU time as in wall time, whatever the benchmark does.  A phase's times
    are therefore reported as they would read with the probe at
    ``REFERENCE_PROBE_MS`` (``run.at_reference_speed``); a slowed box then
    does not read as a regression, and a slower engine, which leaves the
    probe alone, still does.
    """

    #: Seconds between two readings taken by ``tick``.
    EVERY_S = 0.25

    def __init__(self) -> None:
        self.readings: list[float] = []
        self._due = 0.0

    def sample(self, passes: int = 1) -> None:
        self.readings.extend(probe_s() for _ in range(passes))
        self._due = time.perf_counter() + self.EVERY_S

    def tick(self) -> None:
        """Called between operations: reads the probe when one is due."""
        if time.perf_counter() >= self._due:
            self.sample(2)

    def probe_ms(self) -> float:
        return median_ms(self.readings)


class Spans:
    """In-memory span log: (id, parent, statement, name, start, end).

    Spans are recorded from the benchmark's own code around calls into a
    layer's public functions, kept in memory, and written out when the run
    ends.  A span's self time is its duration minus the part of it that
    its child spans cover.  Nesting is tracked per thread; a span that is
    caused by one on another thread (the server side of an HTTP request)
    names its parent explicitly.
    """

    def __init__(self) -> None:
        self.rows: list[list] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self.statement = 0

    def span(self, name: str, parent: int | None = None) -> "_Span":
        return _Span(self, name, parent)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def self_times(self) -> dict[str, list[float]]:
        """Span name -> list of self times in seconds, one per span."""
        covered: dict[int, float] = {}
        for _, parent, _, _, start, end in self.rows:
            if parent is not None:
                covered[parent] = covered.get(parent, 0.0) + end - start
        out: dict[str, list[float]] = {}
        for sid, _, _, name, start, end in self.rows:
            out.setdefault(name, []).append(end - start - covered.get(sid, 0.0))
        return out

    def durations(self, name: str) -> list[float]:
        return [end - start for _, _, _, n, start, end in self.rows if n == name]

    def dump(self, workload: str) -> Path:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        path = OUT_DIR / f"trace_{workload}.json"
        path.write_text(json.dumps({
            "workload": workload,
            "columns": ["id", "parent", "statement", "name", "start_s", "end_s"],
            "spans": self.rows,
        }))
        return path


class _Span:
    __slots__ = ("_spans", "_row", "id")

    def __init__(self, spans: Spans, name: str, parent: int | None) -> None:
        self._spans = spans
        if parent is None:
            stack = spans._stack()
            parent = stack[-1] if stack else None
        self.id = next(spans._ids)
        self._row = [self.id, parent, spans.statement, name, 0.0, 0.0]

    def __enter__(self) -> "_Span":
        self._spans.rows.append(self._row)
        self._spans._stack().append(self.id)
        self._row[4] = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._row[5] = time.perf_counter()
        self._spans._stack().pop()


def emit(manifest: dict, trace: bool, values: dict[str, float], *,
         attempted: int, failed: int, problems: list[str]) -> dict:
    """The contract's result object: exactly the declared metrics of this
    mode, each with its declared unit.  A missing or undeclared name is a
    bug in the benchmark, not a measurement, so it raises."""
    declared = manifest["per_layer" if trace else "end_to_end"]
    names = [m["name"] for m in declared]
    missing = [n for n in names if n not in values]
    extra = sorted(set(values) - set(names))
    if missing or extra:
        raise RuntimeError(f"metric drift: missing={missing} undeclared={extra}")
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared
        },
    }
