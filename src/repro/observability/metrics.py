"""A lightweight, thread-safe engine metrics registry.

Counters, gauges, and windowed histograms (p50/p95/max) with no external
dependencies.  The :class:`~repro.database.Database` facade owns one
registry and wires it into the optimizer (rewrite fires by case, fixpoint
iterations), the executor (queries executed, latency), the WAL (appends),
the MVCC manager (commits/aborts), and the cached-view manager (hits,
refreshes, incremental-maintenance rows).

Example::

    db = Database()
    db.query("select ...")
    db.metrics.snapshot()["queries.executed"]      # -> 1
    db.metrics.counter("optimizer.rewrites.AJ 2a").value
    print(db.metrics.render())                     # text table

Hot paths hold a direct reference to their metric object (``counter.inc()``
is one lock acquisition + one add), not a registry lookup.
"""

from __future__ import annotations

import threading


class Counter:
    """A monotonically increasing counter."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """A point-in-time value (set wins, no aggregation)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += delta

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Running count/sum/min/max plus a bounded window for percentiles.

    The window keeps the most recent ``window`` observations (a ring
    buffer), so p50/p95 reflect recent behaviour and memory stays bounded
    no matter how many queries run.
    """

    __slots__ = ("name", "_window", "_buf", "_pos", "count", "total",
                 "min", "max", "_lock")

    def __init__(self, name: str, window: int = 4096):
        self.name = name
        self._window = window
        self._buf: list[float] = []
        self._pos = 0
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self.count += 1
            self.total += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value
            if len(self._buf) < self._window:
                self._buf.append(value)
            else:
                self._buf[self._pos] = value
                self._pos = (self._pos + 1) % self._window

    def percentile(self, p: float) -> float | None:
        """The p-th percentile (0..100) over the retained window.

        Linear interpolation between closest ranks; a single sample is
        every percentile of itself (no interpolation against an implicit
        zero), and p=0 / p=100 are exactly the window min / max.
        """
        with self._lock:
            if not self._buf:
                return None
            ordered = sorted(self._buf)
        return _rank(ordered, p)

    @property
    def mean(self) -> float | None:
        return self.total / self.count if self.count else None

    def summary(self) -> dict:
        """A self-consistent snapshot: every field is copied under one lock
        acquisition, so concurrent ``observe`` calls can never tear the
        summary (count from one instant, percentiles from another)."""
        with self._lock:
            count = self.count
            total = self.total
            low = self.min
            high = self.max
            ordered = sorted(self._buf)
        return {
            "count": count,
            "sum": total,
            "min": low,
            "max": high,
            "mean": total / count if count else None,
            "p50": _rank(ordered, 50) if ordered else None,
            "p95": _rank(ordered, 95) if ordered else None,
        }


class MetricsRegistry:
    """Name -> metric, with get-or-create accessors.

    Names are dotted paths by convention (``queries.executed``,
    ``optimizer.rewrites.AJ 2a``, ``txn.commits``, ``wal.appends``, ...).
    Asking for an existing name with a different metric type raises.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, object] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, name: str, cls):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name)
                self._metrics[name] = metric
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} is a {type(metric).__name__}, "
                    f"not a {cls.__name__}"
                )
            return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get_or_create(name, Histogram)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    def items(self) -> list[tuple[str, object]]:
        """(name, metric) pairs, sorted by name — the typed view the
        exporters need (``snapshot`` erases counter-vs-gauge)."""
        with self._lock:
            return sorted(self._metrics.items())

    def snapshot(self) -> dict[str, object]:
        """All metrics as plain values: counters/gauges -> number,
        histograms -> summary dict.

        The registry lock is held for the whole pass, so the snapshot is a
        single consistent copy of the metric *set*: a metric registered by
        a concurrent writer is either fully present or fully absent, never
        half-initialized.  Individual values are read under each metric's
        own lock (metric locks never wait on the registry lock, so the
        ordering is deadlock-free), and :meth:`Histogram.summary` is itself
        a single-lock copy — no torn count/percentile pairs.
        """
        with self._lock:
            out: dict[str, object] = {}
            for name, metric in sorted(self._metrics.items()):
                if isinstance(metric, (Counter, Gauge)):
                    out[name] = metric.value
                else:
                    assert isinstance(metric, Histogram)
                    out[name] = metric.summary()
            return out

    def reset(self) -> None:
        with self._lock:
            self._metrics.clear()

    def render(self) -> str:
        """A text table of the snapshot (the ``python -m repro metrics``
        surface)."""
        snap = self.snapshot()
        if not snap:
            return "(no metrics recorded)"
        lines = []
        width = max(len(name) for name in snap)
        for name, value in snap.items():
            if isinstance(value, dict):
                p50 = value["p50"]
                p95 = value["p95"]
                rendered = (
                    f"count={value['count']} mean={_fmt(value['mean'])} "
                    f"p50={_fmt(p50)} p95={_fmt(p95)} max={_fmt(value['max'])}"
                )
            else:
                rendered = _fmt(value)
            lines.append(f"{name.ljust(width)}  {rendered}")
        return "\n".join(lines)


def _rank(ordered: list[float], p: float) -> float:
    """Percentile over an already-sorted sample (closest-rank, linear
    interpolation)."""
    if len(ordered) == 1:
        return ordered[0]
    position = max(0.0, min(100.0, p)) / 100.0 * (len(ordered) - 1)
    lower = int(position)
    fraction = position - lower
    if fraction == 0.0:
        return ordered[lower]
    return ordered[lower] + (ordered[lower + 1] - ordered[lower]) * fraction


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)
