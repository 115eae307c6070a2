"""Atomic metrics snapshots under concurrent load (satellite 3).

:meth:`MetricsRegistry.snapshot` copies every metric under a single
registry-lock hold, and :meth:`Histogram.summary` copies its fields under
one metric-lock hold — so a scraper running while queries execute can
never observe a torn snapshot (e.g. a histogram whose ``count`` and
``sum`` disagree, or a p95 below its p50).
"""

from __future__ import annotations

import json
import threading
import urllib.request

import pytest

from repro.database import Database
from repro.observability import MetricsRegistry, MetricsServer


def test_histogram_summary_is_internally_consistent_under_writes():
    registry = MetricsRegistry()
    histogram = registry.histogram("h")
    stop = threading.Event()

    def writer():
        value = 0
        while not stop.is_set():
            histogram.observe(value % 100)
            value += 1

    threads = [threading.Thread(target=writer) for _ in range(4)]
    for thread in threads:
        thread.start()
    try:
        for _ in range(300):
            summary = histogram.summary()
            if summary["count"] == 0:
                continue
            assert summary["min"] <= summary["mean"] <= summary["max"]
            assert summary["min"] <= summary["p50"] <= summary["p95"] <= summary["max"]
            # sum/count/mean were copied under one lock hold: they agree
            assert summary["mean"] == pytest.approx(
                summary["sum"] / summary["count"]
            )
    finally:
        stop.set()
        for thread in threads:
            thread.join()


def test_registry_snapshot_is_one_lock_held_copy():
    registry = MetricsRegistry()
    counter = registry.counter("c")
    registry.histogram("h").observe(1.0)
    stop = threading.Event()

    def writer():
        while not stop.is_set():
            counter.inc()
            registry.histogram("h").observe(2.0)

    thread = threading.Thread(target=writer)
    thread.start()
    try:
        previous = 0
        for _ in range(200):
            snapshot = registry.snapshot()
            assert set(snapshot) >= {"c", "h"}
            value = snapshot["c"]
            assert value >= previous     # counters are monotonic
            previous = value
            assert isinstance(snapshot["h"], dict)
            assert snapshot["h"]["count"] >= 1
    finally:
        stop.set()
        thread.join()


def test_new_metrics_registered_mid_snapshot_loop():
    registry = MetricsRegistry()
    stop = threading.Event()

    def registrar():
        index = 0
        while not stop.is_set():
            registry.counter(f"dynamic.{index % 50}").inc()
            index += 1

    thread = threading.Thread(target=registrar)
    thread.start()
    try:
        for _ in range(200):
            snapshot = registry.snapshot()
            assert all(value >= 0 for value in snapshot.values()
                       if isinstance(value, (int, float)))
    finally:
        stop.set()
        thread.join()


# -- concurrent QueryLog operator-ring appends vs. sys.* scans --------------


def test_query_log_and_plan_feedback_never_tear_under_threads():
    """Threaded queries appending to the query log and its one operator
    ring while another thread scans ``sys.query_log`` /
    ``sys.plan_feedback`` / ``sys.operator_stats`` (both via SQL and via
    the direct snapshot methods) must never raise and never show a torn
    per-query operator group: each completed query's rows form a
    contiguous 0..n-1 ``op_index`` run, because the whole group is
    appended under one lock hold."""
    db = Database()
    db.execute("create table t (id int primary key, v int)")
    db.execute("insert into t values (1, 10), (2, 20), (3, 30), (4, 40)")
    # Big rings and bounded writers: eviction mid-test would legitimately
    # drop the oldest group's prefix, which is not a tear.
    db.query_log.configure(capacity=100_000, operator_capacity=500_000)
    stop = threading.Event()
    failures: list[str] = []

    def writer(offset: int):
        for index in range(200):
            if stop.is_set():
                return
            try:
                db.query(f"select v from t where v > {(index + offset) % 40} "
                         "order by v")
            except Exception as error:  # pragma: no cover - fail the test
                failures.append(f"writer: {error!r}")
                return

    threads = [threading.Thread(target=writer, args=(i,)) for i in range(3)]
    for thread in threads:
        thread.start()
    try:
        for _ in range(25):
            # Direct snapshots: must not raise "deque mutated during
            # iteration" and must keep feedback groups whole.
            entries = db.query_log.entries()
            assert len({e.query_id for e in entries}) == len(entries)
            groups: dict[str, list[int]] = {}
            for row in db.query_log.feedback_rows():
                groups.setdefault(row.query_id, []).append(row.op_index)
            for query_id, indexes in groups.items():
                assert sorted(indexes) == list(range(len(indexes))), (
                    f"torn feedback group for {query_id}: {indexes}"
                )
            # And through SQL, streaming the same rings.
            result = db.query(
                "select query_id, op_index from sys.plan_feedback"
            )
            sql_groups: dict[str, list[int]] = {}
            for query_id, op_index in result.rows:
                sql_groups.setdefault(query_id, []).append(op_index)
            for query_id, indexes in sql_groups.items():
                assert sorted(indexes) == list(range(len(indexes)))
            db.query("select count(*) from sys.operator_stats")
            db.query("select count(*) from sys.query_log")
    finally:
        stop.set()
        for thread in threads:
            thread.join()
        db.close()
    assert failures == []


def test_shape_baselines_sync_while_queries_run():
    """sys.query_shapes folds the log in lazily; concurrent sync() calls
    while queries complete must not lose samples or raise."""
    db = Database()
    db.execute("create table t (id int primary key, v int)")
    db.execute("insert into t values (1, 10), (2, 20)")
    db.query_log.configure(capacity=100_000)
    stop = threading.Event()
    failures: list[str] = []

    def writer():
        for _ in range(400):
            if stop.is_set():
                return
            try:
                db.query("select v from t where v > 5")
            except Exception as error:  # pragma: no cover - fail the test
                failures.append(repr(error))
                return

    thread = threading.Thread(target=writer)
    thread.start()
    try:
        previous = 0
        for _ in range(25):
            rows = db.query(
                "select shape, count from sys.query_shapes"
            ).rows
            total = sum(count for _shape, count in rows)
            assert total >= previous  # samples only accumulate
            previous = total
    finally:
        stop.set()
        thread.join()
        db.close()
    assert failures == []


# -- scraping the HTTP endpoint while queries run ---------------------------


def _get(url: str) -> bytes:
    with urllib.request.urlopen(url, timeout=5) as response:
        assert response.status == 200
        return response.read()


def test_scrape_metrics_server_while_queries_run():
    db = Database()
    db.execute("create table t (id int primary key, v int)")
    db.execute("insert into t values (1, 10), (2, 20), (3, 30)")
    db.query("select count(*) from t")
    server = MetricsServer(db, port=0)
    server.start()
    stop = threading.Event()
    failures: list[str] = []

    def run_queries():
        index = 0
        while not stop.is_set():
            try:
                db.query(f"select count(*) from t where v > {index % 30}")
            except Exception as error:   # pragma: no cover - fail the test
                failures.append(f"query: {error!r}")
                return
            index += 1

    query_thread = threading.Thread(target=run_queries)
    query_thread.start()
    try:
        for _ in range(50):
            body = _get(f"{server.url}/metrics")
            assert b"repro_queries_executed_total" in body
            data = json.loads(_get(f"{server.url}/metrics.json"))
            executed = data["queries.executed"]
            assert executed >= 1   # the synchronous warm-up query at minimum
            latency = data.get("queries.latency_s")
            if isinstance(latency, dict) and latency["count"]:
                assert latency["min"] <= latency["p50"] <= latency["p95"]
    finally:
        stop.set()
        query_thread.join()
        server.close()
        db.close()
    assert failures == []
