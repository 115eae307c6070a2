"""Serving-layer benchmarks: closed-loop multi-threaded load.

Measures what the concurrent serving layer costs and sustains:

- closed-loop QPS and per-query latency percentiles for W worker threads
  running a mixed OLTP/OLAP statement stream through ``Session`` objects
  (admission, tenant accounting, and the engine all on the hot path);
- the admission controller's uncontended acquire/release overhead, which
  every statement pays even on an idle server.

QPS and P50/P95 land in the benchmark's ``extra_info`` (pytest-benchmark's
``--benchmark-json`` output carries them) and are asserted sane here.
"""

from __future__ import annotations

import statistics
import threading
import time

from repro import Database
from repro.serving import AdmissionController, SessionManager

WORKERS = 4
QUERIES_PER_WORKER = 30


def _build_db() -> Database:
    db = Database()
    db.execute("create table orders (id int primary key, cust int, total int)")
    db.execute("create table lines (id int primary key, oid int, qty int)")
    db.bulk_load("orders", [(i, i % 40, i * 7 % 1000) for i in range(2000)])
    db.bulk_load("lines", [(i, i % 2000, i % 9 + 1) for i in range(6000)])
    return db


#: One worker's statement mix: point lookup, analytical join aggregate,
#: and a write — the HTAP blend the serving layer exists to arbitrate.
def _statements(worker: int, index: int) -> list[str]:
    key = (worker * QUERIES_PER_WORKER + index) % 2000
    return [
        f"select total from orders where id = {key}",
        "select o.cust, sum(l.qty) from orders o "
        "join lines l on l.oid = o.id "
        f"where o.cust = {index % 40} group by o.cust",
        f"insert into orders values ({10_000 + worker * 1000 + index}, "
        f"{worker}, {index})",
    ]


def test_closed_loop_session_throughput(benchmark):
    """W threads, each running its statement mix closed-loop through a
    Session; reports QPS and P50/P95 per-statement latency."""
    db = _build_db()
    manager = SessionManager(db, max_concurrent=WORKERS, max_queue=64)
    latencies: list[float] = []
    lock = threading.Lock()

    def worker(index: int) -> None:
        session = manager.session(f"w{index}")
        local: list[float] = []
        for query_no in range(QUERIES_PER_WORKER):
            for sql in _statements(index, query_no):
                started = time.perf_counter()
                session.execute(sql)
                local.append(time.perf_counter() - started)
        session.close()
        with lock:
            latencies.extend(local)

    def run() -> None:
        db.execute("delete from orders where id >= 10000")
        latencies.clear()
        started = time.perf_counter()
        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(WORKERS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
        benchmark.extra_info["qps"] = round(len(latencies) / elapsed, 1)
        benchmark.extra_info["p50_ms"] = round(
            statistics.median(latencies) * 1e3, 3
        )
        benchmark.extra_info["p95_ms"] = round(
            statistics.quantiles(latencies, n=20)[-1] * 1e3, 3
        )

    benchmark.pedantic(run, rounds=3, iterations=1)
    info = benchmark.extra_info
    assert info["qps"] > 0, info
    assert 0 < info["p50_ms"] <= info["p95_ms"], info
    assert manager.shutdown() is True
    snapshot = db.metrics.snapshot()
    assert snapshot["serving.shed"] == 0, "a 64-deep queue must not shed here"
    db.close()


def test_single_thread_session_vs_direct(benchmark):
    """The serving layer's per-statement tax on an idle server: the same
    statement stream through one Session (admission + tenant bookkeeping
    on every call) vs. the direct Database API baseline in
    bench_streaming_exec.py."""
    db = _build_db()
    manager = SessionManager(db, max_concurrent=2)
    session = manager.session()

    def run() -> None:
        for query_no in range(QUERIES_PER_WORKER):
            session.query(
                f"select total from orders where id = {query_no}"
            )

    benchmark.pedantic(run, rounds=3, iterations=1)
    manager.shutdown()
    db.close()


def test_admission_acquire_release_overhead(benchmark):
    """The uncontended fast path every admitted statement pays."""
    controller = AdmissionController(max_concurrent=8, max_queue=32)

    def run() -> None:
        for _ in range(1000):
            controller.acquire()
            controller.release(0.001)

    benchmark.pedantic(run, rounds=5, iterations=1)
