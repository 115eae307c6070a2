"""EXPLAIN ANALYZE: per-physical-operator actual rows/batches/timings,
early-termination annotations, and a golden plan-shape test (timings
normalized)."""

from __future__ import annotations

import re

import pytest

from repro import Database
from repro.observability import ExecutionCollector

TIME_RE = re.compile(r"\d+\.\d+ms")


def normalize(text: str) -> str:
    """Erase wall times so the output is stable across machines."""
    return TIME_RE.sub("Xms", text)


@pytest.fixture
def demo_db() -> Database:
    db = Database()
    db.execute("create table customer (c_id int primary key, c_name varchar(30))")
    db.execute(
        "create table orders (o_id int primary key, o_cust int not null, "
        "o_total decimal(12,2))"
    )
    db.execute("insert into customer values (1,'ACME'),(2,'Globex'),(3,'Initech')")
    db.execute(
        "insert into orders values (10,1,100.00),(11,1,250.50),"
        "(12,2,75.25),(13,3,990.00)"
    )
    return db


def test_golden_uaj_query(demo_db):
    """The acceptance-criterion shape: a VDM-style query where the optimizer
    removed the augmentation join, annotated with actual rows/timings."""
    text = demo_db.explain(
        "select o.o_id from orders o "
        "left outer join customer c on o.o_cust = c.c_id",
        analyze=True,
    )
    assert normalize(text) == (
        "Project[1 cols] (est rows=4 actual rows=4 qerror=1.00 "
        "batches=1 time=Xms)\n"
        "  BatchScan(orders)[cols=1] (est rows=4 actual rows=4 qerror=1.00 "
        "batches=1 time=Xms)\n"
        "execution: 4 row(s) in Xms, 4 row(s) scanned"
    )


def test_golden_join_kept_when_augmenter_used(demo_db):
    text = demo_db.explain(
        "select o.o_id, c.c_name from orders o "
        "join customer c on o.o_cust = c.c_id",
        analyze=True,
    )
    normalized = normalize(text)
    assert "HashJoin[build=" in normalized
    assert "actual rows=4" in normalized        # the join output
    assert "est rows=" in normalized and "qerror=" in normalized
    assert ("BatchScan(customer)[cols=2] (est rows=3 actual rows=3 "
            "qerror=1.00 batches=1 time=Xms)") in normalized
    # The hash build side reports its peak estimated memory.
    assert "peak≈" in normalized
    assert normalized.endswith("execution: 4 row(s) in Xms, 7 row(s) scanned")


def test_early_termination_is_annotated(demo_db):
    # A limit over a scan closes the scan stream once satisfied; the scan
    # is flagged early-terminated (with a 1024-row default batch the 4-row
    # demo table fits in the first batch, but the flag still records that
    # the limit cut the stream).
    db = Database(batch_size=1)
    db.execute("create table orders (o_id int primary key)")
    db.execute("insert into orders values (10),(11),(12),(13)")
    text = db.explain("select o_id from orders limit 2", analyze=True)
    assert "early-terminated" in text
    assert "execution: 2 row(s)" in text
    assert "2 row(s) scanned" in text  # only 2 of 4 rows were decoded


def test_analyze_reports_filtered_rows(demo_db):
    text = demo_db.explain(
        "select o_id from orders where o_total > 100.00", analyze=True
    )
    normalized = normalize(text)
    assert "Filter" in normalized and "actual rows=2" in normalized


def test_unoptimized_analyze(demo_db):
    text = demo_db.explain(
        "select o.o_id from orders o "
        "left outer join customer c on o.o_cust = c.c_id",
        optimize=False,
        analyze=True,
    )
    # The join survives without optimization (the physical plan still
    # executes it, as an outer hash join).
    assert "HashJoin[left-outer" in text
    assert "actual rows=" in text


def test_collector_accumulates_per_operator(demo_db):
    plan = demo_db.plan_for("select o_id from orders")
    collector = ExecutionCollector()
    txn = demo_db.begin()
    try:
        result = demo_db._executor.execute(plan, txn, collector=collector)
    finally:
        demo_db.commit(txn)
    assert len(result.rows) == 4
    assert collector.root is not None
    assert collector.rows_scanned() == 4
    assert collector.operator_count() >= 1
    for node in collector.root.walk():
        stats = collector.stats_for(node)
        assert stats is not None
        assert stats.chunks == 1
        assert stats.elapsed_s >= 0


def test_analyze_matches_plain_execution(demo_db):
    sql = (
        "select c.c_name, sum(o.o_total) as t from orders o "
        "join customer c on o.o_cust = c.c_id group by c.c_name order by t"
    )
    plain = demo_db.query(sql)
    text = demo_db.explain(sql, analyze=True)
    assert f"execution: {len(plain.rows)} row(s)" in text


def test_executor_without_collector_records_nothing():
    # The collector is per statement: EXPLAIN ANALYZE must not leave one
    # behind for the next, uninstrumented query to record into.
    db = Database(plan_feedback=False)
    db.execute("create table orders (o_id int primary key)")
    db.execute("insert into orders values (10),(11)")
    db.explain("select o_id from orders", analyze=True)
    analyzed = len(db.query_log.operator_rows())
    assert analyzed > 0
    db.query("select o_id from orders")  # still works untraced
    assert len(db.query_log.operator_rows()) == analyzed
