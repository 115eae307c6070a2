"""Benchmark fixtures: larger, session-scoped datasets.

The ``bench_*.py`` files reproduce the paper's artifacts (tables and
figures written by :func:`repro.bench.write_report`); the perf record
that gates changes is the ledger (``benchmarks/ledger/``, declared in
``BENCHMARK.json``).
"""

from __future__ import annotations

import pytest

from repro import Database
from repro.workloads import create_sales_schema, create_tpch_schema, load_sales, load_tpch


@pytest.fixture(scope="session")
def tpch_bench_db() -> Database:
    db = Database(wal_enabled=False)
    create_tpch_schema(db)
    load_tpch(db, scale=0.01)  # ~1.5k customers / ~4.4k lineitems
    db.execute("create table ta (key int primary key, a int, ext int)")
    db.execute("create table td (key int primary key, a int, ext int)")
    db.bulk_load("ta", [(i, i * 10, i * 100) for i in range(2000)])
    db.bulk_load("td", [(i, i * 10, i * 100) for i in range(2000, 2300)])
    return db


@pytest.fixture(scope="session")
def sales_bench_db() -> Database:
    db = Database(wal_enabled=False)
    create_sales_schema(db)
    load_sales(db, orders=15000)  # ~37k line items
    return db


@pytest.fixture(scope="session")
def journal_bench():
    from repro.vdm.journal import JournalModel

    db = Database(wal_enabled=False)
    model = JournalModel(db, rows=5000).build()
    return db, model


def run_exec(db, plan, collector=None):
    """Execute a pre-optimized plan (excluding optimization time, as the
    paper's Fig. 14 measurement does); ``collector`` is an optional
    :class:`repro.observability.ExecutionCollector`."""
    txn = db.begin()
    try:
        return db._executor.execute(plan, txn, collector=collector)
    finally:
        db.commit(txn)
