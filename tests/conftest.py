"""Shared fixtures.

``db``            — a fresh empty database per test.
``tpch_db``       — module-scoped TPC-H database (small deterministic scale).
``vdm_tables_db`` — tpch_db plus the paper's ta/td active/draft tables.
``sales_db``      — module-scoped §7 sales workload.
``journal_db``    — session-scoped JournalEntryItemBrowser model (read-only!).

``physical_schemas`` (autouse) checks every non-empty batch of every
physical operator against that operator's ``output``: the batch must carry
exactly the declared column ids, and the first ``TYPE_SAMPLE`` values of
every column must be NULL or of the column's declared Python type.
Mismatches are recorded and fail the test at teardown, so a planner or
binder bug surfaces even where the fuzz oracles turn exceptions into
"crash" strings.
"""

from __future__ import annotations

import pytest

from repro import Database
from repro.engine.physical import PhysicalOp
from repro.workloads import create_sales_schema, create_tpch_schema, load_sales, load_tpch


#: Values per column whose Python type ``physical_schemas`` checks.
TYPE_SAMPLE = 32


def _sampled_values(chunk, cid: int) -> list:
    """The first ``TYPE_SAMPLE`` values of one column, read one by one
    (``col[i]``) so that neither a pending selection nor a whole column is
    gathered: operators' gather counts stay what they would be untested."""
    rows = range(min(chunk.row_count, TYPE_SAMPLE))
    col = chunk._cols.get(cid)
    if col is None:  # a pending selection over the parent's columns
        col = chunk._base[cid]
        rows = chunk._sel[:TYPE_SAMPLE]
    return [col[i] for i in rows]


def _type_mismatches(op, chunk) -> list[str]:
    found = []
    for c in op.output:
        expected = c.data_type.python_type
        for value in _sampled_values(chunk, c.cid):
            if value is not None and type(value) is not expected:
                found.append(
                    f"{op.label()}: column {c.name}#{c.cid} declares "
                    f"{c.data_type}, carries {value!r}"
                )
                break
    return found


@pytest.fixture(autouse=True)
def physical_schemas():
    """Yield the list of schema and type mismatches; fail at teardown if
    any."""
    mismatches: list[str] = []
    original = PhysicalOp._stream

    def checked(self, ctx):
        declared = [c.cid for c in self.output]
        expected = set(declared)
        inner = original(self, ctx)
        try:
            for chunk in inner:
                if not chunk.row_count:
                    pass
                elif (
                    len(expected) != len(declared)
                    or set(chunk.column_ids()) != expected
                ):
                    mismatches.append(
                        f"{self.label()}: batch carries "
                        f"{sorted(chunk.column_ids())}, output declares {declared}"
                    )
                else:
                    mismatches.extend(_type_mismatches(self, chunk))
                yield chunk
        finally:
            inner.close()

    PhysicalOp._stream = checked
    try:
        yield mismatches
    finally:
        PhysicalOp._stream = original
    assert not mismatches, "\n".join(mismatches[:5])


@pytest.fixture
def db() -> Database:
    return Database()


@pytest.fixture(scope="module")
def tpch_db() -> Database:
    database = Database(wal_enabled=False)
    create_tpch_schema(database)
    load_tpch(database, scale=0.002)
    return database


def add_vdm_tables(database: Database) -> None:
    """The ta/td active/draft pair used by the Fig. 12/13 queries."""
    database.execute("create table ta (key int primary key, a int, ext int)")
    database.execute("create table td (key int primary key, a int, ext int)")
    database.bulk_load("ta", [(i, i * 10, i * 100) for i in range(20)])
    database.bulk_load("td", [(i, i * 10, i * 100) for i in range(20, 27)])


@pytest.fixture(scope="module")
def vdm_tables_db() -> Database:
    database = Database(wal_enabled=False)
    create_tpch_schema(database)
    load_tpch(database, scale=0.002)
    add_vdm_tables(database)
    return database


@pytest.fixture(scope="module")
def sales_db() -> Database:
    database = Database(wal_enabled=False)
    create_sales_schema(database)
    load_sales(database, orders=400)
    return database


@pytest.fixture(scope="session")
def journal_db():
    from repro.vdm.journal import JournalModel

    database = Database(wal_enabled=False)
    model = JournalModel(database, rows=400).build()
    return database, model


def rows_equal(a, b) -> bool:
    """Order-insensitive result comparison (repr-normalized for Decimals)."""
    return sorted(map(repr, a.rows)) == sorted(map(repr, b.rows))


def assert_equivalent(database: Database, sql: str, profile: str = "hana") -> None:
    """The central optimizer-correctness check: optimized and unoptimized
    plans must return the same multiset of rows."""
    old = database.profile
    database.set_profile(profile)
    try:
        optimized = database.query(sql)
        unoptimized = database.query(sql, optimize=False)
    finally:
        database.set_profile(old)
    assert sorted(map(repr, optimized.rows)) == sorted(map(repr, unoptimized.rows)), (
        f"optimized result differs for {sql!r}"
    )
