"""Drive the SQL battery: every statement twice, shapes asserted.

One module-scoped database serves all 300+ statements.  Each statement
runs twice.  For a new shape the first run plans value-bound and the
second plans and executes the shape's generic plan (Params substituted
back), so every cacheable statement's generic plan runs here; a shape
seen before runs generic or cached first and hits second.  The two runs
must agree on columns and rows — a built-in value-bound-vs-generic
differential across the whole battery.
"""

from __future__ import annotations

import pytest

from repro import Database
from repro.errors import BindError, SqlSyntaxError

from .statements import STATEMENTS, Case, load

_ERROR_CLASSES = {"syntax": SqlSyntaxError, "bind": BindError}


@pytest.fixture(scope="module")
def battery_db() -> Database:
    db = Database(wal_enabled=False, plan_cache_size=256)
    load(db)
    return db


def _key(rows: list[tuple]) -> list[str]:
    # repr-sort: rows may mix None with non-comparable types.
    return sorted(repr(row) for row in rows)


@pytest.mark.parametrize(
    "case", STATEMENTS, ids=[c.sql[:70] for c in STATEMENTS],
)
def test_battery_statement(battery_db: Database, case: Case):
    if case.error is not None:
        exc = _ERROR_CLASSES[case.error]
        with pytest.raises(exc):
            battery_db.query(case.sql)
        with pytest.raises(exc):  # errors must be stable on re-run too
            battery_db.query(case.sql)
        return

    first = battery_db.query(case.sql)
    second = battery_db.query(case.sql)  # generic plan, or a hit

    if case.columns is not None:
        assert tuple(first.column_names) == case.columns
    if case.rows is not None:
        assert len(first.rows) == case.rows
    for row in first.rows:
        assert len(row) == len(first.column_names)

    assert tuple(second.column_names) == tuple(first.column_names)
    if not case.volatile:
        assert _key(second.rows) == _key(first.rows)


def test_battery_size():
    assert len(STATEMENTS) >= 300


def test_battery_exercised_plan_cache(battery_db: Database):
    """Runs after the parametrized battery (same module order): the
    double-execution pattern must have produced real cache traffic."""
    cache = battery_db.plan_cache
    assert cache is not None
    assert cache.hits > 100, (cache.hits, cache.misses)
    ok_cases = sum(1 for c in STATEMENTS if c.error is None)
    assert cache.hits + cache.misses >= ok_cases
