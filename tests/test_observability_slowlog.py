"""Slow-query log: threshold gating, ring-buffer eviction, captured detail."""

import pytest

from repro import Database
from repro.observability import QueryLogEntry, SlowQueryLog
from repro.observability.slowlog import DEFAULT_CAPACITY


def _entry(sql: str, elapsed_s: float) -> QueryLogEntry:
    return QueryLogEntry(
        query_id="q1", sql=sql, status="ok", error=None, started_at=0.0,
        elapsed_s=elapsed_s, parse_s=None, bind_s=None, optimize_s=None,
        execute_s=None, rows=0, operators_before=1, operators_after=1,
        rewrite_fires={},
    )


@pytest.fixture
def db():
    database = Database()
    database.execute("create table t (a int primary key, b int)")
    database.execute("insert into t values (1,10),(2,20),(3,30)")
    return database


class TestThresholdGating:
    def test_disabled_by_default(self, db):
        db.query("select count(*) from t")
        assert len(db.slow_queries) == 0
        assert db.slow_queries.threshold_s is None

    def test_zero_threshold_captures_everything(self, db):
        db.slow_queries.configure(threshold_s=0.0)
        db.query("select count(*) from t")
        db.query("select a from t")
        assert len(db.slow_queries) == 2

    def test_high_threshold_captures_nothing(self, db):
        db.slow_queries.configure(threshold_s=3600.0)
        db.query("select count(*) from t")
        assert len(db.slow_queries) == 0

    def test_reconfigure_turns_off(self, db):
        db.slow_queries.configure(threshold_s=0.0)
        db.query("select a from t")
        db.slow_queries.configure(threshold_s=None)
        db.query("select b from t")
        assert len(db.slow_queries) == 1

    def test_resizing_keeps_the_threshold(self, db):
        db.slow_queries.configure(threshold_s=0.0)
        db.slow_queries.configure(capacity=64)
        assert db.slow_queries.threshold_s == 0.0
        assert db.slow_queries.capacity == 64
        db.query("select a from t")
        assert len(db.slow_queries) == 1


class TestRingBuffer:
    def test_eviction_at_capacity(self):
        log = SlowQueryLog(threshold_s=0.0, capacity=3)
        for i in range(5):
            log.record(_entry(f"q{i}", float(i)))
        assert len(log) == 3
        assert [e.sql for e in log] == ["q2", "q3", "q4"]

    def test_default_capacity(self):
        log = SlowQueryLog()
        assert log.capacity == DEFAULT_CAPACITY

    def test_capacity_shrink_keeps_newest(self):
        log = SlowQueryLog(threshold_s=0.0, capacity=4)
        for i in range(4):
            log.record(_entry(f"q{i}", 1.0))
        log.configure(threshold_s=0.0, capacity=2)
        assert [e.sql for e in log] == ["q2", "q3"]

    def test_clear(self):
        log = SlowQueryLog(threshold_s=0.0)
        log.record(_entry("q", 1.0))
        log.clear()
        assert len(log) == 0
        assert log.render() == "(slow-query log empty)"


class TestCapturedDetail:
    def test_entry_holds_sql_plan_and_rewrites(self, db):
        db.execute("create table u (a int primary key, c int)")
        db.execute(
            "create view tv as select t.a, t.b from t "
            "left outer many to one join u on t.a = u.a"
        )
        db.slow_queries.configure(threshold_s=0.0)
        db.query("select count(*) from tv")
        (entry,) = db.slow_queries.entries()
        assert entry.sql == "select count(*) from tv"
        assert entry.elapsed_s > 0
        assert "Scan" in entry.plan
        assert "Join" not in entry.plan            # the AJ was removed
        assert entry.rewrite_fires.get("AJ declared", 0) >= 1

    def test_to_dict_and_render(self, db):
        db.tracing = True
        db.slow_queries.configure(threshold_s=0.0)
        db.query("select a from t")
        entry = db.slow_queries.entries()[0]
        data = entry.to_dict()
        assert data["sql"] == "select a from t"
        assert data["elapsed_ms"] > 0
        assert data["spans"]["name"] == "query"
        text = db.slow_queries.render()
        assert "threshold 0ms" in text and "select a from t" in text

    def test_summary_truncates_long_sql(self):
        entry = _entry("select " + "x" * 200, 0.5)
        assert len(entry.summary()) < 120
        assert entry.summary().endswith("...")

    def test_fast_statements_keep_no_slow_detail(self, db):
        db.slow_queries.configure(threshold_s=3600.0)
        db.tracing = True
        result = db.query("select a from t")
        assert result.stats.plan is None
        assert result.stats.plan_summary is None
        assert result.stats.span_root is None
