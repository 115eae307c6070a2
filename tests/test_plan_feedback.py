"""Plan-feedback observability: est-vs-actual cardinalities, Q-error
metrics, operator memory accounting, and per-shape latency baselines."""

from __future__ import annotations

import inspect
import warnings

import pytest

from repro.database import Database
from repro.errors import MemoryBudgetWarning
from repro.observability import (
    MISESTIMATE_QERROR,
    QueryLog,
    ShapeBaselines,
    qerror,
)
from repro.sql.normalize import shape_hash


@pytest.fixture()
def db():
    database = Database()
    database.execute("create table t (id int primary key, v int)")
    database.execute(
        "insert into t values (1, 10), (2, 20), (3, 30), (4, 40), "
        "(5, 50), (6, 60), (7, 70), (8, 80), (9, 90), (10, 100), "
        "(11, 110), (12, 120)"
    )
    yield database
    database.close()


# -- the Q-error metric -----------------------------------------------------


def test_qerror_perfect_estimate_is_one():
    assert qerror(10, 10) == 1.0


def test_qerror_is_symmetric():
    assert qerror(2, 50) == qerror(50, 2) == 25.0


def test_qerror_clamps_both_sides_to_one_row():
    # 0.3 estimated rows against 0 actual rows is a perfect prediction,
    # not an infinite error: both clamp to 1.
    assert qerror(0.3, 0) == 1.0
    assert qerror(0.0, 5) == 5.0
    assert qerror(5, 0) == 5.0


def test_qerror_never_below_one():
    for est, actual in [(1, 1), (0, 0), (7, 3), (0.01, 1000)]:
        assert qerror(est, actual) >= 1.0


# -- feedback rows recorded per query ---------------------------------------


def test_one_feedback_row_per_operator_in_preorder(db):
    result = db.query("select v from t where v > 55 order by v")
    query_id = result.stats.query_id
    rows = [f for f in db.query_log.feedback_rows() if f.query_id == query_id]
    assert [f.op_index for f in rows] == list(
        range(result.stats.operators_after)
    )
    assert all(f.est_rows is not None for f in rows)
    assert all(f.qerror is not None and f.qerror >= 1.0 for f in rows)
    kinds = {f.kind for f in rows}
    assert {"Project", "Sort", "Filter", "BatchScan"} <= kinds


def test_scan_feedback_has_perfect_qerror(db):
    result = db.query("select v from t")
    query_id = result.stats.query_id
    scan = [
        f for f in db.query_log.feedback_rows()
        if f.query_id == query_id and f.kind == "BatchScan"
    ]
    assert len(scan) == 1
    assert scan[0].est_rows == 12.0
    assert scan[0].rows_out == 12
    assert scan[0].qerror == 1.0


def test_never_executed_probe_side_is_flagged(db):
    # Empty build side: the hash join answers without ever opening the
    # probe scan, which must still get a feedback row.
    db.execute("create table e (id int primary key)")
    result = db.query("select t.id from e join t on e.id = t.id")
    query_id = result.stats.query_id
    rows = [f for f in db.query_log.feedback_rows() if f.query_id == query_id]
    skipped = [f for f in rows if f.never_executed]
    assert len(skipped) == 1
    assert "BatchScan(t)" in skipped[0].label
    assert skipped[0].rows_out == 0
    assert skipped[0].peak_bytes == 0


def test_early_terminated_operator_is_flagged():
    db = Database(batch_size=1)
    db.execute("create table t (id int primary key)")
    db.execute("insert into t values (1), (2), (3), (4)")
    result = db.query("select id from t limit 2")
    query_id = result.stats.query_id
    rows = [f for f in db.query_log.feedback_rows() if f.query_id == query_id]
    assert any(f.early_terminated for f in rows if f.kind == "BatchScan")
    db.close()


def test_blocking_operators_report_peak_bytes(db):
    result = db.query("select v from t order by v")
    query_id = result.stats.query_id
    sort = [
        f for f in db.query_log.feedback_rows()
        if f.query_id == query_id and f.kind == "Sort"
    ]
    assert len(sort) == 1
    assert sort[0].peak_bytes > 0
    snapshot = db.metrics.snapshot()
    assert snapshot["exec.operator_peak_bytes"]["count"] >= 1


def test_operator_stats_and_plan_feedback_retain_the_same_queries(db):
    # One ring behind both views: overflowing it (2048 rows) with
    # three-operator plans evicts a query's rows from both tables at
    # once, never from one alone.
    for index in range(800):
        db.query(f"select v from t where v > {index % 120}")
    executed: dict[str, list] = {}
    for o in db.query_log.operator_rows():
        executed.setdefault(o.query_id, []).append((o.op_index, o.label, o.rows_out))
    feedback: dict[str, list] = {}
    for f in db.query_log.feedback_rows():
        if not f.never_executed:
            feedback.setdefault(f.query_id, []).append((f.op_index, f.label, f.rows_out))
    assert len(db.query_log.feedback_rows()) == 2048
    assert len(executed) > 600
    assert executed == feedback


def test_feedback_ring_is_not_separately_sized():
    # The plan-feedback ring and its own capacity knob are gone: the log
    # is sized by exactly two values, so any other ring size passed to
    # QueryLog() or configure() is a TypeError.
    assert list(inspect.signature(QueryLog).parameters) == [
        "capacity", "operator_capacity"]
    assert list(inspect.signature(QueryLog.configure).parameters) == [
        "self", "capacity", "operator_capacity"]
    with pytest.raises(TypeError):
        QueryLog().configure(plan_feedback=16)


# -- qerror histogram and misestimate counters ------------------------------


def test_misestimated_filter_bumps_counter_and_histogram(db):
    # Two stacked range predicates: the System-R 1/3 selectivity guess
    # estimates 12/9 = 1.33 rows, but every row qualifies -> qerror 9.
    db.query("select v from t where v > -1 and v < 1000000")
    snapshot = db.metrics.snapshot()
    assert snapshot["optimizer.misestimates.Filter"] >= 1
    histogram = snapshot["optimizer.qerror"]
    assert histogram["count"] >= 1
    assert histogram["max"] >= MISESTIMATE_QERROR


def test_accurate_queries_do_not_count_as_misestimates(db):
    db.query("select v from t")
    snapshot = db.metrics.snapshot()
    assert snapshot.get("optimizer.misestimates.BatchScan", 0) == 0


def test_early_terminated_rows_stay_out_of_qerror_metrics():
    # An early-terminated scan's actual count is a lower bound, not a
    # measurement — it must not pollute the estimation-quality metrics.
    db = Database(batch_size=1)
    db.execute("create table t (id int primary key)")
    for i in range(10):
        db.execute(f"insert into t values ({i})")
    before = db.metrics.snapshot()["optimizer.qerror"]["count"]
    result = db.query("select id from t limit 1")
    query_id = result.stats.query_id
    rows = [f for f in db.query_log.feedback_rows() if f.query_id == query_id]
    measured = [
        f for f in rows if not f.early_terminated and not f.never_executed
    ]
    after = db.metrics.snapshot()["optimizer.qerror"]["count"]
    assert after - before == len(measured)
    db.close()


# -- sys.plan_feedback through the SQL pipeline -----------------------------


def test_sys_plan_feedback_rows_via_sql(db):
    db.query("select v from t where v > 55 order by v")
    result = db.query(
        "select operator, kind, est_rows, actual_rows, qerror "
        "from sys.plan_feedback where kind = 'Sort'"
    )
    assert result.rows
    operator, kind, est, actual, q = result.rows[0]
    assert kind == "Sort"
    assert est is not None and actual >= 0 and q >= 1.0


def test_sys_plan_feedback_joins_query_log(db):
    sql = "select sum(v) from t"
    db.query(sql)
    result = db.query(
        "select f.kind from sys.plan_feedback f "
        "join sys.query_log q on f.query_id = q.query_id "
        f"where q.sql = '{sql}'"
    )
    assert ("HashAggregate",) in result.rows


# -- the soft memory budget -------------------------------------------------


def test_memory_budget_warns_once_and_completes():
    db = Database(memory_budget_bytes=100)
    db.execute("create table t (id int primary key, v int)")
    db.execute("insert into t values (1, 10), (2, 20), (3, 30)")
    with pytest.warns(MemoryBudgetWarning, match="execution continues"):
        result = db.query("select v from t order by v")
    assert len(result.rows) == 3  # degraded, not dead
    assert db.metrics.snapshot()["exec.memory_budget_exceeded"] == 1
    health = db.health()
    assert health["status"] == "degraded"
    assert any("memory budget" in reason for reason in health["reasons"])
    db.close()


def test_memory_budget_not_exceeded_stays_quiet(db):
    with warnings.catch_warnings():
        warnings.simplefilter("error", MemoryBudgetWarning)
        db.query("select v from t order by v")
    assert db.metrics.snapshot()["exec.memory_budget_exceeded"] == 0
    assert db.health()["status"] == "ok"


# -- disabling plan feedback ------------------------------------------------


def test_plan_feedback_disabled_records_nothing():
    db = Database(plan_feedback=False)
    db.execute("create table t (id int primary key, v int)")
    db.execute("insert into t values (1, 10)")
    db.query("select v from t order by v")
    assert db.query_log.feedback_rows() == []
    assert db.query_log.operator_rows() == []
    assert db.metrics.snapshot()["optimizer.qerror"]["count"] == 0
    # EXPLAIN ANALYZE opts back in explicitly, so it still works.
    text = db.explain("select v from t order by v", analyze=True)
    assert "actual rows=" in text
    db.close()


def test_plan_cache_hit_keeps_estimates_with_plan_feedback_disabled():
    # Tracing collects operator stats; a hit compiles the cached generic
    # plan and must carry the same estimates as the misses before it.
    db = Database(plan_feedback=False)
    db.execute("create table t (id int primary key, v int)")
    db.execute("insert into t values " + ", ".join(
        f"({i}, {i * 10})" for i in range(100)
    ))
    db.tracing = True
    query_ids = [
        db.query(f"select v from t where id = {key}").stats.query_id
        for key in (1, 2, 3)
    ]
    assert db.plan_cache.hits == 1
    estimates = [
        [f.est_rows for f in db.query_log.feedback_rows() if f.query_id == qid]
        for qid in query_ids
    ]
    assert estimates[0] and None not in estimates[0]
    assert estimates[2] == estimates[0]
    db.close()


# -- per-shape latency baselines --------------------------------------------


def test_baselines_group_by_shape_and_track_percentiles():
    baselines = ShapeBaselines()
    for elapsed in [0.010, 0.020, 0.030, 0.040]:
        baselines.observe("shape-a", elapsed, sql="select 1")
    (stats,) = baselines.shapes()
    assert stats.count == 4
    assert stats.example_sql == "select 1"
    assert 0.010 <= stats.p50_s() <= 0.040
    assert stats.p50_s() <= stats.p95_s()
    assert not stats.regressed


def test_baselines_flag_regression_after_sustained_slowdown():
    baselines = ShapeBaselines(min_samples=8, factor=3.0)
    for _ in range(20):
        baselines.observe("s", 0.010)
    assert not baselines.regressed_shapes()
    # Feed 100x-slower samples until the rolling-window median crosses
    # 3x the (still-fast) baseline.  The flag is transient: once the EWMA
    # baseline adapts to the new normal it clears again, so catch it at
    # the transition rather than after a fixed number of samples.
    fired = False
    for _ in range(64):
        baselines.observe("s", 1.0)
        if baselines.regressed_shapes():
            fired = True
            break
    assert fired, "a 100x sustained slowdown never flagged as regressed"
    assert [s.shape for s in baselines.regressed_shapes()] == ["s"]


def test_baselines_regression_counter_fires_on_transition():
    from repro.observability import MetricsRegistry

    registry = MetricsRegistry()
    baselines = ShapeBaselines(min_samples=4, metrics=registry)
    for _ in range(10):
        baselines.observe("s", 0.010)
    for _ in range(40):
        baselines.observe("s", 1.0)
    assert registry.snapshot()["baseline.shape_regressions"] == 1


def test_baselines_adapt_to_the_new_normal():
    baselines = ShapeBaselines(min_samples=4)
    for _ in range(10):
        baselines.observe("s", 0.010)
    fired = False
    for _ in range(64):
        baselines.observe("s", 1.0)
        if baselines.regressed_shapes():
            fired = True
    assert fired
    # The EWMA baseline catches up with the sustained new level and the
    # window median stops exceeding 3x: the flag clears on its own.
    for _ in range(200):
        baselines.observe("s", 1.0)
    assert not baselines.regressed_shapes()
    (stats,) = baselines.shapes()
    assert stats.baseline_s == pytest.approx(1.0, rel=0.05)


def test_sync_folds_query_log_incrementally(db):
    sql = "select count(*) from t"
    for _ in range(3):
        db.query(sql)
    db.shape_baselines.sync(db.query_log)
    stats = {s.shape: s for s in db.shape_baselines.shapes()}
    assert stats[shape_hash(sql)].count == 3
    # A second sync with no new queries folds nothing twice.
    db.shape_baselines.sync(db.query_log)
    assert {s.shape: s.count for s in db.shape_baselines.shapes()} == {
        shape: s.count for shape, s in stats.items()
    }


def test_sync_skips_errored_queries(db):
    with pytest.raises(Exception):
        db.query("select no_such_column from t")
    db.shape_baselines.sync(db.query_log)
    assert db.shape_baselines.shapes() == []


def test_sys_query_shapes_live_rows(db):
    sql = "select sum(v) from t where v > 5"
    for _ in range(4):
        db.query(sql)
    result = db.query(
        "select shape, example_sql, count, regressed from sys.query_shapes "
        f"where example_sql = '{sql}'"
    )
    assert len(result.rows) == 1
    shape, example_sql, count, regressed = result.rows[0]
    assert shape == shape_hash(sql)
    assert example_sql == sql
    assert count == 4
    assert regressed is False


def test_literal_variants_share_one_shape(db):
    db.query("select v from t where v > 5")
    db.query("select v from t where v > 99")
    db.shape_baselines.sync(db.query_log)
    shapes = [
        s for s in db.shape_baselines.shapes()
        if s.example_sql and s.example_sql.startswith("select v from t")
    ]
    assert len(shapes) == 1
    assert shapes[0].count == 2
