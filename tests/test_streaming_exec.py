"""The streaming batch executor: physical planning, pipelined limits,
per-batch deadlines, zero-column batches, early termination, and the
``executor.batch`` fault point."""

from __future__ import annotations

import pytest

from repro import Database
from repro.engine import physical
from repro.engine.chunk import Chunk
from repro.engine.physical import (
    BatchScanExec,
    FilterExec,
    HashJoinExec,
    LimitExec,
    ProjectExec,
)
from repro.errors import FaultInjectedError, QueryTimeoutError
from repro.observability import ExecutionCollector
from repro.optimizer.cost import CardinalityEstimator

ORDERS = 2000
CUSTS = 100
PAGING_SQL = (
    "select * from bigorders o left outer join pagecust c "
    "on o.cust = c.ckey limit 10 offset 5"
)


def paging_db(batch_size: int) -> Database:
    """The Fig. 6 paging workload: a wide anchor augmented by a unique-key
    left outer join, paged with LIMIT/OFFSET."""
    db = Database(batch_size=batch_size)
    db.execute("create table bigorders (okey int primary key, cust int not null)")
    db.execute("create table pagecust (ckey int primary key, cname varchar(20))")
    db.bulk_load("bigorders", [(i, i % CUSTS) for i in range(ORDERS)])
    db.bulk_load("pagecust", [(i, f"c{i}") for i in range(CUSTS)])
    return db


def analyzed_scan_count(db: Database, sql: str, optimize: bool) -> tuple[int, list]:
    plan = db.plan_for(sql, optimize=optimize)
    collector = ExecutionCollector()
    txn = db.begin()
    try:
        result = db._executor.execute(plan, txn, collector=collector)
    finally:
        db.commit(txn)
    return collector.rows_scanned(), result.rows


UAJ_PAGING_SQL = (
    "select o.okey from bigorders o left outer join pagecust c "
    "on o.cust = c.ckey limit 10 offset 5"
)


class TestLimitPushdownScansLess:
    """Satellite: rows_scanned must drop for the Fig. 6 paging workload,
    across batch sizes {1, 7, 1024}."""

    @pytest.mark.parametrize("batch_size", [1, 7, 1024])
    def test_rows_scanned_drops_vs_unoptimized(self, batch_size):
        # The UAJ shape: no augmenter column is selected, so the optimizer
        # eliminates the join and pushes the limit straight onto the scan.
        db = paging_db(batch_size)
        scanned_opt, rows_opt = analyzed_scan_count(db, UAJ_PAGING_SQL, optimize=True)
        scanned_raw, rows_raw = analyzed_scan_count(db, UAJ_PAGING_SQL, optimize=False)
        assert rows_opt == rows_raw  # same answer either way
        assert len(rows_opt) == 10
        need = 15  # offset 5 + limit 10
        batches = -(-need // batch_size)  # ceil
        # Optimized: join gone — only O(k·batch_size) anchor rows decode.
        assert scanned_opt <= batches * batch_size
        # Unoptimized: the augmentation side is still read in full.
        assert scanned_raw >= CUSTS
        assert scanned_opt < scanned_raw

    @pytest.mark.parametrize("batch_size", [1, 7, 1024])
    def test_streaming_scans_o_of_k_not_o_of_table(self, batch_size):
        # With the augmenter columns selected the join survives, but the
        # streaming pipeline still bounds the anchor scan by the limit:
        # O(k·batch_size) anchor rows plus the (small) augmentation side —
        # while a materializing execution (one table-sized batch) decodes
        # every row of both tables.
        db = paging_db(batch_size)
        scanned_opt, rows_opt = analyzed_scan_count(db, PAGING_SQL, optimize=True)
        assert len(rows_opt) == 10
        need = 15
        batches = -(-need // batch_size)
        assert scanned_opt <= batches * batch_size + CUSTS
        materializing = paging_db(10_000_000)
        scanned_mat, _ = analyzed_scan_count(materializing, PAGING_SQL, optimize=False)
        assert scanned_mat >= ORDERS + CUSTS  # O(table)
        assert scanned_opt < scanned_mat

    def test_rows_scanned_equal_results_across_batch_sizes(self):
        expected = None
        for batch_size in (1, 7, 1024):
            db = paging_db(batch_size)
            rows = db.query(PAGING_SQL).rows
            if expected is None:
                expected = rows
            else:
                assert rows == expected


class TestPerBatchDeadline:
    """Satellite: the statement timeout is checked inside the per-batch
    loop, so a long streaming scan is interrupted mid-operator."""

    def wide_db(self, batch_size: int = 10, rows: int = 500) -> Database:
        db = Database(batch_size=batch_size)
        db.execute("create table wide (id int primary key, v int)")
        db.bulk_load("wide", [(i, i) for i in range(rows)])
        return db

    def test_deadline_fires_mid_scan(self, monkeypatch):
        db = self.wide_db()
        plan = db.plan_for("select v from wide")
        # A fake clock that jumps one second per check: the deadline is
        # crossed after a handful of batches, far from any operator
        # boundary (the scan alone would produce 50 batches).
        clock = iter(range(1, 10_000))
        monkeypatch.setattr(physical, "_now", lambda: next(clock))
        txn = db.begin()
        try:
            with pytest.raises(QueryTimeoutError, match="deadline exceeded"):
                db._executor.execute(plan, txn, deadline=8)
        finally:
            db.commit(txn)
        produced = db.metrics.counter("exec.batches_produced").value
        assert 0 < produced < 50  # some batches flowed, the scan never finished

    def test_query_timeout_over_wide_scan(self):
        db = self.wide_db(batch_size=16, rows=4000)
        with pytest.raises(QueryTimeoutError):
            db.query("select count(*) from wide", timeout=0.0)
        assert db.metrics.counter("query.timeouts").value == 1
        # The engine recovers: the same query without a deadline works.
        assert db.query("select count(*) from wide").scalar() == 4000


class TestZeroColumnBatches:
    """Satellite: zero-column chunks keep their row_count through the
    batch pipeline (COUNT(*) reads no columns at all)."""

    def counted_db(self, batch_size: int = 7, rows: int = 3000) -> Database:
        db = Database(batch_size=batch_size)
        db.execute("create table t (id int primary key, v int)")
        db.bulk_load("t", [(i, i) for i in range(rows)])
        return db

    def test_concat_preserves_zero_column_row_count(self):
        merged = Chunk.concat([Chunk({}, 3), Chunk({}, 4), Chunk({}, 0)])
        assert merged.row_count == 7
        assert merged.columns == {}
        assert merged.rows([]) == [()] * 7

    def test_concat_with_columns(self):
        merged = Chunk.concat([Chunk({1: [10, 11]}, 2), Chunk({1: [12]}, 1)])
        assert merged.row_count == 3
        assert merged.column(1) == [10, 11, 12]

    @pytest.mark.parametrize("batch_size", [1, 7, 1024])
    def test_count_star_under_limit(self, batch_size):
        db = self.counted_db(batch_size=batch_size, rows=300)
        assert db.query("select count(*) from t limit 1").scalar() == 300

    def test_fully_pruned_count_star_under_limit(self):
        db = self.counted_db()
        # v > 10**9 prunes every zone-mapped block; the aggregate still
        # produces its default group and LIMIT still emits it.
        result = db.query("select count(*) from t where v > 1000000000 limit 3")
        assert result.scalar() == 0
        assert db.metrics.counter("nse.blocks_pruned").value > 0

    def test_partially_pruned_count_star(self):
        db = self.counted_db()
        assert db.query("select count(*) from t where v < 50").scalar() == 50


class TestEarlyTermination:
    def test_limit_flags_and_metrics(self):
        db = Database(batch_size=4)
        db.execute("create table t (id int primary key)")
        db.bulk_load("t", [(i,) for i in range(100)])
        text = db.explain("select id from t limit 3", analyze=True)
        assert "early-terminated" in text
        assert db.metrics.counter("exec.early_terminations").value > 0
        assert db.metrics.counter("exec.batches_produced").value > 0
        assert db.metrics.histogram("exec.peak_batch_rows").count > 0
        assert db.metrics.histogram("exec.peak_batch_rows").max <= 4

    def test_exists_short_circuits_subquery_side(self):
        db = Database(batch_size=2)
        db.execute("create table a (x int primary key)")
        db.execute("create table b (y int primary key)")
        db.bulk_load("a", [(i,) for i in range(10)])
        db.bulk_load("b", [(i,) for i in range(1000)])
        scanned, rows = analyzed_scan_count(
            db, "select x from a where exists (select y from b)", optimize=True
        )
        assert len(rows) == 10
        # The EXISTS side stops at its first non-empty batch.
        assert scanned <= 10 + 2 * 2


class TestBatchFaultPoint:
    """Satellite: fault injection reaches inside the batch loops."""

    def faulted_db(self) -> Database:
        db = Database(batch_size=5)
        db.execute("create table t (id int primary key)")
        db.bulk_load("t", [(i,) for i in range(40)])
        return db

    def test_fault_fires_on_nth_batch(self):
        db = self.faulted_db()
        rule = db.faults.arm("executor.batch", nth=3)
        with pytest.raises(FaultInjectedError):
            db.query("select id from t")
        assert rule.injections == 1
        db.faults.disarm()
        assert len(db.query("select id from t").rows) == 40

    def test_fault_matches_operator_name(self):
        db = self.faulted_db()
        db.faults.arm("executor.batch", match={"op": "BatchScan(t)"})
        with pytest.raises(FaultInjectedError):
            db.query("select id from t")
        db.faults.disarm("executor.batch")
        # A non-matching op name never fires.
        rule = db.faults.arm("executor.batch", match={"op": "Sort"})
        assert len(db.query("select id from t").rows) == 40
        assert rule.injections == 0


class TestPhysicalPlanner:
    def planner_db(self) -> Database:
        db = paging_db(batch_size=64)
        return db

    def test_scan_chain_shapes(self):
        db = self.planner_db()
        plan = db.plan_for("select okey from bigorders where cust > 10 limit 2")
        root = db._executor.compile(plan)
        kinds = [type(op) for op in root.walk()]
        assert kinds == [ProjectExec, LimitExec, FilterExec, BatchScanExec]

    def test_filter_over_scan_donates_prune_bounds(self):
        db = self.planner_db()
        plan = db.plan_for("select okey from bigorders where okey >= 1500")
        scan = [op for op in db._executor.compile(plan).walk()
                if isinstance(op, BatchScanExec)][0]
        assert ("okey", ">=", 1500) in scan.prune_bounds
        assert "zone-map" in scan.strategy()

    def test_pushed_limit_becomes_build_side(self):
        db = self.planner_db()
        plan = db.plan_for(PAGING_SQL, optimize=True)
        joins = [op for op in db._executor.compile(plan).walk()
                 if isinstance(op, HashJoinExec)]
        assert joins, "expected the augmentation join in the physical plan"
        # The limited anchor (15 estimated rows) is cheaper than the
        # 100-row augmentation side: it becomes the build side.
        assert joins[0].build_side == "left"

    def test_unlimited_join_builds_on_smaller_side(self):
        db = self.planner_db()
        plan = db.plan_for(
            "select o.okey, c.cname from bigorders o "
            "join pagecust c on o.cust = c.ckey"
        )
        join = [op for op in db._executor.compile(plan).walk()
                if isinstance(op, HashJoinExec)][0]
        assert join.build_side == "right"  # pagecust is 20x smaller

    def test_scan_reads_only_live_columns(self):
        db = self.planner_db()
        plan = db.plan_for("select okey from bigorders")
        scan = [op for op in db._executor.compile(plan).walk()
                if isinstance(op, BatchScanExec)][0]
        assert [c.name for c in scan.wanted] == ["okey"]

    def test_join_does_not_carry_keys_only_it_reads(self):
        db = self.planner_db()
        plan = db.plan_for(
            "select o.okey, c.cname from bigorders o "
            "join pagecust c on o.cust = c.ckey"
        )
        join = [op for op in db._executor.compile(plan).walk()
                if isinstance(op, HashJoinExec)][0]
        assert [c.name for c in join.output] == ["okey", "cname"]
        assert {c.name for c in join.children[0].output} == {"okey", "cust"}

    def test_join_carries_residual_columns(self):
        # A residual is evaluated over the joined batch, so the columns it
        # reads stay in the join's output; the equi key does not.
        db = self.planner_db()
        plan = db.plan_for(
            "select c.cname from bigorders o join pagecust c "
            "on o.cust = c.ckey and o.okey > c.ckey"
        )
        join = [op for op in db._executor.compile(plan).walk()
                if isinstance(op, HashJoinExec)][0]
        assert join.residual
        assert {c.name for c in join.output} == {"okey", "ckey", "cname"}

    def test_estimator_evaluates_each_node_once(self, journal_db, monkeypatch):
        db, _ = journal_db
        plan = db.plan_for(
            "select * from journalentryitembrowser order by acdockey limit 50"
        )
        evaluated = []
        evaluate = CardinalityEstimator._evaluate

        def counting(estimator, op):
            evaluated.append(id(op))
            return evaluate(estimator, op)

        monkeypatch.setattr(CardinalityEstimator, "_evaluate", counting)
        root = db._executor.compile(plan)
        nodes = sum(1 for _ in plan.walk())
        assert len(evaluated) == len(set(evaluated)) == nodes <= 160
        assert all(op.est_rows is not None for op in root.walk())


class TestStreamingSemantics:
    def test_left_outer_null_extension_is_inline(self):
        """Unmatched anchor rows NULL-extend in place, preserving anchor
        order batch by batch (the §4.4 top-N pushdown relies on it)."""
        db = Database(batch_size=2)
        db.execute("create table o (okey int primary key, cust int)")
        db.execute("create table c (ckey int primary key, cname varchar(8))")
        db.bulk_load("o", [(i, i) for i in range(1, 7)])
        db.bulk_load("c", [(i, f"c{i}") for i in (2, 4, 6)])
        rows = db.query(
            "select o.okey, c.cname from o "
            "left outer join c on o.cust = c.ckey"
        ).rows
        assert rows == [
            (1, None), (2, "c2"), (3, None), (4, "c4"), (5, None), (6, "c6"),
        ]

    @pytest.mark.parametrize("batch_size", [1, 3, 1024])
    def test_aggregate_and_sort_across_batch_boundaries(self, batch_size):
        db = Database(batch_size=batch_size)
        db.execute("create table s (g int, v int)")
        db.bulk_load("s", [(i % 3, i) for i in range(50)])
        rows = db.query(
            "select g, count(*) as n, sum(v) as t from s group by g order by g"
        ).rows
        assert [r[0] for r in rows] == [0, 1, 2]
        assert sum(r[1] for r in rows) == 50
        assert sum(r[2] for r in rows) == sum(range(50))

    def test_distinct_streams_across_batches(self):
        db = Database(batch_size=3)
        db.execute("create table d (v int)")
        db.bulk_load("d", [(i % 4,) for i in range(40)])
        rows = db.query("select distinct v from d order by v").rows
        assert rows == [(0,), (1,), (2,), (3,)]


class TestRowAtATimeStreaming:
    """Satellite (PR 5): batch_size=1 — the executor's worst case, every
    operator boundary crossed per row — over the two shapes the fuzz
    oracles lean on hardest: ORDER BY + LIMIT paging and DISTINCT over a
    UnionAll."""

    @pytest.mark.parametrize("batch_size", [1, 1024])
    def test_order_by_limit_offset_page(self, batch_size):
        db = paging_db(batch_size)
        sql = (
            "select o.okey, c.cname from bigorders o "
            "left outer join pagecust c on o.cust = c.ckey "
            "order by o.okey desc limit 7 offset 3"
        )
        rows = db.query(sql).rows
        assert [r[0] for r in rows] == list(range(ORDERS - 4, ORDERS - 11, -1))
        assert rows == db.query(sql, optimize=False).rows

    def test_order_by_limit_agrees_across_batch_sizes(self):
        sql = (
            "select o.okey, c.cname from bigorders o "
            "left outer join pagecust c on o.cust = c.ckey "
            "order by o.okey limit 13 offset 8"
        )
        expected = None
        for batch_size in (1, 2, 1024):
            rows = paging_db(batch_size).query(sql).rows
            if expected is None:
                expected = rows
                assert [r[0] for r in rows] == list(range(8, 21))
            else:
                assert rows == expected

    def union_db(self, batch_size: int) -> Database:
        db = Database(batch_size=batch_size)
        db.execute("create table ua (v int, tag varchar(4))")
        db.execute("create table ub (v int, tag varchar(4))")
        db.bulk_load("ua", [(i % 5, "a") for i in range(23)])
        db.bulk_load("ub", [(i % 7, "b") for i in range(31)])
        return db

    @pytest.mark.parametrize("batch_size", [1, 1024])
    def test_distinct_over_union_all(self, batch_size):
        db = self.union_db(batch_size)
        sql = (
            "select distinct v from "
            "(select v from ua union all select v from ub) u order by v"
        )
        assert db.query(sql).rows == [(i,) for i in range(7)]
        assert db.query(sql, optimize=False).rows == [(i,) for i in range(7)]

    def test_distinct_over_union_all_with_limit_at_batch_one(self):
        db = self.union_db(1)
        sql = (
            "select distinct v, tag from "
            "(select v, tag from ua union all select v, tag from ub) u "
            "order by v, tag limit 5"
        )
        rows = db.query(sql).rows
        assert rows == [(0, "a"), (0, "b"), (1, "a"), (1, "b"), (2, "a")]
        assert rows == db.query(sql, optimize=False).rows
