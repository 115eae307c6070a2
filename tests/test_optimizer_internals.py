"""Unit tests for optimizer internals: augmenter views, emptiness proofs,
chunks, and the bench reporting helper."""

import pytest

from repro import Database
from repro.algebra.ops import Filter, Join, Project, Scan, UnionAll
from repro.bench.reporting import format_matrix
from repro.engine.chunk import Chunk
from repro.optimizer.augmentation import augmenter_view, is_provably_empty


@pytest.fixture
def db():
    database = Database()
    database.execute("create table t (k int primary key, a int, b varchar(5))")
    database.execute("create table u (k int primary key, x int)")
    return database


def subplan(db, sql):
    """The FROM-side subtree of `select ... from (sql) s` — i.e. the bound
    derived-table plan."""
    return db.bind(sql)


class TestAugmenterView:
    def test_bare_scan(self, db):
        plan = db.bind("select * from t")  # identity project collapses? bound plan
        # bound plan is Project over Scan; peel manually
        view = augmenter_view(plan)
        assert view is not None
        assert view.scan.schema.name == "t"
        for col in plan.output:
            assert view.base_column(col.cid) == col.name

    def test_project_rename_tracks_base_columns(self, db):
        plan = db.bind("select k as kk, a from t")
        view = augmenter_view(plan)
        assert view.base_column(plan.output[0].cid) == "k"
        assert view.base_column(plan.output[1].cid) == "a"

    def test_computed_column_is_not_passthrough(self, db):
        plan = db.bind("select k, a + 1 as a1 from t")
        view = augmenter_view(plan)
        assert view.base_column(plan.output[0].cid) == "k"
        assert view.base_column(plan.output[1].cid) is None

    def test_filters_collected(self, db):
        plan = db.bind("select k from t where a > 3 and b = 'x'")
        view = augmenter_view(plan)
        assert view is not None and len(view.filters) == 2

    def test_nested_projects_resolve(self, db):
        plan = db.bind("select kk from (select k as kk, a from t) q")
        view = augmenter_view(plan)
        assert view.base_column(plan.output[0].cid) == "k"

    def test_join_blocks(self, db):
        plan = db.bind("select t.k from t join u on t.k = u.k")
        assert augmenter_view(plan) is None

    def test_aggregate_blocks(self, db):
        plan = db.bind("select a, count(*) as n from t group by a")
        assert augmenter_view(plan) is None


class TestEmptinessProof:
    def prove(self, db, sql):
        return is_provably_empty(db.bind(sql))

    def test_constant_false_filter(self, db):
        assert self.prove(db, "select k from t where false")
        assert self.prove(db, "select k from t where null")

    def test_nonconstant_filter_not_proven(self, db):
        assert not self.prove(db, "select k from t where a > 99999")

    def test_limit_zero(self, db):
        assert self.prove(db, "select k from t limit 0")

    def test_union_of_empties(self, db):
        assert self.prove(
            db, "select k from t where false union all select k from u where false"
        )

    def test_union_with_one_live_child(self, db):
        assert not self.prove(
            db, "select k from t where false union all select k from u"
        )

    def test_inner_join_with_empty_side(self, db):
        assert self.prove(
            db,
            "select t.k from t join (select k from u where false) e on t.k = e.k",
        )

    def test_left_outer_with_empty_right_not_empty(self, db):
        assert not self.prove(
            db,
            "select t.k from t left join (select k from u where false) e on t.k = e.k",
        )

    def test_grouped_aggregate_over_empty(self, db):
        assert self.prove(
            db, "select a, count(*) from (select * from t where false) q group by a"
        )

    def test_global_aggregate_never_empty(self, db):
        assert not self.prove(
            db, "select count(*) from (select * from t where false) q"
        )


class TestChunk:
    def test_take_and_slice(self):
        chunk = Chunk({1: [10, 20, 30], 2: ["a", "b", "c"]}, 3)
        taken = chunk.take([2, 0])
        assert taken.columns[1] == [30, 10] and taken.row_count == 2
        sliced = chunk.slice(1, 5)
        assert sliced.columns[2] == ["b", "c"] and sliced.row_count == 2

    def test_slice_none_stop(self):
        chunk = Chunk({1: [1, 2, 3]}, 3)
        assert chunk.slice(1, None).row_count == 2

    def test_rows_zero_columns(self):
        chunk = Chunk({}, 4)
        assert chunk.rows([]) == [(), (), (), ()]

    def test_empty_factory(self):
        chunk = Chunk.empty([5, 6])
        assert chunk.row_count == 0 and set(chunk.columns) == {5, 6}


class TestReporting:
    def test_matrix_match(self):
        text = format_matrix(
            "T", ["q1", "q2"], ["a", "b"], ["Y-", "--"], ["Y-", "--"]
        )
        assert "reproduced cell-for-cell" in text
        assert "MISMATCH" not in text

    def test_matrix_mismatch_flagged(self):
        text = format_matrix("T", ["q1"], ["a", "b"], ["Y-"], ["YY"])
        assert "DEVIATION" in text and "MISMATCH" in text

    def test_write_report_roundtrip(self, tmp_path, monkeypatch):
        import repro.bench.reporting as reporting

        monkeypatch.setattr(reporting, "RESULTS_DIR", tmp_path)
        path = reporting.write_report("unit", "hello world")
        assert path.read_text() == "hello world"
