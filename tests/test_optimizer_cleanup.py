"""Cleanup-pass tests: folding, collapsing, distinct elimination, and the
join-condition normalization feeding the union rules."""

import pytest

from repro import Database
from repro.algebra.expr import Const
from repro.algebra.ops import Distinct, Filter, Join, Project, Scan


@pytest.fixture
def db():
    database = Database()
    database.execute("create table t (k int primary key, a int not null, b varchar(5))")
    database.execute("create table u (k int, a int)")
    database.bulk_load("t", [(i, i * 3, f"b{i}") for i in range(12)])
    database.bulk_load("u", [(i % 4, i) for i in range(12)])
    return database


def nodes(db, sql, kind):
    return [n for n in db.plan_for(sql).walk() if isinstance(n, kind)]


class TestConstantFolding:
    def test_true_filter_removed(self, db):
        assert not nodes(db, "select k from t where 1 = 1", Filter)

    def test_arith_folding(self, db):
        filters = nodes(db, "select k from t where a > 2 * 3", Filter)
        assert "6" in str(filters[0].predicate)

    def test_and_true_simplified(self, db):
        filters = nodes(db, "select k from t where a > 1 and 1 = 1", Filter)
        assert "AND" not in str(filters[0].predicate)

    def test_or_true_collapses_filter(self, db):
        assert not nodes(db, "select k from t where a > 1 or true", Filter)

    def test_false_and_anything_is_false(self, db):
        rows = db.query("select k from t where false and a > 0").rows
        assert rows == []

    def test_division_by_zero_left_for_runtime(self, db):
        from repro.errors import ExecutionError
        with pytest.raises(ExecutionError):
            db.query("select k from t where a > 1 / 0")

    def test_case_folding_inside_projection(self, db):
        rows = db.query("select k, 1 + 2 as c from t limit 1").rows
        assert rows[0][1] == 3


class TestStructuralCollapse:
    def test_nested_projects_collapse(self, db):
        sql = "select x2 from (select k * 2 as x2 from (select k from t) a) b"
        projects = nodes(db, sql, Project)
        assert len(projects) == 1

    def test_identity_project_removed(self, db):
        plan = db.plan_for("select * from t")
        assert isinstance(plan, Scan)

    def test_stacked_filters_merged(self, db):
        sql = "select k from (select k, a from t where a > 1) q where k > 2"
        filters = nodes(db, sql, Filter)
        assert len(filters) == 1

    def test_distinct_on_key_eliminated(self, db):
        assert not nodes(db, "select distinct k, a from t", Distinct)

    def test_distinct_on_non_key_kept(self, db):
        assert nodes(db, "select distinct a from u", Distinct)

    def test_distinct_elim_gated(self, db):
        db.set_profile("system_x")
        try:
            assert nodes(db, "select distinct k, a from t", Distinct)
        finally:
            db.set_profile("hana")

    def test_distinct_elimination_correct(self, db):
        a = db.query("select distinct k, a from t").rows
        b = db.query("select distinct k, a from t", optimize=False).rows
        assert sorted(a) == sorted(b)


class TestJoinNormalization:
    def test_right_only_conjunct_becomes_filter(self, db):
        sql = "select t.k, u.a from t left join u on t.k = u.k and u.a > 5"
        joins = nodes(db, sql, Join)
        assert joins and "u.a" not in str(joins[0].condition)
        assert any(isinstance(n, Filter) for n in joins[0].right.walk())

    def test_normalization_preserves_left_outer_semantics(self, db):
        sql = "select t.k, u.a from t left join u on t.k = u.k and u.a > 5"
        a = db.query(sql).rows
        b = db.query(sql, optimize=False).rows
        assert sorted(map(repr, a)) == sorted(map(repr, b))

    def test_left_only_conjunct_stays_in_left_outer(self, db):
        # for LEFT OUTER, a left-side conjunct decides match vs NULL-extend:
        # it must NOT become a filter
        sql = "select t.k, u.a from t left join u on t.k = u.k and t.a > 6"
        a = db.query(sql).rows
        b = db.query(sql, optimize=False).rows
        assert sorted(map(repr, a)) == sorted(map(repr, b))
        # rows with t.a <= 6 survive with NULL augmenter
        assert any(r[1] is None for r in a)

    def test_inner_join_both_sides_move(self, db):
        sql = "select t.k from t join u on t.k = u.k and t.a > 3 and u.a > 5"
        joins = nodes(db, sql, Join)
        condition = str(joins[0].condition)
        assert "t.a" not in condition and "u.a" not in condition

    def test_inner_normalization_correct(self, db):
        sql = "select t.k from t join u on t.k = u.k and t.a > 3 and u.a > 5"
        a = db.query(sql).rows
        b = db.query(sql, optimize=False).rows
        assert sorted(a) == sorted(b)


class TestFilterPushdown:
    def test_filter_reaches_scan_through_project(self, db):
        sql = "select kk from (select k as kk, a from t) q where kk > 5"
        plan = db.plan_for(sql)
        # the filter should now sit directly on the scan
        filters = [n for n in plan.walk() if isinstance(n, Filter)]
        assert filters and isinstance(filters[0].child, Scan)

    def test_filter_into_left_join_anchor(self, db):
        sql = (
            "select t.k from t left join u on t.k = u.k where t.a > 9"
        )
        joins = nodes(db, sql, Join)
        if joins:  # the u-join may be UAJ-removed entirely; either is fine
            assert any(isinstance(n, Filter) for n in joins[0].left.walk())

    def test_filter_into_union_children(self, db):
        sql = (
            "select * from (select k from t union all select k from t) q where k > 8"
        )
        from repro.algebra.ops import UnionAll
        unions = nodes(db, sql, UnionAll)
        assert unions
        for child in unions[0].inputs:
            assert any(isinstance(n, Filter) for n in child.walk())
        a = db.query(sql).rows
        b = db.query(sql, optimize=False).rows
        assert sorted(a) == sorted(b)

    def test_filter_not_pushed_through_limit(self, db):
        sql = "select * from (select k, a from t limit 5) q where a > 0"
        plan = db.plan_for(sql)
        from repro.algebra.ops import Limit
        # the filter must remain above the limit
        node = plan
        seen_filter_before_limit = False
        for n in plan.walk():
            if isinstance(n, Filter):
                seen_filter_before_limit = True
            if isinstance(n, Limit):
                break
        assert seen_filter_before_limit
        assert len(db.query(sql).rows) == len(db.query(sql, optimize=False).rows)

    def test_filter_through_aggregate_on_group_key(self, db):
        sql = (
            "select * from (select a, count(*) as n from u group by a) q where a = 1"
        )
        plan = db.plan_for(sql)
        from repro.algebra.ops import Aggregate
        aggs = [n for n in plan.walk() if isinstance(n, Aggregate)]
        assert any(isinstance(n, Filter) for n in aggs[0].child.walk())
        a = db.query(sql).rows
        b = db.query(sql, optimize=False).rows
        assert sorted(a) == sorted(b)

    def test_having_on_aggregate_not_pushed(self, db):
        sql = "select a, count(*) as n from u group by a having count(*) > 2"
        a = db.query(sql).rows
        b = db.query(sql, optimize=False).rows
        assert sorted(a) == sorted(b)


class TestStackedFilterDedup:
    """Each level of a view stack repeats its filter; merging the stacked
    filters keeps one copy of each conjunct."""

    DEPTH = 8

    @pytest.fixture
    def stack_db(self):
        database = Database(wal_enabled=False)
        database.execute("create table items (id int primary key, qty int, grp int)")
        database.bulk_load("items", [(i, i * 3, i % 5) for i in range(300)])
        database.execute("create table groups_ (gkey int primary key, gname varchar(9))")
        database.bulk_load("groups_", [(i, f"g{i}") for i in range(5)])
        database.execute("create view sv0 as select id, qty, grp from items")
        for i in range(1, self.DEPTH):
            database.execute(f"create view sv{i} as select id, qty, grp "
                             f"from sv{i - 1} where qty >= 0")
        database.execute(
            f"create view stack_top as select v.id, v.qty, d.gname "
            f"from sv{self.DEPTH - 1} v left outer join groups_ d on v.grp = d.gkey"
        )
        return database

    def test_explain_shows_one_copy(self, stack_db):
        text = stack_db.explain("select id, qty, gname from stack_top where id = 5")
        assert text.count("qty") == 1 and text.count(">= 0") == 1
        assert stack_db.query(
            "select id, qty, gname from stack_top where id = 5"
        ).rows == [(5, 15, "g0")]

    def test_dedup_is_no_rewrite_fire_and_keeps_the_hit_rate(self, stack_db):
        cache = stack_db.plan_cache
        for key in range(200):
            rows = stack_db.query(
                f"select id, qty, gname from stack_top where id = {key}").rows
            assert rows == [(key, key * 3, f"g{key % 5}")]
        assert cache.uncacheable == 0 and cache.hit_rate >= 0.99
        # The user's `qty >= 0` dedups against the views' copies in the
        # value-bound first sighting but stays a Param conjunct in the
        # generic plan; were dropping it a fire, the shape would be refused.
        sql = "select id, gname from stack_top where qty >= {} and id = {}"
        for zero, key in ((0, 4), (0, 7), (0, 9)):
            assert stack_db.query(sql.format(zero, key)).rows == [(key, f"g{key % 5}")]
        assert cache.uncacheable == 0 and len(cache) == 2

    def test_user_duplicates_collapse_and_stay_cacheable(self, stack_db):
        sql = "select id from items where id = {0} and qty >= 0 and id = {0}"
        [conjuncts] = [str(f.predicate)
                       for f in nodes(stack_db, sql.format(4), Filter)]
        assert conjuncts.count("id") == 1
        for key in (4, 7, 9):
            assert stack_db.query(sql.format(key)).rows == [(key,)]
        assert stack_db.plan_cache.uncacheable == 0
