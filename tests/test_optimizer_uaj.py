"""UAJ-elimination tests (paper §4.2-§4.3) beyond the Fig. 5 suite:
positive and negative cases for every AJ class, plus cascades."""

import pytest

from repro import Database
from repro.algebra.ops import Join
from repro.engine.physical import BatchScanExec
from repro.optimizer.physical_planner import create_physical_plan
from tests.conftest import assert_equivalent


@pytest.fixture
def db():
    database = Database()
    database.execute(
        "create table fact (fid int primary key, d1 int not null, d2 int, "
        "dn int not null, amount decimal(10,2))"
    )
    database.execute("create table dim1 (k int primary key, v varchar(10))")
    database.execute("create table dim2 (k int primary key, v varchar(10))")
    database.execute("create table dup (k int, v varchar(10))")  # NOT unique
    database.bulk_load("dim1", [(i, f"d1_{i}") for i in range(10)])
    database.bulk_load("dim2", [(i, f"d2_{i}") for i in range(10)])
    database.bulk_load("dup", [(i % 5, f"x{i}") for i in range(10)])
    database.bulk_load(
        "fact", [(i, i % 10, i % 10 if i % 3 else None, i % 10, f"{i}.00") for i in range(30)]
    )
    return database


def join_count(db, sql, profile="hana"):
    db.set_profile(profile)
    return sum(1 for n in db.plan_for(sql).walk() if isinstance(n, Join))


class TestRemoval:
    def test_unused_left_outer_on_pk_removed(self, db):
        sql = "select f.fid from fact f left join dim1 on f.d1 = dim1.k"
        assert join_count(db, sql) == 0
        assert_equivalent(db, sql)

    def test_used_augmenter_kept(self, db):
        sql = "select f.fid, dim1.v from fact f left join dim1 on f.d1 = dim1.k"
        assert join_count(db, sql) == 1
        assert_equivalent(db, sql)

    def test_augmenter_used_in_where_kept(self, db):
        sql = (
            "select f.fid from fact f left join dim1 on f.d1 = dim1.k "
            "where dim1.v = 'd1_3'"
        )
        assert join_count(db, sql) == 1
        assert_equivalent(db, sql)

    def test_augmenter_used_in_order_by_kept(self, db):
        sql = (
            "select f.fid from fact f left join dim1 on f.d1 = dim1.k order by dim1.v"
        )
        assert join_count(db, sql) == 1

    def test_non_unique_augmenter_kept(self, db):
        sql = "select f.fid from fact f left join dup on f.d1 = dup.k"
        assert join_count(db, sql) == 1
        assert_equivalent(db, sql)

    def test_inner_join_not_removed_without_guarantee(self, db):
        # inner join filters rows with no match; even unique right side is
        # not enough without an exactly-one guarantee
        sql = "select f.fid from fact f join dim1 on f.d1 = dim1.k"
        assert join_count(db, sql) == 1
        assert_equivalent(db, sql)

    def test_cascading_removal(self, db):
        sql = (
            "select f.fid from fact f "
            "left join dim1 on f.d1 = dim1.k "
            "left join dim2 on f.dn = dim2.k"
        )
        assert join_count(db, sql) == 0
        assert_equivalent(db, sql)

    def test_removal_unlocks_nested_removal(self, db):
        # dim1's join is used only by dim2's join condition... construct:
        # outer join's augmenter is itself a join that becomes prunable
        sql = (
            "select f.fid from fact f left join "
            "(select d1x.k, d2x.v from dim1 d1x left join dim2 d2x on d1x.k = d2x.k) s "
            "on f.d1 = s.k"
        )
        assert join_count(db, sql) == 0
        assert_equivalent(db, sql)

    def test_count_star_prunes_everything(self, db):
        sql = (
            "select count(*) from fact f left join dim1 on f.d1 = dim1.k "
            "left join dim2 on f.dn = dim2.k"
        )
        assert join_count(db, sql) == 0
        a = db.query(sql).scalar()
        b = db.query(sql, optimize=False).scalar()
        assert a == b == 30

    def test_residual_conjunct_still_augmentation(self, db):
        # extra non-equi conjunct only reduces matches; join stays removable
        sql = (
            "select f.fid from fact f left join dim1 "
            "on f.d1 = dim1.k and dim1.v > 'a'"
        )
        assert join_count(db, sql) == 0
        assert_equivalent(db, sql)

    def test_nullable_anchor_key_fine_for_left_outer(self, db):
        sql = "select f.fid from fact f left join dim2 on f.d2 = dim2.k"
        assert join_count(db, sql) == 0
        assert_equivalent(db, sql)


class TestDeclaredCardinality:
    def test_declared_to_one_enables_removal(self, db):
        sql = "select f.fid from fact f left outer many to one join dup on f.d1 = dup.k"
        assert join_count(db, sql) == 0
        # NOTE: the declaration is wrong for `dup` (duplicates exist), so we
        # do not assert equivalence — §7.3: declared cardinality is trusted,
        # the risk is the developer's.

    def test_declared_exact_one_enables_inner_removal(self, db):
        sql = "select f.fid from fact f inner many to exact one join dim1 on f.d1 = dim1.k"
        assert join_count(db, sql) == 0
        assert_equivalent(db, sql)  # declaration is actually true here

    def test_declared_many_to_many_no_removal(self, db):
        sql = "select f.fid from fact f left outer many to many join dup on f.d1 = dup.k"
        assert join_count(db, sql) == 1


class TestFkAndSelfJoin:
    def test_fk_inner_join_removed(self, db):
        from repro.catalog.schema import ForeignKey
        db.catalog.table_schema("fact").foreign_keys.append(
            ForeignKey(("d1",), "dim1", ("k",))
        )
        sql = "select f.fid from fact f join dim1 on f.d1 = dim1.k"
        assert join_count(db, sql) == 0
        assert_equivalent(db, sql)

    def test_fk_wrong_target_not_removed(self, db):
        from repro.catalog.schema import ForeignKey
        db.catalog.table_schema("fact").foreign_keys.append(
            ForeignKey(("d1",), "dim2", ("k",))
        )
        sql = "select f.fid from fact f join dim1 on f.d1 = dim1.k"
        assert join_count(db, sql) == 1

    def test_inner_self_join_on_key_removed_when_unused(self, db):
        # AJ 1b: anchor is a projection of dim1 itself
        sql = (
            "select v.k from (select k from dim1) v join dim1 x on v.k = x.k"
        )
        assert join_count(db, sql) == 0
        assert_equivalent(db, sql)

    def test_inner_self_join_nullable_key_not_removed(self, db):
        sql = "select v.d2 from (select d2 from fact) v join fact x on v.d2 = x.fid"
        # d2 is nullable: NULL rows are filtered by the inner join, removal
        # would keep them
        assert join_count(db, sql) == 1
        assert_equivalent(db, sql)

    def test_filtered_inner_augmenter_not_removed(self, db):
        sql = (
            "select v.k from (select k from dim1) v "
            "join (select k from dim1 where k > 3) x on v.k = x.k"
        )
        assert join_count(db, sql) == 1
        assert_equivalent(db, sql)


class TestEmptyAugmenter:
    def test_always_false_filter_join_removed(self, db):
        # AJ 2b: left outer join with a provably empty relation
        sql = (
            "select f.fid, e.v from fact f left join "
            "(select k, v from dim1 where 1 = 0) e on f.d1 = e.k"
        )
        assert join_count(db, sql) == 0
        result = db.query(sql)
        assert all(row[1] is None for row in result.rows)
        assert_equivalent(db, sql)

    def test_empty_union_augmenter_removed(self, db):
        sql = (
            "select f.fid, e.v from fact f left join "
            "(select k, v from dim1 where false union all "
            " select k, v from dim2 where false) e on f.d1 = e.k"
        )
        assert join_count(db, sql) == 0
        assert_equivalent(db, sql)

    def test_limit_zero_augmenter_removed(self, db):
        sql = (
            "select f.fid from fact f left join "
            "(select k from dim1 limit 0) e on f.d1 = e.k"
        )
        assert join_count(db, sql) == 0

    def test_inner_join_with_empty_not_rewritten_to_nulls(self, db):
        # inner ⋈ ∅ = ∅; the AJ 2b rewrite must NOT apply
        sql = (
            "select f.fid from fact f join "
            "(select k from dim1 where false) e on f.d1 = e.k"
        )
        assert db.query(sql).rows == []
        assert_equivalent(db, sql)


class TestScanPruning:
    def test_scan_reads_only_used_columns(self, db):
        # engine-level late materialization: unused fact columns never decode
        plan = db.plan_for("select fid from fact")
        physical = create_physical_plan(plan, db.catalog)
        scan = [n for n in physical.walk() if isinstance(n, BatchScanExec)][0]
        assert [c.name for c in scan.wanted] == ["fid"]
