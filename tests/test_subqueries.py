"""EXISTS / IN subquery tests (semi/anti joins with NOT IN null semantics)."""

import pytest

from repro import Database
from repro.algebra.ops import Join, JoinType
from repro.errors import BindError
from tests.conftest import assert_equivalent


@pytest.fixture
def db():
    database = Database()
    database.execute("create table c (ck int primary key, nation int)")
    database.execute("create table o (ok int primary key, cust int, status varchar(1) not null)")
    database.execute("insert into c values (1, 10), (2, 20), (3, 30), (4, 10)")
    database.execute(
        "insert into o values (100, 1, 'N'), (101, 1, 'P'), (102, 3, 'N'), (103, null, 'N')"
    )
    return database


def join_types(db, sql):
    return [n.join_type for n in db.plan_for(sql, optimize=False).walk()
            if isinstance(n, Join)]


class TestExists:
    def test_exists_all_or_nothing(self, db):
        rows = db.query(
            "select ck from c where exists (select ok from o where status = 'P')"
        ).rows
        assert len(rows) == 4

    def test_exists_empty_subquery(self, db):
        rows = db.query(
            "select ck from c where exists (select ok from o where status = 'Z')"
        ).rows
        assert rows == []

    def test_not_exists(self, db):
        rows = db.query(
            "select ck from c where not exists (select ok from o where status = 'Z')"
        ).rows
        assert len(rows) == 4

    def test_plan_uses_semi_join(self, db):
        types = join_types(
            db, "select ck from c where exists (select ok from o)"
        )
        assert JoinType.SEMI in types

    def test_not_exists_uses_anti_join(self, db):
        types = join_types(
            db, "select ck from c where not exists (select ok from o)"
        )
        assert JoinType.ANTI in types


class TestInSubquery:
    def test_in(self, db):
        rows = db.query("select ck from c where ck in (select cust from o)").rows
        assert sorted(r[0] for r in rows) == [1, 3]

    def test_in_with_filtered_subquery(self, db):
        rows = db.query(
            "select ck from c where ck in (select cust from o where status = 'P')"
        ).rows
        assert [r[0] for r in rows] == [1]

    def test_not_in_with_nulls_filters_everything(self, db):
        # classic SQL trap: the subquery contains a NULL
        rows = db.query("select ck from c where ck not in (select cust from o)").rows
        assert rows == []

    def test_not_in_without_nulls(self, db):
        rows = db.query(
            "select ck from c where ck not in "
            "(select cust from o where cust is not null)"
        ).rows
        assert sorted(r[0] for r in rows) == [2, 4]

    def test_null_probe_filtered_both_ways(self, db):
        db.execute("create table p (v int)")
        db.execute("insert into p values (1), (null)")
        in_rows = db.query("select v from p where v in (select cust from o)").rows
        assert in_rows == [(1,)]
        empty = "select v from p where v not in (select cust from o where cust = 99)"
        # NULL NOT IN (empty) is TRUE, as in SQL and sqlite3: the NULL
        # probe is UNKNOWN only against a subquery with at least one row.
        assert db.query(empty).rows == [(1,), (None,)]
        assert db.query(empty, optimize=False).rows == [(1,), (None,)]
        nonempty = "select v from p where v not in (select cust from o where cust = 3)"
        assert db.query(nonempty).rows == [(1,)]

    def test_combined_with_plain_predicates(self, db):
        rows = db.query(
            "select ck from c where nation = 10 and ck in (select cust from o)"
        ).rows
        assert [r[0] for r in rows] == [1]

    def test_in_subquery_from_view(self, db):
        db.execute("create view po as select cust from o where status = 'P'")
        rows = db.query("select ck from c where ck in (select cust from po)").rows
        assert [r[0] for r in rows] == [1]

    def test_multi_column_subquery_rejected(self, db):
        with pytest.raises(BindError):
            db.query("select ck from c where ck in (select ok, cust from o)")

    def test_or_nested_subquery_rejected(self, db):
        with pytest.raises(BindError):
            db.query("select ck from c where ck = 9 or exists (select ok from o)")

    def test_correlated_subquery_rejected(self, db):
        # correlation is unsupported; the inner reference must fail to bind
        with pytest.raises(BindError):
            db.query(
                "select ck from c where exists (select ok from o where o.cust = c.ck)"
            )


class TestOptimizerInteraction:
    def test_semi_join_survives_optimization(self, db):
        sql = "select ck from c where ck in (select cust from o)"
        assert_equivalent(db, sql)

    def test_semi_preserves_keys_for_uaj(self, db):
        # a semi join is a pure filter: the left PK survives it, so the
        # outer augmentation join on that key is still removable
        db.execute("create table dim (k int primary key, d varchar(5))")
        sql = (
            "select x.ck from "
            "(select c.ck from c where ck in (select cust from o)) x "
            "left join dim on x.ck = dim.k"
        )
        plan = db.plan_for(sql)
        types = [n.join_type for n in plan.walk() if isinstance(n, Join)]
        assert JoinType.LEFT_OUTER not in types  # UAJ removed
        assert JoinType.SEMI in types            # the semantic filter stays
        assert_equivalent(db, sql)

    def test_anti_join_equivalence_under_profiles(self, db):
        sql = (
            "select ck from c where ck not in "
            "(select cust from o where cust is not null)"
        )
        for profile in ("hana", "postgres", "system_x", "none"):
            assert_equivalent(db, sql, profile)

    def test_limit_over_semi_join(self, db):
        sql = "select ck from c where ck in (select cust from o) limit 1"
        assert len(db.query(sql).rows) == 1

    def test_aggregation_over_semi_join(self, db):
        n = db.query(
            "select count(*) from c where ck in (select cust from o)"
        ).scalar()
        assert n == 2
