"""Aggregation-pushdown tests (paper §7.1): precision-loss rewrites."""

import decimal

import pytest

from repro import Database
from repro.algebra.ops import Aggregate


@pytest.fixture
def db():
    database = Database()
    database.execute(
        "create table sales (sid int primary key, price decimal(15,2), "
        "grp int not null)"
    )
    import random
    rng = random.Random(9)
    database.bulk_load(
        "sales",
        [(i, decimal.Decimal(rng.randint(100, 9999999)) / 100, i % 5) for i in range(300)],
    )
    return database


def agg_arg_has_round(db, sql):
    plan = db.plan_for(sql)
    for node in plan.walk():
        if isinstance(node, Aggregate):
            for _, call in node.aggs:
                if call.arg is not None and "ROUND" in str(call.arg):
                    return True
    return False


class TestPrecisionLossRewrite:
    STRICT = "select sum(round(price * 1.11, 2)) from sales"
    OPT_IN = "select allow_precision_loss(sum(round(price * 1.11, 2))) from sales"

    def test_without_opt_in_round_stays_inside(self, db):
        assert agg_arg_has_round(db, self.STRICT)

    def test_with_opt_in_round_moves_out(self, db):
        assert not agg_arg_has_round(db, self.OPT_IN)

    def test_results_close_but_not_necessarily_equal(self, db):
        strict = db.query(self.STRICT).scalar()
        optimized = db.query(self.OPT_IN).scalar()
        # the paper's point: tiny trailing-digit discrepancies are accepted
        assert abs(strict - optimized) < decimal.Decimal("0.5") * 300

    def test_opt_in_unoptimized_equals_strict(self, db):
        strict = db.query(self.STRICT).scalar()
        assert db.query(self.OPT_IN, optimize=False).scalar() == strict

    def test_rewrite_matches_manual_form(self, db):
        # the paper's equivalent query: round(sum(price)*1.11, 2)
        manual = db.query("select round(sum(price) * 1.11, 2) from sales").scalar()
        optimized = db.query(self.OPT_IN).scalar()
        assert optimized == manual

    def test_division_peels_too(self, db):
        optimized = db.query(
            "select allow_precision_loss(sum(round(price / 4, 2))) from sales"
        ).scalar()
        manual = db.query("select round(sum(price) / 4, 2) from sales").scalar()
        assert optimized == manual

    def test_grouped_rewrite_keeps_keys(self, db):
        sql = (
            "select grp, allow_precision_loss(sum(round(price * 1.11, 2))) "
            "from sales group by grp"
        )
        rows = db.query(sql).rows
        assert len(rows) == 5
        unopt = db.query(sql, optimize=False).rows
        for (g1, v1), (g2, v2) in zip(sorted(rows), sorted(unopt)):
            assert g1 == g2 and abs(v1 - v2) < decimal.Decimal("2")

    def test_gated_by_profile(self, db):
        db.set_profile("postgres")
        try:
            assert agg_arg_has_round(db, self.OPT_IN)
        finally:
            db.set_profile("hana")

    def test_non_constant_round_digits_not_peeled(self, db):
        sql = "select allow_precision_loss(sum(round(price, grp))) from sales group by grp"
        # digits argument is a column: rewrite must not fire
        assert agg_arg_has_round(db, sql)

    def test_plain_sum_untouched(self, db):
        sql = "select allow_precision_loss(sum(price)) from sales"
        strict = db.query("select sum(price) from sales").scalar()
        assert db.query(sql).scalar() == strict

    def test_count_not_rewritten(self, db):
        sql = "select allow_precision_loss(count(*)) from sales"
        assert db.query(sql).scalar() == 300


class TestDistinctSumNotRewritten:
    """Peeling ROUND off a DISTINCT SUM changes which values are distinct
    (1.10 and 1.20 round to one value), which is no trailing-digit loss."""

    @pytest.fixture
    def prices(self):
        database = Database()
        database.execute("create table p (pid int primary key, price decimal(15,2))")
        database.bulk_load("p", [
            (i, decimal.Decimal(f"1.{i:02d}")) for i in range(1, 50)
        ] + [(50, decimal.Decimal("2.00"))])
        return database

    STRICT = "select sum(distinct round(price, 0)) from p"
    OPT_IN = "select allow_precision_loss(sum(distinct round(price, 0))) from p"

    def test_round_stays_inside(self, prices):
        assert agg_arg_has_round(prices, self.OPT_IN)

    def test_result_equals_strict(self, prices):
        strict = prices.query(self.STRICT).scalar()
        assert strict == 3
        assert prices.query(self.OPT_IN).scalar() == strict
        assert prices.query(self.OPT_IN, optimize=False).scalar() == strict
