"""Aggregation by group id: ``HashAggregateExec`` against its oracles.

Each case runs on a vectorized database and is compared against the same
statement with ``optimize=False`` and against a ``vectorized=False`` twin,
at batch sizes 1, 7 and 1024 — so group ids come from dictionary-coded
columns (stored and derived), typed buffers and delta-fragment lists,
and groups appear in batches after the first.  Output order is first-seen order, so rows are
compared in order.  Values the oracles cannot see (every arm runs the same
aggregate) are asserted against hand-computed expectations.
"""

from __future__ import annotations

import decimal
import functools
import operator

from repro import Database

BATCH_SIZES = (1, 7, 1024)
D = decimal.Decimal


def run_everywhere(setup, sql: str) -> list:
    """The statement's rows, after checking that every arm agrees."""
    expected = None
    for batch_size in BATCH_SIZES:
        vec = Database(wal_enabled=False, batch_size=batch_size)
        scalar = Database(wal_enabled=False, batch_size=batch_size, vectorized=False)
        try:
            setup(vec)
            setup(scalar)
            rows = vec.query(sql).rows
            assert vec.query(sql, optimize=False).rows == rows, sql
            assert scalar.query(sql).rows == rows, sql
            if expected is None:
                expected = rows
            else:
                assert rows == expected, (batch_size, sql)
        finally:
            vec.close()
            scalar.close()
    return expected


def assert_exact(rows, expected) -> None:
    """Equal values *and* types: 2 == 2.0 == Decimal(2) is not enough."""
    assert rows == expected
    for got, want in zip(rows, expected):
        assert [type(v) for v in got] == [type(v) for v in want], (got, want)


# -- data ---------------------------------------------------------------------


def sales(db):
    """Main-fragment rows (``k`` dictionary-coded, NULL = code -1) plus
    delta rows, whose keys arrive as plain lists with ``None``."""
    db.execute(
        "create table s (id int primary key, k varchar(8), g int, "
        "amt decimal(10,2), f double, note varchar(8))"
    )
    db.bulk_load("s", [
        (0, "b", 1, D("1.10"), 0.5, "x"),
        (1, None, 2, D("2.20"), None, None),
        (2, "a", None, None, 1.5, "y"),
        (3, "b", 1, D("3.30"), 2.5, "z"),
        (4, "a", 2, D("1.10"), 0.5, "x"),
        (5, None, 2, D("4.40"), 3.0, "w"),
    ])
    db.execute(
        "insert into s values (6, 'c', 1, 5.50, 1.0, 'v'), "
        "(7, null, null, 1.10, 0.5, null), (8, 'a', 2, 2.20, null, 'y')"
    )


def two_dictionaries(db):
    """The same values at different codes in two main fragments."""
    db.execute("create table x (id int primary key, k varchar(4), v int)")
    db.execute("create table y (id int primary key, k varchar(4), v int)")
    db.bulk_load("x", [(i, "abc"[i % 3], i) for i in range(9)])
    db.bulk_load("y", [(i, "cb"[i % 2], 10 * i) for i in range(6)])


TWO_DICTIONARIES = (
    "select k, count(*), sum(v) from "
    "(select k, v from x union all select k, v from y) u group by k"
)


# -- the cases ----------------------------------------------------------------


class TestGroupKeys:
    def test_null_key_is_one_group_across_code_and_none(self):
        rows = run_everywhere(sales, "select k, count(*) from s group by k")
        # first-seen order: b (row 0), NULL (row 1, code -1), a (row 2), c (delta)
        assert rows == [("b", 2), (None, 3), ("a", 3), ("c", 1)]

    def test_main_and_delta_merge_into_one_group_per_value(self):
        rows = run_everywhere(sales, "select k, sum(amt) from s group by k")
        assert dict(rows)["a"] == D("3.30")  # main rows 2, 4 plus delta row 8

    def test_same_value_under_different_dictionaries(self):
        rows = run_everywhere(two_dictionaries, TWO_DICTIONARIES)
        assert rows == [("a", 3, 9), ("b", 6, 12 + 10 * (1 + 3 + 5)),
                        ("c", 6, 15 + 10 * (0 + 2 + 4))]

    def test_mixed_kind_union_keys_group_under_the_unified_type(self):
        """A UNION ALL of INTEGER, DOUBLE and DECIMAL keys casts every
        branch to the unified type, whatever the branch order."""
        def setup(db):
            db.execute("create table ti (id int primary key, k int)")
            db.execute("create table tf (id int primary key, k double)")
            db.execute("create table td (id int primary key, k decimal(10,2))")
            db.bulk_load("ti", [(0, 1), (1, 3)])
            db.bulk_load("tf", [(0, 1.0), (1, 2.5)])
            db.bulk_load("td", [(0, D("1")), (1, D("2.50"))])

        union = "select k from {} union all select k from {} union all select k from {}"
        for order in (("tf", "ti", "td"), ("td", "tf", "ti")):
            rows = run_everywhere(
                setup, f"select k, count(*) from ({union.format(*order)}) u group by k"
            )
            assert_exact(rows, [(1.0, 3), (2.5, 2), (3.0, 1)])
        rows = run_everywhere(
            setup,
            "select k, count(*) from (select k from ti union all "
            "select k from td) u group by k",
        )
        assert_exact(rows, [(D("1.00"), 2), (D("3.00"), 1), (D("2.50"), 1)])

    def test_two_column_key_with_a_null_part(self):
        rows = run_everywhere(sales, "select k, g, count(*) from s group by k, g")
        assert rows == [
            ("b", 1, 2), (None, 2, 2), ("a", None, 1), ("a", 2, 2),
            ("c", 1, 1), (None, None, 1),
        ]

    def test_groups_appear_in_later_batches(self):
        def setup(db):
            db.execute("create table w (id int primary key, k varchar(8), v int)")
            # 40 keys, each first seen at row 2*i: new groups in every batch
            db.bulk_load("w", [(i, f"k{i // 2:02d}", i) for i in range(80)])
            db.execute("insert into w values (80, 'k99', 1), (81, 'k00', 1)")

        rows = run_everywhere(setup, "select k, count(*), sum(v) from w group by k")
        assert rows == [(f"k{i:02d}", 3 if i == 0 else 2, 4 * i + 1 + (i == 0))
                        for i in range(40)] + [("k99", 1, 1)]

    def test_computed_key_over_a_multi_batch_main_fragment(self):
        # Arithmetic on a coded column yields a fresh derived dictionary
        # per batch; `k % 3` also maps many codes onto one value.
        def setup(db):
            db.execute("create table m (id int primary key, k int, v int)")
            db.bulk_load("m", [(i, i % 20, i) for i in range(60)])

        rows = run_everywhere(setup, "select k + 1, count(*) from m group by k + 1")
        assert rows == [(k + 1, 3) for k in range(20)]
        rows = run_everywhere(setup, "select k % 3, sum(v) from m group by k % 3")
        assert rows == [
            (r, sum(i for i in range(60) if i % 20 % 3 == r)) for r in range(3)
        ]


class TestEmptyInput:
    def test_grouped_gives_no_rows(self):
        sql = "select k, count(*), sum(amt) from s where id > 100 group by k"
        assert run_everywhere(sales, sql) == []

    def test_global_gives_one_default_row(self):
        sql = (
            "select count(*), count(k), sum(amt), avg(f), min(k), max(k), "
            "count(distinct k), sum(distinct amt) from s where id > 100"
        )
        assert run_everywhere(sales, sql) == [(0, 0, None, None, None, None, 0, None)]


class TestAggregates:
    def test_count_star_versus_count_column_over_nulls(self):
        rows = run_everywhere(
            sales, "select g, count(*), count(k), count(f) from s group by g"
        )
        assert rows == [(1, 3, 3, 3), (2, 4, 2, 2), (None, 2, 1, 2)]

    def test_sum_and_avg_over_decimal_are_exact(self):
        rows = run_everywhere(sales, "select g, sum(amt), avg(amt) from s group by g")
        assert_exact(rows, [
            (1, D("9.90"), D("3.30")),
            (2, D("9.90"), D("9.90") / D(4)),
            (None, D("1.10"), D("1.10")),
        ])

    def test_float_sums_add_left_to_right(self):
        def setup(db):
            db.execute("create table fl (id int primary key, g int, f double)")
            db.bulk_load("fl", [
                (0, 1, 1e16), (1, 1, 1.0), (2, 1, -1e16),
                (3, 2, 0.1), (4, 2, 0.2), (5, 2, 0.3),
            ])

        rows = run_everywhere(setup, "select g, sum(f), avg(f) from fl group by g")
        # acc + v in row order; a compensated sum would give 1.0 and 0.6
        by_group = {1: [1e16, 1.0, -1e16], 2: [0.1, 0.2, 0.3]}
        expected = [
            (g, functools.reduce(operator.add, vs), functools.reduce(operator.add, vs) / 3)
            for g, vs in by_group.items()
        ]
        assert_exact(rows, expected)
        assert rows[0][1] == 0.0
        assert run_everywhere(setup, "select sum(f) from fl where g = 1") == [(0.0,)]

    def test_min_max_over_strings(self):
        rows = run_everywhere(
            sales, "select g, min(note), max(note), min(k), max(k) from s group by g"
        )
        assert rows == [(1, "v", "z", "b", "c"), (2, "w", "y", "a", "a"),
                        (None, "y", "y", "a", "a")]

    def test_distinct_aggregates(self):
        rows = run_everywhere(
            sales,
            "select g, count(distinct amt), sum(distinct amt), avg(distinct amt), "
            "count(distinct k) from s group by g",
        )
        assert_exact(rows, [
            (1, 3, D("9.90"), D("3.30"), 2),
            (2, 3, D("7.70"), D("7.70") / D(3), 1),
            (None, 1, D("1.10"), D("1.10"), 1),
        ])

    def test_distinct_float_sum_folds_in_first_seen_order(self):
        """DISTINCT SUM/AVG add the distinct values left to right in
        first-seen order, as SUM/AVG do, so over five distinct values the
        two agree.  Reducing a hash-ordered set with the builtin ``sum()``
        gave 3.5 and 0.7 here on Python 3.11."""
        def setup(db):
            db.execute("create table df (id int primary key, x double)")
            db.bulk_load(
                "df", list(enumerate([1e16, 1.0, 3.0, -1e16, 0.5]))
            )

        rows = run_everywhere(
            setup,
            "select sum(distinct x), avg(distinct x), sum(x), avg(x) from df",
        )
        assert_exact(rows, [(4.5, 0.9, 4.5, 0.9)])

    def test_having_filters_groups(self):
        rows = run_everywhere(
            sales, "select k, count(*) from s group by k having count(*) > 2"
        )
        assert rows == [(None, 3), ("a", 3)]
