"""Equi-joins as batch gathers: every hash-join body against its oracles.

Each case runs on a vectorized database, is compared against the same
statement with ``optimize=False`` and against a ``vectorized=False``
twin, at batch sizes 1, 7 and 1024 — so key vectors built from
dictionary codes, typed buffers and delta-fragment lists all meet the
unique and non-unique builds on both build sides.  A last test pins the
zero-copy contract of the unique-build LEFT OUTER join.
"""

from __future__ import annotations

import decimal

import pytest

from repro import Database
from repro.engine.physical import ExecContext, HashJoinExec

BATCH_SIZES = (1, 7, 1024)


def run_everywhere(setup, sql: str, *, ordered: bool = False) -> list:
    """The statement's rows, after checking that every arm agrees.

    ``ordered`` compares row order too (the anchor-order contract);
    otherwise rows compare as multisets.
    """
    def norm(rows):
        return rows if ordered else sorted(rows, key=repr)

    expected = None
    for batch_size in BATCH_SIZES:
        vec = Database(wal_enabled=False, batch_size=batch_size)
        scalar = Database(wal_enabled=False, batch_size=batch_size, vectorized=False)
        try:
            setup(vec)
            setup(scalar)
            rows = vec.query(sql).rows
            assert norm(vec.query(sql, optimize=False).rows) == norm(rows), sql
            assert norm(scalar.query(sql).rows) == norm(rows), sql
            if expected is None:
                expected = rows
            else:
                assert norm(rows) == norm(expected), (batch_size, sql)
        finally:
            vec.close()
            scalar.close()
    return expected


def physical_plan(setup, sql: str) -> str:
    db = Database(wal_enabled=False)
    try:
        setup(db)
        return db.explain(sql, optimize=False, physical=True)
    finally:
        db.close()


# -- data ---------------------------------------------------------------------


def anchor_and_names(db, *, anchor_rows=60, name_keys=("k3", "k1", "k9", "k5")):
    """``a``: anchor with NULL and dangling ``k`` values; ``n``: a unique
    name table whose dictionary orders its values differently from
    ``a``'s, so equal values carry different codes on the two sides."""
    db.execute("create table a (id int primary key, k varchar(8))")
    db.execute("create table n (k varchar(8) primary key, label varchar(8))")
    db.bulk_load("a", [
        (i, None if i % 5 == 0 else f"k{i % 11}") for i in range(anchor_rows)
    ])
    db.bulk_load("n", [(k, f"L{k}") for k in name_keys])


def with_delta(db):
    """Main-fragment rows plus delta rows on both sides."""
    anchor_and_names(db)
    db.execute("insert into a values (100, 'k1'), (101, null), (102, 'k7')")
    db.execute("insert into n values ('k7', 'Lk7')")


# -- the cases ----------------------------------------------------------------


class TestUniqueBuild:
    def test_null_codes_and_dangling_keys_left_outer(self):
        sql = "select a.id, n.label from a left outer join n on a.k = n.k"
        rows = run_everywhere(anchor_and_names, sql, ordered=True)
        assert "build=right" in physical_plan(anchor_and_names, sql)
        assert [i for i, _ in rows] == list(range(60))  # every anchor row once
        for i, label in rows:
            key = None if i % 5 == 0 else f"k{i % 11}"
            expected = f"L{key}" if key in ("k3", "k1", "k9", "k5") else None
            assert label == expected

    def test_inner_join_with_partial_matches(self):
        sql = "select a.id, n.label from a join n on a.k = n.k"
        rows = run_everywhere(anchor_and_names, sql, ordered=True)
        expected = [
            (i, f"Lk{i % 11}") for i in range(60)
            if i % 5 and f"k{i % 11}" in ("k3", "k1", "k9", "k5")
        ]
        assert rows == expected

    def test_dictionaries_from_different_fragments(self):
        def setup(db):
            anchor_and_names(db, name_keys=("k9", "k7", "k5", "k3", "k1"))

        db = Database(wal_enabled=False)
        try:
            setup(db)
            a_dict = db.catalog.table("a").column("k").main.dictionary
            n_dict = db.catalog.table("n").column("k").main.dictionary
            assert a_dict is not n_dict
        finally:
            db.close()
        rows = run_everywhere(
            setup, "select a.id, n.k from a join n on a.k = n.k"
        )
        assert all(k == f"k{i % 11}" for i, k in rows)
        assert len(rows) == sum(
            1 for i in range(60) if i % 5 and i % 11 in (1, 3, 5, 7, 9)
        )

    def test_main_plus_delta_batches(self):
        sql = "select a.id, n.label from a left outer join n on a.k = n.k"
        rows = run_everywhere(with_delta, sql, ordered=True)
        assert rows[-3:] == [(100, "Lk1"), (101, None), (102, "Lk7")]

    def test_numeric_key_normalization(self):
        def setup(db):
            db.execute("create table i (id int primary key, k int)")
            db.execute("create table f (k double primary key, tag varchar(4))")
            db.execute("create table d (k decimal(10,2) primary key, tag varchar(4))")
            db.bulk_load("i", [(0, 1), (1, 2), (2, 3), (3, None)])
            db.bulk_load("f", [(1.0, "f1"), (2.5, "f25"), (3.0, "f3")])
            db.bulk_load("d", [
                (decimal.Decimal("1"), "d1"), (decimal.Decimal("2.5"), "d25"),
            ])

        int_float = run_everywhere(
            setup, "select i.id, f.tag from i join f on i.k = f.k"
        )
        assert int_float == [(0, "f1"), (2, "f3")]
        int_dec = run_everywhere(
            setup, "select i.id, d.tag from i left outer join d on i.k = d.k",
            ordered=True,
        )
        assert int_dec == [(0, "d1"), (1, None), (2, None), (3, None)]
        float_dec = run_everywhere(
            setup, "select f.tag, d.tag from f join d on f.k = d.k"
        )
        assert sorted(float_dec) == [("f1", "d1"), ("f25", "d25")]

    def test_empty_build(self):
        def setup(db):
            anchor_and_names(db, name_keys=())

        assert run_everywhere(
            setup, "select a.id, n.label from a join n on a.k = n.k"
        ) == []
        rows = run_everywhere(
            setup, "select a.id, n.label from a left outer join n on a.k = n.k",
            ordered=True,
        )
        assert rows == [(i, None) for i in range(60)]


class TestNonUniqueBuild:
    @staticmethod
    def setup(db):
        db.execute("create table big (id int primary key, k int)")
        db.execute("create table small (k int, tag varchar(4))")
        db.bulk_load("big", [(i, i % 9) for i in range(90)])
        db.bulk_load("small", [
            (1, "a"), (1, "b"), (4, "c"), (None, "n"), (7, "d"), (7, "e"),
        ])

    def test_duplicate_keys_build_right(self):
        sql = "select big.id, small.tag from big left outer join small on big.k = small.k"
        assert "build=right" in physical_plan(self.setup, sql)
        rows = run_everywhere(self.setup, sql, ordered=True)
        expected = []
        for i in range(90):
            tags = {1: ["a", "b"], 4: ["c"], 7: ["d", "e"]}.get(i % 9, [None])
            expected.extend((i, t) for t in tags)
        assert rows == expected

    def test_duplicate_keys_build_left(self):
        sql = "select small.tag, big.id from small join big on small.k = big.k"
        assert "build=left" in physical_plan(self.setup, sql)
        rows = run_everywhere(self.setup, sql, ordered=True)
        # Anchor (small) order, then the probe's arrival order per anchor row.
        expected = [
            (tag, i) for k, tag in [(1, "a"), (1, "b"), (4, "c"), (7, "d"), (7, "e")]
            for i in range(90) if i % 9 == k
        ]
        assert rows == expected

    def test_duplicate_keys_build_left_outer(self):
        sql = "select small.tag, big.id from small left outer join big on small.k = big.k"
        assert "build=left" in physical_plan(self.setup, sql)
        rows = run_everywhere(self.setup, sql, ordered=True)
        assert ("n", None) in rows
        assert [t for t, _ in rows][:2] == ["a", "a"]

    def test_two_column_key_with_a_null_part(self):
        def setup(db):
            db.execute("create table l (id int primary key, k1 int, k2 varchar(4))")
            db.execute("create table r (k1 int, k2 varchar(4), v int)")
            db.bulk_load("l", [
                (0, 1, "x"), (1, 1, None), (2, None, "x"), (3, 2, "y"), (4, 1, "y"),
            ])
            db.bulk_load("r", [
                (1, "x", 10), (1, None, 11), (None, "x", 12), (2, "y", 13),
            ])

        sql = (
            "select l.id, r.v from l left outer join r "
            "on l.k1 = r.k1 and l.k2 = r.k2"
        )
        rows = run_everywhere(setup, sql, ordered=True)
        assert rows == [(0, 10), (1, None), (2, None), (3, 13), (4, None)]


class TestBuildLeft:
    @staticmethod
    def setup(db):
        db.execute("create table anchor (id int primary key, k int)")
        db.execute("create table aug (k int primary key, v varchar(8))")
        db.bulk_load("anchor", [(i, (i * 37) % 400) for i in range(8)][::-1])
        db.bulk_load("aug", [(k, f"v{k}") for k in range(400)])

    def test_early_out_and_anchor_order(self):
        sql = (
            "select anchor.id, aug.v from anchor "
            "left outer many to one join aug on anchor.k = aug.k"
        )
        plan = physical_plan(self.setup, sql)
        assert "build=left" in plan and "early-out" in plan
        rows = run_everywhere(self.setup, sql, ordered=True)
        assert rows == [(i, f"v{(i * 37) % 400}") for i in range(8)][::-1]

    def test_early_out_stops_the_probe(self):
        db = Database(wal_enabled=False, batch_size=16)
        try:
            self.setup(db)
            db.execute("delete from anchor where id > 2")  # keys 0, 37, 74
            before = db.metrics.counter("exec.early_terminations").value
            rows = db.query(
                "select anchor.id, aug.v from anchor "
                "left outer many to one join aug on anchor.k = aug.k"
            ).rows
            assert rows == [(2, "v74"), (1, "v37"), (0, "v0")]
            assert db.metrics.counter("exec.early_terminations").value > before
        finally:
            db.close()

    def test_unmatched_anchor_rows_null_extend_in_place(self):
        def setup(db):
            self.setup(db)
            db.execute("insert into anchor values (50, 9999), (51, 3)")

        sql = "select anchor.id, aug.v from anchor left outer join aug on anchor.k = aug.k"
        assert "build=left" in physical_plan(setup, sql)
        rows = run_everywhere(setup, sql, ordered=True)
        assert [i for i, _ in rows] == [7, 6, 5, 4, 3, 2, 1, 0, 50, 51]
        assert rows[-2:] == [(50, None), (51, "v3")]


class TestLeftOuterAnchorOrder:
    def test_batch_by_batch_build_right(self):
        def setup(db):
            db.execute("create table o (okey int primary key, cust int)")
            db.execute("create table c (ckey int primary key, cname varchar(8))")
            db.bulk_load("o", [(i, (i * 7) % 13) for i in range(40)][::-1])
            db.bulk_load("c", [(i, f"c{i}") for i in range(0, 13, 2)])

        sql = "select o.okey, c.cname from o left outer join c on o.cust = c.ckey"
        assert "build=right" in physical_plan(setup, sql)
        rows = run_everywhere(setup, sql, ordered=True)
        assert rows == [
            (i, f"c{(i * 7) % 13}" if (i * 7) % 13 % 2 == 0 else None)
            for i in range(39, -1, -1)
        ]


# -- the zero-copy contract -----------------------------------------------------


def test_unique_build_left_outer_passes_anchor_columns_by_reference():
    db = Database(wal_enabled=False, batch_size=7)
    try:
        anchor_and_names(db)
        plan = db.plan_for(
            "select a.id, a.k, n.label from a left outer join n on a.k = n.k",
            optimize=False,
        )
        join = next(
            op for op in db._executor.compile(plan).walk()
            if isinstance(op, HashJoinExec)
        )
        assert join.build_side == "right"
        probe = join.children[0]
        probe_execute = probe.execute
        seen = []

        def recording(ctx):
            for chunk in probe_execute(ctx):
                seen.append(chunk)
                yield chunk

        probe.execute = recording
        txn = db.begin()
        try:
            out = list(join.execute(ExecContext(db.catalog, txn, batch_size=7)))
        finally:
            db.commit(txn)
        assert len(out) == len(seen) > 1
        assert join.left_cids
        for produced, anchor in zip(out, seen):
            for cid in join.left_cids:
                assert produced.column(cid) is anchor.column(cid)
    finally:
        db.close()


@pytest.mark.parametrize("vectorized", [True, False])
def test_dict_compares_count_only_coded_key_reads(vectorized):
    db = Database(wal_enabled=False, vectorized=vectorized)
    try:
        anchor_and_names(db)
        db.query("select a.id, n.label from a join n on a.k = n.k")
        compares = db.metrics.counter("exec.dict_compares").value
        assert (compares > 0) is vectorized
    finally:
        db.close()
