"""Vectorized execution: typed vectors, kernel edge cases, and TopN.

The contract under test is *invisibility*: the vectorized kernels and the
bounded-heap TopN operator must produce results identical to the scalar
row-at-a-time path — including NULL handling (dictionary code ``-1``),
mixed-kind UNION ALL keys, zero-column ``COUNT(*)`` chunks,
``batch_size=1`` streams, and joins whose sides do not share a fragment
dictionary.  The fuzz campaign holds the same line statistically; these
tests pin the named edge cases deterministically.
"""

from __future__ import annotations

import decimal

import pytest

from repro.database import Database
from repro.errors import TypeCheckError
from repro.storage.column import ColumnFragments
from repro.vectors import (
    DictVector,
    FloatVector,
    IntVector,
    column_nbytes,
    concat_columns,
    maybe_typed,
    pad_take_column,
)

D = decimal.Decimal


def load_items(database: Database) -> Database:
    database.execute(
        "create table items (id int primary key, grp varchar, qty int, price double)"
    )
    rows = []
    for i in range(500):
        qty = None if i % 11 == 0 else i % 50
        rows.append((i, f"g{i % 7}", qty, i * 0.25))
    database.bulk_load("items", rows)
    return database


@pytest.fixture()
def db():
    database = load_items(Database(wal_enabled=False))
    yield database
    database.close()


def scalar_twin(db_builder):
    """Build the same database twice: vectorized (default) and scalar."""
    return db_builder(vectorized=True), db_builder(vectorized=False)


def both_rows(db, sql):
    """(vectorized rows, scalar rows) for one SQL string on one database —
    the scalar arm re-runs on a vectorized=False twin sharing the data."""
    return db.query(sql).rows


# -- vector basics ----------------------------------------------------------


class TestVectors:
    def test_dict_vector_sequence_protocol(self):
        v = DictVector(["a", "b"], __import__("array").array("q", [1, -1, 0]))
        assert len(v) == 3
        assert v[0] == "b" and v[1] is None and v[2] == "a"
        assert list(v) == ["b", None, "a"]
        assert v == ["b", None, "a"]

    def test_typed_vector_nulls_and_negative_index(self):
        v = IntVector([5, None, 7])
        assert v[1] is None
        assert v[-2] is None  # negative indices must respect the null set
        assert v[-1] == 7
        assert v.tolist() == [5, None, 7]

    def test_take_and_slice_remap_nulls(self):
        v = FloatVector([1.0, None, 3.0, None])
        taken = v.take([3, 0, 1])
        assert taken.tolist() == [None, 1.0, None]
        sliced = v.slice(1, 3)
        assert sliced.tolist() == [None, 3.0]

    def test_concat_same_dictionary_stays_coded(self):
        arr = __import__("array").array
        d = ["x", "y"]
        a = DictVector(d, arr("q", [0, 1]))
        b = DictVector(d, arr("q", [-1, 0]))
        merged = concat_columns([a, b])
        assert isinstance(merged, DictVector)
        assert merged.dictionary is d
        assert merged.tolist() == ["x", "y", None, "x"]

    def test_concat_dictionary_mismatch_decodes(self):
        arr = __import__("array").array
        a = DictVector(["x"], arr("q", [0]))
        b = DictVector(["y"], arr("q", [0]))
        merged = concat_columns([a, b])
        assert merged == ["x", "y"]
        assert isinstance(merged, list)

    def test_maybe_typed_packs_int_and_float_columns_only(self):
        assert isinstance(maybe_typed([1, 2, None], int), IntVector)
        assert isinstance(maybe_typed([1.5, None], float), FloatVector)
        assert maybe_typed([True, False], bool) == [True, False]
        assert maybe_typed([D(1)], D) == [D(1)]
        assert maybe_typed([2**70], int) == [2**70]  # out of 64-bit range

    def test_pad_take_keeps_dict_coded_null_extension(self):
        arr = __import__("array").array
        v = DictVector(["x", "y"], arr("q", [0, 1]))
        padded = pad_take_column(v, [1, -1, 0])
        assert isinstance(padded, DictVector)
        assert padded.tolist() == ["y", None, "x"]


# -- storage vector reads ---------------------------------------------------


class TestFragmentVectors:
    def test_main_range_is_dict_vector_sharing_dictionary(self):
        frags = ColumnFragments([10, 20, 30, 20])
        v = frags.get_range_vector(1, 3)
        assert isinstance(v, DictVector)
        assert v.dictionary is frags.main.dictionary
        assert v.sorted_dict is True
        assert v.tolist() == [20, 30]

    def test_range_touching_delta_decodes(self):
        frags = ColumnFragments([1, 2])
        frags.append(3)
        assert frags.get_range_vector(1, 3) == [2, 3]
        assert frags.get_range_vector(2, 3) == [3]

    def test_get_many_vector_gathers_codes(self):
        frags = ColumnFragments([10, None, 30])
        v = frags.get_many_vector([2, 1, 0])
        assert isinstance(v, DictVector)
        assert v.tolist() == [30, None, 10]
        frags.append(40)
        assert frags.get_many_vector([0, 3]) == [10, 40]


# -- kernel edge cases ------------------------------------------------------


class TestKernelNulls:
    """NULL (code -1) must flow through every kernel identically to the
    scalar path: comparisons never match, IS [NOT] NULL classifies, and
    arithmetic propagates NULL."""

    SQLS = [
        "select id from items where qty = 5",
        "select id from items where qty <> 5",
        "select id from items where qty < 3",
        "select id from items where qty <= 3",
        "select id from items where qty > 47",
        "select id from items where qty >= 47",
        "select id from items where qty is null",
        "select id from items where qty is not null",
        "select id, qty + 10 from items where id < 30",
        "select id, qty * 2 from items where id < 30",
        "select id from items where grp = 'g3' and qty > 10",
        # OR unions, AND narrows; a leaf without a kernel declines the whole
        # predicate, even when the first selection is already empty.
        "select id from items where qty = 5 or qty is null",
        "select id from items where grp = 'g9' or qty is null",
        "select id from items where qty = 5 or grp like 'g1%'",
        "select id from items where (grp = 'g3' or qty is null) and qty > 10",
        "select id from items where grp = 'g3' and (qty < 3 or qty > 47)",
        "select id from items where qty = 1000 and grp like 'g%'",
        "select grp, count(qty), sum(qty) from items group by grp",
        "select qty, count(*) from items group by qty",
        "select id, qty from items order by qty limit 7",
        "select id, qty from items order by qty desc limit 7",
    ]

    @pytest.mark.parametrize("sql", SQLS)
    def test_null_codes_match_scalar_path(self, db, sql):
        scalar = load_items(Database(wal_enabled=False, vectorized=False))
        try:
            assert sorted(db.query(sql).rows, key=repr) == sorted(
                scalar.query(sql).rows, key=repr
            )
        finally:
            scalar.close()

    def test_dac_filter_above_left_outer_join_matches_scalar_path(self, db):
        # The DAC shape over a nullable, coded augmenter column: unmatched
        # rows pad code -1, and the second OR runs on the first one's
        # survivors, a chunk that already carries a pending selection.
        sql = (
            "select i.id from items i left outer join auth a on i.grp = a.grp "
            "where (a.authgroup = 'G1' or a.authgroup is null) "
            "and (a.region = 'EU' or a.region is null)"
        )
        scalar = load_items(Database(wal_enabled=False, vectorized=False))
        try:
            for d in (db, scalar):
                d.execute("create table auth (grp varchar primary key, "
                          "authgroup varchar, region varchar)")
                d.bulk_load("auth", [
                    ("g0", "G1", "EU"), ("g1", "G2", "EU"), ("g2", None, None),
                    ("g3", "G1", "US"), ("g4", "G1", None),
                ])
            before = db.metrics.counter("exec.kernel_calls").value
            rows = sorted(db.query(sql).rows)
            assert db.metrics.counter("exec.kernel_calls").value > before
            assert rows == sorted(scalar.query(sql).rows)
            # g0, g2, g4 pass; g5 and g6 have no auth row at all.
            assert {i % 7 for (i,) in rows} == {0, 2, 4, 5, 6}
        finally:
            scalar.close()

    def test_comparison_with_null_constant_is_empty(self, db):
        # col <op> NULL is never TRUE; the kernel short-circuits to empty.
        assert db.query("select id from items where qty = null").rows == []
        assert db.query("select id from items where qty < null").rows == []


class TestIncomparableComparison:
    """INTEGER against VARCHAR is the query's fault on both arms: the kernel
    declines and the row path raises TypeCheckError, not a raw TypeError."""

    @pytest.mark.parametrize("vectorized", [True, False])
    @pytest.mark.parametrize("sql", [
        "select count(*) from items where qty < 'x'",
        "select id from items where grp >= 3",
        "select id from items where grp = 'g1' or qty < 'x'",
    ])
    def test_raises_type_check_error_naming_both_types(self, sql, vectorized):
        d = load_items(Database(wal_enabled=False, vectorized=vectorized))
        try:
            with pytest.raises(TypeCheckError) as raised:
                d.query(sql)
            assert "INTEGER" in str(raised.value) and "VARCHAR" in str(raised.value)
        finally:
            d.close()


class TestZeroColumnChunks:
    def test_count_star_without_columns(self, db):
        assert db.query("select count(*) from items").scalar() == 500

    def test_count_star_with_filter(self, db):
        vec = db.query("select count(*) from items where qty is null").scalar()
        assert vec == len([i for i in range(500) if i % 11 == 0])

    def test_count_star_batch_size_one(self):
        tiny = Database(wal_enabled=False, batch_size=1)
        tiny.execute("create table t (a int)")
        tiny.bulk_load("t", [(i,) for i in range(17)])
        try:
            assert tiny.query("select count(*) from t").scalar() == 17
        finally:
            tiny.close()


class TestStringRanges:
    def build(self, vectorized=True):
        d = Database(wal_enabled=False, vectorized=vectorized)
        d.execute("create table m (id int, v varchar)")
        d.bulk_load("m", [(i, f"s{i % 3}") for i in range(40)])
        return d

    def test_string_ranges_match_scalar(self):
        vec, scalar = scalar_twin(self.build)
        try:
            for sql in (
                "select id from m where v > 's0'",
                "select id from m where v <= 's1'",
            ):
                assert vec.query(sql).rows == scalar.query(sql).rows
        finally:
            vec.close()
            scalar.close()


class TestDictionaryMismatchJoin:
    def test_join_across_tables_decodes_and_matches(self, db):
        # items.grp joined against a second table: different fragments,
        # different dictionaries — keys decode from each side's own
        # dictionary and the join must still be exact.
        db.execute("create table grps (name varchar, boost int)")
        db.bulk_load("grps", [(f"g{i}", i * 100) for i in range(7)])
        rows = db.query(
            "select i.id, g.boost from items i join grps g on i.grp = g.name "
            "where i.id < 20"
        ).rows
        assert len(rows) == 20
        assert all(boost == (i % 7) * 100 for i, boost in rows)

    def test_join_key_reads_are_counted_as_dict_compares(self, db):
        before = db.metrics.counter("exec.dict_compares").value
        db.query("select i.id from items i join items j on i.grp = j.grp and i.id = j.id")
        assert db.metrics.counter("exec.dict_compares").value > before


# -- TopN -------------------------------------------------------------------


TOPN_BATCH_SIZES = (1, 7, 1024)


def topn_everywhere(setup, sql: str) -> list:
    """A ``… ORDER BY … LIMIT k [OFFSET o]`` page, after checking it at
    batch sizes 1, 7 and 1024 against ``optimize=False``, the full
    ``ORDER BY`` sliced, and a ``vectorized=False`` twin."""
    body, _, page = sql.partition(" limit ")
    limit, _, offset = page.partition(" offset ")
    window = slice(int(offset or 0), int(offset or 0) + int(limit))
    expected = None
    for batch_size in TOPN_BATCH_SIZES:
        vec = Database(wal_enabled=False, batch_size=batch_size)
        scalar = Database(
            wal_enabled=False, batch_size=batch_size, vectorized=False
        )
        try:
            setup(vec)
            setup(scalar)
            assert "TopN[" in vec.explain(sql)
            rows = vec.query(sql).rows
            assert vec.query(sql, optimize=False).rows == rows, sql
            assert vec.query(body).rows[window] == rows, sql
            assert scalar.query(sql).rows == rows, sql
            if expected is None:
                expected = rows
            else:
                assert rows == expected, (batch_size, sql)
        finally:
            vec.close()
            scalar.close()
    return expected


class TestTopN:
    def test_explain_shows_topn_instead_of_sort_limit(self, db):
        plan = db.explain("select id from items order by price desc limit 5")
        assert "TopN[k=5" in plan
        assert "Sort" not in plan
        assert "Limit" not in plan

    def test_pure_offset_keeps_sort(self, db):
        plan = db.explain("select id from items order by id offset 5")
        assert "Sort" in plan

    @pytest.mark.parametrize(
        "order_limit",
        [
            "order by qty limit 10",
            "order by qty desc limit 10",
            "order by qty, id desc limit 10",
            "order by qty desc limit 10 offset 5",
            "order by grp, qty desc limit 3 offset 2",
            "order by price limit 1",
            "order by id limit 500",   # k >= rows: no evictions
            "order by id limit 0",
        ],
    )
    def test_topn_equals_sort_plus_limit(self, db, order_limit):
        fused = db.query(f"select id, grp, qty from items {order_limit}").rows
        # The unfused reference: sort the unlimited result with the same
        # stable semantics and slice it.
        unlimited = db.query(
            f"select id, grp, qty from items {order_limit.split(' limit')[0]}"
        ).rows
        parts = order_limit.split("limit ")[1].split(" offset ")
        limit = int(parts[0])
        offset = int(parts[1]) if len(parts) > 1 else 0
        assert fused == unlimited[offset:offset + limit]

    def test_topn_batch_size_one(self):
        tiny = Database(wal_enabled=False, batch_size=1)
        tiny.execute("create table t (a int, b varchar)")
        tiny.bulk_load("t", [(i, f"v{i % 3}") for i in range(25)])
        try:
            rows = tiny.query("select a from t order by a desc limit 4").rows
            assert rows == [(24,), (23,), (22,), (21,)]
        finally:
            tiny.close()

    def test_topn_nulls_sort_last(self, db):
        asc = db.query("select qty from items order by qty limit 500").rows
        tail = [q for (q,) in asc[-46:]]
        assert all(q is None for q in tail)  # 46 NULL qty rows sort last
        desc_first = db.query("select qty from items order by qty desc limit 1").rows
        assert desc_first == [(49,)]  # NULLS LAST: a value wins under desc

    def test_eviction_metric_and_operator_stats(self, db):
        before = db.metrics.counter("exec.topn_heap_evictions").value
        db.query("select id from items order by price desc limit 5")
        assert db.metrics.counter("exec.topn_heap_evictions").value > before
        rows = db.query(
            "select operator, heap_evictions from sys.operator_stats "
            "where heap_evictions > 0"
        ).rows
        assert any(op.startswith("TopN") for op, _ in rows)

    def test_analyze_annotation_includes_evictions(self, db):
        text = db.explain(
            "select id from items order by price desc limit 5", analyze=True
        )
        assert "TopN[k=5" in text
        assert "evictions=" in text

    @pytest.mark.parametrize(
        "order_limit",
        [
            "order by s limit 6",              # sorted-dict codes, ascending
            "order by f desc limit 6",         # bisected code cut, descending
            "order by v limit 9 offset 3",     # NULL codes never admitted
            "order by v desc limit 9",
        ],
    )
    def test_code_filter_matches_scalar_across_batches(self, order_limit):
        """Multi-chunk streams drive the full-heap prefilter over a sorted
        dictionary (codes against one bisected cut); the scalar twin never
        sees a DictVector at all."""
        def build(**kwargs):
            d = Database(wal_enabled=False, batch_size=128, **kwargs)
            d.execute(
                "create table t (id int primary key, v int, f double, s varchar)"
            )
            d.bulk_load(
                "t",
                [
                    (
                        i,
                        None if i % 13 == 0 else (i * 37) % 101,
                        ((i * 2654435761) % 9973) / 7.0,
                        f"s{(i * 53) % 97:03d}",
                    )
                    for i in range(1500)
                ],
            )
            return d
        vec, scalar = scalar_twin(build)
        try:
            sql = f"select id, v, f, s from t {order_limit}"
            assert vec.query(sql).rows == scalar.query(sql).rows
        finally:
            vec.close()
            scalar.close()

    def test_heap_full_of_nulls_is_beaten_by_later_values(self):
        """The admission bound must open completely while the worst kept
        entry is NULL — the first chunks here are all-NULL keys."""
        d = Database(wal_enabled=False, batch_size=64)
        d.execute("create table t (id int primary key, v int)")
        d.bulk_load(
            "t",
            [(i, None if i < 300 else i) for i in range(1000)],
        )
        try:
            asc = d.query("select v from t order by v limit 5").rows
            assert asc == [(300,), (301,), (302,), (303,), (304,)]
            desc = d.query("select v from t order by v desc limit 5").rows
            assert desc == [(999,), (998,), (997,), (996,), (995,)]
        finally:
            d.close()

    def test_topk_aggregate_runs_off_typed_buffers(self):
        """ORDER BY an aggregate: the group materialization emits typed
        vectors, which rank as numeric keys without a scan; the full-heap
        prefilter compares their decoded values."""
        def build(**kwargs):
            d = Database(wal_enabled=False, batch_size=64, **kwargs)
            d.execute("create table t (id int primary key, v int, g varchar)")
            d.bulk_load(
                "t", [(i, (i * 37) % 101, f"g{i % 200}") for i in range(2000)]
            )
            return d
        vec, scalar = scalar_twin(build)
        try:
            sql = (
                "select g, sum(v) as s from t group by g "
                "order by s desc limit 7"
            )
            assert vec.query(sql).rows == scalar.query(sql).rows
        finally:
            vec.close()
            scalar.close()

    # -- edge cases, each against optimize=False, the full ORDER BY sliced
    # and the scalar twin at batch sizes 1, 7 and 1024 ---------------------

    @pytest.mark.parametrize(
        "order_limit",
        [
            "order by k, v desc limit 7 offset 2",
            "order by k desc, v limit 9",
            "order by k, v limit 12",          # ties on both keys: stability
            "order by n, k limit 6",           # NULL first keys tie a NULL worst
            "order by s, id desc limit 5 offset 4",
        ],
    )
    def test_multi_key_ties_on_the_first_key(self, order_limit):
        """Several keys prefilter with ``≤`` on the first key: a row that
        ties the worst entry's first key can still win on the second."""
        def setup(d):
            d.execute(
                "create table t (id int primary key, k int, v int, n int, "
                "s varchar(4))"
            )
            d.bulk_load("t", [
                (i, i % 5, (i * 7) % 11, None if i % 3 else i % 4,
                 f"s{(i * 3) % 4}")
                for i in range(60)
            ])

        rows = topn_everywhere(setup, f"select id, k, v, n, s from t {order_limit}")
        assert rows

    @pytest.mark.parametrize(
        "sql",
        [
            "select id, v from t order by v limit 6",
            "select id, v from t order by v desc limit 6 offset 3",
            "select id, s from t order by s, id limit 8",
            "select u.id, u.v from (select id, v from t union all "
            "select id, v from w) u order by u.v, u.id limit 7",
            "select u.id, u.s from (select id, s from w union all "
            "select id, s from t) u order by u.s limit 5",
        ],
    )
    def test_stream_crosses_fragments_and_dictionaries(self, sql):
        """Main-fragment codes, delta-fragment lists and a second table's
        dictionary all meet the heap's worst value in one stream."""
        def setup(d):
            d.execute("create table t (id int primary key, v int, s varchar(4))")
            d.execute("create table w (id int primary key, v int, s varchar(4))")
            d.bulk_load("t", [(i, (i * 13) % 17, f"m{i % 9}") for i in range(40)])
            d.bulk_load(
                "t", [(100 + i, (i * 5) % 19 - 3, f"d{i % 6}") for i in range(20)],
                merge=False,
            )
            d.bulk_load("w", [(200 + i, i % 7 - 1, f"m{i % 4}") for i in range(25)])

        topn_everywhere(setup, sql)

    @pytest.mark.parametrize("direction", ["", " desc"])
    def test_typed_key_with_nulls(self, direction):
        """``ORDER BY`` an aggregate with NULL groups: the key arrives as a
        typed vector with nulls, which prefilters on decoded values."""
        def setup(d):
            d.execute("create table t (id int primary key, g int, v int)")
            d.bulk_load("t", [
                (i, i % 40, None if i % 40 >= 34 else (i * 37) % 101)
                for i in range(400)
            ])

        rows = topn_everywhere(
            setup,
            f"select g, sum(v) as s from t group by g order by s{direction}, g "
            "limit 12",
        )
        assert all(s is not None for _, s in rows)
        rows = topn_everywhere(
            setup,
            f"select g, sum(v) as s from t group by g order by s{direction} "
            "limit 38",
        )
        assert [s for _, s in rows][-4:] == [None] * 4  # NULLS LAST

    def test_mixed_kind_union_key_ranks_as_its_unified_type(self):
        """An INTEGER branch and a DECIMAL branch meet as DECIMAL(10,2):
        the int keys arrive cast, and the page ranks on the rank path."""
        def setup(d):
            d.execute("create table a (id int primary key, v int)")
            d.execute("create table b (id int primary key, d decimal(10,2))")
            d.bulk_load("a", [(i, (i * 7) % 23) for i in range(30)])
            d.bulk_load("b", [(100 + i, D(f"{(i * 3) % 11}.5")) for i in range(10)])

        rows = topn_everywhere(
            setup,
            "select u.id, u.x from (select id, v as x from a union all "
            "select id, d as x from b) u order by u.x, u.id limit 8",
        )
        assert rows == [
            (0, 0), (23, 0), (100, D("0.50")), (10, 1), (104, D("1.50")),
            (20, 2), (108, D("2.50")), (7, 3),
        ]
        assert {type(x) for _, x in rows} == {D}
        assert str(rows[0][1]) == "0.00"

    def test_offset_beyond_the_input(self):
        def setup(d):
            d.execute("create table t (id int primary key, v int)")
            d.bulk_load("t", [(i, i % 7) for i in range(30)])

        assert topn_everywhere(
            setup, "select id from t order by v limit 5 offset 1000"
        ) == []
        assert topn_everywhere(
            setup, "select id from t order by v desc, id limit 5 offset 28"
        ) == [(21,), (28,)]

    def test_limit_beyond_the_input_and_scattered_survivors(self):
        """A page as large as the input keeps every row; a small page over
        a scattered stream leaves a few live rows in many batches' payloads,
        so the kept rows are copied into one payload along the way — on the
        rank path (numeric and Decimal keys) and on the comparator path
        (a descending string key)."""
        def setup(d):
            d.execute(
                "create table t (id int primary key, v int, x decimal(10,2), "
                "s varchar(8))"
            )
            d.bulk_load("t", [
                (i, (i * 7919) % 401, D(f"{(i * 37) % 101}.25"), f"s{i % 13}")
                for i in range(400)
            ])

        everything = topn_everywhere(
            setup, "select id, s from t order by v, id desc limit 1000"
        )
        assert len(everything) == 400
        assert everything[:2] == [(0, "s0"), (266, "s6")]
        assert len(topn_everywhere(
            setup, "select id from t order by x desc limit 395 offset 3"
        )) == 395
        for sql in (
            "select id, s, x from t order by v limit 10",
            "select id, s, v from t order by x, id limit 10 offset 2",
            "select id, s from t order by s desc, v limit 12",
        ):
            assert len(topn_everywhere(setup, sql)) >= 10

    def test_pinned_desc_varchar_and_decimal_keys(self):
        """Absolute expectations for descending strings (the comparator
        ``SortExec`` and TopN share) and Decimal keys (TopN's rank path),
        NULLS LAST."""
        def setup(d):
            d.execute(
                "create table t (id int primary key, s varchar(8), "
                "x decimal(10,2))"
            )
            d.bulk_load("t", [
                (1, "pear", D("2.50")), (2, "apple", None), (3, None, D("-1.25")),
                (4, "fig", D("2.50")), (5, "plum", D("10.00")),
                (6, "apple", D("0.75")), (7, "kiwi", None), (8, None, D("3.00")),
            ])

        assert topn_everywhere(
            setup, "select id, s from t order by s desc limit 5"
        ) == [(5, "plum"), (1, "pear"), (7, "kiwi"), (4, "fig"), (2, "apple")]
        assert topn_everywhere(
            setup, "select id, s from t order by s desc limit 3 offset 5"
        ) == [(6, "apple"), (3, None), (8, None)]
        assert topn_everywhere(
            setup, "select id, x from t order by x limit 4"
        ) == [(3, D("-1.25")), (6, D("0.75")), (1, D("2.50")), (4, D("2.50"))]
        assert topn_everywhere(
            setup, "select id, x from t order by x desc, id desc limit 8"
        ) == [
            (5, D("10.00")), (8, D("3.00")), (4, D("2.50")), (1, D("2.50")),
            (6, D("0.75")), (3, D("-1.25")), (7, None), (2, None),
        ]


class TestTopNLateMaterialization:
    """TopN reads only its sort keys per batch and gathers the rows a
    batch leaves in the heap once, after that batch."""

    WIDTH = 18  # payload columns besides id and the sort key

    def wide(self, d, keys, merge=True, text=lambda i, c: f"v{i % 4}{c}"):
        cols = ", ".join(f"c{c} varchar(300)" for c in range(self.WIDTH))
        d.execute(f"create table t (id int primary key, k int, {cols})")
        d.bulk_load(
            "t",
            [
                (i, k, *(text(i, c) for c in range(self.WIDTH)))
                for i, k in enumerate(keys)
            ],
            merge=merge,
        )

    def test_one_gather_per_admitting_batch(self, monkeypatch):
        """Ascending keys: only the first batch admits rows, so each
        payload column is gathered once — not once per batch."""
        d = Database(wal_enabled=False, batch_size=64)
        try:
            self.wide(d, range(640))
            table = d.catalog.table("t")
            payload = {
                id(table.column(f"c{c}").main.dictionary): f"c{c}"
                for c in range(self.WIDTH)
            }
            gathers: dict = {}
            take = DictVector.take

            def counting_take(vec, indices):
                name = payload.get(id(vec.dictionary))
                if name is not None:
                    gathers[name] = gathers.get(name, 0) + 1
                return take(vec, indices)

            monkeypatch.setattr(DictVector, "take", counting_take)
            # The filter hands TopN lazily selected batches, so every
            # column it reads is a gather.
            sql = "select * from t where c0 <> 'v30' order by k limit 5"
            rows = d.query(sql).rows
            assert [r[0] for r in rows] == [0, 1, 2, 4, 5]
            assert gathers == {f"c{c}": 1 for c in range(self.WIDTH)}
        finally:
            d.close()

    def test_peak_charges_the_retained_payload(self):
        """Descending keys: every batch evicts the whole heap, so one batch's
        ``limit + offset`` rows are live at a time, and the peak charges
        them — not whole batches, not just the heap entries."""
        d = Database(wal_enabled=False, batch_size=64)
        try:
            self.wide(
                d, range(640, 0, -1), merge=False,
                text=lambda i, c: f"{i:04d}{c:02d}" + "x" * 250,
            )
            text = d.explain(
                "select * from t order by k limit 3 offset 2", analyze=True
            )
            line = next(s for s in text.splitlines() if "TopN[" in s)
            peak = float(line.split("peak≈")[1].split("KB")[0]) * 1024
            sample = [f"{0:04d}{0:02d}" + "x" * 250]
            row_bytes = [column_nbytes(sample * n) for n in (5, 64)]
            five_rows = self.WIDTH * row_bytes[0]
            one_batch = self.WIDTH * row_bytes[1]
            assert five_rows <= peak < min(2 * five_rows, one_batch)
            assert d.query(
                "select id from t order by k limit 3 offset 2"
            ).rows == [(637,), (636,), (635,)]
        finally:
            d.close()

    def test_retained_rows_stay_within_twice_the_page(self):
        """A scattered stream leaves a few live rows in many batches'
        payloads; once they hold more than ``2·(limit + offset)`` rows the
        kept rows are copied into one payload, so the peak never charges
        more than that many rows."""
        d = Database(wal_enabled=False, batch_size=16)
        try:
            self.wide(
                d, [(i * 7919) % 2003 for i in range(2000)], merge=False,
                text=lambda i, c: f"{i:04d}{c:02d}" + "x" * 250,
            )
            sql = "select * from t order by k limit 25 offset 5"
            text = d.explain(sql, analyze=True)
            line = next(s for s in text.splitlines() if "TopN[" in s)
            peak = float(line.split("peak≈")[1].split("KB")[0]) * 1024
            sample = [f"{0:04d}{0:02d}" + "x" * 250]
            page_bytes = self.WIDTH * column_nbytes(sample * 30)
            assert page_bytes <= peak < 2.2 * page_bytes
            ids = [r[0] for r in d.query(sql).rows]
            everything = d.query("select id from t order by k").rows
            assert ids == [i for (i,) in everything[5:30]]
        finally:
            d.close()


# -- memory accounting ------------------------------------------------------


class TestEstimatedBytes:
    def test_typed_vector_bytes_are_exact(self):
        import sys as _sys

        v = IntVector(list(range(100)))
        assert column_nbytes(v) == _sys.getsizeof(v.data) + 16

    def test_dict_vector_charges_codes_not_values(self):
        arr = __import__("array").array
        big_strings = [f"payload-{i:04d}" * 20 for i in range(4)]
        v = DictVector(big_strings, arr("q", [0, 1, 2, 3] * 256))
        # The shared dictionary is charged as a pointer: far below the
        # decoded footprint.
        assert column_nbytes(v) < 1024 * 16

    def test_chunk_estimated_bytes_uses_exact_vectors(self, db):
        from repro.engine.chunk import Chunk

        frags = db.catalog.table("items").column("grp")
        col = frags.get_range_vector(0, 500)
        chunk = Chunk({0: col}, 500)
        assert chunk.estimated_bytes() == 64 + column_nbytes(col)


# -- kernel metrics and the scalar arm --------------------------------------


class TestKernelAccounting:
    def test_filter_kernel_counted(self, db):
        before = db.metrics.counter("exec.kernel_calls").value
        db.query("select id from items where grp = 'g1'")
        assert db.metrics.counter("exec.kernel_calls").value > before

    def test_operator_stats_expose_kernel_columns(self, db):
        db.query("select id from items where grp = 'g1'")
        rows = db.query(
            "select operator, kernel_calls, kernel_ms, rows_selected, dict_compares "
            "from sys.operator_stats where kernel_calls > 0"
        ).rows
        assert rows, "expected at least one kernel-attributed operator"
        op, calls, kernel_ms, selected, _ = rows[-1]
        assert op.startswith("Filter")
        assert calls >= 1 and kernel_ms >= 0.0 and selected > 0

    def test_doctor_ranks_kernel_time(self, db):
        from repro.observability.doctor import doctor_report

        db.query("select id from items where grp = 'g1'")
        report = doctor_report(db)
        assert "kernel-heaviest operators" in report
        assert "Filter" in report

    def test_dac_statement_never_enters_the_row_or(self, db, monkeypatch):
        from repro.engine import eval as engine_eval

        calls = []
        row_or = engine_eval._HANDLERS["OR"]

        def counting_or(expr, chunk):
            calls.append(chunk.row_count)
            return row_or(expr, chunk)

        monkeypatch.setitem(engine_eval._HANDLERS, "OR", counting_or)
        sql = "select count(*) from items where grp = 'g1' or grp is null"
        assert db.query(sql).scalar() == len([i for i in range(500) if i % 7 == 1])
        assert calls == []
        # The row path does take the patched handler (the counter is live).
        db.query("select count(*) from items where grp = 'g1' or grp like 'x%'")
        assert calls

    def test_and_narrows_its_second_child_to_the_survivors(self, db):
        # Each repeated conjunct compares the one surviving row, not all 500.
        before = db.metrics.counter("exec.dict_compares").value
        rows = db.query(
            "select id from items where id = 7 and qty >= 0 and qty >= 0"
        ).rows
        assert rows == [(7,)]
        assert db.metrics.counter("exec.dict_compares").value - before <= 500 + 2

    def test_scalar_database_never_counts_kernels(self):
        scalar = Database(wal_enabled=False, vectorized=False)
        scalar.execute("create table t (a int, b varchar)")
        scalar.bulk_load("t", [(i, f"v{i % 3}") for i in range(100)])
        try:
            scalar.query("select a from t where a < 50")
            scalar.query("select a from t order by a limit 3")
            assert scalar.metrics.counter("exec.kernel_calls").value == 0
            assert scalar.metrics.counter("exec.dict_compares").value == 0
            # TopN still runs (it is a plan choice, not a kernel) —
            # evictions are counted regardless of the arm.
            assert scalar.query("select a from t order by a desc limit 1").rows == [(99,)]
        finally:
            scalar.close()
