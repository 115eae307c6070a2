"""Plan cache unit and integration tests (+ normalize_sql regressions).

Covers the PlanCache data structure (promotion protocol, two-level
keying, LRU bounds, fingerprint invalidation), the Database wiring
(hit-path results, DDL / profile / stats invalidation, the execute()
SELECT gate, EXPLAIN's ``(cached)`` annotation, observability surfaces),
and the normalize_sql fallback fix this PR ships alongside.
"""

from __future__ import annotations

import pytest

from repro import Database
from repro.algebra.expr import Param
from repro.cache.plan_cache import PlanCache
from repro.datatypes import INTEGER
from repro.sql.normalize import extract_shape, normalize_sql, shape_hash
from repro.sql.parser import parse_statement


# ---------------------------------------------------------------------------
# normalize_sql regressions
# ---------------------------------------------------------------------------


class TestNormalizeFallback:
    def test_lexable_sql_still_collapses(self):
        assert normalize_sql("select  *\nfrom t  where id =  7") == \
            normalize_sql("SELECT * FROM t WHERE id=42")

    def test_unterminated_strings_differing_inside_literal_stay_distinct(self):
        # The old fallback collapsed all whitespace, merging statements
        # that differ only inside an unterminated string region.
        a = "select * from t where name = 'a  b"
        b = "select * from t where name = 'a b"
        assert normalize_sql(a) != normalize_sql(b)
        assert shape_hash(a) != shape_hash(b)

    def test_unlexable_sql_is_stripped_not_collapsed(self):
        sql = "  select 'oops  \n"
        assert normalize_sql(sql) == "select 'oops"

    def test_terminated_strings_do_collapse_to_one_shape(self):
        # Inside a *valid* string the literal is erased, so spacing in the
        # value must NOT split shapes.
        a = "select * from t where name = 'a  b'"
        b = "select * from t where name = 'a b'"
        assert normalize_sql(a) == normalize_sql(b)


class TestExtractShape:
    def test_matches_normalize_sql(self):
        sql = "SELECT id, 'x' FROM t WHERE qty > 30 LIMIT 5"
        shape, values, _tokens = extract_shape(sql)
        assert shape == normalize_sql(sql)
        assert values == ["x", 30, 5]

    def test_slot_order_matches_parser_numbering(self):
        sql = "select 1, 'two', 3.5 from t where x = 4"
        _shape, values, tokens = extract_shape(sql)
        statement = parse_statement(sql, tokens=tokens, parameterize=True)
        slots = {}

        def visit(node):
            from repro.sql import ast
            if isinstance(node, ast.Literal) and node.param_slot is not None:
                slots[node.param_slot] = node.value
        _walk_ast(statement, visit)
        assert [slots[i] for i in sorted(slots)] == values

    def test_raises_on_unlexable(self):
        with pytest.raises(Exception):
            extract_shape("select 'unterminated")


def _walk_ast(node, visit):
    from dataclasses import fields, is_dataclass
    visit(node)
    if is_dataclass(node):
        for f in fields(node):
            value = getattr(node, f.name)
            for child in (value if isinstance(value, (list, tuple)) else [value]):
                if is_dataclass(child):
                    _walk_ast(child, visit)


# ---------------------------------------------------------------------------
# PlanCache data structure
# ---------------------------------------------------------------------------


def _entry(shape="S", fixed=(), tables=("t",), fingerprint=("env", (1,))):
    from repro.cache.plan_cache import CachedPlan
    from repro.algebra.ops import LogicalOp

    class _Stub(LogicalOp):
        children = ()
    return CachedPlan(
        shape=shape, param_types=(INTEGER,), generic_plan=_Stub(),
        free_slots=frozenset({0}), fixed_values=tuple(fixed),
        fingerprint=fingerprint, tables=tuple(tables),
        operators_before=3, operators_after=2, rewrite_fires={},
    )


_ENV = "env"


def _stats(_tables):
    return (1,)


class TestPlanCacheStructure:
    def test_promote_on_second_use(self):
        cache = PlanCache(4)
        key = ("SHAPE", (INTEGER,))
        assert cache.should_promote(key) is False  # first sighting
        assert cache.should_promote(key) is True   # second: promote now

    def test_probe_miss_then_hit(self):
        cache = PlanCache(4)
        key = ("SHAPE", (INTEGER,))
        assert cache.probe(key, [7], _ENV, _stats) is None
        assert cache.misses == 1
        cache.store(key, _entry())
        entry = cache.probe(key, [8], _ENV, _stats)
        assert entry is not None
        assert cache.hits == 1 and entry.hits == 1

    def test_uncacheable_never_promotes(self):
        cache = PlanCache(4)
        key = ("SHAPE", (INTEGER,))
        cache.mark_uncacheable(key)
        assert cache.should_promote(key) is False
        assert cache.uncacheable == 1

    def test_fixed_values_get_separate_entries(self):
        cache = PlanCache(4)
        key = ("SHAPE", (INTEGER, INTEGER))
        cache.store(key, _entry(fixed=((1, 5),)))
        cache.store(key, _entry(fixed=((1, 50),)))
        assert len(cache) == 2
        # values[1] is the fixed slot: 5 hits entry one, 50 entry two, 99 misses
        assert cache.probe(key, [0, 5], _ENV, _stats) is not None
        assert cache.probe(key, [0, 50], _ENV, _stats) is not None
        assert cache.probe(key, [0, 99], _ENV, _stats) is None
        # a learned shape promotes on every later miss
        assert cache.should_promote(key) is True

    def test_lru_eviction_bounded_by_capacity(self):
        cache = PlanCache(2)
        for i in range(4):
            cache.store((f"S{i}", ()), _entry(shape=f"S{i}"))
        assert len(cache) == 2
        assert cache.evictions == 2

    def test_fingerprint_mismatch_invalidates(self):
        cache = PlanCache(4)
        key = ("SHAPE", (INTEGER,))
        cache.store(key, _entry(fingerprint=("old-env", (1,))))
        assert cache.probe(key, [7], _ENV, _stats) is None
        assert cache.invalidations == 1
        assert len(cache) == 0

    def test_stats_signature_change_invalidates(self):
        cache = PlanCache(4)
        key = ("SHAPE", (INTEGER,))
        cache.store(key, _entry(fingerprint=(_ENV, (1,))))
        assert cache.probe(key, [7], _ENV, lambda t: (9,)) is None
        assert cache.invalidations == 1

    def test_clear_counts_invalidations(self):
        cache = PlanCache(4)
        cache.store(("A", ()), _entry(shape="A"))
        cache.store(("B", ()), _entry(shape="B"))
        assert cache.clear() == 2
        assert cache.invalidations == 2 and len(cache) == 0

    def test_capacity_zero_stores_nothing(self):
        cache = PlanCache(0)
        cache.store(("A", ()), _entry())
        assert len(cache) == 0

    def test_shape_map_bounded(self):
        cache = PlanCache(1)
        for i in range(200):
            cache.should_promote((f"S{i}", ()))
        assert len(cache._shapes) <= cache._shape_capacity


# ---------------------------------------------------------------------------
# Database wiring
# ---------------------------------------------------------------------------


@pytest.fixture()
def db():
    database = Database(wal_enabled=False, plan_cache_size=8)
    database.execute(
        "create table pt (id int primary key, qty int, name varchar(20))"
    )
    database.bulk_load("pt", [(i, i * 3, f"n{i}") for i in range(20)])
    database.execute("create view pv as select id, qty from pt where qty >= 0")
    return database


SQL = "select id, qty from pt where id = 7"


def _spin(database, sql, runs=3):
    results = [database.query(sql) for _ in range(runs)]
    return results[-1]


class TestDatabaseWiring:
    def test_third_run_hits(self, db):
        _spin(db, SQL)
        assert db.plan_cache.hits == 1      # run 3
        assert db.plan_cache.misses == 2    # runs 1-2

    def test_hit_results_match_fresh(self, db):
        fresh = Database(wal_enabled=False, plan_cache_size=0)
        fresh.execute(
            "create table pt (id int primary key, qty int, name varchar(20))"
        )
        fresh.bulk_load("pt", [(i, i * 3, f"n{i}") for i in range(20)])
        cached_result = _spin(db, SQL)
        assert cached_result.rows == fresh.query(SQL).rows

    def test_generic_plan_serves_other_values(self, db):
        _spin(db, SQL)
        hits_before = db.plan_cache.hits
        result = db.query("select id, qty from pt where id = 11")
        assert result.rows == [(11, 33)]
        assert db.plan_cache.hits == hits_before + 1

    def test_limit_values_get_own_entries(self, db):
        for limit in (2, 5):
            for _ in range(3):
                rows = db.query(f"select id from pt order by id limit {limit}").rows
                assert len(rows) == limit
        entries = db.plan_cache.entries()
        limits = sorted(e.fixed_values for e in entries if e.fixed_values)
        assert len(limits) == 2

    def test_ddl_invalidates(self, db):
        _spin(db, SQL)
        db.execute("create view pv2 as select id from pt")
        result = db.query(SQL)  # stale fingerprint -> invalidation + recompile
        assert result.rows == [(7, 21)]
        assert db.plan_cache.invalidations == 1

    def test_view_drop_invalidates(self, db):
        view_sql = "select id, qty from pv where id = 3"
        _spin(db, view_sql)
        db.execute("drop view pv")
        with pytest.raises(Exception):
            db.query(view_sql)  # the view is gone: must NOT serve the cached plan

    def test_view_redeploy_changes_results(self, db):
        view_sql = "select id, qty from pv where id = 3"
        assert _spin(db, view_sql).rows == [(3, 9)]
        db.execute("create or replace view pv as "
                   "select id, qty from pt where qty > 100")
        assert db.query(view_sql).rows == []

    def test_profile_change_invalidates(self, db):
        _spin(db, SQL)
        db.set_profile("postgres")
        invalidations_before = db.plan_cache.invalidations
        assert db.query(SQL).rows == [(7, 21)]
        assert db.plan_cache.invalidations == invalidations_before + 1

    def test_stats_refresh_invalidates(self, db):
        _spin(db, SQL)
        # 20 -> 200 rows crosses a bit_length bucket: plan choice may change
        db.bulk_load("pt", [(i, i * 3, f"n{i}") for i in range(20, 200)])
        assert db.query(SQL).rows == [(7, 21)]
        assert db.plan_cache.invalidations >= 1

    def test_insert_visible_through_cached_plan(self, db):
        probe = "select id, qty from pt where id = 777"
        _spin(db, probe)
        assert db.query(probe).rows == []
        db.execute("insert into pt values (777, 1, 'new')")
        assert db.query(probe).rows == [(777, 1)]

    def test_plan_cache_size_zero_disables(self):
        database = Database(wal_enabled=False, plan_cache_size=0)
        database.execute("create table z (id int primary key)")
        assert database.plan_cache is None
        for _ in range(3):
            assert database.query("select id from z").rows == []

    def test_execute_path_select_gate(self, db):
        for _ in range(3):
            db.execute(SQL)
        assert db.plan_cache.hits >= 1

    def test_optimize_false_bypasses_cache(self, db):
        _spin(db, SQL)
        hits = db.plan_cache.hits
        misses = db.plan_cache.misses
        db.query(SQL, optimize=False)
        assert (db.plan_cache.hits, db.plan_cache.misses) == (hits, misses)

    def test_explain_cached_annotation(self, db):
        assert "(cached)" not in db.explain(SQL)
        _spin(db, SQL)
        assert "(cached)" in db.explain(SQL)

    def test_params_stay_opaque_in_generic_plan(self, db):
        _spin(db, SQL)
        [entry] = db.plan_cache.entries()
        from repro.cache.plan_cache import plan_param_slots
        assert plan_param_slots(entry.generic_plan) == entry.free_slots
        assert 0 in entry.free_slots

    def test_metrics_counters_exported(self, db):
        _spin(db, SQL)
        snap = db.metrics.snapshot()
        assert snap["plan_cache.hits"] == 1
        assert snap["plan_cache.misses"] == 2

    def test_sys_plan_cache_table(self, db):
        _spin(db, SQL)
        result = db.query("select shape, hits, free_params from sys.plan_cache")
        assert len(result.rows) >= 1
        shapes = [row[0] for row in result.rows]
        assert any("pt" in shape for shape in shapes)

    def test_doctor_reports_plan_cache(self, db):
        from repro.observability.doctor import doctor_report
        _spin(db, SQL)
        report = doctor_report(db)
        assert "-- plan cache --" in report
        assert "hit_rate" in report

    def test_doctor_disabled_when_off(self):
        from repro.observability.doctor import doctor_report
        database = Database(wal_enabled=False, plan_cache_size=0)
        assert "(disabled)" in doctor_report(database)


# ---------------------------------------------------------------------------
# serving layer
# ---------------------------------------------------------------------------


def test_gateway_requests_share_the_plan_cache():
    """Statements arriving over the HTTP gateway run through the same
    Database and therefore the same plan cache: repeated shapes from any
    client hit after promotion."""
    import json
    import urllib.request

    from repro.serving import GatewayServer

    database = Database(wal_enabled=False, plan_cache_size=16)
    database.execute("create table gt (id int primary key, v int)")
    database.execute("insert into gt values (1, 10), (2, 20), (3, 30)")
    server = GatewayServer(database, port=0, max_concurrent=2).start()
    try:
        bodies = []
        for _ in range(4):
            request = urllib.request.Request(
                server.url + "/v1/query",
                data=json.dumps({"sql": "select v from gt where id = 2"}).encode(),
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=30) as response:
                bodies.append(json.loads(response.read()))
        assert all(body["rows"] == [[20]] for body in bodies)
        assert database.plan_cache.hits >= 2
    finally:
        server.close(drain_timeout=10)
        database.close()
