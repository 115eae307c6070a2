"""Lifecycle parity: every plan source and every outcome leaves the same
statement-end record.

One statement runner serves the cold plan, the plan-cache hit, EXPLAIN
ANALYZE and the early failures; this file pins what each of them must
write — exactly one ``sys.query_log`` row under the returned id, which is
also ``result.stats`` and the slow-log entry, phase timings that fit
inside ``elapsed_s``, the ``queries.*`` counters, operator rows, and
(under tracing) the same span tree shape and a ``last_trace`` that
belongs to this statement.
"""

from __future__ import annotations

import pytest

from repro import Database
from repro.errors import QueryTimeoutError, ReproError

SQL = "select id, qty from pt where id = 7"
OTHER_VALUE = "select id, qty from pt where id = 11"
#: An absolute ``time.monotonic()`` deadline that has always passed.
EXPIRED = {"deadline": 0.0}


def _explain_analyze(db, sql, **kwargs):
    assert "actual rows=" in db.explain(sql, analyze=True, **kwargs)


#: case -> (warm-up statements, call, sql, kwargs, status, plan-cache hit?,
#:          span children when traced)
CASES = {
    "cold": ([], Database.query, SQL, {}, "ok", False,
             ["parse", "bind", "optimize", "execute"]),
    "first_hit": ([SQL, SQL], Database.query, OTHER_VALUE, {}, "ok", True,
                  ["parse", "execute"]),
    "repeat_hit": ([SQL, SQL, SQL], Database.query, SQL, {}, "ok", True,
                   ["parse", "execute"]),
    "no_optimize": ([SQL, SQL], Database.query, SQL, {"optimize": False}, "ok", False,
                    ["parse", "bind", "execute"]),
    "explain_analyze": ([SQL, SQL], _explain_analyze, SQL, {}, "ok", False,
                        ["parse", "bind", "optimize", "execute"]),
    "expired_deadline_cold": ([], Database.query, SQL, EXPIRED, "timeout",
                              False, ["parse"]),
    "expired_deadline_hit": ([SQL, SQL], Database.query, SQL, EXPIRED,
                             "timeout", True, ["parse"]),
    "execution_error": (
        [], Database.query, "select id from pt where qty = (select qty from pt)", {},
        "error", False, ["parse", "bind", "optimize", "execute"]),
    "lex_error": ([], Database.query, "select 'unterminated", {}, "error", False,
                  ["parse"]),
    "not_a_select": ([], Database.query, "insert into pt values (99, 1, 'x')", {},
                     "error", False, ["parse"]),
}


@pytest.mark.parametrize("plan_feedback", [True, False],
                         ids=["feedback", "no-feedback"])
@pytest.mark.parametrize("tracing", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("case", CASES)
def test_lifecycle_parity(case, tracing, plan_feedback):
    warm_up, call, sql, kwargs, status, hit, span_children = CASES[case]
    db = Database(wal_enabled=False, plan_cache_size=8,
                  plan_feedback=plan_feedback)
    db.execute("create table pt (id int primary key, qty int, name varchar(20))")
    db.bulk_load("pt", [(i, i * 3, f"n{i}") for i in range(20)])
    db.tracing = tracing
    db.slow_queries.configure(threshold_s=0.0)
    for statement in warm_up:
        db.query(statement)

    logged = len(db.query_log)
    slow = len(db.slow_queries)
    executed = db.metrics.counter("queries.executed").value
    timeouts = db.metrics.counter("query.timeouts").value
    hits = db.plan_cache.hits
    probes = db.plan_cache.hits + db.plan_cache.misses
    result = None
    if status == "ok":
        result = call(db, sql, **kwargs)
    else:
        with pytest.raises(QueryTimeoutError if status == "timeout" else ReproError):
            call(db, sql, **kwargs)

    # exactly one query-log row, under the id the caller got back
    (entry,) = db.query_log.entries()[logged:]
    assert entry.status == status and entry.sql == sql
    assert (entry.error is None) == (status == "ok")
    if result is not None:
        assert result.stats is entry
    # the statement clock starts before lexing: phases fit inside elapsed
    phases = (entry.parse_s, entry.bind_s, entry.optimize_s, entry.execute_s)
    assert entry.parse_s is not None
    assert entry.elapsed_s >= sum(p or 0.0 for p in phases)
    if len(span_children) == 1:              # failed before planning
        assert phases[1:] == (None, None, None)
    if status == "ok":                       # a hit skips bind and optimize
        assert (entry.bind_s is None) == hit

    # counters
    ok = int(status == "ok")
    assert db.metrics.counter("queries.executed").value == executed + ok
    assert db.metrics.counter("query.timeouts").value == (
        timeouts + int(status == "timeout"))
    assert db.plan_cache.hits == hits + int(hit)
    # optimize=False and EXPLAIN ANALYZE bypass the cache; a lex error
    # leaves nothing to probe with
    probed = case not in ("no_optimize", "explain_analyze", "lex_error")
    assert db.plan_cache.hits + db.plan_cache.misses == probes + int(probed)

    # one slow-log entry per completed statement; span tree iff tracing
    new_slow = db.slow_queries.entries()[slow:]
    assert len(new_slow) == ok
    for offender in new_slow:
        assert offender is entry
        assert (offender.span_root is not None) == tracing

    # per-operator actuals whenever a collector ran: one record per
    # physical operator, the executed ones in sys.operator_stats
    feedback = [r for r in db.query_log.feedback_rows()
                if r.query_id == entry.query_id]
    operators = [r for r in db.query_log.operator_rows()
                 if r.query_id == entry.query_id]
    collected = plan_feedback or tracing or case == "explain_analyze"
    assert bool(operators) == (status == "ok" and collected)
    assert [r.op_index for r in feedback] == list(range(len(feedback)))
    assert operators == [r for r in feedback if not r.never_executed]

    if not tracing:
        assert db.last_trace is None and db.spans.last_root is None
        return
    # the same span tree on every path, and a trace that is this statement's
    root = db.spans.last_root
    assert root.name == "query"
    assert root.attributes["query_id"] == entry.query_id
    assert [child.name for child in root.children] == span_children
    if status == "ok":
        execute = root.find("execute")
        assert any(s.name.startswith("op:") for s in execute.walk())
        if kwargs.get("optimize", True):
            trace = db.last_trace
            assert trace.query_id == entry.query_id
            assert trace.span_root is root
            assert trace.execution is not None
            assert bool(trace.events) == (not hit)
        db.tracing = False
        spans = db.query("select name, query_id from sys.active_spans").rows
        assert ("query", entry.query_id) in spans
        assert any(name.startswith("op:") for name, _ in spans)


def test_hit_trace_carries_the_entrys_rewrite_fires():
    """A traced plan-cache hit fires no rewrite events, but its trace
    still says which rewrites shaped the plan it ran."""
    db = Database(wal_enabled=False)
    db.execute("create table o (id int primary key, c int not null)")
    db.execute("create table c (id int primary key, n varchar(9))")
    db.execute("insert into c values (1, 'a')")
    db.execute("insert into o values (1, 1), (2, 1)")
    sql = "select o.id from o left outer join c on o.c = c.id where o.id = 1"
    db.tracing = True
    db.query(sql)
    cold = dict(db.last_trace.rewrite_counts)
    assert cold and db.last_trace.events
    db.query(sql)
    hits = db.plan_cache.hits
    db.query(sql)
    assert db.plan_cache.hits == hits + 1
    assert db.last_trace.rewrite_counts == cold
    assert db.last_trace.events == []


def test_one_record_per_statement():
    """``result.stats``, the ``sys.query_log`` row and the slow-log entry
    are one object; ``sys.query_log.rewrite_fires`` sums its tally."""
    db = Database(wal_enabled=False)
    db.execute("create table o (id int primary key, c int not null)")
    db.execute("create table c (id int primary key, n varchar(9))")
    db.slow_queries.configure(threshold_s=0.0)
    result = db.query("select o.id from o left outer join c on o.c = c.id")
    assert result.stats is db.query_log.last()
    assert db.slow_queries.entries()[-1] is result.stats
    assert list(result.stats.to_dict()) == [
        "query_id", "sql", "elapsed_ms", "recorded_at", "plan",
        "plan_summary", "rewrite_fires"]
    fires = result.stats.rewrite_fires
    assert fires and result.stats.operators_removed > 0
    (logged,) = db.query(
        "select rewrite_fires from sys.query_log "
        f"where query_id = '{result.stats.query_id}'"
    ).rows
    assert logged == (sum(fires.values()),)


def test_ddl_and_dml_consume_no_query_id():
    db = Database(wal_enabled=False)
    db.execute("create table t (id int primary key)")
    db.execute("insert into t values (1)")
    with pytest.raises(ReproError):
        db.execute("creat table u (id int)")
    assert len(db.query_log) == 0
    assert db.query("select id from t").stats.query_id == "q1"
