"""Rewrite-trace tests: the Table 1-4 suites fire their named cases under
``hana`` and nothing under ``none``; fixpoint non-convergence warns."""

from __future__ import annotations

import pytest

from repro import Database
from repro.observability import NULL_TRACE, QueryTrace, RewriteTally
from repro.optimizer import pipeline
from repro.optimizer.pipeline import FixpointWarning, optimize_plan
from repro.workloads.queries import (
    ASJ_NEGATIVE,
    ASJ_SUITE,
    FIG6_PAGING,
    FIG13A,
    FIG13B_CASE_JOIN,
    UAJ_SUITE,
    UNION_UAJ_SUITE,
)

UAJ_CASES = {"AJ 1a", "AJ 1b", "AJ 2a", "AJ 2b", "AJ declared", "union-uaj"}


def traced(db: Database, sql: str, profile: str = "hana",
           cold: bool = False) -> QueryTrace:
    """Run ``sql`` under tracing + ``profile``; restore the db afterwards.

    The fixture database is shared, so by its third run a shape is a
    plan-cache hit, whose trace carries the rewrite-fire counts but no
    events; ``cold=True`` forgets cached shapes first, for the tests that
    inspect the optimizer's pass/rewrite events."""
    if cold:
        db.plan_cache.clear()
    old_profile, old_tracing = db.profile, db.tracing
    db.set_profile(profile)
    db.tracing = True
    try:
        db.query(sql)
    finally:
        db.set_profile(old_profile)
        db.tracing = old_tracing
    trace = db.last_trace
    assert trace is not None
    return trace


# ---------------------------------------------------------------------------
# Tables 1-4: named cases fire under hana, never under none
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("query", UAJ_SUITE, ids=lambda q: q.name)
def test_table1_uaj_fires_named_case_under_hana(vdm_tables_db, query):
    trace = traced(vdm_tables_db, query.sql, "hana")
    assert trace.fired_cases() & UAJ_CASES, (
        f"{query.name} fired {trace.fired_cases()}, expected a UAJ case"
    )


@pytest.mark.parametrize("query", UAJ_SUITE, ids=lambda q: q.name)
def test_table1_none_profile_fires_nothing(vdm_tables_db, query):
    trace = traced(vdm_tables_db, query.sql, "none")
    assert trace.fired_cases() == set()
    assert trace.iterations_run == 0   # optimize_plan early-returns


def test_table2_limit_pushdown_fires(vdm_tables_db):
    trace = traced(vdm_tables_db, FIG6_PAGING.sql, "hana")
    assert trace.fired("limit-pushdown-aj")
    assert not traced(vdm_tables_db, FIG6_PAGING.sql, "none").fired_cases()


@pytest.mark.parametrize("query", ASJ_SUITE, ids=lambda q: q.name)
def test_table3_asj_fires(vdm_tables_db, query):
    assert traced(vdm_tables_db, query.sql, "hana").fired("ASJ")


def test_table3_negative_control_fires_no_asj(vdm_tables_db):
    trace = traced(vdm_tables_db, ASJ_NEGATIVE.sql, "hana")
    assert not trace.fired("ASJ")


def test_table4_union_uaj_fires(vdm_tables_db):
    fig11a, fig11b = UNION_UAJ_SUITE
    assert traced(vdm_tables_db, fig11a.sql, "hana").fired("union-uaj")
    # Fig. 11(b): the bid=1 filter prunes the union first (Fig. 12b),
    # then the remaining augmentation join is removed as a plain UAJ.
    trace_b = traced(vdm_tables_db, fig11b.sql, "hana")
    assert trace_b.fired("union-prune")
    assert trace_b.fired_cases() & UAJ_CASES


def test_fig13_union_asj_variants_fire(vdm_tables_db):
    assert traced(vdm_tables_db, FIG13A.sql, "hana").fired("ASJ union-anchor")
    assert traced(
        vdm_tables_db, FIG13B_CASE_JOIN.sql, "hana"
    ).fired("ASJ union-augmenter")


# ---------------------------------------------------------------------------
# Trace structure and surfaces
# ---------------------------------------------------------------------------


def test_trace_records_passes_and_iterations(vdm_tables_db):
    trace = traced(vdm_tables_db, UAJ_SUITE[0].sql, "hana", cold=True)
    passes = trace.passes()
    assert passes, "pass events must be recorded under tracing"
    names = {e.name for e in passes}
    assert {"cleanup", "simplify", "limit_pushdown"} <= names
    assert all(e.elapsed_s is not None and e.elapsed_s >= 0 for e in passes)
    assert any(e.detail.get("changed") for e in passes)
    removed = sum(e.detail.get("operators_removed", 0) for e in passes)
    assert removed >= 2   # the augmentation join and its scan
    assert trace.converged and trace.iterations_run >= 1
    assert trace.events_of("iteration")


def test_trace_report_and_to_dict(vdm_tables_db):
    trace = traced(vdm_tables_db, UAJ_SUITE[0].sql, "hana", cold=True)
    report = trace.report()
    assert "profile=hana" in report
    assert "AJ 2a" in report
    assert "converged" in report
    data = trace.to_dict()
    assert data["rewrites"].get("AJ 2a", 0) >= 1
    assert data["converged"] is True
    assert data["iterations"] == trace.iterations_run
    assert any(e["kind"] == "rewrite" for e in data["events"])


def test_last_trace_requires_tracing_flag(db):
    db.execute("create table t (id int primary key)")
    db.query("select id from t")
    assert db.last_trace is None   # default path keeps only the tally


def test_query_stats_report_rewrites_without_tracing(vdm_tables_db):
    result = vdm_tables_db.query(UAJ_SUITE[0].sql)
    stats = result.stats
    assert stats is not None
    assert stats.rewrite_fires.get("AJ 2a", 0) >= 1
    assert stats.operators_removed >= 2
    assert stats.elapsed_s > 0


def test_null_trace_is_inert():
    NULL_TRACE.rewrite("AJ 2a", detail=1)
    NULL_TRACE.begin_iteration(0)
    NULL_TRACE.end_iteration(0, True)
    NULL_TRACE.record_pass("x", 0, False, 0.0)
    NULL_TRACE.warning("nope")
    assert NULL_TRACE.enabled is False


def test_rewrite_tally_counts_without_events():
    tally = RewriteTally()
    tally.rewrite("AJ 2a")
    tally.rewrite("AJ 2a")
    tally.begin_iteration(2)
    assert tally.rewrite_counts == {"AJ 2a": 2}
    assert tally.iterations_run == 3
    assert tally.fired("AJ 2a") and not tally.fired("ASJ")


# ---------------------------------------------------------------------------
# Fixpoint non-convergence (satellite 1)
# ---------------------------------------------------------------------------


def test_nonconvergence_warns_and_marks_trace(vdm_tables_db, monkeypatch):
    monkeypatch.setattr(pipeline, "MAX_ITERATIONS", 1)
    plan = vdm_tables_db.bind(UAJ_SUITE[0].sql)
    trace = QueryTrace()
    with pytest.warns(FixpointWarning, match="did not reach a fixpoint"):
        optimize_plan(plan, "hana", vdm_tables_db, trace=trace)
    assert trace.converged is False
    assert trace.events_of("warning")


def test_nonconvergence_increments_metric(vdm_tables_db, monkeypatch):
    monkeypatch.setattr(pipeline, "MAX_ITERATIONS", 1)
    before = vdm_tables_db.metrics.counter("optimizer.nonconverged").value
    with pytest.warns(FixpointWarning):
        # A shape no other test runs: a plan-cache hit would skip the
        # optimizer, and with it the fixpoint loop under test.
        vdm_tables_db.query(UAJ_SUITE[0].sql + " order by o.o_totalprice")
    after = vdm_tables_db.metrics.counter("optimizer.nonconverged").value
    assert after == before + 1


def test_convergence_does_not_warn(vdm_tables_db):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error", FixpointWarning)
        vdm_tables_db.query(UAJ_SUITE[0].sql)
