"""E2 / E6 — Table 2 and Fig. 6: limit pushdown across augmentation joins.

Regenerates Table 2 (only the HANA profile pushes the limit) and measures
the execution impact: a paging query over a scaled join with vs. without
the pushdown.
"""

import pytest

from repro import Database
from repro.algebra.ops import Join, Limit
from repro.bench import format_matrix, write_report
from repro.engine.physical import HashJoinExec
from repro.observability import ExecutionCollector
from repro.workloads import queries
from conftest import run_exec

PAGING_SQL = (
    "select * from bigorders o left outer join pagecust c "
    "on o.cust = c.ckey order by o.total desc limit 100 offset 1"
)


@pytest.fixture(scope="module")
def paging_db() -> Database:
    """A UI-scale paging scenario: an ordered list over a large
    transactional table behind an augmentation join (the shape of Fig. 6)."""
    db = Database(wal_enabled=False)
    db.execute(
        "create table bigorders (okey int primary key, cust int not null, "
        "total double, note varchar(20))"
    )
    db.execute("create table pagecust (ckey int primary key, cname varchar(20))")
    db.bulk_load(
        "bigorders",
        [
            (i, i % 2000, ((i * 2654435761) % 999900) / 100.0, f"note {i % 50}")
            for i in range(40000)
        ],
    )
    db.bulk_load("pagecust", [(i, f"cust {i}") for i in range(2000)])
    return db


def limit_pushed(plan) -> bool:
    for node in plan.walk():
        if isinstance(node, Join):
            return any(isinstance(x, Limit) for x in node.left.walk())
    return True  # join eliminated entirely also counts


def anchor_rows_into_join(db, plan) -> int:
    """Rows the paging join reads from its anchor (left) input in one run."""
    collector = ExecutionCollector()
    run_exec(db, plan, collector)
    join = next(op for op in collector.root.walk() if isinstance(op, HashJoinExec))
    return collector.stats_for(join.children[0]).rows_out


def compute_matrix(db):
    row = ""
    for profile in queries.PROFILE_ORDER:
        db.set_profile(profile)
        row += "Y" if limit_pushed(db.plan_for(queries.FIG6_PAGING.sql)) else "-"
    db.set_profile("hana")
    return [row]


def test_table2_matrix(tpch_bench_db, benchmark):
    observed = benchmark(compute_matrix, tpch_bench_db)
    expected = [queries.FIG6_PAGING.expected]
    report = format_matrix(
        "Table 2 — limit-on-AJ pushdown status (Fig. 6 paging query)",
        ["Fig. 6"],
        queries.PROFILE_ORDER,
        observed,
        expected,
    )
    write_report("table2_limit", report)
    assert observed == expected


def test_fig6_paging_with_pushdown(paging_db, benchmark):
    plan = paging_db.plan_for(PAGING_SQL, optimize=True)
    benchmark(lambda: run_exec(paging_db, plan))


def test_fig6_paging_without_pushdown(paging_db, benchmark):
    plan = paging_db.plan_for(PAGING_SQL, optimize=False)
    benchmark(lambda: run_exec(paging_db, plan))


def test_fig6_speedup_report(paging_db, benchmark):
    import time

    # The pushed plan must page through the bounded-heap TopN on the
    # anchor side — never a full sort of the joined result.
    assert "TopN[k=100" in paging_db.explain(PAGING_SQL)

    def measure():
        optimized = paging_db.plan_for(PAGING_SQL, optimize=True)
        unoptimized = paging_db.plan_for(PAGING_SQL, optimize=False)
        timings = {}
        for label, plan in (("pushed", optimized), ("not pushed", unoptimized)):
            samples = []
            for _ in range(5):
                start = time.perf_counter()
                result = run_exec(paging_db, plan)
                samples.append(time.perf_counter() - start)
                assert len(result.rows) == 100
            timings[label] = sorted(samples)[len(samples) // 2]
        return timings

    timings = benchmark.pedantic(measure, rounds=1, iterations=1)
    speedup = timings["not pushed"] / timings["pushed"]
    pushed_in = anchor_rows_into_join(
        paging_db, paging_db.plan_for(PAGING_SQL, optimize=True)
    )
    unpushed_in = anchor_rows_into_join(
        paging_db, paging_db.plan_for(PAGING_SQL, optimize=False)
    )
    write_report(
        "fig6_paging",
        "Fig. 6 — paging query execution\n"
        "(order by total desc limit 100 offset 1 over 40k orders ⟕ 2k "
        "customers)\n\n"
        f"with limit pushdown    : {timings['pushed']*1000:8.2f} ms, "
        f"join reads {pushed_in:>6} anchor rows\n"
        f"without limit pushdown : {timings['not pushed']*1000:8.2f} ms, "
        f"join reads {unpushed_in:>6} anchor rows\n"
        f"speedup                : {speedup:8.1f}x\n\n"
        "Expected shape: the pushed plan runs the bounded-heap TopN over\n"
        "the anchor alone and joins one page of rows; without the pushdown the\n"
        "ORDER BY is a pipeline breaker above the join, so every one of\n"
        "the 40k augmented rows is built and ranked first (the effect the\n"
        "paper calls out in §4.4).  The row counts are the deterministic\n"
        "gate; the wall-clock ratio depends on how fast the join itself is.",
    )
    assert pushed_in <= 101
    assert unpushed_in == 40000
    assert speedup > 2
