"""TPC-H workload end to end: the full paper suite through Database.query.

Unlike the per-table benchmarks (which time plan shapes or pre-optimized
execution), this measures the whole pipeline — parse, bind, optimize,
execute — over every evaluation query, the way a client would issue
them.  Repeated rounds run against a warm plan cache, so the recorded
timings reflect the serving-path steady state.  The gated end-to-end
measurement of this path is the ledger's ``vdm_analytics`` workload.
"""

from repro.workloads.queries import all_suites

SUITE_SQLS = [q.sql for suite in all_suites().values() for q in suite]


def run_suite(db) -> int:
    total = 0
    for sql in SUITE_SQLS:
        total += len(db.query(sql).rows)
    return total


def test_tpch_suite_end_to_end(tpch_bench_db, benchmark):
    total = benchmark(run_suite, tpch_bench_db)
    assert total > 0


def test_tpch_suite_cache_traffic(tpch_bench_db):
    """After the benchmark rounds the plan cache must have served the
    suite largely from hits."""
    cache = tpch_bench_db.plan_cache
    if cache is None:
        return
    assert cache.hits > len(SUITE_SQLS)
