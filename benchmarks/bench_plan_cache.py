"""Plan cache — end-to-end speedup on repeated statement shapes.

The paper's workload reality (§2) is a handful of generated statement
shapes executed millions of times, and its VDM makes each of them carry a
deep view stack: the parse→bind→optimize pipeline dominates cheap
queries.  This benchmark measures the same cheap point query over a
stacked view executed repeatedly with the plan cache on vs. off and
reports the end-to-end speedup the cache buys, plus the hit rate over
the run.

The gate mirrors ISSUE 10's acceptance bar: >=5x end-to-end speedup on a
repeated cheap query at a hit rate >= 99%.
"""

import time

import pytest

from repro import Database
from repro.bench import write_report

POINT_SQL = "select id, qty, gname from pc_top where id = 37"
PARAM_SQL = "select id, qty, gname from pc_top where id = {key}"
ROUNDS = 300
STACK_DEPTH = 8


def _load(db: Database) -> None:
    """A small VDM: 200-row base table under an 8-deep view stack plus an
    augmentation join — execution is trivial, optimization is not."""
    db.execute(
        "create table pc_items (id int primary key, qty int, grp int, "
        "note varchar(20))"
    )
    db.bulk_load("pc_items", [(i, i * 3, i % 5, f"n{i}") for i in range(200)])
    db.execute("create table pc_groups (gkey int primary key, gname varchar(20))")
    db.bulk_load("pc_groups", [(i, f"grp {i}") for i in range(5)])
    db.execute("create view pc_v0 as select id, qty, grp, note from pc_items")
    for i in range(1, STACK_DEPTH):
        db.execute(
            f"create view pc_v{i} as "
            f"select id, qty, grp, note from pc_v{i - 1} where qty >= 0"
        )
    db.execute(
        f"create view pc_top as select v.id, v.qty, d.gname "
        f"from pc_v{STACK_DEPTH - 1} v "
        f"left outer join pc_groups d on v.grp = d.gkey"
    )


@pytest.fixture(scope="module")
def cached_db() -> Database:
    db = Database(wal_enabled=False, plan_cache_size=64)
    _load(db)
    return db


@pytest.fixture(scope="module")
def uncached_db() -> Database:
    db = Database(wal_enabled=False, plan_cache_size=0)
    _load(db)
    return db


def _run_point(db: Database, rounds: int) -> float:
    start = time.perf_counter()
    for _ in range(rounds):
        result = db.query(POINT_SQL)
        assert result.rows == [(37, 111, "grp 2")]
    return time.perf_counter() - start


def test_plan_cache_hot_point_query(cached_db, benchmark):
    _run_point(cached_db, 3)  # warm: the second execution stores the shape
    benchmark(lambda: _run_point(cached_db, 20))


def test_plan_cache_cold_point_query(uncached_db, benchmark):
    benchmark(lambda: _run_point(uncached_db, 20))


def test_plan_cache_varying_literals(cached_db, benchmark):
    """The generic-plan path: same shape, different parameter values, so
    every hit substitutes Const for Param and recompiles (no physical
    reuse) — still skips parse, bind, and every optimizer pass."""

    def run(rounds: int = 20) -> None:
        for i in range(rounds):
            key = i % 200
            result = cached_db.query(PARAM_SQL.format(key=key))
            assert result.rows == [(key, key * 3, f"grp {key % 5}")]

    run()  # warm
    benchmark(run)


def test_plan_cache_speedup_report(benchmark):
    """Fresh databases, fixed round count, hit-rate + speedup gate."""
    hot = Database(wal_enabled=False, plan_cache_size=64)
    cold = Database(wal_enabled=False, plan_cache_size=0)
    _load(hot)
    _load(cold)

    def measure():
        timings = {}
        timings["cached"] = _run_point(hot, ROUNDS)
        timings["uncached"] = _run_point(cold, ROUNDS)
        return timings

    timings = benchmark.pedantic(measure, rounds=1, iterations=1)
    cache = hot.plan_cache
    hit_rate = cache.hit_rate
    speedup = timings["uncached"] / timings["cached"]
    write_report(
        "plan_cache",
        "Plan cache — repeated cheap point query over a stacked view\n"
        f"({ROUNDS} executions of: {POINT_SQL};\n"
        f" pc_top = {STACK_DEPTH}-deep view stack + augmentation join "
        "over 200 rows)\n\n"
        f"plan cache on  : {timings['cached']*1000:8.2f} ms total  "
        f"({timings['cached']/ROUNDS*1e6:8.1f} us/query)\n"
        f"plan cache off : {timings['uncached']*1000:8.2f} ms total  "
        f"({timings['uncached']/ROUNDS*1e6:8.1f} us/query)\n"
        f"speedup        : {speedup:8.1f}x\n"
        f"hit rate       : {hit_rate*100:8.1f}%  "
        f"(hits={cache.hits} misses={cache.misses})\n\n"
        "Expected shape: the first execution runs the normal pipeline, the\n"
        "second plans the generic (parameterized) statement instead,\n"
        "stores it and runs it, and every later execution probes the\n"
        "cache, reuses the compiled physical tree, and skips parse,\n"
        "bind, view expansion, and every optimizer pass entirely.",
    )
    assert hit_rate >= 0.99, f"hit rate {hit_rate:.3f} < 0.99"
    assert speedup >= 5, f"speedup {speedup:.1f}x < 5x"
