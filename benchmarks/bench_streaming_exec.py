"""Streaming batch execution vs. materializing execution.

The physical executor streams fixed-size batches through non-blocking
operators, so LIMIT-heavy pipelines terminate after a handful of batches
and peak memory stays bounded by the batch size.  A batch size larger
than every table degenerates to the old materialize-everything behaviour
*through the same code path*, which makes it an honest baseline: the
comparison isolates the streaming discipline itself, not incidental code
differences.

Two workloads:

* **limit-heavy** — the Fig. 6 paging query (LIMIT 100 OFFSET 1 over a
  60k-row anchor behind an augmentation join).  Streaming must win by
  >= 5x: it decodes O(limit · batch_size) anchor rows, the materializing
  run decodes all 60k.
* **full-aggregate** — GROUP BY over the whole anchor.  Both modes read
  every row; streaming should be no slower while holding only one batch
  plus the (small) group states in memory instead of the whole table.

Both arms run with ``vectorized=False``: the dictionary-code scan makes
whole-table decode nearly free, which would mask the row-path decode
asymmetry this comparison isolates.  The vectorized-vs-scalar contrast
has its own section below.

The report adds a tracemalloc peak-memory column, measured in separate
(untimed) runs so instrumentation cost never pollutes the timings.
"""

import time
import tracemalloc

import pytest

from repro import Database
from repro.bench import write_report
from conftest import run_exec

ORDERS = 60000
CUSTS = 500
STREAM_BATCH = 1024          # the executor default
MATERIALIZE_BATCH = 10_000_000  # larger than any table: one batch = old behaviour

LIMIT_SQL = (
    "select * from bigorders o left outer join pagecust c "
    "on o.cust = c.ckey limit 100 offset 1"
)
AGG_SQL = (
    "select cust, count(*), min(note) from bigorders group by cust"
)


def _bench_db(batch_size: int):
    # Scalar row path on purpose: see the module docstring.
    db = Database(wal_enabled=False, batch_size=batch_size, vectorized=False)
    db.execute(
        "create table bigorders (okey int primary key, cust int not null, "
        "total decimal(10,2), note varchar(20))"
    )
    db.execute("create table pagecust (ckey int primary key, cname varchar(20))")
    db.bulk_load(
        "bigorders",
        [(i, i % CUSTS, f"{i % 9999}.25", f"note {i % 50}") for i in range(ORDERS)],
    )
    db.bulk_load("pagecust", [(i, f"cust {i}") for i in range(CUSTS)])
    return db


@pytest.fixture(scope="module")
def streaming_db():
    return _bench_db(STREAM_BATCH)


@pytest.fixture(scope="module")
def materializing_db():
    return _bench_db(MATERIALIZE_BATCH)


def test_limit_streaming(streaming_db, benchmark):
    plan = streaming_db.plan_for(LIMIT_SQL)
    result = benchmark(lambda: run_exec(streaming_db, plan))
    assert len(result.rows) == 100


def test_limit_materializing(materializing_db, benchmark):
    plan = materializing_db.plan_for(LIMIT_SQL)
    result = benchmark(lambda: run_exec(materializing_db, plan))
    assert len(result.rows) == 100


def test_aggregate_streaming(streaming_db, benchmark):
    plan = streaming_db.plan_for(AGG_SQL)
    result = benchmark(lambda: run_exec(streaming_db, plan))
    assert len(result.rows) == CUSTS


def test_aggregate_materializing(materializing_db, benchmark):
    plan = materializing_db.plan_for(AGG_SQL)
    result = benchmark(lambda: run_exec(materializing_db, plan))
    assert len(result.rows) == CUSTS


def _median_ms(db, plan, rounds: int = 5) -> float:
    samples = []
    for _ in range(rounds):
        start = time.perf_counter()
        run_exec(db, plan)
        samples.append(time.perf_counter() - start)
    return sorted(samples)[len(samples) // 2] * 1000


def _peak_kib(db, plan) -> float:
    tracemalloc.start()
    try:
        run_exec(db, plan)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 1024


def test_streaming_speedup_report(streaming_db, materializing_db, benchmark):
    def measure():
        rows = {}
        for workload, sql in (("limit-heavy", LIMIT_SQL), ("full-aggregate", AGG_SQL)):
            for mode, db in (("streaming", streaming_db),
                             ("materializing", materializing_db)):
                plan = db.plan_for(sql)
                rows[workload, mode] = (_median_ms(db, plan), _peak_kib(db, plan))
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    lines = [
        "Streaming batch executor vs. materializing execution",
        f"(batch {STREAM_BATCH} vs. one {MATERIALIZE_BATCH}-row batch; "
        f"{ORDERS} orders ⟕ {CUSTS} customers)",
        "",
        f"{'workload':<16}{'mode':<16}{'median ms':>10}{'peak KiB':>10}",
    ]
    for (workload, mode), (ms, kib) in rows.items():
        lines.append(f"{workload:<16}{mode:<16}{ms:>10.2f}{kib:>10.0f}")
    limit_speedup = rows["limit-heavy", "materializing"][0] / rows["limit-heavy", "streaming"][0]
    agg_mem_ratio = rows["full-aggregate", "materializing"][1] / rows["full-aggregate", "streaming"][1]
    lines += [
        "",
        f"limit-heavy speedup (streaming)      : {limit_speedup:6.1f}x",
        f"full-aggregate peak-memory reduction : {agg_mem_ratio:6.1f}x",
        "",
        "Expected shape: the pipelined LIMIT closes the scan after",
        "ceil((offset+limit)/batch) batches — roughly table/batch faster —",
        "while the aggregate reads everything either way but holds only one",
        "batch plus group states instead of the whole decoded table.",
    ]
    write_report("streaming_exec", "\n".join(lines))
    assert limit_speedup >= 5
    assert rows["full-aggregate", "streaming"][1] < rows["full-aggregate", "materializing"][1]


# -- vectorized kernels vs. the scalar row path ------------------------------
#
# The same streaming plan, twice: once with the dictionary-code kernels
# engaged (the default) and once forced onto row-at-a-time evaluation
# (``vectorized=False``, the fuzz differential arm).  A selective filter
# over a dictionary column is the kernel showcase — the predicate resolves
# to one code lookup plus an integer sweep instead of 60k Python-object
# comparisons.  The TopN workload compares the fused bounded-heap operator
# against the full sort the same query pays without LIMIT fusion.

FILTER_SQL = "select okey from bigorders where note = 'note 7'"
TOPN_SQL = (
    "select okey, cust, total from bigorders order by total desc "
    "limit 100 offset 1"
)
FULL_SORT_SQL = "select okey, cust, total from bigorders order by total desc"


@pytest.fixture(scope="module")
def scalar_db():
    return _bench_db_vectorized(False)


@pytest.fixture(scope="module")
def vectorized_db():
    return _bench_db_vectorized(True)


def _bench_db_vectorized(vectorized: bool):
    db = Database(
        wal_enabled=False, batch_size=STREAM_BATCH, vectorized=vectorized
    )
    db.execute(
        "create table bigorders (okey int primary key, cust int not null, "
        "total double, note varchar(20))"
    )
    db.bulk_load(
        "bigorders",
        [
            (i, i % CUSTS, ((i * 2654435761) % 999900) / 100.0, f"note {i % 50}")
            for i in range(ORDERS)
        ],
    )
    return db


def test_vectorized_filter(vectorized_db, benchmark):
    plan = vectorized_db.plan_for(FILTER_SQL)
    result = benchmark(lambda: run_exec(vectorized_db, plan))
    assert len(result.rows) == ORDERS // 50


def test_scalar_filter(scalar_db, benchmark):
    plan = scalar_db.plan_for(FILTER_SQL)
    result = benchmark(lambda: run_exec(scalar_db, plan))
    assert len(result.rows) == ORDERS // 50


def test_topn_paging(vectorized_db, benchmark):
    plan = vectorized_db.plan_for(TOPN_SQL)
    result = benchmark(lambda: run_exec(vectorized_db, plan))
    assert len(result.rows) == 100


def test_full_sort_paging_baseline(vectorized_db, benchmark):
    plan = vectorized_db.plan_for(FULL_SORT_SQL)
    result = benchmark(lambda: run_exec(vectorized_db, plan))
    assert len(result.rows) == ORDERS


def test_vectorized_speedup_report(vectorized_db, scalar_db, benchmark):
    # The fused TopN must actually be the plan under test.
    assert "TopN[k=100" in vectorized_db.explain(TOPN_SQL)

    def measure():
        rows = {}
        rows["filter", "vectorized"] = _median_ms(
            vectorized_db, vectorized_db.plan_for(FILTER_SQL)
        )
        rows["filter", "scalar"] = _median_ms(
            scalar_db, scalar_db.plan_for(FILTER_SQL)
        )
        rows["paging", "topn"] = _median_ms(
            vectorized_db, vectorized_db.plan_for(TOPN_SQL)
        )
        rows["paging", "full-sort"] = _median_ms(
            vectorized_db, vectorized_db.plan_for(FULL_SORT_SQL)
        )
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    filter_speedup = rows["filter", "scalar"] / rows["filter", "vectorized"]
    paging_speedup = rows["paging", "full-sort"] / rows["paging", "topn"]
    lines = [
        "Vectorized kernels and bounded-heap TopN vs. the scalar path",
        f"({ORDERS} orders; dictionary filter + ORDER BY ... LIMIT paging)",
        "",
        f"{'workload':<16}{'mode':<16}{'median ms':>10}",
    ]
    for (workload, mode), ms in rows.items():
        lines.append(f"{workload:<16}{mode:<16}{ms:>10.2f}")
    lines += [
        "",
        f"filter kernel speedup (vs scalar)    : {filter_speedup:6.1f}x",
        f"TopN paging speedup (vs full sort)   : {paging_speedup:6.1f}x",
        "",
        "Expected shape: the equality kernel does one dictionary lookup",
        "plus an integer code sweep; TopN holds k+offset rows in a bounded",
        "heap and rejects losers with one comparison each, while the full",
        "sort materializes and comparison-sorts all rows.",
    ]
    write_report("vectorized_exec", "\n".join(lines))
    assert filter_speedup >= 5
    assert paging_speedup >= 5
