"""E10 — §7.3: declared join cardinalities.

Applications avoid uniqueness constraints (§4.5); declared cardinalities
give the optimizer the same UAJ leverage without the constraint overhead.
The benchmark shows (1) without constraint or declaration the join stays,
(2) with the declaration it is eliminated, (3) the verification tool
confirms or refutes declarations against the data.
"""

import time

from repro.algebra.ops import Join
from repro.bench import write_report
from repro.observability import ExecutionCollector
from repro.tools import verify_join_cardinalities
from conftest import run_exec

UNDECLARED = (
    "select s.so_id, s.price from salesorderitem s "
    "left outer join businessplace p on s.place_id = p.place_id"
)
DECLARED = (
    "select s.so_id, s.price from salesorderitem s "
    "left outer many to one join businessplace p on s.place_id = p.place_id"
)
WRONG_DECLARATION = (
    "select s.so_id from salesorderitem s "
    "left outer many to one join exchangerate e on s.currency = e.fromcurr"
)


def joins_in(db, sql):
    return sum(1 for n in db.plan_for(sql).walk() if isinstance(n, Join))


def rows_scanned(db, sql) -> dict[str, int]:
    """Rows each base table's scans produce in one execution of ``sql``."""
    collector = ExecutionCollector()
    run_exec(db, db.plan_for(sql), collector)
    rows: dict[str, int] = {}
    for op in collector.root.walk():
        if op.is_scan_op:
            name = op.logical.schema.name
            rows[name] = rows.get(name, 0) + collector.stats_for(op).rows_out
    return rows


def test_undeclared_execution(sales_bench_db, benchmark):
    plan = sales_bench_db.plan_for(UNDECLARED)
    benchmark(lambda: run_exec(sales_bench_db, plan))


def test_declared_execution(sales_bench_db, benchmark):
    plan = sales_bench_db.plan_for(DECLARED)
    benchmark(lambda: run_exec(sales_bench_db, plan))


def test_cardinality_verification_tool(sales_bench_db, benchmark):
    report = benchmark(lambda: verify_join_cardinalities(sales_bench_db, DECLARED))
    assert report.ok


def test_cardinality_report(sales_bench_db, benchmark):
    def measure():
        timings = {}
        for label, sql in (("undeclared", UNDECLARED), ("declared", DECLARED)):
            plan = sales_bench_db.plan_for(sql)
            samples = []
            for _ in range(5):
                start = time.perf_counter()
                run_exec(sales_bench_db, plan)
                samples.append(time.perf_counter() - start)
            timings[label] = sorted(samples)[2]
        good = verify_join_cardinalities(sales_bench_db, DECLARED)
        bad = verify_join_cardinalities(sales_bench_db, WRONG_DECLARATION)
        return timings, good, bad

    timings, good, bad = benchmark.pedantic(measure, rounds=1, iterations=1)
    undeclared_joins = joins_in(sales_bench_db, UNDECLARED)
    declared_joins = joins_in(sales_bench_db, DECLARED)
    undeclared_rows = rows_scanned(sales_bench_db, UNDECLARED)
    declared_rows = rows_scanned(sales_bench_db, DECLARED)
    speedup = timings["undeclared"] / timings["declared"]
    write_report(
        "sec7_cardinality",
        "§7.3 — declared join cardinality (businessplace has NO constraints)\n\n"
        f"plain left outer join    : {undeclared_joins} join(s) remain, "
        f"{timings['undeclared']*1000:7.1f} ms, rows scanned {undeclared_rows}\n"
        f"... many to one join     : {declared_joins} join(s) remain, "
        f"{timings['declared']*1000:7.1f} ms, rows scanned {declared_rows}\n"
        f"speedup from the declaration alone : {speedup:5.1f}x\n\n"
        "verification tool on the correct declaration:\n"
        f"  {good.summary()}\n"
        "verification tool on a WRONG declaration (currency -> exchangerate\n"
        "has many rows per currency):\n"
        f"  {bad.summary()}\n",
    )
    # The eliminated join is the deterministic gate, and the rows scanned
    # show that the declared plan does not do the join's work anyway (the
    # speedup is reported, not gated: it moves with the host's load).
    assert undeclared_joins == 1 and declared_joins == 0
    assert undeclared_rows.get("businessplace", 0) > 0
    assert declared_rows.get("businessplace", 0) == 0
    assert sum(declared_rows.values()) < sum(undeclared_rows.values())
    assert good.ok and not bad.ok
