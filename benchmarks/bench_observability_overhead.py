"""Plan-feedback observability overhead: enabled vs. disabled.

Every query records per-operator est/actual/Q-error feedback rows when
``plan_feedback`` is on (the default).  The accounting is deliberately
cheap — memory accounting samples eight rows per buffered column, and
the feedback rows land in bounded rings — but it is not free, so
``plan_feedback=False`` must short-circuit *all* of it: no collector, no
memory tracking, no ring appends.  (Estimates are stamped during physical
planning on both paths.)

The gate test interleaves paired rounds over identical databases (so
clock drift, GC pauses, and cache warmth hit both sides equally) and
asserts the disabled path is at most 5% slower than the enabled one —
i.e. turning the feature off really does shed its cost, within noise.
"""

import time

import pytest

from repro import Database
from repro.bench import write_report

ROWS = 3000
GROUPS = 40

WORKLOAD = [
    ("filter", f"select v from obs where v > {ROWS // 2}"),
    ("sort", "select v from obs order by v desc limit 50"),
    ("aggregate", "select grp, count(*), sum(v) from obs group by grp"),
    ("join", "select a.id, b.v from obs a join obsdim b on a.grp = b.id"),
]


def _bench_db(**kwargs):
    db = Database(wal_enabled=False, **kwargs)
    db.execute(
        "create table obs (id int primary key, v int, grp int not null)"
    )
    db.execute("create table obsdim (id int primary key, v int)")
    db.bulk_load("obs", [(i, i * 7 % ROWS, i % GROUPS) for i in range(ROWS)])
    db.bulk_load("obsdim", [(i, i * 11) for i in range(GROUPS)])
    return db


@pytest.fixture(scope="module")
def feedback_db():
    return _bench_db()


@pytest.fixture(scope="module")
def no_feedback_db():
    return _bench_db(plan_feedback=False)


def _run_workload(db) -> int:
    total = 0
    for _name, sql in WORKLOAD:
        total += len(db.query(sql).rows)
    return total


def test_workload_with_feedback(feedback_db, benchmark):
    rows = benchmark(lambda: _run_workload(feedback_db))
    assert rows > 0
    assert feedback_db.query_log.feedback_rows()  # accounting is live


def test_workload_without_feedback(no_feedback_db, benchmark):
    rows = benchmark(lambda: _run_workload(no_feedback_db))
    assert rows > 0
    assert no_feedback_db.query_log.feedback_rows() == []  # fully off


def test_disabled_path_sheds_the_overhead(feedback_db, no_feedback_db, benchmark):
    # Functional halves of the claim first: the flag really gates the
    # whole surface, not just the sys.* view.
    _run_workload(feedback_db)
    _run_workload(no_feedback_db)
    assert feedback_db.query_log.feedback_rows()
    assert feedback_db.query_log.operator_rows()
    assert no_feedback_db.query_log.feedback_rows() == []
    assert no_feedback_db.query_log.operator_rows() == []

    def measure():
        # Paired, interleaved rounds: both sides see the same machine
        # conditions, so the ratio is stable even when absolute times
        # are not.
        enabled, disabled = [], []
        for _ in range(3):  # warm both paths
            _run_workload(feedback_db)
            _run_workload(no_feedback_db)
        for _ in range(30):
            start = time.perf_counter()
            _run_workload(feedback_db)
            enabled.append(time.perf_counter() - start)
            start = time.perf_counter()
            _run_workload(no_feedback_db)
            disabled.append(time.perf_counter() - start)
        return (
            sorted(enabled)[len(enabled) // 2] * 1000,
            sorted(disabled)[len(disabled) // 2] * 1000,
        )

    enabled_ms, disabled_ms = benchmark.pedantic(measure, rounds=1, iterations=1)
    overhead = enabled_ms / disabled_ms - 1.0
    lines = [
        "Plan-feedback observability overhead (enabled vs. disabled)",
        f"({ROWS}-row workload: " + ", ".join(name for name, _ in WORKLOAD) + ")",
        "",
        f"{'mode':<24}{'median ms / round':>18}",
        f"{'plan_feedback=True':<24}{enabled_ms:>18.3f}",
        f"{'plan_feedback=False':<24}{disabled_ms:>18.3f}",
        "",
        f"feedback accounting overhead: {overhead:+.1%}",
        "",
        "Expected shape: the enabled path pays per-chunk size sampling",
        "in blocking operators and two ring appends per query; disabled",
        "must shed all of it (the gate asserts disabled <= 1.05x enabled).",
    ]
    write_report("observability_overhead", "\n".join(lines))
    # The disabled path does strictly less work; 5% headroom is noise.
    assert disabled_ms <= 1.05 * enabled_ms
