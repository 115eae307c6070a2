"""The three correctness oracles run over every generated case.

All oracles reduce to comparing row sets produced by *different plans for
the same semantics*; how they compare depends on what the query promises:

``ordered``   ORDER BY covers every output column, or starts with a key
              the generator knows is unique per row — the exact row
              *sequence* must match.
``multiset``  no LIMIT (or no ambiguity): the row *multiset* must match;
              plans may emit rows in any order.
``subset``    LIMIT without a determinizing ORDER BY: any plan may pick
              any n rows, so only ``result ⊆ unlimited`` plus the row
              count are checkable (the NoREC-style weakening).

An execution *error* in one arm but not the other is always a discrepancy;
the same error class in both arms is not (the case is then simply outside
the engine's supported surface, and the generator test keeps that set
empty).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from ..errors import ReproError
from .generator import Case

#: batch sizes exercised by the batch-size metamorphic oracle: row-at-a-time,
#: a small multi-row size (fuzz tables have tens of rows, so 7 is the size
#: whose batches both hold several rows and are several per table), the
#: default, and effectively whole-table materialization.
BATCH_SIZES = (1, 7, 1024, 1_000_000)


@dataclass
class Discrepancy:
    """One oracle violation, with enough detail to triage from the log."""

    oracle: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.oracle}] {self.detail}"


def comparison_mode(case: Case) -> str:
    """``ordered`` / ``multiset`` / ``subset`` for this case's query."""
    query = case.query
    if query.order_cols:
        ordered_names = {col for col, _asc in query.order_cols}
        if query.order_unique or ordered_names >= set(query.output_names()):
            return "ordered"
    if query.limit is not None:
        return "subset"
    return "multiset"


def _reprs(rows) -> list[str]:
    return [repr(tuple(row)) for row in rows]


def _diff_multiset(a_rows, b_rows) -> str | None:
    a, b = Counter(_reprs(a_rows)), Counter(_reprs(b_rows))
    if a == b:
        return None
    only_a = list((a - b).elements())[:3]
    only_b = list((b - a).elements())[:3]
    return f"only in first: {only_a}; only in second: {only_b}"


def _diff_ordered(a_rows, b_rows) -> str | None:
    a, b = _reprs(a_rows), _reprs(b_rows)
    if a == b:
        return None
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return f"row {i} differs: {x} vs {y}"
    return f"row counts differ: {len(a)} vs {len(b)}"


def _run(db, sql, tally: dict | None = None, **kwargs):
    """Run one query, bumping the shared query tally; engine errors become
    a ``(None, error)`` pair so callers can cross-check arms."""
    if tally is not None:
        tally["queries"] = tally.get("queries", 0) + 1
    try:
        return db.query(sql, **kwargs), None
    except ReproError as exc:
        return None, f"{type(exc).__name__}: {exc}"
    except Exception as exc:  # noqa: BLE001 — engine crash = finding, not abort
        return None, f"crash {type(exc).__name__}: {exc}"


def _compare_arms(oracle: str, label_a: str, result_a, error_a,
                  label_b: str, result_b, error_b, mode: str) -> Discrepancy | None:
    if error_a or error_b:
        if error_a == error_b:
            return None  # both arms rejected the query identically
        return Discrepancy(
            oracle,
            f"{label_a}: {error_a or 'ok'} | {label_b}: {error_b or 'ok'}",
        )
    diff = (
        _diff_ordered(result_a.rows, result_b.rows)
        if mode == "ordered"
        else _diff_multiset(result_a.rows, result_b.rows)
    )
    if diff is None:
        return None
    return Discrepancy(oracle, f"{label_a} vs {label_b}: {diff}")


# ---------------------------------------------------------------------------
# oracle 1: rewrite differential (optimizer on vs. off)
# ---------------------------------------------------------------------------


def run_rewrite_differential(case: Case, tally: dict | None = None) -> Discrepancy | None:
    """Optimized and unoptimized plans must agree — the central §4-§6 claim.

    For ``subset``-mode queries the limited results are not comparable
    directly; the *unlimited* body is compared instead (still covering the
    UAJ/ASJ/union rewrites), and the limited run is checked for row count
    and containment in the unoptimized unlimited result — exactly the part
    of limit pushdown that is promised.
    """
    oracle = "rewrite-differential"
    mode = comparison_mode(case)
    db = case.build()
    sql = case.sql()
    if mode != "subset":
        optimized, err_o = _run(db, sql, tally)
        baseline, err_b = _run(db, sql, tally, optimize=False)
        return _compare_arms(oracle, "optimized", optimized, err_o,
                             "unoptimized", baseline, err_b, mode)
    body = case.sql(limited=False)
    optimized, err_o = _run(db, body, tally)
    baseline, err_b = _run(db, body, tally, optimize=False)
    found = _compare_arms(oracle, "optimized", optimized, err_o,
                          "unoptimized(unlimited)", baseline, err_b, "multiset")
    if found is not None:
        return found
    limited, err_l = _run(db, sql, tally)
    if err_l:
        return Discrepancy(oracle, f"limited run failed: {err_l}")
    query = case.query
    total = len(baseline.rows)
    expected = max(0, total - query.offset)
    if query.limit is not None:
        expected = min(query.limit, expected)
    if len(limited.rows) != expected:
        return Discrepancy(
            oracle,
            f"LIMIT {query.limit} OFFSET {query.offset} returned "
            f"{len(limited.rows)} rows, expected {expected} of {total}",
        )
    overflow = Counter(_reprs(limited.rows)) - Counter(_reprs(baseline.rows))
    if overflow:
        return Discrepancy(
            oracle,
            f"limited rows not in unlimited result: "
            f"{list(overflow.elements())[:3]}",
        )
    return None


# ---------------------------------------------------------------------------
# oracle 2: batch-size metamorphic
# ---------------------------------------------------------------------------


def run_batch_metamorphic(
    case: Case, sizes=BATCH_SIZES, tally: dict | None = None
) -> Discrepancy | None:
    """The streaming executor's batch size must never change an answer:
    batch_size=1 (row-at-a-time), 7, the 1024 default, and a whole-table
    batch all execute the same optimized plan."""
    oracle = "batch-metamorphic"
    mode = comparison_mode(case)
    # Subset-mode queries are nondeterministic across *plans* but each batch
    # size runs the SAME optimized plan; still, early-termination order is a
    # plan-internal detail, so compare their unlimited bodies and counts.
    sql = case.sql() if mode != "subset" else case.sql(limited=False)
    compare_as = mode if mode != "subset" else "multiset"
    reference = None
    reference_error = None
    limited_counts: list[tuple[int, int]] = []
    for size in sizes:
        db = case.build(batch_size=size)
        result, error = _run(db, sql, tally)
        if reference is None and reference_error is None:
            reference, reference_error = result, error
            reference_size = size
        else:
            found = _compare_arms(
                oracle, f"batch={reference_size}", reference, reference_error,
                f"batch={size}", result, error, compare_as,
            )
            if found is not None:
                return found
        if mode == "subset" and error is None:
            limited, limited_error = _run(db, case.sql(), tally)
            if limited_error:
                return Discrepancy(
                    oracle, f"batch={size} limited run failed: {limited_error}"
                )
            limited_counts.append((size, len(limited.rows)))
    if len({count for _size, count in limited_counts}) > 1:
        return Discrepancy(
            oracle, f"limited row counts differ across batch sizes: {limited_counts}"
        )
    return None


# ---------------------------------------------------------------------------
# oracle 3: limit / cardinality metamorphic
# ---------------------------------------------------------------------------


def run_limit_metamorphic(case: Case, tally: dict | None = None) -> Discrepancy | None:
    """LIMIT n must return the right number of rows, all drawn from the
    unlimited result; COUNT(*) over the body must agree with the optimizer
    off, with it on, and with the materialized row count (TLP-style
    cardinality cross-check over UAJ-eliminated plans)."""
    oracle = "limit-metamorphic"
    db = case.build()
    query = case.query
    body = case.sql(limited=False)
    unlimited, err_u = _run(db, body, tally)
    if err_u:
        return Discrepancy(oracle, f"unlimited body failed: {err_u}")
    total = len(unlimited.rows)

    count_sql = case.query.count_sql()
    count_opt, err_co = _run(db, count_sql, tally)
    count_raw, err_cr = _run(db, count_sql, tally, optimize=False)
    if err_co or err_cr:
        return Discrepancy(
            oracle,
            f"count(*) failed: optimized={err_co or 'ok'} "
            f"unoptimized={err_cr or 'ok'}",
        )
    if not (count_opt.scalar() == count_raw.scalar() == total):
        return Discrepancy(
            oracle,
            f"COUNT(*) disagreement: optimized={count_opt.scalar()} "
            f"unoptimized={count_raw.scalar()} materialized={total}",
        )

    if query.limit is None:
        return None
    limited, err_l = _run(db, case.sql(), tally)
    if err_l:
        return Discrepancy(oracle, f"limited query failed: {err_l}")
    expected = min(query.limit, max(0, total - query.offset))
    if len(limited.rows) != expected:
        return Discrepancy(
            oracle,
            f"LIMIT {query.limit} OFFSET {query.offset} returned "
            f"{len(limited.rows)} rows, expected {expected} of {total}",
        )
    overflow = Counter(_reprs(limited.rows)) - Counter(_reprs(unlimited.rows))
    if overflow:
        return Discrepancy(
            oracle,
            f"limited rows not in unlimited result: "
            f"{list(overflow.elements())[:3]}",
        )
    if comparison_mode(case) == "ordered":
        # A determinizing ORDER BY makes the page itself predictable: it
        # must equal the corresponding slice of the ordered unlimited run.
        start = query.offset
        window = unlimited.rows[start:start + query.limit]
        diff = _diff_ordered(limited.rows, window)
        if diff is not None:
            return Discrepancy(oracle, f"page mismatch vs unlimited slice: {diff}")
    return None


# ---------------------------------------------------------------------------
# oracle 4: vectorized / scalar differential
# ---------------------------------------------------------------------------


def run_vectorized_differential(
    case: Case, tally: dict | None = None
) -> Discrepancy | None:
    """The vectorized kernels must be invisible: a database with kernels
    enabled (the default) and one forced onto the row-at-a-time path
    (``Database(vectorized=False)``) run the same optimized plan and must
    produce identical results — including identical *errors* and identical
    value representations (the comparison is over ``repr`` tuples, so an
    int that becomes a float in one arm is a finding)."""
    oracle = "vectorized-differential"
    mode = comparison_mode(case)
    vec_db = case.build()
    row_db = case.build(vectorized=False)
    if mode != "subset":
        sql = case.sql()
        vec, err_v = _run(vec_db, sql, tally)
        row, err_r = _run(row_db, sql, tally)
        return _compare_arms(oracle, "vectorized", vec, err_v,
                             "scalar", row, err_r, mode)
    # LIMIT without a determinizing ORDER BY: both arms execute the same
    # plan, but early termination makes the kept rows a plan-internal
    # detail; compare the unlimited bodies plus limited-run row counts.
    body = case.sql(limited=False)
    vec, err_v = _run(vec_db, body, tally)
    row, err_r = _run(row_db, body, tally)
    found = _compare_arms(oracle, "vectorized", vec, err_v,
                          "scalar", row, err_r, "multiset")
    if found is not None or err_v or err_r:
        return found
    limited_v, err_lv = _run(vec_db, case.sql(), tally)
    limited_r, err_lr = _run(row_db, case.sql(), tally)
    if err_lv or err_lr:
        if err_lv == err_lr:
            return None
        return Discrepancy(
            oracle,
            f"limited vectorized: {err_lv or 'ok'} | "
            f"limited scalar: {err_lr or 'ok'}",
        )
    if len(limited_v.rows) != len(limited_r.rows):
        return Discrepancy(
            oracle,
            f"limited row counts differ: vectorized={len(limited_v.rows)} "
            f"scalar={len(limited_r.rows)}",
        )
    overflow = Counter(_reprs(limited_v.rows)) - Counter(_reprs(vec.rows))
    if overflow:
        return Discrepancy(
            oracle,
            f"vectorized limited rows not in unlimited result: "
            f"{list(overflow.elements())[:3]}",
        )
    return None


# ---------------------------------------------------------------------------
# oracle 5: plan-cache differential
# ---------------------------------------------------------------------------


def run_plan_cache_differential(
    case: Case, tally: dict | None = None
) -> Discrepancy | None:
    """A plan served from the plan cache must be indistinguishable from a
    fresh compile.  One arm keeps a plan cache (so the same statement runs
    as miss, then promotion, then hit), the other compiles every time
    (``plan_cache_size=0``); every round must agree.  Then the cache's
    *invalidation* precision is exercised: a view deploy, a view drop, and
    an optimizer-profile change — each applied to both arms — must leave
    the cached arm serving correct (re-validated or re-compiled) plans."""
    oracle = "plan-cache-differential"
    mode = comparison_mode(case)
    cached = case.build(plan_cache_size=64)
    fresh = case.build(plan_cache_size=0)
    sql = case.sql() if mode != "subset" else case.sql(limited=False)
    compare_as = mode if mode != "subset" else "multiset"

    def compare(label: str) -> Discrepancy | None:
        cached_result, cached_err = _run(cached, sql, tally)
        fresh_result, fresh_err = _run(fresh, sql, tally)
        return _compare_arms(
            oracle, f"cached[{label}]", cached_result, cached_err,
            f"fresh[{label}]", fresh_result, fresh_err, compare_as,
        )

    for label in ("miss", "promote", "hit"):
        found = compare(label)
        if found is not None:
            return found
    anchor = case.tables[0].name
    for db in (cached, fresh):
        db.execute(f"create view pc_probe_v as select * from {anchor}")
    found = compare("view-deploy")
    if found is not None:
        return found
    for db in (cached, fresh):
        db.execute("drop view pc_probe_v")
    found = compare("view-drop")
    if found is not None:
        return found
    profile = "postgres" if case.profile != "postgres" else "hana"
    for db in (cached, fresh):
        db.set_profile(profile)
    return compare("profile-change")


# ---------------------------------------------------------------------------
# the suite
# ---------------------------------------------------------------------------

ORACLES = {
    "rewrite-differential": run_rewrite_differential,
    "batch-metamorphic": run_batch_metamorphic,
    "limit-metamorphic": run_limit_metamorphic,
    "vectorized-differential": run_vectorized_differential,
    "plan-cache-differential": run_plan_cache_differential,
}


def run_all_oracles(case: Case, tally: dict | None = None) -> list[Discrepancy]:
    """Every oracle over one case; empty list = the case is clean."""
    found = []
    for oracle in ORACLES.values():
        result = oracle(case, tally=tally)
        if result is not None:
            found.append(result)
    return found
