"""Greedy test-case reduction: shrink a failing case while the discrepancy
persists.

The reducer never edits SQL text.  It works on the structured
:class:`~repro.fuzz.generator.Case` — dropping query clauses, select
columns, whole views, and table rows (a ddmin-style chunk pass) — and
re-renders, so every intermediate candidate is a well-formed case.  A
candidate is accepted only if the *same oracle* still reports a
discrepancy; a candidate that merely fails differently (or no longer
builds) is rejected, which keeps the reduction anchored to one bug.

The result is the minimal replayable repro that gets serialized into the
corpus (``tests/corpus/*.json``) and attached to the fix as a regression
test.
"""

from __future__ import annotations

from copy import deepcopy

from .generator import Case
from .oracles import ORACLES

#: Upper bound on oracle invocations per reduction — each invocation builds
#: several databases, so runaway reductions must be impossible.
DEFAULT_BUDGET = 250


def _still_fails(case: Case, oracle_name: str) -> bool:
    try:
        return ORACLES[oracle_name](case) is not None
    except Exception:  # noqa: BLE001 — a broken candidate is just "rejected"
        return False


def reduce_case(
    case: Case, oracle_name: str, budget: int = DEFAULT_BUDGET
) -> tuple[Case, int]:
    """Shrink ``case`` while ``oracle_name`` still reports a discrepancy.

    Returns ``(reduced_case, accepted_steps)``; ``accepted_steps`` counts
    the successful shrinks (feeds the ``fuzz.reduced_steps`` metric).
    """
    if oracle_name not in ORACLES:
        raise ValueError(f"unknown oracle {oracle_name!r}")
    state = {"attempts": 0, "steps": 0}

    def try_candidate(candidate: Case) -> bool:
        if state["attempts"] >= budget:
            return False
        state["attempts"] += 1
        if _still_fails(candidate, oracle_name):
            state["steps"] += 1
            return True
        return False

    current = deepcopy(case)
    changed = True
    while changed and state["attempts"] < budget:
        changed = False
        for transform in (_shrink_query, _shrink_views, _shrink_rows):
            result = transform(current, try_candidate)
            if result is not None:
                current = result
                changed = True
    current.note = (case.note + " | reduced").strip(" |")
    return current, state["steps"]


# ---------------------------------------------------------------------------
# transforms — each returns a smaller accepted case, or None
# ---------------------------------------------------------------------------


def _shrink_query(case: Case, try_candidate) -> Case | None:
    query = case.query
    candidates = []

    if query.where is not None:
        candidates.append(("where", None))
        if "and" in query.where:  # keep one conjunct or the other
            first = {k: v for k, v in query.where.items() if k != "and"}
            candidates.append(("where", first))
            candidates.append(("where", query.where["and"]))
    if query.distinct:
        candidates.append(("distinct", False))
    if query.order_cols:
        candidates.append(("order_cols", []))
    if query.offset:
        candidates.append(("offset", 0))
    if query.limit is not None:
        candidates.append(("limit", None))
        if query.limit > 1:
            candidates.append(("limit", 1))
    if query.agg is not None and (query.columns or query.group_by):
        candidates.append(("agg", None))

    for attribute, value in candidates:
        candidate = deepcopy(case)
        setattr(candidate.query, attribute, value)
        if attribute == "order_cols":
            candidate.query.order_unique = False
        if attribute == "agg" and not candidate.query.columns:
            candidate.query.columns = list(candidate.query.group_by)
            candidate.query.group_by = []
        if try_candidate(candidate):
            return candidate

    # Drop select columns one at a time (keep at least one output).
    if len(query.columns) > 1 or (query.columns and query.agg is not None):
        for index in range(len(query.columns)):
            candidate = deepcopy(case)
            dropped = candidate.query.columns.pop(index)
            candidate.query.order_cols = [
                pair for pair in candidate.query.order_cols if pair[0] != dropped
            ]
            candidate.query.group_by = [
                c for c in candidate.query.group_by if c != dropped
            ]
            if not candidate.query.columns and candidate.query.agg is None:
                continue
            if try_candidate(candidate):
                return candidate
    return None


def _shrink_views(case: Case, try_candidate) -> Case | None:
    """Drop views from the top of the stack down.  A view another view (or
    the query) still references makes the candidate unbuildable, so the
    oracle run rejects it — no dependency tracking needed."""
    for index in reversed(range(len(case.views))):
        candidate = deepcopy(case)
        del candidate.views[index]
        if try_candidate(candidate):
            return candidate
    return None


def _shrink_rows(case: Case, try_candidate) -> Case | None:
    """ddmin-lite over each table's rows: halves first, then quarters."""
    for table_index, table in enumerate(case.tables):
        n = len(table.rows)
        if n == 0:
            continue
        for keep in _row_subsets(n):
            candidate = deepcopy(case)
            candidate.tables[table_index].rows = [table.rows[i] for i in keep]
            if try_candidate(candidate):
                return candidate
    return None


def _row_subsets(n: int):
    """Candidate row index subsets, aggressive first: empty, halves, then
    drop-one-quarter windows."""
    yield []
    if n >= 2:
        half = n // 2
        yield list(range(half))
        yield list(range(half, n))
    if n >= 4:
        quarter = max(1, n // 4)
        for start in range(0, n, quarter):
            kept = [i for i in range(n) if not (start <= i < start + quarter)]
            yield kept
    if n >= 2:
        for drop in range(n):  # final single-row polishing for small tables
            if n <= 12:
                yield [i for i in range(n) if i != drop]
