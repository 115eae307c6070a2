"""Logical → physical plan compilation.

The planner walks the (bound, optionally optimized) logical plan and
chooses physical strategies using the existing cost/stats machinery:

- every ``Scan`` becomes a ``BatchScan`` restricted to the columns the
  plan actually references (the engine-side half of the paper's "remove
  unnecessary operations" story);
- a ``Filter`` directly over a ``Scan`` donates its ``col <op> const``
  conjuncts to the scan as plan-time zone-map prune bounds, so NSE block
  pruning composes with streaming;
- equi-joins pick their hash build side from estimated cardinalities
  (the §4.4 payoff: a limit pushed to the anchor makes the anchor the
  build side, and a declared-unique augmentation side lets the probe
  stop early);
- pipeline breakers (Sort, HashAggregate, join build sides) are implied
  by the chosen operator classes — everything else streams.
"""

from __future__ import annotations

from ..algebra import ops
from ..algebra.expr import Call, ColRef, Const, Expr, conjuncts, referenced_cids
from ..engine.physical import (
    BatchScanExec,
    DistinctExec,
    FilterExec,
    HashAggregateExec,
    HashJoinExec,
    LimitExec,
    OneRowExec,
    PhysicalOp,
    ProjectExec,
    SortExec,
    TopNExec,
    UnionAllExec,
    _equi_pair,
)
from ..sql.ast import CardinalityBound
from .cost import CardinalityEstimator
from .stats import StatisticsProvider

_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}


def create_physical_plan(
    plan: ops.LogicalOp, catalog, estimate: bool = True
) -> PhysicalOp:
    """Compile a logical plan into an executable physical operator tree.

    When ``estimate`` is true every physical operator is stamped with the
    optimizer's estimated output rows (``PhysicalOp.est_rows``) so the
    plan-feedback layer can join estimates against actuals post-execution.
    """
    used = _collect_used_cids(plan)
    estimator = CardinalityEstimator(StatisticsProvider(catalog))
    root = _compile(plan, used, estimator)
    if estimate:
        _stamp_estimates(root, estimator)
    return root


def _collect_used_cids(plan: ops.LogicalOp) -> frozenset[int]:
    """Every cid the plan reads anywhere: the columns pruning keeps."""
    used: set[int] = {c.cid for c in plan.output}

    def visit(op: ops.LogicalOp) -> None:
        if isinstance(op, ops.Project):
            for _, expr in op.items:
                used.update(referenced_cids(expr))
        elif isinstance(op, ops.Filter):
            used.update(referenced_cids(op.predicate))
        elif isinstance(op, ops.Join):
            if op.condition is not None:
                used.update(referenced_cids(op.condition))
        elif isinstance(op, ops.Aggregate):
            used.update(op.group_cids)
            for _, call in op.aggs:
                if call.arg is not None:
                    used.update(referenced_cids(call.arg))
        elif isinstance(op, ops.Sort):
            used.update(k.cid for k in op.keys)
        elif isinstance(op, ops.UnionAll):
            for pos, col in enumerate(op.output):
                if col.cid in used:
                    for mapping in op.child_maps:
                        used.add(mapping[pos])
        elif isinstance(op, ops.Distinct):
            used.update(c.cid for c in op.output)
        for child in op.children:
            visit(child)

    # Two passes: the first propagates top-down requirements (union mapping
    # depends on which outputs are used), the second catches unions nested
    # under unions.  A small fixpoint keeps it exact.
    previous = -1
    while len(used) != previous:
        previous = len(used)
        visit(plan)
    return frozenset(used)


def _stamp_estimates(root: PhysicalOp, estimator: CardinalityEstimator) -> None:
    """Stamp ``est_rows`` on every operator in the compiled tree.

    Compilation is 1:1, so each physical node still carries its logical
    counterpart; estimation failures leave ``est_rows`` as None rather
    than failing the query (the estimate is diagnostics, not planning).
    """
    for op in root.walk():
        try:
            op.est_rows = estimator.estimate(op.logical)
        except Exception:  # pragma: no cover - defensive
            op.est_rows = None


def _compile(
    op: ops.LogicalOp, used: frozenset[int], estimator: CardinalityEstimator
) -> PhysicalOp:
    if isinstance(op, ops.OneRow):
        return OneRowExec(op)
    if isinstance(op, ops.Scan):
        return _compile_scan(op, used)
    if isinstance(op, ops.Filter):
        if isinstance(op.child, ops.Scan):
            bounds = _prune_bounds(op.predicate, op.child)
            if bounds:
                scan = _compile_scan(op.child, used, bounds)
                return FilterExec(op, scan)
        return FilterExec(op, _compile(op.child, used, estimator))
    if isinstance(op, ops.Project):
        items = [(col, expr) for col, expr in op.items if col.cid in used]
        return ProjectExec(op, _compile(op.child, used, estimator), items)
    if isinstance(op, ops.Limit):
        if isinstance(op.child, ops.Sort) and op.limit is not None:
            # Limit-over-Sort fuses into a bounded-heap TopN: the full sort
            # (buffer all rows, sort, discard all but k) becomes an
            # O(rows · log k) heap that holds k rows — the §4.4 paging
            # pattern (ORDER BY ... LIMIT k OFFSET m) never materializes
            # the table.
            return TopNExec(
                op, op.child, _compile(op.child.child, used, estimator)
            )
        return LimitExec(op, _compile(op.child, used, estimator))
    if isinstance(op, ops.Sort):
        return SortExec(op, _compile(op.child, used, estimator))
    if isinstance(op, ops.Distinct):
        return DistinctExec(op, _compile(op.child, used, estimator))
    if isinstance(op, ops.Aggregate):
        return HashAggregateExec(op, _compile(op.child, used, estimator))
    if isinstance(op, ops.UnionAll):
        positions = [pos for pos, col in enumerate(op.output) if col.cid in used]
        children = []
        for child, mapping in zip(op.inputs, op.child_maps):
            child_used = used | frozenset(mapping[p] for p in positions)
            children.append(_compile(child, child_used, estimator))
        return UnionAllExec(op, children, positions)
    if isinstance(op, ops.Join):
        return _compile_join(op, used, estimator)
    raise NotImplementedError(f"no physical operator for {type(op).__name__}")


def _compile_scan(
    op: ops.Scan, used: frozenset[int], bounds=None
) -> BatchScanExec:
    wanted = [col for col in op.output if col.cid in used]
    return BatchScanExec(op, wanted, bounds)


def _prune_bounds(predicate: Expr, scan: ops.Scan):
    """Plan-time extraction of ``col <op> const`` conjuncts usable against
    the scanned table's zone maps.  Bound *evaluation* happens at open time
    in :meth:`BatchScanExec._pruned_row_ids` — zone maps reflect the table
    as of execution, not planning."""
    scan_cids = scan.output_cids
    bounds: list[tuple[str, str, object]] = []
    for conjunct in conjuncts(predicate):
        if not (isinstance(conjunct, Call) and conjunct.op in _FLIP):
            continue
        a, b = conjunct.args
        if isinstance(a, ColRef) and isinstance(b, Const) and a.cid in scan_cids:
            if b.value is not None:
                bounds.append((a.name, conjunct.op, b.value))
        elif isinstance(b, ColRef) and isinstance(a, Const) and b.cid in scan_cids:
            if a.value is not None:
                bounds.append((b.name, _FLIP[conjunct.op], a.value))
    return bounds


def _compile_join(
    op: ops.Join, used: frozenset[int], estimator: CardinalityEstimator
) -> HashJoinExec:
    left = _compile(op.left, used, estimator)
    right = _compile(op.right, used, estimator)

    equi: list[tuple[Expr, Expr]] = []
    residual: list[Expr] = []
    if op.condition is not None:
        left_cids = op.left.output_cids
        right_cids = op.right.output_cids
        for conjunct in conjuncts(op.condition):
            pair = _equi_pair(conjunct, left_cids, right_cids)
            if pair is not None:
                equi.append(pair)
            else:
                residual.append(conjunct)

    build_side = "right"
    early_out = False
    if equi and op.join_type not in (ops.JoinType.SEMI, ops.JoinType.ANTI):
        try:
            est_left = estimator.estimate(op.left)
            est_right = estimator.estimate(op.right)
        except Exception:
            est_left = est_right = 1000.0
        if est_left < est_right:
            build_side = "left"
            # A declared at-most-one augmentation side (the paper's UAJ
            # cardinality contract) bounds matches to one per build key:
            # the probe stream can stop once every key has matched.
            declared = op.declared
            if declared is not None and declared.right in (
                CardinalityBound.ONE, CardinalityBound.EXACT_ONE
            ):
                early_out = True

    out_cids = frozenset(c.cid for c in op.output) & used
    join_left_cids = [c.cid for c in op.left.output if c.cid in out_cids]
    if op.join_type in (ops.JoinType.SEMI, ops.JoinType.ANTI):
        join_right_cids: list[int] = []
    else:
        join_right_cids = [c.cid for c in op.right.output if c.cid in out_cids]
    return HashJoinExec(
        op, left, right,
        equi=equi, residual=residual, build_side=build_side,
        left_cids=join_left_cids, right_cids=join_right_cids,
        early_out=early_out,
    )
