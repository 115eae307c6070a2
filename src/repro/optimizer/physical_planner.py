"""Logical → physical plan compilation.

The planner compiles the (bound, optionally optimized) logical plan in one
recursion, choosing physical strategies with the cost/stats machinery:

- columns flow down: each operator receives the cids its parent reads and
  adds what it reads itself, so every ``Scan`` becomes a ``BatchScan`` of
  exactly the columns some ancestor reads and every operator carries only
  those (the engine-side half of the paper's "remove unnecessary
  operations" story);
- estimates flow up: each operator is stamped with its estimated output
  rows (``PhysicalOp.est_rows``) once its children are compiled, from an
  estimator that evaluates every logical node once per compile;
- a ``Filter`` directly over a ``Scan`` donates its ``col <op> const``
  conjuncts to the scan as plan-time zone-map prune bounds, so NSE block
  pruning composes with streaming;
- equi-joins pick their hash build side from their children's estimates
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


def create_physical_plan(plan: ops.LogicalOp, catalog) -> PhysicalOp:
    """Compile a logical plan into an executable physical operator tree,
    every operator stamped with its estimated output rows."""
    estimator = CardinalityEstimator(StatisticsProvider(catalog))
    return _compile(plan, frozenset(c.cid for c in plan.output), estimator)


def _compile(
    op: ops.LogicalOp, need: frozenset[int], estimator: CardinalityEstimator
) -> PhysicalOp:
    """Compile ``op`` keeping the ``need`` cids its parent reads, and stamp
    its estimate (its children's are memoized by then)."""
    physical = _compile_op(op, need, estimator)
    physical.est_rows = estimator.estimate(op)
    return physical


def _compile_op(
    op: ops.LogicalOp, need: frozenset[int], estimator: CardinalityEstimator
) -> PhysicalOp:
    if isinstance(op, ops.OneRow):
        return OneRowExec(op)
    if isinstance(op, ops.Scan):
        return BatchScanExec(op, [col for col in op.output if col.cid in need])
    if isinstance(op, ops.Filter):
        child = _compile(
            op.child, need | referenced_cids(op.predicate), estimator
        )
        if isinstance(op.child, ops.Scan):
            child.prune_bounds = _prune_bounds(op.predicate, op.child)
        return FilterExec(op, child)
    if isinstance(op, ops.Project):
        items = [(col, expr) for col, expr in op.items if col.cid in need]
        reads = frozenset().union(*(referenced_cids(expr) for _, expr in items))
        return ProjectExec(op, _compile(op.child, reads, estimator), items)
    if isinstance(op, ops.Limit):
        if isinstance(op.child, ops.Sort) and op.limit is not None:
            # Limit-over-Sort fuses into a bounded-heap TopN: the full sort
            # (buffer all rows, sort, discard all but k) becomes an
            # O(rows · log k) heap that holds k rows — the §4.4 paging
            # pattern (ORDER BY ... LIMIT k OFFSET m) never materializes
            # the table.
            sort = op.child
            keys = frozenset(k.cid for k in sort.keys)
            return TopNExec(
                op, sort, _compile(sort.child, need | keys, estimator)
            )
        return LimitExec(op, _compile(op.child, need, estimator))
    if isinstance(op, ops.Sort):
        keys = frozenset(k.cid for k in op.keys)
        return SortExec(op, _compile(op.child, need | keys, estimator))
    if isinstance(op, ops.Distinct):
        every = frozenset(c.cid for c in op.output)
        return DistinctExec(op, _compile(op.child, every, estimator))
    if isinstance(op, ops.Aggregate):
        reads = frozenset(op.group_cids).union(
            *(referenced_cids(call.arg) for _, call in op.aggs)
        )
        return HashAggregateExec(op, _compile(op.child, reads, estimator))
    if isinstance(op, ops.UnionAll):
        positions = [pos for pos, col in enumerate(op.output) if col.cid in need]
        children = [
            _compile(child, frozenset(mapping[p] for p in positions), estimator)
            for child, mapping in zip(op.inputs, op.child_maps)
        ]
        return UnionAllExec(op, children, positions)
    if isinstance(op, ops.Join):
        return _compile_join(op, need, estimator)
    raise NotImplementedError(f"no physical operator for {type(op).__name__}")


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
    return tuple(bounds)


def _compile_join(
    op: ops.Join, need: frozenset[int], estimator: CardinalityEstimator
) -> HashJoinExec:
    reads = need | referenced_cids(op.condition)
    left = _compile(op.left, reads, estimator)
    right = _compile(op.right, reads, estimator)

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
        if left.est_rows < right.est_rows:
            build_side = "left"
            # A declared at-most-one augmentation side (the paper's UAJ
            # cardinality contract) bounds matches to one per build key:
            # the probe stream can stop once every key has matched.
            declared = op.declared
            if declared is not None and declared.right in (
                CardinalityBound.ONE, CardinalityBound.EXACT_ONE
            ):
                early_out = True

    # Equi keys are read from the inputs; a residual is evaluated over the
    # joined batch, so its columns stay in the output.
    keep = need.union(*(referenced_cids(conjunct) for conjunct in residual))
    join_left_cids = [c.cid for c in op.left.output if c.cid in keep]
    if op.join_type in (ops.JoinType.SEMI, ops.JoinType.ANTI):
        join_right_cids: list[int] = []
    else:
        join_right_cids = [c.cid for c in op.right.output if c.cid in keep]
    return HashJoinExec(
        op, left, right,
        equi=equi, residual=residual, build_side=build_side,
        left_cids=join_left_cids, right_cids=join_right_cids,
        early_out=early_out,
    )
