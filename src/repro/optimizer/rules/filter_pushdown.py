"""Standard predicate pushdown.

Not itself a contribution of the paper, but required context: VDM queries
carry user filters and injected DAC filters at the very top of a deep view
stack (Fig. 3), and the paper's Fig. 4 plan only emerges when those
predicates migrate down to the scans they restrict.

Safety rules implemented:

- through Project: substitute the projection expressions into the conjunct;
- into Join: anchor-side conjuncts go left; right-side conjuncts go right
  only for INNER joins (pushing into the nullable side of a left outer join
  would turn filtered rows into NULL-extended rows);
- through UnionAll: replicate per child with the child's column ids;
- through Sort / Distinct: order/duplicates are unaffected by filtering first;
- through Aggregate: only conjuncts over grouping keys;
- never through Limit (it would change which rows are counted).

Merging a Filter into the pending conjuncts drops structurally equal
duplicates.
"""

from __future__ import annotations

from ...algebra.expr import ColRef, Expr, make_and, referenced_cids, substitute_cids
from ...algebra.ops import (
    Aggregate,
    Distinct,
    Filter,
    Join,
    JoinType,
    Limit,
    LogicalOp,
    Project,
    Sort,
    UnionAll,
)


def push_filters(plan: LogicalOp, trace=None) -> LogicalOp:
    from ...observability.trace import NULL_TRACE

    return _push(plan, [], NULL_TRACE if trace is None else trace)


def _push(op: LogicalOp, pending: list[Expr], trace) -> LogicalOp:
    from ...algebra.expr import conjuncts

    if isinstance(op, Filter):
        # Stacked view filters repeat conjuncts; a structurally equal copy
        # adds nothing (no volatile functions), so merging drops it.  Not a
        # rewrite fire: the plan cache compares fires across literal sets.
        merged = list(pending)
        for conjunct in conjuncts(op.predicate):
            if conjunct not in merged:
                merged.append(conjunct)
        return _push(op.child, merged, trace)

    if isinstance(op, Project):
        mapping = {col.cid: expr for col, expr in op.items}
        pushable = []
        stuck = []
        for conjunct in pending:
            refs = referenced_cids(conjunct)
            if refs <= mapping.keys() and all(
                _cheap(mapping[cid]) for cid in refs
            ):
                pushable.append(substitute_cids(conjunct, mapping))
            else:
                stuck.append(conjunct)
        result: LogicalOp = Project(_push(op.child, pushable, trace), op.items)
        return _wrap(result, stuck)

    if isinstance(op, Join):
        left_cids = op.left.output_cids
        right_cids = op.right.output_cids
        to_left, to_right, stuck = [], [], []
        for conjunct in pending:
            refs = referenced_cids(conjunct)
            if refs <= left_cids:
                to_left.append(conjunct)
            elif refs <= right_cids and op.join_type is JoinType.INNER:
                to_right.append(conjunct)
            else:
                stuck.append(conjunct)
        if to_left or to_right:
            trace.rewrite("filter-pushdown-join", moved=len(to_left) + len(to_right))
        new_join = op.with_children(
            [_push(op.left, to_left, trace), _push(op.right, to_right, trace)]
        )
        return _wrap(new_join, stuck)

    if isinstance(op, UnionAll):
        position_of = {col.cid: pos for pos, col in enumerate(op.output)}
        pushable, stuck = [], []
        for conjunct in pending:
            if referenced_cids(conjunct) <= position_of.keys():
                pushable.append(conjunct)
            else:
                stuck.append(conjunct)
        if pushable:
            trace.rewrite(
                "filter-pushdown-union",
                moved=len(pushable), branches=len(op.inputs),
            )
        new_children = []
        for child, mapping in zip(op.inputs, op.child_maps):
            child_pending = []
            for conjunct in pushable:
                substitution = {}
                for cid in referenced_cids(conjunct):
                    child_cid = mapping[position_of[cid]]
                    child_col = child.find_col(child_cid)
                    substitution[cid] = ColRef(
                        child_cid, child_col.name, child_col.data_type, child_col.nullable
                    )
                child_pending.append(substitute_cids(conjunct, substitution))
            new_children.append(_push(child, child_pending, trace))
        return _wrap(op.with_children(new_children), stuck)

    if isinstance(op, (Sort, Distinct)):
        return op.with_children([_push(op.children[0], pending, trace)])

    if isinstance(op, Aggregate):
        keys = frozenset(op.group_cids)
        pushable, stuck = [], []
        for conjunct in pending:
            (pushable if referenced_cids(conjunct) <= keys else stuck).append(conjunct)
        new_agg = op.with_children([_push(op.child, pushable, trace)])
        return _wrap(new_agg, stuck)

    if isinstance(op, Limit):
        return _wrap(op.with_children([_push(op.child, [], trace)]), pending)

    # Scan and anything else: stop here.
    children = [_push(child, [], trace) for child in op.children]
    return _wrap(op.with_children(children), pending)


def _wrap(op: LogicalOp, predicates: list[Expr]) -> LogicalOp:
    combined = make_and(predicates)
    return op if combined is None else Filter(op, combined)


def _cheap(expr: Expr) -> bool:
    """Only substitute inexpensive projection expressions into predicates
    (a duplicated heavy expression could regress the plan)."""
    from ...algebra.expr import Const

    return isinstance(expr, (ColRef, Const))
