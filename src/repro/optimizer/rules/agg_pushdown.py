"""Aggregation pushdown across decimal rounding (paper §7.1).

Decimal rounding does not commute with addition (``round(1.3)+round(2.4)=3``
but ``round(1.3+2.4)=4``), so ``sum(round(price*1.11, 2))`` normally blocks
every rewrite of the SUM.  The ``allow_precision_loss(...)`` SQL extension is
the user's explicit opt-in; with it this rule rewrites

    sum(round(e * c, k))   ->   round(sum(e) * c, k)

by peeling, from the aggregate argument: ``ROUND(·, k)`` wrappers (only with
the opt-in) and constant multiplicative factors ``· * c`` / ``· / c``
(factoring constants out of SUM is exact over our DECIMAL arithmetic, but it
is only *reachable* once the opt-in removes the rounding barrier — matching
the paper's description of the optimization being blocked by rounding).

The rewrite keeps the original output cid by compensating with a Project
above the Aggregate, so parents are unaffected.
"""

from __future__ import annotations

from ...algebra.expr import AggCall, Call, ColRef, Const, Expr, next_cid
from ...algebra.ops import Aggregate, LogicalOp, OutputCol, Project
from ..profiles import CAP_AGG_PUSHDOWN_PRECISION
from .simplify_joins import SimplifyContext


def push_aggregates(plan: LogicalOp, sctx: SimplifyContext) -> LogicalOp:
    if not sctx.has(CAP_AGG_PUSHDOWN_PRECISION):
        return plan
    return _rewrite(plan, sctx)


def _rewrite(op: LogicalOp, sctx: SimplifyContext) -> LogicalOp:
    children = [_rewrite(child, sctx) for child in op.children]
    op = op.with_children(children)
    if isinstance(op, Aggregate):
        return _rewrite_aggregate(op, sctx)
    return op


def _rewrite_aggregate(op: Aggregate, sctx: SimplifyContext) -> LogicalOp:
    new_aggs: list[tuple[OutputCol, AggCall]] = []
    post_items: list[tuple[OutputCol, Expr]] = []
    changed = False
    for col, call in op.aggs:
        # A DISTINCT SUM stays whole: peeling ROUND would change which
        # values are distinct, not just the trailing digits.
        peelable = call.func == "SUM" and call.allow_precision_loss and not call.distinct
        peeled = _peel(call) if peelable else None
        if peeled is None:
            new_aggs.append((col, call))
            post_items.append((col, col.as_ref()))
            continue
        inner_arg, wrappers = peeled
        changed = True
        inner_col = OutputCol(next_cid(), f"{col.name}_inner", call.data_type, True)
        new_aggs.append((inner_col, AggCall("SUM", inner_arg, call.data_type,
                                            call.distinct, call.allow_precision_loss)))
        post: Expr = inner_col.as_ref()
        for kind, payload in reversed(wrappers):
            if kind == "mul":
                post = Call("*", (post, payload), call.data_type, True)
            elif kind == "div":
                post = Call("/", (post, payload), call.data_type, True)
            else:  # round
                post = Call("ROUND", (post, payload), call.data_type, True)
        post_items.append((col, post))
    if not changed:
        return op
    sctx.trace.rewrite("agg-precision", aggregates=len(new_aggs))
    new_agg = Aggregate(op.child, op.group_cids, tuple(new_aggs))
    key_items = tuple(
        (new_agg.find_col(cid), new_agg.find_col(cid).as_ref()) for cid in op.group_cids
    )
    return Project(new_agg, key_items + tuple(post_items))


def _peel(call: AggCall) -> tuple[Expr, list[tuple[str, Expr]]] | None:
    """Peel ROUND and constant factors off a SUM argument.

    Returns ``(inner_expression, wrappers)`` where wrappers re-apply, in
    order from innermost to outermost, after the SUM; None when nothing
    peels.
    """
    wrappers: list[tuple[str, Expr]] = []
    expr = call.arg
    assert expr is not None
    while True:
        if isinstance(expr, Call) and expr.op == "ROUND":
            digits = expr.args[1] if len(expr.args) == 2 else Const(0, expr.data_type)
            if not isinstance(digits, Const):
                break
            wrappers.append(("round", digits))
            expr = expr.args[0]
            continue
        if isinstance(expr, Call) and expr.op == "*" and len(expr.args) == 2:
            a, b = expr.args
            if isinstance(b, Const) and b.value is not None:
                wrappers.append(("mul", b))
                expr = a
                continue
            if isinstance(a, Const) and a.value is not None:
                wrappers.append(("mul", a))
                expr = b
                continue
        if isinstance(expr, Call) and expr.op == "/" and len(expr.args) == 2:
            a, b = expr.args
            if isinstance(b, Const) and b.value is not None and b.value != 0:
                wrappers.append(("div", b))
                expr = a
                continue
        break
    if not wrappers:
        return None
    return expr, wrappers
