"""Cardinality estimation over logical plans.

Textbook heuristics (System R lineage), sufficient to order joins sensibly:

- equality on a column: selectivity 1/ndv;
- range comparison: 1/3; LIKE: 1/4; IS NULL: 1/10;
- AND multiplies, OR adds (capped), NOT complements;
- equi-join: ``|L| * |R| / max(ndv(left key), ndv(right key))``;
- left outer join: at least ``|L|``;
- GROUP BY: product of key ndvs, capped by the input;
- DISTINCT: 60% of input; LIMIT: min(input, n).
"""

from __future__ import annotations

from ..algebra.expr import Call, ColRef, Const, Expr
from ..algebra.ops import (
    Aggregate,
    Distinct,
    Filter,
    Join,
    JoinType,
    Limit,
    LogicalOp,
    OneRow,
    Project,
    Scan,
    Sort,
    UnionAll,
)
from ..algebra.properties import conjuncts, equi_join_cids
from .stats import StatisticsProvider

DEFAULT_RANGE_SELECTIVITY = 1 / 3
DEFAULT_LIKE_SELECTIVITY = 1 / 4
DEFAULT_NULL_SELECTIVITY = 1 / 10
DEFAULT_EQ_SELECTIVITY = 1 / 10


class CardinalityEstimator:
    """Estimates output cardinalities bottom-up, tracking column ndv.

    Each node is evaluated once per estimator: its estimate is remembered
    for the estimator's lifetime (one compile, one join-ordering pass).
    """

    def __init__(self, stats: StatisticsProvider):
        self._stats = stats
        # cid -> estimated distinct count, filled while estimating
        self._ndv: dict[int, float] = {}
        # id(op) -> (op, rows); holding the node keeps its id from reuse
        self._rows: dict[int, tuple[LogicalOp, float]] = {}

    # -- public API ------------------------------------------------------------

    def estimate(self, op: LogicalOp) -> float:
        known = self._rows.get(id(op))
        if known is None:
            known = self._rows[id(op)] = (op, self._evaluate(op))
        return known[1]

    def _evaluate(self, op: LogicalOp) -> float:
        if isinstance(op, Scan):
            stats = self._stats.table_stats(op.schema.name)
            for col in op.output:
                self._ndv[col.cid] = stats.ndv(col.name)
            return float(max(stats.row_count, 1))
        if isinstance(op, Filter):
            child = self.estimate(op.child)
            return max(child * self.selectivity(op.predicate), 0.1)
        if isinstance(op, Project):
            child = self.estimate(op.child)
            for col, expr in op.items:
                if isinstance(expr, ColRef):
                    self._ndv[col.cid] = self._ndv.get(expr.cid, child)
                elif isinstance(expr, Const):
                    self._ndv[col.cid] = 1
            return child
        if isinstance(op, Join):
            return self._estimate_join(op)
        if isinstance(op, Aggregate):
            child = self.estimate(op.child)
            if not op.group_cids:
                return 1.0
            groups = 1.0
            for cid in op.group_cids:
                groups *= self._ndv.get(cid, max(child / 10, 1))
            return max(min(groups, child), 1.0)
        if isinstance(op, UnionAll):
            total = sum(self.estimate(child) for child in op.inputs)
            for position, col in enumerate(op.output):
                self._ndv[col.cid] = sum(
                    self._ndv.get(op.child_maps[i][position], 10)
                    for i in range(len(op.inputs))
                )
            return total
        if isinstance(op, Distinct):
            return max(self.estimate(op.child) * 0.6, 1.0)
        if isinstance(op, Sort):
            return self.estimate(op.child)
        if isinstance(op, Limit):
            child = self.estimate(op.child)
            if op.limit is None:
                return child
            return float(min(child, op.limit))
        if isinstance(op, OneRow):
            return 1.0
        return 1000.0  # unknown operator: neutral guess

    # -- predicates ---------------------------------------------------------------

    def selectivity(self, predicate: Expr | None) -> float:
        if predicate is None:
            return 1.0
        result = 1.0
        for conjunct in conjuncts(predicate):
            result *= self._conjunct_selectivity(conjunct)
        return max(min(result, 1.0), 1e-6)

    def _conjunct_selectivity(self, expr: Expr) -> float:
        if isinstance(expr, Const):
            if expr.value is True:
                return 1.0
            return 0.0 if expr.value in (False, None) else 1.0
        if not isinstance(expr, Call):
            return 0.5
        if expr.op == "OR":
            parts = [self._conjunct_selectivity(a) for a in expr.args]
            return min(sum(parts), 1.0)
        if expr.op == "NOT":
            return max(1.0 - self._conjunct_selectivity(expr.args[0]), 0.0)
        if expr.op == "=":
            column = self._single_column(expr)
            if column is not None:
                return 1.0 / self._ndv.get(column, 1 / DEFAULT_EQ_SELECTIVITY)
            return DEFAULT_EQ_SELECTIVITY
        if expr.op in ("<", "<=", ">", ">="):
            return DEFAULT_RANGE_SELECTIVITY
        if expr.op == "LIKE":
            return DEFAULT_LIKE_SELECTIVITY
        if expr.op in ("ISNULL",):
            return DEFAULT_NULL_SELECTIVITY
        if expr.op in ("ISNOTNULL",):
            return 1.0 - DEFAULT_NULL_SELECTIVITY
        if expr.op == "IN":
            column = None
            if isinstance(expr.args[0], ColRef):
                column = expr.args[0].cid
            per_item = (
                1.0 / self._ndv.get(column, 1 / DEFAULT_EQ_SELECTIVITY)
                if column is not None
                else DEFAULT_EQ_SELECTIVITY
            )
            return min(per_item * (len(expr.args) - 1), 1.0)
        if expr.op == "<>":
            return 1.0 - DEFAULT_EQ_SELECTIVITY
        return 0.5

    @staticmethod
    def _single_column(expr: Call) -> int | None:
        a, b = expr.args
        if isinstance(a, ColRef) and isinstance(b, Const):
            return a.cid
        if isinstance(b, ColRef) and isinstance(a, Const):
            return b.cid
        return None

    # -- joins ------------------------------------------------------------------------

    def _estimate_join(self, op: Join) -> float:
        left = self.estimate(op.left)
        right = self.estimate(op.right)
        if op.join_type in (JoinType.SEMI, JoinType.ANTI):
            return max(left * 0.5, 0.1)
        if op.condition is None:
            inner = left * right
        else:
            left_equi, right_equi = equi_join_cids(op)
            if left_equi:
                divisor = 1.0
                for lcid, rcid in zip(left_equi, right_equi):
                    divisor *= max(
                        self._ndv.get(lcid, 10), self._ndv.get(rcid, 10)
                    )
                inner = left * right / max(divisor, 1.0)
            else:
                inner = left * right * self.selectivity(op.condition)
        if op.join_type is JoinType.LEFT_OUTER:
            return max(inner, left)
        return max(inner, 0.1)


def estimate_cardinality(op: LogicalOp, catalog) -> float:
    """Convenience one-shot estimate for a plan against a catalog."""
    return CardinalityEstimator(StatisticsProvider(catalog)).estimate(op)
