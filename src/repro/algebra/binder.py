"""AST -> logical algebra binding.

Responsibilities:

- name resolution against the catalog and FROM-clause scopes;
- **view unfolding**: views are always inlined at bind time — the VDM design
  (paper §3) assumes the optimizer simplifies the unfolded stack, so there is
  no "opaque view" execution path;
- aggregation binding (GROUP BY / HAVING / aggregates in the select list);
- the paper's SQL extensions: ``ALLOW_PRECISION_LOSS`` (§7.1), expression
  macros (§7.2), declared join cardinalities (§7.3), and ``CASE JOIN``
  (§6.3).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from ..catalog.catalog import Catalog
from ..catalog.schema import ViewSchema
from ..datatypes import (
    BIGINT,
    BOOLEAN,
    DOUBLE,
    DataType,
    TypeKind,
    common_super_type,
    decimal_type,
    type_of_literal,
    varchar,
)
from ..errors import BindError
from ..sql import ast
from . import ops
from .expr import (
    AggCall,
    Call,
    Case,
    Cast,
    ColRef,
    Const,
    Expr,
    Param,
    make_and,
    next_cid,
    referenced_cids,
)

AGGREGATE_FUNCS = {"COUNT", "SUM", "MIN", "MAX", "AVG"}

_COMPARISON_OPS = {"=", "<>", "<", "<=", ">", ">="}
_LOGICAL_OPS = {"AND", "OR"}
_ARITHMETIC_OPS = {"+", "-", "*", "/", "%"}

# Scalar functions with (min_args, max_args).
SCALAR_FUNCS: dict[str, tuple[int, int]] = {
    "ROUND": (1, 2),
    "ABS": (1, 1),
    "FLOOR": (1, 1),
    "CEIL": (1, 1),
    "COALESCE": (2, 99),
    "IFNULL": (2, 2),
    "NULLIF": (2, 2),
    "UPPER": (1, 1),
    "LOWER": (1, 1),
    "LENGTH": (1, 1),
    "SUBSTR": (2, 3),
    "SUBSTRING": (2, 3),
    "CONCAT": (2, 99),
    "YEAR": (1, 1),
    "MONTH": (1, 1),
    "DAYOFMONTH": (1, 1),
}


@dataclass
class RelationBinding:
    """One FROM-clause relation visible in a scope."""

    alias: str
    columns: tuple[ops.OutputCol, ...]
    macros: dict[str, ast.Expr] = field(default_factory=dict)

    def find(self, name: str) -> ops.OutputCol | None:
        lowered = name.lower()
        for col in self.columns:
            if col.name == lowered:
                return col
        return None


class Scope:
    """An ordered collection of relation bindings for name resolution."""

    def __init__(self, bindings: list[RelationBinding]):
        self.bindings = bindings

    @classmethod
    def merge(cls, left: "Scope", right: "Scope") -> "Scope":
        aliases = [b.alias for b in left.bindings + right.bindings]
        duplicates = {a for a in aliases if aliases.count(a) > 1}
        if duplicates:
            raise BindError(f"duplicate table alias(es): {sorted(duplicates)}")
        return cls(left.bindings + right.bindings)

    def resolve(self, name: ast.ColumnName) -> ops.OutputCol:
        if name.qualifier is not None:
            qualifier = name.qualifier.lower()
            for binding in self.bindings:
                if binding.alias == qualifier:
                    col = binding.find(name.name)
                    if col is None:
                        raise BindError(f"no column {name.name!r} in {name.qualifier!r}")
                    return col
            raise BindError(f"unknown table alias {name.qualifier!r}")
        matches = [col for b in self.bindings if (col := b.find(name.name)) is not None]
        if not matches:
            raise BindError(f"unknown column {name.name!r}")
        if len(matches) > 1:
            raise BindError(f"ambiguous column {name.name!r}")
        return matches[0]

    def all_columns(self, qualifier: str | None = None) -> list[ops.OutputCol]:
        if qualifier is None:
            return [col for b in self.bindings for col in b.columns]
        lowered = qualifier.lower()
        for binding in self.bindings:
            if binding.alias == lowered:
                return list(binding.columns)
        raise BindError(f"unknown table alias {qualifier!r}")

    def find_macro(self, name: str) -> ast.Expr | None:
        lowered = name.lower()
        found: list[ast.Expr] = []
        for binding in self.bindings:
            if lowered in binding.macros:
                found.append(binding.macros[lowered])
        if len(found) > 1:
            raise BindError(f"ambiguous expression macro {name!r}")
        return found[0] if found else None


class Binder:
    """Binds parsed queries against a catalog, producing logical plans."""

    def __init__(self, catalog: Catalog, parameterize: bool = False):
        self._catalog = catalog
        self._view_stack: list[str] = []
        # When set, slot-tagged statement literals bind as opaque Param
        # nodes (generic-plan mode for the plan cache).  View bodies bind
        # under a non-empty _view_stack and always produce Consts — their
        # literals belong to the view definition, not the statement.
        self._parameterize = parameterize

    # -- queries -----------------------------------------------------------

    def bind_query(self, query: ast.Query) -> ops.LogicalOp:
        if isinstance(query, ast.Select):
            return self._bind_select(query)
        if isinstance(query, ast.SetOp):
            return self._bind_setop(query)
        raise BindError(f"unsupported query node {type(query).__name__}")

    def _bind_setop(self, setop: ast.SetOp) -> ops.LogicalOp:
        parts = self._flatten_union(setop.left) + self._flatten_union(setop.right)
        children = [self.bind_query(p) for p in parts]
        arity = len(children[0].output)
        for child in children[1:]:
            if len(child.output) != arity:
                raise BindError("UNION ALL children must have the same number of columns")
        unified = [
            functools.reduce(common_super_type, (c.output[pos].data_type for c in children))
            for pos in range(arity)
        ]
        children = [_cast_output(child, unified) for child in children]
        op: ops.LogicalOp = ops.UnionAll.create(children)
        if setop.order_by:
            op = self._bind_order_on_output(op, setop.order_by)
        if setop.limit is not None or setop.offset is not None:
            op = ops.Limit(op, setop.limit, setop.offset or 0)
        return op

    def _flatten_union(self, query: ast.Query) -> list[ast.Query]:
        """Flatten nested UNION ALLs into an n-ary list (the paper's five-way
        Union All in Fig. 3 is one n-ary node)."""
        if isinstance(query, ast.SetOp) and not query.order_by and query.limit is None:
            return self._flatten_union(query.left) + self._flatten_union(query.right)
        if isinstance(query, ast.SetOp):
            # An inner SetOp that carries ORDER BY / LIMIT binds as a unit.
            return [query]
        return [query]

    def _bind_order_on_output(
        self, op: ops.LogicalOp, order_by: tuple[ast.OrderItem, ...]
    ) -> ops.LogicalOp:
        keys = []
        for item in order_by:
            if not isinstance(item.expr, ast.ColumnName) or item.expr.qualifier:
                raise BindError("ORDER BY over UNION ALL must use output column names")
            name = item.expr.name.lower()
            match = [c for c in op.output if c.name == name]
            if not match:
                raise BindError(f"unknown ORDER BY column {name!r}")
            keys.append(ops.SortKey(match[0].cid, item.ascending))
        return ops.Sort(op, tuple(keys))

    # -- SELECT ---------------------------------------------------------------

    def _bind_select(self, select: ast.Select) -> ops.LogicalOp:
        if select.from_clause is None:
            op: ops.LogicalOp = ops.OneRow()
            scope = Scope([])
        else:
            op, scope = self._bind_table_expr(select.from_clause)

        if select.where is not None:
            where_ast = self._expand_macros(select.where, scope)
            plain, subquery_conjuncts = self._split_where_subqueries(where_ast)
            for conjunct in subquery_conjuncts:
                op = self._apply_subquery_conjunct(op, scope, conjunct)
            if plain is not None:
                predicate = self._bind_scalar(plain, scope, allow_agg=False)
                self._require_boolean(predicate, "WHERE")
                op = ops.Filter(op, predicate)

        items = self._expand_select_items(select.items, scope)
        item_asts = [self._expand_macros(item.expr, scope) for item in items]
        having_ast = (
            self._expand_macros(select.having, scope) if select.having is not None else None
        )
        group_asts = [self._expand_macros(g, scope) for g in select.group_by]

        has_aggregate = (
            bool(group_asts)
            or any(self._contains_aggregate(e) for e in item_asts)
            or (having_ast is not None and self._contains_aggregate(having_ast))
        )

        if has_aggregate:
            op, bound_items = self._bind_aggregate_select(
                op, scope, item_asts, group_asts, having_ast
            )
        else:
            if having_ast is not None:
                raise BindError("HAVING requires aggregation")
            bound_items = [self._bind_scalar(e, scope, allow_agg=False) for e in item_asts]

        project_items = []
        for item, bound in zip(items, bound_items):
            name = self._output_name(item, len(project_items))
            col = ops.OutputCol(
                self._passthrough_cid(bound), name, bound.data_type, bound.nullable
            )
            project_items.append((col, bound))
        project = ops.Project(op, tuple(project_items))
        result: ops.LogicalOp = project

        if select.distinct:
            result = ops.Distinct(result)

        if select.order_by:
            result = self._bind_order_by(result, project, scope, select.order_by, has_aggregate)

        if select.limit is not None or select.offset is not None:
            result = ops.Limit(result, select.limit, select.offset or 0)
        return result

    @staticmethod
    def _passthrough_cid(bound: Expr) -> int:
        """Reuse the cid of simple column pass-throughs; fresh otherwise.

        Sharing the cid along pass-through chains is what lets the pruning
        and rewiring rules track a column through deep view stacks.
        """
        if isinstance(bound, ColRef):
            return bound.cid
        return next_cid()

    def _expand_select_items(
        self, items: tuple[ast.SelectItem, ...], scope: Scope
    ) -> list[ast.SelectItem]:
        expanded: list[ast.SelectItem] = []
        for item in items:
            if isinstance(item.expr, ast.Star):
                for col in scope.all_columns(item.expr.qualifier):
                    expanded.append(ast.SelectItem(ast.ColumnName(col.name), alias=col.name))
                    # Ambiguity is acceptable for * expansion; remember cid
                    # directly by rewriting to a resolved marker below.
                    expanded[-1] = _ResolvedItem(col)  # type: ignore[assignment]
            else:
                expanded.append(item)
        return expanded

    @staticmethod
    def _output_name(item: "ast.SelectItem | _ResolvedItem", index: int) -> str:
        if isinstance(item, _ResolvedItem):
            return item.col.name
        if item.alias:
            return item.alias.lower()
        if isinstance(item.expr, ast.ColumnName):
            return item.expr.name.lower()
        return f"c{index}"

    # -- aggregation --------------------------------------------------------

    def _contains_aggregate(self, expr: ast.Expr) -> bool:
        if isinstance(expr, ast.FunctionCall):
            if expr.name in AGGREGATE_FUNCS:
                return True
            return any(self._contains_aggregate(a) for a in expr.args)
        for child in _ast_children(expr):
            if self._contains_aggregate(child):
                return True
        return False

    def _bind_aggregate_select(
        self,
        child: ops.LogicalOp,
        scope: Scope,
        item_asts: list[ast.Expr],
        group_asts: list[ast.Expr],
        having_ast: ast.Expr | None,
    ) -> tuple[ops.LogicalOp, list[Expr]]:
        bound_keys = [self._bind_scalar(g, scope, allow_agg=False) for g in group_asts]

        # Pre-project computed grouping keys so Aggregate's keys are plain
        # child columns (simplifies execution and uniqueness derivation).
        if any(not isinstance(k, ColRef) for k in bound_keys):
            passthrough = [(col, col.as_ref()) for col in child.output]
            key_cids: list[int] = []
            extra: list[tuple[ops.OutputCol, Expr]] = []
            for index, key in enumerate(bound_keys):
                if isinstance(key, ColRef):
                    key_cids.append(key.cid)
                else:
                    col = ops.OutputCol(next_cid(), f"gk{index}", key.data_type, key.nullable)
                    extra.append((col, key))
                    key_cids.append(col.cid)
            child = ops.Project(child, tuple(passthrough + extra))
        else:
            key_cids = [k.cid for k in bound_keys]  # type: ignore[union-attr]

        # Collect aggregate calls from the select list and HAVING.
        collector = _AggCollector(self, scope)
        rewritten_items = [collector.rewrite(e) for e in item_asts]
        rewritten_having = collector.rewrite(having_ast) if having_ast is not None else None

        agg_items: list[tuple[ops.OutputCol, AggCall]] = []
        for call, col in collector.results:
            agg_items.append((col, call))
        agg_op = ops.Aggregate(child, tuple(key_cids), tuple(agg_items))

        # Bind the rewritten item ASTs; _AggPlaceholder nodes become ColRefs.
        key_by_struct = {self._struct_key(b): ColRef(c, "k", b.data_type, b.nullable)
                         for b, c in zip(bound_keys, key_cids)}
        bound_items = [
            self._bind_post_agg(e, scope, key_by_struct, key_cids, collector)
            for e in rewritten_items
        ]
        result: ops.LogicalOp = agg_op
        if rewritten_having is not None:
            having_bound = self._bind_post_agg(
                rewritten_having, scope, key_by_struct, key_cids, collector
            )
            self._require_boolean(having_bound, "HAVING")
            result = ops.Filter(result, having_bound)
        return result, bound_items

    def _struct_key(self, bound: Expr) -> str:
        return str(bound)

    def _bind_post_agg(
        self,
        expr: ast.Expr,
        scope: Scope,
        key_by_struct: dict[str, ColRef],
        key_cids: list[int],
        collector: "_AggCollector",
    ) -> Expr:
        """Bind a select item in the post-aggregation scope.

        Aggregate placeholders resolve to Aggregate output columns; any other
        subexpression must either match a grouping key or reference only
        grouping-key columns.
        """
        if isinstance(expr, _AggPlaceholder):
            return expr.col.as_ref()
        bound_attempt = self._bind_scalar_post(expr, scope, collector)
        # Replace subexpressions equal to grouping keys with their key cols.
        replaced = self._replace_keys(bound_attempt, key_by_struct)
        invalid = [
            cid
            for cid in referenced_cids(replaced)
            if cid not in key_cids and cid not in collector.agg_cids
        ]
        if invalid:
            raise BindError(
                "column(s) referenced outside aggregates must appear in GROUP BY"
            )
        return replaced

    def _replace_keys(self, bound: Expr, key_by_struct: dict[str, ColRef]) -> Expr:
        from .expr import rewrite_expr

        def replace(node: Expr) -> Expr | None:
            ref = key_by_struct.get(str(node))
            if ref is not None and not isinstance(node, ColRef):
                return ColRef(ref.cid, ref.name, node.data_type, node.nullable)
            if isinstance(node, ColRef):
                mapped = key_by_struct.get(str(node))
                if mapped is not None:
                    return node  # ColRef keys already carry the right cid
            return None

        return rewrite_expr(bound, replace)

    def _bind_scalar_post(self, expr: ast.Expr, scope: Scope, collector: "_AggCollector") -> Expr:
        """bind_scalar that understands _AggPlaceholder leaves."""
        if isinstance(expr, _AggPlaceholder):
            return expr.col.as_ref()
        if isinstance(expr, ast.BinaryOp):
            left = self._bind_scalar_post(expr.left, scope, collector)
            right = self._bind_scalar_post(expr.right, scope, collector)
            return self._build_binary(expr.op, left, right)
        if isinstance(expr, ast.UnaryOp):
            operand = self._bind_scalar_post(expr.operand, scope, collector)
            return self._build_unary(expr.op, operand)
        if isinstance(expr, ast.FunctionCall):
            args = tuple(self._bind_scalar_post(a, scope, collector) for a in expr.args)
            return self._build_function(expr.name, args)
        if isinstance(expr, ast.CaseWhen):
            branches = tuple(
                (self._bind_scalar_post(c, scope, collector),
                 self._bind_scalar_post(v, scope, collector))
                for c, v in expr.branches
            )
            else_value = (
                self._bind_scalar_post(expr.else_value, scope, collector)
                if expr.else_value is not None else None
            )
            return self._build_case(branches, else_value)
        if isinstance(expr, ast.CastExpr):
            return Cast(self._bind_scalar_post(expr.operand, scope, collector), expr.target)
        if isinstance(expr, ast.IsNull):
            operand = self._bind_scalar_post(expr.operand, scope, collector)
            return Call("ISNOTNULL" if expr.negated else "ISNULL", (operand,), BOOLEAN, False)
        return self._bind_scalar(expr, scope, allow_agg=False)

    # -- ORDER BY ----------------------------------------------------------

    def _bind_order_by(
        self,
        result: ops.LogicalOp,
        project: ops.Project,
        scope: Scope,
        order_by: tuple[ast.OrderItem, ...],
        has_aggregate: bool,
    ) -> ops.LogicalOp:
        keys: list[ops.SortKey] = []
        hidden: list[tuple[ops.OutputCol, Expr]] = []
        for item in order_by:
            cid = self._resolve_order_key(item.expr, project)
            if cid is None:
                if has_aggregate:
                    raise BindError(
                        "ORDER BY over aggregation must reference output columns"
                    )
                expr_ast = self._expand_macros(item.expr, scope)
                bound = self._bind_scalar(expr_ast, scope, allow_agg=False)
                if isinstance(bound, ColRef):
                    cid = bound.cid
                    if cid in {c.cid for c, _ in project.items}:
                        keys.append(ops.SortKey(cid, item.ascending))
                        continue
                    if cid not in project.child.output_cids:
                        raise BindError("ORDER BY column is not available")
                    col = project.child.find_col(cid)
                    hidden.append((col, bound))
                else:
                    col = ops.OutputCol(next_cid(), "sortkey", bound.data_type, bound.nullable)
                    hidden.append((col, bound))
                    cid = col.cid
            keys.append(ops.SortKey(cid, item.ascending))
        if hidden:
            widened = ops.Project(project.child, project.items + tuple(hidden))
            sort = ops.Sort(widened, tuple(keys))
            trim = ops.identity_project(sort, [c.cid for c, _ in project.items])
            return trim
        return ops.Sort(result, tuple(keys))

    @staticmethod
    def _resolve_order_key(expr: ast.Expr, project: ops.Project) -> int | None:
        if isinstance(expr, ast.ColumnName) and expr.qualifier is None:
            name = expr.name.lower()
            for col, _ in project.items:
                if col.name == name:
                    return col.cid
        return None

    # -- FROM clause ---------------------------------------------------------

    def _bind_table_expr(self, table_expr: ast.TableExpr) -> tuple[ops.LogicalOp, Scope]:
        if isinstance(table_expr, ast.TableRef):
            return self._bind_table_ref(table_expr)
        if isinstance(table_expr, ast.DerivedTable):
            op = self.bind_query(table_expr.query)
            binding = RelationBinding(table_expr.alias.lower(), op.output)
            return op, Scope([binding])
        if isinstance(table_expr, ast.JoinClause):
            return self._bind_join(table_expr)
        raise BindError(f"unsupported FROM item {type(table_expr).__name__}")

    def _bind_table_ref(self, ref: ast.TableRef) -> tuple[ops.LogicalOp, Scope]:
        name = ref.name.lower()
        alias = (ref.alias or ref.name).lower()
        if self._catalog.has_table(name):
            scan = ops.Scan.create(self._catalog.table_schema(name))
            return scan, Scope([RelationBinding(alias, scan.output)])
        if self._catalog.has_view(name):
            return self._bind_view(self._catalog.view(name), alias)
        raise BindError(f"unknown table or view {ref.name!r}")

    def _bind_view(self, view: ViewSchema, alias: str) -> tuple[ops.LogicalOp, Scope]:
        if view.name in self._view_stack:
            raise BindError(f"recursive view reference: {view.name!r}")
        self._view_stack.append(view.name)
        try:
            op = self.bind_query(view.query)  # inlined (unfolded) body
        finally:
            self._view_stack.pop()
        if view.column_names:
            if len(view.column_names) != len(op.output):
                raise BindError(
                    f"view {view.name!r} declares {len(view.column_names)} columns, "
                    f"query produces {len(op.output)}"
                )
            items = tuple(
                (col.renamed(new_name), col.as_ref())
                for col, new_name in zip(op.output, view.column_names)
            )
            op = ops.Project(op, items)
        binding = RelationBinding(alias, op.output, dict(view.macros))
        return op, Scope([binding])

    def _bind_join(self, join: ast.JoinClause) -> tuple[ops.LogicalOp, Scope]:
        left_op, left_scope = self._bind_table_expr(join.left)
        right_op, right_scope = self._bind_table_expr(join.right)
        scope = Scope.merge(left_scope, right_scope)
        if join.kind is ast.JoinKind.CROSS:
            return ops.Join(ops.JoinType.INNER, left_op, right_op, None), scope
        condition = None
        if join.condition is not None:
            condition_ast = self._expand_macros(join.condition, scope)
            condition = self._bind_scalar(condition_ast, scope, allow_agg=False)
            self._require_boolean(condition, "JOIN ... ON")
        if join.kind is ast.JoinKind.INNER:
            join_type = ops.JoinType.INNER
            case_join = False
        else:  # LEFT_OUTER or CASE_JOIN
            join_type = ops.JoinType.LEFT_OUTER
            case_join = join.kind is ast.JoinKind.CASE_JOIN
        bound = ops.Join(join_type, left_op, right_op, condition, join.cardinality, case_join)
        return bound, scope

    # -- scalar expression binding ----------------------------------------------

    def _bind_scalar(self, expr: ast.Expr, scope: Scope, allow_agg: bool) -> Expr:
        if isinstance(expr, _PreBoundColumn):
            return expr.col.as_ref()
        if isinstance(expr, ast.ColumnName):
            return scope.resolve(expr).as_ref()
        if isinstance(expr, ast.Literal):
            if (self._parameterize and expr.param_slot is not None
                    and not self._view_stack):
                return Param(expr.param_slot, type_of_literal(expr.value))
            return Const(expr.value, type_of_literal(expr.value))
        if isinstance(expr, ast.BinaryOp):
            left = self._bind_scalar(expr.left, scope, allow_agg)
            right = self._bind_scalar(expr.right, scope, allow_agg)
            return self._build_binary(expr.op, left, right)
        if isinstance(expr, ast.UnaryOp):
            return self._build_unary(expr.op, self._bind_scalar(expr.operand, scope, allow_agg))
        if isinstance(expr, ast.FunctionCall):
            if expr.name in AGGREGATE_FUNCS and not allow_agg:
                raise BindError(f"aggregate {expr.name} is not allowed here")
            if expr.name in AGGREGATE_FUNCS:
                raise BindError("internal: aggregates must be collected before binding")
            if expr.name == "ALLOW_PRECISION_LOSS":
                raise BindError("ALLOW_PRECISION_LOSS must wrap an aggregate expression")
            if expr.name == "EXPRESSION_MACRO":
                raise BindError("internal: expression macros must be expanded before binding")
            args = tuple(self._bind_scalar(a, scope, allow_agg) for a in expr.args)
            return self._build_function(expr.name, args)
        if isinstance(expr, ast.CaseWhen):
            branches = tuple(
                (self._bind_scalar(c, scope, allow_agg), self._bind_scalar(v, scope, allow_agg))
                for c, v in expr.branches
            )
            else_value = (
                self._bind_scalar(expr.else_value, scope, allow_agg)
                if expr.else_value is not None else None
            )
            return self._build_case(branches, else_value)
        if isinstance(expr, ast.CastExpr):
            return Cast(self._bind_scalar(expr.operand, scope, allow_agg), expr.target)
        if isinstance(expr, ast.InList):
            operand = self._bind_scalar(expr.operand, scope, allow_agg)
            items = tuple(self._bind_scalar(i, scope, allow_agg) for i in expr.items)
            in_call = Call("IN", _decimal_as_double((operand,) + items), BOOLEAN, True)
            return Call("NOT", (in_call,), BOOLEAN, True) if expr.negated else in_call
        if isinstance(expr, ast.BetweenExpr):
            operand = self._bind_scalar(expr.operand, scope, allow_agg)
            low = self._bind_scalar(expr.low, scope, allow_agg)
            high = self._bind_scalar(expr.high, scope, allow_agg)
            both = make_and(
                [
                    self._build_binary(">=", operand, low),
                    self._build_binary("<=", operand, high),
                ]
            )
            assert both is not None
            return Call("NOT", (both,), BOOLEAN, True) if expr.negated else both
        if isinstance(expr, ast.IsNull):
            operand = self._bind_scalar(expr.operand, scope, allow_agg)
            return Call(
                "ISNOTNULL" if expr.negated else "ISNULL", (operand,), BOOLEAN, False
            )
        if isinstance(expr, ast.ScalarQuery):
            subplan = self.bind_query(expr.query)
            if len(subplan.output) != 1:
                raise BindError("a scalar subquery must produce exactly one column")
            from .expr import ScalarSubquery

            col = subplan.output[0]
            return ScalarSubquery(subplan, col.data_type, True)  # type: ignore[arg-type]
        if isinstance(expr, (ast.ExistsExpr, ast.InSubquery)):
            raise BindError(
                "EXISTS / IN (subquery) is only supported as a top-level "
                "WHERE conjunct"
            )
        if isinstance(expr, ast.Star):
            raise BindError("* is only valid in the select list or COUNT(*)")
        raise BindError(f"unsupported expression {type(expr).__name__}")

    # -- expression construction helpers ------------------------------------

    def _build_binary(self, op: str, left: Expr, right: Expr) -> Expr:
        nullable = left.nullable or right.nullable
        if op in _LOGICAL_OPS:
            self._require_boolean(left, op)
            self._require_boolean(right, op)
            return Call(op, (left, right), BOOLEAN, nullable)
        if op == "LIKE":
            return Call(op, (left, right), BOOLEAN, nullable)
        if op == "||":
            return Call("||", (left, right), varchar(None), nullable)
        left, right = _decimal_as_double((left, right))
        if op in _COMPARISON_OPS:
            return Call(op, (left, right), BOOLEAN, nullable)
        if op in _ARITHMETIC_OPS:
            # An untyped NULL literal adopts the other operand's type.
            if _is_null_const(left) and _is_null_const(right):
                return Call(op, (left, right), varchar(None), True)
            if _is_null_const(left):
                return Call(op, (left, right), right.data_type, True)
            if _is_null_const(right):
                return Call(op, (left, right), left.data_type, True)
            result_type = self._arithmetic_type(op, left.data_type, right.data_type)
            return Call(op, (left, right), result_type, nullable)
        raise BindError(f"unsupported operator {op!r}")

    @staticmethod
    def _arithmetic_type(op: str, left: DataType, right: DataType) -> DataType:
        if not (left.is_numeric and right.is_numeric):
            # DATE arithmetic and friends are out of scope; be strict.
            if left.kind is TypeKind.DATE or right.kind is TypeKind.DATE:
                raise BindError("date arithmetic is not supported; use YEAR()/MONTH()")
            raise BindError(f"non-numeric operands for {op!r}: {left}, {right}")
        if op == "/":
            if left.kind is TypeKind.DOUBLE or right.kind is TypeKind.DOUBLE:
                return DOUBLE
            if left.kind is TypeKind.DECIMAL or right.kind is TypeKind.DECIMAL:
                return decimal_type(38, 10)
            return DOUBLE
        unified = common_super_type(left, right)
        if op == "*" and unified.kind is TypeKind.DECIMAL:
            scale = (left.scale or 0) + (right.scale or 0)
            return decimal_type(38, scale)
        return unified

    def _build_unary(self, op: str, operand: Expr) -> Expr:
        if op == "NOT":
            self._require_boolean(operand, "NOT")
            return Call("NOT", (operand,), BOOLEAN, operand.nullable)
        if op == "-":
            if not operand.data_type.is_numeric:
                raise BindError("unary minus needs a numeric operand")
            return Call("NEG", (operand,), operand.data_type, operand.nullable)
        raise BindError(f"unsupported unary operator {op!r}")

    def _build_case(
        self, branches: tuple[tuple[Expr, Expr], ...], else_value: Expr | None
    ) -> Expr:
        for cond, _ in branches:
            self._require_boolean(cond, "CASE WHEN")
        values = [v for _, v in branches]
        if else_value is not None:
            values.append(else_value)
        typed = [v.data_type for v in values if not _is_null_const(v)]
        result_type = typed[0] if typed else varchar(None)
        for data_type in typed[1:]:
            result_type = common_super_type(result_type, data_type)
        nullable = else_value is None or else_value.nullable or any(
            v.nullable for _, v in branches
        )
        branches = tuple((c, _coerced(v, result_type)) for c, v in branches)
        if else_value is not None:
            else_value = _coerced(else_value, result_type)
        return Case(branches, else_value, result_type, nullable)

    def _build_function(self, name: str, args: tuple[Expr, ...]) -> Expr:
        spec = SCALAR_FUNCS.get(name)
        if spec is None:
            raise BindError(f"unknown function {name!r}")
        low, high = spec
        if not (low <= len(args) <= high):
            raise BindError(f"{name} expects {low}..{high} arguments, got {len(args)}")
        nullable = any(a.nullable for a in args)
        if name in ("ROUND", "ABS", "FLOOR", "CEIL"):
            if not args[0].data_type.is_numeric:
                raise BindError(f"{name} needs a numeric argument")
            result = args[0].data_type
            if name in ("FLOOR", "CEIL"):
                result = BIGINT
            return Call(name, args, result, nullable)
        if name in ("COALESCE", "IFNULL"):
            typed = [a.data_type for a in args if not _is_null_const(a)]
            result = typed[0] if typed else varchar(None)
            for data_type in typed[1:]:
                result = common_super_type(result, data_type)
            all_nullable = all(a.nullable for a in args)
            args = tuple(_coerced(a, result) for a in args)
            return Call("COALESCE", args, result, all_nullable)
        if name == "NULLIF":
            return Call(name, args, args[0].data_type, True)
        if name in ("UPPER", "LOWER", "SUBSTR", "SUBSTRING"):
            return Call("SUBSTR" if name == "SUBSTRING" else name, args, varchar(None), nullable)
        if name == "LENGTH":
            return Call(name, args, BIGINT, nullable)
        if name == "CONCAT":
            return Call(name, args, varchar(None), nullable)
        if name in ("YEAR", "MONTH", "DAYOFMONTH"):
            return Call(name, args, BIGINT, nullable)
        raise BindError(f"unknown function {name!r}")

    @staticmethod
    def _require_boolean(expr: Expr, context: str) -> None:
        if _is_null_const(expr):
            return  # untyped NULL is a valid (UNKNOWN) boolean
        if expr.data_type.kind is not TypeKind.BOOLEAN:
            raise BindError(f"{context} requires a boolean expression, got {expr.data_type}")

    # -- EXISTS / IN subqueries -----------------------------------------------------

    def _split_where_subqueries(
        self, where: ast.Expr
    ) -> tuple[ast.Expr | None, list["_SubqueryConjunct"]]:
        """Split a WHERE tree into plain conjuncts and subquery conjuncts.

        Uncorrelated ``[NOT] EXISTS`` and ``[NOT] IN (subquery)`` are
        supported as *top-level conjuncts* (the common analytical shape);
        anywhere else (under OR/NOT/expressions) is rejected.
        """
        plain: list[ast.Expr] = []
        subqueries: list[_SubqueryConjunct] = []

        def flatten(node: ast.Expr) -> None:
            if isinstance(node, ast.BinaryOp) and node.op == "AND":
                flatten(node.left)
                flatten(node.right)
                return
            if isinstance(node, ast.ExistsExpr):
                subqueries.append(_SubqueryConjunct(
                    "anti" if node.negated else "semi", None, node.query, False))
                return
            if isinstance(node, ast.InSubquery):
                kind = "anti" if node.negated else "semi"
                subqueries.append(_SubqueryConjunct(
                    kind, node.operand, node.query, node.negated))
                return
            if isinstance(node, ast.UnaryOp) and node.op == "NOT":
                inner = node.operand
                if isinstance(inner, ast.ExistsExpr):
                    subqueries.append(_SubqueryConjunct(
                        "semi" if inner.negated else "anti", None, inner.query, False))
                    return
                if isinstance(inner, ast.InSubquery):
                    kind = "semi" if inner.negated else "anti"
                    subqueries.append(_SubqueryConjunct(
                        kind, inner.operand, inner.query, not inner.negated))
                    return
            if _contains_subquery(node):
                raise BindError(
                    "EXISTS / IN (subquery) is only supported as a top-level "
                    "WHERE conjunct"
                )
            plain.append(node)

        flatten(where)
        combined: ast.Expr | None = None
        for part in plain:
            combined = part if combined is None else ast.BinaryOp("AND", combined, part)
        return combined, subqueries

    def _apply_subquery_conjunct(
        self, op: ops.LogicalOp, scope: Scope, conjunct: "_SubqueryConjunct"
    ) -> ops.LogicalOp:
        subplan = self.bind_query(conjunct.query)
        join_type = ops.JoinType.SEMI if conjunct.kind == "semi" else ops.JoinType.ANTI
        if conjunct.operand is None:  # EXISTS
            return ops.Join(join_type, op, subplan, None)
        if len(subplan.output) != 1:
            raise BindError("IN (subquery) requires a single-column subquery")
        operand = self._bind_scalar(conjunct.operand, scope, allow_agg=False)
        right_ref = subplan.output[0].as_ref()
        condition = Call("=", _decimal_as_double((operand, right_ref)), BOOLEAN, True)
        null_aware = conjunct.kind == "anti"  # NOT IN: NULL = UNKNOWN filters
        return ops.Join(join_type, op, subplan, condition, None, False, null_aware)

    # -- expression macros (§7.2) -----------------------------------------------

    def _expand_macros(self, expr: ast.Expr, scope: Scope, depth: int = 0) -> ast.Expr:
        if depth > 16:
            raise BindError("expression macro expansion too deep (cycle?)")
        if isinstance(expr, ast.FunctionCall) and expr.name == "EXPRESSION_MACRO":
            if len(expr.args) != 1 or not isinstance(expr.args[0], ast.ColumnName):
                raise BindError("EXPRESSION_MACRO expects a single macro name")
            macro_name = expr.args[0].name
            body = scope.find_macro(macro_name)
            if body is None:
                raise BindError(f"unknown expression macro {macro_name!r}")
            return self._expand_macros(body, scope, depth + 1)
        return _rewrite_ast(expr, lambda e: self._expand_macros(e, scope, depth)
                            if isinstance(e, ast.FunctionCall) and e.name == "EXPRESSION_MACRO"
                            else None)


class _PreBoundColumn(ast.Expr):
    """AST marker for a column already resolved to an OutputCol (from ``*``
    expansion, which must not re-resolve by name — names can be ambiguous)."""

    __slots__ = ("col",)

    def __init__(self, col: ops.OutputCol):
        self.col = col


@dataclass(frozen=True)
class _ResolvedItem:
    """A select item already resolved to a scope column (from ``*``)."""

    col: ops.OutputCol

    @property
    def expr(self) -> ast.Expr:  # duck-typed like ast.SelectItem
        return _PreBoundColumn(self.col)

    @property
    def alias(self) -> str:
        return self.col.name


class _AggPlaceholder(ast.Expr):
    """AST marker standing in for a collected aggregate call."""

    __slots__ = ("col",)

    def __init__(self, col: ops.OutputCol):
        self.col = col


class _AggCollector:
    """Extracts aggregate calls from ASTs, binding their arguments.

    Handles the ``ALLOW_PRECISION_LOSS`` wrapper (§7.1): aggregates inside it
    get the flag on their bound :class:`AggCall`.
    """

    def __init__(self, binder: Binder, scope: Scope):
        self._binder = binder
        self._scope = scope
        self.results: list[tuple[AggCall, ops.OutputCol]] = []
        self._dedupe: dict[str, ops.OutputCol] = {}

    @property
    def agg_cids(self) -> set[int]:
        return {col.cid for _, col in self.results}

    def rewrite(self, expr: ast.Expr, apl: bool = False) -> ast.Expr:
        if isinstance(expr, ast.FunctionCall):
            if expr.name == "ALLOW_PRECISION_LOSS":
                if len(expr.args) != 1:
                    raise BindError("ALLOW_PRECISION_LOSS expects one argument")
                return self.rewrite(expr.args[0], apl=True)
            if expr.name in AGGREGATE_FUNCS:
                return self._collect(expr, apl)
        return _rewrite_ast(expr, lambda e: self.rewrite(e, apl)
                            if isinstance(e, ast.FunctionCall)
                            and (e.name in AGGREGATE_FUNCS or e.name == "ALLOW_PRECISION_LOSS")
                            else None)

    def _collect(self, call: ast.FunctionCall, apl: bool) -> _AggPlaceholder:
        func = call.name
        if func == "COUNT" and len(call.args) == 1 and isinstance(call.args[0], ast.Star):
            agg = AggCall("COUNT_STAR", None, BIGINT, distinct=False,
                          allow_precision_loss=apl)
        else:
            if len(call.args) != 1:
                raise BindError(f"{func} expects exactly one argument")
            if self._binder._contains_aggregate(call.args[0]):
                raise BindError("nested aggregates are not allowed")
            arg = self._binder._bind_scalar(call.args[0], self._scope, allow_agg=False)
            agg = AggCall(func, arg, self._agg_type(func, arg), call.distinct, apl)
        key = str(agg)
        existing = self._dedupe.get(key)
        if existing is not None:
            return _AggPlaceholder(existing)
        col = ops.OutputCol(next_cid(), func.lower(), agg.data_type,
                            nullable=(func != "COUNT" and func != "COUNT_STAR"))
        self._dedupe[key] = col
        self.results.append((agg, col))
        return _AggPlaceholder(col)

    @staticmethod
    def _agg_type(func: str, arg: Expr) -> DataType:
        if func == "COUNT":
            return BIGINT
        if func in ("SUM", "MIN", "MAX"):
            if func == "SUM" and arg.data_type.kind is TypeKind.DECIMAL:
                return decimal_type(38, arg.data_type.scale or 0)
            if func == "SUM" and arg.data_type.kind is TypeKind.INTEGER:
                return BIGINT
            return arg.data_type
        if func == "AVG":
            if arg.data_type.kind is TypeKind.DECIMAL:
                return decimal_type(38, 10)
            return DOUBLE
        raise BindError(f"unknown aggregate {func!r}")


def _ast_children(expr: ast.Expr) -> tuple[ast.Expr, ...]:
    if isinstance(expr, ast.BinaryOp):
        return (expr.left, expr.right)
    if isinstance(expr, ast.UnaryOp):
        return (expr.operand,)
    if isinstance(expr, ast.FunctionCall):
        return expr.args
    if isinstance(expr, ast.CaseWhen):
        parts: list[ast.Expr] = []
        for cond, value in expr.branches:
            parts.extend((cond, value))
        if expr.else_value is not None:
            parts.append(expr.else_value)
        return tuple(parts)
    if isinstance(expr, ast.CastExpr):
        return (expr.operand,)
    if isinstance(expr, ast.InList):
        return (expr.operand,) + expr.items
    if isinstance(expr, ast.BetweenExpr):
        return (expr.operand, expr.low, expr.high)
    if isinstance(expr, ast.IsNull):
        return (expr.operand,)
    return ()


def _rebuild_ast(expr: ast.Expr, children: list[ast.Expr]) -> ast.Expr:
    if isinstance(expr, ast.BinaryOp):
        return ast.BinaryOp(expr.op, children[0], children[1])
    if isinstance(expr, ast.UnaryOp):
        return ast.UnaryOp(expr.op, children[0])
    if isinstance(expr, ast.FunctionCall):
        return ast.FunctionCall(expr.name, tuple(children), expr.distinct)
    if isinstance(expr, ast.CaseWhen):
        count = len(expr.branches)
        branches = tuple((children[2 * i], children[2 * i + 1]) for i in range(count))
        else_value = children[2 * count] if expr.else_value is not None else None
        return ast.CaseWhen(branches, else_value)
    if isinstance(expr, ast.CastExpr):
        return ast.CastExpr(children[0], expr.target)
    if isinstance(expr, ast.InList):
        return ast.InList(children[0], tuple(children[1:]), expr.negated)
    if isinstance(expr, ast.BetweenExpr):
        return ast.BetweenExpr(children[0], children[1], children[2], expr.negated)
    if isinstance(expr, ast.IsNull):
        return ast.IsNull(children[0], expr.negated)
    return expr


def _rewrite_ast(expr: ast.Expr, fn) -> ast.Expr:
    """Top-down AST rewrite; ``fn`` returns a replacement or None."""
    replacement = fn(expr)
    if replacement is not None:
        return replacement
    children = _ast_children(expr)
    if not children:
        return expr
    new_children = [_rewrite_ast(c, fn) for c in children]
    if all(n is o for n, o in zip(new_children, children)):
        return expr
    return _rebuild_ast(expr, new_children)


def _is_null_const(expr: Expr) -> bool:
    """True for an untyped NULL literal, which adopts any required type."""
    return isinstance(expr, Const) and expr.value is None


def _coerced(expr: Expr, target: DataType) -> Expr:
    """``expr`` with ``target``'s Python type: unchanged when it already
    has it (INTEGER under BIGINT, DECIMAL(15,2) under DECIMAL(38,4)); a
    literal converted now, a parameter slot retyped (the plan cache
    converts its values when it binds them), anything else under a CAST.
    A NULL literal fits every type."""
    if _is_null_const(expr) or expr.data_type.python_type is target.python_type:
        return expr
    if isinstance(expr, Const):
        return Const(target.validate(expr.value), target)
    if isinstance(expr, Param):
        return Param(expr.slot, target)
    return Cast(expr, target, expr.nullable)


def _decimal_as_double(exprs: tuple[Expr, ...]) -> tuple[Expr, ...]:
    """Operands that meet as DECIMAL and DOUBLE compare and compute as
    DOUBLE (``Decimal('0.1') != 0.1``, and ``float + Decimal`` raises).
    Python compares and hashes equal int, Decimal and float values alike,
    so no other pairing needs a rule."""
    kinds = {e.data_type.kind for e in exprs}
    if TypeKind.DECIMAL not in kinds or TypeKind.DOUBLE not in kinds:
        return exprs
    return tuple(
        _coerced(e, DOUBLE) if e.data_type.kind is TypeKind.DECIMAL else e
        for e in exprs
    )


def _cast_output(op: ops.LogicalOp, types: list[DataType]) -> ops.LogicalOp:
    """``op`` with each output column in its entry of ``types``' Python
    type (a UNION ALL branch under the unified types)."""
    items = [(col, _coerced(col.as_ref(), ty)) for col, ty in zip(op.output, types)]
    if all(isinstance(value, ColRef) for _, value in items):
        return op
    return ops.Project(op, tuple(
        (col if isinstance(value, ColRef)
         else ops.OutputCol(next_cid(), col.name, value.data_type, col.nullable), value)
        for col, value in items
    ))


@dataclass(frozen=True)
class _SubqueryConjunct:
    """One EXISTS / IN (subquery) conjunct extracted from WHERE."""

    kind: str                    # "semi" | "anti"
    operand: "ast.Expr | None"   # IN's probe expression; None for EXISTS
    query: "ast.Query"
    null_aware: bool


def _contains_subquery(expr: ast.Expr) -> bool:
    if isinstance(expr, (ast.ExistsExpr, ast.InSubquery)):
        return True
    for child in _ast_children(expr):
        if _contains_subquery(child):
            return True
    if isinstance(expr, ast.InSubquery):
        return True
    return False
