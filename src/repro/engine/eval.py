"""Vectorized expression evaluation with SQL semantics.

- NULL propagates through arithmetic, comparisons, and scalar functions;
- AND/OR/NOT use three-valued logic;
- DECIMAL arithmetic is exact (:mod:`decimal`), and ``ROUND`` uses
  ROUND_HALF_UP — the commercial rounding in the paper's §7.1 examples
  (an 11% tax of $13.1945 rounds to $13.19, round(1.3)+round(2.4)=3).
"""

from __future__ import annotations

import datetime
import decimal
import re
from functools import lru_cache

from ..errors import ExecutionError, TypeCheckError
from ..algebra.expr import Call, Case, Cast, ColRef, Const, Expr
from . import kernels
from .chunk import Chunk


def evaluate(expr: Expr, chunk: Chunk) -> list:
    """Evaluate ``expr`` for every row of ``chunk``.

    Returns a column: a plain value list, or (for column references and
    kernel-computed arithmetic under a vectorized execution) one of the
    typed vectors from :mod:`repro.vectors` — both index and iterate the
    same way.
    """
    n = chunk.row_count
    if isinstance(expr, ColRef):
        return chunk.column(expr.cid)
    if isinstance(expr, Const):
        return [expr.value] * n
    if isinstance(expr, Cast):
        values = evaluate(expr.arg, chunk)
        target = expr.data_type
        return [None if v is None else target.validate(v) for v in values]
    if isinstance(expr, Case):
        return _eval_case(expr, chunk)
    if isinstance(expr, Call):
        # Kernel fast path (no-op unless a KernelTally is active): whole-
        # column arithmetic as a dictionary transform.
        fast = kernels.try_evaluate(expr, chunk)
        if fast is not None:
            return fast
        return _eval_call(expr, chunk)
    from ..algebra.expr import ScalarSubquery

    if isinstance(expr, ScalarSubquery):
        raise ExecutionError(
            "unresolved scalar subquery (the executor resolves these before "
            "evaluation)"
        )
    raise ExecutionError(f"cannot evaluate {type(expr).__name__}")


def evaluate_predicate(expr: Expr, chunk: Chunk) -> list[int]:
    """Row indices where ``expr`` is TRUE (NULL and FALSE filter out)."""
    selection = kernels.try_select(expr, chunk)
    if selection is not None:
        return selection
    values = evaluate(expr, chunk)
    return [i for i, v in enumerate(values) if v is True]


# ---------------------------------------------------------------------------
# Calls
# ---------------------------------------------------------------------------


def _eval_call(expr: Call, chunk: Chunk) -> list:
    op = expr.op
    handler = _HANDLERS.get(op)
    if handler is not None:
        return handler(expr, chunk)
    raise ExecutionError(f"unknown operator or function {op!r}")


def _binary_args(expr: Call, chunk: Chunk) -> tuple[list, list]:
    left = evaluate(expr.args[0], chunk)
    right = evaluate(expr.args[1], chunk)
    return left, right


def _cmp(op: str):
    def compare(expr: Call, chunk: Chunk) -> list:
        left, right = _binary_args(expr, chunk)
        out = []
        try:
            for a, b in zip(left, right):
                if a is None or b is None:
                    out.append(None)
                    continue
                if op == "=":
                    out.append(a == b)
                elif op == "<>":
                    out.append(a != b)
                elif op == "<":
                    out.append(a < b)
                elif op == "<=":
                    out.append(a <= b)
                elif op == ">":
                    out.append(a > b)
                else:
                    out.append(a >= b)
        except TypeError:  # e.g. INTEGER < VARCHAR: the query's fault
            left_type, right_type = (arg.data_type for arg in expr.args)
            raise TypeCheckError(
                f"cannot compare {left_type} {a!r} {op} {right_type} {b!r}"
            ) from None
        return out

    return compare


def _arith(op: str):
    def compute(expr: Call, chunk: Chunk) -> list:
        left, right = _binary_args(expr, chunk)
        out = []
        for a, b in zip(left, right):
            if a is None or b is None:
                out.append(None)
                continue
            try:
                if op == "+":
                    out.append(a + b)
                elif op == "-":
                    out.append(a - b)
                elif op == "*":
                    out.append(a * b)
                elif op == "/":
                    out.append(a / b)
                else:  # %
                    out.append(a % b)
            except (ZeroDivisionError, decimal.DivisionByZero, decimal.InvalidOperation):
                raise ExecutionError("division by zero") from None
        return out

    return compute


def _eval_and(expr: Call, chunk: Chunk) -> list:
    left, right = _binary_args(expr, chunk)
    out = []
    for a, b in zip(left, right):
        if a is False or b is False:
            out.append(False)
        elif a is None or b is None:
            out.append(None)
        else:
            out.append(True)
    return out


def _eval_or(expr: Call, chunk: Chunk) -> list:
    left, right = _binary_args(expr, chunk)
    out = []
    for a, b in zip(left, right):
        if a is True or b is True:
            out.append(True)
        elif a is None or b is None:
            out.append(None)
        else:
            out.append(False)
    return out


def _eval_not(expr: Call, chunk: Chunk) -> list:
    values = evaluate(expr.args[0], chunk)
    return [None if v is None else (not v) for v in values]


def _eval_neg(expr: Call, chunk: Chunk) -> list:
    values = evaluate(expr.args[0], chunk)
    return [None if v is None else -v for v in values]


def _eval_isnull(expr: Call, chunk: Chunk) -> list:
    values = evaluate(expr.args[0], chunk)
    return [v is None for v in values]


def _eval_isnotnull(expr: Call, chunk: Chunk) -> list:
    values = evaluate(expr.args[0], chunk)
    return [v is not None for v in values]


def _eval_concat_op(expr: Call, chunk: Chunk) -> list:
    left, right = _binary_args(expr, chunk)
    return [
        None if a is None or b is None else f"{a}{b}" for a, b in zip(left, right)
    ]


@lru_cache(maxsize=256)
def _like_regex(pattern: str) -> "re.Pattern[str]":
    regex = re.escape(pattern).replace(r"%", ".*").replace(r"_", ".")
    return re.compile(f"^{regex}$", re.DOTALL)


def _eval_like(expr: Call, chunk: Chunk) -> list:
    left, right = _binary_args(expr, chunk)
    out = []
    for value, pattern in zip(left, right):
        if value is None or pattern is None:
            out.append(None)
        else:
            out.append(bool(_like_regex(str(pattern)).match(str(value))))
    return out


def _eval_in(expr: Call, chunk: Chunk) -> list:
    operand = evaluate(expr.args[0], chunk)
    item_cols = [evaluate(a, chunk) for a in expr.args[1:]]
    out = []
    for row, value in enumerate(operand):
        if value is None:
            out.append(None)
            continue
        items = [col[row] for col in item_cols]
        matched = False
        saw_null = False
        for item in items:
            if item is None:
                saw_null = True
            elif value == item:
                matched = True
                break
        out.append(True if matched else (None if saw_null else False))
    return out


def _eval_case(expr: Case, chunk: Chunk) -> list:
    n = chunk.row_count
    result: list = [None] * n
    decided = [False] * n
    for cond, value in expr.branches:
        cond_vals = evaluate(cond, chunk)
        value_vals = evaluate(value, chunk)
        for i in range(n):
            if not decided[i] and cond_vals[i] is True:
                result[i] = value_vals[i]
                decided[i] = True
    if expr.else_value is not None:
        else_vals = evaluate(expr.else_value, chunk)
        for i in range(n):
            if not decided[i]:
                result[i] = else_vals[i]
    return result


def sql_round(value: object, digits: int) -> object:
    """ROUND with commercial (half-up) semantics; exact for DECIMAL."""
    if value is None:
        return None
    if isinstance(value, decimal.Decimal):
        quantum = decimal.Decimal(1).scaleb(-digits)
        return value.quantize(quantum, rounding=decimal.ROUND_HALF_UP)
    if isinstance(value, int) and digits >= 0:
        return value
    # float / negative digits: go through Decimal for half-up behaviour
    dec = decimal.Decimal(str(value))
    quantum = decimal.Decimal(1).scaleb(-digits)
    rounded = dec.quantize(quantum, rounding=decimal.ROUND_HALF_UP)
    return float(rounded) if isinstance(value, float) else int(rounded)


def _eval_round(expr: Call, chunk: Chunk) -> list:
    values = evaluate(expr.args[0], chunk)
    if len(expr.args) == 2:
        digit_vals = evaluate(expr.args[1], chunk)
    else:
        digit_vals = [0] * chunk.row_count
    return [
        None if d is None else sql_round(v, int(d)) for v, d in zip(values, digit_vals)
    ]


def _eval_abs(expr: Call, chunk: Chunk) -> list:
    values = evaluate(expr.args[0], chunk)
    return [None if v is None else abs(v) for v in values]


def _eval_floor(expr: Call, chunk: Chunk) -> list:
    import math

    values = evaluate(expr.args[0], chunk)
    return [None if v is None else math.floor(v) for v in values]


def _eval_ceil(expr: Call, chunk: Chunk) -> list:
    import math

    values = evaluate(expr.args[0], chunk)
    return [None if v is None else math.ceil(v) for v in values]


def _eval_coalesce(expr: Call, chunk: Chunk) -> list:
    arg_cols = [evaluate(a, chunk) for a in expr.args]
    out = []
    for row in range(chunk.row_count):
        value = None
        for col in arg_cols:
            if col[row] is not None:
                value = col[row]
                break
        out.append(value)
    return out


def _eval_nullif(expr: Call, chunk: Chunk) -> list:
    left, right = _binary_args(expr, chunk)
    return [None if (a is not None and a == b) else a for a, b in zip(left, right)]


def _eval_upper(expr: Call, chunk: Chunk) -> list:
    values = evaluate(expr.args[0], chunk)
    return [None if v is None else str(v).upper() for v in values]


def _eval_lower(expr: Call, chunk: Chunk) -> list:
    values = evaluate(expr.args[0], chunk)
    return [None if v is None else str(v).lower() for v in values]


def _eval_length(expr: Call, chunk: Chunk) -> list:
    values = evaluate(expr.args[0], chunk)
    return [None if v is None else len(str(v)) for v in values]


def _eval_substr(expr: Call, chunk: Chunk) -> list:
    values = evaluate(expr.args[0], chunk)
    starts = evaluate(expr.args[1], chunk)
    lengths = evaluate(expr.args[2], chunk) if len(expr.args) == 3 else None
    out = []
    for row, value in enumerate(values):
        if value is None or starts[row] is None:
            out.append(None)
            continue
        start = max(int(starts[row]) - 1, 0)  # SQL SUBSTR is 1-based
        text = str(value)
        if lengths is None:
            out.append(text[start:])
        else:
            if lengths[row] is None:
                out.append(None)
            else:
                out.append(text[start:start + int(lengths[row])])
    return out


def _eval_concat(expr: Call, chunk: Chunk) -> list:
    arg_cols = [evaluate(a, chunk) for a in expr.args]
    out = []
    for row in range(chunk.row_count):
        parts = [col[row] for col in arg_cols]
        if any(p is None for p in parts):
            out.append(None)
        else:
            out.append("".join(str(p) for p in parts))
    return out


def _date_part(part: str):
    def extract(expr: Call, chunk: Chunk) -> list:
        values = evaluate(expr.args[0], chunk)
        out = []
        for v in values:
            if v is None:
                out.append(None)
            elif isinstance(v, datetime.date):
                out.append(getattr(v, part))
            else:
                out.append(getattr(datetime.date.fromisoformat(str(v)), part))
        return out

    return extract


_HANDLERS = {
    "=": _cmp("="),
    "<>": _cmp("<>"),
    "<": _cmp("<"),
    "<=": _cmp("<="),
    ">": _cmp(">"),
    ">=": _cmp(">="),
    "+": _arith("+"),
    "-": _arith("-"),
    "*": _arith("*"),
    "/": _arith("/"),
    "%": _arith("%"),
    "AND": _eval_and,
    "OR": _eval_or,
    "NOT": _eval_not,
    "NEG": _eval_neg,
    "ISNULL": _eval_isnull,
    "ISNOTNULL": _eval_isnotnull,
    "||": _eval_concat_op,
    "LIKE": _eval_like,
    "IN": _eval_in,
    "ROUND": _eval_round,
    "ABS": _eval_abs,
    "FLOOR": _eval_floor,
    "CEIL": _eval_ceil,
    "COALESCE": _eval_coalesce,
    "NULLIF": _eval_nullif,
    "UPPER": _eval_upper,
    "LOWER": _eval_lower,
    "LENGTH": _eval_length,
    "SUBSTR": _eval_substr,
    "CONCAT": _eval_concat,
    "YEAR": _date_part("year"),
    "MONTH": _date_part("month"),
    "DAYOFMONTH": _date_part("day"),
}
