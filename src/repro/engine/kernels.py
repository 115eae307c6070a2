"""Vectorized expression kernels over typed column vectors.

:mod:`repro.engine.eval` consults this module before falling back to its
row-at-a-time handlers:

- :func:`try_select` compiles a predicate into a *selection vector* (kept
  row positions) operating on whole columns — dictionary-coded columns
  compare raw codes against a single looked-up/bisected code threshold
  instead of decoding every row.  Boolean connectives compose in
  selection space: ``OR`` is the sorted union of its children's
  selections, and ``AND`` narrows — its second child runs only on the
  first child's survivors.  If any leaf has no kernel, the whole
  predicate declines and takes the row path;
- :func:`try_evaluate` computes ``col <op> const`` arithmetic as a
  *dictionary transform*: O(distinct) arithmetic plus a shared code
  vector, instead of O(rows) Python-object arithmetic.

Kernels only engage while a :class:`KernelTally` is active on the current
thread — the executor activates one per vectorized execution, which is
both the ``Database(vectorized=...)`` gate and the metrics sink
(``exec.kernel_calls`` / ``exec.rows_selected`` / ``exec.dict_compares``
plus per-operator attribution for ``sys.operator_stats``).

Correctness rule: a kernel must be *exactly* equivalent to the row path
(`repro fuzz --oracle vectorized-differential` holds it to that).  Both
compare and compute with Python's own operators: every value has its
column's declared type, and the binder has already cast the DECIMAL side
of any DECIMAL↔DOUBLE pair, so the operands are ``int``, ``float`` and
``Decimal`` in combinations Python compares exactly.  An incomparable
pair (INTEGER < VARCHAR) returns None, and the row path raises.
"""

from __future__ import annotations

import decimal
import threading
import time
from bisect import bisect_left, bisect_right

from ..algebra.expr import Call, ColRef, Const
from ..errors import ExecutionError
from ..vectors import DictVector, FloatVector, IntVector

_CMP_OPS = frozenset(("=", "<>", "<", "<=", ">", ">="))
_ARITH_OPS = frozenset(("+", "-", "*", "/", "%"))
#: Operator seen by the column when the expression was ``const <op> col``.
_FLIP = {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}

_perf_counter = time.perf_counter


# ---------------------------------------------------------------------------
# tally: the activation gate and the metrics sink
# ---------------------------------------------------------------------------


class KernelTally:
    """Per-execution kernel accounting.

    ``per_op`` maps ``id(physical op) -> [calls, rows_selected,
    dict_compares, seconds]``; ``current_op`` is maintained by
    ``PhysicalOp._stream`` with save/restore nesting, so attribution is
    exclusive — a kernel that runs inside Filter while Filter's parent is
    draining it bills Filter, not the parent.
    """

    __slots__ = ("calls", "rows_selected", "dict_compares", "per_op", "current_op")

    def __init__(self) -> None:
        self.calls = 0
        self.rows_selected = 0
        self.dict_compares = 0
        self.per_op: dict[int, list] = {}
        self.current_op: int | None = None


_tls = threading.local()


def active() -> KernelTally | None:
    return getattr(_tls, "tally", None)


def activate(tally: KernelTally | None) -> KernelTally | None:
    """Install ``tally`` for this thread; returns the previous one so a
    nested execution (scalar subqueries) can restore it."""
    previous = getattr(_tls, "tally", None)
    _tls.tally = tally
    return previous


def _record(
    tally: KernelTally, elapsed: float, selected: int, dict_compares: int
) -> None:
    tally.calls += 1
    tally.rows_selected += selected
    tally.dict_compares += dict_compares
    entry = tally.per_op.get(tally.current_op)
    if entry is None:
        entry = tally.per_op[tally.current_op] = [0, 0, 0, 0.0]
    entry[0] += 1
    entry[1] += selected
    entry[2] += dict_compares
    entry[3] += elapsed


def note_dict_compares(count: int) -> None:
    """Credit code-level comparisons done outside a kernel call (join and
    aggregate key readers that avoid per-row decoding)."""
    tally = active()
    if tally is not None:
        tally.dict_compares += count
        entry = tally.per_op.get(tally.current_op)
        if entry is None:
            entry = tally.per_op[tally.current_op] = [0, 0, 0, 0.0]
        entry[2] += count


# ---------------------------------------------------------------------------
# selection kernels
# ---------------------------------------------------------------------------


def try_select(expr, chunk) -> list[int] | None:
    """Selection vector for ``expr`` over ``chunk``, or None when no kernel
    applies (the caller falls back to row-at-a-time evaluation)."""
    tally = active()
    if tally is None:
        return None
    start = _perf_counter()
    out = _select(expr, chunk)
    if out is None:
        return None
    selection, compares = out
    _record(tally, _perf_counter() - start, len(selection), compares)
    return selection


def _select(expr, chunk):
    if not isinstance(expr, Call):
        return None
    op = expr.op
    if op == "AND" or op == "OR":
        first = _select(expr.args[0], chunk)
        if first is None:
            return None
        sel_a, cmp_a = first
        # OR sees the whole batch; AND narrows to the first child's survivors.
        second = _select(expr.args[1], chunk if op == "OR" else chunk.select(sel_a))
        if second is None:
            return None
        sel_b, cmp_b = second
        if op == "OR":
            return sorted(set(sel_a).union(sel_b)), cmp_a + cmp_b
        return [sel_a[i] for i in sel_b], cmp_a + cmp_b
    if op in ("ISNULL", "ISNOTNULL"):
        arg = expr.args[0]
        if not isinstance(arg, ColRef):
            return None
        col = chunk.column(arg.cid)
        want_null = op == "ISNULL"
        if isinstance(col, DictVector):
            codes = col.codes
            if want_null:
                return [i for i, c in enumerate(codes) if c < 0], len(codes)
            return [i for i, c in enumerate(codes) if c >= 0], len(codes)
        if isinstance(col, (IntVector, FloatVector)):
            nulls = col.nulls or frozenset()
            if want_null:
                return sorted(nulls), len(col)
            return [i for i in range(len(col)) if i not in nulls], len(col)
        return None
    if op not in _CMP_OPS or len(expr.args) != 2:
        return None
    a, b = expr.args
    if isinstance(a, ColRef) and isinstance(b, Const):
        col_ref, const = a, b.value
    elif isinstance(b, ColRef) and isinstance(a, Const):
        col_ref, const, op = b, a.value, _FLIP[op]
    else:
        return None
    col = chunk.column(col_ref.cid)
    if isinstance(col, DictVector):
        return _select_dict(col, op, const)
    if isinstance(col, (IntVector, FloatVector)):
        return _select_typed(col, op, const)
    return None


def _select_dict(col: DictVector, op: str, const):
    codes = col.codes
    n = len(codes)
    if const is None:
        return [], 0  # comparison with NULL is never TRUE
    dictionary = col.dictionary
    if op == "=" or op == "<>":
        index = col.index()
        if len(index) < len(dictionary):
            # Transformed dictionaries may hold ==-equal duplicates (e.g.
            # ``col * 0``); a single looked-up code would miss the others.
            return None
        try:
            code = index.get(const)
        except TypeError:  # unhashable const: row path raises the real error
            return None
        if op == "=":
            if code is None:
                return [], n
            return [i for i, c in enumerate(codes) if c == code], n
        if code is None:
            return [i for i, c in enumerate(codes) if c >= 0], n
        return [i for i, c in enumerate(codes) if c >= 0 and c != code], n
    if not col.sorted_dict:
        return None  # ranges need a value-ordered dictionary
    try:
        if op == "<":
            hi = bisect_left(dictionary, const)
            return [i for i, c in enumerate(codes) if 0 <= c < hi], n
        if op == "<=":
            hi = bisect_right(dictionary, const)
            return [i for i, c in enumerate(codes) if 0 <= c < hi], n
        if op == ">":
            lo = bisect_right(dictionary, const)
            return [i for i, c in enumerate(codes) if c >= lo], n
        lo = bisect_left(dictionary, const)
        return [i for i, c in enumerate(codes) if c >= lo], n
    except TypeError:
        return None  # incomparable types: the row path raises TypeCheckError


def _select_typed(col, op: str, const):
    if const is None:
        return [], 0
    data = col.data
    nulls = col.nulls or frozenset()
    n = len(data)
    try:
        if op == "=":
            sel = [i for i, v in enumerate(data) if v == const]
        elif op == "<>":
            sel = [i for i, v in enumerate(data) if v != const]
        elif op == "<":
            sel = [i for i, v in enumerate(data) if v < const]
        elif op == "<=":
            sel = [i for i, v in enumerate(data) if v <= const]
        elif op == ">":
            sel = [i for i, v in enumerate(data) if v > const]
        else:
            sel = [i for i, v in enumerate(data) if v >= const]
    except TypeError:
        return None  # incomparable types: the row path raises TypeCheckError
    if nulls:
        sel = [i for i in sel if i not in nulls]
    return sel, n


# ---------------------------------------------------------------------------
# arithmetic kernels (dictionary / typed-buffer transforms)
# ---------------------------------------------------------------------------


def try_evaluate(expr, chunk):
    """Whole-column result for ``col <op> const`` arithmetic, or None."""
    tally = active()
    if tally is None:
        return None
    if not (
        isinstance(expr, Call) and expr.op in _ARITH_OPS and len(expr.args) == 2
    ):
        return None
    a, b = expr.args
    if isinstance(a, ColRef) and isinstance(b, Const):
        col_ref, const, reversed_args = a, b.value, False
    elif isinstance(b, ColRef) and isinstance(a, Const):
        col_ref, const, reversed_args = b, a.value, True
    else:
        return None
    col = chunk.column(col_ref.cid)
    if not isinstance(col, DictVector):
        return None
    start = _perf_counter()
    result = _dict_transform(col, expr.op, const, reversed_args)
    if result is None:
        return None
    _record(tally, _perf_counter() - start, len(col), 0)
    return result


def _arith_pair(op: str, a, b):
    """One arithmetic application with the row path's exact semantics."""
    try:
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            return a / b
        return a % b
    except (ZeroDivisionError, decimal.DivisionByZero, decimal.InvalidOperation):
        raise ExecutionError("division by zero") from None


def _dict_transform(col: DictVector, op: str, const, reversed_args: bool):
    codes = col.codes
    if const is None:
        return [None] * len(codes)  # NULL operand: all-NULL column
    transformed: list = []
    errors: dict[int, Exception] = {}
    for position, value in enumerate(col.dictionary):
        try:
            if reversed_args:
                transformed.append(_arith_pair(op, const, value))
            else:
                transformed.append(_arith_pair(op, value, const))
        except Exception as exc:  # raise only if a live code references it
            transformed.append(None)
            errors[position] = exc
    if errors:
        for code in codes:
            if code in errors:
                raise errors[code]
    # Arithmetic can reorder/collide values; the derived dictionary makes
    # no sortedness claim and gets a fresh lazy index.
    return DictVector(transformed, codes, False, None)
