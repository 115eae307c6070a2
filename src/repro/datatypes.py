"""SQL type system.

The engine supports a compact but realistic set of SQL types sufficient for
TPC-H-style and S/4-style schemas:

- ``INTEGER`` / ``BIGINT`` — Python ``int``
- ``DECIMAL(p, s)``        — Python :class:`decimal.Decimal` (exact; rounding
  semantics matter for the paper's §7.1 precision-loss experiments)
- ``DOUBLE``               — Python ``float``
- ``VARCHAR(n)``           — Python ``str``
- ``DATE``                 — :class:`datetime.date`
- ``BOOLEAN``              — Python ``bool``

SQL ``NULL`` is represented by Python ``None`` everywhere in the engine.

Types are value objects (frozen dataclasses) compared structurally, which the
binder relies on when unifying branches of ``UNION ALL`` and ``CASE``.
"""

from __future__ import annotations

import datetime
import decimal
from dataclasses import dataclass
from enum import Enum

from .errors import TypeCheckError


class TypeKind(Enum):
    """Enumeration of the supported SQL type families."""

    INTEGER = "INTEGER"
    BIGINT = "BIGINT"
    DECIMAL = "DECIMAL"
    DOUBLE = "DOUBLE"
    VARCHAR = "VARCHAR"
    DATE = "DATE"
    BOOLEAN = "BOOLEAN"


_NUMERIC_KINDS = {TypeKind.INTEGER, TypeKind.BIGINT, TypeKind.DECIMAL, TypeKind.DOUBLE}

# Widening order used when unifying numeric operands.
_NUMERIC_RANK = {
    TypeKind.INTEGER: 0,
    TypeKind.BIGINT: 1,
    TypeKind.DECIMAL: 2,
    TypeKind.DOUBLE: 3,
}


@dataclass(frozen=True)
class DataType:
    """A concrete SQL type, e.g. ``DECIMAL(15, 2)`` or ``VARCHAR(30)``.

    ``precision``/``scale`` apply to ``DECIMAL``; ``length`` applies to
    ``VARCHAR``.  All other kinds carry no parameters.
    """

    kind: TypeKind
    precision: int | None = None
    scale: int | None = None
    length: int | None = None

    def __str__(self) -> str:
        if self.kind is TypeKind.DECIMAL:
            return f"DECIMAL({self.precision}, {self.scale})"
        if self.kind is TypeKind.VARCHAR and self.length is not None:
            return f"VARCHAR({self.length})"
        return self.kind.value

    @property
    def is_numeric(self) -> bool:
        return self.kind in _NUMERIC_KINDS

    @property
    def python_type(self) -> type:
        """The Python class of every non-NULL value of this type (the
        module docstring's table); :meth:`validate` returns one."""
        return _PYTHON_TYPES[self.kind]

    def validate(self, value: object) -> object:
        """Coerce ``value`` into this type's Python representation.

        Raises :class:`TypeCheckError` when the value cannot represent this
        type.  ``None`` always passes through (SQL NULL is untyped).
        """
        if value is None:
            return None
        try:
            return _COERCERS[self.kind](self, value)
        except (ValueError, TypeError, decimal.InvalidOperation) as exc:
            raise TypeCheckError(f"cannot coerce {value!r} to {self}") from exc


def _coerce_int(_ty: DataType, value: object) -> int:
    if isinstance(value, bool):
        raise TypeCheckError(f"cannot coerce boolean {value!r} to integer")
    if isinstance(value, int):
        return value
    if isinstance(value, (str, decimal.Decimal)):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise TypeCheckError(f"cannot coerce {value!r} to integer")


def _coerce_decimal(ty: DataType, value: object) -> decimal.Decimal:
    if isinstance(value, bool):
        raise TypeCheckError(f"cannot coerce boolean {value!r} to decimal")
    dec = value if isinstance(value, decimal.Decimal) else decimal.Decimal(str(value))
    if ty.scale is not None:
        quantum = decimal.Decimal(1).scaleb(-ty.scale)
        dec = dec.quantize(quantum, rounding=decimal.ROUND_HALF_UP)
    return dec


def _coerce_double(_ty: DataType, value: object) -> float:
    if isinstance(value, bool):
        raise TypeCheckError(f"cannot coerce boolean {value!r} to double")
    return float(value)  # type: ignore[arg-type]


def _coerce_varchar(ty: DataType, value: object) -> str:
    text = value if isinstance(value, str) else str(value)
    if ty.length is not None and len(text) > ty.length:
        raise TypeCheckError(f"value {text!r} exceeds VARCHAR({ty.length})")
    return text


def _coerce_date(_ty: DataType, value: object) -> datetime.date:
    if isinstance(value, datetime.datetime):
        return value.date()
    if isinstance(value, datetime.date):
        return value
    if isinstance(value, str):
        return datetime.date.fromisoformat(value)
    raise TypeCheckError(f"cannot coerce {value!r} to date")


def _coerce_bool(_ty: DataType, value: object) -> bool:
    if isinstance(value, bool):
        return value
    raise TypeCheckError(f"cannot coerce {value!r} to boolean")


_COERCERS = {
    TypeKind.INTEGER: _coerce_int,
    TypeKind.BIGINT: _coerce_int,
    TypeKind.DECIMAL: _coerce_decimal,
    TypeKind.DOUBLE: _coerce_double,
    TypeKind.VARCHAR: _coerce_varchar,
    TypeKind.DATE: _coerce_date,
    TypeKind.BOOLEAN: _coerce_bool,
}


_PYTHON_TYPES = {
    TypeKind.INTEGER: int,
    TypeKind.BIGINT: int,
    TypeKind.DECIMAL: decimal.Decimal,
    TypeKind.DOUBLE: float,
    TypeKind.VARCHAR: str,
    TypeKind.DATE: datetime.date,
    TypeKind.BOOLEAN: bool,
}


# Convenience singletons for the common parameterless shapes.
INTEGER = DataType(TypeKind.INTEGER)
BIGINT = DataType(TypeKind.BIGINT)
DOUBLE = DataType(TypeKind.DOUBLE)
DATE = DataType(TypeKind.DATE)
BOOLEAN = DataType(TypeKind.BOOLEAN)


def decimal_type(precision: int = 15, scale: int = 2) -> DataType:
    """Build a ``DECIMAL(precision, scale)`` type."""
    return DataType(TypeKind.DECIMAL, precision=precision, scale=scale)


def varchar(length: int | None = None) -> DataType:
    """Build a ``VARCHAR(length)`` type (unbounded when ``length`` is None)."""
    return DataType(TypeKind.VARCHAR, length=length)


def common_super_type(left: DataType, right: DataType) -> DataType:
    """Unify two types for arithmetic, comparison, UNION, and CASE branches.

    Numeric types widen along INTEGER -> BIGINT -> DECIMAL -> DOUBLE.  Equal
    kinds unify to the wider parameterization.  Anything else is an error.
    """
    if left.kind == right.kind:
        if left.kind is TypeKind.DECIMAL:
            return DataType(
                TypeKind.DECIMAL,
                precision=max(left.precision or 0, right.precision or 0) or None,
                scale=max(left.scale or 0, right.scale or 0),
            )
        if left.kind is TypeKind.VARCHAR:
            if left.length is None or right.length is None:
                return varchar(None)
            return varchar(max(left.length, right.length))
        return left
    if left.is_numeric and right.is_numeric:
        winner = left if _NUMERIC_RANK[left.kind] >= _NUMERIC_RANK[right.kind] else right
        if winner.kind is TypeKind.DECIMAL:
            # Widening an int into a decimal keeps the decimal's parameters.
            return winner
        return DataType(winner.kind)
    raise TypeCheckError(f"incompatible types: {left} vs {right}")


def type_of_literal(value: object) -> DataType:
    """Infer the SQL type of a Python literal value."""
    if isinstance(value, bool):
        return BOOLEAN
    if isinstance(value, int):
        return BIGINT if abs(value) > 2**31 - 1 else INTEGER
    if isinstance(value, decimal.Decimal):
        exponent = value.as_tuple().exponent
        scale = -exponent if isinstance(exponent, int) and exponent < 0 else 0
        return decimal_type(precision=max(len(value.as_tuple().digits), scale + 1), scale=scale)
    if isinstance(value, float):
        return DOUBLE
    if isinstance(value, str):
        return varchar(None)
    if isinstance(value, datetime.date):
        return DATE
    if value is None:
        # NULL literal: callers treat this as "unknown"; VARCHAR is the
        # traditional default and unifies with nothing harmful.
        return varchar(None)
    raise TypeCheckError(f"unsupported literal {value!r}")
