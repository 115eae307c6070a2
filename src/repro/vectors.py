"""Typed column vectors: the engine's batch data currency.

A column inside a :class:`repro.engine.chunk.Chunk` is one of:

``list``          plain values — DML staging, computed columns that no
                  typed vector holds (Decimal, str, dates), and every
                  value that came out of the delta fragment;
``DictVector``    dictionary-coded values: a *shared* (never copied)
                  dictionary reference plus an ``array('q')`` code vector,
                  NULL = code ``-1`` — what :class:`MainFragment` scans
                  emit without decoding;
``IntVector``     ``array('q')`` integers with an optional null-position
                  set (``-1`` is a legal value, so validity is explicit);
``FloatVector``   ``array('d')`` floats, same validity scheme.

Whatever the form, every non-NULL value of a column has the Python type
of the column's declared SQL type (:attr:`repro.datatypes.DataType.
python_type`): storage validates what it stores, and the binder casts
where two types meet.

All vectors satisfy a small sequence protocol (``len``/``[]``/iteration/
``==`` against plain lists) so row-at-a-time code keeps working unchanged;
the vectorized kernels (:mod:`repro.engine.kernels`) dispatch on the
concrete class to operate on whole code/typed buffers instead.

This module is intentionally dependency-free: both the storage layer
(which produces vectors) and the engine (which consumes them) import it,
and neither may drag the other in.
"""

from __future__ import annotations

import sys
from array import array


class DictVector:
    """Dictionary-coded column: shared dictionary ref + ``array('q')`` codes.

    ``dictionary`` is shared by reference with the owning main fragment
    (or with a sibling vector after a dictionary-transform kernel) — the
    vector never copies it, so a thousand batches over one fragment cost
    one dictionary.  Code ``-1`` is NULL.

    ``sorted_dict`` is True when the dictionary is value-sorted (every
    main fragment's is), which is what lets range predicates compare raw
    codes against a bisected threshold; a dictionary derived by an
    arithmetic kernel makes no such claim.
    """

    __slots__ = ("dictionary", "codes", "sorted_dict", "_index")

    def __init__(
        self,
        dictionary: list,
        codes: "array[int]",
        sorted_dict: bool = True,
        index: dict | None = None,
    ):
        self.dictionary = dictionary
        self.codes = codes
        self.sorted_dict = sorted_dict
        # value -> code; built lazily, shared across derived vectors.
        self._index = index

    def index(self) -> dict:
        if self._index is None:
            self._index = {v: i for i, v in enumerate(self.dictionary)}
        return self._index

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, i: int):
        code = self.codes[i]
        return None if code < 0 else self.dictionary[code]

    def __iter__(self):
        dictionary = self.dictionary
        for code in self.codes:
            yield None if code < 0 else dictionary[code]

    def __eq__(self, other) -> bool:
        if isinstance(other, DictVector):
            if self.dictionary is other.dictionary:
                return self.codes == other.codes
            return self.tolist() == other.tolist()
        if isinstance(other, (list, tuple)):
            return self.tolist() == list(other)
        return NotImplemented

    __hash__ = None  # mutable container semantics, like list

    def __repr__(self) -> str:
        return f"DictVector({self.tolist()!r})"

    def tolist(self) -> list:
        dictionary = self.dictionary
        return [None if code < 0 else dictionary[code] for code in self.codes]

    def take(self, indices) -> "DictVector":
        codes = self.codes
        return DictVector(
            self.dictionary,
            array("q", [codes[i] for i in indices]),
            self.sorted_dict,
            self._index,
        )

    def slice(self, start: int, stop: int) -> "DictVector":
        return DictVector(
            self.dictionary, self.codes[start:stop], self.sorted_dict, self._index
        )

    def nbytes(self) -> int:
        """Exact buffer size.  The dictionary is shared with the fragment
        (one copy per table, not per batch) so only a pointer is charged."""
        return sys.getsizeof(self.codes) + 16


class _TypedVector:
    """Shared machinery for null-aware fixed-width vectors."""

    __slots__ = ("data", "nulls")
    typecode = "q"

    def __init__(self, values=(), nulls: "set[int] | None" = None):
        if isinstance(values, array):
            self.data = values
            self.nulls = nulls or None
        else:
            data = array(self.typecode)
            found_nulls: set[int] = set()
            for i, v in enumerate(values):
                if v is None:
                    found_nulls.add(i)
                    data.append(0)
                else:
                    data.append(v)
            self.data = data
            self.nulls = found_nulls or None

    def __len__(self) -> int:
        return len(self.data)

    def __getitem__(self, i: int):
        if self.nulls is not None and (i if i >= 0 else len(self.data) + i) in self.nulls:
            return None
        return self.data[i]

    def __iter__(self):
        nulls = self.nulls
        if nulls is None:
            yield from self.data
        else:
            for i, v in enumerate(self.data):
                yield None if i in nulls else v

    def __eq__(self, other) -> bool:
        if isinstance(other, _TypedVector):
            return self.tolist() == other.tolist()
        if isinstance(other, (list, tuple)):
            return self.tolist() == list(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.tolist()!r})"

    def tolist(self) -> list:
        nulls = self.nulls
        if nulls is None:
            return list(self.data)
        return [None if i in nulls else v for i, v in enumerate(self.data)]

    def take(self, indices):
        data = self.data
        nulls = self.nulls
        out = array(self.typecode, [data[i] for i in indices])
        if nulls is None:
            return type(self)(out)
        new_nulls = {pos for pos, i in enumerate(indices) if i in nulls}
        return type(self)(out, new_nulls or None)

    def slice(self, start: int, stop: int):
        out = self.data[start:stop]
        nulls = self.nulls
        if nulls is None:
            return type(self)(out)
        new_nulls = {i - start for i in nulls if start <= i < stop}
        return type(self)(out, new_nulls or None)

    def nbytes(self) -> int:
        total = sys.getsizeof(self.data) + 16
        if self.nulls is not None:
            total += 32 * len(self.nulls) + 64
        return total


class IntVector(_TypedVector):
    """Dense 64-bit integer column (``array('q')``) with explicit nulls."""

    __slots__ = ()
    typecode = "q"


class FloatVector(_TypedVector):
    """Dense 64-bit float column (``array('d')``) with explicit nulls."""

    __slots__ = ()
    typecode = "d"


Vector = (DictVector, IntVector, FloatVector)


# ---------------------------------------------------------------------------
# column algebra shared by Chunk and the physical operators
# ---------------------------------------------------------------------------


def decode_column(col) -> list:
    """A plain value list, whatever the column representation."""
    if isinstance(col, list):
        return col
    return col.tolist() if isinstance(col, Vector) else list(col)


def take_column(col, indices):
    """Row selection by position, preserving the column representation."""
    if isinstance(col, list):
        return [col[i] for i in indices]
    return col.take(indices)


def pad_take_column(col, indices):
    """Like :func:`take_column`, but a negative index yields NULL (the
    outer-join null-extension convention).  Dictionary vectors stay coded:
    ``-1`` already *is* their NULL."""
    if isinstance(col, DictVector):
        codes = col.codes
        return DictVector(
            col.dictionary,
            array("q", [codes[j] if j >= 0 else -1 for j in indices]),
            col.sorted_dict,
            col._index,
        )
    return [None if j < 0 else col[j] for j in indices]


def slice_column(col, start: int, stop: int):
    if isinstance(col, list):
        return col[start:stop]
    return col.slice(start, stop)


def concat_columns(columns: list):
    """Concatenate column pieces, keeping the typed form when compatible.

    Dictionary vectors merge code buffers only while every piece shares
    the *same* dictionary object (the per-fragment invariant); any
    mismatch decodes to an object list.
    """
    if len(columns) == 1:
        return columns[0]
    first = columns[0]
    if isinstance(first, DictVector) and all(
        isinstance(c, DictVector) and c.dictionary is first.dictionary
        for c in columns[1:]
    ):
        codes = array("q")
        for c in columns:
            codes.extend(c.codes)
        return DictVector(first.dictionary, codes, first.sorted_dict, first._index)
    if isinstance(first, _TypedVector) and all(
        type(c) is type(first) for c in columns[1:]
    ):
        data = array(first.typecode)
        nulls: set[int] = set()
        offset = 0
        for c in columns:
            data.extend(c.data)
            if c.nulls is not None:
                nulls.update(i + offset for i in c.nulls)
            offset += len(c.data)
        return type(first)(data, nulls or None)
    out: list = []
    for c in columns:
        out.extend(decode_column(c))
    return out


def maybe_typed(values: list, python_type: type):
    """Pack a column of ``int`` or ``float`` values (NULLs allowed) into a
    typed vector; a column of another type, or one holding an int out of
    64-bit range, stays an object list."""
    try:
        if python_type is int:
            return IntVector(values)
        if python_type is float:
            return FloatVector(values)
    except OverflowError:
        pass
    return values


def column_nbytes(col) -> int:
    """Exact size for typed vectors; sampled estimate for object lists.

    Object lists keep the historical first-8-rows sampling (walking whole
    columns would break the O(columns) estimated-bytes contract); typed
    buffers are measured exactly — small dictionary codes no longer get
    billed as full decoded Python objects.
    """
    if isinstance(col, Vector):
        return col.nbytes()
    per_value = 0
    for value in col[:8]:
        if value is not None:
            per_value = sys.getsizeof(value)
            break
    return 56 + (8 + per_value) * len(col)
