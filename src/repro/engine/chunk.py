"""Columnar batches flowing between operators.

A ``Chunk`` maps cid -> column, where a column is any of the typed
vector forms from :mod:`repro.vectors` (``DictVector`` dictionary codes,
``IntVector``/``FloatVector`` dense buffers) or a plain Python list.
Row-at-a-time consumers index and iterate the columns exactly as before;
vectorized kernels dispatch on the concrete vector class.

Filters apply *selection vectors* lazily: ``select()`` records the kept
row positions against the parent's columns and defers the gather until a
column is actually read, so a chain of filters (or a projection that
drops columns) never copies rows it won't emit.  Reading ``.columns``
materializes any pending selection, which keeps every pre-existing
caller working unchanged.
"""

from __future__ import annotations

from ..vectors import (
    DictVector,
    FloatVector,
    IntVector,
    Vector,
    column_nbytes,
    concat_columns,
    decode_column,
    pad_take_column,
    slice_column,
    take_column,
)

__all__ = [
    "Chunk",
    "DictVector",
    "IntVector",
    "FloatVector",
    "Vector",
    "column_nbytes",
    "concat_columns",
    "decode_column",
    "pad_take_column",
    "slice_column",
    "take_column",
]


class Chunk:
    """A materialized columnar result: cid -> column vector or value list.

    ``row_count`` is explicit so zero-column results (e.g. the input of a
    bare ``COUNT(*)`` after full pruning) still carry cardinality.
    """

    __slots__ = ("_cols", "_base", "_sel", "row_count")

    def __init__(self, columns: dict, row_count: int):
        self._cols = columns
        self._base = None
        self._sel = None
        self.row_count = row_count

    @classmethod
    def empty(cls, cids: list[int] | None = None) -> "Chunk":
        return cls({cid: [] for cid in (cids or [])}, 0)

    @classmethod
    def concat(cls, chunks: "list[Chunk]") -> "Chunk":
        """Concatenate one or more batches into one chunk.

        ``row_count`` is summed independently of the column dicts so
        zero-column batches (a fully-pruned ``COUNT(*)`` input) keep their
        cardinality through the batch pipeline.  Same-dictionary code
        vectors merge without decoding.
        """
        if len(chunks) == 1:
            return chunks[0]
        pieces: dict[int, list] = {
            cid: [col] for cid, col in chunks[0].columns.items()
        }
        total = chunks[0].row_count
        for chunk in chunks[1:]:
            for cid, col in chunk.columns.items():
                pieces[cid].append(col)
            total += chunk.row_count
        return cls({cid: concat_columns(ps) for cid, ps in pieces.items()}, total)

    # -- column access ----------------------------------------------------

    @property
    def columns(self) -> dict:
        """cid -> column, materializing any pending selection."""
        if self._sel is not None:
            sel, base, cols = self._sel, self._base, self._cols
            for cid, col in base.items():
                if cid not in cols:
                    cols[cid] = take_column(col, sel)
            self._sel = None
            self._base = None
        return self._cols

    def column_ids(self):
        """Column ids without materializing a pending selection."""
        return (self._base if self._sel is not None else self._cols).keys()

    def column(self, cid: int):
        if self._sel is None:
            return self._cols[cid]
        col = self._cols.get(cid)
        if col is None:
            col = take_column(self._base[cid], self._sel)
            self._cols[cid] = col
        return col

    # -- row selection ----------------------------------------------------

    def select(self, indices: list[int]) -> "Chunk":
        """Lazy row selection: the gather runs when a column is read."""
        if self._sel is None:
            base = self._cols
        else:
            sel = self._sel
            base = self._base
            indices = [sel[i] for i in indices]
        out = Chunk.__new__(Chunk)
        out._cols = {}
        out._base = base
        out._sel = indices
        out.row_count = len(indices)
        return out

    def take(self, indices: list[int]) -> "Chunk":
        """Row selection by position."""
        return self.select(indices)

    def slice(self, start: int, stop: int | None) -> "Chunk":
        stop = self.row_count if stop is None else min(stop, self.row_count)
        start = min(start, self.row_count)
        if self._sel is not None:
            out = Chunk.__new__(Chunk)
            out._cols = {}
            out._base = self._base
            out._sel = self._sel[start:stop]
            out.row_count = max(0, stop - start)
            return out
        return Chunk(
            {cid: slice_column(col, start, stop) for cid, col in self._cols.items()},
            max(0, stop - start),
        )

    def rows(self, cids: list[int]) -> list[tuple]:
        cols = [self.column(cid) for cid in cids]
        return list(zip(*cols)) if cols else [() for _ in range(self.row_count)]

    # -- accounting -------------------------------------------------------

    def estimated_bytes(self) -> int:
        """Size estimate for memory accounting.

        Typed vectors are measured exactly (code/typed buffers, shared
        dictionaries charged as a pointer); object-list columns keep the
        historical first-8-rows sampling so the call stays O(columns).
        """
        total = 64  # the column dict itself
        for cid in self.column_ids():
            total += column_nbytes(self.column(cid))
        return total

    def __repr__(self) -> str:
        state = "lazy" if self._sel is not None else "materialized"
        return (
            f"Chunk(rows={self.row_count}, "
            f"cids={sorted(self.column_ids())}, {state})"
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Chunk):
            return NotImplemented
        if self.row_count != other.row_count:
            return False
        if set(self.column_ids()) != set(other.column_ids()):
            return False
        return all(
            decode_column(self.column(cid)) == decode_column(other.column(cid))
            for cid in self.column_ids()
        )

    __hash__ = None
