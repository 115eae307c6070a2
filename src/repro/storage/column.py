"""Columnar fragments: dictionary-encoded main + append-only delta.

The main fragment stores each column as a sorted dictionary of distinct
values plus an integer code vector (NULL is code ``-1``).  The delta fragment
is a plain append list.  ``delta merge`` rebuilds the main fragment from both
(the table orchestrates the merge across all of its columns so row ids stay
aligned).

The layout mirrors the paper's description of SAP HANA's column store (§2.2)
closely enough that the experiments exercise the same trade-offs: reads scan
a compressed main plus a small uncompressed delta; merges are periodic and
rebuild dictionaries.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Iterator

from ..vectors import DictVector


BLOCK_ROWS = 1024


class MainFragment:
    """Read-optimized, dictionary-encoded storage for one column."""

    __slots__ = ("dictionary", "codes", "_index", "_zone_map")

    def __init__(self, values: Iterable[object] = ()):
        materialized = list(values)
        # Storage validates every value into its column's one Python type,
        # so the dictionary is value-ordered: range kernels bisect it and
        # compare raw codes.
        distinct = sorted({v for v in materialized if v is not None})
        self.dictionary: list[object] = distinct
        self._index: dict[object, int] = {v: i for i, v in enumerate(distinct)}
        self.codes = array("q", (self._encode(v) for v in materialized))
        self._zone_map: list[tuple[object, object, bool]] | None = None

    def _encode(self, value: object) -> int:
        return -1 if value is None else self._index[value]

    def __len__(self) -> int:
        return len(self.codes)

    def get(self, row: int) -> object:
        code = self.codes[row]
        return None if code < 0 else self.dictionary[code]

    def values(self) -> list[object]:
        """Decode the full fragment (vectorized via a local dictionary ref)."""
        dictionary = self.dictionary
        return [None if code < 0 else dictionary[code] for code in self.codes]

    def values_range(self, start: int, stop: int) -> list[object]:
        """Decode rows ``[start, stop)`` — the batched-scan fast path."""
        dictionary = self.dictionary
        return [None if code < 0 else dictionary[code] for code in self.codes[start:stop]]

    def distinct_count(self) -> int:
        return len(self.dictionary)

    def zone_map(self) -> list[tuple[object, object, bool]]:
        """Per-block (min, max, has_null) statistics over ``BLOCK_ROWS``-row
        blocks.  Because the dictionary is sorted, block min/max reduce to
        min/max over *codes* — no value decoding required."""
        if self._zone_map is None:
            zones: list[tuple[object, object, bool]] = []
            dictionary = self.dictionary
            for start in range(0, len(self.codes), BLOCK_ROWS):
                block = self.codes[start:start + BLOCK_ROWS]
                has_null = False
                low_code: int | None = None
                high_code: int | None = None
                for code in block:
                    if code < 0:
                        has_null = True
                        continue
                    if low_code is None or code < low_code:
                        low_code = code
                    if high_code is None or code > high_code:
                        high_code = code
                if low_code is None:
                    zones.append((None, None, has_null))
                else:
                    zones.append((dictionary[low_code], dictionary[high_code], has_null))
            self._zone_map = zones
        return self._zone_map

    def memory_codes_bytes(self) -> int:
        """Approximate compressed size of the code vector, for introspection."""
        return self.codes.itemsize * len(self.codes)


class DeltaFragment:
    """Write-optimized, uncompressed append-only storage for one column."""

    __slots__ = ("values",)

    def __init__(self) -> None:
        self.values: list[object] = []

    def append(self, value: object) -> None:
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.values)

    def get(self, row: int) -> object:
        return self.values[row]


class ColumnFragments:
    """Main + delta pair for one column; rows are addressed globally.

    Row ids ``0 .. len(main)-1`` live in the main fragment; ids beyond that
    live in the delta at offset ``row - len(main)``.
    """

    __slots__ = ("main", "delta")

    def __init__(self, values: Iterable[object] = ()):
        self.main = MainFragment(values)
        self.delta = DeltaFragment()

    def __len__(self) -> int:
        return len(self.main) + len(self.delta)

    def append(self, value: object) -> None:
        self.delta.append(value)

    def get(self, row: int) -> object:
        main_len = len(self.main)
        if row < main_len:
            return self.main.get(row)
        return self.delta.get(row - main_len)

    def values(self) -> list[object]:
        return self.main.values() + list(self.delta.values)

    def get_range(self, start: int, stop: int) -> list[object]:
        """Decode the contiguous global row range ``[start, stop)``."""
        main_len = len(self.main)
        out: list[object] = []
        if start < main_len:
            out = self.main.values_range(start, min(stop, main_len))
        if stop > main_len:
            out.extend(self.delta.values[max(start - main_len, 0):stop - main_len])
        return out

    def get_many(self, row_ids) -> list[object]:
        """Decode an arbitrary list of global row ids (pruned/MVCC scans)."""
        main = self.main
        main_len = len(main)
        codes = main.codes
        dictionary = main.dictionary
        delta = self.delta.values
        out: list[object] = []
        for row in row_ids:
            if row < main_len:
                code = codes[row]
                out.append(None if code < 0 else dictionary[code])
            else:
                out.append(delta[row - main_len])
        return out

    def get_range_vector(self, start: int, stop: int):
        """Like :meth:`get_range`, but rows wholly inside the main fragment
        come back as a :class:`DictVector` sharing the fragment's dictionary
        and value index — no decoding.  Ranges touching the delta (or pure
        delta ranges) fall back to object lists."""
        main = self.main
        main_len = len(main)
        if stop <= main_len:
            return DictVector(main.dictionary, main.codes[start:stop], index=main._index)
        if start >= main_len:
            return self.delta.values[start - main_len:stop - main_len]
        return self.get_range(start, stop)

    def get_many_vector(self, row_ids):
        """Like :meth:`get_many`, but stays dictionary-coded (a pure code
        gather) when every requested row lives in the main fragment."""
        main = self.main
        main_len = len(main)
        codes = main.codes
        if all(row < main_len for row in row_ids):
            return DictVector(
                main.dictionary,
                array("q", (codes[row] for row in row_ids)),
                index=main._index,
            )
        return self.get_many(row_ids)

    def iter_values(self) -> Iterator[object]:
        dictionary = self.main.dictionary
        for code in self.main.codes:
            yield None if code < 0 else dictionary[code]
        yield from self.delta.values

    def merge(self) -> None:
        """Delta merge: rebuild the main fragment over all rows."""
        self.main = MainFragment(self.values())
        self.delta = DeltaFragment()

    @property
    def delta_size(self) -> int:
        return len(self.delta)
