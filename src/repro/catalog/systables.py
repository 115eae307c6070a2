"""Virtual system tables: read-only views over live engine state.

A :class:`SysTable` is catalog-registered under the reserved ``sys.``
namespace and duck-types just enough of
:class:`repro.storage.table.ColumnTable` for the planner and the streaming
executor to treat it like any user table: it binds to a ``Scan``, feeds
the cost model row/distinct estimates, and streams through
``read_column_batches`` in ``batch_size`` chunks.  Rows are produced by a
``rows_fn`` closure at *open* time — each scan sees one consistent
materialization of the underlying ring buffer / registry, regardless of
how many batches it is streamed in.

Storage-only machinery (MVCC visibility, zone maps, delta merge, the WAL)
does not apply: ``is_virtual`` marks the table so the scan operator skips
block pruning, and ``read_only`` makes DML against it fail cleanly.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

from ..errors import ExecutionError
from .schema import TableSchema

SYS_PREFIX = "sys."


def _typed(value: object, data_type) -> object:
    if value is None or type(value) is data_type.python_type:
        return value
    return data_type.validate(value)


class SysTable:
    """One virtual table over engine state.

    ``rows_fn`` returns the current rows as sequences in schema column
    order; it is invoked once per scan open.  A scan coerces each value
    of another Python type than its column's declared one (an ``int``
    under ``DOUBLE``, say), so producers need not.
    """

    is_virtual = True
    read_only = True

    def __init__(self, schema: TableSchema, rows_fn: Callable[[], list[Sequence[object]]]):
        if not schema.name.startswith(SYS_PREFIX):
            raise ValueError(f"system table {schema.name!r} must live under {SYS_PREFIX!r}")
        self.schema = schema
        self._rows_fn = rows_fn
        self._positions = {c.name: i for i, c in enumerate(schema.columns)}

    def __len__(self) -> int:
        return len(self._rows_fn())

    def rows(self) -> list[Sequence[object]]:
        """The current contents (test/debug convenience)."""
        return list(self._rows_fn())

    # -- the scan surface (mirrors ColumnTable) --------------------------------

    def read_column_batches(
        self,
        txn,
        names: Sequence[str],
        batch_size: int,
        row_ids=None,
        vectorized: bool = False,
    ) -> Iterator[tuple[list[list[object]], int]]:
        # ``vectorized`` is accepted for scan-surface parity; system tables
        # materialize row tuples on demand, so there is no coded form to keep.
        rows = self._rows_fn()
        if row_ids is not None:
            rows = [rows[i] for i in row_ids]
        positions = [self._positions[name] for name in names]
        types = [self.schema.columns[p].data_type for p in positions]
        total = len(rows)
        batch_size = max(1, batch_size)
        for start in range(0, total, batch_size):
            batch = rows[start:start + batch_size]
            columns = [
                [_typed(row[p], ty) for row in batch]
                for p, ty in zip(positions, types)
            ]
            yield columns, len(batch)

    def visible_row_ids(self, txn) -> range:
        return range(len(self._rows_fn()))

    # -- cost-model hooks -------------------------------------------------------

    def estimated_row_count(self) -> int:
        return len(self._rows_fn())

    def estimated_distinct(self, column: str) -> int:
        # Virtual contents churn per query; a row-count-bounded guess keeps
        # the cost model finite without materializing the buffer twice.
        return max(1, len(self._rows_fn()))

    # -- write surface: always refused ------------------------------------------

    def _refuse(self, operation: str):
        raise ExecutionError(
            f"{self.schema.name} is a read-only system table ({operation} refused)"
        )

    def insert(self, *args, **kwargs):
        self._refuse("INSERT")

    def update_row(self, *args, **kwargs):
        self._refuse("UPDATE")

    def delete_row(self, *args, **kwargs):
        self._refuse("DELETE")

    def bulk_load(self, *args, **kwargs):
        self._refuse("bulk load")

    def merge_delta(self) -> None:
        pass
