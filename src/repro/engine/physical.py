"""Physical operators: streaming batch execution.

The physical plan is compiled from the (bound, optionally optimized)
logical plan by :mod:`repro.optimizer.physical_planner`.  Each operator's
:meth:`PhysicalOp.execute` returns a generator of fixed-size
:class:`~repro.engine.chunk.Chunk` batches, so Scan→Filter→Project→Limit
chains stream end-to-end: peak memory for a pipelined segment is bounded
by ``batch_size`` and LIMIT / EXISTS / semi-join probes short-circuit
uniformly by *closing* the stream, which cascades ``GeneratorExit``
through every upstream operator.

Pipeline breakers (hash build sides, aggregation, sort) consume their
input fully before emitting; everything else forwards batches as they
arrive.  Every stream is wrapped once in :meth:`PhysicalOp._stream`,
which per batch checks the cooperative statement deadline, fires the
``executor.batch`` fault point, bumps ``exec.batches_produced``, tracks
the peak batch size, and records rows/batches/elapsed into the
EXPLAIN ANALYZE collector.
"""

from __future__ import annotations

import decimal
import functools
import heapq
import time
import warnings
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import repeat
from operator import add, ge, gt, le, lt
from typing import Iterator

from ..algebra import ops
from ..algebra.expr import AggCall, Call, ColRef, Expr, referenced_cids
from ..errors import ExecutionError, MemoryBudgetWarning, QueryTimeoutError
from ..vectors import (
    DictVector,
    FloatVector,
    IntVector,
    column_nbytes,
    concat_columns,
    decode_column,
    maybe_typed,
    pad_take_column,
    slice_column,
    take_column,
)
from . import kernels
from .chunk import Chunk
from .eval import _coerce_pair, evaluate, evaluate_predicate

#: Default number of rows per streamed batch.
DEFAULT_BATCH_SIZE = 1024

# Module-level clock binding so tests can advance a fake clock and prove
# the deadline is checked inside the per-batch loop, not per operator.
_now = time.monotonic


class ExecContext:
    """Per-execution state shared by every operator of one physical plan."""

    __slots__ = (
        "catalog", "txn", "batch_size", "deadline", "collector", "faults",
        "tracer", "peak_batch_rows", "m_batches", "m_early",
        "m_blocks_pruned", "m_blocks_scanned", "memory_budget", "m_budget",
        "track_mem", "mem_bytes", "budget_exceeded", "op_bytes",
        "vectorized", "m_topn",
    )

    def __init__(
        self, catalog, txn, *, batch_size: int = DEFAULT_BATCH_SIZE,
        deadline: float | None = None, collector=None, faults=None,
        tracer=None, m_batches=None, m_early=None, m_blocks_pruned=None,
        m_blocks_scanned=None, memory_budget: int | None = None,
        m_budget=None, vectorized: bool = True, m_topn=None,
    ):
        self.catalog = catalog
        self.txn = txn
        self.batch_size = max(1, batch_size)
        self.deadline = deadline
        self.collector = collector
        self.faults = faults
        self.tracer = tracer
        self.m_batches = m_batches
        self.m_early = m_early
        self.m_blocks_pruned = m_blocks_pruned
        self.m_blocks_scanned = m_blocks_scanned
        #: Largest batch produced anywhere in the plan (rows); the executor
        #: observes it into the ``exec.peak_batch_rows`` histogram.
        self.peak_batch_rows = 0
        #: False = the differential row-fallback arm: scans decode to plain
        #: lists and no kernels engage (the executor also skips activating
        #: a KernelTally, which is the actual kernel gate).
        self.vectorized = vectorized
        #: ``exec.topn_heap_evictions`` counter handle (may be None).
        self.m_topn = m_topn
        #: Soft per-query memory budget (estimated bytes); None = unlimited.
        self.memory_budget = memory_budget
        self.m_budget = m_budget
        #: Blocking operators only account their state when someone can see
        #: it (a collector) or enforce it (a budget) — the disabled path
        #: never pays for size estimation.
        self.track_mem = collector is not None or memory_budget is not None
        self.mem_bytes = 0
        self.budget_exceeded = False
        #: id(op) -> peak estimated bytes held by that operator.  Peaks are
        #: monotonic (state is never "released" back), so the query total is
        #: an upper bound: sum of per-operator peaks, not true concurrency.
        self.op_bytes: dict[int, int] = {}

    def track_memory(self, op, nbytes: int) -> None:
        """Record that ``op`` currently holds ~``nbytes`` of state.

        Keeps the per-operator *peak*, feeds the EXPLAIN ANALYZE collector,
        and — when a budget is set — degrades softly on first overshoot:
        one :class:`MemoryBudgetWarning`, one ``exec.memory_budget_exceeded``
        bump, and the query runs to completion.
        """
        key = id(op)
        previous = self.op_bytes.get(key, 0)
        if nbytes <= previous:
            return
        self.op_bytes[key] = nbytes
        self.mem_bytes += nbytes - previous
        collector = self.collector
        if collector is not None:
            collector.record_memory(op, nbytes)
        budget = self.memory_budget
        if (
            budget is not None
            and not self.budget_exceeded
            and self.mem_bytes > budget
        ):
            self.budget_exceeded = True
            if self.m_budget is not None:
                self.m_budget.inc()
            warnings.warn(
                f"query exceeded memory_budget_bytes: ~{self.mem_bytes} "
                f"estimated bytes > {budget} (in {op.name()}); "
                "execution continues",
                MemoryBudgetWarning,
                stacklevel=2,
            )


class PhysicalOp:
    """Base class: one physical operator producing a stream of batches."""

    #: True for pipeline breakers that materialize their input.
    blocking = False
    #: Duck-typed scan marker — ``ExecutionCollector.rows_scanned`` keys on
    #: it without importing this module (avoids an engine↔observability
    #: import cycle).
    is_scan_op = False
    #: Estimated output rows, stamped on every operator by the physical
    #: planner; joined against actual rows to compute the per-operator
    #: Q-error.
    est_rows: float | None = None

    def __init__(self, logical: ops.LogicalOp, children: tuple["PhysicalOp", ...]):
        self.logical = logical
        self.children = children
        #: Exactly the columns this operator's batches carry, derived
        #: bottom-up at plan time: a row-selecting operator passes its
        #: first child's columns through; an operator that builds new
        #: batches sets its own.
        self.output = children[0].output if children else logical.output

    # -- description (EXPLAIN surface) ----------------------------------

    def name(self) -> str:
        return type(self).__name__

    def strategy(self) -> str:
        """A short planner-choice annotation (build side, pruning, ...)."""
        return ""

    def label(self) -> str:
        strategy = self.strategy()
        return f"{self.name()}[{strategy}]" if strategy else self.name()

    def walk(self) -> Iterator["PhysicalOp"]:
        yield self
        for child in self.children:
            yield from child.walk()

    # -- execution ------------------------------------------------------

    def execute(self, ctx: ExecContext) -> Iterator[Chunk]:
        """Open this operator's instrumented batch stream."""
        if ctx.faults is not None:
            ctx.faults.fire("executor.operator", op=self.name())
        if ctx.collector is not None:
            ctx.collector.open_op(self)
        return self._stream(ctx)

    def _stream(self, ctx: ExecContext) -> Iterator[Chunk]:
        inner = self._run(ctx)
        collector = ctx.collector
        faults = ctx.faults
        m_batches = ctx.m_batches
        # Kernel attribution: while this operator's _run body executes,
        # the active tally bills kernels to this op; pulling a child batch
        # nests the child's own save/restore inside ours, so billing stays
        # exclusive per operator.
        tally = kernels.active()
        self_key = id(self)
        try:
            while True:
                if ctx.deadline is not None and _now() > ctx.deadline:
                    raise QueryTimeoutError(
                        f"statement deadline exceeded in {self.name()}"
                    )
                if faults is not None:
                    faults.fire("executor.batch", op=self.name())
                start = time.perf_counter()
                if tally is None:
                    try:
                        chunk = next(inner)
                    except StopIteration:
                        return
                else:
                    previous_op = tally.current_op
                    tally.current_op = self_key
                    try:
                        chunk = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tally.current_op = previous_op
                elapsed = time.perf_counter() - start
                if m_batches is not None:
                    m_batches.inc()
                if chunk.row_count > ctx.peak_batch_rows:
                    ctx.peak_batch_rows = chunk.row_count
                if collector is not None:
                    collector.record(self, chunk.row_count, elapsed)
                yield chunk
        except GeneratorExit:
            # A consumer stopped early (LIMIT satisfied, EXISTS answered).
            if collector is not None:
                collector.mark_early(self)
            if ctx.m_early is not None:
                ctx.m_early.inc()
            raise
        finally:
            inner.close()

    def _run(self, ctx: ExecContext) -> Iterator[Chunk]:
        raise NotImplementedError


def _rebatch(chunk: Chunk, batch_size: int) -> Iterator[Chunk]:
    """Re-emit a materialized chunk as batch_size-row slices."""
    if chunk.row_count <= batch_size:
        if chunk.row_count:
            yield chunk
        return
    for start in range(0, chunk.row_count, batch_size):
        yield chunk.slice(start, start + batch_size)


def _materialize(child: PhysicalOp, ctx: ExecContext) -> Chunk:
    """Drain a child stream into one chunk (pipeline-breaker input)."""
    stream = child.execute(ctx)
    try:
        batches = list(stream)
    finally:
        stream.close()
    if not batches:
        return Chunk.empty([c.cid for c in child.output])
    return Chunk.concat(batches)


# ---------------------------------------------------------------------------
# leaves
# ---------------------------------------------------------------------------


class OneRowExec(PhysicalOp):
    """The FROM-less SELECT source: one row, no columns."""

    def __init__(self, logical: ops.LogicalOp):
        super().__init__(logical, ())

    def name(self) -> str:
        return "OneRow"

    def _run(self, ctx: ExecContext) -> Iterator[Chunk]:
        yield Chunk({}, 1)


class BatchScanExec(PhysicalOp):
    """Batched table scan; optionally zone-map pruned.

    ``wanted`` is fixed at plan time to the columns some ancestor reads.
    ``prune_bounds`` holds plan-time-extracted ``(column, op, const)``
    conjuncts from a Filter parent (set by the planner); at open
    the zone maps of the merged main fragment decide which blocks to skip,
    and the surviving row ids are streamed through the storage batch API so
    block pruning composes with streaming.
    """

    is_scan_op = True

    prune_bounds: tuple = ()

    def __init__(self, logical: ops.Scan, wanted):
        super().__init__(logical, ())
        self.wanted = tuple(wanted)
        self.output = self.wanted

    def name(self) -> str:
        return f"BatchScan({self.logical.schema.name})"

    def strategy(self) -> str:
        parts = [f"cols={len(self.wanted)}"]
        if self.prune_bounds:
            parts.append("zone-map")
        return " ".join(parts)

    def _run(self, ctx: ExecContext) -> Iterator[Chunk]:
        table = ctx.catalog.table(self.logical.schema.name)
        names = [col.name for col in self.wanted]
        cids = [col.cid for col in self.wanted]
        # Virtual system tables have no column-store fragments to zone-map.
        prune = self.prune_bounds and not getattr(table, "is_virtual", False)
        row_ids = self._pruned_row_ids(ctx, table) if prune else None
        for columns, count in table.read_column_batches(
            ctx.txn, names, ctx.batch_size, row_ids=row_ids,
            vectorized=ctx.vectorized,
        ):
            yield Chunk(dict(zip(cids, columns)), count)

    def _pruned_row_ids(self, ctx: ExecContext, table):
        """Zone-map pruning (§2.2 partition-pruning behaviour at block
        granularity): blocks whose min/max cannot satisfy a bound are
        skipped before any value decodes; the (small) delta is always read.
        Returns None when nothing can be pruned — the plain batched scan is
        cheaper then."""
        from ..storage.column import BLOCK_ROWS

        first = table.column(self.logical.schema.columns[0].name)
        main_rows = len(first.main)
        if main_rows == 0:
            return None
        block_count = (main_rows + BLOCK_ROWS - 1) // BLOCK_ROWS
        keep_block = [True] * block_count
        for column_name, operator, value in self.prune_bounds:
            zones = table.column(column_name).main.zone_map()
            for index, (low, high, _has_null) in enumerate(zones):
                if not keep_block[index]:
                    continue
                if low is None:  # all-NULL block never satisfies a comparison
                    keep_block[index] = False
                    continue
                try:
                    if operator == "=" and not (low <= value <= high):
                        keep_block[index] = False
                    elif operator == "<" and not (low < value):
                        keep_block[index] = False
                    elif operator == "<=" and not (low <= value):
                        keep_block[index] = False
                    elif operator == ">" and not (high > value):
                        keep_block[index] = False
                    elif operator == ">=" and not (high >= value):
                        keep_block[index] = False
                except TypeError:
                    continue  # incomparable types: cannot prune on this bound
        if all(keep_block):
            return None
        scanned = sum(keep_block)
        pruned = block_count - scanned
        if ctx.m_blocks_pruned is not None:
            ctx.m_blocks_pruned.inc(pruned)
            ctx.m_blocks_scanned.inc(scanned)
        tracer = ctx.tracer
        if tracer is not None and tracer.enabled:
            tracer.event(
                "nse.block_pruning", table=self.logical.schema.name,
                blocks_pruned=pruned, blocks_scanned=scanned,
            )
        row_ids: list[int] = []
        for index, keep in enumerate(keep_block):
            if keep:
                start = index * BLOCK_ROWS
                row_ids.extend(range(start, min(start + BLOCK_ROWS, main_rows)))
        row_ids.extend(range(main_rows, len(table)))  # the delta, always
        if table._mvcc_dirty:
            created, deleted = table.created_tids, table.deleted_tids
            is_visible = table._txns.is_visible
            row_ids = [
                i for i in row_ids if is_visible(created[i], deleted[i], ctx.txn)
            ]
        return row_ids


# ---------------------------------------------------------------------------
# streaming unary operators
# ---------------------------------------------------------------------------


class FilterExec(PhysicalOp):
    """Streaming row selection; empty post-filter batches are dropped."""

    def __init__(self, logical: ops.Filter, child: PhysicalOp):
        super().__init__(logical, (child,))
        self.predicate = logical.predicate

    def name(self) -> str:
        return "Filter"

    def strategy(self) -> str:
        return str(self.predicate)

    def _run(self, ctx: ExecContext) -> Iterator[Chunk]:
        stream = self.children[0].execute(ctx)
        try:
            for chunk in stream:
                keep = evaluate_predicate(self.predicate, chunk)
                if len(keep) == chunk.row_count:
                    yield chunk
                elif keep:
                    yield chunk.take(keep)
        finally:
            stream.close()


class ProjectExec(PhysicalOp):
    """Streaming projection over the plan-time-pruned item list.

    A zero-item projection (every output dead except cardinality) still
    forwards ``row_count`` — the COUNT(*) pipeline depends on it.
    """

    def __init__(self, logical: ops.Project, child: PhysicalOp, items):
        super().__init__(logical, (child,))
        self.items = tuple(items)
        self.output = tuple(col for col, _ in self.items)

    def name(self) -> str:
        return "Project"

    def strategy(self) -> str:
        return f"{len(self.items)} cols"

    def _run(self, ctx: ExecContext) -> Iterator[Chunk]:
        items = self.items
        stream = self.children[0].execute(ctx)
        try:
            for chunk in stream:
                yield Chunk(
                    {col.cid: evaluate(expr, chunk) for col, expr in items},
                    chunk.row_count,
                )
        finally:
            stream.close()


class LimitExec(PhysicalOp):
    """Streaming LIMIT/OFFSET; closing the child stream on satisfaction is
    what turns the §4.4 pushed-down limit into an early-terminating scan."""

    def __init__(self, logical: ops.Limit, child: PhysicalOp):
        super().__init__(logical, (child,))
        self.limit = logical.limit
        self.offset = logical.offset

    def name(self) -> str:
        return "Limit"

    def strategy(self) -> str:
        offset = f" offset {self.offset}" if self.offset else ""
        return f"{self.limit}{offset}"

    def _run(self, ctx: ExecContext) -> Iterator[Chunk]:
        if self.limit is not None and self.limit <= 0:
            return
        stream = self.children[0].execute(ctx)
        try:
            to_skip = self.offset
            remaining = self.limit
            for chunk in stream:
                if to_skip:
                    if chunk.row_count <= to_skip:
                        to_skip -= chunk.row_count
                        continue
                    chunk = chunk.slice(to_skip, None)
                    to_skip = 0
                if remaining is None:
                    yield chunk
                    continue
                if chunk.row_count >= remaining:
                    yield chunk.slice(0, remaining)
                    return  # closes the child stream: early termination
                remaining -= chunk.row_count
                yield chunk
        finally:
            stream.close()


class DistinctExec(PhysicalOp):
    """Streaming duplicate elimination (the seen-set is the only state)."""

    def __init__(self, logical: ops.Distinct, child: PhysicalOp):
        super().__init__(logical, (child,))

    def name(self) -> str:
        return "Distinct"

    def _run(self, ctx: ExecContext) -> Iterator[Chunk]:
        seen: set[tuple] = set()
        stream = self.children[0].execute(ctx)
        try:
            for chunk in stream:
                cols = [decode_column(chunk.column(c.cid)) for c in self.output]
                keep: list[int] = []
                for i in range(chunk.row_count):
                    key = tuple(col[i] for col in cols)
                    if key not in seen:
                        seen.add(key)
                        keep.append(i)
                if ctx.track_mem:
                    # Rough tuple-key cost; exact sizes would mean walking
                    # every key, which defeats the cheap-estimate contract.
                    ctx.track_memory(self, 64 + 100 * len(seen))
                if len(keep) == chunk.row_count:
                    yield chunk
                elif keep:
                    yield chunk.take(keep)
        finally:
            stream.close()


def _compare_keys(directions, a: tuple, b: tuple) -> int:
    """Three-way ORDER BY comparison of two sort-key tuples: NULLS LAST,
    the row path's ``coerce_pair`` semantics, 0 on a tie.  ``SortExec``
    and TopN's general path both order rows with it."""
    pos = 0  # an index loop: zip() per call makes a full sort ~1.4x slower
    for ascending in directions:
        x = a[pos]
        y = b[pos]
        pos += 1
        if x is None and y is None:
            continue
        if x is None:
            return 1  # NULLS LAST
        if y is None:
            return -1
        x, y = _coerce_pair(x, y)
        if x == y:
            continue
        less = x < y
        if ascending:
            return -1 if less else 1
        return 1 if less else -1
    return 0


class SortExec(PhysicalOp):
    """Pipeline breaker: materialize, sort (NULLS LAST), re-emit batched."""

    blocking = True

    def __init__(self, logical: ops.Sort, child: PhysicalOp):
        super().__init__(logical, (child,))
        self.keys = logical.keys

    def name(self) -> str:
        return "Sort"

    def strategy(self) -> str:
        return ", ".join(
            f"#{k.cid}{'' if k.ascending else ' desc'}" for k in self.keys
        )

    def _run(self, ctx: ExecContext) -> Iterator[Chunk]:
        child = _materialize(self.children[0], ctx)
        if ctx.track_mem:
            ctx.track_memory(self, child.estimated_bytes())
        if child.row_count == 0:
            return
        # Decode each key column once: comparator calls are O(n log n) and
        # would otherwise decode dictionary codes per comparison.
        keys = list(
            zip(*(decode_column(child.column(k.cid)) for k in self.keys))
        )
        directions = [k.ascending for k in self.keys]
        by_keys = functools.cmp_to_key(
            functools.partial(_compare_keys, directions)
        )
        # sorted() is stable: ties keep arrival order.
        order = sorted(range(child.row_count), key=lambda i: by_keys(keys[i]))
        yield from _rebatch(child.take(order), ctx.batch_size)


class _TopEntry:
    """A TopN heap entry: the row's sort-key values, its arrival ``seq``,
    and row ``pos`` of its batch — of ``payload`` (a :class:`_Payload`)
    once that batch ends.  An evicted entry has ``pos == -1``.

    On the rank path, ``rank`` is an orderable tuple in *output* order
    (seq-terminated so ranks never tie); ``__lt__`` inverts it because
    heapq is a min-heap and TopN wants the worst kept row at the root.
    ``key`` lets the heap be demoted to the general comparator.
    """

    __slots__ = ("rank", "key", "seq", "payload", "pos")

    def __init__(self, rank, key, seq, pos):
        self.rank = rank
        self.key = key
        self.seq = seq
        self.payload = None
        self.pos = pos

    def __lt__(self, other) -> bool:
        return self.rank > other.rank


class _Payload:
    """Row values gathered for TopN heap entries: ``columns`` (cid ->
    column) of ``size`` rows, ``live`` of which are still in the heap, and
    the ``nbytes`` that ``track_memory`` charges for them."""

    __slots__ = ("columns", "size", "live", "nbytes")


def _entry_values(entries) -> dict:
    """cid -> the values of ``entries``' rows, in entry order."""
    return {
        cid: [e.payload.columns[cid][e.pos] for e in entries]
        for cid in entries[0].payload.columns
    }


_NUMERIC_RANK_TYPES = frozenset((int, float, bool))


def _classify_rank_kinds(key_cols, directions, kinds) -> bool:
    """Decide whether orderable-tuple ranking stays exact for this chunk.

    Per key: int/float/bool values (native comparison equals the engine's
    ``coerce_pair`` semantics — only Decimal pairings coerce) rank in both
    directions via sign flip; one uniform non-Decimal type ranks ascending
    only (there is no generic order-inverting transform).  ``kinds`` keeps
    the per-key decision across chunks; any cross-chunk kind change, any
    Decimal, and any mix beyond the numeric tower disables the fast path.
    Typed vectors are numeric and a sorted dictionary holds one type, so
    neither is scanned.
    """
    for pos, col in enumerate(key_cols):
        if isinstance(col, (IntVector, FloatVector)):
            kind = "num"
        else:
            if isinstance(col, DictVector) and col.sorted_dict:
                types = {type(v) for v in col.dictionary[:1]}
            else:
                types = {type(v) for v in col}
                types.discard(type(None))
            if not types:
                continue  # all-NULL chunk: (1,) parts rank fine either way
            if types <= _NUMERIC_RANK_TYPES:
                kind = "num"
            elif len(types) == 1:
                kind = next(iter(types))
                if kind is decimal.Decimal or not directions[pos]:
                    return False
            else:
                return False
        if kinds[pos] is None:
            kinds[pos] = kind
        elif kinds[pos] != kind:
            return False
    return True


def _ranks(keys: list, directions, seqs) -> list:
    """Orderable ranks in output order, one per key tuple: ``(0, v)``
    ascending or ``(0, -v)`` descending per key, ``(1,)`` for NULL (NULLS
    LAST), then the row's arrival ``seq``."""
    if len(directions) == 1:  # the common case, without a tuple per part
        ascending = directions[0]
        return [
            ((1,) if v is None else (0, v if ascending else -v), s)
            for (v,), s in zip(keys, seqs)
        ]
    return [
        (
            *[
                (1,) if v is None else (0, v if ascending else -v)
                for v, ascending in zip(key, directions)
            ],
            s,
        )
        for key, s in zip(keys, seqs)
    ]


def _key_values(cols, rows) -> list:
    """The sort-key tuples of ``rows``."""
    return list(zip(*(decode_column(take_column(col, rows)) for col in cols)))


def _candidates(col, start: int, ascending: bool, worst, strict: bool):
    """Rows from ``start`` on whose first sort key can still beat the full
    heap's worst entry, whose first key is ``worst``.

    A row whose first key ranks after ``worst`` always loses, and so does
    a NULL first key (NULLS LAST); with one key so does a tie
    (``strict``), because a later arrival loses ties.  A NULL ``worst``
    bounds nothing.  The bound is fixed here and winners only tighten it,
    so this is a superset of the winners: each candidate is still ranked
    against the live worst entry.  A sorted dictionary compares codes
    against one bisected cut, so losers never decode; anything else
    compares its decoded values.
    """
    n = len(col)
    if worst is None:
        return range(start, n)
    if isinstance(col, DictVector) and col.sorted_dict:
        dictionary = col.dictionary
        if ascending:
            cut = (bisect_left if strict else bisect_right)(dictionary, worst)
        else:
            cut = (bisect_right if strict else bisect_left)(dictionary, worst)
        codes = enumerate(col.codes[start:], start)
        if ascending:
            return [j for j, c in codes if -1 < c < cut]
        return [j for j, c in codes if c >= cut]
    values = decode_column(slice_column(col, start, n))
    beats = (lt if strict else le) if ascending else (gt if strict else ge)
    return [
        j for j, v in enumerate(values, start)
        if v is not None and beats(v, worst)
    ]


class TopNExec(PhysicalOp):
    """Bounded-heap ``ORDER BY … LIMIT k [OFFSET o]``.

    Emitted by the physical planner for ``Limit(Sort(…))``: instead of
    materializing and fully sorting the input (O(n log n) time, O(n)
    memory), a size ``k+o`` heap keeps only the current best rows —
    O(n log k) time, O(k + batch) memory — so paged list views (§6 /
    Fig. 6) hold about a page's worth of rows beside the batch in flight.

    Equivalence with the Sort+Limit pair it replaces is exact, including
    stability: ties keep the earliest-arrived row, which is what a stable
    sort followed by LIMIT returns.  Rows displaced after the heap filled
    are counted as ``heap_evictions`` (``exec.topn_heap_evictions``).

    Each batch reads only its sort-key columns.  While the heap fills,
    rows enter unconditionally; once it is full, only the rows that
    :func:`_candidates` lets through on the first key are ranked.  When
    the keys hold plain int/float/bool (either direction) or one uniform
    non-Decimal type (ascending only), a row is ranked by an *orderable
    tuple* — one C-level tuple comparison decides it.  Anything else
    (Decimal coercion, mixed kinds, descending strings) ranks every row
    with :func:`_compare_keys`, the comparator ``SortExec`` uses; a later
    chunk that breaks the rank path's assumptions demotes the collected
    heap in place.  After each batch, the rows it left in the heap are
    gathered once (``chunk.take``), so a batch that admits nothing never
    reads a non-key column.  A payload lives while one of its rows is in
    the heap; when the live payloads hold more than ``2·(k+o)`` rows and
    more than a batch, the kept rows are copied into one payload, so no
    more than that many rows outlive their batch (each copy follows at
    least ``k+o`` admissions).
    """

    blocking = True

    def __init__(self, logical: ops.Limit, sort: ops.Sort, child: PhysicalOp):
        super().__init__(logical, (child,))
        self.limit = logical.limit
        self.offset = logical.offset
        self.keys = sort.keys
        #: Rows displaced from the full heap by better-ranked arrivals.
        self.heap_evictions = 0

    def name(self) -> str:
        return "TopN"

    def strategy(self) -> str:
        keys = ", ".join(
            f"#{k.cid}{'' if k.ascending else ' desc'}" for k in self.keys
        )
        offset = f" offset {self.offset}" if self.offset else ""
        return f"k={self.limit}{offset}; {keys}"

    def _run(self, ctx: ExecContext) -> Iterator[Chunk]:
        if self.limit <= 0:
            return
        keep = self.limit + self.offset
        directions = [k.ascending for k in self.keys]
        key_cids = [k.cid for k in self.keys]
        # The general path's heap items: worst first (heapq is a min-heap),
        # ties broken by arrival order.
        worst_first = functools.cmp_to_key(
            lambda a, b: _compare_keys(directions, b.key, a.key)
            or (-1 if b.seq < a.seq else 1)
        )

        heap: list = []
        seq = 0  # arrival number of the current batch's first row
        evictions = 0
        # Per entry: the entry object plus its key and rank tuples.
        entry_width = 120 + 64 * len(key_cids)
        retained = 0  # rows of the payloads that still have a row in the heap
        held = 0  # their bytes, under track_memory

        def attach(entries, columns: dict) -> None:
            """Point ``entries`` at the rows of one new payload."""
            nonlocal retained, held
            p = _Payload()
            p.columns = columns
            p.size = p.live = len(entries)
            p.nbytes = (
                sum(map(column_nbytes, columns.values())) if ctx.track_mem else 0
            )
            for pos, e in enumerate(entries):
                e.payload = p
                e.pos = pos
            retained += p.size
            held += p.nbytes

        # 'num' (int/float/bool, both directions) or a concrete type
        # (ascending only) per key; decided from the first non-null values.
        fast = True
        kinds: list = [None] * len(key_cids)
        stream = self.children[0].execute(ctx)
        try:
            for chunk in stream:
                n = chunk.row_count
                cols = [chunk.column(cid) for cid in key_cids]
                if fast:
                    fast = _classify_rank_kinds(cols, directions, kinds)
                    if not fast:
                        # Demote: rebuild collected entries under the
                        # general comparator before mixing in this chunk.
                        heap = [worst_first(e) for e in heap]
                        heapq.heapify(heap)
                new: list = []  # this batch's entries
                out: list = []  # the entries they evicted
                fill = min(n, keep - len(heap))
                if fill:
                    keys = _key_values(cols, range(fill))
                    seqs = range(seq, seq + fill)
                    ranks = (
                        _ranks(keys, directions, seqs) if fast else repeat(None)
                    )
                    for j, rank, key in zip(range(fill), ranks, keys):
                        e = _TopEntry(rank, key, seq + j, j)
                        new.append(e)
                        heapq.heappush(heap, e if fast else worst_first(e))
                if fill < n and fast:
                    rows = _candidates(
                        cols[0], fill, directions[0], heap[0].key[0],
                        len(key_cids) == 1,
                    )
                    keys = _key_values(cols, rows) if rows else []
                    ranks = _ranks(keys, directions, [seq + j for j in rows])
                    for j, rank, key in zip(rows, ranks, keys):
                        if rank < heap[0].rank:
                            e = _TopEntry(rank, key, seq + j, j)
                            new.append(e)
                            out.append(heapq.heapreplace(heap, e))
                elif fill < n:
                    rows = range(fill, n)
                    for j, key in zip(rows, _key_values(cols, rows)):
                        item = worst_first(_TopEntry(None, key, seq + j, j))
                        if heap[0] < item:  # the root ranks after the row
                            new.append(item.obj)
                            out.append(heapq.heapreplace(heap, item).obj)
                evictions += len(out)
                for e in out:
                    e.pos = -1
                    p = e.payload  # None for this batch's rows
                    if p is not None:
                        p.live -= 1
                        if not p.live:
                            retained -= p.size
                            held -= p.nbytes
                # Gather the rows this batch left in the heap, once.
                fresh = [e for e in new if e.pos >= 0]
                if fresh:
                    attach(fresh, chunk.take([e.pos for e in fresh]).columns)
                    if retained > max(2 * keep, ctx.batch_size):
                        # The payloads hold more evicted rows than kept
                        # ones, and more than a batch: copy the kept rows
                        # into one payload, freeing the old ones.
                        retained = held = 0
                        entries = heap if fast else [w.obj for w in heap]
                        attach(entries, _entry_values(entries))
                    if ctx.track_mem:
                        ctx.track_memory(
                            self, 64 + entry_width * len(heap) + held
                        )
                seq += n
        finally:
            stream.close()
        self.heap_evictions = evictions
        if evictions:
            if ctx.m_topn is not None:
                ctx.m_topn.inc(evictions)
            if ctx.collector is not None:
                ctx.collector.record_evictions(self, evictions)
        if fast:
            ordered = sorted(heap, key=lambda e: e.rank)
        else:
            ordered = [w.obj for w in sorted(heap, reverse=True)]
        ordered = ordered[self.offset:keep]
        if not ordered:
            return
        page = Chunk(_entry_values(ordered), len(ordered))
        yield from _rebatch(page, ctx.batch_size)


class HashAggregateExec(PhysicalOp):
    """Pipeline breaker: one group-id vector per batch, folded into
    per-aggregate lists indexed by group id."""

    blocking = True

    def __init__(self, logical: ops.Aggregate, child: PhysicalOp):
        super().__init__(logical, (child,))
        self.output = logical.output

    def name(self) -> str:
        return "HashAggregate"

    def strategy(self) -> str:
        op = self.logical
        aggs = ", ".join(str(call) for _, call in op.aggs)
        return f"keys={len(op.group_cids)}; {aggs}"

    def _run(self, ctx: ExecContext) -> Iterator[Chunk]:
        op = self.logical
        calls = [call for _, call in op.aggs]
        groups: dict = {}  # group key -> group id, in first-seen order
        # A global aggregate is one group, even over empty input.
        ngroups = 0 if op.group_cids else 1
        accs = [_grow([], call, ngroups) for call in calls]
        cnts = [[0] * ngroups if call.func == "AVG" else None for call in calls]
        # Per group: a `groups` entry with its key and id, plus per aggregate
        # a list slot and its value (a fresh sum object for SUM, plus a count
        # for AVG; a dict for DISTINCT).  Within ~20% of tracemalloc at 10k
        # groups.
        per_group = 120 + sum(
            250 if call.distinct else 130 if call.func == "AVG"
            else 100 if call.func == "SUM" else 40
            for call in calls
        )
        stream = self.children[0].execute(ctx)
        try:
            for chunk in stream:
                gids = None
                if op.group_cids:
                    gids = _group_ids(
                        groups, [chunk.column(cid) for cid in op.group_cids]
                    )
                    new = len(groups) - ngroups
                    if new:
                        ngroups += new
                        for call, acc, cnt in zip(calls, accs, cnts):
                            _grow(acc, call, new)
                            if cnt is not None:
                                cnt.extend([0] * new)
                for call, acc, cnt in zip(calls, accs, cnts):
                    vals = (
                        chunk.row_count if call.arg is None
                        else decode_column(evaluate(call.arg, chunk))
                    )
                    _fold(call, acc, cnt, gids, vals)
                if ctx.track_mem:
                    ctx.track_memory(self, 64 + per_group * ngroups)
        finally:
            stream.close()

        columns: dict[int, list] = {}
        keys = list(groups)
        if len(op.group_cids) == 1:
            columns[op.group_cids[0]] = maybe_typed(keys)
        else:
            for pos, cid in enumerate(op.group_cids):
                columns[cid] = maybe_typed([key[pos] for key in keys])
        for (col, call), acc, cnt in zip(op.aggs, accs, cnts):
            columns[col.cid] = maybe_typed(_finalize(call, acc, cnt))
        yield from _rebatch(Chunk(columns, ngroups), ctx.batch_size)


class UnionAllExec(PhysicalOp):
    """Streams each child in turn, remapping child cids to output cids."""

    def __init__(self, logical: ops.UnionAll, children, positions):
        super().__init__(logical, tuple(children))
        self.positions = tuple(positions)
        self.output = tuple(logical.output[pos] for pos in self.positions)

    def name(self) -> str:
        return "UnionAll"

    def strategy(self) -> str:
        return f"{len(self.children)} children"

    def _run(self, ctx: ExecContext) -> Iterator[Chunk]:
        op = self.logical
        for child, mapping in zip(self.children, op.child_maps):
            stream = child.execute(ctx)
            try:
                for chunk in stream:
                    yield Chunk(
                        {
                            op.output[pos].cid: chunk.column(mapping[pos])
                            for pos in self.positions
                        },
                        chunk.row_count,
                    )
            finally:
                stream.close()


# ---------------------------------------------------------------------------
# joins
# ---------------------------------------------------------------------------


class HashJoinExec(PhysicalOp):
    """Hash join with a cost-chosen build side.

    - ``build=right``: build over the right input, stream the left — output
      batches preserve anchor (left) order, with LEFT OUTER NULL-extension
      inline, so the §4.4 top-N pushdown's order contract holds for free.
    - ``build=left``: build over the (smaller, e.g. pushed-limit) left,
      stream the right, buffer matches, and re-emit in anchor order.  When
      the declared cardinality bounds the right side to at most one match
      per key, the probe stops as soon as every build key has matched —
      the join-side analogue of LIMIT's early termination.
    - SEMI/ANTI probes build key sets from the right and stream the left;
      an uncorrelated EXISTS pulls right batches only until the first row.

    Every equi body works on key vectors (:func:`_join_keys`, one
    normalized key per row) and gathers with index vectors.  A build whose
    non-NULL keys are distinct — the augmentation join — maps key to row
    directly; with ``build=right`` and no residual, a batch that emits
    every anchor row once (LEFT OUTER always, inner when all matched)
    passes the anchor's columns through by reference.
    """

    blocking = True  # at least one side is always materialized

    def __init__(
        self, logical: ops.Join, left: PhysicalOp, right: PhysicalOp, *,
        equi, residual, build_side: str, left_cids, right_cids,
        early_out: bool = False,
    ):
        super().__init__(logical, (left, right))
        self.equi = tuple(equi)
        self.residual = tuple(residual)
        self.build_side = build_side
        self.left_cids = tuple(left_cids)
        self.right_cids = tuple(right_cids)
        self.early_out = early_out
        if logical.join_type not in (ops.JoinType.SEMI, ops.JoinType.ANTI):
            kept = {*self.left_cids, *self.right_cids}
            self.output = tuple(
                c for c in (*left.output, *right.output) if c.cid in kept
            )

    def name(self) -> str:
        join_type = self.logical.join_type
        if join_type is ops.JoinType.SEMI:
            return "HashSemiJoin"
        if join_type is ops.JoinType.ANTI:
            return "HashAntiJoin"
        if not self.equi and self.logical.condition is None:
            return "CrossJoin"
        if not self.equi:
            return "NestedLoopJoin"
        return "HashJoin"

    def strategy(self) -> str:
        parts = []
        if self.logical.join_type is ops.JoinType.LEFT_OUTER:
            parts.append("left-outer")
        if self.equi:
            parts.append(f"build={self.build_side}")
        if self.early_out:
            parts.append("early-out")
        if self.residual:
            parts.append("residual")
        if self.logical.null_aware:
            parts.append("null-aware")
        return " ".join(parts)

    def _run(self, ctx: ExecContext) -> Iterator[Chunk]:
        if self.logical.join_type in (ops.JoinType.SEMI, ops.JoinType.ANTI):
            yield from self._run_semi_anti(ctx)
        elif not self.equi:
            yield from self._run_cross(ctx)
        elif self.build_side == "right":
            yield from self._run_build_right(ctx)
        else:
            yield from self._run_build_left(ctx)

    # -- equi, build right: stream the anchor ---------------------------

    def _run_build_right(self, ctx: ExecContext) -> Iterator[Chunk]:
        build = _materialize(self.children[1], ctx)
        if ctx.track_mem:
            ctx.track_memory(self, build.estimated_bytes())
        memos: dict = {}
        table, unique = _hash_build(
            _join_keys([re for _, re in self.equi], build, memos)
        )
        left_outer = self.logical.join_type is ops.JoinType.LEFT_OUTER
        if not table and not left_outer:
            return  # inner join against an empty/all-NULL build: no rows
        get = table.get
        # Without a residual, a LEFT OUTER miss is its own NULL extension.
        miss = (-1,) if left_outer and not self.residual else ()
        probe_exprs = [le for le, _ in self.equi]
        stream = self.children[0].execute(ctx)
        try:
            for chunk in stream:
                keys = _join_keys(probe_exprs, chunk, memos)
                if unique:
                    ridx = [get(k, -1) for k in keys]
                    if not self.residual and (left_outer or -1 not in ridx):
                        # Every anchor row exactly once: zero-copy anchor.
                        if ridx:
                            yield self._combine(chunk, build, None, ridx)
                        continue
                    lidx = [i for i, j in enumerate(ridx) if j >= 0]
                    ridx = [j for j in ridx if j >= 0]
                else:
                    matches = [get(k, miss) for k in keys]
                    lidx = [i for i, m in enumerate(matches) for _ in m]
                    ridx = [j for m in matches for j in m]
                if self.residual:
                    if lidx:
                        lidx, ridx = self._apply_residual(chunk, build, lidx, ridx)
                    if left_outer:
                        lidx, ridx = _null_extend(lidx, ridx, chunk.row_count)
                if lidx:
                    yield self._combine(chunk, build, lidx, ridx)
        finally:
            stream.close()

    # -- equi, build left: buffer and re-emit in anchor order -----------

    def _run_build_left(self, ctx: ExecContext) -> Iterator[Chunk]:
        build = _materialize(self.children[0], ctx)
        held = build.estimated_bytes() if ctx.track_mem else 0
        if ctx.track_mem:
            ctx.track_memory(self, held)
        if build.row_count == 0:
            return
        memos: dict = {}
        table, unique = _hash_build(
            _join_keys([le for le, _ in self.equi], build, memos)
        )
        get = table.get
        # Matched probe rows, gathered per batch; ``lrows[p]`` is the build
        # row that buffered probe row ``p`` joined.
        lrows = array("q")
        pieces: dict[int, list] = {cid: [] for cid in self.right_cids}
        remaining = set(table) if self.early_out else None
        probe_exprs = [re for _, re in self.equi]
        stream = self.children[1].execute(ctx)
        try:
            for chunk in stream:
                keys = _join_keys(probe_exprs, chunk, memos)
                if unique:
                    hits = [get(k, -1) for k in keys]
                    jidx = [j for j, i in enumerate(hits) if i >= 0]
                    lidx = [i for i in hits if i >= 0]
                else:
                    matches = [get(k, ()) for k in keys]
                    jidx = [j for j, m in enumerate(matches) for _ in m]
                    lidx = [i for m in matches for i in m]
                if remaining is not None:
                    remaining.difference_update(keys)
                if self.residual and lidx:
                    lidx, jidx = self._apply_residual(build, chunk, lidx, jidx)
                if lidx:
                    lrows.extend(lidx)
                    for cid, parts in pieces.items():
                        parts.append(take_column(chunk.column(cid), jidx))
                    if ctx.track_mem:
                        held += 8 * len(lidx) + sum(
                            column_nbytes(parts[-1]) for parts in pieces.values()
                        )
                        ctx.track_memory(self, held)
                if remaining is not None and not remaining:
                    # Declared right-unique: every build key has found its
                    # (single) match — stop pulling the probe side.
                    break
        finally:
            stream.close()
        matched = len(lrows)
        right = Chunk(
            {cid: concat_columns(ps) if ps else [] for cid, ps in pieces.items()},
            matched,
        )
        if self.logical.join_type is ops.JoinType.LEFT_OUTER:
            # Unmatched build rows go after the matches: positions past
            # ``matched`` gather as -1, the NULL extension.
            seen = set(lrows)
            lrows.extend(i for i in range(build.row_count) if i not in seen)
        # Anchor order: one stable argsort by build row keeps the probe's
        # arrival order among one anchor row's matches.
        order = sorted(range(len(lrows)), key=lrows.__getitem__)
        lidx = array("q", [lrows[p] for p in order])
        del lrows
        ridx = array("q", [p if p < matched else -1 for p in order])
        del order
        yield from _rebatch(self._combine(build, right, lidx, ridx), ctx.batch_size)

    # -- no equi keys: cross/theta --------------------------------------

    def _run_cross(self, ctx: ExecContext) -> Iterator[Chunk]:
        build = _materialize(self.children[1], ctx)
        if ctx.track_mem:
            ctx.track_memory(self, build.estimated_bytes())
        left_outer = self.logical.join_type is ops.JoinType.LEFT_OUTER
        if build.row_count == 0 and not left_outer:
            return
        stream = self.children[0].execute(ctx)
        try:
            for chunk in stream:
                count = build.row_count
                lidx = [i for i in range(chunk.row_count) for _ in range(count)]
                ridx = list(range(count)) * chunk.row_count
                if self.residual and lidx:
                    lidx, ridx = self._apply_residual(chunk, build, lidx, ridx)
                if left_outer:
                    lidx, ridx = _null_extend(lidx, ridx, chunk.row_count)
                if lidx:
                    yield self._combine(chunk, build, lidx, ridx)
        finally:
            stream.close()

    # -- SEMI / ANTI ----------------------------------------------------

    def _run_semi_anti(self, ctx: ExecContext) -> Iterator[Chunk]:
        op = self.logical
        is_anti = op.join_type is ops.JoinType.ANTI

        if op.condition is None:  # uncorrelated EXISTS: all-or-nothing
            has_row = False
            right_stream = self.children[1].execute(ctx)
            try:
                for chunk in right_stream:
                    if chunk.row_count:
                        has_row = True
                        break  # short-circuit: first batch answers EXISTS
            finally:
                right_stream.close()
            if has_row != is_anti:
                yield from self._stream_left(ctx)
            return  # otherwise the left side never executes

        if not self.equi or self.residual:
            raise ExecutionError(
                "SEMI/ANTI joins support plain equi conditions only"
            )
        members: set = set()
        build_rows = 0
        memos: dict = {}
        build_exprs = [re for _, re in self.equi]
        right_stream = self.children[1].execute(ctx)
        try:
            for chunk in right_stream:
                build_rows += chunk.row_count
                members.update(_join_keys(build_exprs, chunk, memos))
        finally:
            right_stream.close()
        right_has_null = None in members
        members.discard(None)
        if ctx.track_mem:
            ctx.track_memory(self, 64 + 100 * len(members))
        if is_anti and not build_rows:
            # x NOT IN (empty) is TRUE for every x, NULL included.
            yield from self._stream_left(ctx)
            return
        if is_anti and op.null_aware and right_has_null:
            return  # NOT IN over a NULL member: never TRUE

        probe_exprs = [le for le, _ in self.equi]
        stream = self.children[0].execute(ctx)
        try:
            for chunk in stream:
                keys = _join_keys(probe_exprs, chunk, memos)
                if is_anti:
                    keep = [
                        i for i, k in enumerate(keys)
                        if k is not None and k not in members
                    ]
                else:
                    keep = [i for i, k in enumerate(keys) if k in members]
                if len(keep) == chunk.row_count:
                    yield chunk
                elif keep:
                    yield chunk.take(keep)
        finally:
            stream.close()

    # -- shared helpers -------------------------------------------------

    def _stream_left(self, ctx: ExecContext) -> Iterator[Chunk]:
        stream = self.children[0].execute(ctx)
        try:
            yield from stream
        finally:
            stream.close()

    def _combine(self, left_chunk: Chunk, right_chunk: Chunk,
                 lidx, ridx) -> Chunk:
        """Gather one output chunk; ``lidx=None`` passes every left row
        through once, its columns by reference (the zero-copy anchor)."""
        columns: dict[int, object] = {}
        for cid in self.left_cids:
            col = left_chunk.column(cid)
            columns[cid] = col if lidx is None else take_column(col, lidx)
        for cid in self.right_cids:
            columns[cid] = pad_take_column(right_chunk.column(cid), ridx)
        return Chunk(columns, len(ridx))

    def _apply_residual(self, left_chunk: Chunk, right_chunk: Chunk,
                        lidx: list[int], ridx: list[int]):
        combined = self._combine(left_chunk, right_chunk, lidx, ridx)
        keep = [True] * len(lidx)
        for conjunct in self.residual:
            values = evaluate(conjunct, combined)
            for p, value in enumerate(values):
                if value is not True:
                    keep[p] = False
        return (
            [l for l, k in zip(lidx, keep) if k],
            [r for r, k in zip(ridx, keep) if k],
        )


def _null_extend(lidx: list[int], ridx: list[int],
                 row_count: int) -> tuple[list[int], list[int]]:
    """LEFT OUTER NULL-extension inline in anchor order.

    ``lidx`` must be ascending (probe order); unmatched anchor rows are
    merged in place with a ``-1`` right index rather than appended at the
    end, so outer-join output stays anchor-ordered batch by batch.
    """
    if len(lidx) == row_count and all(l == i for i, l in enumerate(lidx)):
        return lidx, ridx  # every row matched exactly once
    out_l: list[int] = []
    out_r: list[int] = []
    pos = 0
    total = len(lidx)
    for i in range(row_count):
        matched = False
        while pos < total and lidx[pos] == i:
            out_l.append(i)
            out_r.append(ridx[pos])
            pos += 1
            matched = True
        if not matched:
            out_l.append(i)
            out_r.append(-1)
    return out_l, out_r


# ---------------------------------------------------------------------------
# shared kernels (also used by the logical-side helpers and tests)
# ---------------------------------------------------------------------------


def _equi_pair(
    conjunct: Expr, left_cids: frozenset[int], right_cids: frozenset[int]
) -> tuple[Expr, Expr] | None:
    if not (isinstance(conjunct, Call) and conjunct.op == "=" and len(conjunct.args) == 2):
        return None
    a, b = conjunct.args
    a_refs = referenced_cids(a)
    b_refs = referenced_cids(b)
    if a_refs and a_refs <= left_cids and b_refs and b_refs <= right_cids:
        return (a, b)
    if a_refs and a_refs <= right_cids and b_refs and b_refs <= left_cids:
        return (b, a)
    return None


def _join_keys(exprs, chunk: Chunk, memos: dict) -> list:
    """One normalized, hashable join key per row of ``chunk``; ``None``
    where any key part is NULL.  A multi-column key is a tuple."""
    parts = [_key_vector(evaluate(expr, chunk), memos) for expr in exprs]
    if len(parts) == 1:
        return parts[0]
    return [None if None in key else key for key in zip(*parts)]


def _key_vector(col, memos: dict) -> list:
    """Normalized key values of one column, ``None`` for NULL.

    A dictionary-coded column goes through a ``code -> key`` translation
    memo kept per dictionary for the whole join (``memos`` maps the
    dictionary's id to ``(dictionary, memo)``; holding the dictionary
    keeps the id from being reused).  Each batch normalizes only the codes
    it carries that the memo has not seen, never the whole dictionary, so
    a one-row probe against a large dictionary stays O(1).
    """
    if isinstance(col, DictVector):
        kernels.note_dict_compares(len(col.codes))
        dictionary = col.dictionary
        entry = memos.get(id(dictionary))
        if entry is None:
            entry = memos[id(dictionary)] = (dictionary, {-1: None})
        memo = entry[1]
        codes = col.codes
        for code in set(codes).difference(memo):
            memo[code] = _norm_key(dictionary[code])
        return list(map(memo.__getitem__, codes))
    if isinstance(col, IntVector):
        return col.tolist()  # exact ints: already normalized
    return [v if type(v) in _PLAIN_KEY_TYPES else _norm_key(v) for v in col]


_PLAIN_KEY_TYPES = frozenset((int, str, type(None)))


def _norm_key(value: object) -> object:
    """Normalize join-key values so 1 == Decimal('1') hash-match."""
    if isinstance(value, decimal.Decimal):
        if value == value.to_integral_value():
            return int(value)
        return float(value)
    if isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def _hash_build(keys: list) -> tuple[dict, bool]:
    """Hash a build side's key vector, NULL keys left out.

    Returns ``(key -> row, True)`` when every non-NULL key is distinct —
    detected from the data, not trusted from a declaration — and
    ``(key -> [rows], False)`` otherwise.
    """
    index = {k: j for j, k in enumerate(keys) if k is not None}
    if len(index) == len(keys) - keys.count(None):
        return index, True
    table: dict = {}
    for j, k in enumerate(keys):
        if k is not None:
            table.setdefault(k, []).append(j)
    return table, False


# -- aggregation by group id ---------------------------------------------------


def _group_ids(groups: dict, cols: list) -> list:
    """One group id per row; first-seen keys join ``groups`` (key -> id).

    Keys are decoded values under Python equality, so ``1``, ``1.0`` and
    ``Decimal('1')`` share one group named by the first-seen value, and
    NULL is one group.  A multi-column key is a tuple.
    """
    setdefault = groups.setdefault
    if len(cols) == 1:
        keys = decode_column(cols[0])
    else:
        keys = zip(*map(decode_column, cols))
    return [setdefault(key, len(groups)) for key in keys]


def _grow(acc: list, call: AggCall, new: int) -> list:
    """Append ``new`` empty group states to an aggregate's list."""
    if call.distinct:
        acc.extend([{} for _ in range(new)])
    else:
        acc.extend([0 if call.func in ("COUNT", "COUNT_STAR") else None] * new)
    return acc


def _fold(call: AggCall, acc: list, cnt: list | None, gids, vals) -> None:
    """Fold one batch into per-group states: ``vals`` is the argument's
    values (the row count for COUNT(*)), ``gids`` the batch's group ids
    (None for a global aggregate), ``cnt`` AVG's non-NULL counts.  SUM and
    AVG add left to right (``acc + v``), never compensated."""
    func = call.func
    if func == "COUNT_STAR":
        if gids is None:
            acc[0] += vals
        else:
            for g, n in Counter(gids).items():
                acc[g] += n
        return
    pairs = zip(repeat(0) if gids is None else gids, vals)
    if call.distinct:
        for g, v in pairs:
            if v is not None:
                acc[g][v] = None  # a dict: distinct values in first-seen order
    elif func == "COUNT":
        for g, v in pairs:
            if v is not None:
                acc[g] += 1
    elif func == "SUM":
        for g, v in pairs:
            if v is not None:
                s = acc[g]
                acc[g] = v if s is None else s + v
    elif func == "AVG":
        for g, v in pairs:
            if v is not None:
                s = acc[g]
                acc[g] = v if s is None else s + v
                cnt[g] += 1
    elif func == "MIN":
        for g, v in pairs:
            if v is not None:
                m = acc[g]
                if m is None or v < m:
                    acc[g] = v
    elif func == "MAX":
        for g, v in pairs:
            if v is not None:
                m = acc[g]
                if m is None or v > m:
                    acc[g] = v
    else:
        raise ExecutionError(f"unknown aggregate {func!r}")


def _finalize(call: AggCall, acc: list, cnt: list | None) -> list:
    """One output value per group from an aggregate's list state."""
    func = call.func
    if call.distinct:
        if func == "COUNT":
            return [len(values) for values in acc]
        if func == "AVG":
            return [_avg(_add(values), len(values)) if values else None for values in acc]
        reduce = {"SUM": _add, "MIN": min, "MAX": max}[func]
        return [reduce(values) if values else None for values in acc]
    if func == "AVG":
        return [None if n == 0 else _avg(total, n) for total, n in zip(acc, cnt)]
    return acc


def _add(values):
    """``acc + v`` left to right, as SUM folds: a DISTINCT dict keeps its
    values in first-seen order, so the result does not depend on hashing
    (a set did) or on the Python version (the builtin ``sum()`` compensates
    floats from 3.12)."""
    return functools.reduce(add, values)


def _avg(total, n: int):
    if isinstance(total, decimal.Decimal):
        return total / decimal.Decimal(n)
    return total / n
