"""Parameterized plan cache: shape-keyed reuse of optimized plans.

Heavy traffic is mostly repeated statement *shapes* — the same SQL with
different literals (the paper's S/4HANA reality: a handful of generated
statement shapes executed millions of times).  For cheap queries the
parse→bind→optimize pipeline dominates (the perf ledger's per-layer
``bench.planning_share`` measures it), so this module
caches the *optimized generic plan* per shape and re-binds only the
literal parameters on a hit, skipping parse, bind, and every optimizer
pass.

Correctness model
-----------------

A statement is planned **once**.  The first sighting of a shape runs the
fully normal value-bound path (a once-only statement pays nothing) and
leaves its rewrite tally in the shape map.  Later misses plan the
*generic* statement instead: slot-tagged literals bound with
``parameterize=True`` become opaque :class:`repro.algebra.expr.Param`
nodes.  Because every value-dependent rewrite in the optimizer guards on
:class:`Const`, the generic plan is valid for any parameter values of the
same types — but it may be *weaker* (e.g. the ASJ-subsumption check of
Fig. 10c needs literal equality).  So the second sighting stores and
executes the generic plan (substituted like a hit) only when its rewrite
tally equals the first sighting's, optimized over other literals.  A
mismatch, a failed parameterized bind (binder structural matching is
textual) or a scalar subquery marks the shape uncacheable (negative
cache), and that statement plans value-bound too — the one statement of
a shape that pays two passes.  A learned shape's later misses (a new
fixed-value combination, an evicted or invalidated entry) plan the
generic statement only.

Slots that survive as ``Param`` in the generic plan are *free* — any
value may be substituted at hit time.  All other literal slots are
*fixed*: they were consumed structurally (``LIMIT``/``OFFSET``,
``DECIMAL(p,s)`` type arguments) or absorbed by a value-dependent
rewrite, so the entry key includes the fixed-slot values — ``... LIMIT
5`` and ``... LIMIT 50`` cache as two entries under one shape.

Invalidation is precise and lazy: every entry carries a fingerprint —
catalog DDL version (tables *and* view deploys/drops), optimizer profile,
``vectorized``/``batch_size`` knobs, and a bucketed row-count signature
of the referenced base tables (a stats refresh big enough to change plan
choice changes a bucket) — that is re-checked on every hit.  A mismatch
evicts the entry, counts ``plan_cache.invalidations``, and falls back to
the normal compile path.

The cache is shared across serving sessions/tenants: plans are immutable
(hit-time substitution builds new trees), and namespace/ownership checks
happen before the engine sees the statement.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field

from ..algebra.expr import Const, Param, ScalarSubquery, rewrite_expr, walk
from ..algebra.ops import LogicalOp, Scan, rewrite_op_exprs
from ..datatypes import DataType

#: Sentinel stored in the shape map for shapes that must never be cached
#: (value-dependent rewrites, bind failures, scalar subqueries).
UNCACHEABLE = "uncacheable"

#: Rough per-plan-node memory estimate for the sys.plan_cache / doctor
#: accounting (Python objects; exact sizes are not the point —
#: boundedness under a capacity is).
_BYTES_PER_NODE = 512


@dataclass
class CachedPlan:
    """One cached generic plan plus everything needed to re-bind it."""

    shape: str
    param_types: tuple[DataType, ...]
    generic_plan: LogicalOp
    #: Slots that survive as Param in the generic plan (substitutable).
    free_slots: frozenset[int]
    #: (slot, value) for every non-free slot, slot-ascending — part of the
    #: entry key; a hit carries exactly these values in these slots.
    fixed_values: tuple[tuple[int, object], ...]
    fingerprint: tuple
    #: Base tables whose row counts feed the stats-signature re-check.
    tables: tuple[str, ...]
    operators_before: int
    operators_after: int
    rewrite_fires: dict[str, int]
    created_at: float = field(default_factory=time.time)
    last_used_at: float = field(default_factory=time.time)
    hits: int = 0
    #: Compiled physical tree for ``last_values`` — reused directly when a
    #: hit carries exactly the same parameter values (physical operators
    #: hold only configuration, so re-execution is safe).
    last_values: tuple | None = None
    physical: object | None = None
    approx_bytes: int = 0

    def bind(self, values: list) -> LogicalOp:
        """The generic plan with a Const of ``values`` in each free slot,
        converted to its Param's type (the binder retypes a slot that
        meets a column of another Python type, e.g. a DECIMAL literal
        compared with a DOUBLE column)."""
        if not self.free_slots:
            return self.generic_plan

        def replace(node):
            if isinstance(node, Param):
                ty = node.data_type
                return Const(ty.validate(values[node.slot]), ty)
            return None

        return rewrite_op_exprs(
            self.generic_plan, lambda e: rewrite_expr(e, replace))


class PlanCache:
    """Bounded LRU of :class:`CachedPlan` entries.

    Two-level keying: a *shape key* ``(normalized_sql, literal_types)``
    maps to the learned fixed/free slot split, and each distinct
    combination of fixed-slot values owns one LRU entry.  Thread-safe:
    one lock guards both maps; expensive work (optimizing a generic plan)
    happens outside the lock in the caller.
    """

    def __init__(self, capacity: int, metrics=None):
        self.capacity = max(0, capacity)
        self._lock = threading.Lock()
        #: (shape_key, fixed_values) -> CachedPlan, LRU order.
        self._entries: "OrderedDict[tuple, CachedPlan]" = OrderedDict()
        #: shape_key -> the first sighting's rewrite tally (dict),
        #: UNCACHEABLE, or the learned fixed-slot tuple (a generic plan was
        #: stored at least once).  Bounded at a multiple of capacity so an
        #: endless stream of distinct shapes cannot grow it without bound.
        self._shapes: "OrderedDict[tuple, object]" = OrderedDict()
        self._shape_capacity = max(64, 8 * self.capacity)
        if metrics is not None:
            self._m_hits = metrics.counter("plan_cache.hits")
            self._m_misses = metrics.counter("plan_cache.misses")
            self._m_evictions = metrics.counter("plan_cache.evictions")
            self._m_invalidations = metrics.counter("plan_cache.invalidations")
        else:
            self._m_hits = self._m_misses = None
            self._m_evictions = self._m_invalidations = None
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.uncacheable = 0

    # -- probe ------------------------------------------------------------

    def probe(
        self, shape_key: tuple, values: list[object], env: tuple, stats_fn,
    ) -> CachedPlan | None:
        """Return a valid entry for this statement or None (counts hit/miss).

        ``env`` is the caller's current environment fingerprint head
        (catalog version, profile, knobs); ``stats_fn(tables)`` computes
        the bucketed row-count signature for an entry's base tables.  A
        stored entry whose combined fingerprint differs is invalidated
        here — the lazy eviction path for DDL / knob / stats changes.
        """
        with self._lock:
            split = self._shapes.get(shape_key)
            if not isinstance(split, tuple):
                self._count_miss()
                return None
            fixed = tuple(values[slot] for slot in split)
            key = (shape_key, fixed)
            entry = self._entries.get(key)
            if entry is not None \
                    and entry.fingerprint != (env, stats_fn(entry.tables)):
                del self._entries[key]
                self.invalidations += 1
                if self._m_invalidations is not None:
                    self._m_invalidations.inc()
                entry = None
            if entry is None:
                self._count_miss()
                return None
            self._entries.move_to_end(key)
            entry.hits += 1
            entry.last_used_at = time.time()
            self.hits += 1
            if self._m_hits is not None:
                self._m_hits.inc()
            return entry

    def _count_miss(self) -> None:
        self.misses += 1
        if self._m_misses is not None:
            self._m_misses.inc()

    def peek(
        self, shape_key: tuple, values: list[object],
        env: tuple | None = None, stats_fn=None,
    ) -> CachedPlan | None:
        """Entry for this statement without touching LRU order or counters.

        Used by EXPLAIN's ``(cached)`` annotation; with ``env`` given, a
        stale entry reads as absent (but is not evicted)."""
        with self._lock:
            split = self._shapes.get(shape_key)
            if not isinstance(split, tuple):
                return None
            entry = self._entries.get(
                (shape_key, tuple(values[slot] for slot in split))
            )
            if entry is not None and env is not None \
                    and entry.fingerprint != (env, stats_fn(entry.tables)):
                return None
            return entry

    # -- sightings -------------------------------------------------------

    def sighting(self, shape_key: tuple):
        """What the shape map knows of a shape that just missed: None (never
        seen), the first sighting's rewrite tally, its learned fixed-slot
        tuple, or UNCACHEABLE."""
        with self._lock:
            return self._shapes.get(shape_key)

    def record_first_sighting(self, shape_key: tuple, fires: dict) -> None:
        """Keep a first sighting's value-bound rewrite tally — the reference
        the shape's generic plan must match on its second sighting."""
        with self._lock:
            if shape_key not in self._shapes:
                self._shapes[shape_key] = dict(fires)
                self._trim_shapes()

    def mark_uncacheable(self, shape_key: tuple) -> None:
        with self._lock:
            self._shapes[shape_key] = UNCACHEABLE
            self._shapes.move_to_end(shape_key)
            self._trim_shapes()
            self.uncacheable += 1

    def _trim_shapes(self) -> None:
        while len(self._shapes) > self._shape_capacity:
            self._shapes.popitem(last=False)

    # -- storing ----------------------------------------------------------

    def store(self, shape_key: tuple, entry: CachedPlan) -> None:
        if self.capacity == 0:
            return
        entry.approx_bytes = (
            len(entry.shape)
            + _BYTES_PER_NODE * sum(1 for _ in entry.generic_plan.walk())
        )
        split = tuple(slot for slot, _ in entry.fixed_values)
        fixed = tuple(value for _, value in entry.fixed_values)
        with self._lock:
            self._shapes[shape_key] = split
            self._shapes.move_to_end(shape_key)
            self._trim_shapes()
            self._entries[(shape_key, fixed)] = entry
            self._entries.move_to_end((shape_key, fixed))
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
                if self._m_evictions is not None:
                    self._m_evictions.inc()

    def remember_compiled(
        self, entry: CachedPlan, values: list[object], physical: object,
    ) -> None:
        """Attach the physical tree compiled for ``values`` to the entry,
        so an exact-value repeat reuses it without recompiling."""
        with self._lock:
            entry.last_values = tuple(values)
            entry.physical = physical

    # -- maintenance -------------------------------------------------------

    def clear(self) -> int:
        """Drop every entry (explicit invalidation); returns count dropped."""
        with self._lock:
            count = len(self._entries)
            self._entries.clear()
            self._shapes.clear()
            self.invalidations += count
            if self._m_invalidations is not None and count:
                self._m_invalidations.inc(count)
            return count

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def approx_bytes(self) -> int:
        with self._lock:
            return sum(e.approx_bytes for e in self._entries.values())

    def entries(self) -> list[CachedPlan]:
        """Snapshot of entries, least-recently-used first."""
        with self._lock:
            return list(self._entries.values())

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


# ---------------------------------------------------------------------------
# plan analysis helpers (used by Database when it plans a generic statement)
# ---------------------------------------------------------------------------


def plan_param_slots(plan: LogicalOp) -> frozenset[int]:
    """Slots of every Param surviving anywhere in ``plan``'s expressions."""
    slots: set[int] = set()
    for expr in _plan_exprs(plan):
        for node in walk(expr):
            if isinstance(node, Param):
                slots.add(node.slot)
    return frozenset(slots)


def plan_has_scalar_subquery(plan: LogicalOp) -> bool:
    return any(
        isinstance(node, ScalarSubquery)
        for expr in _plan_exprs(plan)
        for node in walk(expr)
    )


def plan_base_tables(plan: LogicalOp) -> tuple[str, ...]:
    """Sorted distinct base-table names scanned by ``plan``."""
    names = {op.schema.name for op in plan.walk() if isinstance(op, Scan)}
    return tuple(sorted(names))


def _plan_exprs(plan: LogicalOp):
    from ..algebra import ops

    for op in plan.walk():
        if isinstance(op, ops.Project):
            for _, expr in op.items:
                yield expr
        elif isinstance(op, ops.Filter):
            yield op.predicate
        elif isinstance(op, ops.Join):
            if op.condition is not None:
                yield op.condition
        elif isinstance(op, ops.Aggregate):
            for _, call in op.aggs:
                if call.arg is not None:
                    yield call.arg
