"""Per-tenant state: rate limits, circuit breakers, namespace scoping.

Tenancy here is a *serving-layer* concept — one shared catalog, with an
ownership map from table/view name to the tenant whose session created
it.  A statement may reference only tables its tenant owns, plus shared
objects: the ``sys.*`` namespace and anything created outside a session
(bootstrap schemas, workload loaders).  This is accident prevention
(namespace scoping for the paper's multi-application VDM story), not a
security boundary — every tenant still shares one process and one MVCC
store.

:func:`referenced_tables` extracts the table names a parsed statement
touches by walking the (frozen dataclass) AST generically, so FROM
clauses, joins, derived tables, set operations, scalar/EXISTS/IN
subqueries, and DML targets are all covered without per-node-type code.
"""

from __future__ import annotations

import dataclasses
import threading

from ..catalog.systables import SYS_PREFIX
from ..errors import TenantAccessError
from ..sql import ast
from .breaker import CircuitBreaker
from .ratelimit import TokenBucket

DEFAULT_TENANT = "default"


def referenced_tables(statement) -> set[str]:
    """All table/view names a statement references (lowercased).

    DDL *targets* (the name being created) are excluded — creating a table
    is a claim, not a reference — but a CREATE VIEW's defining query *is*
    walked, as are INSERT ... SELECT sources.
    """
    names: set[str] = set()

    def visit(node) -> None:
        if isinstance(node, ast.TableRef):
            names.add(node.name.lower())
        elif isinstance(node, (ast.Insert, ast.Update, ast.Delete)):
            names.add(node.table.lower())
        elif isinstance(node, ast.CreateTable):
            return  # nothing referenced, only defined
        elif isinstance(node, ast.DropStatement):
            names.add(node.name.lower())
        if dataclasses.is_dataclass(node):
            for field in dataclasses.fields(node):
                visit(getattr(node, field.name))
        elif isinstance(node, (tuple, list)):
            for item in node:
                visit(item)

    visit(statement)
    return names


class TenantState:
    """One tenant's limits, breaker, and serving counters.

    Counter increments happen under the owning registry's lock via the
    ``count`` helper so sys.admission never reads half-updated pairs.
    """

    def __init__(
        self,
        name: str,
        bucket: TokenBucket | None,
        breaker: CircuitBreaker,
    ) -> None:
        self.name = name
        self.bucket = bucket
        self.breaker = breaker
        self.admitted = 0
        self.shed = 0
        self.rate_limited = 0
        self.timeouts = 0
        self.errors = 0
        self.breaker_rejects = 0


class TenantRegistry:
    """Tenant lookup/creation plus the table-ownership map."""

    def __init__(
        self,
        rate_per_s: float | None = None,
        burst: int | None = None,
        breaker_threshold: int = 5,
        breaker_cooldown_s: float = 1.0,
    ) -> None:
        self._default_rate = rate_per_s
        self._default_burst = burst
        self._breaker_threshold = breaker_threshold
        self._breaker_cooldown_s = breaker_cooldown_s
        self._lock = threading.RLock()
        self._tenants: dict[str, TenantState] = {}
        self._owners: dict[str, str] = {}

    def get(self, name: str) -> TenantState:
        lowered = (name or DEFAULT_TENANT).lower()
        with self._lock:
            state = self._tenants.get(lowered)
            if state is None:
                bucket = (
                    TokenBucket(self._default_rate, self._default_burst)
                    if self._default_rate is not None else None
                )
                state = TenantState(
                    lowered,
                    bucket,
                    CircuitBreaker(
                        lowered,
                        failure_threshold=self._breaker_threshold,
                        cooldown_s=self._breaker_cooldown_s,
                    ),
                )
                self._tenants[lowered] = state
            return state

    def states(self) -> list[TenantState]:
        with self._lock:
            return list(self._tenants.values())

    def count(self, tenant: str, event: str, n: int = 1) -> None:
        state = self.get(tenant)
        with self._lock:
            setattr(state, event, getattr(state, event) + n)

    # -- namespace scoping -------------------------------------------------

    def owner_of(self, table: str) -> str | None:
        return self._owners.get(table.lower())

    def claim(self, tenant: str, table: str) -> None:
        with self._lock:
            self._owners[table.lower()] = (tenant or DEFAULT_TENANT).lower()

    def release(self, table: str) -> None:
        with self._lock:
            self._owners.pop(table.lower(), None)

    def check_access(self, tenant: str, statement) -> None:
        """Raise :class:`TenantAccessError` if ``statement`` references a
        table owned by a different tenant.  ``sys.*`` and unowned (shared)
        tables are readable by everyone."""
        lowered = (tenant or DEFAULT_TENANT).lower()
        for name in referenced_tables(statement):
            if name.startswith(SYS_PREFIX):
                continue
            owner = self._owners.get(name)
            if owner is not None and owner != lowered:
                raise TenantAccessError(
                    f"tenant {lowered!r} may not access {name!r} "
                    f"(owned by tenant {owner!r})"
                )
