"""Sessions and the SessionManager: many clients, one Database.

A :class:`Session` owns one client's transaction state (an optional
explicit transaction, i.e. its MVCC snapshot) and its serving
bookkeeping; a :class:`SessionManager` owns the shared admission
controller, the tenant registry, and the session table, and
self-registers on ``db.serving`` so ``sys.sessions`` / ``sys.admission``
and :meth:`Database.health` can see it.

Every statement submitted through a session runs the same pipeline::

    breaker.allow -> token bucket -> namespace check -> admission queue
        -> Database.query/execute (deadline stamped at submission)
        -> breaker.record_success/record_failure

Deadlines are stamped *at submission*, before the admission queue, so
queue wait counts against the statement budget — a statement that spent
its whole budget queued raises :class:`~repro.errors.QueryTimeoutError`
without ever executing.

GIL story: the engine is pure Python, so concurrent statements
time-slice one interpreter rather than using many cores.  What the
serving layer guarantees is *safety* (no torn state — see the storage
locks) and *bounded interference* (admission caps, shedding, deadlines),
which are exactly the properties that survive a move to a GIL-free
runtime or a C executor.
"""

from __future__ import annotations

import itertools
import threading
import time

from ..errors import (
    BindError,
    CatalogError,
    ConstraintError,
    ExecutionError,
    FaultInjectedError,
    OverloadError,
    QueryTimeoutError,
    RateLimitedError,
    SqlSyntaxError,
    TypeCheckError,
)
from ..sql import ast, parse_statement
from .admission import AdmissionController
from .tenants import DEFAULT_TENANT, TenantRegistry

#: Client-side mistakes: never trip the circuit breaker.
CLIENT_ERRORS = (
    SqlSyntaxError, BindError, CatalogError, ConstraintError, TypeCheckError,
)

IDLE, QUEUED, RUNNING, CLOSED = "idle", "queued", "running", "closed"


class Session:
    """One client's handle on the shared database."""

    def __init__(self, manager: "SessionManager", session_id: str, tenant: str):
        self._manager = manager
        self.session_id = session_id
        self.tenant = tenant
        self.opened_at = time.time()
        self.state = IDLE
        self.queries_run = 0
        self.errors = 0
        self.last_query_id: str | None = None
        self._txn = None
        # Serializes this session's statements and transaction control: a
        # session is one client's handle, so a second concurrent statement
        # is a protocol violation (rejected in _submit), while begin /
        # commit / rollback wait their turn rather than swapping _txn
        # under a statement that is still executing on it.
        self._slock = threading.RLock()

    # -- statements --------------------------------------------------------

    def query(self, sql: str, timeout: float | None = None):
        """Run one SELECT through admission control."""
        return self._manager._submit(self, sql, timeout, query_only=True)

    def execute(self, sql: str, timeout: float | None = None):
        """Run any statement (SELECT/DML/DDL) through admission control."""
        return self._manager._submit(self, sql, timeout, query_only=False)

    # -- explicit transactions --------------------------------------------

    @property
    def txn_open(self) -> bool:
        return self._txn is not None

    def begin(self) -> None:
        with self._slock:
            if self._txn is not None:
                raise ExecutionError(
                    f"session {self.session_id} already has an open transaction"
                )
            self._txn = self._manager.db.begin()

    def commit(self) -> None:
        with self._slock:
            if self._txn is None:
                raise ExecutionError(
                    f"session {self.session_id}: no open transaction"
                )
            txn, self._txn = self._txn, None
            self._manager.db.commit(txn)

    def rollback(self) -> None:
        with self._slock:
            if self._txn is None:
                raise ExecutionError(
                    f"session {self.session_id}: no open transaction"
                )
            txn, self._txn = self._txn, None
            self._manager.db.rollback(txn)

    def close(self) -> None:
        """Roll back any open transaction and unregister the session."""
        self._manager._close_session(self)

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SessionManager:
    """The serving layer for one Database; self-registers on ``db.serving``."""

    def __init__(
        self,
        db,
        max_concurrent: int = 8,
        max_queue: int = 32,
        default_timeout_s: float | None = None,
        rate_per_s: float | None = None,
        burst: int | None = None,
        breaker_threshold: int = 5,
        breaker_cooldown_s: float = 1.0,
    ) -> None:
        self.db = db
        self.default_timeout_s = default_timeout_s
        self.admission = AdmissionController(
            max_concurrent=max_concurrent,
            max_queue=max_queue,
            metrics=db.metrics,
        )
        self.tenants = TenantRegistry(
            rate_per_s=rate_per_s,
            burst=burst,
            breaker_threshold=breaker_threshold,
            breaker_cooldown_s=breaker_cooldown_s,
        )
        self._sessions: dict[str, Session] = {}
        self._session_seq = itertools.count(1)
        self._lock = threading.RLock()
        self._draining = False
        self._closed = False
        self._g_sessions = db.metrics.gauge("serving.sessions_open")
        self._m_rate_limited = db.metrics.counter("serving.rate_limited")
        self._m_breaker_rejects = db.metrics.counter("serving.breaker_rejects")
        db.serving = self

    # -- session lifecycle -------------------------------------------------

    def session(self, tenant: str = DEFAULT_TENANT) -> Session:
        with self._lock:
            if self._draining or self._closed:
                raise OverloadError("server is draining; no new sessions")
            session = Session(
                self, f"s{next(self._session_seq)}", (tenant or DEFAULT_TENANT).lower()
            )
            self._sessions[session.session_id] = session
            self._g_sessions.set(len(self._sessions))
            return session

    def get_session(self, session_id: str) -> Session:
        session = self._sessions.get(session_id)
        if session is None:
            raise ExecutionError(f"no session {session_id!r}")
        return session

    def sessions(self) -> list[Session]:
        with self._lock:
            return list(self._sessions.values())

    def _close_session(self, session: Session,
                       lock_timeout: float = 5.0) -> None:
        with self._lock:
            if session.state == CLOSED:
                return
            session.state = CLOSED
            self._sessions.pop(session.session_id, None)
            self._g_sessions.set(len(self._sessions))
        # Roll back an abandoned transaction only once no statement is
        # executing on it: yanking the transaction under an in-flight
        # statement would let it observe a rolled-back snapshot.
        if lock_timeout > 0:
            acquired = session._slock.acquire(timeout=lock_timeout)
        else:
            acquired = session._slock.acquire(blocking=False)
        if not acquired:
            # A statement is still running on this session (drain timed
            # out); leave its transaction for WAL recovery instead.
            return
        try:
            if session._txn is not None:
                txn, session._txn = session._txn, None
                try:
                    self.db.rollback(txn)
                except Exception:
                    pass  # already aborted/crashed; closing must not raise
        finally:
            session._slock.release()

    # -- introspection -----------------------------------------------------

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def closed(self) -> bool:
        return self._closed

    def stats(self) -> dict:
        """The gateway's /stats payload."""
        admission = self.admission.snapshot()
        tenants = {}
        for state in self.tenants.states():
            tenants[state.name] = {
                "admitted": state.admitted,
                "shed": state.shed,
                "rate_limited": state.rate_limited,
                "timeouts": state.timeouts,
                "errors": state.errors,
                "breaker_state": state.breaker.state,
                "breaker_rejects": state.breaker_rejects,
            }
        return {
            "admission": admission,
            "tenants": tenants,
            "sessions_open": len(self._sessions),
            "draining": self._draining,
        }

    # -- the statement pipeline -------------------------------------------

    def _submit(self, session: Session, sql: str, timeout: float | None,
                query_only: bool):
        submitted = time.monotonic()
        if not session._slock.acquire(blocking=False):
            # Shutdown's closer holds the lock while it rolls back: a
            # statement racing it is shed like any other late arrival.
            self._check_open(session)
            raise ExecutionError(
                f"session {session.session_id} already has a statement in "
                "flight; a session runs one statement at a time"
            )
        try:
            return self._submit_locked(session, sql, timeout, query_only,
                                       submitted)
        finally:
            session._slock.release()

    def _submit_locked(self, session: Session, sql: str,
                       timeout: float | None, query_only: bool,
                       submitted: float):
        self._check_open(session)
        effective = timeout if timeout is not None else self.default_timeout_s
        deadline = None if effective is None else submitted + effective
        tenant = self.tenants.get(session.tenant)

        try:
            probe = tenant.breaker.allow()
        except Exception:
            self.tenants.count(session.tenant, "breaker_rejects")
            self._m_breaker_rejects.inc()
            raise
        # From here the breaker must reach exactly one verdict: success,
        # failure, or cancel_probe on abandonment — otherwise a granted
        # half-open probe slot leaks and locks the tenant out forever.
        settled = False
        try:
            bucket = tenant.bucket
            if bucket is not None:
                wait_hint = bucket.try_acquire()
                if wait_hint > 0:
                    self.tenants.count(session.tenant, "rate_limited")
                    self._m_rate_limited.inc()
                    raise RateLimitedError(
                        f"tenant {session.tenant!r} exceeded its rate limit",
                        retry_after=wait_hint,
                    )
            # Scope check before queueing: a cross-tenant statement must
            # not consume a slot.  (The statement is parsed again inside
            # the engine; parse cost is trivial next to a queue slot.)
            statement = parse_statement(sql)
            if query_only and not isinstance(statement, ast.Query):
                raise ExecutionError("query() expects a SELECT statement")
            self.tenants.check_access(session.tenant, statement)

            self._set_state(session, QUEUED)
            try:
                def work():
                    self._set_state(session, RUNNING)
                    return self._run_statement(session, statement, sql,
                                               deadline)

                outcome = self.admission.run(work, deadline=deadline)
            except QueryTimeoutError:
                self.tenants.count(session.tenant, "timeouts")
                session.errors += 1
                settled = True
                tenant.breaker.record_failure()
                raise
            except OverloadError:
                # Shedding is the controller doing its job, not a tenant
                # fault: the probe is abandoned, not failed.
                self.tenants.count(session.tenant, "shed")
                raise
            except CLIENT_ERRORS:
                session.errors += 1
                raise
            except (ExecutionError, FaultInjectedError):
                session.errors += 1
                settled = True
                tenant.breaker.record_failure()
                self.tenants.count(session.tenant, "errors")
                raise
            finally:
                self._set_state(session, IDLE)
            settled = True
            tenant.breaker.record_success()
            self.tenants.count(session.tenant, "admitted")
            return outcome
        finally:
            if probe and not settled:
                tenant.breaker.cancel_probe()

    def _check_open(self, session: Session) -> None:
        if self._draining or self._closed:
            raise OverloadError("server is draining")
        if session.state == CLOSED:
            raise ExecutionError(f"session {session.session_id} is closed")

    def _set_state(self, session: Session, state: str) -> None:
        """Move an open session to ``state``; a closed session stays
        closed.  Every write of ``session.state`` holds ``_lock``."""
        with self._lock:
            if session.state != CLOSED:
                session.state = state

    def _run_statement(self, session: Session, statement, sql: str,
                       deadline: float | None):
        db = self.db
        if isinstance(statement, ast.Query):
            result = db.query(sql, txn=session._txn, deadline=deadline)
            session.queries_run += 1
            if result.stats is not None:
                session.last_query_id = result.stats.query_id
            return result
        # DML/DDL: cooperative deadlines only cover the queue wait (the
        # write paths have no per-batch deadline checks); an already-spent
        # budget still fails before execution via admission.
        outcome = db.execute(sql, txn=session._txn)
        session.queries_run += 1
        if isinstance(statement, (ast.CreateTable, ast.CreateView)):
            self.tenants.claim(session.tenant, statement.name)
        elif isinstance(statement, ast.DropStatement):
            self.tenants.release(statement.name)
        return outcome

    # -- shutdown ----------------------------------------------------------

    def shutdown(self, drain_timeout: float | None = 10.0) -> bool:
        """Graceful shutdown: stop admitting, drain in-flight statements,
        roll back abandoned transactions, flush the WAL.

        Returns True when every in-flight statement finished inside
        ``drain_timeout`` (None = wait forever).  Idempotent.
        """
        with self._lock:
            if self._closed:
                return True
            self._draining = True
        drained = self.admission.close(drain_timeout)
        for session in self.sessions():
            # After a failed drain some statements are still executing;
            # skip their rollback (non-blocking acquire) rather than
            # rolling back a transaction a statement is actively using.
            self._close_session(session, lock_timeout=5.0 if drained else 0.0)
        wal = getattr(self.db, "wal", None)
        if wal is not None and getattr(wal, "durable", False):
            try:
                wal.sync()
            except Exception:
                pass  # a crashed/closed WAL must not wedge shutdown
        with self._lock:
            self._closed = True
        return drained
