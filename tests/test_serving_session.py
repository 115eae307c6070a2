"""Sessions, tenancy, and the statement pipeline.

Covers the SessionManager pipeline order (breaker → rate limit →
namespace check → admission → engine), per-tenant isolation, explicit
transactions over sessions, circuit-breaker integration with
``db.health()``, and graceful shutdown semantics.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.database import Database
from repro.errors import (
    BindError,
    CircuitOpenError,
    ExecutionError,
    OverloadError,
    RateLimitedError,
    SqlSyntaxError,
    TenantAccessError,
)
from repro.serving import SessionManager, referenced_tables
from repro.sql import parse_statement


@pytest.fixture()
def db():
    database = Database()
    database.execute("create table shared (id int primary key, v int)")
    database.execute("insert into shared values (1, 10), (2, 20)")
    yield database
    database.close()


@pytest.fixture()
def manager(db):
    mgr = SessionManager(db, max_concurrent=2, max_queue=4)
    yield mgr
    mgr.shutdown()


# -- sessions and statements -------------------------------------------------


def test_session_query_and_execute(manager):
    with manager.session() as session:
        assert session.query("select sum(v) from shared").rows == [(30,)]
        assert session.execute("insert into shared values (3, 30)") == 1
        assert session.queries_run == 2
        assert session.last_query_id is not None


def test_session_query_rejects_dml(manager):
    with manager.session() as session:
        with pytest.raises(ExecutionError, match="SELECT"):
            session.query("insert into shared values (9, 90)")


def test_session_explicit_transaction(manager, db):
    session = manager.session()
    session.begin()
    assert session.txn_open
    session.execute("insert into shared values (5, 50)")
    # invisible outside the transaction until commit
    assert db.query("select count(*) from shared").rows == [(2,)]
    session.commit()
    assert db.query("select count(*) from shared").rows == [(3,)]
    session.close()


def test_session_close_rolls_back_open_transaction(manager, db):
    session = manager.session()
    session.begin()
    session.execute("insert into shared values (5, 50)")
    session.close()
    assert db.query("select count(*) from shared").rows == [(2,)]
    assert session.state == "closed"
    with pytest.raises(ExecutionError, match="closed"):
        session.query("select 1 from shared")


def test_session_double_begin_rejected(manager):
    session = manager.session()
    session.begin()
    with pytest.raises(ExecutionError, match="open transaction"):
        session.begin()
    session.rollback()
    with pytest.raises(ExecutionError, match="no open transaction"):
        session.commit()
    session.close()


# -- tenant namespace scoping ------------------------------------------------


def test_referenced_tables_walks_joins_and_subqueries():
    statement = parse_statement(
        "select a.id from shared a join shared b on a.id = b.id "
        "where a.v > (select max(v) from shared)"
    )
    assert referenced_tables(statement) == {"shared"}
    statement = parse_statement("insert into target values (1)")
    assert referenced_tables(statement) == {"target"}


def test_tenant_owns_what_it_creates(manager):
    acme = manager.session("acme")
    globex = manager.session("globex")
    acme.execute("create table acme_orders (id int primary key, total int)")
    acme.execute("insert into acme_orders values (1, 100)")
    with pytest.raises(TenantAccessError, match="acme"):
        globex.query("select * from acme_orders")
    # the owner still can, and shared tables stay shared
    assert acme.query("select total from acme_orders").rows == [(100,)]
    assert globex.query("select count(*) from shared").rows == [(2,)]
    acme.close()
    globex.close()


def test_drop_releases_ownership(manager):
    acme = manager.session("acme")
    globex = manager.session("globex")
    acme.execute("create table mine (id int primary key)")
    acme.execute("drop table mine")
    globex.execute("create table mine (id int primary key)")  # now theirs
    with pytest.raises(TenantAccessError):
        acme.query("select * from mine")
    acme.close()
    globex.close()


def test_sys_tables_readable_by_every_tenant(manager):
    with manager.session("acme") as session:
        assert session.query("select count(*) from sys.metrics").rows


def test_cross_tenant_rejection_does_not_consume_a_slot(manager, db):
    acme = manager.session("acme")
    globex = manager.session("globex")
    acme.execute("create table secret (id int primary key)")
    before = db.metrics.snapshot().get("serving.admitted", 0)
    with pytest.raises(TenantAccessError):
        globex.query("select * from secret")
    assert db.metrics.snapshot().get("serving.admitted", 0) == before
    acme.close()
    globex.close()


# -- rate limiting -----------------------------------------------------------


def test_per_tenant_rate_limit(db):
    manager = SessionManager(db, rate_per_s=1.0, burst=2)
    session = manager.session("acme")
    session.query("select 1 from shared")
    session.query("select 1 from shared")
    with pytest.raises(RateLimitedError) as excinfo:
        session.query("select 1 from shared")
    assert excinfo.value.retry_after > 0
    # another tenant has its own bucket
    other = manager.session("globex")
    assert other.query("select count(*) from shared").rows == [(2,)]
    stats = manager.stats()
    assert stats["tenants"]["acme"]["rate_limited"] == 1
    assert stats["tenants"]["globex"]["rate_limited"] == 0
    manager.shutdown()


# -- circuit breaker ---------------------------------------------------------


def _trip(session, n):
    db = session._manager.db
    db.faults.arm("executor.operator", times=n)
    for _ in range(n):
        with pytest.raises(Exception):
            session.query("select v from shared")
    db.faults.disarm()


def test_breaker_trips_on_engine_failures_and_recovers(db):
    manager = SessionManager(db, breaker_threshold=3, breaker_cooldown_s=30.0)
    session = manager.session("acme")
    _trip(session, 3)
    with pytest.raises(CircuitOpenError) as excinfo:
        session.query("select v from shared")
    assert excinfo.value.retry_after > 0
    # db.health() surfaces the tripped breaker
    health = db.health()
    assert health["status"] == "degraded"
    assert any("acme=open" in reason for reason in health["reasons"])
    # other tenants are unaffected
    with manager.session("globex") as other:
        assert other.query("select count(*) from shared").rows == [(2,)]
    manager.shutdown()


def test_breaker_half_open_probe_recovers(db):
    manager = SessionManager(db, breaker_threshold=1,
                             breaker_cooldown_s=0.05)
    session = manager.session("acme")
    _trip(session, 1)
    time.sleep(0.1)  # cooldown elapses -> half-open probe allowed
    assert session.query("select count(*) from shared").rows == [(2,)]
    state = manager.tenants.get("acme").breaker.state
    assert state == "closed"
    assert db.health()["status"] == "ok"
    manager.shutdown()


def test_breaker_probe_not_leaked_by_abandoned_statement(db):
    """A half-open probe abandoned before reaching the engine (here: a
    parse error) must return its slot — a leaked probe would lock the
    tenant out forever."""
    manager = SessionManager(db, breaker_threshold=1,
                             breaker_cooldown_s=0.05)
    session = manager.session("acme")
    _trip(session, 1)
    time.sleep(0.1)  # half-open: the next statement takes the probe slot
    with pytest.raises(SqlSyntaxError):
        session.query("selec t fro m")
    # the abandoned probe was cancelled, so the next statement probes
    # and recovers instead of raising CircuitOpenError
    assert session.query("select count(*) from shared").rows == [(2,)]
    assert manager.tenants.get("acme").breaker.state == "closed"
    manager.shutdown()


def test_client_errors_never_trip_breaker(db):
    manager = SessionManager(db, breaker_threshold=2)
    session = manager.session("acme")
    for _ in range(5):
        with pytest.raises(SqlSyntaxError):
            session.query("selec t fro m")
        with pytest.raises(BindError):
            session.query("select * from no_such_table")
    assert manager.tenants.get("acme").breaker.state == "closed"
    session.query("select 1 from shared")
    manager.shutdown()


# -- session thread-safety ---------------------------------------------------


def test_concurrent_begins_race_safely(manager, db):
    """Two racing BEGINs on one session must not both create (and one
    silently leak) a transaction: exactly one wins, the rest get the
    'already has an open transaction' error."""
    session = manager.session()
    errors: list[Exception] = []
    barrier = threading.Barrier(4)

    def racer():
        barrier.wait(5)
        try:
            session.begin()
        except ExecutionError as exc:
            errors.append(exc)

    threads = [threading.Thread(target=racer) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(5)
    assert len(errors) == 3, "exactly one BEGIN may win the race"
    assert all("open transaction" in str(e) for e in errors)
    session.rollback()
    session.close()


def test_one_statement_at_a_time_per_session(manager):
    """A second concurrent statement on one session is rejected with a
    clear error instead of racing the first one's transaction state."""
    session = manager.session()
    held, release = threading.Event(), threading.Event()

    def holder():  # stands in for a statement still executing
        with session._slock:
            held.set()
            release.wait(5)

    thread = threading.Thread(target=holder)
    thread.start()
    assert held.wait(5)
    with pytest.raises(ExecutionError, match="statement in flight"):
        session.query("select 1 from shared")
    release.set()
    thread.join(5)
    assert session.query("select count(*) from shared").rows == [(2,)]
    session.close()


# -- shutdown ----------------------------------------------------------------


def test_shutdown_closes_sessions_and_refuses_new_work(db):
    manager = SessionManager(db)
    session = manager.session("acme")
    session.begin()
    session.execute("insert into shared values (7, 70)")
    assert manager.shutdown() is True
    # the abandoned transaction was rolled back
    assert db.query("select count(*) from shared").rows == [(2,)]
    assert session.state == "closed"
    with pytest.raises(OverloadError):
        manager.session("acme")
    assert manager.shutdown() is True  # idempotent


def test_close_skips_rollback_while_statement_runs(db):
    """When the drain times out, a session whose statement is still
    executing must NOT have its transaction rolled back out from under
    it — the transaction is left for WAL recovery instead."""
    manager = SessionManager(db)
    session = manager.session()
    session.begin()
    session.execute("insert into shared values (8, 80)")
    held, release = threading.Event(), threading.Event()

    def runner():  # stands in for the still-running statement
        with session._slock:
            held.set()
            release.wait(5)

    thread = threading.Thread(target=runner)
    thread.start()
    assert held.wait(5)
    # lock_timeout=0 is the failed-drain shutdown path
    manager._close_session(session, lock_timeout=0.0)
    assert session.state == "closed"
    assert session._txn is not None, \
        "transaction must not be rolled back under a running statement"
    release.set()
    thread.join(5)
    db.rollback(session._txn)  # test cleanup: release the MVCC horizon
    session._txn = None
    manager.shutdown()


def test_submit_racing_shutdown_is_shed_as_draining(db, monkeypatch):
    """A statement submitted while shutdown's closer holds the session
    lock (rolling back the abandoned transaction) is shed like any late
    statement — not refused as a second statement in flight."""
    manager = SessionManager(db)
    session = manager.session()
    session.begin()
    session.execute("insert into shared values (9, 90)")
    parked, release = threading.Event(), threading.Event()
    rollback = db.rollback

    def parked_rollback(txn):
        parked.set()
        release.wait(5)
        rollback(txn)

    monkeypatch.setattr(db, "rollback", parked_rollback)
    closer = threading.Thread(target=manager.shutdown)
    closer.start()
    try:
        assert parked.wait(5), "shutdown never reached the rollback"
        with pytest.raises(OverloadError, match="draining"):
            session.query("select count(*) from shared")
    finally:
        release.set()
        closer.join(5)
    assert not closer.is_alive()
    assert db.query("select count(*) from shared").rows == [(2,)]


def test_shutdown_flushes_durable_wal(tmp_path):
    db = Database(wal_dir=str(tmp_path), fsync="never")
    db.execute("create table t (id int primary key)")
    manager = SessionManager(db)
    with manager.session() as session:
        session.execute("insert into t values (1)")
    assert manager.shutdown() is True
    db.close()
    recovered = Database.recover(str(tmp_path))
    assert recovered.query("select count(*) from t").rows == [(1,)]
    recovered.close()


def test_database_close_drains_serving(db):
    manager = SessionManager(db)
    manager.session("acme")
    db.close()
    assert manager.closed
    assert db.serving is manager


def test_health_reports_draining(db):
    manager = SessionManager(db)
    manager.shutdown()
    health = db.health()
    assert any("draining" in reason for reason in health["reasons"])
