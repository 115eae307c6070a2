"""The HTTP JSON gateway: protocol, error mapping, overload, shutdown.

The acceptance scenario lives here: under 4x ``max_concurrent`` closed-
loop load the gateway sheds with *structured* 429 responses (body carries
``type`` and ``retry_after``, the header carries ``Retry-After``) — zero
unhandled exceptions, zero hung threads — and graceful shutdown drains
in-flight statements and leaves a recoverable WAL.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.database import Database
from repro.serving import GatewayServer


def _post(url: str, path: str, payload: dict) -> tuple[int, dict, dict]:
    """POST JSON; returns (status, body, headers) without raising."""
    request = urllib.request.Request(
        url + path,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return (response.status, json.loads(response.read()),
                    dict(response.headers))
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), dict(error.headers)


def _get(url: str, path: str) -> tuple[int, bytes]:
    try:
        with urllib.request.urlopen(url + path, timeout=30) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


@pytest.fixture()
def gateway():
    db = Database()
    db.execute("create table t (id int primary key, v int)")
    db.execute("insert into t values (1, 10), (2, 20), (3, 30)")
    server = GatewayServer(db, port=0, max_concurrent=2, max_queue=4).start()
    yield server
    server.close(drain_timeout=10)
    db.close()


# -- the JSON protocol -------------------------------------------------------


def test_query_roundtrip(gateway):
    status, body, _ = _post(gateway.url, "/v1/query",
                            {"sql": "select v from t order by v"})
    assert status == 200
    assert body["ok"] is True
    assert body["columns"] == ["v"]
    assert body["rows"] == [[10], [20], [30]]
    assert body["row_count"] == 3
    assert body["query_id"].startswith("q")
    assert body["elapsed_ms"] >= 0


def test_dml_and_ddl_responses(gateway):
    status, body, _ = _post(gateway.url, "/v1/query",
                            {"sql": "create table x (id int primary key)"})
    assert (status, body) == (200, {"ok": True})
    status, body, _ = _post(gateway.url, "/v1/query",
                            {"sql": "insert into x values (1), (2)"})
    assert status == 200
    assert body["rows_affected"] == 2


def test_sticky_session_transaction(gateway):
    _, body, _ = _post(gateway.url, "/v1/session", {"tenant": "acme"})
    sid = body["session"]
    assert body["tenant"] == "acme"
    for sql in ("begin", "insert into t values (9, 90)", "commit"):
        status, body, _ = _post(gateway.url, "/v1/query",
                                {"sql": sql, "session": sid})
        assert status == 200, body
    status, body, _ = _post(gateway.url, "/v1/query",
                            {"sql": "select count(*) from t"})
    assert body["rows"] == [[4]]
    status, body, _ = _post(gateway.url, "/v1/session/close", {"session": sid})
    assert status == 200


def test_transaction_requires_sticky_session(gateway):
    status, body, _ = _post(gateway.url, "/v1/query", {"sql": "begin"})
    assert status == 400
    assert "sticky session" in body["error"]


def test_error_mapping(gateway):
    # 400: syntax error
    status, body, _ = _post(gateway.url, "/v1/query", {"sql": "selec t"})
    assert status == 400 and body["ok"] is False
    assert body["type"] == "SqlSyntaxError"
    # 400: missing sql
    status, body, _ = _post(gateway.url, "/v1/query", {})
    assert status == 400
    # 404: unknown endpoint
    status, body, _ = _post(gateway.url, "/v1/nope", {})
    assert status == 404
    # 408: expired budget (queue wait included; a negative budget has
    # always already expired at admission)
    status, body, _ = _post(gateway.url, "/v1/query",
                            {"sql": "select v from t", "timeout": -0.001})
    assert status == 408
    assert body["type"] == "QueryTimeoutError"


def test_incomparable_comparison_is_a_400(gateway):
    # INTEGER < VARCHAR is the client's mistake: 400, and the breaker is
    # not charged, so past its threshold of 5 the next statement still runs.
    for _ in range(6):
        status, body, _ = _post(gateway.url, "/v1/query",
                                {"sql": "select count(*) from t where v < 'x'"})
        assert status == 400 and body["ok"] is False
        assert body["type"] == "TypeCheckError"
        assert "INTEGER" in body["error"] and "VARCHAR" in body["error"]
    status, body, _ = _post(gateway.url, "/v1/query",
                            {"sql": "select count(*) from t"})
    assert status == 200 and body["rows"] == [[3]]


def test_non_numeric_timeout_is_a_400(gateway):
    for bad in ("abc", [1], {"s": 1}):
        status, body, _ = _post(gateway.url, "/v1/query",
                                {"sql": "select v from t", "timeout": bad})
        assert status == 400, f"timeout={bad!r} must be a client error"
        assert body["ok"] is False
        assert "timeout" in body["error"]


def test_tenant_isolation_maps_to_403(gateway):
    _post(gateway.url, "/v1/query",
          {"sql": "create table acme_t (id int primary key)",
           "tenant": "acme"})
    status, body, _ = _post(gateway.url, "/v1/query",
                            {"sql": "select * from acme_t",
                             "tenant": "globex"})
    assert status == 403
    assert body["type"] == "TenantAccessError"


def test_healthz_and_stats(gateway):
    status, payload = _get(gateway.url, "/healthz")
    assert status == 200 and payload.startswith(b"ok")
    status, payload = _get(gateway.url, "/stats")
    stats = json.loads(payload)
    assert stats["admission"]["max_concurrent"] == 2
    assert "sessions_open" in stats


def test_sys_admission_visible_over_http(gateway):
    status, body, _ = _post(
        gateway.url, "/v1/query",
        {"sql": "select tenant, max_concurrent from sys.admission "
                "where tenant = '*'"},
    )
    assert status == 200
    assert body["rows"] == [["*", 2]]


# -- the overload acceptance scenario ----------------------------------------


def test_overload_sheds_structured_429s(monkeypatch):
    """4x max_concurrent closed-loop load: every response is either a
    result or a structured 429/503/408 — nothing hangs, nothing 500s."""
    db = Database()
    db.execute("create table big (id int primary key, v int)")
    db.execute("insert into big values " + ", ".join(
        f"({i}, 1)" for i in range(20)
    ))
    server = GatewayServer(db, port=0, max_concurrent=2, max_queue=1).start()
    slow_sql = "select count(*) from big a join big b on a.v = b.v"
    # Admitted statements park until released, so the two slots and the
    # one queue place stay taken while the other clients arrive: queue
    # pressure does not depend on how fast the join runs.
    release = threading.Event()
    query = db.query

    def parked_query(*args, **kwargs):
        release.wait(60)
        return query(*args, **kwargs)

    monkeypatch.setattr(db, "query", parked_query)
    clients = 4 * 2
    outcomes: list[tuple[int, dict, dict]] = []
    lock = threading.Lock()

    def client():
        for _ in range(3):
            result = _post(server.url, "/v1/query", {"sql": slow_sql})
            with lock:
                outcomes.append(result)

    threads = [threading.Thread(target=client) for _ in range(clients)]
    for thread in threads:
        thread.start()
    give_up = time.monotonic() + 60
    while (db.metrics.snapshot().get("serving.shed", 0) == 0
           and time.monotonic() < give_up):
        time.sleep(0.01)
    release.set()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(t.is_alive() for t in threads), "hung client threads"

    statuses = [status for status, _, _ in outcomes]
    assert len(outcomes) == clients * 3
    assert set(statuses) <= {200, 429}, f"unexpected statuses: {statuses}"
    shed = [(body, headers) for status, body, headers in outcomes
            if status == 429]
    assert shed, "4x load over a 1-deep queue must shed"
    for body, headers in shed:
        assert body["ok"] is False
        assert body["type"] == "OverloadError"
        assert body["retry_after"] > 0
        assert float(headers["Retry-After"]) > 0
    assert any(status == 200 for status in statuses), \
        "admitted queries still complete under overload"
    snapshot = db.metrics.snapshot()
    assert snapshot["serving.shed"] == len(shed)
    assert server.close(drain_timeout=10) is True
    db.close()


def test_graceful_shutdown_drains_and_wal_recovers(tmp_path):
    db = Database(wal_dir=str(tmp_path), fsync="never")
    db.execute("create table t (id int primary key)")
    server = GatewayServer(db, port=0, max_concurrent=2).start()
    for i in range(3):
        status, body, _ = _post(server.url, "/v1/query",
                                {"sql": f"insert into t values ({i})"})
        assert status == 200
    assert server.close(drain_timeout=10) is True
    db.close()
    recovered = Database.recover(str(tmp_path))
    assert recovered.query("select count(*) from t").rows == [(3,)]
    recovered.close()


def test_requests_after_drain_are_shed_not_errors(tmp_path):
    db = Database()
    db.execute("create table t (id int primary key)")
    server = GatewayServer(db, port=0).start()
    url = server.url
    assert server.serving.shutdown(drain_timeout=5) is True
    status, body, _ = _post(url, "/v1/query", {"sql": "select id from t"})
    assert status == 429
    assert body["type"] == "OverloadError"
    server.close(drain_timeout=5)
    db.close()
