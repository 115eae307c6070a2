"""Graceful degradation: rule sandbox, timeouts, retries, health, and
the robustness counters' export surface."""

import json
import threading
import urllib.request

import pytest

from repro.database import Database
from repro.errors import ConstraintError, QueryTimeoutError, TransactionError
from repro.faults import SimulatedCrash
from repro.observability import (
    MetricsServer,
    render_metrics_json,
    render_prometheus,
)
from repro.optimizer import pipeline
from repro.optimizer.pipeline import RuleFailureWarning


def demo_db():
    db = Database()
    db.execute("create table t (id int primary key, v int)")
    db.execute("insert into t values (1, 10), (2, 20), (3, 30)")
    return db


class TestRuleSandbox:
    def test_raising_rule_degrades_not_fails(self, monkeypatch):
        db = demo_db()
        baseline = sorted(db.query("select id, v from t where id > 1").rows)

        def broken(plan, sctx):
            raise RuntimeError("rule bug")

        monkeypatch.setattr(pipeline, "cleanup_plan", broken)
        with pytest.warns(RuleFailureWarning, match="cleanup"):
            degraded = sorted(db.query("select id, v from t where id > 1").rows)
        assert degraded == baseline  # fallback plan, correct answer
        assert db.metrics.counter("optimizer.rule_failures").value > 0
        assert db.health()["status"] == "degraded"

    def test_fault_point_drives_sandbox(self):
        db = demo_db()
        db.faults.arm("optimizer.rule", match={"rule": "simplify"})
        with pytest.warns(RuleFailureWarning, match="simplify"):
            rows = db.query("select count(*) from t").scalar()
        assert rows == 3
        db.faults.disarm()

    def test_sandbox_under_tracing(self, monkeypatch):
        db = demo_db()
        db.tracing = True

        def broken(plan, sctx):
            raise ValueError("boom")

        monkeypatch.setattr(pipeline, "cleanup_plan", broken)
        with pytest.warns(RuleFailureWarning):
            result = db.query("select id from t where id = 2")
        assert result.rows == [(2,)]
        warnings_logged = db.last_trace.events_of("warning")
        assert any("failed" in event.name for event in warnings_logged)

    def test_simulated_crash_escapes_sandbox(self):
        db = demo_db()
        db.faults.arm("optimizer.rule", crash=True, times=1)
        with pytest.raises(SimulatedCrash):
            db.query("select id from t")


class TestTimeout:
    def test_deadline_exceeded_raises_and_counts(self):
        db = demo_db()
        with pytest.raises(QueryTimeoutError):
            db.query("select id from t", timeout=-1.0)  # already expired
        assert db.metrics.counter("query.timeouts").value == 1

    def test_expired_deadline_comes_before_planning_a_learned_shape(
            self, monkeypatch):
        # A learned shape's miss plans its generic statement; an expired
        # deadline must still fail the statement before any planning.
        import repro.database as database_module

        db = Database(wal_enabled=False, plan_cache_size=1)
        db.execute("create table t (id int primary key, v int)")
        db.execute("insert into t values (1, 10), (2, 20), (3, 30)")
        for sql in ("select v from t where id = 1", "select v from t where id = 2",
                    "select id from t where v = 10", "select id from t where v = 20"):
            db.query(sql)  # the second shape evicts the learned first one
        calls = []
        real = database_module.optimize_plan
        monkeypatch.setattr(
            database_module, "optimize_plan",
            lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs),
        )
        with pytest.raises(QueryTimeoutError):
            db.query("select v from t where id = 3", timeout=-1.0)
        assert calls == []
        assert db.query("select v from t where id = 3").rows == [(30,)]
        assert calls == [1]

    def test_generous_deadline_passes(self):
        db = demo_db()
        result = db.query("select count(*) from t", timeout=60.0)
        assert result.scalar() == 3
        assert db.metrics.counter("query.timeouts").value == 0

    def test_no_timeout_by_default(self):
        db = demo_db()
        assert db.query("select count(*) from t").scalar() == 3


class TestRetry:
    def test_commits_on_first_success(self):
        db = demo_db()
        result = db.run_with_retry(
            lambda txn: db.execute("insert into t values (4, 40)", txn)
        )
        assert result == 1
        assert db.query("select count(*) from t").scalar() == 4
        assert db.metrics.counter("txn.conflict_retries").value == 0

    def test_retries_conflicts_with_backoff(self):
        db = demo_db()
        delays = []
        attempts = {"n": 0}

        def flaky(txn):
            attempts["n"] += 1
            if attempts["n"] < 3:
                raise ConstraintError("write-write conflict")
            return db.execute("insert into t values (5, 50)", txn)

        result = db.run_with_retry(flaky, sleep=delays.append)
        assert result == 1 and attempts["n"] == 3
        assert db.metrics.counter("txn.conflict_retries").value == 2
        assert len(delays) == 2 and delays[1] > delays[0]  # exponential
        assert db.query("select v from t where id = 5").rows == [(50,)]

    def test_exhausts_attempts_and_reraises(self):
        db = demo_db()

        def always_conflicts(txn):
            raise TransactionError("conflict")

        with pytest.raises(TransactionError, match="conflict"):
            db.run_with_retry(always_conflicts, attempts=3, sleep=lambda s: None)
        assert db.metrics.counter("txn.conflict_retries").value == 2
        assert db.txn_manager.active_count == 0  # everything rolled back

    def test_non_retryable_error_propagates_immediately(self):
        db = demo_db()
        calls = {"n": 0}

        def broken(txn):
            calls["n"] += 1
            raise ValueError("logic bug")

        with pytest.raises(ValueError):
            db.run_with_retry(broken, sleep=lambda s: None)
        assert calls["n"] == 1
        assert db.txn_manager.active_count == 0

    def test_backoff_is_capped(self):
        db = demo_db()
        delays = []

        def always(txn):
            raise TransactionError("conflict")

        with pytest.raises(TransactionError):
            db.run_with_retry(
                always, attempts=10, base_delay_s=0.1, max_delay_s=0.2,
                sleep=delays.append,
            )
        assert max(delays) <= 0.2


class TestHealth:
    def test_ok_by_default(self):
        db = demo_db()
        assert db.health() == {"status": "ok", "reasons": []}

    def test_degraded_while_fault_armed(self):
        db = demo_db()
        db.faults.arm("wal.append")
        health = db.health()
        assert health["status"] == "degraded"
        assert any("wal.append" in r for r in health["reasons"])
        db.faults.disarm()
        assert db.health()["status"] == "ok"

    def test_healthz_endpoint_reports_degraded(self):
        db = demo_db()
        server = MetricsServer(db, port=0).start()
        try:
            body = urllib.request.urlopen(f"{server.url}/healthz").read().decode()
            assert body.startswith("ok")
            db.faults.arm("storage.insert")
            body = urllib.request.urlopen(f"{server.url}/healthz").read().decode()
            assert body.startswith("degraded")
            assert "storage.insert" in body
        finally:
            server.close()


ROBUSTNESS_COUNTERS = (
    "wal.fsyncs",
    "wal.checkpoints",
    "wal.torn_tail_truncations",
    "optimizer.rule_failures",
    "txn.conflict_retries",
    "query.timeouts",
    "faults.injected",
)


class TestCounterExport:
    def test_all_robustness_counters_exported(self, tmp_path):
        db = Database(wal_dir=str(tmp_path))  # durable WAL registers its trio
        db.execute("create table t (id int primary key)")
        prom = render_prometheus(db.metrics)
        snapshot = json.loads(render_metrics_json(db.metrics))
        for name in ROBUSTNESS_COUNTERS:
            assert name in snapshot, name
            assert f"repro_{name.replace('.', '_')}" in prom, name
        db.close()

    def test_counters_move_and_export(self, tmp_path):
        db = Database(wal_dir=str(tmp_path))
        db.execute("create table t (id int primary key)")
        db.execute("insert into t values (1)")
        db.checkpoint()
        db.faults.arm("storage.insert", times=1)
        with pytest.raises(Exception):
            db.execute("insert into t values (2)")
        with pytest.raises(QueryTimeoutError):
            db.query("select id from t", timeout=-1.0)
        snapshot = json.loads(render_metrics_json(db.metrics))
        assert snapshot["wal.fsyncs"] > 0
        assert snapshot["wal.checkpoints"] == 1
        assert snapshot["faults.injected"] == 1
        assert snapshot["query.timeouts"] == 1
        db.close()


class TestMvccThreadSafety:
    def test_concurrent_transactions_stress(self):
        db = demo_db()
        workers, per_worker = 8, 50
        errors = []
        barrier = threading.Barrier(workers)

        def worker(base):
            try:
                barrier.wait()
                for i in range(per_worker):
                    txn = db.begin()
                    db.execute(
                        f"insert into t values ({base + i}, {i})", txn
                    )
                    if i % 7 == 0:
                        db.rollback(txn)
                    else:
                        db.commit(txn)
            except Exception as exc:  # noqa: BLE001 — collected for the assert
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(1000 * (w + 1),))
            for w in range(workers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert db.txn_manager.active_count == 0
        committed = workers * sum(1 for i in range(per_worker) if i % 7 != 0)
        assert db.query("select count(*) from t").scalar() == 3 + committed
        # TID allocation never produced duplicates: every insert landed.
        ids = db.query("select id from t").column("id")
        assert len(ids) == len(set(ids))
