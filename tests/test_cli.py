"""Tests for the interactive shell (python -m repro)."""

import subprocess
import sys

import pytest

from repro import Database
from repro.__main__ import DEMO_SQL, format_result, run_command


@pytest.fixture
def db():
    database = Database()
    for sql in DEMO_SQL:
        database.execute(sql)
    return database


class TestRunCommand:
    def test_query_prints_table(self, db, capsys):
        assert run_command(db, "select c_name from customer order by c_id")
        out = capsys.readouterr().out
        assert "ACME" in out and "3 row(s)" in out

    def test_ddl_prints_ok(self, db, capsys):
        run_command(db, "create table t (a int)")
        assert "ok" in capsys.readouterr().out

    def test_dml_prints_count(self, db, capsys):
        run_command(db, "update orders set o_status = 'X' where o_id = 10")
        assert "1 row(s) affected" in capsys.readouterr().out

    def test_explain_commands(self, db, capsys):
        run_command(db, ".explain select o_id from orderview")
        optimized = capsys.readouterr().out
        run_command(db, ".explain! select o_id from orderview")
        unoptimized = capsys.readouterr().out
        assert "Join" not in optimized
        assert "Join" in unoptimized

    def test_stats_command(self, db, capsys):
        run_command(db, ".stats select o_id from orderview")
        out = capsys.readouterr().out
        assert "bound" in out and "optimized" in out

    def test_analyze_command(self, db, capsys):
        run_command(db, ".analyze select o_id from orderview")
        out = capsys.readouterr().out
        assert "actual rows=" in out and "execution:" in out

    def test_trace_command(self, db, capsys):
        run_command(db, ".trace select o_id from orderview")
        out = capsys.readouterr().out
        assert "query trace" in out and "fixpoint:" in out
        assert db.tracing is False   # restored afterwards

    def test_spans_command(self, db, capsys):
        run_command(db, ".spans select o_id from orderview")
        out = capsys.readouterr().out
        assert out.startswith("query")
        assert "optimize" in out and "execute" in out
        assert db.tracing is False   # restored afterwards

    def test_slow_command(self, db, capsys):
        run_command(db, ".slow 0")
        assert "threshold: 0ms" in capsys.readouterr().out
        run_command(db, "select count(*) from orders")
        capsys.readouterr()
        run_command(db, ".slow")
        out = capsys.readouterr().out
        assert "select count(*) from orders" in out
        run_command(db, ".slow -1")
        assert "disabled" in capsys.readouterr().out
        assert db.slow_queries.threshold_s is None

    def test_metrics_command(self, db, capsys):
        run_command(db, "select count(*) from orders")
        capsys.readouterr()
        run_command(db, ".metrics")
        out = capsys.readouterr().out
        assert "queries.executed" in out

    def test_profile_switch(self, db, capsys):
        run_command(db, ".profile postgres")
        assert "postgres" in capsys.readouterr().out
        assert db.profile == "postgres"

    def test_verify_command(self, db, capsys):
        run_command(
            db,
            ".verify select o.o_id from orders o left outer many to one join "
            "customer c on o.o_cust = c.c_id",
        )
        assert "OK" in capsys.readouterr().out

    def test_tables_and_views(self, db, capsys):
        run_command(db, ".tables")
        run_command(db, ".views")
        out = capsys.readouterr().out
        assert "orders" in out and "orderview" in out

    def test_error_reported_not_raised(self, db, capsys):
        assert run_command(db, "select nothere from orders")
        assert "error:" in capsys.readouterr().out

    def test_unknown_dot_command(self, db, capsys):
        run_command(db, ".wat")
        assert "unknown command" in capsys.readouterr().out

    def test_quit(self, db):
        assert run_command(db, ".quit") is False

    def test_empty_line(self, db):
        assert run_command(db, "   ")

    def test_semicolon_tolerated(self, db, capsys):
        run_command(db, "select count(*) from orders;")
        assert "1 row(s)" in capsys.readouterr().out


class TestFormatting:
    def test_format_result_truncates(self, db):
        result = db.query("select o_id from orders")
        text = format_result(result, max_rows=2)
        assert "4 rows total" in text

    def test_format_alignment(self, db):
        result = db.query("select c_id, c_name from customer order by c_id")
        lines = format_result(result).splitlines()
        assert lines[0].startswith("c_id")
        assert set(lines[1]) <= {"-", " "}


class TestSubcommands:
    def test_explain_subcommand(self, capsys):
        from repro.__main__ import run_subcommand

        assert run_subcommand(
            ["explain", "--analyze", "select o_id, c_name from orderview"]
        ) == 0
        out = capsys.readouterr().out
        assert "actual rows=" in out and "execution:" in out

    def test_explain_no_optimize(self, capsys):
        from repro.__main__ import run_subcommand

        assert run_subcommand(
            ["explain", "--no-optimize", "select o_id from orderview"]
        ) == 0
        assert "Join" in capsys.readouterr().out

    def test_trace_subcommand(self, capsys):
        from repro.__main__ import run_subcommand

        assert run_subcommand(["trace", "select o_id from orderview"]) == 0
        out = capsys.readouterr().out
        assert "query trace" in out and "AJ declared" in out

    def test_metrics_subcommand(self, capsys):
        from repro.__main__ import run_subcommand

        assert run_subcommand(["metrics"]) == 0
        out = capsys.readouterr().out
        assert "queries.executed" in out
        assert "optimizer.rewrites" in out

    def test_trace_json_subcommand(self, capsys):
        import json

        from repro.__main__ import run_subcommand

        assert run_subcommand(
            ["trace", "--json", "select o_id from orderview"]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["sql"] == "select o_id from orderview"
        assert data["spans"]["name"] == "query"
        assert [c["name"] for c in data["spans"]["children"]] == [
            "parse", "bind", "optimize", "execute",
        ]

    def test_metrics_prometheus_format(self, capsys):
        from repro.__main__ import run_subcommand

        assert run_subcommand(["metrics", "--format", "prometheus"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_queries_executed_total counter" in out
        assert "repro_optimizer_rewrites_total{case=" in out

    def test_metrics_json_format(self, capsys):
        import json

        from repro.__main__ import run_subcommand

        assert run_subcommand(["metrics", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["queries.executed"] == 3

    def test_unknown_profile_reported_not_raised(self, capsys):
        from repro.__main__ import run_subcommand

        assert run_subcommand(["trace", "--profile", "hanna", "select 1"]) == 1
        assert "unknown optimizer profile" in capsys.readouterr().err

    def test_subcommand_error_exit_code(self, capsys):
        from repro.__main__ import run_subcommand

        assert run_subcommand(["explain", "select nothere from orders"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_main_dispatches_to_subcommand(self, capsys):
        from repro.__main__ import main

        assert main(["metrics"]) == 0
        assert "queries.executed" in capsys.readouterr().out

    def test_chaos_subcommand(self, tmp_path, capsys):
        from repro.__main__ import run_subcommand

        argv = [
            "chaos", "--seed", "7", "--ops", "25", "--quiet",
            "--wal-dir", str(tmp_path),
        ]
        assert run_subcommand(argv) == 0
        out = capsys.readouterr().out
        assert "chaos" in out and "recoveries" in out

    def test_replay_subcommand(self, tmp_path, capsys):
        from repro.__main__ import run_subcommand
        from repro.database import Database

        db = Database(capture_dir=str(tmp_path))
        db.execute("create table t (id int primary key, v int)")
        db.execute("insert into t values (1, 10), (2, 20)")
        db.execute("select sum(v) from t")
        db.close()
        path = str(tmp_path / "workload.jsonl")
        assert run_subcommand(
            ["replay", path, "--check-digests", "--threshold", "10000"]
        ) == 0
        out = capsys.readouterr().out
        assert "1 digest(s) checked — ok" in out
        assert "latency by shape, captured -> replayed (flagged beyond 10000%)" in out
        assert "select sum(v) from t" in out

    def test_replay_subcommand_missing_file(self, tmp_path, capsys):
        from repro.__main__ import run_subcommand

        assert run_subcommand(["replay", str(tmp_path / "nope.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err


def test_shell_end_to_end():
    script = ".demo\nselect count(*) from orderview\n.quit\n"
    completed = subprocess.run(
        [sys.executable, "-m", "repro"],
        input=script,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0
    assert "demo schema loaded" in completed.stdout
    assert "bye" in completed.stdout
