"""Workload capture (``Database(capture_dir=...)``) and replay
(``python -m repro replay``).

The capture is an append-only JSONL file — header line, then one record
per statement with SQL, timings, shape hash, and (for queries) an
order-insensitive result digest.  Replay re-executes the file on a fresh
database, verifies digests, checks error-statement parity, and reports
per-shape latency deltas flagged against a threshold.
"""

from __future__ import annotations

import datetime
import decimal
import json

import pytest

from repro.capture import replay_workload, result_digest
from repro.capture.recorder import load_capture
from repro.capture.replay import ReplayReport
from repro.database import Database
from repro.errors import ReproError

WORKLOAD = [
    "create table t (id int primary key, v int)",
    "insert into t values (1, 10), (2, 20), (3, 30)",
    "select v from t where v > 15",
    "select count(*) from t",
    "update t set v = 99 where id = 1",
    "select sum(v) from t",
]


def capture_workload(tmp_path, statements=WORKLOAD, subdir="cap"):
    capture_dir = tmp_path / subdir
    db = Database(capture_dir=str(capture_dir))
    try:
        for sql in statements:
            try:
                db.execute(sql)
            except ReproError:
                pass
    finally:
        db.close()
    return capture_dir / "workload.jsonl"


def test_capture_file_format(tmp_path):
    path = capture_workload(tmp_path)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    header, records = lines[0], lines[1:]
    assert header["kind"] == "header"
    assert header["format"] == 1
    assert header["profile"] == "hana"
    assert [r["kind"] for r in records] == [
        "ddl", "dml", "query", "query", "dml", "query",
    ]
    assert [r["seq"] for r in records] == list(range(1, 7))
    for record in records:
        assert record["sql"]
        assert len(record["shape"]) == 12
        assert record["elapsed_ms"] >= 0
    query = records[2]
    assert query["rows"] == 2
    assert query["digest"].startswith("sha256:")
    assert query["query_id"].startswith("q")
    assert records[1]["rowcount"] == 3


def test_capture_records_errors(tmp_path):
    path = capture_workload(
        tmp_path,
        ["create table t (id int primary key)", "select nope from t"],
    )
    _header, records = load_capture(str(path))
    assert records[-1]["kind"] == "error"
    assert "nope" in records[-1]["error"]


def test_load_capture_tolerates_torn_tail(tmp_path):
    path = capture_workload(tmp_path)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"kind": "query", "sql": "select tru')   # torn append
    header, records = load_capture(str(path))
    assert header is not None
    assert len(records) == 6


def test_load_capture_rejects_malformed_line_before_more_records(tmp_path):
    from repro.__main__ import run_subcommand

    path = capture_workload(tmp_path, WORKLOAD[:3])
    lines = path.read_text().splitlines()
    assert len(lines) == 4                 # header + three statements
    lines[2] = lines[2][:20]               # cut line 3 of 4 short
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ReproError, match=r"workload\.jsonl:3: malformed"):
        load_capture(str(path))
    with pytest.raises(ReproError):
        replay_workload(str(path))         # never a silent 1-statement "ok"
    assert run_subcommand(["replay", str(path)]) == 2


def test_load_capture_rejects_non_object_line_before_more_records(tmp_path):
    path = capture_workload(tmp_path, WORKLOAD[:3])
    lines = path.read_text().splitlines()
    lines[2] = "[1, 2]"                    # valid JSON, not a record
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ReproError, match=r"workload\.jsonl:3: malformed"):
        load_capture(str(path))


def test_load_capture_error_line_counts_blank_lines(tmp_path):
    path = capture_workload(tmp_path, WORKLOAD[:3])
    lines = path.read_text().splitlines()
    lines[2] = lines[2][:20]
    lines[1:1] = ["", ""]                  # the torn record is now line 5
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ReproError, match=r"workload\.jsonl:5: malformed"):
        load_capture(str(path))


def test_load_capture_skips_blank_lines(tmp_path):
    path = capture_workload(tmp_path)
    path.write_text(path.read_text().replace("\n", "\n\n"))
    header, records = load_capture(str(path))
    assert header is not None
    assert [r["seq"] for r in records] == list(range(1, 7))


def test_load_capture_tolerates_torn_tail_before_blank_lines(tmp_path):
    path = capture_workload(tmp_path)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"kind": "query", "sql": "select tru\n\n\n')
    _header, records = load_capture(str(path))
    assert len(records) == 6


def test_cli_replay_names_the_malformed_line(tmp_path, capsys):
    from repro.__main__ import run_subcommand

    path = capture_workload(tmp_path, WORKLOAD[:3])
    lines = path.read_text().splitlines()
    lines[2] = lines[2][:20]
    path.write_text("\n".join(lines) + "\n")
    assert run_subcommand(["replay", str(path)]) == 2
    captured = capsys.readouterr()
    assert "workload.jsonl:3: malformed capture record" in captured.err
    assert "— ok" not in captured.out


def test_capture_appends_after_torn_tail(tmp_path):
    path = capture_workload(tmp_path, WORKLOAD[:2])
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"kind": "query", "sql": "select tru')   # torn append
    db = Database(capture_dir=str(path.parent))
    db.execute("create table u (id int primary key)")
    db.close()
    _header, records = load_capture(str(path))
    assert [r["seq"] for r in records] == [1, 2, 3]
    assert records[-1]["sql"] == "create table u (id int primary key)"


def test_capture_appends_after_missing_final_newline(tmp_path):
    path = capture_workload(tmp_path, WORKLOAD[:2])
    path.write_text(path.read_text().rstrip("\n"))   # complete, unterminated
    db = Database(capture_dir=str(path.parent))
    db.execute("create table u (id int primary key)")
    db.close()
    _header, records = load_capture(str(path))
    assert [r["seq"] for r in records] == [1, 2, 3]


# -- digests ----------------------------------------------------------------


class FakeResult:
    def __init__(self, column_names, rows):
        self.column_names = column_names
        self.rows = rows


def test_digest_is_order_insensitive():
    a = FakeResult(["x", "y"], [(1, "a"), (2, "b")])
    b = FakeResult(["x", "y"], [(2, "b"), (1, "a")])
    assert result_digest(a) == result_digest(b)


def test_digest_distinguishes_content_and_types():
    base = result_digest(FakeResult(["x"], [(1,)]))
    assert result_digest(FakeResult(["x"], [(2,)])) != base
    assert result_digest(FakeResult(["x"], [(1.0,)])) != base
    assert result_digest(FakeResult(["x"], [("1",)])) != base
    assert result_digest(FakeResult(["x"], [(True,)])) != base
    assert result_digest(FakeResult(["x"], [(None,)])) != base
    assert result_digest(FakeResult(["y"], [(1,)])) != base


def test_digest_is_byte_stable():
    # Committed captures and the perf ledger compare against stored
    # digests: the canonical encoding must never drift.
    rows = [
        (1, "a", decimal.Decimal("1.50"), datetime.date(2024, 1, 2), True),
        (2, None, 2.5, datetime.date(2024, 1, 3), False),
    ]
    columns = ["id", "name", "amount", "day", "flag"]
    assert result_digest(FakeResult(columns, rows)) == (
        "sha256:48024d251d7fe94b58d3ffeb648e69e4e6512f33e03aceecf5a491e0dac1bec0"
    )
    assert result_digest(FakeResult(["x"], [])) == (
        "sha256:5ff61d7cd82b11a410da9551320581668c315f88b37d93f0b7a2c3579b19397a"
    )


def test_digest_matches_engine_result(tmp_path):
    path = capture_workload(tmp_path)
    _header, records = load_capture(str(path))
    db = Database()
    try:
        for record in records:
            outcome = db.execute(record["sql"])
            if record["kind"] == "query":
                assert result_digest(outcome) == record["digest"], record["sql"]
    finally:
        db.close()


# -- replay -----------------------------------------------------------------


def test_replay_clean(tmp_path):
    path = capture_workload(tmp_path)
    report = replay_workload(str(path))
    assert report.ok
    assert report.statements == 6
    assert report.queries == 3
    assert report.digests_checked == 3
    assert report.mismatches == [] and report.errors == []
    assert "— ok" in report.summary()


def test_replay_detects_digest_mismatch(tmp_path):
    path = capture_workload(tmp_path)
    # corrupt one captured digest: replay must attribute the mismatch
    lines = path.read_text().splitlines()
    doctored = []
    for line in lines:
        record = json.loads(line)
        if record.get("sql") == "select count(*) from t":
            record["digest"] = "sha256:" + "0" * 64
        doctored.append(json.dumps(record))
    path.write_text("\n".join(doctored) + "\n")
    report = replay_workload(str(path))
    assert not report.ok
    assert len(report.mismatches) == 1
    mismatch = report.mismatches[0]
    assert mismatch.sql == "select count(*) from t"
    assert "MISMATCH" in report.render()


def test_replay_skips_digests_when_disabled(tmp_path):
    path = capture_workload(tmp_path)
    report = replay_workload(str(path), check_digests=False)
    assert report.ok
    assert report.digests_checked == 0


def test_replay_error_parity(tmp_path):
    path = capture_workload(
        tmp_path,
        ["create table t (id int primary key)", "select nope from t"],
    )
    report = replay_workload(str(path))
    assert report.ok  # failed at capture, fails at replay: parity holds


def test_replay_flags_captured_error_that_replays_clean(tmp_path):
    path = capture_workload(
        tmp_path,
        ["create table t (id int primary key)", "select nope from t"],
    )
    lines = path.read_text().splitlines()
    doctored = []
    for line in lines:
        record = json.loads(line)
        if record.get("kind") == "error":
            record["sql"] = "select id from t"   # now valid on replay
        doctored.append(json.dumps(record))
    path.write_text("\n".join(doctored) + "\n")
    report = replay_workload(str(path))
    assert not report.ok
    assert len(report.errors) == 1
    assert "replayed clean" in report.errors[0].detail


def test_replay_flags_statement_that_newly_fails(tmp_path):
    path = capture_workload(tmp_path)
    lines = path.read_text().splitlines()
    doctored = []
    for line in lines:
        record = json.loads(line)
        if record.get("sql") == "select sum(v) from t":
            record["sql"] = "select sum(missing) from t"
        doctored.append(json.dumps(record))
    path.write_text("\n".join(doctored) + "\n")
    report = replay_workload(str(path))
    assert not report.ok
    assert len(report.errors) == 1
    assert "replay raised" in report.errors[0].detail


def test_replay_latency_diff_report(tmp_path):
    path = capture_workload(tmp_path)
    report = replay_workload(str(path))
    shapes = [shape for shape, _captured, _replayed in report.latencies]
    assert len(shapes) == 6   # six distinct statement shapes
    assert set(shapes) == set(report.shape_examples)
    rendered = report.render()
    assert "latency by shape, captured -> replayed (flagged beyond 50%):" in rendered
    for shape in shapes:
        assert shape in rendered
    assert "select count(*) from t" in rendered


def test_replay_latency_flags_against_threshold(tmp_path):
    path = capture_workload(tmp_path)
    doctored = []
    for line in path.read_text().splitlines():
        record = json.loads(line)
        if record.get("sql") == "select count(*) from t":
            record["elapsed_ms"] = 1e-6    # captured absurdly fast
        elif record.get("sql") == "select sum(v) from t":
            record["elapsed_ms"] = 1e6     # captured absurdly slow
        elif "elapsed_ms" in record:
            del record["elapsed_ms"]       # untimed: no latency line
        doctored.append(json.dumps(record))
    path.write_text("\n".join(doctored) + "\n")

    report = replay_workload(str(path))
    assert report.ok                       # latency never decides ``ok``
    flagged = [line for line in report.render().splitlines()
               if "REGRESSION" in line or "improved" in line]
    assert len(flagged) == 2
    assert "REGRESSION" in flagged[0] and "select count(*) from t" in flagged[0]
    assert "improved" in flagged[1] and "select sum(v) from t" in flagged[1]

    lenient = replay_workload(str(path), threshold=1e9).render()
    assert "REGRESSION" not in lenient and "improved" not in lenient


def test_replay_latency_is_median_per_shape(tmp_path):
    statements = [
        "create table t (id int primary key, v int)",
        "insert into t values (1, 10), (2, 20), (3, 30)",
        "select v from t where id = 1",
        "select v from t where id = 2",
        "select v from t where id = 3",
    ]
    path = capture_workload(tmp_path, statements)
    captured_ms = {statements[2]: 1.0, statements[3]: 2.0, statements[4]: 100.0}
    doctored = []
    for line in path.read_text().splitlines():
        record = json.loads(line)
        if record.get("sql") in captured_ms:
            record["elapsed_ms"] = captured_ms[record["sql"]]
        doctored.append(json.dumps(record))
    path.write_text("\n".join(doctored) + "\n")

    report = replay_workload(str(path))
    assert len(report.latencies) == 3      # the three point lookups: one shape
    shape = next(s for s, example in report.shape_examples.items()
                 if example == statements[2])    # first statement of the shape
    captured_s = next(c for s, c, _r in report.latencies if s == shape)
    assert captured_s == pytest.approx(0.002)


def test_cli_replay_latency_flags_keep_exit_code(tmp_path, capsys):
    from repro.__main__ import run_subcommand

    path = capture_workload(tmp_path)
    doctored = []
    for line in path.read_text().splitlines():
        record = json.loads(line)
        if record.get("sql") == "select count(*) from t":
            record["elapsed_ms"] = 1e-6
        doctored.append(json.dumps(record))
    path.write_text("\n".join(doctored) + "\n")
    assert run_subcommand(["replay", str(path)]) == 0
    assert "REGRESSION" in capsys.readouterr().out


# -- the latency table ------------------------------------------------------


def report_with(latencies, threshold=0.5):
    report = ReplayReport(path="w.jsonl", threshold=threshold)
    report.latencies = latencies
    report.shape_examples = {
        shape: f"select {shape}" for shape, _c, _r in latencies
    }
    return report


def table_rows(report):
    return [line for line in report.render().splitlines()
            if line.startswith("  ")]


def test_render_orders_shapes_worst_ratio_first():
    report = report_with([
        ("faster", 0.004, 0.001),
        ("slower", 0.001, 0.004),
        ("steady", 0.002, 0.002),
    ])
    rows = table_rows(report)
    assert [row.split()[0] for row in rows] == ["slower", "steady", "faster"]
    assert "REGRESSION" in rows[0] and "+300.0%" in rows[0]
    assert "improved" in rows[2] and "-75.0%" in rows[2]
    assert "REGRESSION" not in rows[1] and "improved" not in rows[1]


def test_render_threshold_bounds_are_exclusive():
    # 0.375 / 0.25 and 0.125 / 0.25 are exactly 1 ± 0.5 in binary floats.
    report = report_with([("up", 0.25, 0.375), ("down", 0.25, 0.125)])
    rendered = report.render()
    assert "(flagged beyond 50%)" in rendered
    assert "REGRESSION" not in rendered and "improved" not in rendered
    tighter = report_with(report.latencies, threshold=0.25).render()
    assert "REGRESSION" in tighter and "improved" in tighter
    assert "(flagged beyond 25%)" in tighter


def test_render_zero_captured_time_is_a_regression():
    rows = table_rows(report_with([("untimed", 0.0, 0.001)]))
    assert len(rows) == 1
    assert "REGRESSION" in rows[0] and "+inf%" in rows[0]


def test_render_truncates_long_example_sql():
    report = report_with([("long", 0.001, 0.001)])
    report.shape_examples["long"] = "select " + "x, " * 40 + "y from t"
    (row,) = table_rows(report)
    example = row.split("  ")[-1]
    assert len(example) == 60 and example.endswith("...")


def test_render_without_latencies_is_summary_only():
    report = ReplayReport(path="w.jsonl", statements=2)
    assert report.render() == report.summary()
    assert "latency by shape" not in report.render()


def test_replay_honors_profile_and_batch_size(tmp_path):
    path = capture_workload(tmp_path)
    report = replay_workload(str(path), profile="none", batch_size=1)
    assert report.ok   # digests are plan- and batch-size-independent


def test_sys_queries_captured_as_volatile_and_replay_clean(tmp_path):
    path = capture_workload(
        tmp_path,
        WORKLOAD + ["select query_id, status from sys.query_log"],
    )
    _header, records = load_capture(str(path))
    sys_record = records[-1]
    assert sys_record["kind"] == "query"
    assert sys_record["volatile"] is True
    assert "digest" not in sys_record   # session state: nothing to verify
    report = replay_workload(str(path))
    assert report.ok
    assert report.digests_checked == 3   # the three non-sys queries only


def test_capture_appends_across_sessions(tmp_path):
    capture_dir = tmp_path / "cap"
    db = Database(capture_dir=str(capture_dir))
    db.execute("create table t (id int primary key)")
    db.execute("insert into t values (1)")
    db.close()
    db = Database(capture_dir=str(capture_dir))
    db.execute("create table u (id int primary key)")
    db.close()
    header, records = load_capture(str(capture_dir / "workload.jsonl"))
    assert header is not None
    assert len(records) == 3   # one header, both sessions' statements kept
    # seq continues across sessions, so replay's "seq N" lines are unique
    assert [r["seq"] for r in records] == [1, 2, 3]


def test_replay_cites_unique_seqs_across_sessions(tmp_path):
    path = capture_workload(tmp_path, ["create table t (id int primary key)"])
    for sql in ("select nope from t", "select nada from t"):   # one session each
        capture_workload(tmp_path, [sql])
    doctored = []
    for line in path.read_text().splitlines():
        record = json.loads(line)
        if record.get("kind") == "error":
            record["sql"] = "select id from t"    # now valid on replay
        doctored.append(json.dumps(record))
    path.write_text("\n".join(doctored) + "\n")
    report = replay_workload(str(path))
    assert [error.seq for error in report.errors] == [2, 3]
    rendered = report.render()
    assert "ERROR seq 2:" in rendered and "ERROR seq 3:" in rendered


def test_capture_resumes_header_only_file(tmp_path):
    capture_dir = tmp_path / "cap"
    Database(capture_dir=str(capture_dir)).close()     # ran nothing
    db = Database(capture_dir=str(capture_dir))
    db.execute("create table t (id int primary key)")
    db.close()
    lines = (capture_dir / "workload.jsonl").read_text().splitlines()
    assert [json.loads(line)["kind"] for line in lines] == ["header", "ddl"]
    assert json.loads(lines[1])["seq"] == 1


def test_capture_writes_header_into_existing_empty_file(tmp_path):
    capture_dir = tmp_path / "cap"
    capture_dir.mkdir()
    (capture_dir / "workload.jsonl").write_text("")
    db = Database(capture_dir=str(capture_dir))
    db.execute("create table t (id int primary key)")
    db.close()
    header, records = load_capture(str(capture_dir / "workload.jsonl"))
    assert header is not None and header["kind"] == "header"
    assert [r["seq"] for r in records] == [1]


def test_capture_resume_cuts_non_object_tail(tmp_path):
    path = capture_workload(tmp_path, WORKLOAD[:2])
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("42")                 # parses as JSON, is no record
    db = Database(capture_dir=str(path.parent))
    db.execute("create table u (id int primary key)")
    db.close()
    _header, records = load_capture(str(path))
    assert [r["seq"] for r in records] == [1, 2, 3]


def test_capture_resume_cuts_malformed_terminated_tail(tmp_path):
    path = capture_workload(tmp_path, WORKLOAD[:2])
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"kind": "query", "sql": "select tru\n')
    db = Database(capture_dir=str(path.parent))
    db.execute("create table u (id int primary key)")
    db.close()
    _header, records = load_capture(str(path))   # no mid-file bad line
    assert [r["seq"] for r in records] == [1, 2, 3]


def test_capture_resume_without_seq_counts_records(tmp_path):
    path = capture_workload(tmp_path, WORKLOAD[:2])
    stripped = []
    for line in path.read_text().splitlines():
        record = json.loads(line)
        record.pop("seq", None)            # an older capture without seqs
        stripped.append(json.dumps(record))
    path.write_text("\n".join(stripped) + "\n")
    db = Database(capture_dir=str(path.parent))
    db.execute("create table u (id int primary key)")
    db.close()
    _header, records = load_capture(str(path))
    assert records[-1]["seq"] == 3


def test_committed_demo_workload_replays_clean():
    import os

    path = os.path.join(
        os.path.dirname(__file__), "..", "benchmarks", "workloads",
        "demo_orders.jsonl",
    )
    report = replay_workload(path)
    assert report.ok, report.render()
    assert report.digests_checked >= 5
