"""Smoke test of the perf ledger at ``--scale tiny`` (about 30 s).

    PYTHONPATH=src python -m pytest benchmarks/ledger -q

Checks that every workload emits exactly the metrics ``BENCHMARK.json``
declares (no drift either way), that nothing fails and the workload
preconditions hold, that the metrics a workload is about are really
measured (not zero-filled), and that a second seed changes the operations
but not their number.
"""

from __future__ import annotations

import functools
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

LEDGER = Path(__file__).resolve().parent
sys.path.insert(0, str(LEDGER))

import compare  # noqa: E402
from harness import load_manifest  # noqa: E402

MANIFEST = load_manifest()
WORKLOADS = [w["name"] for w in MANIFEST["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: Per-layer metrics that must be positive on a workload, because they are
#: the reason the workload exists.
MUST_MEASURE = {
    "vdm_analytics": ["engine.execute_ms", "engine.join_self_ms",
                      "engine.materialize_ms", "storage.scan_rows_per_s",
                      "cache.plan_hit_rate", "bench.execute_share"],
    "point_lookup_hot": ["sql.lex_ms", "sql.shape_ms", "cache.plan_hit_rate",
                         "engine.execute_ms", "bench.calibration_ms"],
    "adhoc_cold_plan": ["sql.parse_ms", "algebra.bind_ms",
                        "optimizer.optimize_ms", "optimizer.rewrite_fires",
                        "optimizer.physical_plan_ms", "cache.promote_ms",
                        "bench.planning_share"],
    "htap_gateway_mixed": ["storage.insert_ms", "storage.commit_ms",
                           "storage.merge_ms", "storage.wal_fsyncs",
                           "storage.wal_bytes_per_user_byte",
                           "serving.http_json_ms", "htap.oltp_txn_p50_ms",
                           "htap.olap_query_p50_ms", "htap.recover_s"],
}


@functools.lru_cache(maxsize=None)
def run(workload: str, trace: int, seed: int = 1) -> dict:
    done = subprocess.run(
        [sys.executable, str(LEDGER / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--scale", "tiny"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_manifest_names_and_bounds():
    names = WORKLOADS + [m["name"] for m in
                         MANIFEST["end_to_end"] + MANIFEST["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(0 < m["bound"] <= 0.10 for m in MANIFEST["end_to_end"])
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in MANIFEST["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_match_manifest(workload):
    result = run(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in MANIFEST["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_match_manifest(workload):
    result = run(workload, trace=1)
    assert result["correct"] is True and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in MANIFEST["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name in MUST_MEASURE[workload]:
        assert result["metrics"][name]["value"] > 0, name
    trace_file = LEDGER / "out" / f"trace_{workload}.json"
    spans = json.loads(trace_file.read_text())["spans"]
    assert spans and all(end >= start for *_, start, end in spans)


def test_plan_cache_preconditions():
    hot = run("point_lookup_hot", trace=1)["metrics"]
    cold = run("adhoc_cold_plan", trace=1)["metrics"]
    assert hot["cache.plan_hit_rate"]["value"] >= 0.99
    assert cold["cache.plan_hit_rate"]["value"] <= 0.05


@pytest.mark.parametrize("workload", WORKLOADS[:3])
def test_seed_changes_operations_not_their_count(workload):
    from run import load_workload

    spec = load_workload(workload)
    sizes = spec.sizes["tiny"]
    first, second = spec.operations(1, sizes), spec.operations(2, sizes)
    assert len(first) == len(second)
    assert sorted(op.kind for op in first) == sorted(op.kind for op in second)
    assert [op.sql for op in first] != [op.sql for op in second]
    assert [op.sql for op in first] == [op.sql for op in spec.operations(1, sizes)]


def test_compare_verdicts():
    metric = {"name": "latency_p50_ms", "better": "lower", "bound": 0.1}
    steady = [10.0, 10.1, 9.9, 10.0, 10.05]
    assert compare.verdict(metric, steady, steady) == "same"
    assert compare.verdict(metric, steady, [v * 1.2 for v in steady]) == "worse"
    assert compare.verdict(metric, steady, [v * 0.8 for v in steady]) == "better"
    assert compare.verdict(metric, steady, [8.0, 12.0, 10.0, 9.0, 11.0]) == "unresolved"
    higher = {"name": "throughput_ops_s", "better": "higher", "bound": 0.1}
    assert compare.verdict(higher, steady, [v * 0.8 for v in steady]) == "worse"
