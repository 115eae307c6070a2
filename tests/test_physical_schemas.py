"""The physical-schema invariant: every batch carries exactly its
operator's ``output``.

The autouse ``physical_schemas`` fixture (``conftest.py``) checks every
batch of every test.  These tests show that it has teeth — a scan that
declares columns it does not carry is recorded both through
``Database.query`` and inside a fuzz oracle, which turns exceptions into
``"crash"`` strings.
"""

from __future__ import annotations

from repro import Database
from repro.fuzz.generator import WorkloadGenerator
from repro.fuzz.oracles import run_all_oracles
from repro.optimizer import physical_planner


def _declare_unpruned_scans(monkeypatch) -> None:
    """Make every scan declare its table's full column list, as physical
    operators did before their schemas were derived, while still reading
    only the pruned columns."""

    class UnprunedScan(physical_planner.BatchScanExec):
        def __init__(self, logical, wanted):
            super().__init__(logical, wanted)
            self.output = logical.output

    monkeypatch.setattr(physical_planner, "BatchScanExec", UnprunedScan)


def test_fixture_records_a_wrong_scan_output(monkeypatch, physical_schemas):
    db = Database(wal_enabled=False)
    db.execute("create table t (a int, b int, c int)")
    db.bulk_load("t", [(1, 2, 3), (4, 5, 6)])
    _declare_unpruned_scans(monkeypatch)
    assert db.query("select a from t").rows == [(1,), (4,)]
    assert physical_schemas, "a scan declaring three columns but carrying one"
    assert physical_schemas[0].startswith("BatchScan(t)")
    physical_schemas.clear()  # the mismatch was the point of this test


def test_fixture_records_inside_a_fuzz_oracle(monkeypatch, physical_schemas):
    case = WorkloadGenerator(seed=101).case(0)
    _declare_unpruned_scans(monkeypatch)
    run_all_oracles(case)
    assert any(m.startswith("BatchScan(") for m in physical_schemas)
    physical_schemas.clear()

