"""The fuzzing campaign driver behind ``python -m repro fuzz``.

A campaign is fully determined by ``(seed, runs, profile)``: case ``i`` is
regenerated from the seed, so a discrepancy reported by CI reproduces
locally from the summary line alone.  Findings are minimized by the
reducer and serialized as replayable corpus files.

Campaign counters flow through the engine's own
:class:`~repro.observability.metrics.MetricsRegistry` (and therefore all
its exporters):

``fuzz.cases_generated``  cases synthesized
``fuzz.queries_run``      individual query executions across all oracle arms
``fuzz.checks.<oracle>``  per-oracle case checks
``fuzz.discrepancies``    oracle violations found (pre-reduction)
``fuzz.reduced_steps``    accepted shrink steps across all reductions
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field

from ..observability import MetricsRegistry
from .generator import Case, WorkloadGenerator
from .oracles import ORACLES, Discrepancy, _compare_arms, _run
from .reducer import reduce_case


@dataclass
class FoundBug:
    """One discrepancy: the oracle verdict plus the minimized repro."""

    case_index: int
    oracle: str
    detail: str
    case: Case
    corpus_path: str | None = None

    def summary(self) -> str:
        where = f" -> {self.corpus_path}" if self.corpus_path else ""
        return f"case {self.case_index} [{self.oracle}] {self.detail}{where}"


@dataclass
class CampaignReport:
    seed: int
    profile: str
    runs_requested: int
    cases_run: int = 0
    queries_run: int = 0
    checks: dict = field(default_factory=dict)
    bugs: list = field(default_factory=list)
    reduced_steps: int = 0
    elapsed_s: float = 0.0
    #: Cases per composite WHERE shape (see ``QuerySpec.where_shapes``).
    shapes: dict = field(default_factory=lambda: {"dac": 0, "and": 0})

    @property
    def clean(self) -> bool:
        return not self.bugs

    def summary(self) -> str:
        return (
            f"fuzz: {self.cases_run}/{self.runs_requested} cases, "
            f"{self.queries_run} queries, {len(self.bugs)} discrepancie(s), "
            f"{self.reduced_steps} reduction step(s), "
            f"where: dac {self.shapes['dac']}, and {self.shapes['and']} "
            f"(seed {self.seed}, profile {self.profile}, {self.elapsed_s:.2f}s)"
        )


class FuzzCampaign:
    """Generate cases, run every oracle, reduce and persist the failures."""

    def __init__(
        self,
        seed: int = 0,
        profile: str = "hana",
        corpus_dir: str | None = None,
        metrics: MetricsRegistry | None = None,
        reduce: bool = True,
        log=None,
    ):
        self.seed = seed
        self.profile = profile
        self.corpus_dir = corpus_dir
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.reduce = reduce
        self.log = log or (lambda message: None)
        self._m_cases = self.metrics.counter("fuzz.cases_generated")
        self._m_queries = self.metrics.counter("fuzz.queries_run")
        self._m_discrepancies = self.metrics.counter("fuzz.discrepancies")
        self._m_reduced = self.metrics.counter("fuzz.reduced_steps")
        for name in ORACLES:
            self.metrics.counter(f"fuzz.checks.{name}")

    def run(
        self, runs: int = 200, time_budget_s: float | None = None
    ) -> CampaignReport:
        generator = WorkloadGenerator(seed=self.seed, profile=self.profile)
        report = CampaignReport(
            seed=self.seed, profile=self.profile, runs_requested=runs,
            checks={name: 0 for name in ORACLES},
        )
        started = time.monotonic()
        for index in range(runs):
            if time_budget_s is not None and time.monotonic() - started > time_budget_s:
                self.log(f"fuzz: time budget exhausted after {index} cases")
                break
            case = generator.case(index)
            self._m_cases.inc()
            report.cases_run += 1
            for shape in case.query.where_shapes():
                report.shapes[shape] += 1
            tally: dict = {}
            for oracle_name, oracle in ORACLES.items():
                found = oracle(case, tally=tally)
                report.checks[oracle_name] += 1
                self.metrics.counter(f"fuzz.checks.{oracle_name}").inc()
                if found is not None:
                    self._m_discrepancies.inc()
                    bug = self._handle_discrepancy(index, case, found, report)
                    report.bugs.append(bug)
            queries = tally.get("queries", 0)
            report.queries_run += queries
            self._m_queries.inc(queries)
        report.elapsed_s = time.monotonic() - started
        return report

    def _handle_discrepancy(
        self, index: int, case: Case, found: Discrepancy, report: CampaignReport
    ) -> FoundBug:
        self.log(f"fuzz: case {index}: {found}")
        reduced = case
        if self.reduce:
            reduced, steps = reduce_case(case, found.oracle)
            report.reduced_steps += steps
            self._m_reduced.inc(steps)
            self.log(f"fuzz: case {index}: reduced in {steps} step(s)")
        bug = FoundBug(
            case_index=index, oracle=found.oracle, detail=found.detail, case=reduced
        )
        if self.corpus_dir:
            bug.corpus_path = save_corpus_file(
                self.corpus_dir, reduced, found,
                name=f"fuzz-seed{self.seed}-case{index}-{found.oracle}.json",
            )
            self.log(f"fuzz: case {index}: corpus file {bug.corpus_path}")
        return bug


def run_fuzz(
    seed: int = 0,
    runs: int = 200,
    time_budget_s: float | None = None,
    profile: str = "hana",
    corpus_dir: str | None = None,
    metrics: MetricsRegistry | None = None,
    reduce: bool = True,
    log=None,
) -> CampaignReport:
    """One-call campaign (the CLI and CI entry point)."""
    campaign = FuzzCampaign(
        seed=seed, profile=profile, corpus_dir=corpus_dir, metrics=metrics,
        reduce=reduce, log=log,
    )
    return campaign.run(runs=runs, time_budget_s=time_budget_s)


# ---------------------------------------------------------------------------
# corpus files
# ---------------------------------------------------------------------------


def save_corpus_file(
    directory: str, case: Case, found: Discrepancy | None = None,
    name: str | None = None,
) -> str:
    """Serialize a case (plus the oracle verdict, if any) for replay."""
    os.makedirs(directory, exist_ok=True)
    payload = case.to_dict()
    if found is not None:
        payload["discrepancy"] = {"oracle": found.oracle, "detail": found.detail}
    if name is None:
        name = f"fuzz-seed{case.seed}.json"
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path


def load_corpus_file(path: str) -> Case:
    with open(path, "r", encoding="utf-8") as handle:
        return Case.from_dict(json.load(handle))


def replay_corpus_file(path: str, tally: dict | None = None) -> list[Discrepancy]:
    """Re-run the checks for a serialized corpus entry.  An empty list
    means the historical bug (or seeded shape) is still clean.

    Entries default to ``kind == "case"`` (a fuzz case replayed through
    every oracle); ``kind == "sys_selfref"`` entries instead replay raw
    SQL against the ``sys.*`` introspection schema,
    ``kind == "qerror_probe"`` entries check the plan-feedback invariant
    (exactly one est/actual row per physical operator), and
    ``kind == "plan_cache_diff"`` entries run raw SQL against a
    plan-cached arm and a fresh-compile arm, re-sweeping after every DDL
    step.
    """
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("kind") == "sys_selfref":
        return _replay_sys_selfref(payload, tally=tally)
    if payload.get("kind") == "qerror_probe":
        return _replay_qerror_probe(payload, tally=tally)
    if payload.get("kind") == "plan_cache_diff":
        return _replay_plan_cache_diff(payload, tally=tally)
    case = Case.from_dict(payload)
    found = []
    for oracle in ORACLES.values():
        result = oracle(case, tally=tally)
        if result is not None:
            found.append(result)
    return found


def _replay_sys_selfref(
    payload: dict, tally: dict | None = None
) -> list[Discrepancy]:
    """Self-observability oracle: a query over ``sys.query_log`` is only
    appended to the log after it finishes, so run ``i`` sees exactly
    ``i - 1`` copies of itself in its own result, and the log holds
    exactly ``i`` copies afterwards."""
    from ..database import Database

    sql = payload["sql"]
    found: list[Discrepancy] = []
    db = Database(batch_size=payload.get("batch_size", 1024))
    try:
        for statement in payload.get("setup", ()):
            db.execute(statement)
        for run in range(1, payload.get("repetitions", 2) + 1):
            result = db.query(sql)
            if tally is not None:
                tally["queries"] = tally.get("queries", 0) + 1
            seen = sum(1 for row in result.rows for value in row if value == sql)
            if seen != run - 1:
                found.append(Discrepancy(
                    "sys-selfref",
                    f"run {run} saw {seen} copies of itself in its result "
                    f"(expected {run - 1})",
                ))
            logged = sum(1 for e in db.query_log.entries() if e.sql == sql)
            if logged != run:
                found.append(Discrepancy(
                    "sys-selfref",
                    f"after run {run} the query log holds {logged} copies "
                    f"(expected {run})",
                ))
    finally:
        db.close()
    return found


def _replay_plan_cache_diff(
    payload: dict, tally: dict | None = None
) -> list[Discrepancy]:
    """Plan-cache differential over raw SQL: every query runs twice
    against a plan-cached database (the second run takes the hit path)
    and once against a fresh-compile database (``plan_cache_size=0``);
    the pairs must agree as multisets.  After every DDL step in
    ``payload["ddl"]`` — applied to both arms — the full query list
    re-sweeps, so stale cached plans surviving an invalidation show up
    as a result divergence."""
    from ..database import Database

    batch_size = payload.get("batch_size", 1024)
    found: list[Discrepancy] = []
    cached = Database(
        wal_enabled=False, batch_size=batch_size,
        plan_cache_size=payload.get("plan_cache_size", 64),
    )
    fresh = Database(
        wal_enabled=False, batch_size=batch_size, plan_cache_size=0,
    )
    try:
        for statement in payload.get("setup", ()):
            cached.execute(statement)
            fresh.execute(statement)

        def sweep(label: str) -> None:
            for sql in payload.get("queries", ()):
                _run(cached, sql, tally)  # value-bound, generic, or a hit
                # the generic plan, or a hit
                cached_result, cached_err = _run(cached, sql, tally)
                fresh_result, fresh_err = _run(fresh, sql, tally)
                diff = _compare_arms(
                    "plan-cache-diff", f"cached[{label}]",
                    cached_result, cached_err,
                    f"fresh[{label}]", fresh_result, fresh_err, "multiset",
                )
                if diff is not None:
                    found.append(diff)

        sweep("initial")
        for step, ddl in enumerate(payload.get("ddl", ()), start=1):
            cached.execute(ddl)
            fresh.execute(ddl)
            sweep(f"ddl-{step}")
    finally:
        cached.close()
        fresh.close()
    return found


def _replay_qerror_probe(
    payload: dict, tally: dict | None = None
) -> list[Discrepancy]:
    """Plan-feedback oracle: every physical operator of every executed
    query gets exactly one est/actual feedback row, the row indexes form
    a contiguous 0..n-1 pre-order, every operator carries an estimate,
    and every Q-error respects the >= 1.0 clamp.  Guards the est/actual
    join key (``id(op)`` through the collector) against plan-shape or
    collector regressions."""
    from ..database import Database

    found: list[Discrepancy] = []
    db = Database(batch_size=payload.get("batch_size", 1024))
    try:
        for statement in payload.get("setup", ()):
            db.execute(statement)
        for sql in payload.get("queries", ()):
            result = db.query(sql)
            if tally is not None:
                tally["queries"] = tally.get("queries", 0) + 1
            query_id = result.stats.query_id
            rows = [
                f for f in db.query_log.feedback_rows()
                if f.query_id == query_id
            ]
            expected = result.stats.operators_after
            indexes = sorted(f.op_index for f in rows)
            if indexes != list(range(expected)):
                found.append(Discrepancy(
                    "qerror-probe",
                    f"{query_id} ({sql!r}): expected one feedback row per "
                    f"operator (0..{expected - 1}), got indexes {indexes}",
                ))
                continue
            for f in rows:
                if f.est_rows is None:
                    found.append(Discrepancy(
                        "qerror-probe",
                        f"{query_id} op {f.op_index} ({f.label}) "
                        "has no estimate",
                    ))
                elif f.qerror is None or f.qerror < 1.0:
                    found.append(Discrepancy(
                        "qerror-probe",
                        f"{query_id} op {f.op_index} ({f.label}) "
                        f"qerror={f.qerror!r} violates the >= 1.0 clamp",
                    ))
    finally:
        db.close()
    return found
