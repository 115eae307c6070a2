"""Property tests over the ``repro.fuzz`` workload generator, oracles, and
reducer.

Three guarantees are pinned down:

1. every generated case is inside the engine's supported surface — it
   parses, binds, and executes with and without the optimizer;
2. the rule-targeting bias works: a case generated for a rewrite target
   actually fires that rewrite (asserted through the per-query
   ``rewrite_fires`` counters), so the differential oracle exercises
   every paper rewrite, not whatever random SQL happens to hit;
3. the oracle suite has teeth: deliberately breaking the UAJ used-fields
   check (§4.3's central soundness condition) makes the differential
   oracle report a failure within the CI campaign budget, and the
   reducer shrinks it to a replayable repro.
"""

from __future__ import annotations

import pytest

from repro.fuzz.generator import TARGET_FIRES, TARGETS, Case, WorkloadGenerator
from repro.fuzz.oracles import ORACLES, comparison_mode, run_all_oracles
from repro.fuzz.reducer import reduce_case
from repro.optimizer.rules import simplify_joins
from tests.conftest import rows_equal

GENERATOR_SEED = 101
EXECUTE_ITERATIONS = 200
BIAS_ITERATIONS = 120
POSTGRES_ITERATIONS = 60


@pytest.fixture(scope="module")
def cases() -> list[Case]:
    generator = WorkloadGenerator(seed=GENERATOR_SEED)
    return [generator.case(i) for i in range(EXECUTE_ITERATIONS)]


class TestGeneratedCasesExecute:
    def test_every_case_parses_binds_and_executes(self, cases):
        """The generator only emits supported SQL: both optimizer arms and
        the COUNT(*) wrapper must run without raising."""
        for case in cases:
            db = case.build()
            sql = case.sql()
            optimized = db.query(sql)
            baseline = db.query(sql, optimize=False)
            assert optimized.column_names == baseline.column_names
            assert db.query(case.query.count_sql()).scalar() is not None

    def test_postgres_profile_cases_execute(self):
        """The postgres profile keeps the joins the hana profile removes,
        so its cases exercise the join operators' physical schemas (the
        autouse fixture checks every batch)."""
        generator = WorkloadGenerator(seed=GENERATOR_SEED, profile="postgres")
        for index in range(POSTGRES_ITERATIONS):
            case = generator.case(index)
            db = case.build()
            sql = case.sql()
            optimized = db.query(sql)
            baseline = db.query(sql, optimize=False)
            assert optimized.column_names == baseline.column_names
            if comparison_mode(case) != "subset":
                assert rows_equal(optimized, baseline), sql

    def test_cases_cover_every_target(self, cases):
        seen = {case.targets[0] if case.targets else "mixed" for case in cases}
        assert seen >= set(TARGETS)

    def test_comparison_modes_all_occur(self, cases):
        modes = {comparison_mode(case) for case in cases}
        assert modes == {"ordered", "multiset", "subset"}

    def test_composite_where_shapes_occur(self, cases):
        # The DAC shape reaches the anchor's coded tag and a left-outer-
        # joined augmenter column; a second conjunct rides along with AND.
        dac_cols = set()
        for case in cases:
            where = case.query.where or {}
            for pred in (where, where.get("and")):
                if pred and pred["op"] == "= or is null":
                    dac_cols.add(pred["col"])
                    assert f"({pred['col']} = '" in case.sql()
                    assert f"or {pred['col']} is null)" in case.sql()
        shapes = set().union(*(case.query.where_shapes() for case in cases))
        assert shapes == {"dac", "and"}
        assert "tag" in dac_cols and dac_cols & {"d_tag", "ext_tag"}

    def test_generation_is_deterministic(self):
        a = WorkloadGenerator(seed=GENERATOR_SEED)
        b = WorkloadGenerator(seed=GENERATOR_SEED)
        for index in (0, 7, 63):
            assert a.case(index).to_dict() == b.case(index).to_dict()
        assert (a.case(0).to_dict() !=
                WorkloadGenerator(seed=GENERATOR_SEED + 1).case(0).to_dict())

    def test_case_round_trips_through_json_dict(self, cases):
        for case in cases[:20]:
            clone = Case.from_dict(case.to_dict())
            assert clone.sql() == case.sql()
            assert clone.to_dict() == case.to_dict()


class TestRewriteBias:
    """Satellite (b): every rule-targeting bias fires its rewrite."""

    def test_every_targeted_case_fires_its_rewrite(self):
        generator = WorkloadGenerator(seed=GENERATOR_SEED)
        counts: dict[str, int] = {}
        for index in range(BIAS_ITERATIONS):
            case = generator.case(index)
            target = case.targets[0] if case.targets else "mixed"
            prefixes = TARGET_FIRES.get(target, ())
            if not prefixes:
                continue
            fires = case.build().query(case.sql()).stats.rewrite_fires
            assert any(
                name.startswith(prefix)
                for prefix in prefixes
                for name in fires
            ), (f"case {index} targets {target!r} but fired only {fires} "
                f"for {case.sql()!r}")
            counts[target] = counts.get(target, 0) + 1
        # every rewrite target was actually sampled, not vacuously skipped
        for target in TARGETS:
            if TARGET_FIRES.get(target):
                assert counts.get(target, 0) >= 5, (target, counts)


class TestOraclesAreClean:
    def test_all_oracles_pass_on_generated_cases(self, cases):
        for case in cases[:60]:
            assert run_all_oracles(case) == []


def _break_uaj_used_fields_check(monkeypatch):
    """Disable §4.3's soundness condition: pretend augmenter columns are
    never referenced, so UAJ elimination drops joins whose output the
    query still needs."""
    original = simplify_joins._simplify_join

    def broken(op, required, sctx):
        return original(op, required - op.right.output_cids, sctx)

    monkeypatch.setattr(simplify_joins, "_simplify_join", broken)


class TestOraclesHaveTeeth:
    """Acceptance: a deliberately broken rewrite rule is caught and
    minimized within the 300-run campaign budget."""

    def test_broken_uaj_rule_is_caught_and_reduced(self, monkeypatch):
        _break_uaj_used_fields_check(monkeypatch)
        generator = WorkloadGenerator(seed=7)
        differential = ORACLES["rewrite-differential"]
        for index in range(300):
            case = generator.case(index)
            found = differential(case)
            if found is None:
                continue
            reduced, steps = reduce_case(case, found.oracle)
            assert steps > 0, "reduction made no progress"
            assert differential(reduced) is not None, (
                "reduced case no longer reproduces the discrepancy"
            )
            replayed = Case.from_dict(reduced.to_dict())
            assert differential(replayed) is not None, (
                "serialized repro no longer reproduces the discrepancy"
            )
            total_rows = sum(len(t.rows) for t in reduced.tables)
            assert total_rows <= sum(len(t.rows) for t in case.tables)
            return
        pytest.fail("broken UAJ rule survived 300 differential runs")

    def test_reducer_tries_each_conjunct_alone(self):
        from repro.fuzz.reducer import _shrink_query

        case = WorkloadGenerator(seed=GENERATOR_SEED).case(0)
        first = {"col": "grp", "op": "<", "value": 3}
        second = {"col": "tag", "op": "= or is null", "value": "t1"}
        case.query.where = dict(first, **{"and": second})
        tried = []

        def reject(candidate):
            tried.append(candidate.query.where)
            return False

        _shrink_query(case, reject)
        assert tried[:3] == [None, first, second]

    def test_reducer_validates_oracle_name(self):
        case = WorkloadGenerator(seed=GENERATOR_SEED).case(0)
        with pytest.raises(ValueError, match="unknown oracle"):
            reduce_case(case, "no-such-oracle")

    def test_reducer_is_a_noop_on_clean_cases(self):
        case = WorkloadGenerator(seed=GENERATOR_SEED).case(0)
        assert run_all_oracles(case) == []
        reduced, steps = reduce_case(case, "rewrite-differential", budget=30)
        assert steps == 0
        assert reduced.sql() == case.sql()
