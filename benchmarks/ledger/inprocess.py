"""Runner for the three in-process workloads (one client, closed loop).

A workload is a *spec* object with:

- ``name``, ``sizes`` (``{"full": {...}, "tiny": {...}}``), ``db_kwargs(sizes)``;
- ``build(db, sizes)`` — schema, load, view deploy;
- ``operations(seed, sizes)`` — the fixed operation list (one cycle); the
  seed changes literals and order, never the count;
- ``sizes[scale]["group_len"]`` (default: the whole list) — operations
  per group; every group has the same class mix, the deadline is checked
  between groups, and throughput is taken per group so one stall does
  not move it;
- ``setup_repeats``, ``warm_passes``, ``warm_ops(ops)``, ``verify_sample``,
  ``expected(op)`` — see ``harness.InProcessWorkload`` for the defaults;
- ``preconditions(facts)`` — list of violated workload preconditions.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

from harness import (
    HostSpeed, Op, Spans, calibration_ms, mean, median_ms, p95_ms, peak_rss_mb,
    storage_scan_rate,
)

from repro import Database
from repro.algebra import Binder
from repro.capture.recorder import result_digest
from repro.engine import Chunk, Executor, kernels
from repro.engine.physical import ExecContext
from repro.observability import ExecutionCollector, RewriteTally
from repro.optimizer.physical_planner import create_physical_plan
from repro.optimizer.pipeline import optimize_plan
from repro.sql import parse_statement
from repro.sql.lexer import tokenize
from repro.sql.normalize import extract_shape

#: Physical operator class -> per-layer bucket of ``engine.*_self_ms``.
OPERATOR_BUCKETS = {
    "BatchScanExec": "scan", "OneRowExec": "scan",
    "FilterExec": "filter_project", "ProjectExec": "filter_project",
    "LimitExec": "filter_project",
    "HashJoinExec": "join",
    "HashAggregateExec": "aggregate",
    "SortExec": "sort_topn", "TopNExec": "sort_topn",
    "UnionAllExec": "union_distinct", "DistinctExec": "union_distinct",
}
MISS_STAGES = ("sql.shape", "sql.parse", "algebra.bind", "optimizer.optimize",
               "optimizer.physical_plan", "engine.execute")
PLANNING = ("algebra.bind", "optimizer.optimize", "optimizer.physical_plan",
            "cache.promote")
BUCKETS = ("scan", "filter_project", "join", "aggregate", "sort_topn",
           "union_distinct")
#: Per-layer metrics of layers a read-only in-process workload never
#: enters (writes, merges, the WAL, the serving path): reported as zero.
NOT_ENTERED = (
    "storage.insert_ms", "storage.update_ms", "storage.commit_ms",
    "storage.merge_ms", "storage.merges", "storage.delta_rows_at_merge",
    "storage.merge_stall_ms", "storage.wal_bytes_per_user_byte",
    "storage.wal_fsyncs", "serving.http_json_ms",
    "serving.session_overhead_ms", "serving.admission_wait_ms",
    "serving.shed", "serving.rate_limited", "htap.oltp_txn_p50_ms",
    "htap.olap_query_p50_ms", "htap.recover_s", "htap.transactions",
)


# -- set-up ------------------------------------------------------------------


def distinct_ops(ops: list[Op]) -> list[Op]:
    seen: dict[str, Op] = {}
    for op in ops:
        seen.setdefault(op.sql, op)
    return list(seen.values())


def set_up(spec, sizes: dict, ops: list[Op], repeats: int | None = None,
           speed: HostSpeed | None = None, **db_overrides):
    """Build and warm ``spec``; returns (db, refs, setup_s).

    The build is repeated ``setup_repeats`` times (fresh database each
    time) and ``setup_s`` is the median build plus the warm-up of the
    database that is kept, so one slow allocation does not set it.
    ``refs`` maps SQL text to the digest of its warm (optimized) result.
    """
    builds = []
    db = None
    speed = speed or HostSpeed()
    for _ in range(repeats or spec.setup_repeats):
        db = None
        gc.collect()
        speed.sample(3)
        started = time.perf_counter()
        db = Database(**{**spec.db_kwargs(sizes), **db_overrides})
        spec.build(db, sizes)
        builds.append(time.perf_counter() - started)
    started = time.perf_counter()
    refs: dict[str, str] = {}
    warm = spec.warm_ops(ops)
    for index in range(spec.warm_passes):
        for op in warm:
            speed.tick()
            result = db.query(op.sql)
            if index == spec.warm_passes - 1 and spec.expected(op) is None:
                refs[op.sql] = result_digest(result)
    warm_s = time.perf_counter() - started
    speed.sample(3)
    return db, refs, statistics.median(builds) + warm_s


def verify_references(db, spec, ops: list[Op], refs: dict, seed: int,
                      exhaustive: bool) -> tuple[int, list[str]]:
    """The rewrite-correctness gate: the optimized result of a statement
    must equal its ``optimize=False`` result.  Exhaustive at tiny scale;
    at measurement scale every cheap statement plus a seeded sample of
    ``verify_sample`` heavy ones (the unoptimized plans of the deep views
    take seconds each), so successive seeds cover all of them.
    """
    referenced = [op for op in distinct_ops(ops) if op.sql in refs]
    heavy = [op for op in referenced if op.heavy_ref]
    if not exhaustive and len(heavy) > spec.verify_sample:
        heavy = random.Random(seed).sample(heavy, spec.verify_sample)
    candidates = [op for op in referenced if not op.heavy_ref] + heavy
    mismatches = []
    for op in candidates:
        plain = db.query(op.sql, optimize=False)
        if op.superset_sql is None:
            ok = result_digest(plain) == refs[op.sql]
        else:
            got = db.query(op.sql)
            superset = set(db.query(op.superset_sql, optimize=False).rows)
            ok = (len(got.rows) == len(plain.rows)
                  and all(row in superset for row in got.rows))
        if not ok:
            mismatches.append(op.sql)
    return len(candidates), mismatches


def result_ok(spec, op: Op, result, refs: dict) -> bool:
    expected = spec.expected(op)
    if expected is not None:
        return sorted(result.rows) == expected
    return result_digest(result) == refs[op.sql]


# -- the untraced, measured run ------------------------------------------------


def run_end_to_end(spec, seed: int, seconds: float, scale: str) -> dict:
    sizes = spec.sizes[scale]
    ops = spec.operations(seed, sizes)
    setup_speed, run_speed = HostSpeed(), HostSpeed()
    db, refs, setup_s = set_up(spec, sizes, ops, speed=setup_speed,
                               repeats=1 if scale == "tiny" else None)
    verified, mismatches = verify_references(
        db, spec, ops, refs, seed, exhaustive=(scale == "tiny"))
    # The loaded tables are millions of long-lived objects; without this
    # every full collection walks them and lands in some statement's time.
    gc.collect()
    gc.freeze()

    cache = db.plan_cache
    hits0, misses0 = cache.hits, cache.misses
    by_kind: dict[str, list[float]] = {}
    latencies: list[float] = []
    group_busy: list[float] = []
    wrong = len(mismatches)
    group_len = sizes.get("group_len", len(ops))
    position = 0
    deadline = time.perf_counter() + seconds
    while True:
        busy = 0.0
        for op in ops[position:position + group_len]:
            run_speed.tick()
            started = time.perf_counter()
            try:
                result = db.query(op.sql)
            except Exception:
                result = None
            elapsed = time.perf_counter() - started
            busy += elapsed
            latencies.append(elapsed)
            by_kind.setdefault(op.kind, []).append(elapsed)
            if result is None or not result_ok(spec, op, result, refs):
                wrong += 1
        group_busy.append(busy)
        position = (position + group_len) % len(ops)
        if time.perf_counter() >= deadline:
            break

    probes = (cache.hits - hits0) + (cache.misses - misses0)
    facts = {"plan_hit_rate": (cache.hits - hits0) / probes if probes else 0.0}
    problems = spec.preconditions(facts)
    problems += [f"optimized != unoptimized: {sql[:80]}" for sql in mismatches]
    return {
        "values": {
            "setup_s": setup_s,
            "throughput_ops_s": group_len / statistics.median(group_busy),
            "latency_p50_ms": median_ms(latencies),
            "latency_p95_ms": p95_ms(latencies),
            "peak_rss_mb": peak_rss_mb(),
        },
        "attempted": len(latencies) + verified,
        "failed": wrong,
        "problems": problems,
        "probe_ms": {"setup": setup_speed.probe_ms(), "run": run_speed.probe_ms()},
        "detail": {
            "samples": len(latencies),
            "groups": len(group_busy),
            "verified_vs_unoptimized": verified,
            "plan_hit_rate": facts["plan_hit_rate"],
            "kind_p50_ms": {k: median_ms(v) for k, v in sorted(by_kind.items())},
            "kind_n": {k: len(v) for k, v in sorted(by_kind.items())},
            "sizes": sizes,
        },
    }


# -- the traced run ------------------------------------------------------------


def staged_statement(db, executor: Executor, sql: str, spans: Spans):
    """Run one statement stage by stage through the layers' public calls,
    one span per stage.  Returns (result, facts)."""
    with spans.span("statement"):
        with spans.span("sql.lex"):
            tokens = tokenize(sql)
        with spans.span("sql.shape"):
            shape = extract_shape(sql)[0]
        with spans.span("sql.parse"):
            query = parse_statement(sql, tokens=tokens)
        with spans.span("algebra.bind"):
            bound = Binder(db.catalog).bind_query(query)
        with spans.span("optimizer.optimize"):
            tally = RewriteTally()
            plan = optimize_plan(bound, db.profile, db, trace=tally)
        with spans.span("optimizer.physical_plan"):
            physical = create_physical_plan(plan, db.catalog)
        with spans.span("engine.execute"):
            txn = db.begin()
            try:
                result = executor.execute_physical(plan, physical, txn)
            finally:
                db.commit(txn)
        # What a miss of an already-seen shape pays on top: the generic
        # (parameterized) re-plan that promotes it into the plan cache.
        with spans.span("cache.promote"):
            try:
                generic = parse_statement(sql, tokens=tokens, parameterize=True)
                optimize_plan(
                    Binder(db.catalog, parameterize=True).bind_query(generic),
                    db.profile, db, trace=RewriteTally())
            except Exception:
                pass  # the engine marks such a shape uncacheable and moves on
    facts = {
        "shape": shape,
        "tokens": len(tokens),
        "operators_bound": sum(1 for _ in bound.walk()),
        "operators_after": sum(1 for _ in plan.walk()),
        "iterations": tally.iterations_run,
        "rewrite_fires": sum(tally.rewrite_counts.values()),
    }
    return result, plan, physical, facts


def analyze_execution(db, plan, physical) -> dict:
    """Drain ``physical`` once more under a collector and a kernel tally:
    per-operator-class self time (inclusive minus children), kernel time,
    rows scanned/out, and the cost of materializing the result rows."""
    collector = ExecutionCollector()
    tally = kernels.KernelTally()
    previous = kernels.activate(tally)
    txn = db.begin()
    try:
        ctx = ExecContext(db.catalog, txn, collector=collector)
        stream = physical.execute(ctx)
        try:
            batches = list(stream)
        finally:
            stream.close()
    finally:
        db.commit(txn)
        kernels.activate(previous)
    started = time.perf_counter()
    rows = Chunk.concat(batches).rows([c.cid for c in plan.output]) if batches else []
    materialize_s = time.perf_counter() - started
    self_s = dict.fromkeys(BUCKETS, 0.0)
    for op in physical.walk():
        stats = collector.stats_for(op)
        if stats is None:
            continue
        children = sum(
            s.elapsed_s for s in map(collector.stats_for, op.children)
            if s is not None
        )
        bucket = OPERATOR_BUCKETS.get(type(op).__name__, "filter_project")
        self_s[bucket] += max(stats.elapsed_s - children, 0.0)
    return {
        "self_s": self_s,
        "materialize_s": materialize_s,
        "kernel_s": sum(entry[3] for entry in tally.per_op.values()),
        "kernel_calls": tally.calls,
        "rows_scanned": collector.rows_scanned(),
        "rows_out": len(rows),
    }


def main_bytes_per_user_byte(db, table_name: str) -> float:
    """Dictionary-code bytes of the main fragments over the bytes of the
    values as text: the column store's space cost per byte of user data."""
    table = db.catalog.table(table_name)
    code_bytes = user_bytes = 0
    for column in table.schema.columns:
        fragments = table.column(column.name)
        code_bytes += fragments.main.memory_codes_bytes()
        user_bytes += sum(
            len(str(v)) for v in fragments.iter_values() if v is not None)
    return code_bytes / user_bytes if user_bytes else 0.0


def run_traced(spec, seed: int, seconds: float, scale: str) -> dict:
    """The per-layer run.  A seeded sample of the operation list (at most
    a tenth of what an untraced run of ``seconds`` completes) goes through
    the staged pipeline; the same sample then goes through
    ``Database.query`` untraced, on the default database and on one with
    ``plan_feedback=False``, to reconcile stage sums against wall time."""
    sizes = spec.sizes[scale]
    ops = spec.operations(seed, sizes)
    db, refs, _ = set_up(spec, sizes, ops, repeats=1)
    gc.collect()
    gc.freeze()
    executor = Executor(db.catalog)
    spans = Spans()
    rng = random.Random(seed)
    group_len = sizes.get("group_len", len(ops))
    groups = [ops[i:i + group_len] for i in range(0, len(ops), group_len)]
    rng.shuffle(groups)

    # Size the sample: time one untraced group (the last, which the sample
    # does not reach when there are several) and take a tenth of the
    # operations an untraced run of `seconds` would complete.
    started = time.perf_counter()
    for op in groups[-1]:
        db.query(op.sql)
    per_op = (time.perf_counter() - started) / len(groups[-1])
    budget_ops = max(group_len, int(0.1 * seconds / per_op))
    sample: list[Op] = []
    while len(sample) < budget_ops:
        sample.extend(groups[len(sample) // group_len % len(groups)])

    wrong = 0
    facts_sum = dict.fromkeys(
        ("tokens", "operators_bound", "operators_after", "iterations",
         "rewrite_fires"), 0)
    analysis = {"self_s": dict.fromkeys(BUCKETS, 0.0), "materialize_s": 0.0,
                "kernel_s": 0.0, "kernel_calls": 0, "rows_scanned": 0,
                "rows_out": 0}
    staged_wall = 0.0
    staged_results = []
    shapes = []
    for index, op in enumerate(sample):
        spans.statement = index
        started = time.perf_counter()
        result, plan, physical, facts = staged_statement(db, executor, op.sql, spans)
        staged_wall += time.perf_counter() - started
        staged_results.append(result)
        shapes.append(facts.pop("shape"))
        for key, value in facts.items():
            facts_sum[key] += value
        one = analyze_execution(db, plan, physical)
        for bucket, bucket_s in one.pop("self_s").items():
            analysis["self_s"][bucket] += bucket_s
        for key, value in one.items():
            analysis[key] += value

    # The same statements through Database.query, untraced.  Which stages a
    # statement really pays depends on the plan cache: a miss pays the
    # whole pipeline, plus the promotion when the cache stored or refused
    # the shape afterwards; a hit pays shape extraction and execution, plus
    # physical planning when its literals differ from the shape's last use.
    cache = db.plan_cache
    hits0, misses0, evictions0 = cache.hits, cache.misses, cache.evictions
    per_statement = {
        name: spans.durations(name) for name in
        ("sql.lex",) + MISS_STAGES + ("cache.promote",)
    }
    last_sql: dict[str, str] = {}
    query_wall = attributed = paid_planning = paid_execute = 0.0
    for index, op in enumerate(sample):
        hits_before = cache.hits
        stored_before = len(cache) + cache.evictions + cache.uncacheable
        started = time.perf_counter()
        result = db.query(op.sql)
        query_wall += time.perf_counter() - started
        if cache.hits == hits_before:
            promoted = len(cache) + cache.evictions + cache.uncacheable != stored_before
            paid = MISS_STAGES + (("cache.promote",) if promoted else ())
        elif last_sql.get(shapes[index]) == op.sql:
            paid = ("sql.shape", "engine.execute")
        else:
            paid = ("sql.shape", "optimizer.physical_plan", "engine.execute")
        last_sql[shapes[index]] = op.sql
        attributed += sum(per_statement[name][index] for name in paid)
        paid_execute += per_statement["engine.execute"][index]
        paid_planning += sum(
            per_statement[name][index] for name in paid if name in PLANNING)
        staged = staged_results[index]
        same = (
            staged.column_names == result.column_names
            and (result_digest(staged) == result_digest(result)
                 if op.superset_sql is None
                 else len(staged.rows) == len(result.rows))
        )
        if not same or not result_ok(spec, op, result, refs):
            wrong += 1
    probes = (cache.hits - hits0) + (cache.misses - misses0)
    hit_rate = (cache.hits - hits0) / probes if probes else 0.0

    # Telemetry overhead: the same sample, once, on a database built and
    # warmed the same way but with plan feedback off.
    lean, _, _ = set_up(spec, sizes, ops, repeats=1, plan_feedback=False)
    gc.collect()
    gc.freeze()
    started = time.perf_counter()
    for op in sample:
        lean.query(op.sql)
    lean_wall = time.perf_counter() - started

    n = len(sample)

    def stage_ms(name: str) -> float:
        return mean(per_statement[name]) * 1e3

    statement_ms = query_wall / n * 1e3
    rows_out = analysis["rows_out"]
    values = {
        "sql.lex_ms": stage_ms("sql.lex"),
        "sql.tokens": facts_sum["tokens"] / n,
        # The whole extract_shape call, which tokenizes again: what a
        # plan-cache probe pays before it knows whether it hit.
        "sql.shape_ms": stage_ms("sql.shape"),
        "sql.parse_ms": stage_ms("sql.parse"),
        "algebra.bind_ms": stage_ms("algebra.bind"),
        "algebra.operators_bound": facts_sum["operators_bound"] / n,
        "optimizer.optimize_ms": stage_ms("optimizer.optimize"),
        "optimizer.iterations": facts_sum["iterations"] / n,
        "optimizer.rewrite_fires": facts_sum["rewrite_fires"] / n,
        "optimizer.operators_after": facts_sum["operators_after"] / n,
        "optimizer.physical_plan_ms": stage_ms("optimizer.physical_plan"),
        "cache.promote_ms": stage_ms("cache.promote"),
        "cache.plan_hit_rate": hit_rate,
        "cache.plan_evictions": cache.evictions - evictions0,
        "cache.plan_entries": len(cache),
        "engine.execute_ms": stage_ms("engine.execute"),
        "engine.materialize_ms": analysis["materialize_s"] / n * 1e3,
        "engine.kernel_ms": analysis["kernel_s"] / n * 1e3,
        "engine.kernel_calls": analysis["kernel_calls"] / n,
        "engine.rows_scanned": analysis["rows_scanned"] / n,
        "engine.rows_out": rows_out / n,
        "engine.rows_scanned_per_row_out": (
            analysis["rows_scanned"] / rows_out if rows_out else 0.0),
        "storage.scan_rows_per_s": storage_scan_rate(db, spec.fact_table),
        "storage.main_bytes_per_user_byte": main_bytes_per_user_byte(
            db, spec.fact_table),
        "observability.telemetry_overhead_frac": query_wall / lean_wall - 1.0,
        "bench.unattributed_frac": 1.0 - attributed / query_wall,
        "bench.trace_overhead_frac": staged_wall / query_wall - 1.0,
        "bench.calibration_ms": calibration_ms(),
        # Shares of the untraced statement wall, counting a stage only
        # for the statements that pay it (a cache hit skips planning).
        "bench.execute_share": paid_execute / query_wall,
        "bench.planning_share": paid_planning / query_wall,
        "bench.statement_ms": statement_ms,
        "bench.traced_statements": n,
    }
    for bucket in BUCKETS:
        values[f"engine.{bucket}_self_ms"] = analysis["self_s"][bucket] / n * 1e3
    values.update(dict.fromkeys(NOT_ENTERED, 0.0))
    spans.dump(spec.name)
    facts = {"plan_hit_rate": hit_rate,
             "execute_share": values["bench.execute_share"],
             "planning_share": values["bench.planning_share"]}
    return {
        "values": values,
        "attempted": n,
        "failed": wrong,
        "problems": spec.preconditions(facts),
        "detail": {"traced_statements": n, "sizes": sizes},
    }
