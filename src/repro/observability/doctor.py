"""``repro doctor``: one diagnostic report over the plan-feedback surface.

Pulls the three feedback signals this layer maintains — per-operator
Q-error, per-operator peak memory, and per-shape latency baselines — and
prints the worst offenders of each.  Everything comes from the same
records that back ``sys.plan_feedback`` / ``sys.query_shapes``, so the report is
exactly what those tables would show, pre-digested for a terminal.
"""

from __future__ import annotations


def doctor_report(db, top: int = 5) -> str:
    """Render the doctor report for ``db`` (top-N per section)."""
    lines: list[str] = ["== repro doctor =="]

    entries = {e.query_id: e for e in db.query_log.entries()}
    feedback = db.query_log.feedback_rows()

    def sql_for(query_id: str) -> str:
        entry = entries.get(query_id)
        if entry is None or entry.sql is None:
            return "<sql not retained>"
        sql = " ".join(entry.sql.split())
        return sql if len(sql) <= 80 else sql[:77] + "..."

    lines.append("")
    lines.append(f"-- top {top} misestimated operators (by Q-error) --")
    misestimated = sorted(
        (
            f for f in feedback
            if f.qerror is not None
            and not f.early_terminated
            and not f.never_executed
        ),
        key=lambda f: f.qerror,
        reverse=True,
    )[:top]
    if not misestimated:
        lines.append("(none)")
    for f in misestimated:
        lines.append(
            f"qerror={f.qerror:8.2f}  est={f.est_rows:10.0f}  "
            f"actual={f.rows_out:8d}  {f.label}"
        )
        lines.append(f"    {f.query_id}: {sql_for(f.query_id)}")

    lines.append("")
    lines.append(f"-- top {top} memory-hungriest queries (peak estimated bytes) --")
    by_query: dict[str, int] = {}
    for f in feedback:
        if f.peak_bytes:
            by_query[f.query_id] = by_query.get(f.query_id, 0) + f.peak_bytes
    hungriest = sorted(by_query.items(), key=lambda kv: kv[1], reverse=True)[:top]
    if not hungriest:
        lines.append("(none)")
    for query_id, total in hungriest:
        lines.append(f"peak≈{total / 1024:10.1f}KB  {query_id}: {sql_for(query_id)}")

    lines.append("")
    lines.append(f"-- top {top} kernel-heaviest operators (by vectorized kernel time) --")
    kernel_ops = sorted(
        (o for o in db.query_log.operator_rows() if o.kernel_calls),
        key=lambda o: o.kernel_s,
        reverse=True,
    )[:top]
    if not kernel_ops:
        lines.append("(none)")
    for o in kernel_ops:
        lines.append(
            f"kernel={o.kernel_s * 1e3:8.3f}ms  calls={o.kernel_calls:5d}  "
            f"selected={o.rows_selected:8d}  dict_cmp={o.dict_compares:8d}  "
            f"{o.label}"
        )
        lines.append(f"    {o.query_id}: {sql_for(o.query_id)}")

    lines.append("")
    lines.append("-- plan cache --")
    cache = getattr(db, "plan_cache", None)
    if cache is None:
        lines.append("(disabled)")
    else:
        lines.append(
            f"entries={len(cache)}/{cache.capacity}  "
            f"hits={cache.hits}  misses={cache.misses}  "
            f"hit_rate={cache.hit_rate * 100:.1f}%  "
            f"evictions={cache.evictions}  "
            f"invalidations={cache.invalidations}  "
            f"uncacheable_shapes={cache.uncacheable}  "
            f"approx={cache.approx_bytes() / 1024:.1f}KB"
        )
        hottest = sorted(cache.entries(), key=lambda e: e.hits, reverse=True)[:top]
        for entry in hottest:
            if not entry.hits:
                continue
            shape = entry.shape if len(entry.shape) <= 80 else entry.shape[:77] + "..."
            lines.append(
                f"hits={entry.hits:6d}  params={len(entry.param_types)}"
                f"(free={len(entry.free_slots)})  ops={entry.operators_after}"
            )
            lines.append(f"    {shape}")

    lines.append("")
    lines.append("-- regressed query shapes (window median > factor x baseline) --")
    db.shape_baselines.sync(db.query_log)
    regressed = db.shape_baselines.regressed_shapes()
    if not regressed:
        lines.append("(none)")
    for stats in regressed:
        example = stats.example_sql or "<unknown>"
        example = " ".join(example.split())
        if len(example) > 80:
            example = example[:77] + "..."
        baseline_ms = (stats.baseline_s or 0.0) * 1e3
        lines.append(
            f"shape={stats.shape}  n={stats.count}  "
            f"p50={stats.p50_s() * 1e3:.3f}ms  baseline={baseline_ms:.3f}ms"
        )
        lines.append(f"    {example}")

    return "\n".join(lines)
