"""``point_lookup_hot`` — the plan-cache hit path, nothing else.

Why it exists: the fixed per-statement cost dominates (lex ->
``extract_shape`` -> cache probe -> literal rebind -> executor set-up ->
telemetry bookkeeping -> one-row result), so ``sql``, ``cache.plan_cache``
and the ``database`` bookkeeping do most of the work while the engine
kernels and the optimizer do almost none.  The hit-path lexer fix and
ROADMAP item 2 (one statement lifecycle) must show here and must not move
``vdm_analytics``.

The view stack is ``bench_plan_cache.py``'s: an 8-deep stack plus one
augmentation join, over a 2,000-row base table.

Nine operations in ten are point lookups by key.  The tenth reads a page of
500 consecutive keys through the same stack, also on a plan-cache hit: the
slowest twentieth of a 1 ms statement is made of stalls of the box, not of
the engine (the knee of its distribution sits between the 93rd and the 97th
percentile and moves from run to run), so, as on the other workloads, the
class mix puts the 95th percentile *inside* a class: it is the median page.
"""

from __future__ import annotations

import random

from harness import InProcessWorkload, Op

STACK_DEPTH = 8
GROUPS = 5


class PointLookupHot(InProcessWorkload):
    name = "point_lookup_hot"
    sizes = {"full": {"rows": 2000, "group_len": 500, "page_rows": 500},
             "tiny": {"rows": 200, "group_len": 50, "page_rows": 50}}
    fact_table = "pc_items"
    setup_repeats = 5

    def build(self, db, sizes: dict) -> None:
        db.execute("create table pc_items (id int primary key, qty int, "
                   "grp int, note varchar(20))")
        db.bulk_load("pc_items", [(i, i * 3, i % GROUPS, f"n{i}")
                                  for i in range(sizes["rows"])])
        db.execute("create table pc_groups (gkey int primary key, "
                   "gname varchar(20))")
        db.bulk_load("pc_groups", [(i, f"grp {i}") for i in range(GROUPS)])
        db.execute("create view pc_v0 as select id, qty, grp, note from pc_items")
        for i in range(1, STACK_DEPTH):
            db.execute(f"create view pc_v{i} as select id, qty, grp, note "
                       f"from pc_v{i - 1} where qty >= 0")
        db.execute(f"create view pc_top as select v.id, v.qty, d.gname "
                   f"from pc_v{STACK_DEPTH - 1} v "
                   "left outer join pc_groups d on v.grp = d.gkey")

    def operations(self, seed: int, sizes: dict) -> list[Op]:
        rng = random.Random(seed)
        rows, group_len, page = sizes["rows"], sizes["group_len"], sizes["page_rows"]
        keys = list(range(rows))
        rng.shuffle(keys)
        ops: list[Op] = []
        for start in range(0, rows, group_len):
            group = [Op("point_lookup",
                        f"select id, qty, gname from pc_top where id = {key}")
                     for key in keys[start:start + group_len - group_len // 10]]
            for _ in range(group_len // 10):
                low = rng.randrange(rows - page + 1)
                group.append(Op("page_lookup",
                                "select id, qty, gname from pc_top "
                                f"where id >= {low} and id < {low + page}"))
            rng.shuffle(group)
            ops += group
        return ops

    def warm_ops(self, ops: list[Op]) -> list[Op]:
        # Enough of each class to plan, promote and hit its shape.
        return ([op for op in ops if op.kind == "point_lookup"][:20]
                + [op for op in ops if op.kind == "page_lookup"][:3])

    def expected(self, op: Op):
        # Independent oracle: a row is a function of its key.
        bounds = [int(word) for word in op.sql.split() if word.isdigit()]
        keys = bounds if op.kind == "point_lookup" else range(*bounds)
        return [(key, key * 3, f"grp {key % GROUPS}") for key in keys]

    def preconditions(self, facts: dict) -> list[str]:
        if facts["plan_hit_rate"] < 0.99:
            return [f"point_lookup_hot needs >=0.99 plan-cache hits, got "
                    f"{facts['plan_hit_rate']:.4f}"]
        return []
