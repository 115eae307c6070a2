"""``adhoc_cold_plan`` — planning-bound: the paper's own subject.

Why it exists: 400 distinct statement shapes are cycled through a
128-entry plan cache, so every statement misses and pays parse +
bind/view expansion + the UAJ/ASJ/limit/Union-All rewrites + physical
planning, which together are most of its wall time; execution over 2,000
journal rows is the small part.  It is the bigger-than-cache counterpart
of ``point_lookup_hot``: binder and optimizer changes show here, executor
changes barely.

Set-up runs the whole cycle once, so during measurement every shape has
been seen before and each miss also re-promotes its evicted plan — one
regime for every measured statement, however far the run gets.

Every group of 40 operations has the same class mix — 6 paper-suite
statements, 6 synthetic-VDM statements, 20 narrow browser projections and
group-bys, 4 wide projections, 4 ordered ``select *`` pages — so the median
falls inside the narrow-browser class (30%..80% of the cost order) and the
95th percentile inside the ``select *`` class (90%..100%).
"""

from __future__ import annotations

import random

from harness import InProcessWorkload, Op

from repro import Database
from repro.vdm.generator import SyntheticVdm
from repro.vdm.journal import JournalModel
from repro.workloads import create_tpch_schema, load_tpch
from repro.workloads.queries import all_suites

BROWSER = "journalentryitembrowser"
SYNTHETIC_VIEWS = 12

#: Anchor-side suffixes that turn one suite statement into further shapes.
SUFFIXES = [
    "",
    " where o.o_orderkey < {n}",
    " where o.o_custkey = {n}",
    " where o.o_orderstatus = 'F'",
    " where o.o_totalprice > {n}",
    " order by o.o_orderkey limit {n}",
]


def suite_shapes() -> list[str]:
    """The Tables 1-4 / Fig. 13 statements, plus filtered and paged
    variants of those whose anchor is ``orders o``: 61 distinct shapes."""
    plain, extendable = [], []
    for suite in all_suites().values():
        for query in suite:
            head = query.sql.split(" from orders o left outer join ")[0]
            if head.startswith("select o.") and " limit " not in query.sql:
                extendable.append(query.sql)
            else:
                plain.append(query.sql)
    shapes = list(plain)
    for suffix in SUFFIXES:
        shapes += [sql + suffix for sql in extendable]
    return shapes


class AdhocColdPlan(InProcessWorkload):
    name = "adhoc_cold_plan"
    sizes = {
        "full": {"journal_rows": 2000, "synthetic_rows": 400,
                 "tpch_scale": 0.002, "group_len": 40, "groups": 10,
                 "plan_cache_size": 128},
        # Same ratio of shapes to cache entries, a tenth of the work.
        "tiny": {"journal_rows": 40, "synthetic_rows": 60,
                 "tpch_scale": 0.002, "group_len": 40, "groups": 1,
                 "plan_cache_size": 12},
    }

    def db_kwargs(self, sizes: dict) -> dict:
        return {"wal_enabled": False, "plan_cache_size": sizes["plan_cache_size"]}

    fact_table = "acdoca"
    # warm_passes = 1: the whole cycle once, every shape seen, none cached.
    verify_sample = 6

    def build(self, db, sizes: dict) -> None:
        JournalModel(db, rows=sizes["journal_rows"]).build()
        SyntheticVdm(db, seed=42).build_views(
            count=SYNTHETIC_VIEWS, min_rows=50, max_rows=sizes["synthetic_rows"])
        create_tpch_schema(db)
        load_tpch(db, scale=sizes["tpch_scale"])
        db.execute("create table ta (key int primary key, a int, ext int)")
        db.execute("create table td (key int primary key, a int, ext int)")
        db.bulk_load("ta", [(i, i * 10, i * 100) for i in range(300)])
        db.bulk_load("td", [(i, i * 10, i * 100) for i in range(300, 350)])

    def operations(self, seed: int, sizes: dict) -> list[Op]:
        rng = random.Random(seed)
        base, augmented = browser_columns()
        # Foreign keys into the 50-row dimensions: equally selective filters.
        id_columns = [c for c in base if c.endswith("_id")
                      and c not in ("company_id", "ledger_id")]

        suite = suite_shapes()
        rng.shuffle(suite)
        suite_ops = [Op("paper_suite", sql.format(n=rng.randrange(20, 200)))
                     for sql in suite[:6 * sizes["groups"]]]

        synthetic_ops = []
        for view in range(SYNTHETIC_VIEWS):
            n = rng.randrange(10, 60)
            synthetic_ops += [
                Op("synthetic_vdm", sql) for sql in (
                    f"select fkey, amount, dname0 from v_{view} where qty > {n}",
                    f"select dgroup0, count(*), sum(amount) from v_{view} "
                    "group by dgroup0",
                    f"select fkey, zz_custom from v_{view}_ext_case where fkey < {n}",
                    f"select fkey, zz_custom from v_{view}_ext_plain where fkey < {n}",
                    f"select fkey, qty, dname1 from v_{view} order by fkey limit {n}",
                )
            ]
        rng.shuffle(synthetic_ops)

        seen: set[str] = set()

        def fresh(make) -> str:
            # Shapes must be distinct: redraw on a (rare) repeat.
            while True:
                sql = make()
                shape = sql.translate(_DIGITS_OUT)
                if shape not in seen:
                    seen.add(shape)
                    return sql

        def projection(n_base: int, n_augmented: int) -> str:
            columns = rng.sample(base, n_base) + rng.sample(augmented, n_augmented)
            rng.shuffle(columns)
            return (f"select {', '.join(columns)} from {BROWSER} "
                    f"where {rng.choice(id_columns)} = {rng.randrange(50)} "
                    f"limit {rng.randrange(10, 40)}")

        def bare_limit(kind: str, sql: str) -> Op:
            # LIMIT without ORDER BY: any LIMIT-many rows of the unlimited
            # statement are a correct answer.
            return Op(kind, sql, superset_sql=sql.rsplit(" limit ", 1)[0],
                      heavy_ref=True)

        def group_by() -> str:
            keys = rng.sample(augmented, 1) + rng.sample(base, 1)
            return (f"select {', '.join(keys)}, count(*), sum(amount) "
                    f"from journalentryitem "
                    f"where {rng.choice(id_columns)} = {rng.randrange(50)} "
                    f"group by {', '.join(keys)}")

        def star_page() -> str:
            return (f"select * from {BROWSER} "
                    f"where {rng.choice(id_columns)} = {rng.randrange(50)} "
                    f"order by {rng.choice(id_columns)}, acdockey "
                    f"limit {rng.randrange(10, 40)}")

        ops: list[Op] = []
        for group in range(sizes["groups"]):
            members = suite_ops[6 * group:6 * group + 6]
            members += synthetic_ops[6 * group:6 * group + 6]
            members += [bare_limit("browser_narrow",
                                   fresh(lambda: projection(3, 2)))
                        for _ in range(12)]
            members += [Op("browser_narrow", fresh(group_by), heavy_ref=True)
                        for _ in range(8)]
            members += [bare_limit("browser_wide",
                                   fresh(lambda: projection(12, 10)))
                        for _ in range(4)]
            members += [Op("browser_star_page", fresh(star_page), heavy_ref=True)
                        for _ in range(4)]
            rng.shuffle(members)
            ops += members
        return ops

    def preconditions(self, facts: dict) -> list[str]:
        problems = []
        if facts["plan_hit_rate"] > 0.05:
            problems.append(
                f"adhoc_cold_plan must miss the plan cache, hit rate "
                f"{facts['plan_hit_rate']:.3f} > 0.05")
        if "planning_share" in facts and facts["planning_share"] < 0.50:
            problems.append(
                f"bind+optimize+physical share {facts['planning_share']:.2f} "
                "< 0.50 of statement wall")
        return problems


_DIGITS_OUT = str.maketrans("", "", "0123456789")


def browser_columns() -> tuple[list[str], list[str]]:
    """Column names of the browser view, split into those that come from
    the journal table itself and those an augmentation join supplies (each
    of which keeps its join alive through UAJ elimination)."""
    db = Database(wal_enabled=False, plan_cache_size=0)
    JournalModel(db, rows=1, dim_rows=1).build()
    names = db.query(f"select * from {BROWSER} limit 1").column_names
    own = {c.name for c in db.catalog.table("acdoca").schema.columns}
    return ([c for c in names if c in own],
            [c for c in names if c not in own and c not in
             ("supplierauthgroup", "customerauthgroup")])
