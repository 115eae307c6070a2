"""``vdm_analytics`` — execution-bound analytics on a warm plan cache.

Why it exists: every statement here hits the plan cache, so lexing,
binding and the optimizer do almost nothing and the ``engine`` (scan and
decode, join and aggregate bodies, TopN, ``Chunk.rows()``) and ``storage``
scans do almost all the work.  ROADMAP item 3 (vectorized join/aggregate,
late materialization) must show here; hit-path and optimizer changes must
not.

The round is 13 statements, one per class, so the median is the seventh
cheapest class (a DAC count, in a cluster of four classes of equal cost)
and the 95th percentile of a round is its heaviest statement (ordered
paging over the browser view), instead of either falling on a boundary
between two classes of different cost and flipping between them.
"""

from __future__ import annotations

import random

from harness import InProcessWorkload, Op

from repro.vdm.journal import JournalModel
from repro.workloads import create_tpch_schema, load_tpch
from repro.workloads.queries import ASJ_SUITE, UAJ_SUITE, UNION_UAJ_SUITE

BROWSER = "journalentryitembrowser"
FIG6_JOIN = ("select * from orders o left outer join customer c "
             "on o.o_custkey = c.c_custkey")
SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"]


class VdmAnalytics(InProcessWorkload):
    name = "vdm_analytics"
    sizes = {
        # ISSUE 11 asked for ~30k journal rows; 15k keeps >=20 rounds inside
        # the contract's run length while the 7.5k-row TPC-H results stay.
        "full": {"journal_rows": 15000, "tpch_scale": 0.05},
        "tiny": {"journal_rows": 300, "tpch_scale": 0.002},
    }
    fact_table = "acdoca"
    setup_repeats = 2
    warm_passes = 3  # first run plans, second promotes, third hits
    verify_sample = 1

    def build(self, db, sizes: dict) -> None:
        JournalModel(db, rows=sizes["journal_rows"]).build()
        create_tpch_schema(db)
        load_tpch(db, scale=sizes["tpch_scale"])

    def operations(self, seed: int, sizes: dict) -> list[Op]:
        rng = random.Random(seed)
        groups = ["G0", "G1", "G2"]

        def dac_count() -> str:
            # The per-user DAC filter AccessControl injects, for a seeded user.
            supplier, customer = rng.choice(groups), rng.choice(groups)
            return (
                "select count(*) from journalentryitem where "
                f"(supplierauthgroup = '{supplier}' or supplierauthgroup is null) "
                f"and (customerauthgroup = '{customer}' or customerauthgroup is null)"
            )

        ops = [
            Op("fig4_count", f"select count(*) from {BROWSER}", heavy_ref=True),
            Op("browser_group_company",
               f"select company_name, count(*), sum(amount) from {BROWSER} "
               "group by company_name", heavy_ref=True),
            Op("consumption_group_year",
               "select postingyear, count(*), sum(amount) from journalentryitem "
               f"where ledger_id = {rng.randrange(3)} group by postingyear",
               heavy_ref=True),
            Op("dac_user_count_a", dac_count(), heavy_ref=True),
            Op("dac_user_count_b", dac_count(), heavy_ref=True),
            Op("browser_limit", f"select * from {BROWSER} limit 50",
               superset_sql=f"select * from {BROWSER}", heavy_ref=True),
            Op("browser_ordered_paging",
               f"select * from {BROWSER} order by acdockey limit 50",
               heavy_ref=True),
            Op("fig6_paging",
               f"{FIG6_JOIN} limit 100 offset {rng.randrange(1, 50)}",
               superset_sql=FIG6_JOIN),
            Op("uaj1", UAJ_SUITE[0].sql),
            Op("fig10b", ASJ_SUITE[1].sql),
            Op("fig11a", UNION_UAJ_SUITE[0].sql),
            Op("kept_join_orders_lineitem",
               "select o.o_orderstatus, count(*), sum(l.l_quantity) "
               "from orders o join lineitem l on o.o_orderkey = l.l_orderkey "
               "group by o.o_orderstatus"),
            Op("kept_join_segment",
               "select c.c_mktsegment, count(*), sum(l.l_extendedprice) "
               "from customer c join orders o on c.c_custkey = o.o_custkey "
               "join lineitem l on o.o_orderkey = l.l_orderkey "
               f"where c.c_mktsegment = '{rng.choice(SEGMENTS)}' "
               "group by c.c_mktsegment"),
        ]
        rng.shuffle(ops)
        return ops

    def preconditions(self, facts: dict) -> list[str]:
        problems = []
        # 12 of the 13 shapes hit.  Fig. 11(a) never does: its Union-All
        # rewrite depends on the literal values ('O' vs 'F' are disjoint),
        # so the plan cache refuses the shape and it is planned every time.
        if facts["plan_hit_rate"] < 0.92:
            problems.append(
                f"vdm_analytics needs a warm plan cache, hit rate "
                f"{facts['plan_hit_rate']:.3f} < 12/13")
        if "execute_share" in facts and facts["execute_share"] < 0.70:
            problems.append(
                f"engine.execute share {facts['execute_share']:.2f} < 0.70 "
                "of statement wall")
        return problems
