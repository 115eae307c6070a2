"""The SQL battery: 300+ one-line statements with expected shapes.

Opteryx-style: a flat list of :class:`Case` records, each one statement
plus what we assert about it — expected column names, expected row
count, or the error class it must raise.  The driving test
(``test_battery_shape.py``) runs every statement twice against one
module-scoped database so the second run exercises the plan-cache hit
path, and asserts the two runs agree.

Expected row counts are *computed* from a Python mirror of the loaded
data (``ITEMS``/``GROUPS``/``EXT``), not hand-maintained — change the
data and the expectations follow.
"""

from __future__ import annotations

import datetime
import decimal
from dataclasses import dataclass


@dataclass(frozen=True)
class Case:
    sql: str
    #: Expected column names (None = don't assert).
    columns: tuple[str, ...] | None = None
    #: Expected row count (None = don't assert).
    rows: int | None = None
    #: "syntax" (SqlSyntaxError) or "bind" (BindError); None = must run.
    error: str | None = None
    #: True for statements whose results legitimately change between the
    #: two runs (sys.* tables grow as the battery itself executes).
    volatile: bool = False


# ---------------------------------------------------------------------------
# data model — mirrored in Python so counts below are computed
# ---------------------------------------------------------------------------

N_ITEMS = 24


def _name(i: int) -> str:
    return "it's 7" if i == 7 else f"item {i}"


ITEMS = [
    (
        i,                                    # id
        i % 4,                                # grp (grp 3 has no bt_grp row)
        i * 3,                                # qty
        (1 << 40) + i,                        # big
        i * 1.5,                              # price
        decimal.Decimal(i * 25) / 100,        # amt
        _name(i),                             # name
        i % 2 == 0,                           # flag
        datetime.date(2020, 1, 1) + datetime.timedelta(days=i),  # dt
    )
    for i in range(N_ITEMS)
]
GROUPS = [(0, "grp 0"), (1, "grp 1"), (2, "grp 2")]
EXT = [(i, i * 100) for i in range(10)]

_GIDS = {gid for gid, _ in GROUPS}
_EXT_IDS = {i for i, _ in EXT}


def load(db) -> None:
    """Create the battery schema (tables + a nested view stack) and load
    the mirrored data."""
    db.execute(
        "create table bt_item (id int primary key, grp int, qty int, "
        "big bigint, price double, amt decimal(10,2), name varchar(20), "
        "flag boolean, dt date)"
    )
    db.execute("create table bt_grp (gid int primary key, gname varchar(20))")
    db.execute("create table bt_ext (id int primary key, ext int)")
    db.bulk_load("bt_item", ITEMS)
    db.bulk_load("bt_grp", GROUPS)
    db.bulk_load("bt_ext", EXT)
    db.execute(
        "create view bv_base as "
        "select id, grp, qty, big, price, amt, name, flag, dt from bt_item"
    )
    db.execute(
        "create view bv_filt as "
        "select id, grp, qty, price, name from bv_base where qty >= 0"
    )
    db.execute(
        "create view bv_join as "
        "select f.id, f.qty, f.name, g.gname from bv_filt f "
        "left outer join bt_grp g on f.grp = g.gid"
    )
    db.execute(
        "create view bv_agg as "
        "select grp, count(*) as n, sum(qty) as total from bv_filt group by grp"
    )


def _count(pred) -> int:
    return sum(1 for row in ITEMS if pred(row))


STATEMENTS: list[Case] = []


# ---------------------------------------------------------------------------
# 1. literal projections — every literal type the lexer knows
# ---------------------------------------------------------------------------

_LITERALS = [
    "0", "1", "-1", "42", "2147483647", "2147483648", "-9999999999",
    "1099511627776",                    # 2^40: BIGINT
    "0.5", "2.50", "-3.14", "123.456",  # DECIMAL
    "1e3", "2.5e-2", "-1e2",            # DOUBLE
    "'x'", "''", "'it''s'", "'a b  c'", "'100'", "'null'",
    "true", "false", "null",
]
for lit in _LITERALS:
    STATEMENTS.append(Case(
        f"select {lit} as v from bt_grp where gid = 0",
        columns=("v",), rows=1,
    ))
    STATEMENTS.append(Case(
        f"select {lit} as v, gid from bt_grp order by gid",
        columns=("v", "gid"), rows=len(GROUPS),
    ))


# ---------------------------------------------------------------------------
# 2. one shape, many parameter values (the plan cache's bread and butter)
# ---------------------------------------------------------------------------

for k in range(N_ITEMS + 6):  # last 6 probe beyond the data: 0 rows
    STATEMENTS.append(Case(
        f"select id, qty from bt_item where id = {k}",
        columns=("id", "qty"), rows=1 if k < N_ITEMS else 0,
    ))


# ---------------------------------------------------------------------------
# 3. every comparison operator over int / double / string columns
# ---------------------------------------------------------------------------

_OPS = {
    "=": lambda a, b: a == b, "<": lambda a, b: a < b,
    ">": lambda a, b: a > b, "<=": lambda a, b: a <= b,
    ">=": lambda a, b: a >= b, "<>": lambda a, b: a != b,
    "!=": lambda a, b: a != b,
}
for op, fn in _OPS.items():
    STATEMENTS.append(Case(
        f"select id from bt_item where qty {op} 30",
        columns=("id",), rows=_count(lambda r: fn(r[2], 30)),
    ))
    STATEMENTS.append(Case(
        f"select id from bt_item where price {op} 10.5",
        columns=("id",), rows=_count(lambda r: fn(r[4], 10.5)),
    ))
    STATEMENTS.append(Case(
        f"select id from bt_item where name {op} 'item 5'",
        columns=("id",), rows=_count(lambda r: fn(r[6], "item 5")),
    ))


# ---------------------------------------------------------------------------
# 4. DISTINCT x ORDER BY x LIMIT/OFFSET grid over tables and views
# ---------------------------------------------------------------------------

_GRID_BASES = [
    ("select {d}grp from bt_item", "grp", [(r[1],) for r in ITEMS]),
    (
        "select {d}qty, grp from bt_item where qty > 30", "qty",
        [(r[2], r[1]) for r in ITEMS if r[2] > 30],
    ),
    ("select {d}name from bv_filt", "name", [(r[6],) for r in ITEMS]),
]
for template, order_col, model_rows in _GRID_BASES:
    for distinct in ("", "distinct "):
        base_n = len(set(model_rows)) if distinct else len(model_rows)
        for order in ("", f" order by {order_col}", f" order by {order_col} desc"):
            for limit, cap in (
                ("", None), (" limit 5", 5), (" limit 5 offset 2", (5, 2)),
                (" limit 100", 100), (" limit 0", 0),
            ):
                if cap is None:
                    n = base_n
                elif isinstance(cap, tuple):
                    n = min(cap[0], max(0, base_n - cap[1]))
                else:
                    n = min(cap, base_n)
                STATEMENTS.append(Case(
                    template.format(d=distinct) + order + limit, rows=n,
                ))


# ---------------------------------------------------------------------------
# 5. scalar functions
# ---------------------------------------------------------------------------

for expr in (
    "round(price, 1)", "round(price)", "abs(0 - qty)", "floor(price)",
    "ceil(price)", "coalesce(name, 'x')", "ifnull(name, 'x')",
    "nullif(qty, 9)", "upper(name)", "lower(name)", "length(name)",
    "substr(name, 1, 4)", "substring(name, 2)", "concat(name, '!')",
    "year(dt)", "month(dt)", "dayofmonth(dt)",
):
    STATEMENTS.append(Case(
        f"select {expr} as v from bt_item where id = 3",
        columns=("v",), rows=1,
    ))


# ---------------------------------------------------------------------------
# 6. aggregates, GROUP BY, HAVING
# ---------------------------------------------------------------------------

_N_GRPS = len({r[1] for r in ITEMS})
STATEMENTS += [
    Case("select count(*) as n from bt_item", columns=("n",), rows=1),
    Case("select count(qty) as n from bt_item", columns=("n",), rows=1),
    Case("select sum(qty) as s from bt_item", columns=("s",), rows=1),
    Case("select min(price) as v from bt_item", columns=("v",), rows=1),
    Case("select max(price) as v from bt_item", columns=("v",), rows=1),
    Case("select avg(qty) as v from bt_item", columns=("v",), rows=1),
    Case("select grp, count(*) as n from bt_item group by grp",
         columns=("grp", "n"), rows=_N_GRPS),
    Case("select grp, sum(qty) as s from bt_item group by grp order by grp",
         columns=("grp", "s"), rows=_N_GRPS),
    Case("select grp, min(name) as v from bt_item group by grp",
         columns=("grp", "v"), rows=_N_GRPS),
    Case("select grp, avg(price) as v from bt_item group by grp having count(*) > 1",
         columns=("grp", "v"), rows=_N_GRPS),
    Case("select grp, count(*) as n from bt_item group by grp having count(*) > 99",
         columns=("grp", "n"), rows=0),
    Case("select flag, count(*) as n from bt_item group by flag",
         columns=("flag", "n"), rows=2),
]


# ---------------------------------------------------------------------------
# 7. ASJ shapes — EXISTS / NOT EXISTS against bt_ext
# ---------------------------------------------------------------------------

_N_IN_EXT = _count(lambda r: r[0] in _EXT_IDS)
STATEMENTS += [
    Case("select id from bt_item where id in (select id from bt_ext)",
         columns=("id",), rows=_N_IN_EXT),
    Case("select id from bt_item where id not in (select id from bt_ext)",
         columns=("id",), rows=N_ITEMS - _N_IN_EXT),
    Case("select id from bt_item where id in "
         "(select id from bt_ext where ext > 500)",
         columns=("id",),
         rows=_count(lambda r: r[0] in {i for i, e in EXT if e > 500})),
    Case("select id from bt_item where id not in (select id from bt_ext) "
         "and qty > 30",
         columns=("id",),
         rows=_count(lambda r: r[0] not in _EXT_IDS and r[2] > 30)),
    Case("select id from bv_filt where id in (select id from bt_ext) "
         "order by id limit 3",
         columns=("id",), rows=min(3, _N_IN_EXT)),
    Case("select count(*) as n from bt_item where id not in "
         "(select id from bt_ext)",
         columns=("n",), rows=1),
    Case("select id from bt_item where exists (select gid from bt_grp)",
         columns=("id",), rows=N_ITEMS),
    Case("select id from bt_item where not exists "
         "(select gid from bt_grp where gid > 99)",
         columns=("id",), rows=N_ITEMS),
    # NULL NOT IN (empty) is TRUE; against a non-empty subquery a NULL
    # probe (grp 3 has no bt_grp row, so its gname is NULL) is UNKNOWN.
    Case("select id from bv_join where gname not in "
         "(select gname from bt_grp where gid > 99)",
         columns=("id",), rows=N_ITEMS),
    Case("select id from bv_join where gname not in "
         "(select gname from bt_grp where gid = 0)",
         columns=("id",), rows=_count(lambda r: r[1] in _GIDS - {0})),
]


# ---------------------------------------------------------------------------
# 8. UAJ shapes — left outer (augmentation) joins
# ---------------------------------------------------------------------------

_N_NULL_GRP = _count(lambda r: r[1] not in _GIDS)
STATEMENTS += [
    Case("select i.id, g.gname from bt_item i "
         "left outer join bt_grp g on i.grp = g.gid",
         columns=("id", "gname"), rows=N_ITEMS),
    Case("select i.id, g.gname from bt_item i "
         "left outer join bt_grp g on i.grp = g.gid where g.gname is null",
         columns=("id", "gname"), rows=_N_NULL_GRP),
    Case("select i.id, g.gname from bt_item i "
         "left outer join bt_grp g on i.grp = g.gid where g.gname is not null",
         columns=("id", "gname"), rows=N_ITEMS - _N_NULL_GRP),
    Case("select i.id from bt_item i "
         "left outer join bt_grp g on i.grp = g.gid order by i.id limit 4",
         columns=("id",), rows=4),
    Case("select i.id, g.gname, e.ext from bt_item i "
         "left outer join bt_grp g on i.grp = g.gid "
         "left outer join bt_ext e on i.id = e.id",
         columns=("id", "gname", "ext"), rows=N_ITEMS),
    Case("select i.id from bt_item i join bt_ext e on i.id = e.id",
         columns=("id",), rows=_N_IN_EXT),
    Case("select i.id from bt_item i inner join bt_grp g on i.grp = g.gid",
         columns=("id",), rows=N_ITEMS - _N_NULL_GRP),
    Case("select a.id from bt_ext a cross join bt_grp b",
         columns=("id",), rows=len(EXT) * len(GROUPS)),
]


# ---------------------------------------------------------------------------
# 9. UNION ALL shapes
# ---------------------------------------------------------------------------

STATEMENTS += [
    Case("select id from bt_item union all select id from bt_ext",
         columns=("id",), rows=N_ITEMS + len(EXT)),
    Case("select id, qty from bt_item where qty > 30 "
         "union all select id, ext from bt_ext",
         columns=("id", "qty"),
         rows=_count(lambda r: r[2] > 30) + len(EXT)),
    Case("select id from bt_item union all select id from bt_ext "
         "union all select gid from bt_grp",
         columns=("id",), rows=N_ITEMS + len(EXT) + len(GROUPS)),
    Case("select u.id from (select id from bt_item "
         "union all select id from bt_ext) u where u.id < 5",
         columns=("id",), rows=10),
    Case("select u.id from (select id from bt_item "
         "union all select id from bt_ext) u order by u.id limit 6",
         columns=("id",), rows=6),
    Case("select count(*) as n from (select id from bt_item "
         "union all select id from bt_ext) u",
         columns=("n",), rows=1),
]


# ---------------------------------------------------------------------------
# 10. nested views — the VDM stack
# ---------------------------------------------------------------------------

STATEMENTS += [
    Case("select * from bv_base",
         columns=("id", "grp", "qty", "big", "price", "amt", "name", "flag",
                  "dt"),
         rows=N_ITEMS),
    Case("select id, name from bv_filt where qty > 30",
         columns=("id", "name"), rows=_count(lambda r: r[2] > 30)),
    Case("select * from bv_join",
         columns=("id", "qty", "name", "gname"), rows=N_ITEMS),
    Case("select id, gname from bv_join where gname is null",
         columns=("id", "gname"), rows=_N_NULL_GRP),
    Case("select * from bv_agg order by grp",
         columns=("grp", "n", "total"), rows=_N_GRPS),
    Case("select grp, total from bv_agg where total > 0",
         columns=("grp", "total"), rows=_N_GRPS),
    Case("select v.id from bv_join v join bt_ext e on v.id = e.id",
         columns=("id",), rows=_N_IN_EXT),
    Case("select count(*) as n from bv_join where qty >= 0",
         columns=("n",), rows=1),
    Case("select name from bv_join order by id desc limit 2",
         columns=("name",), rows=2),
    Case("select a.grp from bv_agg a where a.grp in "
         "(select g.gid from bt_grp g)",
         columns=("grp",), rows=len(GROUPS)),
]


# ---------------------------------------------------------------------------
# 11. sys.* virtual tables (volatile: the battery itself grows them)
# ---------------------------------------------------------------------------

for sys_table in (
    "sys.query_log", "sys.operator_stats", "sys.plan_feedback",
    "sys.query_shapes", "sys.metrics", "sys.rewrite_fires",
    "sys.cache_entries", "sys.wal_segments", "sys.active_spans",
    "sys.fault_points", "sys.sessions", "sys.admission", "sys.plan_cache",
):
    STATEMENTS.append(Case(
        f"select * from {sys_table} limit 3", volatile=True,
    ))


# ---------------------------------------------------------------------------
# 12. predicates and expressions — IN, BETWEEN, LIKE, IS NULL, CASE, CAST
# ---------------------------------------------------------------------------

STATEMENTS += [
    Case("select id from bt_item where id in (1, 2, 99)",
         columns=("id",), rows=2),
    Case("select id from bt_item where name in ('item 5', 'it''s 7')",
         columns=("id",), rows=2),
    Case("select id from bt_item where qty between 9 and 30",
         columns=("id",), rows=_count(lambda r: 9 <= r[2] <= 30)),
    Case("select id from bt_item where name like 'item 1%'",
         columns=("id",),
         rows=_count(lambda r: r[6].startswith("item 1"))),
    Case("select id from bt_item where name like '%''%'",
         columns=("id",), rows=1),
    Case("select id from bt_item where name is null",
         columns=("id",), rows=0),
    Case("select id from bt_item where name is not null",
         columns=("id",), rows=N_ITEMS),
    Case("select id from bt_item where not (qty > 30)",
         columns=("id",), rows=_count(lambda r: not r[2] > 30)),
    Case("select id from bt_item where qty > 30 and flag = true",
         columns=("id",), rows=_count(lambda r: r[2] > 30 and r[7])),
    Case("select id from bt_item where qty > 60 or flag = false",
         columns=("id",), rows=_count(lambda r: r[2] > 60 or not r[7])),
    Case("select case when qty > 30 then 'hi' else 'lo' end as bucket "
         "from bt_item",
         columns=("bucket",), rows=N_ITEMS),
    Case("select id, case when flag then qty else 0 end as v from bt_item",
         columns=("id", "v"), rows=N_ITEMS),
    Case("select cast(qty as double) as v from bt_item where id = 2",
         columns=("v",), rows=1),
    Case("select cast(price as int) as v from bt_item where id = 2",
         columns=("v",), rows=1),
    Case("select cast('2020-01-05' as date) as v from bt_item where id = 0",
         columns=("v",), rows=1),
    Case("select id from bt_item where dt = cast('2020-01-05' as date)",
         columns=("id",), rows=1),
    Case("select id, qty + 1 from bt_item where id = 1",
         rows=1),
    Case("select qty * 2 - 1 as v, qty / 3 as w, qty % 5 as m "
         "from bt_item where id = 9",
         columns=("v", "w", "m"), rows=1),
    Case("select (qty + 1) * (qty - 1) as v from bt_item where id = 4",
         columns=("v",), rows=1),
    Case("select id from bt_item where (qty + 3) / 3 = id + 1",
         columns=("id",), rows=N_ITEMS),
]


# ---------------------------------------------------------------------------
# 13. deliberate errors — parse and bind failures
# ---------------------------------------------------------------------------

STATEMENTS += [
    Case("selec id from bt_item", error="syntax"),
    Case("select from bt_item", error="syntax"),
    Case("select id from", error="syntax"),
    Case("select id from bt_item order", error="syntax"),
    Case("select id from bt_item limit", error="syntax"),
    Case("select id from bt_item where", error="syntax"),
    Case("select id from bt_item group by", error="syntax"),
    Case("select 'unterminated from bt_item", error="syntax"),
    Case("select (id from bt_item", error="syntax"),
    Case("select id from bt_item union select id from bt_item",
         error="syntax"),
    Case("select id from bt_item where qty ~ 3", error="syntax"),
    Case("select case when qty > 1 then 1 from bt_item", error="syntax"),
    Case("select * from nosuch_table", error="bind"),
    Case("select nosuch_col from bt_item", error="bind"),
    Case("select i.nosuch from bt_item i", error="bind"),
    Case("select x.id from bt_item i", error="bind"),
    Case("select id from bt_item cross join bt_ext", error="bind"),
    Case("select nosuchfn(id) as v from bt_item", error="bind"),
    Case("select abs(id, id) as v from bt_item", error="bind"),
    Case("select id from bt_item where sum(qty) > 1", error="bind"),
    Case("select id, grp from bt_item group by grp", error="bind"),
    Case("select id from bt_item union all select id, ext from bt_ext",
         error="bind"),
    Case("select id from bt_item order by nosuch", error="bind"),
    Case("select * from sys.nosuch", error="bind"),
]


assert len(STATEMENTS) >= 300, len(STATEMENTS)
