"""Schema-aware random workload generator for the fuzzing oracles.

Every :class:`Case` is self-contained and JSON-serializable: base tables
with their rows, an ordered VDM view stack, and one structured
:class:`QuerySpec`.  Rebuilding the database from a case is deterministic,
so any discrepancy an oracle finds is replayable from the serialized form
alone.

The generator is *biased*, not uniform: each case picks a target rewrite
rule and constructs a view stack plus query shape that provably triggers
it (see :data:`TARGETS`).  The shapes mirror the paper's patterns:

``uaj``          augmentation join with a unique / declared ``..1``
                 augmenter, query touching only anchor columns (§4.3)
``union_uaj``    augmenter is a disjoint-branch Union All (§6, Table 4)
``asj``          custom-field extension: self-join on key exposing
                 extension columns, query using them (§5.3, Fig. 8b)
``asj_union``    draft pattern: branch-id-tagged Union All on both sides
                 through the declared-intent CASE JOIN (§6.3, Fig. 13b)
``limit_aj``     paging (LIMIT/OFFSET) above a surviving augmentation
                 join (§4.4, Fig. 6)
``limit_union``  LIMIT directly above a Union All view
``mixed``        unbiased query over a random relation of the stack

Besides INT and VARCHAR, the anchor and dimension tables carry a
``decimal(12,2)`` and a ``double`` column, and stacks mix them with
integers in comparisons, join keys, UNION ALL branches and COALESCE/CASE,
so every bind-time cast meets the oracles.  Decimal cells are stored as
strings (storage converts them), keeping rows JSON-round-trippable without
a codec.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field, replace

from ..database import Database

#: The rule-targeting biases.  Every non-``mixed`` target guarantees that
#: executing the case's query fires at least one of the rewrite counters in
#: :data:`TARGET_FIRES` (property-tested in tests/test_fuzz_generator.py).
TARGETS = (
    "uaj",
    "union_uaj",
    "asj",
    "asj_union",
    "limit_aj",
    "limit_union",
    "mixed",
)

#: target -> rewrite-counter name prefixes that must fire (``mixed`` has no
#: guarantee).  Matched against ``result.stats.rewrite_fires`` keys.
TARGET_FIRES: dict[str, tuple[str, ...]] = {
    "uaj": ("AJ ", "union-uaj"),
    "union_uaj": ("union-uaj",),
    "asj": ("ASJ",),
    "asj_union": ("ASJ union-augmenter",),
    "limit_aj": ("limit-pushdown-aj", "limit-pushdown-topn"),
    "limit_union": ("limit-pushdown-union",),
    "mixed": (),
}


# ---------------------------------------------------------------------------
# case model
# ---------------------------------------------------------------------------


@dataclass
class TableSpec:
    """One base table: its CREATE TABLE statement and its rows."""

    name: str
    sql: str
    rows: list[list]


@dataclass
class QuerySpec:
    """A structured SELECT over one relation, rendered by :meth:`sql`.

    Keeping the query structured (instead of a SQL string) is what makes
    the reducer tractable: shrinking steps drop clauses or columns and
    re-render, never string-edit.
    """

    source: str
    columns: list[str] = field(default_factory=list)
    #: Aggregate call: ``{"fn": "count_star"|"count"|"sum"|"min"|"max",
    #: "col": name-or-None, "alias": output-name}``.
    agg: dict | None = None
    group_by: list[str] = field(default_factory=list)
    #: One simple predicate ``{"col", "op", "value"}``; op additionally
    #: allows ``is null`` / ``is not null`` (value ignored) and the DAC
    #: shape ``= or is null`` (``(col = value or col is null)``).  An
    #: optional ``"and"`` entry holds a second predicate of the same form,
    #: joined with AND.  A numeric comparison may take its right side as
    #: SQL text (``"rhs"``): another column, a DECIMAL or a DOUBLE literal.
    where: dict | None = None
    distinct: bool = False
    #: ORDER BY keys as ``[column, ascending]`` pairs.
    order_cols: list[list] = field(default_factory=list)
    #: True when the generator knows the order keys are unique per output
    #: row (e.g. a primary key carried 1:1 through augmentation joins) —
    #: the ordered result is then deterministic even without covering
    #: every output column.
    order_unique: bool = False
    limit: int | None = None
    offset: int = 0

    # -- rendering -----------------------------------------------------------

    def output_names(self) -> list[str]:
        names = list(self.columns)
        if self.agg is not None:
            names.append(self.agg["alias"])
        return names

    def _select_list(self) -> str:
        items = list(self.columns)
        if self.agg is not None:
            fn, col, alias = self.agg["fn"], self.agg.get("col"), self.agg["alias"]
            call = "count(*)" if fn == "count_star" else f"{fn}({col})"
            items.append(f"{call} as {alias}")
        return ", ".join(items) if items else "*"

    def _where_clause(self) -> str:
        if self.where is None:
            return ""
        clause = f" where {_predicate_sql(self.where)}"
        if "and" in self.where:
            clause += f" and {_predicate_sql(self.where['and'])}"
        return clause

    def where_shapes(self) -> set[str]:
        """Which composite predicate shapes the WHERE clause carries:
        ``dac`` (``col = c or col is null``) and ``and`` (two conjuncts)."""
        shapes = set()
        if self.where is None:
            return shapes
        if "and" in self.where:
            shapes.add("and")
        for pred in (self.where, self.where.get("and")):
            if pred is not None and pred["op"] == "= or is null":
                shapes.add("dac")
        return shapes

    def sql(self, limited: bool = True, ordered: bool = True) -> str:
        parts = ["select "]
        if self.distinct:
            parts.append("distinct ")
        parts.append(self._select_list())
        parts.append(f" from {self.source}")
        parts.append(self._where_clause())
        if self.group_by:
            parts.append(" group by " + ", ".join(self.group_by))
        if ordered and self.order_cols:
            keys = ", ".join(
                f"{col}{'' if asc else ' desc'}" for col, asc in self.order_cols
            )
            parts.append(f" order by {keys}")
        if limited and self.limit is not None:
            parts.append(f" limit {self.limit}")
            if self.offset:
                parts.append(f" offset {self.offset}")
        return "".join(parts)

    def count_sql(self) -> str:
        """COUNT(*) over the unlimited, unordered body (derived table)."""
        return f"select count(*) from ({self.sql(limited=False, ordered=False)}) fz"


def _predicate_sql(pred: dict) -> str:
    col, op = pred["col"], pred["op"]
    if op in ("is null", "is not null"):
        return f"{col} {op}"
    value = pred.get("value")
    if "rhs" in pred:
        literal = pred["rhs"]
    elif value is None:
        literal = "null"
    elif isinstance(value, str):
        escaped = value.replace("'", "''")
        literal = f"'{escaped}'"
    else:
        literal = str(value)
    if op == "= or is null":
        return f"({col} = {literal} or {col} is null)"
    return f"{col} {op} {literal}"


@dataclass
class Case:
    """A complete replayable workload: schema + data + view stack + query."""

    seed: int
    tables: list[TableSpec]
    views: list[str]
    query: QuerySpec
    targets: tuple[str, ...] = ()
    profile: str = "hana"
    note: str = ""

    FORMAT = 1

    def build(
        self, batch_size: int = 1024, profile: str | None = None,
        vectorized: bool = True, plan_cache_size: int = 128,
    ) -> Database:
        """A fresh database loaded with this case's schema, rows, and views."""
        db = Database(
            profile=profile or self.profile, wal_enabled=False,
            batch_size=batch_size, vectorized=vectorized,
            plan_cache_size=plan_cache_size,
        )
        for table in self.tables:
            db.execute(table.sql)
            if table.rows:
                db.bulk_load(table.name, table.rows)
        for view_sql in self.views:
            db.execute(view_sql)
        return db

    def sql(self, **kwargs) -> str:
        return self.query.sql(**kwargs)

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "format": self.FORMAT,
            "seed": self.seed,
            "profile": self.profile,
            "targets": list(self.targets),
            "note": self.note,
            "tables": [asdict(t) for t in self.tables],
            "views": list(self.views),
            "query": asdict(self.query),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Case":
        if data.get("format") != cls.FORMAT:
            raise ValueError(
                f"unsupported corpus format {data.get('format')!r} "
                f"(expected {cls.FORMAT})"
            )
        return cls(
            seed=data.get("seed", 0),
            tables=[TableSpec(**t) for t in data["tables"]],
            views=list(data["views"]),
            query=QuerySpec(**data["query"]),
            targets=tuple(data.get("targets", ())),
            profile=data.get("profile", "hana"),
            note=data.get("note", ""),
        )


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------


@dataclass
class _Relation:
    """What the query generator may do with one relation of the stack."""

    name: str
    anchor_cols: list[str]          # columns the query may use freely
    aug_cols: list[str]             # augmenter columns (UAJ bias excludes them)
    int_cols: set[str]              # exact numbers: INT and DECIMAL
    nullable_cols: set[str]
    unique_col: str | None          # a column unique per output row, if any
    #: DOUBLE columns: compared like ``int_cols``, never summed (a float
    #: sum depends on the order rows arrive in).
    real_cols: set[str] = field(default_factory=set)


_TAGS = ["t0", "t1", "t2", "t3", "t4"]
#: DECIMAL cells and DOUBLE cells: equal pairs exist (``'2.50'`` and
#: ``2.5``), and ``'0.10'`` meets ``0.1`` only as DOUBLE.
_AMOUNTS = ["0.10", "0.25", "1.10", "2.50", "3.00", "7.75"]
_RATES = [0.1, 0.25, 1.0, 2.5, 3.0, 12.0]


class WorkloadGenerator:
    """Deterministic per-(seed, index) case factory."""

    def __init__(self, seed: int = 0, profile: str = "hana"):
        self.seed = seed
        self.profile = profile

    def case(self, index: int) -> Case:
        # String seeding is PYTHONHASHSEED-independent (sha512-based), so a
        # (seed, index) pair always regenerates the same case.
        rng = random.Random(f"repro-fuzz:{self.seed}:{index}")
        target = rng.choice(TARGETS)
        return self._build_case(rng, target, index)

    def cases(self, count: int):
        for index in range(count):
            yield self.case(index)

    # -- schema --------------------------------------------------------------

    def _anchor_table(self, rng: random.Random, dim_n: int) -> TableSpec:
        n = rng.randint(12, 45)
        rows = []
        for i in range(n):
            rows.append(
                [
                    i,                                               # id (pk)
                    rng.randrange(dim_n + 3),                        # k1, some miss
                    None if rng.random() < 0.25 else rng.randrange(dim_n + 3),
                    rng.randrange(5),                                # grp
                    None if rng.random() < 0.15 else rng.randrange(25),
                    None if rng.random() < 0.2 else rng.choice(_TAGS),
                    None if rng.random() < 0.15 else rng.choice(_AMOUNTS),
                    None if rng.random() < 0.15 else rng.choice(_RATES),
                ]
            )
        return TableSpec(
            "fct",
            "create table fct (id int primary key, k1 int not null, k2 int, "
            "grp int not null, val int, tag varchar(8), amt decimal(12,2), "
            "rate double)",
            rows,
        )

    def _dim_table(self, rng: random.Random, name: str, dim_n: int) -> TableSpec:
        rows = [
            [
                k,
                None if rng.random() < 0.1 else rng.randrange(50),
                None if rng.random() < 0.2 else rng.choice(_TAGS),
                rng.choice(_AMOUNTS),
                rng.choice(_RATES),
            ]
            for k in range(dim_n)
        ]
        return TableSpec(
            name,
            f"create table {name} (k int primary key, d_val int, d_tag varchar(8), "
            "d_amt decimal(12,2), d_rate double)",
            rows,
        )

    def _draft_pair(self, rng: random.Random) -> list[TableSpec]:
        active_n = rng.randint(5, 18)
        draft_n = rng.randint(0, 6)
        make = lambda key: [  # noqa: E731 — tiny row factory
            key,
            None if rng.random() < 0.15 else rng.randrange(30),
            rng.randrange(100),
        ]
        return [
            TableSpec(
                "act",
                "create table act (key int primary key, a int, ext int)",
                [make(k) for k in range(active_n)],
            ),
            TableSpec(
                "drf",
                "create table drf (key int primary key, a int, ext int)",
                [make(k) for k in range(active_n, active_n + draft_n)],
            ),
        ]

    # -- view stacks ---------------------------------------------------------

    def _build_case(self, rng: random.Random, target: str, index: int) -> Case:
        dim_n = rng.randint(6, 14)
        tables = [self._anchor_table(rng, dim_n)]
        views: list[str] = []

        # Layer 0 of every stack: a plain projection view over the anchor
        # (VDM interface view), occasionally with its own restriction.
        base_where = " where grp < 4" if rng.random() < 0.3 else ""
        views.append(
            "create view b0 as select id, k1, k2, grp, val, tag, amt, rate from fct"
            + base_where
        )

        if target in ("uaj", "limit_aj"):
            tables.append(self._dim_table(rng, "dim1", dim_n))
            relation = self._stack_uaj(rng, views)
        elif target == "union_uaj":
            relation = self._stack_union_uaj(rng, views)
        elif target == "asj":
            relation = self._stack_asj(rng, views)
        elif target == "asj_union":
            tables.extend(self._draft_pair(rng))
            relation = self._stack_asj_union(rng, views)
        elif target == "limit_union":
            relation = self._stack_union_view(rng, views)
        else:  # mixed: random stack, query anywhere
            tables.append(self._dim_table(rng, "dim1", dim_n))
            relation = self._stack_mixed(rng, views)

        query = self._gen_query(rng, relation, target)
        targets = () if target == "mixed" else (target,)
        return Case(
            seed=self.seed,
            tables=tables,
            views=views,
            query=query,
            targets=targets,
            profile=self.profile,
            note=f"generated case {index} (target: {target})",
        )

    def _stack_uaj(self, rng: random.Random, views: list[str]) -> _Relation:
        """Augmentation join on a unique (and sometimes declared ``..1``)
        augmenter — the Fig. 5 shape."""
        join_kw = rng.choice(["left outer join", "left outer many to one join"])
        views.append(
            f"create view av as select b.id, b.grp, b.val, b.tag, "
            f"d.d_val as d_val, d.d_tag as d_tag "
            f"from b0 b {join_kw} dim1 d on b.k1 = d.k"
        )
        return _Relation(
            name="av",
            anchor_cols=["id", "grp", "val", "tag"],
            aug_cols=["d_val", "d_tag"],
            int_cols={"id", "grp", "val", "d_val"},
            nullable_cols={"val", "tag", "d_val", "d_tag"},
            unique_col="id",
        )

    def _stack_union_uaj(self, rng: random.Random, views: list[str]) -> _Relation:
        """Augmenter is a Union All with provably disjoint branches
        (Table 4: unique-through-union via disjoint subsets)."""
        split = rng.randint(1, 4)
        views.append(
            f"create view uu as select o.id, o.grp, o.val, u.val as u_val "
            f"from b0 o left outer join "
            f"(select id, val from fct where grp < {split} "
            f"union all select id, val from fct where grp >= {split}) u "
            f"on o.id = u.id"
        )
        return _Relation(
            name="uu",
            anchor_cols=["id", "grp", "val"],
            aug_cols=["u_val"],
            int_cols={"id", "grp", "val", "u_val"},
            nullable_cols={"val", "u_val"},
            unique_col="id",
        )

    def _stack_asj(self, rng: random.Random, views: list[str]) -> _Relation:
        """Custom-field extension (Fig. 8b): a stable view projecting the
        key, extended by an augmentation self-join back to the base table."""
        stable_where = " where val is not null" if rng.random() < 0.3 else ""
        views.append("create view s0 as select id, grp, val from b0" + stable_where)
        views.append(
            "create view e0 as select v.id, v.grp, v.val, "
            "x.tag as ext_tag, x.k1 as ext_k1 "
            "from s0 v left outer join fct x on v.id = x.id"
        )
        return _Relation(
            name="e0",
            anchor_cols=["id", "grp", "val"],
            aug_cols=["ext_tag", "ext_k1"],
            int_cols={"id", "grp", "val", "ext_k1"},
            nullable_cols={"val", "ext_tag"},
            unique_col="id",
        )

    def _stack_asj_union(self, rng: random.Random, views: list[str]) -> _Relation:
        """Draft-pattern extension (Fig. 13b): branch-id-tagged Union All on
        both sides of a declared-intent CASE JOIN."""
        views.append(
            "create view d0 as select 1 as bid, key, a from act "
            "union all select 2 as bid, key, a from drf"
        )
        views.append(
            "create view e1 as select v.bid, v.key, v.a, x.ext as ext "
            "from d0 v case join "
            "(select 1 as bidu, key, ext from act "
            "union all select 2 as bidu, key, ext from drf) x "
            "on v.bid = x.bidu and v.key = x.key"
        )
        return _Relation(
            name="e1",
            anchor_cols=["bid", "key", "a"],
            aug_cols=["ext"],
            int_cols={"bid", "key", "a", "ext"},
            nullable_cols={"a"},
            unique_col="key",
        )

    def _stack_union_view(self, rng: random.Random, views: list[str]) -> _Relation:
        """Its ``val`` branches may differ in numeric kind: the binder casts
        each to the unified type."""
        split = rng.randint(1, 4)
        low, high = (rng.choice(["val", "amt", "rate"]) for _ in range(2))
        views.append(
            f"create view uv as "
            f"select id, {low} as val from fct where grp < {split} "
            f"union all select id, {high} as val from fct where grp >= {split}"
        )
        return _Relation(
            name="uv",
            anchor_cols=["id", "val"],
            aug_cols=[],
            int_cols={"id", "val"},
            nullable_cols={"val"},
            unique_col="id",
        )

    def _stack_mixed(self, rng: random.Random, views: list[str]) -> _Relation:
        """An arbitrary multi-layer stack; the query may land anywhere."""
        roll = rng.random()
        if roll < 0.4:
            relation = self._stack_uaj(rng, views)
            # Query may use every column, augmenter included.
            relation = replace(
                relation,
                anchor_cols=relation.anchor_cols + relation.aug_cols,
                aug_cols=[],
            )
        elif roll < 0.6:
            relation = self._stack_asj(rng, views)
            relation = replace(
                relation,
                anchor_cols=relation.anchor_cols + relation.aug_cols,
                aug_cols=[],
            )
        elif roll < 0.7:
            relation = _Relation(
                name=rng.choice(["b0", "fct"]),
                anchor_cols=["id", "k1", "k2", "grp", "val", "tag", "amt", "rate"],
                aug_cols=[],
                int_cols={"id", "k1", "k2", "grp", "val", "amt"},
                nullable_cols={"k2", "val", "tag", "amt", "rate"},
                unique_col="id",
                real_cols={"rate"},
            )
        elif roll < 0.85:
            # COALESCE is DOUBLE (amt cast); CASE is DECIMAL (val cast).
            views.append(
                "create view nc as select id, grp, val, amt, rate, "
                "coalesce(amt, rate) as c_num, "
                "case when grp < 2 then amt else val end as k_num from b0"
            )
            relation = _Relation(
                name="nc",
                anchor_cols=["id", "grp", "val", "amt", "rate", "c_num", "k_num"],
                aug_cols=[],
                int_cols={"id", "grp", "val", "amt", "k_num"},
                nullable_cols={"val", "amt", "rate", "c_num", "k_num"},
                unique_col="id",
                real_cols={"rate", "c_num"},
            )
        else:
            # A mixed-numeric join key; the dimension side is not unique.
            left, right = rng.choice(
                [("amt", "d_rate"), ("rate", "d_amt"), ("val", "d_amt"), ("amt", "d_amt")]
            )
            views.append(
                "create view nj as select b.id, b.amt, b.rate, d.d_val, d.d_tag "
                f"from b0 b left outer join dim1 d on b.{left} = d.{right}"
            )
            relation = _Relation(
                name="nj",
                anchor_cols=["id", "amt", "rate", "d_val", "d_tag"],
                aug_cols=[],
                int_cols={"id", "amt", "d_val"},
                nullable_cols={"amt", "rate", "d_val", "d_tag"},
                unique_col=None,
                real_cols={"rate"},
            )
        return relation

    # -- queries -------------------------------------------------------------

    def _gen_where(self, rng: random.Random, relation: _Relation,
                   allowed: list[str]) -> dict | None:
        if not allowed or rng.random() < 0.45:
            return None
        where = self._gen_predicate(rng, relation, allowed)
        if rng.random() < 0.3:
            where["and"] = self._gen_predicate(rng, relation, allowed)
        return where

    def _gen_predicate(self, rng: random.Random, relation: _Relation,
                       allowed: list[str]) -> dict:
        # The DAC shape lands on the coded, nullable tag columns: ``tag``
        # and the left-outer-joined augmenter columns ``d_tag``/``ext_tag``.
        numeric = relation.int_cols | relation.real_cols
        tags = [c for c in allowed
                if c in relation.nullable_cols and c not in numeric]
        if tags and rng.random() < 0.5:
            return {"col": rng.choice(tags), "op": "= or is null",
                    "value": rng.choice(_TAGS)}
        col = rng.choice(allowed)
        if col in numeric:
            op = rng.choice(["=", "<", "<=", ">", ">=", "<>"])
            if rng.random() < 0.5:
                return {"col": col, "op": op, "value": rng.randrange(30)}
            others = [c for c in allowed if c in numeric and c != col]
            rhs = rng.choice(others + _AMOUNTS + [f"{r}e0" for r in _RATES])
            return {"col": col, "op": op, "rhs": rhs}
        if col in relation.nullable_cols and rng.random() < 0.4:
            return {"col": col, "op": rng.choice(["is null", "is not null"]),
                    "value": None}
        return {"col": col, "op": rng.choice(["=", "<>"]),
                "value": rng.choice(_TAGS)}

    def _gen_query(self, rng: random.Random, relation: _Relation,
                   target: str) -> QuerySpec:
        anchor = relation.anchor_cols
        if target in ("uaj", "union_uaj"):
            return self._query_anchor_only(rng, relation)
        if target in ("asj", "asj_union"):
            return self._query_uses_augmenter(rng, relation, paging=False)
        if target == "limit_aj":
            return self._query_uses_augmenter(rng, relation, paging=True)
        if target == "limit_union":
            return QuerySpec(
                source=relation.name,
                columns=list(anchor),
                limit=rng.randint(1, 12),
                offset=rng.choice([0, 0, 0, rng.randint(1, 5)]),
            )
        return self._query_mixed(rng, relation)

    def _query_anchor_only(self, rng: random.Random,
                           relation: _Relation) -> QuerySpec:
        """Never touch an augmenter column: the join must be eliminated."""
        anchor = relation.anchor_cols
        where = self._gen_where(rng, relation, anchor)
        roll = rng.random()
        if roll < 0.2:  # global aggregate: COUNT(*) prunes everything
            fn = rng.choice(["count_star", "count", "sum", "min", "max"])
            col = None if fn == "count_star" else rng.choice(
                [c for c in anchor if c in relation.int_cols]
            )
            return QuerySpec(
                source=relation.name,
                agg={"fn": fn, "col": col, "alias": "agg0"},
                where=where,
            )
        if roll < 0.4 and "grp" in anchor:
            return self._grouped_aggregate(rng, relation, where)
        columns = [c for c in anchor if rng.random() < 0.7] or [anchor[0]]
        spec = QuerySpec(
            source=relation.name,
            columns=columns,
            where=where,
            distinct=rng.random() < 0.2,
        )
        self._maybe_order_and_limit(rng, spec, relation)
        return spec

    def _query_uses_augmenter(self, rng: random.Random, relation: _Relation,
                              paging: bool) -> QuerySpec:
        """At least one augmenter column in the select list: the join
        survives, and the rewrite under test must still preserve results."""
        aug_pick = [c for c in relation.aug_cols if rng.random() < 0.6]
        if not aug_pick:
            aug_pick = [rng.choice(relation.aug_cols)]
        columns = [c for c in relation.anchor_cols if rng.random() < 0.6]
        if relation.unique_col and relation.unique_col not in columns:
            columns.insert(0, relation.unique_col)
        columns += aug_pick
        allowed = list(relation.anchor_cols)
        if not paging:
            # A filter above the join on a coded augmenter column (the
            # paper's DAC restriction); paging keeps it off so the limit
            # still pushes below the join.
            allowed += [c for c in relation.aug_cols if c not in relation.int_cols]
        where = self._gen_where(rng, relation, allowed)
        spec = QuerySpec(source=relation.name, columns=columns, where=where)
        if paging:
            spec.limit = rng.randint(1, 12)
            spec.offset = rng.choice([0, 0, rng.randint(1, 5)])
            if rng.random() < 0.5 and relation.unique_col in columns:
                # Top-N pushdown: sort keys all from the anchor, unique.
                spec.order_cols = [[relation.unique_col, rng.random() < 0.8]]
                spec.order_unique = True
        else:
            self._maybe_order_and_limit(rng, spec, relation)
        return spec

    def _query_mixed(self, rng: random.Random, relation: _Relation) -> QuerySpec:
        anchor = relation.anchor_cols
        where = self._gen_where(rng, relation, anchor)
        roll = rng.random()
        if roll < 0.15:
            fn = rng.choice(["count_star", "count", "sum", "min", "max"])
            col = None if fn == "count_star" else rng.choice(
                [c for c in anchor if c in relation.int_cols]
            )
            return QuerySpec(
                source=relation.name,
                agg={"fn": fn, "col": col, "alias": "agg0"},
                where=where,
            )
        if roll < 0.3 and "grp" in anchor:
            return self._grouped_aggregate(rng, relation, where)
        columns = [c for c in anchor if rng.random() < 0.6] or [rng.choice(anchor)]
        spec = QuerySpec(
            source=relation.name,
            columns=columns,
            where=where,
            distinct=rng.random() < 0.25,
        )
        self._maybe_order_and_limit(rng, spec, relation)
        return spec

    def _grouped_aggregate(self, rng: random.Random, relation: _Relation,
                           where: dict | None) -> QuerySpec:
        """GROUP BY the int ``grp``, the dictionary-coded nullable ``tag``
        or both, ordered on the group keys (one output row per key)."""
        anchor = relation.anchor_cols
        keys = ["grp"]
        if "tag" in anchor:
            keys = rng.choice([["grp"], ["tag"], ["grp", "tag"]])
        fn = rng.choice(["count_star", "count", "sum", "min", "max"])
        col = None if fn == "count_star" else rng.choice([
            c for c in anchor if c in relation.int_cols or fn != "sum"
        ])
        return QuerySpec(
            source=relation.name,
            columns=list(keys),
            agg={"fn": fn, "col": col, "alias": "agg0"},
            group_by=list(keys),
            where=where,
            order_cols=[[key, rng.random() < 0.8] for key in keys],
            order_unique=True,
        )

    def _maybe_order_and_limit(self, rng: random.Random, spec: QuerySpec,
                               relation: _Relation) -> None:
        """Attach ORDER BY / LIMIT so limited results stay deterministic:
        either the order covers every output column, or it starts with a
        column the generator knows is unique per output row."""
        roll = rng.random()
        if roll < 0.35:
            spec.order_cols = [[c, rng.random() < 0.75] for c in spec.columns]
        elif roll < 0.55 and relation.unique_col in spec.columns and not spec.distinct:
            spec.order_cols = [[relation.unique_col, rng.random() < 0.75]]
            spec.order_unique = True
        if rng.random() < 0.4:
            spec.limit = rng.randint(1, 15)
            spec.offset = rng.choice([0, 0, 0, rng.randint(1, 4)])
