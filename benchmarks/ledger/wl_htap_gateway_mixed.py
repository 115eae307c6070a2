"""``htap_gateway_mixed`` — transactions beside analytics, through HTTP.

Why it exists: it is the only workload with writes.  Client A (an
application server with a sticky session) commits seeded order-entry
transactions, point reads and status updates over a keep-alive connection
to an in-process ``GatewayServer`` on a durable WAL (``fsync="commit"``),
and merges the delta every few commits; client B loops two analytic joins
over the rows A is writing.  So ``storage`` is exercised with a live delta,
MVCC visibility and merges (``vdm_analytics`` only scans merged main
fragments), together with the whole ``serving`` path and the WAL.  A scan
optimisation that assumes merged fragments, or a write optimisation that
slows snapshot reads, shows here and nowhere else; both clients share the
GIL and the table locks, so freeing CPU in B's scans can lower A's latency
by more than B's own saving.

Two clients = ``nproc`` on the reference box.  Both are closed loops.

The run sets the interpreter's thread switch interval to 0.1 ms.  With
CPython's default of 5 ms each of a transaction's five requests waits out a
slice of B's query for the GIL, so A's latency measures the switch interval
and not the engine (19 ms per transaction against 9 ms, on one CPU), and on
two CPUs it was bimodal as well: whether A's I/O-bound threads or B's
CPU-bound thread win the wake-up race flipped with the load on the host
(18 ms or 160 ms per transaction).

A's mix is 70% transactions, 20% point reads, 10% status updates, exactly
so in every hundred operations (the seed sets their order), so the median
of A's operations falls inside the transaction class and the 95th
percentile inside the update class (a full scan today), not on a boundary.
"""

from __future__ import annotations

import contextlib
import gc
import http.client
import itertools
import json
import random
import shutil
import statistics
import sys
import tempfile
import threading
import time

from harness import (
    OUT_DIR, HostSpeed, Spans, calibration_ms, mean, median_ms, p95_ms, peak_rss_mb,
    storage_scan_rate,
)

from repro import Database
from repro.serving import GatewayServer

CUSTOMERS = 400
STATUSES = "NPS"
UPDATED = "U"  # a status no loaded row has: counts acknowledged updates
OLAP_ALL = ("select o.status, count(*), sum(l.qty) from orders o "
            "join lines l on l.oid = o.id group by o.status")
OLAP_CUST = ("select o.status, count(*), sum(l.qty) from orders o "
             "join lines l on l.oid = o.id where o.cust = {cust} "
             "group by o.status")
POINT_READ = "select id, cust, status, total from orders where id = {key}"
SWITCH_INTERVAL_S = 0.0001
#: Per-layer metrics of the staged single-statement pipeline, which this
#: workload does not replay (its statements go through HTTP): reported as
#: zero.
NOT_ENTERED = (
    "sql.lex_ms", "sql.tokens", "sql.shape_ms", "sql.parse_ms",
    "algebra.bind_ms", "algebra.operators_bound", "optimizer.optimize_ms",
    "optimizer.iterations", "optimizer.rewrite_fires",
    "optimizer.operators_after", "optimizer.physical_plan_ms",
    "cache.promote_ms", "cache.plan_hit_rate", "cache.plan_evictions",
    "cache.plan_entries", "engine.execute_ms", "engine.scan_self_ms",
    "engine.filter_project_self_ms", "engine.join_self_ms",
    "engine.aggregate_self_ms", "engine.sort_topn_self_ms",
    "engine.union_distinct_self_ms", "engine.kernel_ms",
    "engine.kernel_calls", "engine.rows_scanned", "engine.rows_out",
    "engine.rows_scanned_per_row_out", "engine.materialize_ms",
    "storage.main_bytes_per_user_byte",
    "observability.telemetry_overhead_frac", "bench.execute_share",
    "bench.planning_share",
)


def order_row(i: int) -> tuple:
    return (i, i % CUSTOMERS, STATUSES[i % 3], i * 7 % 1000)


class Client:
    """One keep-alive HTTP connection with a sticky session."""

    def __init__(self, port: int, spans: Spans | None = None) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        self.spans = spans
        self.requests = 0
        self.failed = 0
        #: (round trip s, server elapsed ms) of statements that report one.
        self.overheads: list[tuple[float, float]] = []
        self.session = self.post("/v1/session", {})["session"]

    def post(self, path: str, body: dict) -> dict:
        if self.spans is None:
            return self._post(path, body)
        with self.spans.span("serving.http_request") as span:
            return self._post(path, {**body, "_span": span.id})

    def _post(self, path: str, body: dict) -> dict:
        started = time.perf_counter()
        self.conn.request("POST", path, json.dumps(body),
                          {"Content-Type": "application/json"})
        response = self.conn.getresponse()
        data = json.loads(response.read())
        elapsed = time.perf_counter() - started
        self.requests += 1
        if response.status != 200 or not data.get("ok"):
            self.failed += 1
        elif "elapsed_ms" in data:
            self.overheads.append((elapsed, data["elapsed_ms"]))
        return data

    def sql(self, sql: str) -> dict:
        return self.post("/v1/query", {"sql": sql, "session": self.session})

    def close(self) -> None:
        self.conn.close()


def instrument_server(gateway, db, sessions, spans: Spans):
    """Wrap the serving path's public calls in spans, from the outside:
    ``GatewayServer.handle_query`` -> ``Session.execute`` ->
    ``Database.execute/query``.  Returns an undo function."""
    undo = []

    def wrap(owner, attribute: str, name: str, parent_of=None) -> None:
        inner = getattr(owner, attribute)

        def timed(*args, **kwargs):
            parent = parent_of(*args, **kwargs) if parent_of else None
            with spans.span(name, parent=parent):
                return inner(*args, **kwargs)

        setattr(owner, attribute, timed)
        undo.append(lambda: delattr(owner, attribute))

    wrap(gateway, "handle_query", "serving.handle_query",
         parent_of=lambda payload: payload.get("_span"))
    for session in sessions:
        wrap(session, "execute", "serving.session_execute")
    wrap(db, "execute", "database.execute")
    wrap(db, "query", "database.query")
    return lambda: [step() for step in undo]


class HtapGatewayMixed:
    name = "htap_gateway_mixed"
    sizes = {
        # ISSUE 11 asked for 50k/150k rows; at that size set-up and recovery
        # alone exceed the contract's time for a run.
        "full": {"orders": 20000, "merge_every": 40},
        "tiny": {"orders": 600, "merge_every": 5},
    }
    setup_repeats = 2

    # -- set-up ------------------------------------------------------------

    def build(self, wal_dir: str, sizes: dict):
        db = Database(wal_dir=wal_dir, fsync="commit")
        db.execute("create table orders (id int primary key, cust int not null, "
                   "status varchar(1) not null, total int not null)")
        db.execute("create table lines (id int primary key, oid int not null, "
                   "qty int not null, price int not null)")
        n = sizes["orders"]
        db.bulk_load("orders", [order_row(i) for i in range(n)])
        db.bulk_load("lines", [(i, i // 3, i % 9 + 1, i * 13 % 500)
                               for i in range(3 * n)])
        db.checkpoint()
        gateway = GatewayServer(db, port=0).start()
        return db, gateway

    def set_up(self, sizes: dict, cust: int, speed: HostSpeed):
        samples = []
        db = gateway = wal_dir = None
        for _ in range(self.setup_repeats):
            speed.sample(3)
            if db is not None:
                gateway.close()
                db.close()
                shutil.rmtree(wal_dir)
                db = gateway = None
                gc.collect()
            OUT_DIR.mkdir(parents=True, exist_ok=True)
            wal_dir = tempfile.mkdtemp(prefix="wal-", dir=OUT_DIR)
            started = time.perf_counter()
            db, gateway = self.build(wal_dir, sizes)
            warm = Client(gateway.port)
            for _ in range(3):
                warm.sql(OLAP_ALL)
                warm.sql(OLAP_CUST.format(cust=cust))
                warm.sql(POINT_READ.format(key=0))
            warm.close()
            samples.append(time.perf_counter() - started)
        speed.sample(3)
        return db, gateway, wal_dir, statistics.median(samples)

    # -- the closed loops ----------------------------------------------------

    def run(self, seed: int, seconds: float, scale: str, trace: bool) -> dict:
        sizes = self.sizes[scale]
        rng = random.Random(seed)
        cust = rng.randrange(CUSTOMERS)
        setup_speed = HostSpeed()
        db, gateway, wal_dir, setup_s = self.set_up(sizes, cust, setup_speed)
        default_interval = sys.getswitchinterval()
        sys.setswitchinterval(SWITCH_INTERVAL_S)
        try:
            try:
                loops = self._loops(db, gateway, sizes, rng, cust, seconds, trace)
            finally:
                sys.setswitchinterval(default_interval)
                gateway.close()
                db.close()
            outcome = self._score(loops, wal_dir, setup_s, sizes, seconds, trace)
            outcome["probe_ms"] = {"setup": setup_speed.probe_ms(),
                                   "run": loops["speed"].probe_ms()}
            return outcome
        finally:
            shutil.rmtree(wal_dir, ignore_errors=True)

    def _loops(self, db, gateway, sizes, rng, cust, seconds, trace) -> dict:
        n_orders = sizes["orders"]
        orders, lines = db.catalog.table("orders"), db.catalog.table("lines")
        base_all = _totals(db.query(OLAP_ALL).rows)
        base_cust = _totals(db.query(OLAP_CUST.format(cust=cust)).rows)
        wal_bytes0 = _wal_bytes(db)
        metrics0 = db.metrics.snapshot()
        gc.collect()
        gc.freeze()

        spans = Spans() if trace else None
        a, b = Client(gateway.port, spans), Client(gateway.port, spans)
        restore = (lambda: None)
        stop = threading.Event()
        traced_from = None  # perf_counter() when server spans went live
        state = {
            "acked": [], "updated": set(), "wrong": 0, "user_bytes": 0,
            "txn": [], "read": [], "update": [], "olap_all": [], "olap_cust": [],
            "merges": [], "delta_rows": [], "olap_spans": [], "errors": [],
        }

        def guarded(loop):
            def target() -> None:
                try:
                    loop()
                except Exception as exc:  # a dead client must fail the run
                    state["errors"].append(f"{loop.__name__}: {exc!r}")
            return target

        mix = ["transaction"] * 70 + ["read"] * 20 + ["update"] * 10
        rng.shuffle(mix)

        def client_a() -> None:
            next_order = n_orders
            for kind in itertools.cycle(mix):
                if stop.is_set():
                    break
                started = time.perf_counter()
                if kind == "transaction":
                    oid, c = next_order, rng.randrange(CUSTOMERS)
                    next_order += 1
                    statements = [
                        f"insert into orders values ({oid}, {c}, 'N', {oid % 1000})",
                        f"insert into lines values ({3 * n_orders + 2 * oid}, {oid}, 1, 5)",
                        f"insert into lines values ({3 * n_orders + 2 * oid + 1}, {oid}, 2, 5)",
                    ]
                    with _op(spans, "oltp.transaction"):
                        replies = [a.sql("begin")]
                        replies += [a.sql(s) for s in statements]
                        replies.append(a.sql("commit"))
                    state["txn"].append(time.perf_counter() - started)
                    if all(r.get("ok") for r in replies):
                        state["acked"].append(oid)
                        state["user_bytes"] += sum(
                            len(s) - s.index("(") for s in statements)
                        if len(state["acked"]) % sizes["merge_every"] == 0:
                            merge_started = time.perf_counter()
                            state["delta_rows"].append(
                                orders.delta_size + lines.delta_size)
                            with _op(spans, "storage.merge_all"):
                                db.merge_all()
                            state["merges"].append(
                                (merge_started, time.perf_counter()))
                elif kind == "read":
                    key = rng.randrange(n_orders)
                    with _op(spans, "oltp.point_read"):
                        reply = a.sql(POINT_READ.format(key=key))
                    state["read"].append(time.perf_counter() - started)
                    expected = order_row(key)
                    row = (reply.get("rows") or [[None] * 4])[0]
                    if [row[0], row[1], row[3]] != [expected[0], expected[1], expected[3]]:
                        state["wrong"] += 1
                else:
                    key = rng.randrange(n_orders)
                    with _op(spans, "oltp.status_update"):
                        reply = a.sql(f"update orders set status = '{UPDATED}' "
                                      f"where id = {key}")
                    state["update"].append(time.perf_counter() - started)
                    if reply.get("rows_affected") == 1:
                        state["updated"].add(key)
                    else:
                        state["wrong"] += 1

        def client_b() -> None:
            turn = 0
            while not stop.is_set():
                kind = "olap_all" if turn % 2 == 0 else "olap_cust"
                sql = OLAP_ALL if kind == "olap_all" else OLAP_CUST.format(cust=cust)
                started = time.perf_counter()
                with _op(spans, "olap.query"):
                    reply = b.sql(sql)
                ended = time.perf_counter()
                state[kind].append(ended - started)
                state["olap_spans"].append((started, ended))
                # Snapshot invariant: every new order has exactly two lines
                # with quantities 1 and 2, so a consistent snapshot adds an
                # even number of joined rows and 3 of quantity per 2 rows.
                base = base_all if kind == "olap_all" else base_cust
                count, qty = _totals(reply.get("rows") or [])
                d_count, d_qty = count - base[0], qty - base[1]
                if d_count < 0 or d_count % 2 or 2 * d_qty != 3 * d_count:
                    state["wrong"] += 1
                turn += 1

        threads = [threading.Thread(target=guarded(client_a), name="client-a"),
                   threading.Thread(target=guarded(client_b), name="client-b")]
        speed = HostSpeed()
        loop_started = time.perf_counter()
        for thread in threads:
            thread.start()
        if trace:
            # First half untraced on the server side, second half traced:
            # the difference in A's transaction time is the tracing overhead.
            time.sleep(seconds / 2)
            sessions = [gateway.serving.get_session(c.session) for c in (a, b)]
            restore = instrument_server(gateway, db, sessions, spans)
            traced_from = time.perf_counter()
            time.sleep(seconds / 2)
        else:
            # The box's speed while the clients run: the probe counts CPU
            # time, so its waits for the GIL are not in the reading.
            while time.perf_counter() - loop_started < seconds:
                time.sleep(0.5)
                speed.sample()
        stop.set()
        for thread in threads:
            thread.join(timeout=120)
        loop_s = time.perf_counter() - loop_started
        hung = [t.name for t in threads if t.is_alive()]
        restore()

        direct = self._direct_layer_times(db, gateway, n_orders, state) if trace else {}
        a.close()
        b.close()
        return {
            "state": state, "direct": direct, "spans": spans, "hung": hung,
            "speed": speed,
            "loop_s": loop_s, "traced_from": traced_from, "a": a, "b": b,
            "metrics0": metrics0, "metrics1": db.metrics.snapshot(),
            "wal_bytes": _wal_bytes(db) - wal_bytes0, "n_orders": n_orders,
        }

    def _score(self, loops, wal_dir, setup_s, sizes, seconds, trace) -> dict:
        state, direct, spans = loops["state"], loops["direct"], loops["spans"]
        a, b, n_orders = loops["a"], loops["b"], loops["n_orders"]
        # Durability: every acknowledged commit is readable after recovery
        # and nothing unacknowledged is (there is none: A waits for acks).
        started = time.perf_counter()
        recovered = Database.recover(wal_dir)
        recover_s = time.perf_counter() - started
        try:
            acked = set(state["acked"]) | set(direct.get("acked", ()))
            got = {row[0] for row in recovered.query(
                f"select id from orders where id >= {n_orders}").rows}
            new_lines = recovered.query(
                f"select count(*), sum(qty) from lines where id >= {3 * n_orders}"
            ).rows[0]
            updated = {row[0] for row in recovered.query(
                f"select id from orders where status = '{UPDATED}'").rows}
            lost = len(acked - got) + len(state["updated"] - updated)
            torn = len(got - acked) + len(updated - state["updated"])
            if new_lines[0] != 2 * len(got) or (new_lines[1] or 0) != 3 * len(got):
                torn += 1
        finally:
            recovered.close()

        oltp = state["txn"] + state["read"] + state["update"]
        requests = a.requests + b.requests
        failed = a.failed + b.failed + state["wrong"] + lost + torn
        problems = list(state["errors"])
        if loops["hung"]:
            problems.append(f"client threads did not stop: {loops['hung']}")
        if len(state["merges"]) < 5:
            problems.append(f"only {len(state['merges'])} merges, need >= 5")
        if len(state["txn"]) < 200 and seconds >= 10:
            problems.append(f"only {len(state['txn'])} transactions, need >= 200")
        if lost or torn:
            problems.append(f"recovery: {lost} acked writes lost, {torn} torn")
        detail = {
            "requests": requests, "transactions": len(state["txn"]),
            "reads": len(state["read"]), "updates": len(state["update"]),
            "olap_queries": len(state["olap_all"]) + len(state["olap_cust"]),
            "merges": len(state["merges"]), "recover_s": recover_s,
            "oltp_txn_p50_ms": median_ms(state["txn"]),
            "olap_query_p50_ms": median_ms(state["olap_all"] + state["olap_cust"]),
            "sizes": sizes,
        }
        if not trace:
            values = {
                "setup_s": setup_s,
                "throughput_ops_s": requests / loops["loop_s"],
                "latency_p50_ms": median_ms(oltp),
                "latency_p95_ms": p95_ms(oltp),
                "peak_rss_mb": peak_rss_mb(),
            }
        else:
            values = self._layer_values(
                spans, state, direct, loops["metrics0"], loops["metrics1"],
                loops["wal_bytes"], recover_s, loops["traced_from"], a, b)
            spans.dump(self.name)
        return {"values": values, "attempted": requests + 3, "failed": failed,
                "problems": problems, "detail": detail}

    # -- per-layer numbers (traced run only) ---------------------------------

    def _direct_layer_times(self, db, gateway, n_orders, state) -> dict:
        """Storage and session costs measured by calling the layers'
        public functions directly, after the closed loops have stopped."""
        insert, update, commit, acked = [], [], [], []
        first = 10 * n_orders  # ids no client used
        for i in range(50):
            oid = first + i
            txn = db.begin()
            started = time.perf_counter()
            db.execute(f"insert into orders values ({oid}, 1, 'N', 1)", txn)
            insert.append(time.perf_counter() - started)
            db.execute(f"insert into lines values ({3 * n_orders + 2 * oid}, {oid}, 1, 5)", txn)
            db.execute(f"insert into lines values ({3 * n_orders + 2 * oid + 1}, {oid}, 2, 5)", txn)
            started = time.perf_counter()
            db.commit(txn)
            commit.append(time.perf_counter() - started)
            acked.append(oid)
        for i in range(10):
            started = time.perf_counter()
            db.execute(f"update orders set status = '{UPDATED}' where id = {i}")
            update.append(time.perf_counter() - started)
            state["updated"].add(i)
        session = gateway.serving.session()
        sql = POINT_READ.format(key=7)
        via_session, direct = [], []
        for _ in range(200):
            started = time.perf_counter()
            session.execute(sql)
            via_session.append(time.perf_counter() - started)
            started = time.perf_counter()
            db.query(sql)
            direct.append(time.perf_counter() - started)
        session.close()
        return {
            "insert_ms": median_ms(insert), "update_ms": median_ms(update),
            "commit_ms": median_ms(commit), "acked": acked,
            "session_overhead_ms": median_ms(via_session) - median_ms(direct),
            # With a live delta; vdm_analytics reports the merged rate.
            "scan_rows_per_s": storage_scan_rate(db, "lines"),
        }

    def _layer_values(self, spans, state, direct, metrics0, metrics1,
                      wal_bytes, recover_s, traced_from, a, b) -> dict:
        def delta(name: str) -> float:
            return metrics1.get(name, 0) - metrics0.get(name, 0)

        wait0 = metrics0.get("serving.queue_wait_s") or {"sum": 0.0, "count": 0}
        wait1 = metrics1.get("serving.queue_wait_s") or {"sum": 0.0, "count": 0}
        waits = wait1["count"] - wait0["count"]
        merges = state["merges"]
        during, outside = [], []
        for started, ended in state["olap_spans"]:
            overlaps = any(s < ended and started < e for s, e in merges)
            (during if overlaps else outside).append(ended - started)
        overheads = a.overheads + b.overheads
        self_s = spans.self_times()
        roots = [name for name in self_s
                 if name.startswith(("oltp.", "olap.")) or name == "storage.merge_all"]
        root_self = sum(sum(self_s[n]) for n in roots)
        root_total = sum(sum(spans.durations(n)) for n in roots)
        # A's transactions before and after the server spans went live.
        cut = sum(1 for row in spans.rows
                  if row[3] == "oltp.transaction" and row[5] <= traced_from)
        before, after = state["txn"][:cut], state["txn"][cut:]
        values = {
            "htap.oltp_txn_p50_ms": median_ms(state["txn"]),
            "htap.olap_query_p50_ms": median_ms(
                state["olap_all"] + state["olap_cust"]),
            "htap.recover_s": recover_s,
            "htap.transactions": len(state["txn"]),
            "storage.insert_ms": direct["insert_ms"],
            "storage.update_ms": direct["update_ms"],
            "storage.commit_ms": direct["commit_ms"],
            "storage.merge_ms": mean([e - s for s, e in merges]) * 1e3,
            "storage.merges": len(merges),
            "storage.delta_rows_at_merge": mean(state["delta_rows"]),
            "storage.merge_stall_ms": (
                (mean(during) - mean(outside)) * 1e3 if during and outside else 0.0),
            "storage.wal_bytes_per_user_byte": (
                wal_bytes / state["user_bytes"] if state["user_bytes"] else 0.0),
            "storage.wal_fsyncs": delta("wal.fsyncs"),
            "storage.scan_rows_per_s": direct["scan_rows_per_s"],
            "serving.http_json_ms": mean(
                [rt * 1e3 - server_ms for rt, server_ms in overheads]),
            "serving.session_overhead_ms": direct["session_overhead_ms"],
            "serving.admission_wait_ms": (
                (wait1["sum"] - wait0["sum"]) / waits * 1e3 if waits else 0.0),
            "serving.shed": delta("serving.shed"),
            "serving.rate_limited": delta("serving.rate_limited"),
            "bench.unattributed_frac": root_self / root_total if root_total else 0.0,
            "bench.trace_overhead_frac": (
                median_ms(after) / median_ms(before) - 1.0
                if before and after else 0.0),
            "bench.calibration_ms": calibration_ms(),
            "bench.statement_ms": median_ms(
                state["txn"] + state["read"] + state["update"]),
            "bench.traced_statements": len(spans.durations("serving.handle_query")),
        }
        values.update(dict.fromkeys(NOT_ENTERED, 0.0))
        return values


def _op(spans: Spans | None, name: str):
    return spans.span(name) if spans is not None else contextlib.nullcontext()


def _totals(rows) -> tuple[int, int]:
    """(joined rows, quantity) summed over the status groups."""
    return sum(r[1] for r in rows), sum(int(r[2]) for r in rows)


def _wal_bytes(db) -> int:
    return sum(size or 0 for _, size, _, _ in db.wal.segment_info())
