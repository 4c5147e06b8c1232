"""End-to-end trace propagation: sessions, coalescing, failure attribution.

These tests pin the structural guarantees of the query-trace subsystem:

* gather branches become sibling ``branch`` spans under one ``gather`` root,
* duplicate point reads coalesced inside a gather window show up as a
  *single* RPC span with one logical read per requesting branch (a
  ``logical-op`` span to every reader), and a range scanned again inside
  the window is one ``coalesced`` leaf span on the later branch,
* LAZY and PARALLEL execution of the same query differ visibly in the
  trace (round structure and simulated latency),
* work a write *triggers* — hinted handoff, read repair, view-maintenance
  deltas — is attributed to the triggering operation's span tree,
* ``EXPLAIN ANALYZE`` renders per-operator observed operations, the static
  bound slice, and (with a trained model) predicted-vs-observed latency.
"""

from __future__ import annotations

import pytest

from repro import ClusterConfig, PiqlDatabase
from repro.execution.context import ExecutionStrategy
from repro.kvstore.cluster import KeyValueCluster
from repro.obs.criticalpath import analyze_trace
from repro.obs.explain import render_span_tree
from repro.prediction.model import QueryLatencyModel
from repro.prediction.training import OperatorModelTrainer, TrainingConfig
from repro.workloads.scadr.queries import QUERIES as SCADR_PAGE
from repro.workloads.tpcw.queries import NEW_PRODUCTS_WI
from repro.workloads.tpcw.schema import TPCW_DDL

USERS_BY_NAME = "SELECT * FROM users WHERE username = <u>"
RECENT_THOUGHTS = (
    "SELECT * FROM thoughts WHERE owner = <u> ORDER BY timestamp DESC LIMIT 10"
)

TINY_TRAINING = TrainingConfig(
    alphas=(1, 10, 100),
    join_cardinalities=(1, 10),
    tuple_sizes=(40,),
    intervals=1,
    samples_per_interval=3,
    oversample_factor=10,
    max_samples_per_interval=30,
)

SALES_DDL = """
CREATE TABLE sales (
    sale_id INT, shop VARCHAR(16), product VARCHAR(16), amount INT,
    PRIMARY KEY (sale_id)
)
"""

SALES_VIEW = """
CREATE MATERIALIZED VIEW product_totals AS
SELECT shop, product, SUM(amount) AS total
FROM sales
GROUP BY shop, product
ORDER BY total DESC LIMIT 3
"""


def quorum_db(seed: int = 31) -> PiqlDatabase:
    """3 nodes, 3-fold replication, R=W=2: every node replicates every key."""
    db = PiqlDatabase.simulated(
        ClusterConfig(
            storage_nodes=3,
            replication=3,
            read_quorum=2,
            write_quorum=2,
            seed=seed,
        )
    )
    db.execute_ddl(SALES_DDL)
    return db


class TestGatherTracing:
    def test_branches_are_sibling_spans_under_one_gather_root(self, scadr_db):
        tracer = scadr_db.enable_tracing()
        session = scadr_db.session()
        f1 = session.submit(USERS_BY_NAME, u="alice")
        f2 = session.submit(RECENT_THOUGHTS, u="bob")
        session.gather(f1, f2)

        root = tracer.last_root()
        assert root is not None and root.kind == "gather"
        assert root.attributes["branches"] == 2
        branches = [child for child in root.children if child.kind == "branch"]
        assert len(branches) == 2
        assert {branch.attributes["label"] for branch in branches} == {
            f1.label, f2.label
        }
        # Every branch starts at the same simulated instant...
        assert all(branch.start == root.start for branch in branches)
        # ...and contains the nested query span it executed.
        for branch in branches:
            queries = branch.find("query")
            assert len(queries) == 1
            assert queries[0].attributes["rows"] >= 1
        # The gather charges the max of the branches, and the span shows it.
        assert root.duration == pytest.approx(
            max(branch.duration for branch in branches)
        )

    def test_coalesced_read_is_one_rpc_with_logical_children(self, scadr_db):
        tracer = scadr_db.enable_tracing()
        session = scadr_db.session()
        f1 = session.submit(USERS_BY_NAME, u="alice")
        f2 = session.submit(USERS_BY_NAME, u="alice")
        c1, c2 = session.gather(f1, f2)
        assert c1.rows == c2.rows

        root = tracer.last_root()
        shared = [
            span
            for span in root.walk()
            if span.kind == "rpc" and len(span.logical_reads or ()) >= 2
        ]
        # Exactly one physical fetch served both branches.
        assert len(shared) == 1
        rpc = shared[0]
        # Every reader sees the reads as logical-op spans under the RPC,
        # though the tracer holds them as tuples, not as children.
        assert not rpc.children
        logical = rpc.expanded_children()
        assert [child.kind for child in logical] == ["logical-op"] * 2
        assert [child.attributes["coalesced"] for child in logical] == [
            False, True
        ]
        assert (logical[0].start, logical[0].end) == (rpc.start, rpc.end)
        assert [span.kind for span in rpc.walk()] == [
            "rpc", "logical-op", "logical-op"
        ]
        # The client counted the saved read too.
        assert scadr_db.client.stats.coalesced_reads >= 1

    def test_a_shared_range_is_one_coalesced_span_on_the_later_branch(
        self, scadr_db
    ):
        # A SCADr home page: users_followed scans alice's subscriptions,
        # and thoughtstream's filtered scan of the same range is served
        # from that reply.
        tracer = scadr_db.enable_tracing()
        session = scadr_db.session()
        session.gather(*[
            session.submit(sql, uname="alice", label=name)
            for name, sql in SCADR_PAGE.items()
        ])
        branches = {
            branch.attributes["label"]: branch
            for branch in tracer.last_root().children
        }
        fetched = [
            span for span in branches["users_followed"].walk()
            if span.name == "get_range"
        ]
        waited = [
            span for span in branches["thoughtstream"].walk()
            if span.kind == "coalesced"
        ]
        assert [span.kind for span in fetched] == ["rpc"]
        assert [span.name for span in waited] == ["filtered_range"]
        rpc, wait = fetched[0], waited[0]
        assert not wait.children
        assert wait.attributes["namespace"] == rpc.attributes["namespace"]
        assert wait.attributes["keys"] == rpc.attributes["keys"]
        # thoughtstream asked at the gather's start and had its rows when
        # the users_followed reply arrived: the wait is that RPC's window.
        assert wait.duration > 0
        assert (wait.start, wait.end) == (rpc.start, rpc.end)
        # The critical path charges the wait to the storage tier.
        query = branches["thoughtstream"].find("query")[0]
        breakdown = analyze_trace(query)
        assert breakdown.segments["rpc_service"] >= wait.duration
        assert breakdown.segments["client_compute"] == pytest.approx(0.0)
        assert scadr_db.client.stats.coalesced_reads == 1

    def test_coalesced_reads_reported_on_client_stats(self, scadr_db):
        scadr_db.enable_tracing()
        session = scadr_db.session()
        futures = [
            session.submit(USERS_BY_NAME, u="alice") for _ in range(3)
        ]
        session.gather(*futures)
        assert scadr_db.client.stats.coalesced_reads >= 2


class TestStrategyTracing:
    def test_lazy_vs_parallel_round_structure(self, scadr_db, thoughtstream_sql):
        roots = {}
        for strategy in (ExecutionStrategy.PARALLEL, ExecutionStrategy.LAZY):
            view = scadr_db.new_client(strategy=strategy)
            tracer = view.enable_tracing()
            view.prepare(thoughtstream_sql).execute({"uname": "alice"})
            roots[strategy] = tracer.last_root()
        parallel_root = roots[ExecutionStrategy.PARALLEL]
        lazy_root = roots[ExecutionStrategy.LAZY]

        assert parallel_root.attributes["strategy"] == "parallel"
        assert lazy_root.attributes["strategy"] == "lazy"
        # Same logical work...
        assert lazy_root.attributes["rows"] == parallel_root.attributes["rows"]
        # ...but LAZY dereferences one row at a time: more physical round
        # trips, and the serial rounds are visible as a longer root span.
        assert len(lazy_root.find("rpc")) > len(parallel_root.find("rpc"))
        assert lazy_root.duration > parallel_root.duration

    def test_operator_spans_map_back_to_plan_nodes(self, scadr_db, thoughtstream_sql):
        tracer = scadr_db.enable_tracing()
        prepared = scadr_db.prepare(thoughtstream_sql)
        prepared.execute({"uname": "alice"})
        root = tracer.last_root()

        from repro.plans import physical as P

        plan_ids = {id(node) for node in P.walk(prepared.optimized.physical_plan)}
        operator_spans = root.find("operator")
        assert operator_spans
        for span in operator_spans:
            assert span.attributes["node_id"] in plan_ids


class TestWriteAttribution:
    def test_hinted_handoff_attributed_to_triggering_write(self):
        db = quorum_db()
        db.cluster.crash_node(0)
        tracer = db.enable_tracing()
        db.insert(
            "sales",
            {"sale_id": 1, "shop": "sf", "product": "apple", "amount": 5},
        )

        root = tracer.last_root()
        assert root is not None and root.kind == "write"
        assert root.attributes["operation"] == "insert"
        assert root.attributes["table"] == "sales"
        hinted = [
            span for span in root.find("rpc")
            if span.attributes.get("hinted", 0) > 0
        ]
        assert hinted, "the crashed replica's hints must appear in the trace"
        assert db.cluster.replication.hint_count(0) > 0

    def test_read_repair_attributed_to_triggering_read(self):
        db = quorum_db(seed=32)
        db.insert(
            "sales",
            {"sale_id": 1, "shop": "sf", "product": "apple", "amount": 5},
        )
        # Write while one replica is down, then bring it back WITHOUT the
        # recovery sync: it now holds a stale copy.
        db.cluster.crash_node(0)
        db.update(
            "sales",
            {"sale_id": 1, "shop": "sf", "product": "apple", "amount": 9},
        )
        db.cluster.node(0).mark_up()

        tracer = db.enable_tracing()
        repaired_spans = []
        for _ in range(12):
            result = db.execute("SELECT * FROM sales WHERE sale_id = <sid>", sid=1)
            assert result.rows[0]["amount"] == 9
            root = tracer.last_root()
            repaired_spans = [
                span for span in root.find("rpc")
                if span.attributes.get("repaired", 0) > 0
            ]
            if repaired_spans:
                break
        assert repaired_spans, "an R=2 read must eventually repair the stale copy"
        assert db.client.stats.metrics.value("client.read_repairs") > 0

    def test_view_maintenance_attributed_to_triggering_write(self):
        db = PiqlDatabase.simulated(ClusterConfig(storage_nodes=4, seed=5))
        db.execute_ddl(SALES_DDL)
        db.create_materialized_view(SALES_VIEW)

        tracer = db.enable_tracing()
        db.insert(
            "sales",
            {"sale_id": 1, "shop": "sf", "product": "apple", "amount": 5},
        )
        root = tracer.last_root()
        assert root.kind == "write" and root.attributes["operation"] == "insert"
        maintenance = root.find("view-maintenance")[0]
        assert maintenance.attributes["view"] == "product_totals"
        # The delta's physical writes nest under the maintenance span.
        assert maintenance.find("rpc")

        db.delete("sales", [1])
        root = tracer.last_root()
        assert root.attributes["operation"] == "delete"
        retraction = root.find("view-maintenance")[0]
        assert retraction.find("rpc")


    def test_a_batched_write_is_one_rpc_span_under_its_write(self):
        db = PiqlDatabase.simulated(ClusterConfig(storage_nodes=4, seed=5))
        db.execute_ddl(TPCW_DDL)
        tracer = db.enable_tracing()
        db.insert_many("order_line", [
            {"OL_O_ID": 1, "OL_ID": line, "OL_I_ID": line, "OL_QTY": 1,
             "OL_DISCOUNT": 0.0, "OL_COMMENT": ""}
            for line in (1, 2, 3)
        ], upsert=True)
        root = tracer.last_root()
        assert root.name == "insert order_line" and root.kind == "write"
        # The three rows are one write RPC, then one cardinality count of
        # their order.
        assert [(span.name, span.attributes["keys"]) for span in root.children] == [
            ("put_many", 3), ("count_range", 1),
        ]
        write = root.children[0]
        assert write.kind == "rpc" and write.attributes["rpcs"] == 1
        assert write.attributes["operations"] == 3

        db.insert_many("shopping_cart_line", [
            {"SCL_SC_ID": 7, "SCL_I_ID": item, "SCL_QTY": 1}
            for item in (1, 2, 3)
        ], upsert=True)
        db.delete_many("shopping_cart_line", [[7, 1], [7, 2], [7, 3]])
        root = tracer.last_root()
        assert root.name == "delete shopping_cart_line"
        # No index, no view: nothing is read, the delete is the whole write.
        [delete] = root.children
        assert (delete.name, delete.kind) == ("delete_many", "rpc")
        assert delete.attributes["keys"] == 3
        assert (delete.start, delete.end) == (root.start, root.end)
        breakdown = analyze_trace(root)
        assert breakdown.segments["rpc_service"] == pytest.approx(root.duration)
        assert breakdown.segments["client_compute"] == pytest.approx(0.0)


class TestExplainAnalyze:
    def test_multi_join_tpcw_query(self, loaded_tpcw):
        db, _ = loaded_tpcw
        text = db.explain_analyze(NEW_PRODUCTS_WI, {"subject": "COMPUTERS"})
        assert text.startswith("EXPLAIN ANALYZE")
        assert "(bound" in text, "a bounded query reports its static bound"
        annotated = [line for line in text.splitlines() if "ops=" in line]
        assert len(annotated) >= 2, "a join plan annotates several operators"
        assert any("bound<=" in line for line in annotated)
        assert all(" ms" in line for line in annotated)

    def test_latency_model_adds_predictions(self, loaded_tpcw):
        db, _ = loaded_tpcw
        cluster = KeyValueCluster(ClusterConfig(storage_nodes=4, seed=3))
        store = OperatorModelTrainer(cluster, TINY_TRAINING).train()
        model = QueryLatencyModel(store, db.catalog)
        text = db.explain_analyze(
            NEW_PRODUCTS_WI, {"subject": "COMPUTERS"}, latency_model=model
        )
        assert any("pred " in line for line in text.splitlines() if "ops=" in line)

    def test_tracer_state_is_restored(self, loaded_tpcw):
        db, _ = loaded_tpcw
        assert db.tracer is None
        db.explain_analyze(NEW_PRODUCTS_WI, {"subject": "COMPUTERS"})
        assert db.tracer is None, "explain must not leave tracing enabled"
        tracer = db.enable_tracing()
        try:
            db.explain_analyze(NEW_PRODUCTS_WI, {"subject": "COMPUTERS"})
            assert db.tracer is tracer
            assert tracer.last_root() is not None, "a retaining tracer keeps it"
        finally:
            db.client.tracer = None

    def test_render_span_tree(self, scadr_db, thoughtstream_sql):
        tracer = scadr_db.enable_tracing()
        scadr_db.execute(thoughtstream_sql, uname="alice")
        text = render_span_tree(tracer.last_root())
        lines = text.splitlines()
        assert lines[0].startswith("query [query]")
        assert any(line.lstrip() != line for line in lines), "children indent"
        assert any("[rpc]" in line for line in lines)
        assert any("[operator]" in line for line in lines)
