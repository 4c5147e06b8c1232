"""Tests for the runtime bound auditor."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro import ClusterConfig
from repro.errors import BoundViolationError
from repro.execution.context import ExecutionStrategy
from repro.kvstore.cluster import KeyValueCluster
from repro.obs.audit import MAX_EVENTS, AuditEvent, BoundAuditor
from repro.prediction.model import QueryLatencyModel
from repro.prediction.training import OperatorModelTrainer, TrainingConfig

THOUGHTSTREAM_SQL = """
SELECT t.*
FROM subscriptions s JOIN thoughts t
WHERE t.owner = s.target
  AND s.owner = <uname>
  AND s.approved = true
ORDER BY t.timestamp DESC
LIMIT 10
"""

TINY_TRAINING = TrainingConfig(
    alphas=(1, 10, 100),
    join_cardinalities=(1, 10),
    tuple_sizes=(40,),
    intervals=1,
    samples_per_interval=3,
    oversample_factor=10,
    max_samples_per_interval=30,
)


def unbounded_query(sql: str = "SELECT 1"):
    """A stand-in for a cost-based-baseline query with no static bound."""
    return SimpleNamespace(sql=sql, bound=None)


class TestObserveQuery:
    def test_within_bound_returns_none(self, scadr_db):
        auditor = BoundAuditor()
        query = scadr_db.prepare(THOUGHTSTREAM_SQL).optimized
        bound = query.bound.max_operations
        assert auditor.observe_query(query, bound, 0.01) is None
        assert auditor.audited == 1
        assert auditor.violations == 0

    def test_strict_mode_raises(self, scadr_db):
        auditor = BoundAuditor()
        assert auditor.mode == "strict"
        query = scadr_db.prepare(THOUGHTSTREAM_SQL).optimized
        bound = query.bound.max_operations
        with pytest.raises(BoundViolationError) as excinfo:
            auditor.observe_query(query, bound + 1, 0.01)
        assert str(excinfo.value).startswith("scale-independence violation")
        assert excinfo.value.observed_operations == bound + 1
        assert excinfo.value.bound_operations == bound
        # The event is recorded even though the call raised.
        assert auditor.violations == 1
        assert auditor.events[0].observed_operations == bound + 1

    def test_serving_mode_records_without_raising(self, scadr_db):
        auditor = BoundAuditor()
        auditor.mode = "serving"
        query = scadr_db.prepare(THOUGHTSTREAM_SQL).optimized
        bound = query.bound.max_operations
        event = auditor.observe_query(query, bound + 5, 0.02)
        assert isinstance(event, AuditEvent)
        assert auditor.events == [event]
        assert "bound violation" in event.describe()

    def test_unbounded_query_is_never_a_violation(self):
        auditor = BoundAuditor()
        assert auditor.observe_query(unbounded_query(), 10_000, 1.0) is None
        assert auditor.violations == 0

    def test_event_list_is_bounded(self):
        auditor = BoundAuditor()
        auditor.mode = "serving"
        query = SimpleNamespace(
            sql="SELECT 1", bound=SimpleNamespace(max_operations=1)
        )
        for _ in range(MAX_EVENTS + 6):
            auditor.observe_query(query, 2, 0.0)
        assert len(auditor.events) == MAX_EVENTS
        assert auditor.audited == MAX_EVENTS + 6

    def test_reset(self, scadr_db):
        auditor = BoundAuditor()
        auditor.mode = "serving"
        query = scadr_db.prepare(THOUGHTSTREAM_SQL).optimized
        auditor.observe_query(query, query.bound.max_operations + 1, 0.0)
        auditor.reset()
        assert auditor.audited == 0
        assert auditor.violations == 0


class TestExecutorIntegration:
    def test_every_execution_is_audited(self, scadr_db):
        before = scadr_db.auditor.audited
        scadr_db.execute(THOUGHTSTREAM_SQL, uname="alice")
        scadr_db.execute(THOUGHTSTREAM_SQL, uname="bob")
        assert scadr_db.auditor.audited == before + 2
        assert scadr_db.auditor.violations == 0

    def test_lazy_strategy_is_exempt(self, scadr_db):
        lazy = scadr_db.new_client(strategy=ExecutionStrategy.LAZY)
        prepared = lazy.prepare(THOUGHTSTREAM_SQL)
        before = scadr_db.auditor.audited
        prepared.execute({"uname": "alice"})
        assert scadr_db.auditor.audited == before

    def test_new_client_shares_the_auditor(self, scadr_db):
        clone = scadr_db.new_client()
        assert clone.auditor is scadr_db.auditor
        before = scadr_db.auditor.audited
        clone.execute(THOUGHTSTREAM_SQL, uname="alice")
        assert scadr_db.auditor.audited == before + 1

    def test_reset_measurements_resets_auditor(self, scadr_db):
        scadr_db.execute(THOUGHTSTREAM_SQL, uname="alice")
        scadr_db.reset_measurements()
        assert scadr_db.auditor.audited == 0


class TestSpanAnnotation:
    def test_bound_slices_cover_the_whole_bound(self, scadr_db):
        scadr_db.enable_tracing()
        scadr_db.execute(THOUGHTSTREAM_SQL, uname="alice")
        root = scadr_db.tracer.last_root()
        assert root is not None and root.kind == "query"
        # Annotation is on demand (EXPLAIN ANALYZE calls this internally).
        scadr_db.auditor.annotate_span(
            scadr_db.prepare(THOUGHTSTREAM_SQL).optimized, root
        )
        operator_spans = root.find("operator")
        assert operator_spans
        slices = [
            span.attributes["bound_slice"]
            for span in operator_spans
            if "bound_slice" in span.attributes
        ]
        bound = scadr_db.prepare(THOUGHTSTREAM_SQL).bound.max_operations
        # Per-operator slices telescope back to the root bound.
        assert sum(slices) == bound
        assert all(s >= 0 for s in slices)
        # Observed subtree operations respect each subtree's bound.
        for span in operator_spans:
            if "bound_subtree" in span.attributes:
                assert span.attributes["operations"] <= span.attributes["bound_subtree"]

    def test_latency_model_adds_residuals(self, scadr_db):
        cluster = KeyValueCluster(ClusterConfig(storage_nodes=4, seed=3))
        store = OperatorModelTrainer(cluster, TINY_TRAINING).train()
        model = QueryLatencyModel(store, scadr_db.catalog)
        auditor = BoundAuditor(latency_model=model)

        scadr_db.enable_tracing()
        scadr_db.execute(THOUGHTSTREAM_SQL, uname="alice")
        prepared = scadr_db.prepare(THOUGHTSTREAM_SQL)
        root = scadr_db.tracer.last_root()
        auditor.annotate_span(prepared.optimized, root)

        predicted = [
            span for span in root.find("operator")
            if "predicted_seconds" in span.attributes
        ]
        assert predicted
        for span in predicted:
            assert span.attributes["residual_seconds"] == (
                span.duration - span.attributes["predicted_seconds"]
            )
