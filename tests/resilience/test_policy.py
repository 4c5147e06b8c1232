"""ResiliencePolicy tests: retry discipline, deadlines, integration."""

from types import SimpleNamespace

import pytest

from repro.engine.database import PiqlDatabase
from repro.errors import (
    CircuitOpenError,
    PiqlError,
    QuorumNotMetError,
    RetryBudgetExhaustedError,
    UnavailableError,
)
from repro.kvstore.cluster import ClusterConfig
from repro.kvstore.simtime import SimClock
from repro.obs.metrics import MetricsRegistry
from repro.resilience.breaker import FAILURE_THRESHOLD
from repro.resilience.policy import ResilienceConfig, ResiliencePolicy


def fake_db(nodes: int = 3):
    """The minimal duck-typed database surface the policy touches."""
    return SimpleNamespace(
        client=SimpleNamespace(
            clock=SimClock(),
            stats=SimpleNamespace(metrics=MetricsRegistry()),
            tracer=None,
        ),
        auditor=SimpleNamespace(latency_model=None),
        cluster=SimpleNamespace(
            nodes=[SimpleNamespace(node_id=i) for i in range(nodes)]
        ),
    )


def flaky_fn(failures: int, exc: Exception = None):
    """Fails ``failures`` times, then returns "ok"."""
    state = {"calls": 0}

    def fn():
        state["calls"] += 1
        if state["calls"] <= failures:
            raise exc or UnavailableError("transient")
        return "ok"

    fn.state = state
    return fn


class TestRetryDiscipline:
    def test_success_needs_no_retry_and_advances_nothing(self):
        db = fake_db()
        policy = ResiliencePolicy(db)
        assert policy.run(lambda: "ok") == "ok"
        assert db.client.clock.now == 0.0
        assert db.client.stats.metrics.value("resilience.retries") == 0

    def test_retries_until_success_with_backoff_on_the_clock(self):
        db = fake_db()
        policy = ResiliencePolicy(db)  # the default: three attempts
        fn = flaky_fn(2)
        assert policy.run(fn) == "ok"
        assert fn.state["calls"] == 3
        assert db.client.clock.now > 0.0  # jittered backoff was slept
        metrics = db.client.stats.metrics
        assert metrics.value("resilience.retries") == 2
        assert metrics.value("resilience.failures") == 2

    def test_attempts_exhausted_reraises_last_error(self):
        db = fake_db()
        policy = ResiliencePolicy(db, ResilienceConfig(max_attempts=3))
        fn = flaky_fn(99)
        with pytest.raises(UnavailableError):
            policy.run(fn)
        assert fn.state["calls"] == 3

    def test_non_unavailable_errors_propagate_immediately(self):
        db = fake_db()
        policy = ResiliencePolicy(db, ResilienceConfig(max_attempts=5))
        fn = flaky_fn(99, exc=PiqlError("not transient"))
        with pytest.raises(PiqlError):
            policy.run(fn)
        assert fn.state["calls"] == 1

    def test_backoff_is_seed_deterministic(self):
        def total_sleep(seed):
            db = fake_db()
            policy = ResiliencePolicy(
                db, ResilienceConfig(max_attempts=6, seed=seed)
            )
            with pytest.raises(UnavailableError):
                policy.run(flaky_fn(99))
            return db.client.clock.now

        assert total_sleep(1) == total_sleep(1)
        assert total_sleep(1) != total_sleep(2)

    def test_naive_mode_retries_instantly(self):
        db = fake_db()
        policy = ResiliencePolicy(
            db, ResilienceConfig(max_attempts=4, naive=True)
        )
        fn = flaky_fn(3)
        assert policy.run(fn) == "ok"
        assert fn.state["calls"] == 4
        assert db.client.clock.now == 0.0  # no pacing at all
        assert db.client.stats.metrics.value("resilience.retries") == 3


class TestRetryBudget:
    def test_exhausted_budget_is_terminal(self):
        db = fake_db()
        policy = ResiliencePolicy(
            db,
            ResilienceConfig(
                max_attempts=10, budget_capacity=2.0,
                budget_refill_per_second=0.0,
            ),
        )
        fn = flaky_fn(99)
        with pytest.raises(RetryBudgetExhaustedError):
            policy.run(fn)
        # First try + two budgeted retries, then the bucket is dry.
        assert fn.state["calls"] == 3
        metrics = db.client.stats.metrics
        assert metrics.value("resilience.budget_exhausted") == 1

    def test_budget_errors_are_not_themselves_retried(self):
        db = fake_db()
        policy = ResiliencePolicy(
            db,
            ResilienceConfig(
                max_attempts=5, budget_capacity=1.0,
                budget_refill_per_second=0.0,
            ),
        )
        calls = {"n": 0}

        def fn():
            calls["n"] += 1
            raise UnavailableError("down")

        with pytest.raises(RetryBudgetExhaustedError):
            policy.run(fn)
        inner = calls["n"]
        with pytest.raises(RetryBudgetExhaustedError):
            policy.run(fn)
        # The second run fails on its first retry attempt (bucket empty),
        # so only one more underlying call plus the retry check happened.
        assert calls["n"] == inner + 1


class TestBreakers:
    def test_all_breakers_open_fails_fast(self):
        db = fake_db(nodes=2)
        policy = ResiliencePolicy(
            db,
            ResilienceConfig(breakers_enabled=True, max_attempts=5),
        )
        assert policy.board is not None
        for node_id in (0, 1):
            for _ in range(FAILURE_THRESHOLD):
                policy.board.record_failure(node_id, 0.0)
        with pytest.raises(CircuitOpenError) as excinfo:
            policy.run(lambda: "unreached")
        assert excinfo.value.open_nodes == [0, 1]
        metrics = db.client.stats.metrics
        assert metrics.value("resilience.breaker_fast_fails") == 1

    def test_naive_mode_disables_breakers(self):
        db = fake_db()
        policy = ResiliencePolicy(
            db, ResilienceConfig(breakers_enabled=True, naive=True)
        )
        assert policy.board is None


class TestDerivedDeadlines:
    def optimized(self):
        return SimpleNamespace(
            sql="SELECT x", physical_plan=None, operation_bound=5
        )

    def test_disabled_by_default(self):
        policy = ResiliencePolicy(fake_db())
        assert policy.timeout_for(self.optimized()) is None

    def test_static_defaults_without_a_model(self):
        policy = ResiliencePolicy(
            fake_db(), ResilienceConfig(derive_timeouts=True)
        )
        assert policy.timeout_for(self.optimized()) == pytest.approx(0.5)

    def test_model_envelope_times_multiplier_clamped(self):
        db = fake_db()
        db.auditor.latency_model = SimpleNamespace(
            predict_quantile=lambda plan, q: 0.1 if q == 0.99 else 0.05
        )
        policy = ResiliencePolicy(db, ResilienceConfig(derive_timeouts=True))
        optimized = self.optimized()
        # p99 * 3.0 = 0.3s, inside the clamp.
        assert policy.timeout_for(optimized) == pytest.approx(0.3)
        # A tiny envelope is clamped up to the floor, a huge one down.
        db.auditor.latency_model = SimpleNamespace(
            predict_quantile=lambda plan, q: 0.001
        )
        assert ResiliencePolicy(
            db, ResilienceConfig(derive_timeouts=True)
        ).timeout_for(optimized) == pytest.approx(0.02)
        db.auditor.latency_model = SimpleNamespace(
            predict_quantile=lambda plan, q: 10.0
        )
        assert ResiliencePolicy(
            db, ResilienceConfig(derive_timeouts=True)
        ).timeout_for(optimized) == pytest.approx(2.0)

    def test_untrained_model_falls_back_to_static(self):
        db = fake_db()

        def raises(plan, q):
            raise PiqlError("untrained")

        db.auditor.latency_model = SimpleNamespace(predict_quantile=raises)
        policy = ResiliencePolicy(db, ResilienceConfig(derive_timeouts=True))
        assert policy.timeout_for(self.optimized()) == pytest.approx(0.5)

    def test_envelope_is_cached_per_sql(self):
        db = fake_db()
        calls = {"n": 0}

        def counting(plan, q):
            calls["n"] += 1
            return 0.1

        db.auditor.latency_model = SimpleNamespace(predict_quantile=counting)
        policy = ResiliencePolicy(db, ResilienceConfig(derive_timeouts=True))
        policy.timeout_for(self.optimized())
        policy.timeout_for(self.optimized())
        assert calls["n"] == 1  # one quantile, one derivation


class TestDatabaseIntegration:
    def make_db(self, **kwargs):
        return PiqlDatabase.simulated(
            ClusterConfig(storage_nodes=3, seed=3), **kwargs
        )

    def test_policy_always_attached_false_rejected(self):
        assert self.make_db().resilience is not None
        # `resilience=False` used to build a view with no policy (and a
        # second, immediate retry loop in `execute`); a policy always exists
        # now, so the old spelling must fail loudly, not be coerced.
        for not_a_config in (False, True, "naive"):
            with pytest.raises(TypeError, match="ResilienceConfig"):
                self.make_db(resilience=not_a_config)
            with pytest.raises(TypeError, match="ResilienceConfig"):
                PiqlDatabase(resilience=not_a_config)

    def test_new_client_gets_its_own_policy(self):
        db = self.make_db(
            resilience=ResilienceConfig(breakers_enabled=True)
        )
        clone = db.new_client(clock=SimClock())
        assert clone.resilience is not None
        assert clone.resilience is not db.resilience
        assert clone.resilience.config == db.resilience.config
        # Per-client breaker boards: each app server observes alone.
        assert clone.resilience.board is not db.resilience.board
        assert clone.client.breakers is clone.resilience.board

    def test_healthy_queries_execute_identically_with_policy(self):
        ddl = "CREATE TABLE t (id INT, v INT, PRIMARY KEY (id))"
        sql = "SELECT * FROM t WHERE id = [1: id]"
        outcomes = []
        for through_policy in (True, False):
            db = self.make_db()
            db.execute_ddl(ddl)
            for index in range(5):
                db.insert("t", {"id": index, "v": index * 10})
            if through_policy:
                result = db.execute(sql, {"id": 3})
            else:
                # Around the funnel: the bare executor, no policy involved.
                result = db.executor.execute(
                    db.prepare(sql).optimized, {"id": 3}
                )
            outcomes.append(
                (result.rows, result.operations, result.latency_seconds)
            )
        # The default policy leaves the healthy path byte-identical.
        assert outcomes[0] == outcomes[1]

    def test_policy_funnel_is_used_for_query_pages(self):
        db = self.make_db()
        db.execute_ddl("CREATE TABLE t (id INT, v INT, PRIMARY KEY (id))")
        db.insert("t", {"id": 1, "v": 10})
        seen = []
        original = db.resilience.run

        def spy(fn, *args, operation="query"):
            seen.append(operation)
            return original(fn, *args, operation=operation)

        db.resilience.run = spy
        result = db.execute("SELECT * FROM t WHERE id = [1: id]", {"id": 1})
        assert result.rows == [{"id": 1, "v": 10}]
        assert len(seen) == 1

    def test_every_way_of_paging_runs_under_the_policy(self):
        """``PreparedQuery.pages`` used to call the executor around the
        policy: no deadline, and a transient failure ended the iteration."""
        sql = "SELECT * FROM t WHERE g = <g> ORDER BY id PAGINATE 3"

        def drain(pages_of):
            db = self.make_db(resilience=ResilienceConfig(derive_timeouts=True))
            db.execute_ddl("CREATE TABLE t (g INT, id INT, PRIMARY KEY (g, id))")
            for index in range(20):
                db.insert("t", {"g": 1, "id": index})
            execute = db.executor.execute
            deadlines = []

            def spy(*args, **kwargs):
                deadlines.append(db.client.rpc_timeout_seconds)
                if len(deadlines) == 3:  # page 3 meets one transient failure
                    raise QuorumNotMetError("read", "t", 2, 1)
                return execute(*args, **kwargs)

            db.executor.execute = spy
            rows = [row["id"] for page in pages_of(db) for row in page.rows]
            retries = db.client.stats.metrics.value("resilience.retries")
            assert db.client.rpc_timeout_seconds is None  # restored
            return rows, deadlines, retries

        through_query = drain(lambda db: db.prepare(sql).pages(g=1))
        through_session = drain(
            lambda db: db.session().execute(sql, g=1).pages()
        )
        assert through_query == through_session
        rows, deadlines, retries = through_query
        assert rows == list(range(20))
        assert deadlines == [0.5] * 8  # seven pages, one of them twice
        assert retries == 1
