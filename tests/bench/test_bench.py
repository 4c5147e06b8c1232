"""Tests for the benchmark harnesses (small configurations)."""

import pytest

from repro import ClusterConfig, PiqlDatabase
from repro.analysis import CLASS_QUERIES, ScalingClassAnalysis
from repro.bench import intersection, scaling, strategies
from repro.bench.harness import ClientSimulationConfig, run_workload
from repro.bench.intersection import IntersectionExperimentConfig
from repro.bench.reporting import format_table, linear_fit_r_squared
from repro.bench.scaling import ScalingExperimentConfig
from repro.bench.strategies import ExecutorStrategyConfig
from repro.stats import nearest_rank_percentile as percentile
from repro.workloads import ScadrWorkload, WorkloadScale


class TestReportingHelpers:
    def test_percentile(self):
        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 0.99) == 100.0
        assert percentile(values, 0.5) == 51.0
        with pytest.raises(ValueError):
            percentile([], 0.5)
        with pytest.raises(ValueError):
            percentile(values, 1.5)

    def test_linear_fit_r_squared(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        assert linear_fit_r_squared(xs, [2.0, 4.0, 6.0, 8.0]) == pytest.approx(1.0)
        noisy = linear_fit_r_squared(xs, [2.1, 3.8, 6.2, 7.9])
        assert 0.98 < noisy < 1.0
        with pytest.raises(ValueError):
            linear_fit_r_squared([1.0], [2.0])

    def test_format_table(self):
        text = format_table(["name", "value"], [("a", 1.0), ("long-name", 123.456)])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert len(lines) == 4


class TestHarness:
    def test_run_workload_collects_measurements(self):
        db = PiqlDatabase.simulated(ClusterConfig(storage_nodes=4, seed=2))
        workload = ScadrWorkload(max_subscriptions=5, subscriptions_per_user=3,
                                 thoughts_per_user=5)
        workload.setup(db, WorkloadScale(storage_nodes=2, users_per_node=20))
        measurement = run_workload(
            db,
            workload,
            ClientSimulationConfig(
                client_machines=2, threads_per_client=2, interactions_per_thread=4
            ),
        )
        assert measurement.interactions == 2 * 2 * 4
        assert measurement.throughput > 0
        assert measurement.latency_percentile_ms(0.99) >= measurement.mean_latency_ms() / 2
        assert "thoughtstream" in measurement.query_latencies


class TestScalingExperiment:
    def test_throughput_scales_linearly_and_latency_stays_flat(self):
        result = scaling.run(
            lambda: ScadrWorkload(max_subscriptions=5, subscriptions_per_user=3,
                                  thoughts_per_user=5),
            ScalingExperimentConfig(
                node_counts=(4, 8, 16),
                users_per_node=20,
                threads_per_client=2,
                interactions_per_thread=6,
            ),
        )
        throughputs = [p.throughput for p in result.points]
        assert throughputs[0] < throughputs[1] < throughputs[2]
        assert result.throughput_r_squared > 0.95
        # 99th-percentile latency does not blow up with scale.
        assert result.latency_flatness() < 2.5
        assert len(result.rows()) == 3


class TestExecutorStrategyExperiment:
    def test_parallel_beats_simple_beats_lazy(self):
        measurements = strategies.run(
            ExecutorStrategyConfig(
                storage_nodes=6,
                client_machines=2,
                threads_per_client=2,
                interactions_per_thread=6,
                users_per_node=20,
                items_total=150,
            )
        )
        by_name = {m.strategy: m.p99_latency_ms for m in measurements}
        assert by_name["parallel"] < by_name["simple"] < by_name["lazy"]


class TestIntersectionExperiment:
    def test_bounded_plan_is_flat_and_unbounded_grows(self):
        result = intersection.run(
            IntersectionExperimentConfig(
                storage_nodes=6,
                subscriber_counts=(0, 1000, 4000),
                executions_per_point=40,
                fan_pool=4200,
            )
        )
        assert len(result.points) == 3
        bounded = [p.bounded_p99_ms for p in result.points]
        unbounded = [p.unbounded_p99_ms for p in result.points]
        # The PIQL plan performs the same bounded work regardless of popularity.
        assert all(p.bounded_operations <= 50 for p in result.points)
        assert max(bounded) < 5 * max(min(bounded), 1e-9)
        # The cost-based plan's work and latency grow with popularity.
        assert result.points[-1].unbounded_operations > 1000
        assert unbounded[-1] > unbounded[0] * 5
        assert unbounded[-1] > bounded[-1]
        # For an unpopular target the unbounded plan is the faster one.
        assert unbounded[0] < bounded[0]


class TestScalingClassAnalysis:
    def test_growth_shapes(self):
        analysis = ScalingClassAnalysis(user_counts=(200, 400, 800))
        result = analysis.run()
        database_growth = result.database_growth_factor()
        assert database_growth == pytest.approx(4.0)
        # Class I constant, Class II bounded, Class III ~linear, Class IV superlinear.
        assert result.growth_factor("class1_constant") == 1.0
        assert result.growth_factor("class2_bounded") == 1.0
        assert 2.0 < result.growth_factor("class3_linear") < 8.0
        assert result.growth_factor("class4_superlinear") > 8.0

    def test_piql_admits_only_class_one_and_two(self):
        result = ScalingClassAnalysis(user_counts=(100,)).run()
        assert result.accepted_by_piql == {
            "class1_find_user": True,
            "class2_thoughtstream": True,
            "class3_users_by_hometown": False,
            "class4_hometown_pairs": False,
        }
        assert set(CLASS_QUERIES) == set(result.accepted_by_piql)
