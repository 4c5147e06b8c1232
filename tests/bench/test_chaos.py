"""Chaos-soak harness smoke tests (quick configuration).

The full soak is ``python -m repro.bench chaos_soak``; here the quick
configuration runs once end-to-end and every hard invariant must hold:
no acked write lost, no runtime-bound violation, read-your-writes, post-
heal convergence, the availability floor, and strict dominance of the
resilient client over naive retries inside the partition windows.
"""

import dataclasses

import pytest

from repro.bench.chaos import ChaosSoakConfig, fresh_database, run_chaos_soak
from repro.replication.faults import validate_timeline


class TestChaosSchedule:
    def test_fault_schedule_is_valid_and_deterministic(self):
        config = ChaosSoakConfig()
        faults = config.faults()
        validate_timeline(faults)
        assert faults == config.faults()
        kinds = {spec.kind for spec in faults}
        assert kinds == {
            "crash", "recover", "partition", "flaky", "slow", "restore",
            "delay", "heal",
        }

    def test_quick_schedule_scales_into_the_fault_window(self):
        config = ChaosSoakConfig().quick()
        faults = config.faults()
        validate_timeline(faults)
        assert all(
            config.warmup_seconds
            <= spec.time
            < config.warmup_seconds + config.fault_seconds
            for spec in faults
        )

    def test_partition_windows_cover_both_partitions(self):
        config = ChaosSoakConfig()
        windows = config.partition_windows()
        assert len(windows) == 2
        partition_times = sorted(
            spec.time for spec in config.faults() if spec.kind == "partition"
        )
        assert [w[0] for w in windows] == partition_times
        assert all(start < end for start, end in windows)


class TestChaosSoakQuick:
    @pytest.fixture(scope="class")
    def result(self):
        return run_chaos_soak(ChaosSoakConfig().quick())

    def test_all_invariants_hold(self, result):
        invariants = result.invariants()
        failing = [name for name, ok in invariants.items() if not ok]
        assert not failing, f"chaos invariants violated: {failing}"
        assert result.holds

    def test_resilient_strictly_dominates_in_partition_windows(self, result):
        naive = result.arms["naive"]
        resilient = result.arms["resilient"]
        assert resilient.window_failures < naive.window_failures

    def test_fault_free_prefix_is_paired(self, result):
        naive = result.arms["naive"]
        resilient = result.arms["resilient"]
        assert naive.prefix_completed == resilient.prefix_completed
        assert naive.prefix_completed > 0

    def test_payload_is_json_ready(self, result):
        import json

        payload = result.payload()
        encoded = json.loads(json.dumps(payload))
        assert encoded["invariants"]["no_lost_writes"] is True
        assert set(encoded["arms"]) == {"naive", "resilient"}
        arm = encoded["arms"]["resilient"]
        assert arm["write_audit"]["lost"] == 0
        assert "resilience.retries" in arm["resilience"]


class TestChaosSeeding:
    def test_arms_share_the_cluster_seed(self):
        config = dataclasses.replace(ChaosSoakConfig().quick(), seed=29)
        db_a, _ = fresh_database(config, config.naive_policy())
        db_b, _ = fresh_database(config, config.resilient_policy())
        assert db_a.cluster.config.seed == db_b.cluster.config.seed == 29
