"""Unit tests for the latency model and simulated clock."""

import pytest

from repro.kvstore.latency import LatencyModel, LatencyParameters
from repro.kvstore.simtime import SimClock


class TestSimClock:
    def test_advance_accumulates(self):
        clock = SimClock()
        clock.advance(0.5)
        clock.advance(0.25)
        assert clock.now == pytest.approx(0.75)

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1)

    def test_reset(self):
        clock = SimClock()
        clock.advance(3)
        clock.reset()
        assert clock.now == 0


class TestLatencyModel:
    def test_deterministic_given_seed(self):
        a = LatencyModel(seed=5)
        b = LatencyModel(seed=5)
        samples_a = [a.sample_seconds(num_keys=10) for _ in range(20)]
        samples_b = [b.sample_seconds(num_keys=10) for _ in range(20)]
        assert samples_a == samples_b

    def test_samples_positive(self):
        model = LatencyModel(seed=1)
        assert all(model.sample_seconds() > 0 for _ in range(100))

    def test_median_grows_with_keys_and_bytes(self):
        model = LatencyModel(seed=1)
        assert model.median_ms(100, 0) > model.median_ms(1, 0)
        assert model.median_ms(1, 100_000) > model.median_ms(1, 0)

    def test_queueing_inflation(self):
        model = LatencyModel(seed=1)
        assert model.queueing_factor(0.0) == pytest.approx(1.0)
        assert model.queueing_factor(0.5) == pytest.approx(2.0)
        # Utilisation is clamped so the factor never explodes.
        assert model.queueing_factor(5.0) == model.queueing_factor(0.99)

    @pytest.mark.parametrize("weather_sigma", [0.10, 0.0])
    def test_sample_is_the_product_of_its_documented_parts(self, weather_sigma):
        import math
        import random

        params = LatencyParameters(
            weather_sigma=weather_sigma, straggler_probability=0.3
        )
        model = LatencyModel(params, seed=21)
        twin = random.Random(21)
        for keys, nbytes, utilization, sim_time in [
            (1, 0, 0.0, 0.0), (7, 2500, 0.4, 30.0), (0, 0, 0.99, 700.0),
            (-3, -10, -0.5, 1300.0), (40, 100_000, 0.91, 1300.0),
        ] * 8:
            expected = model.median_ms(keys, nbytes) * math.exp(
                twin.gauss(0.0, params.lognormal_sigma)
            )
            if twin.random() < params.straggler_probability:
                expected *= params.straggler_multiplier
            expected *= model.queueing_factor(utilization)
            expected *= model.weather(sim_time)
            assert model.sample_seconds(
                keys, nbytes, utilization, sim_time
            ) == expected / 1000.0

    def test_mean_latency_grows_with_utilization(self):
        low = LatencyModel(seed=3)
        high = LatencyModel(seed=3)
        low_mean = sum(low.sample_seconds(utilization=0.0) for _ in range(500)) / 500
        high_mean = sum(high.sample_seconds(utilization=0.8) for _ in range(500)) / 500
        assert high_mean > low_mean * 2

    def test_weather_is_per_interval_and_deterministic(self):
        model = LatencyModel(seed=9)
        params = model.params
        w0 = model.weather(10.0)
        w0_again = model.weather(params.weather_interval_seconds - 1.0)
        w1 = model.weather(params.weather_interval_seconds + 1.0)
        assert w0 == pytest.approx(w0_again)
        assert w0 != w1
        assert LatencyModel(seed=9).weather(10.0) == pytest.approx(w0)

    def test_memoised_weather_equals_a_fresh_draw(self):
        model = LatencyModel(seed=9)
        interval = model.params.weather_interval_seconds

        def fresh(seed, sim_time, params=None):
            return LatencyModel(params, seed=seed).weather(sim_time)

        # Either side of an interval boundary, asked repeatedly and out of
        # order, so every answer after the first comes from the memo.
        for sim_time in (interval - 1.0, interval, interval - 1.0, 0.0, 2 * interval):
            assert model.weather(sim_time) == fresh(9, sim_time)
        model.reseed(10)
        assert model.weather(interval - 1.0) == fresh(10, interval - 1.0)
        assert model.weather(interval - 1.0) != fresh(9, interval - 1.0)
        model.params = LatencyParameters(weather_sigma=0.4)
        assert model.weather(interval - 1.0) == fresh(
            10, interval - 1.0, LatencyParameters(weather_sigma=0.4)
        )
        model.reseed(9)
        model.params = LatencyParameters()
        assert model.weather(0.0) == fresh(9, 0.0)

    def test_weather_disabled_when_sigma_zero(self):
        model = LatencyModel(LatencyParameters(weather_sigma=0.0), seed=1)
        assert model.weather(0) == 1.0
        assert model.weather(10_000) == 1.0

    def test_reseed_restarts_stream(self):
        model = LatencyModel(seed=4)
        first = [model.sample_seconds() for _ in range(5)]
        model.reseed(4)
        second = [model.sample_seconds() for _ in range(5)]
        assert first == second
