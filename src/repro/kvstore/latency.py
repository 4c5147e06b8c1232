"""Service-time (latency) model for the simulated key/value store.

The PIQL architecture (Section 3 of the paper) builds on the observation
that modern key/value stores such as Dynamo or SCADS provide *predictable*
per-operation latency: most requests complete within a few milliseconds,
with a heavy-ish tail caused by stragglers, garbage collection, and noisy
neighbours in a public cloud.

This module models that behaviour.  Each request's latency is composed of

* a fixed per-RPC overhead (network round trip + request processing),
* a per-key cost (index traversal / record copy per returned key),
* a per-byte cost (serialisation and transfer of the payload),
* multiplicative lognormal noise (service-time variability),
* an occasional straggler that multiplies the latency by a large factor
  (models GC pauses and packet retransmits; responsible for the gap between
  median and 99th percentile),
* a queueing-delay inflation driven by node utilisation (M/M/1-style
  ``1 / (1 - utilization)`` factor), and
* a slowly varying per-interval "weather" multiplier that models the
  volatility of a public cloud (Section 6.3), so that the 99th-percentile
  latency differs from one SLO interval to the next.

All knobs live in :class:`LatencyParameters` so experiments can calibrate
the simulator (e.g. make RPCs slower to mimic a cross-datacenter store).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, Optional, Tuple


@dataclass(frozen=True)
class LatencyParameters:
    """Tunable constants of the latency model.

    All latency constants are expressed in milliseconds; the model converts
    to seconds when sampling.
    """

    #: Median fixed cost of a single RPC to the store (ms).
    base_rpc_ms: float = 1.6
    #: Additional median cost per key touched by the request (ms).
    per_key_ms: float = 0.03
    #: Additional median cost per kilobyte of payload transferred (ms).
    per_kilobyte_ms: float = 0.08
    #: Shape parameter (sigma) of the lognormal multiplicative noise.
    lognormal_sigma: float = 0.30
    #: Probability that a request is a straggler.
    straggler_probability: float = 0.012
    #: Multiplier applied to straggler requests.
    straggler_multiplier: float = 8.0
    #: Sigma of the per-interval lognormal "cloud weather" multiplier.
    weather_sigma: float = 0.10
    #: Length of a weather interval in seconds.
    weather_interval_seconds: float = 600.0
    #: Utilisation above which queueing inflation is clamped (avoid infinities).
    max_utilization: float = 0.92


class LatencyModel:
    """Samples per-request latencies for a storage node.

    The model is deterministic for a given ``seed`` and request sequence,
    which keeps every experiment in the repository reproducible.
    """

    def __init__(self, params: Optional[LatencyParameters] = None, seed: int = 0):
        self.params = params or LatencyParameters()
        self._seed = seed
        self._rng = random.Random(seed)
        #: Weather multipliers by ``(seed, interval, sigma)`` — everything
        #: the draw depends on, so ``reseed`` and a ``params`` change miss.
        self._weather_memo: Dict[Tuple[int, int, float], float] = {}

    def reseed(self, seed: int) -> None:
        """Reset the model's random stream (used between experiments)."""
        self._seed = seed
        self._rng = random.Random(seed)

    # ------------------------------------------------------------------
    # Weather
    # ------------------------------------------------------------------
    def weather(self, sim_time: float) -> float:
        """Multiplier modelling cloud volatility for the interval at ``sim_time``.

        The multiplier is a deterministic function of the interval index and
        the model seed, so two clients observing the same simulated time see
        the same weather, and re-running an experiment reproduces it.
        """
        p = self.params
        if p.weather_sigma <= 0:
            return 1.0
        interval = int(sim_time // p.weather_interval_seconds)
        memo_key = (self._seed, interval, p.weather_sigma)
        multiplier = self._weather_memo.get(memo_key)
        if multiplier is None:
            interval_rng = random.Random(
                (self._seed * 1_000_003) ^ (interval * 7919)
            )
            multiplier = math.exp(interval_rng.gauss(0.0, p.weather_sigma))
            self._weather_memo[memo_key] = multiplier
        return multiplier

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def median_ms(self, num_keys: int, num_bytes: int) -> float:
        """Median (noise-free, unloaded) latency in ms for a request."""
        p = self.params
        return (
            p.base_rpc_ms
            + p.per_key_ms * max(0, num_keys)
            + p.per_kilobyte_ms * max(0, num_bytes) / 1024.0
        )

    def queueing_factor(self, utilization: float) -> float:
        """M/M/1-style latency inflation for a node at ``utilization``."""
        u = min(max(utilization, 0.0), self.params.max_utilization)
        return 1.0 / (1.0 - u)

    def sample_seconds(
        self,
        num_keys: int = 1,
        num_bytes: int = 0,
        utilization: float = 0.0,
        sim_time: float = 0.0,
    ) -> float:
        """Sample the latency, in seconds, of one request.

        Parameters
        ----------
        num_keys:
            Number of keys read or written by the request (records returned
            by a range request, keys in a batch put, ...).
        num_bytes:
            Payload size in bytes.
        utilization:
            Offered load divided by capacity for the node serving the
            request; drives queueing delay.
        sim_time:
            Simulated time at which the request is issued; selects the
            weather interval.
        """
        # :meth:`median_ms`, :meth:`queueing_factor` and the sigma test of
        # :meth:`weather`, inline — this runs once per charged RPC.
        p = self.params
        rng = self._rng
        latency_ms = (
            p.base_rpc_ms
            + p.per_key_ms * max(0, num_keys)
            + p.per_kilobyte_ms * max(0, num_bytes) / 1024.0
        ) * math.exp(rng.gauss(0.0, p.lognormal_sigma))
        if rng.random() < p.straggler_probability:
            latency_ms *= p.straggler_multiplier
        latency_ms *= 1.0 / (1.0 - min(max(utilization, 0.0), p.max_utilization))
        if p.weather_sigma > 0:
            latency_ms *= self.weather(sim_time)
        return latency_ms / 1000.0
