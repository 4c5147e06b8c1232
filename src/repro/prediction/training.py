"""Operator model training (Section 6.1).

"As part of the model training, we sample the response time behavior for
every operator by repeatedly executing the operator with varying cardinality
and tuple sizes.  This training is typically done once by setting up a
production system in the cloud for a short period of time."

The trainer reproduces that procedure against the simulated cluster: for
every parameter setting it issues the *same request patterns* the execution
engine's remote operators issue —

* ``index_scan``       — one range request returning α entries of β bytes,
* ``lookup``           — a parallel batch of α point gets (IndexFKJoin,
  IndexLookup, and secondary-index dereferencing),
* ``sorted_index_join``— α parallel range requests of αj entries each,

spread over a configurable number of SLO intervals so that the per-interval
"cloud weather" variation is captured (Section 6.3).  Because the statistics
depend only on the request shape and not on the stored data (exactly the
paper's observation that the models are not application specific), the
trainer charges the requests directly against the cluster's storage-node
latency models instead of materialising synthetic tables.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from ..kvstore.cluster import ClusterConfig, KeyValueCluster
from .model import OperatorModelKey, OperatorModelStore


#: Simulated length of one training interval (the paper's ten-minute SLO
#: interval).
INTERVAL_SECONDS = 600.0
#: Share of the storage nodes' capacity offered as background load while
#: training.
UTILIZATION = 0.3
#: Seed of the trainer's choice of storage node per sample.
TRAINING_SEED = 7


@dataclass(frozen=True)
class TrainingConfig:
    """Grid and sampling schedule for operator model training.

    The defaults cover the parameter ranges the paper's experiments need
    (cardinalities up to 500 for the Figure 6 heatmap, tuple sizes from the
    40-byte subscriptions to TPC-W items) while keeping training fast.
    """

    alphas: Tuple[int, ...] = (1, 10, 25, 50, 100, 150, 300, 500)
    join_cardinalities: Tuple[int, ...] = (1, 10, 25, 50)
    tuple_sizes: Tuple[int, ...] = (40, 160, 400)
    intervals: int = 12
    samples_per_interval: int = 6
    #: Low-fan-out settings (small alpha) get proportionally more samples per
    #: interval: their latency distribution is dominated by the rare
    #: straggler tail, which only shows up with enough observations, whereas
    #: high-fan-out operators hit stragglers on almost every execution.
    oversample_factor: int = 50
    max_samples_per_interval: int = 300

    def samples_for(self, alpha: int) -> int:
        """Number of samples per interval for a setting with fan-out ``alpha``."""
        scaled = int(round(self.samples_per_interval * self.oversample_factor / max(alpha, 1)))
        return max(self.samples_per_interval, min(self.max_samples_per_interval, scaled))


class OperatorModelTrainer:
    """Benchmarks the three remote operators against a (simulated) cluster."""

    def __init__(
        self,
        cluster: Optional[KeyValueCluster] = None,
        config: Optional[TrainingConfig] = None,
    ):
        # The paper trains on a 10-node cluster with two-fold replication
        # (Section 8.6); default to the same setup.
        self.cluster = cluster or KeyValueCluster(
            ClusterConfig(storage_nodes=10, replication=2)
        )
        self.config = config or TrainingConfig()
        self._rng = random.Random(TRAINING_SEED)

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def train(self) -> OperatorModelStore:
        """Run the full training schedule and return the populated store."""
        store = OperatorModelStore()
        config = self.config
        nodes = self.cluster.nodes
        for node in nodes:
            node.set_offered_load(node.capacity_ops_per_second * UTILIZATION)

        for interval in range(config.intervals):
            sim_time = interval * INTERVAL_SECONDS
            for beta in config.tuple_sizes:
                for alpha in config.alphas:
                    samples = config.samples_for(alpha)
                    for _ in range(samples):
                        store.record(
                            OperatorModelKey("index_scan", alpha, 0, beta),
                            interval,
                            self._sample_index_scan(alpha, beta, sim_time),
                        )
                        store.record(
                            OperatorModelKey("lookup", alpha, 0, beta),
                            interval,
                            self._sample_lookup(alpha, beta, sim_time),
                        )
                    for cardinality in config.join_cardinalities:
                        for _ in range(samples):
                            store.record(
                                OperatorModelKey(
                                    "sorted_index_join", alpha, cardinality, beta
                                ),
                                interval,
                                self._sample_sorted_join(
                                    alpha, cardinality, beta, sim_time
                                ),
                            )
        return store

    # ------------------------------------------------------------------
    # Request-pattern samplers (mirror the execution engine's behaviour)
    # ------------------------------------------------------------------
    def _random_node(self):
        return self._rng.choice(self.cluster.nodes)

    def _sample_index_scan(self, alpha: int, beta: int, sim_time: float) -> float:
        """One range request returning ``alpha`` entries of ``beta`` bytes."""
        node = self._random_node()
        return node.charge_range(alpha, alpha * beta, sim_time)

    def _sample_lookup(self, alpha: int, beta: int, sim_time: float) -> float:
        """A parallel batched multi-get of ``alpha`` keys.

        Keys are spread over the cluster the same way the client's
        ``multi_get`` spreads them: one RPC per node holding part of the
        batch, and the batch completes when the slowest RPC does.
        """
        groups = min(alpha, len(self.cluster.nodes))
        per_group = max(1, alpha // groups)
        latency = 0.0
        for _ in range(groups):
            node = self._random_node()
            latency = max(
                latency, node.charge_read(per_group, per_group * beta, sim_time)
            )
        return latency

    def _sample_sorted_join(
        self, alpha: int, cardinality: int, beta: int, sim_time: float
    ) -> float:
        """``alpha`` parallel range requests of ``cardinality`` entries each."""
        latency = 0.0
        for _ in range(alpha):
            node = self._random_node()
            latency = max(
                latency,
                node.charge_range(cardinality, cardinality * beta, sim_time),
            )
        return latency


def train_default_model(
    cluster: Optional[KeyValueCluster] = None,
    config: Optional[TrainingConfig] = None,
) -> OperatorModelStore:
    """Convenience wrapper used by examples and benchmarks."""
    return OperatorModelTrainer(cluster=cluster, config=config).train()
