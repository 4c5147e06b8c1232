"""Simulated distributed key/value store (the stateful half of PIQL).

This package stands in for the SCADS cluster the paper runs on: it provides
get/put/test-and-set, range requests over an order-preserving key space, and
count-range, together with a service-time simulator so that latency and
throughput experiments can be reproduced on a single machine.
"""

from .client import ClientStats, StorageClient
from .cluster import ClusterConfig, KeyValueCluster, OpResult
from .latency import LatencyModel, LatencyParameters
from .memory import OrderedKVMap
from .node import NodeStats, StorageNode
from .simtime import SimClock

__all__ = [
    "ClientStats",
    "ClusterConfig",
    "KeyValueCluster",
    "LatencyModel",
    "LatencyParameters",
    "NodeStats",
    "OpResult",
    "OrderedKVMap",
    "SimClock",
    "StorageClient",
    "StorageNode",
]
