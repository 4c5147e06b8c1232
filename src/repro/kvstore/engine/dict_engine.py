"""The default in-memory engine: one ordered map per namespace.

This is exactly the seed simulator's storage behaviour, factored behind the
engine interface: every namespace is an
:class:`~repro.kvstore.memory.OrderedKVMap`, nothing is durable, and a
"crash" loses nothing because the simulation keeps the process alive — a
crashed node recovers through hinted handoff and anti-entropy alone.  Every
pre-engine benchmark and test runs against this engine bit-identically.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..memory import OrderedKVMap
from .base import StorageEngine


class DictEngine(StorageEngine):
    """In-memory, volatile storage: the seed behaviour."""

    name = "dict"
    durable = False

    def __init__(self) -> None:
        self._maps: Dict[str, OrderedKVMap] = {}

    def map(self, namespace: str) -> OrderedKVMap:
        found = self._maps.get(namespace)
        if found is None:
            found = self._maps[namespace] = OrderedKVMap()
        return found

    def peek(self, namespace: str) -> Optional[OrderedKVMap]:
        return self._maps.get(namespace)

    def namespaces(self) -> List[str]:
        return sorted(self._maps)

    def gauges(self) -> Dict[str, float]:
        keys = sum(len(m) for m in self._maps.values())
        return {"resident_keys": float(keys)}
