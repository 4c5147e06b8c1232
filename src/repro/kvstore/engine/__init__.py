"""Pluggable per-node storage engines.

Every :class:`~repro.replication.store.ReplicaStore` delegates its physical
data to a :class:`~repro.kvstore.engine.base.StorageEngine`, one ordered map
per namespace.  A map offers what the replica store calls and nothing
more — ``get``, ``put``, ``delete``, ``range`` and ``iter_range`` — and an
engine never drops a namespace.  Two engines ship:

* :class:`~repro.kvstore.engine.dict_engine.DictEngine` — the seed
  behaviour: one in-memory :class:`~repro.kvstore.memory.OrderedKVMap` per
  namespace.  Bit-identical results and operation counts with every
  benchmark that predates the engine layer.
* :class:`~repro.kvstore.engine.lsm.LsmEngine` — an LSM-lite persistent
  engine (stdlib only): byte-budgeted memtables, a write-ahead log with
  torn-tail detection, append-only sorted segment files with sparse
  indexes and bloom-style key filters, size-tiered compaction, and a
  snapshot/bulk-load pipeline built on the memory-budgeted external
  sorter in :mod:`~repro.kvstore.engine.external`.

Select an engine with ``ClusterConfig(storage_engine="lsm",
engine_options={"data_dir": ...})``.
"""

from .base import EngineRecovery, StorageEngine
from .dict_engine import DictEngine
from .external import SpillPool, SpillingSorter
from .lsm import LsmEngine, LsmTree
from .segment import Segment, SegmentError, write_segment
from .wal import WalReplay, WriteAheadLog

__all__ = [
    "DictEngine",
    "EngineRecovery",
    "LsmEngine",
    "LsmTree",
    "Segment",
    "SegmentError",
    "SpillPool",
    "SpillingSorter",
    "StorageEngine",
    "WalReplay",
    "WriteAheadLog",
    "write_segment",
    "create_engine",
]


def create_engine(kind: str, node_id: int, **options) -> StorageEngine:
    """Build one node's engine by name (``"dict"`` or ``"lsm"``).

    ``lsm`` engines place their files under ``<data_dir>/node-<id>`` so
    several nodes can share one base directory.
    """
    if kind == "dict":
        return DictEngine()
    if kind == "lsm":
        import os

        data_dir = options.pop("data_dir", None)
        if data_dir is None:
            raise ValueError(
                "the lsm engine needs engine_options={'data_dir': ...}"
            )
        return LsmEngine(os.path.join(data_dir, f"node-{node_id}"), **options)
    raise ValueError(f"unknown storage engine: {kind!r} (use 'dict' or 'lsm')")
