"""The ledger checked against a profiler that shares none of its code.

One repetition runs under ``cProfile``; each function's ``tottime`` goes to
the layer its source file belongs to (``other`` for program packages the
ledger gives no line, ``builtins`` for C functions and the standard
library).  The span ledger charges a builtin's time to whichever layer
called it and pays its own wrapper cost on hot leaf calls
(``MetricsRegistry.add``, ``sample_seconds``), so the two disagree; the
largest disagreement is reported, not hidden.
"""

from __future__ import annotations

import pstats
from typing import Any, Dict

import adapter


def profile_shares(profiler: Any) -> Dict[str, float]:
    """Share of profiled self time per layer (the benchmark's own frames
    are left out of the total)."""
    totals: Dict[str, float] = {}
    for (filename, _line, _name), row in pstats.Stats(profiler).stats.items():
        tottime = row[2]
        if filename.startswith(adapter.HERE):
            continue
        layer = adapter.layer_of_source(filename) or "builtins"
        totals[layer] = totals.get(layer, 0.0) + tottime
    whole = sum(totals.values())
    return {layer: t / whole for layer, t in totals.items()} if whole else {}


def ledger_shares(layers: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    whole = sum(entry["self_ns"] for entry in layers.values())
    if not whole:
        return {}
    return {layer: entry["self_ns"] / whole for layer, entry in layers.items()}


def disagreement(ledger: Dict[str, float], profile: Dict[str, float]) -> Dict[str, float]:
    """|ledger share - profile share| for every ledger layer."""
    return {
        layer: abs(ledger.get(layer, 0.0) - profile.get(layer, 0.0))
        for layer in adapter.LAYERS
    }
