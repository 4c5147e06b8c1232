"""Every metric the benchmark reports: name, unit, direction, bound, meaning.

``BENCHMARK.json`` at the root of the repo is :func:`manifest` written out;
the self-test keeps the two from drifting apart.

The driver's schema wants every ``end_to_end`` metric from every workload,
never 0, and steady across seeds to within its bound (at most 0.25), so
the end-to-end list holds the eight metrics for which that is possible;
host time is in steady seconds (``measure.py``) for the same reason.
The rest of ISSUE.md's end-to-end metrics keep their names but are listed
with the per-layer metrics, which carry no driver-enforced bound: the six
that belong to one workload each (``sim_slo_max_rate_per_s``,
``obs_overhead_ratio``, the three ``disk_*``, ``recover_s``),
``failed_share`` (0 on a healthy run; its complement ``ok_share`` is
end-to-end), and ``sim_p99_ms`` (no open-loop p99 is steady across seeds
within the time cap: 43% at the lowest rung).  The bound a reviewer should
hold them to at the same seed is in README.md.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import adapter

RUN_SECONDS = 24

#: name, unit, better, bound (share of the parent's median), meaning.
#: Bounds are at least three times the spread measured across ten seeds
#: (README.md, "Noise on this box").
END_TO_END: List[Tuple[str, str, str, float, str]] = [
    ("throughput_per_core_s", "1/s", "higher", 0.20,
     "interactions (kv ops on kv_lsm_mixed) per steady process_time second "
     "(measure.steady, then the lower-quartile replay of each slice); "
     "observed arm on tpcw_observed, the 150/s rung on the ladder"),
    ("throughput_per_wall_s", "1/s", "higher", 0.20,
     "the same per steady perf_counter second"),
    ("setup_s", "s", "lower", 0.25,
     "build + DDL + bulk load + prepare_all (kv: cluster + bulk load), "
     "steady seconds, median of repetitions"),
    ("peak_rss_mb", "MB", "lower", 0.10,
     "ru_maxrss of the workload's process"),
    ("sim_p50_ms", "ms", "lower", 0.20,
     "simulated response time from arrival, median "
     "(ladder: the 150/s rung; kv_lsm_mixed: quorum reads)"),
    ("kv_ops_per_interaction", "count", "lower", 0.20,
     "mean key/value operations per interaction, the paper's unit of cost "
     "(kv_lsm_mixed: keys touched at the storage nodes per client op)"),
    ("rpc_rounds_per_interaction", "count", "lower", 0.08,
     "app-server RPC rounds per interaction (kv_lsm_mixed: storage-node "
     "RPCs per client op, replication fan-out included)"),
    ("ok_share", "share", "higher", 0.001,
     "1 - failed_share; an end-to-end metric may never read 0, so the "
     "complement is reported"),
]

_LEDGER_WORKLOAD = {
    "execution": "scadr_closed", "replication": "scadr_closed",
    "kvstore.engine": "kv_lsm_mixed (and recover_s)",
    "obs": "tpcw_observed (obs_overhead_ratio)",
    "serving": "both closed loops equally",
    "serving.queueing": "both closed loops equally",
}


def _ledger_metrics() -> List[Tuple[str, str, str, str]]:
    rows = []
    for layer in adapter.LAYERS:
        where = _LEDGER_WORKLOAD.get(layer, "tpcw_closed")
        rows.append((f"{layer}.self_us", "us", "lower",
                     f"self time per unit of work; moves throughput_per_core_s "
                     f"by at most its share, on {where}"))
        rows.append((f"{layer}.calls", "count", "lower",
                     "calls into the layer's wrapped entry points per unit"))
    return rows


#: name, unit, better, which end-to-end metric it should move and where.
PER_LAYER: List[Tuple[str, str, str, str]] = _ledger_metrics() + [
    ("kvstore.client.ops", "count", "lower",
     "kv operations per interaction -> kv_ops_per_interaction"),
    ("kvstore.client.rpcs", "count", "lower",
     "RPC rounds per interaction -> rpc_rounds_per_interaction, sim_p99_ms"),
    ("kvstore.client.deref_rounds", "count", "lower",
     "fused dereference rounds per interaction -> rpc_rounds_per_interaction"),
    ("kvstore.client.saved_reads", "count", "higher",
     "logical reads that needed no fetch -> rpc_rounds_per_interaction"),
    ("kvstore.cluster.keys_per_rpc", "count", "higher",
     "keys carried per RPC -> rpc_rounds_per_interaction on both closed loops"),
    ("kvstore.node.utilization_mean", "share", "lower",
     "mean storage-node utilisation -> sim_p99_ms, sim_slo_max_rate_per_s"),
    ("kvstore.node.queue_wait_share", "share", "lower",
     "queue wait / charged node latency -> sim_p99_ms on the ladder"),
    ("kvstore.node.keys_filtered", "count", "lower",
     "keys examined but not shipped per unit -> sim_p99_ms"),
    ("replication.read_repairs", "count", "lower",
     "must stay 0 on healthy runs; nonzero explains a sim_digest change"),
    ("replication.hints_added", "count", "lower",
     "must stay 0 on healthy runs; nonzero explains a sim_digest change"),
    ("storage.row_cache_hit_ratio", "share", "higher",
     "row-decode cache hits -> throughput_per_core_s on scadr_closed "
     "(cache exceeded), not on tpcw_closed (fits)"),
    ("plans.bound_utilisation_max", "share", "lower",
     "observed ops / static bound, worst query step; > 1 is a failure"),
    ("plans.bound_utilisation_mean", "share", "lower",
     "observed ops / static bound, mean -> kv_ops_per_interaction"),
    ("optimizer.compiles", "count", "lower",
     "optimize() calls per interaction while serving (traced pass) -> "
     "throughput_per_core_s on short horizons"),
    ("optimizer.compile_ms_p50", "ms", "lower",
     "median optimize() time (traced pass) -> setup_s"),
    ("setup.ddl_s", "s", "lower", "execute_ddl time (traced pass) -> setup_s"),
    ("setup.bulk_load_s", "s", "lower", "bulk-load time (traced pass) -> setup_s"),
    ("setup.prepare_all_s", "s", "lower",
     "prepare_all time (traced pass) -> setup_s"),
    ("serving.events", "count", "lower",
     "event-kernel events per interaction -> throughput_per_core_s"),
    ("serving.shed", "count", "lower", "requests shed -> failed_share"),
    *[(f"serving.p99_ms.r{rate}", "ms", "lower",
       f"ladder p99 at {rate}/s -> sim_slo_max_rate_per_s")
      for rate in (150, 175, 200, 225, 250, 275)],
    ("serving.rungs_meeting_slo", "count", "higher",
     "ladder rungs meeting the SLO -> sim_slo_max_rate_per_s"),
    ("kvstore.engine.flushes", "count", "lower",
     "memtable flushes -> disk_write_amp"),
    ("kvstore.engine.compactions", "count", "lower",
     "compactions run -> disk_write_amp against disk_read_bytes_per_get "
     "and disk_space_amp"),
    ("kvstore.engine.segments_final", "count", "lower",
     "segments after final maintenance -> disk_read_bytes_per_get"),
    ("kvstore.engine.write_syscalls", "count", "lower",
     "write syscalls of the op loop -> throughput_per_core_s on kv_lsm_mixed"),
    ("kvstore.engine.wal_records_replayed", "count", "lower",
     "WAL records replayed by recovery -> recover_s"),
    ("kvstore.engine.maintenance_self_us", "us", "lower",
     "time inside engine maintenance per kv op (traced pass) -> "
     "throughput_per_core_s on kv_lsm_mixed"),
    ("obs.spans", "count", "lower",
     "product spans recorded per interaction (traced pass) -> obs_overhead_ratio"),
    ("obs.retained_traces", "count", "lower",
     "flight-recorder traces retained -> peak_rss_mb on tpcw_observed"),
    ("obs.dropped_roots", "count", "lower",
     "trace roots evicted (counted, never silent)"),
    ("obs.scrapes", "count", "lower",
     "telemetry scrapes -> obs_overhead_ratio"),
    ("harness.self_us", "us", "lower",
     "the benchmark's own load generator inside the timed region, per unit; "
     "with it the layers sum to the traced total"),
    ("trace.overhead_ratio", "ratio", "lower",
     "traced / untraced core-seconds; how much the wrappers cost"),
    ("ledger.closure_error", "share", "lower",
     "|sum of self times, harness included - timed region| / timed region; "
     "must stay <= 1%"),
    ("ledger.profile_disagreement_max", "share", "lower",
     "largest |ledger share - cProfile share| over the layers"),
    ("ledger.unwrapped_targets", "count", "lower",
     "wrap targets the adapter could not find by name"),
    ("host.calib_kernel_ms", "ms", "lower",
     "median reading of the state probe (measure.state_probe_s): how fast "
     "the box was; measure.steady rescales host time by it"),
    ("host.raw_throughput_per_core_s", "1/s", "higher",
     "throughput_per_core_s as the clock read it: median of the replays, "
     "nothing rescaled"),
    ("host.rep_iqr_share", "share", "lower",
     "quartile distance / median of the untraced repetitions' core-seconds"),
    ("sim_p99_ms", "ms", "lower",
     "99th percentile of the sample sim_p50_ms is the median of"),
    ("sim_slo_max_rate_per_s", "1/s", "higher",
     "ladder: highest rung with p99 <= 500 ms, no failures, no growing backlog"),
    ("failed_share", "share", "lower",
     "(failed + shed + bound violations + lost acked writes + wrong reads) "
     "/ attempted"),
    ("obs_overhead_ratio", "ratio", "lower",
     "tpcw_observed: observed-arm / plain-arm core-seconds, median over pairs"),
    ("disk_write_amp", "ratio", "lower",
     "kv_lsm_mixed: bytes written (wchar) / user bytes acknowledged"),
    ("disk_read_bytes_per_get", "B", "lower",
     "kv_lsm_mixed: bytes read (rchar) / gets"),
    ("disk_space_amp", "ratio", "lower",
     "kv_lsm_mixed: bytes on disk after maintenance / (live bytes x replicas)"),
    ("recover_s", "s", "lower",
     "kv_lsm_mixed: wall time of crash_node + recover_node"),
]


def manifest(workloads: List[Any]) -> Dict[str, Any]:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/ledger/run.py"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in workloads],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound, _what in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better, _moves in PER_LAYER
        ],
    }
