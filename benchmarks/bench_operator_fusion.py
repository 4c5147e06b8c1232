"""Tuple-at-a-time versus batch-at-a-time executor rounds.

A paired replay proves round fusion changes only the RPC structure
(identical per-query operation counts and static bounds arm to arm), the
query microbench shows the multiplicative drop in dereference rounds on
multi-child sorted-index joins, and a closed-loop run through the serving
tier reports the end-to-end wall-clock throughput effect.
"""

from __future__ import annotations

from repro.bench import (
    OperatorFusionConfig,
    OperatorFusionExperiment,
    save_results,
)
from repro.bench.bench_operator_fusion import check_result, print_result


def run_experiment():
    experiment = OperatorFusionExperiment(OperatorFusionConfig())
    return experiment.run()


def test_operator_fusion(run_once):
    result = run_once(run_experiment)
    print()
    print_result(result)
    save_results("operator_fusion", result.summary_payload())

    # Fusion must not change the work done — identical per-query operation
    # counts and static bounds in both arms — and must collapse the
    # dereference rounds of multi-child sorted-index joins by at least 2x.
    # check_result also applies the coarse wall-clock regression guard and
    # the per-query cost budgets of tracing and forensics.
    check_result(result)

    # The fused arm's round structure is strictly better on the replay mix:
    # fewer physical RPCs overall, and the multi-child sorted-join query
    # gets a large simulated-latency cut from paying one bulk dereference
    # round instead of one per child.
    serial_rpcs, serial_rounds = result.replay_totals("serial")
    fused_rpcs, fused_rounds = result.replay_totals("fused")
    assert fused_rpcs < serial_rpcs
    assert fused_rounds < serial_rounds
    search_serial = result.micro["serial"]["search_by_author_wi"]
    search_fused = result.micro["fused"]["search_by_author_wi"]
    assert search_fused.mean_latency_ms < 0.6 * search_serial.mean_latency_ms

    # End to end, under a near-saturation closed loop the removed rounds
    # come out of storage-node queues: the fused arm must complete strictly
    # more work in the same simulated horizon with better percentiles
    # (deterministic simulation, so these are exact), and report a
    # wall-clock throughput gain (generous floor: the wall clock of a
    # shared CI box is noisy).
    serial_loop = result.closed_loop["serial"]
    fused_loop = result.closed_loop["fused"]
    assert fused_loop["completed"] > 1.05 * serial_loop["completed"]
    assert fused_loop["p50_ms"] < serial_loop["p50_ms"]
    assert fused_loop["p99_ms"] < serial_loop["p99_ms"]
    assert (
        fused_loop["completed_per_wall_second"]
        >= 0.95 * serial_loop["completed_per_wall_second"]
    )

    # Observability budget: check_result above also holds what tracing and
    # forensics cost per query to an absolute budget in host microseconds
    # (scaled to this box by a calibration kernel) — not to a ratio over the
    # bare replay loop, which every host-side speed-up of that loop would
    # push up.  The ratios are still printed.
