"""``pipelined_interactions``' "no interaction type gets meaningfully slower"
claim reads each type's paired samples, not its mean.

Both arms replay the same plans in the same order, so the records pair up
one to one.  A single straggler draw (8x the service time, 1.2% of RPCs) in
one arm moves a type's mean by a third when the type has a dozen samples;
the median of the per-sample ratios ignores it, and still falls below the
claim's 0.90 when every sample of a type gets 15% slower.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.bench.experiment import ClaimViolated
from repro.bench.pipelined_interactions import (
    ARMS,
    PipelinedInteractionsConfig,
    check,
    replay_by_interaction,
    run_replay,
)

#: A closed loop that passes every claim, so ``check`` judges the replay.
PASSING_LOOP = {
    "serial": {"p50_ms": 8.0, "p99_ms": 40.0, "completed": 100.0,
               "coalesced_reads": 0.0},
    "pipelined": {"p50_ms": 4.0, "p99_ms": 30.0, "completed": 100.0,
                  "coalesced_reads": 10.0},
}


@pytest.fixture(scope="module")
def replays():
    config = PipelinedInteractionsConfig().quick()
    return {arm: run_replay(config, arm == "pipelined") for arm in ARMS}


def _check(replays) -> None:
    check({
        "replay": {
            "operations_identical": True,
            "by_interaction": replay_by_interaction(replays),
        },
        "closed_loop": PASSING_LOOP,
    })


def _slowed(replays, name: str, factor: float):
    return {
        "serial": replays["serial"],
        "pipelined": [
            replace(record, latency_seconds=record.latency_seconds * factor)
            if record.name == name else record
            for record in replays["pipelined"]
        ],
    }


def test_the_quick_replay_passes(replays):
    _check(replays)


def test_a_straggler_in_one_sample_does_not_fail_the_claim(replays):
    serial = replays["serial"]
    index = next(
        i for i, record in enumerate(serial) if record.name == "product_detail"
    )
    straggler = list(replays["pipelined"])
    straggler[index] = replace(
        straggler[index], latency_seconds=serial[index].latency_seconds * 8
    )
    _check({"serial": serial, "pipelined": straggler})


def test_a_fifteen_percent_slowdown_of_one_type_fails_the_claim(replays):
    with pytest.raises(ClaimViolated) as violated:
        _check(_slowed(replays, "product_detail", 1.15))
    assert "meaningfully slower" in violated.value.claim
