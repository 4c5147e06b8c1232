"""Self-test of the benchmark's own machinery.

Run as ``python benchmarks/ledger/run.py --selftest`` or
``pytest benchmarks/ledger/selftest.py``.  The file is not named
``test_*`` / ``bench_*``, so neither the tier-1 suite nor
``pytest benchmarks/`` collects it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import adapter  # noqa: E402
import catalogue  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    """Advances by hand, so span arithmetic can be checked exactly."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


class Toy:
    """A three-level call tree: outer -> middle x2 -> leaf."""

    def __init__(self, clock: FakeClock):
        self.clock = clock

    def outer(self) -> str:
        self.clock.now += 5
        self.middle(3)
        self.clock.now += 7
        self.middle(11)
        return "done"

    def middle(self, cost: int) -> None:
        self.clock.now += cost
        self.leaf()
        self.clock.now += 1

    def leaf(self) -> None:
        self.clock.now += 2


def _toy_recorder():
    clock = FakeClock()
    recorder = spans.Recorder(clock=clock)
    targets = [
        ("top", "Toy.outer", Toy, "outer", vars(Toy)["outer"]),
        ("mid", "Toy.middle", Toy, "middle", vars(Toy)["middle"]),
        ("low", "Toy.leaf", Toy, "leaf", vars(Toy)["leaf"]),
    ]
    patches = spans.install(recorder, targets, unit_roots=("Toy.outer",))
    try:
        assert Toy(clock).outer() == "done"
        assert Toy(clock).outer() == "done"
    finally:
        spans.uninstall(patches)
    return recorder


def test_span_nesting_and_units():
    recorder = _toy_recorder()
    names = [recorder.names[i] for i in recorder.name_ids]
    assert names == ["Toy.outer", "Toy.middle", "Toy.leaf",
                     "Toy.middle", "Toy.leaf"] * 2
    assert list(recorder.parents) == [-1, 0, 1, 0, 3, -1, 5, 6, 5, 8]
    # Two calls of the unit root: two units, and every span carries its own.
    assert list(recorder.units) == [0] * 5 + [1] * 5
    assert recorder.stack == [] and recorder.unit == -1


def test_self_time_arithmetic_closes():
    recorder = _toy_recorder()
    book = spans.ledger(recorder)
    # One outer call: 5 + 7 own, middles 3+1 and 11+1 own, leaves 2 each.
    assert book["layers"]["top"] == {"self_ns": 2 * 12, "calls": 2}
    assert book["layers"]["mid"] == {"self_ns": 2 * 16, "calls": 4}
    assert book["layers"]["low"] == {"self_ns": 2 * 4, "calls": 4}
    total = sum(entry["self_ns"] for entry in book["layers"].values())
    assert abs(total - book["total_ns"]) <= 1e-9 * book["total_ns"]
    assert book["total_ns"] == 2 * 32
    # A window that starts inside the tree treats cut-off children as roots.
    own, roots = spans.self_times(
        recorder.starts, recorder.ends, recorder.parents, first=1, last=5
    )
    assert sum(own) == roots == (3 + 2 + 1) + (11 + 2 + 1)


def test_exception_unwinds_the_span_stack():
    clock = FakeClock()
    recorder = spans.Recorder(clock=clock)

    class Boom:
        def go(self):
            raise KeyError("boom")

    patches = spans.install(
        recorder, [("x", "Boom.go", Boom, "go", vars(Boom)["go"])]
    )
    try:
        try:
            Boom().go()
        except KeyError:
            pass
    finally:
        spans.uninstall(patches)
    assert recorder.stack == [] and len(recorder) == 1


def test_wrappers_are_fully_removed():
    targets, missing = adapter.resolve_targets()
    assert missing == 0, "a wrap target listed in adapter.py no longer resolves"
    before = [vars(owner)[attribute] for _l, _n, owner, attribute, _f in targets]
    recorder = spans.Recorder()
    patches = spans.install(recorder, targets, aliases_of=adapter.aliases_of)
    wrapped = [vars(owner)[attribute] for _l, _n, owner, attribute, _f in targets]
    assert all(a is not b for a, b in zip(before, wrapped))
    spans.uninstall(patches)
    after = [vars(owner)[attribute] for _l, _n, owner, attribute, _f in targets]
    assert all(a is b for a, b in zip(before, after))
    # Functions imported by name elsewhere are restored there too.
    from repro.engine import database
    from repro.sql import parser
    assert database.parse is parser.parse


def test_missing_targets_are_counted_not_fatal():
    saved = list(adapter.WRAP_TARGETS)
    adapter.WRAP_TARGETS.append(("obs", "repro.obs.metrics", "MetricsRegistry.gone"))
    adapter.WRAP_TARGETS.append(("obs", "repro.no_such_module", "Thing.method"))
    try:
        _targets, missing = adapter.resolve_targets()
    finally:
        adapter.WRAP_TARGETS[:] = saved
    assert missing == 2


def test_dropped_knobs_are_counted_not_fatal():
    import dataclasses

    @dataclasses.dataclass
    class Config:
        kept: int = 0

    built = adapter.build(Config, kept=3, retired_arm=True)
    assert built.kept == 3
    assert any(label.endswith("Config.retired_arm") for label in adapter.DROPPED_KNOBS)
    adapter.DROPPED_KNOBS[:] = [
        label for label in adapter.DROPPED_KNOBS
        if not label.endswith("Config.retired_arm")
    ]


def test_steady_and_floor_sum_arithmetic():
    ref = measure.PROBE_REFERENCE_S
    # At the reference state a slice is left alone; where the probe reads
    # double, a slice that is 60% core-bound cost 1.6x and is scaled back.
    steady = measure.steady([1.0, 1.6], [ref, ref, 2 * ref], share=0.6)
    assert all(abs(value - 1.0) < 1e-12 for value in steady)
    assert measure.steady([1.0], [], share=0.6) == [1.0]
    # Slice by slice the lower-quartile replay: of four the second fastest.
    assert measure.floor_sum([[1, 9], [2, 8], [3, 7], [4, 6]]) == 2 + 7
    assert measure.floor_sum([[1, 9], [2, 8]]) == 1 + 8


def _tiny_rep(seed: int, probe=None):
    closed = workloads.all_workloads(run.WORK_ROOT)[0]
    return closed.reps(seed, 0, 2.0 / closed.duration,
                       probe or workloads.Probe())[0]


def test_slicing_does_not_change_the_work():
    sliced = _tiny_rep(13)
    # An observed repetition is not sliced: no tick enters the event kernel.
    whole = _tiny_rep(13, workloads.Probe(recorder=spans.Recorder()))
    assert len(sliced.run.walls) == 8 and len(sliced.run.probes) == 9
    assert len(whole.run.walls) == 1 and not whole.run.probes
    assert sliced.sim_digest == whole.sim_digest
    assert sliced.counts == whole.counts


def test_seed_changes_digest_and_same_seed_repeats_it():
    first, again, other = _tiny_rep(13), _tiny_rep(13), _tiny_rep(14)
    assert first.sim_digest == again.sim_digest
    assert first.sim_digest != other.sim_digest
    assert not workloads.determinism_problems([first, again])
    again.sim_digest = other.sim_digest
    assert workloads.determinism_problems([first, again])


def _smoke(name: str, scale: float, trace: int) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", name, "--seed", "13", "--seconds", "0",
                         "--scale", repr(scale), "--trace", str(trace)])
    assert code == 0
    return json.loads(out.getvalue().strip().split("\n")[-1])


def test_two_simulated_second_smoke_of_every_workload():
    for workload in workloads.all_workloads(run.WORK_ROOT):
        scale = 2.0 / getattr(workload, "duration", 40.0)
        for trace, listed in ((0, catalogue.END_TO_END), (1, catalogue.PER_LAYER)):
            result = _smoke(workload.name, scale, trace)
            assert result["correct"], (workload.name, trace)
            assert result["attempted"] >= 1 and result["failed"] == 0
            assert set(result["metrics"]) == {row[0] for row in listed}
    assert not os.path.exists(run.WORK_ROOT), "scratch files left behind"


def test_manifest_matches_benchmark_json():
    path = os.path.join(adapter.REPO_ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return
    with open(path, "r", encoding="utf-8") as handle:
        committed = json.load(handle)
    assert committed == catalogue.manifest(workloads.all_workloads(run.WORK_ROOT))
    names = [m["name"] for m in committed["end_to_end"] + committed["per_layer"]]
    assert len(names) == len(set(names)) and len(committed["per_layer"]) <= 128


def main() -> int:
    tests = [(name, item) for name, item in sorted(globals().items())
             if name.startswith("test_") and callable(item)]
    failed = 0
    for name, test in tests:
        try:
            test()
        except Exception as error:  # report every failing check, then fail
            failed += 1
            print(f"FAIL {name}: {type(error).__name__}: {error}")
        else:
            print(f"ok   {name}")
    print(f"{len(tests) - failed}/{len(tests)} self-tests passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
