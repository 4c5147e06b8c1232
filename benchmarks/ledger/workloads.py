"""The five workloads: what one repetition runs and what it hands back.

Every repetition builds the system afresh (that build is ``setup_s``),
runs one fixed piece of simulated work, and returns a :class:`Rep`.  The
work is a pure function of the repetition's *key* — sub-seed plus arm or
rung — so two repetitions with the same key must agree on ``sim_digest``
and on every exact counter; :func:`determinism_problems` checks that.

Every repetition of a run replays sub-seed ``seed * 1000`` (the ladder
first climbs its rungs once, rung ``k`` on sub-seed ``seed * 1000 + k``,
then replays the lowest): host time is steadied slice by slice across
replays of *identical* work (``measure.floor_sum``), and every replay is a
determinism check.  The timed region is cut into slices at simulated times
(kv: op counts), so the cuts fall at the same work in every replay.
"""

from __future__ import annotations

import bisect
import os
import random
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

import adapter
from measure import Meter, digest, percentile, proc_io, tree_bytes

#: Fewest replays of the measured key in a run (the lower quartile of
#: four is the second fastest).
MIN_REPLAYS = 4
#: Simulated service-level objective of the ladder (the ``ServingConfig``
#: default): p99 response time from arrival within 500 ms.
SLO_P99_MS = 500.0
LADDER_RATES = (150, 175, 200, 225, 250, 275)


#: The traced pass: ``(mode, repetition index)``.  Untraced repetitions
#: give the counts and the overhead's denominator, traced ones the ledger,
#: the profiled one the cross-check; all replay sub-seed 0.
TRACE_SCHEDULE = (("plain", 0), ("traced", 0), ("plain", 0), ("traced", 0),
                  ("plain", 0), ("profiled", 0))


def sub_seed(seed: int, index: int = 0) -> int:
    return seed * 1000 + index


@dataclass
class Probe:
    """What observes a repetition besides the two clocks (usually nothing)."""

    recorder: Any = None
    profiler: Any = None

    @property
    def plain(self) -> bool:
        """Nothing observes the repetition, so it may be sliced and probed."""
        return self.recorder is None and self.profiler is None


@dataclass
class Rep:
    """One repetition's measurements, as plain data."""

    key: Tuple[Any, ...]
    arm: str
    setup: Meter
    run: Meter
    units: int
    attempted: int
    failed: int
    responses_ms: List[float]
    operations: float
    rpcs: float
    sim_digest: str
    exact: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, float] = field(default_factory=dict)
    extra: Dict[str, float] = field(default_factory=dict)
    #: Simulated arrival time of each response (serving workloads only).
    arrivals: List[float] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)


def determinism_problems(reps: Sequence[Rep]) -> List[str]:
    """Repetitions with equal keys must agree on digest and exact counters."""
    problems: List[str] = []
    first: Dict[Tuple[Any, ...], Rep] = {}
    for rep in reps:
        seen = first.setdefault(rep.key, rep)
        if seen is rep:
            continue
        if rep.sim_digest != seen.sim_digest:
            problems.append(f"sim_digest differs between replays of {rep.key}")
        for name, value in rep.exact.items():
            if seen.exact.get(name) != value:
                problems.append(
                    f"{name} differs between replays of {rep.key}: "
                    f"{seen.exact.get(name)} vs {value}"
                )
    return problems


# ----------------------------------------------------------------------
# SQL workloads through the serving tier
# ----------------------------------------------------------------------
def _serving_rep(
    kind: str,
    seed: int,
    probe: Probe,
    *,
    key: Tuple[Any, ...],
    arm: str = "main",
    mode: str,
    duration: float,
    clients: int,
    think: float = 1.0,
    rate: float = 50.0,
    observed: bool = False,
    slices: int = 1,
) -> Rep:
    setup = Meter(recorder=probe.recorder, name="harness.setup",
                  sliced=probe.plain)
    with setup:
        db, workload = adapter.build_sql(kind, seed)
    hits_before, misses_before = adapter.row_cache_counts()
    run = Meter(recorder=probe.recorder, profiler=probe.profiler,
                sliced=probe.plain)
    with run:
        simulation, ticks = adapter.new_serving(
            db, workload, mode=mode, duration=duration, seed=seed,
            clients=clients, think=think, rate=rate, observed=observed,
            on_tick=run.mark if probe.plain else None, ticks=slices,
        )
        report = simulation.run()
    hits, misses = adapter.row_cache_counts()
    out = adapter.serving_outcome(db, workload, simulation, report, ticks)

    records = out["records"]
    units = out["completed"]
    client, node = out["client"], out["node"]
    utilisations: List[float] = []
    for _name, _ops, _response, _arrival, query_operations in records:
        for label, operations in query_operations:
            bound = out["bounds"].get(label)
            if bound:
                utilisations.append(operations / bound)
    over_bound = sum(1 for share in utilisations if share > 1.0)
    lookups = (hits - hits_before) + (misses - misses_before)
    per_unit = 1.0 / units if units else 0.0
    counts = {
        "kvstore.client.ops": client["operations"] * per_unit,
        "kvstore.client.rpcs": client["rpcs"] * per_unit,
        "kvstore.client.deref_rounds": client["dereference_rounds"] * per_unit,
        "kvstore.client.saved_reads": client["saved_reads"] * per_unit,
        "kvstore.cluster.keys_per_rpc": (
            client["keys_touched"] / client["rpcs"] if client["rpcs"] else 0.0
        ),
        "kvstore.node.utilization_mean": out["mean_utilization"],
        "kvstore.node.queue_wait_share": (
            node["queue_wait_seconds"] / node["total_latency_seconds"]
            if node["total_latency_seconds"] else 0.0
        ),
        "kvstore.node.keys_filtered": node["keys_filtered"] * per_unit,
        "replication.read_repairs": out["read_repairs"],
        "replication.hints_added": out["hints_added"],
        "storage.row_cache_hit_ratio": (
            (hits - hits_before) / lookups if lookups else 0.0
        ),
        "plans.bound_utilisation_max": max(utilisations, default=0.0),
        "plans.bound_utilisation_mean": (
            sum(utilisations) / len(utilisations) if utilisations else 0.0
        ),
        "serving.events": out["events"] * per_unit,
        "serving.shed": float(out["shed"]),
        "obs.retained_traces": float(out["retained_traces"]),
        "obs.dropped_roots": float(out["dropped_roots"]),
        "obs.scrapes": float(out["scrapes"]),
    }
    failed = out["failed"] + out["shed"] + out["bound_violations"] + over_bound
    problems = []
    if out["bound_violations"] or over_bound:
        problems.append(
            f"{out['bound_violations']} audited bound violations, "
            f"{over_bound} query steps over their static bound"
        )
    if out["failed"] or out["shed"]:
        problems.append(f"{out['failed']} failed, {out['shed']} shed")
    return Rep(
        key=key,
        arm=arm,
        setup=setup,
        run=run,
        units=units,
        attempted=units + out["failed"] + out["shed"],
        failed=failed,
        responses_ms=[response * 1000.0 for _n, _o, response, _a, _q in records],
        operations=float(sum(ops for _n, ops, _r, _a, _q in records)),
        rpcs=client["rpcs"],
        sim_digest=digest(
            [units, [(n, o, r) for n, o, r, _a, _q in records], client["rpcs"]]
        ),
        counts=counts,
        arrivals=[arrival for _n, _o, _r, arrival, _q in records],
        problems=problems,
    )


class Serving:
    """A TPC-W or SCADr workload driven through the serving tier."""

    unit = "interaction"
    unit_roots = adapter.SQL_UNIT_ROOTS

    def __init__(self, name: str, why: str, kind: str, clients: int,
                 think: float, duration: float, slices: int):
        self.name, self.why, self.kind = name, why, kind
        self.clients, self.think, self.duration = clients, think, duration
        #: Cuts of one repetition's timed region (about 17 ms of host time each).
        self.slices = slices

    def cuts(self, scale: float) -> int:
        return max(1, round(self.slices * scale))

    def trace_schedule(self) -> List[Tuple[str, int]]:
        return list(TRACE_SCHEDULE)


class ClosedLoop(Serving):
    """A fixed population of think-time clients (closed loop)."""

    min_reps = MIN_REPLAYS

    def reps(self, seed: int, index: int, scale: float, probe: Probe) -> List[Rep]:
        sub = sub_seed(seed)
        return [_serving_rep(
            self.kind, sub, probe, key=(sub, scale), mode="closed",
            duration=self.duration * scale, clients=self.clients,
            think=self.think, slices=self.cuts(scale),
        )]


class Observed(ClosedLoop):
    """``tpcw_closed`` with the product's own observability on, in pairs.

    Each repetition runs the plain arm and the observed arm back to back on
    the same sub-seed, order alternating, so slow drift of the box cancels
    in the pair's ratio.  Observation must not change the work: the two
    arms' digests must match.
    """

    min_reps = MIN_REPLAYS

    def reps(self, seed: int, index: int, scale: float, probe: Probe) -> List[Rep]:
        sub = sub_seed(seed)
        arms = ["plain", "main"] if index % 2 == 0 else ["main", "plain"]
        if not probe.plain:
            arms = ["main"]
        out = [
            _serving_rep(
                self.kind, sub, probe, key=(sub, scale, arm), arm=arm,
                mode="closed", duration=self.duration * scale,
                clients=self.clients, think=self.think, observed=arm == "main",
                slices=self.cuts(scale),
            )
            for arm in arms
        ]
        if len(out) == 2 and out[0].sim_digest != out[1].sim_digest:
            out[-1].problems.append(
                "observed arm's sim_digest differs from the plain arm's"
            )
        return out


class OpenLadder(Serving):
    """Poisson arrivals at fixed rates (open loop): one repetition per rung,
    then replays of the lowest rung, which give the ladder's host time."""

    min_reps = len(LADDER_RATES) + MIN_REPLAYS - 1
    #: The rung whose response times are the ladder's latency sample: the
    #: lowest, well under the knee.  (At 200/s the median sits on the knee
    #: and moves 3x between seeds; at 175/s it still moves 10%.)
    latency_rate = 150.0
    #: The rung the traced and profiled passes run (below the knee).
    traced_rung = LADDER_RATES.index(200)

    def reps(self, seed: int, index: int, scale: float, probe: Probe) -> List[Rep]:
        # Each rung draws its own sub-seed: independent replications, and
        # the ladder's per-interaction counts average over six data sets.
        rung = index if index < len(LADDER_RATES) else 0
        sub = sub_seed(seed, rung)
        rate = LADDER_RATES[rung]
        rep = _serving_rep(
            self.kind, sub, probe, key=(sub, scale, rate), mode="open",
            duration=self.duration * scale, clients=self.clients,
            rate=float(rate), slices=self.cuts(scale * rate / LADDER_RATES[0]),
        )
        rep.extra["rate"] = float(rate)
        rep.extra["duration"] = self.duration * scale
        return [rep]

    def trace_schedule(self) -> List[Tuple[str, int]]:
        rungs = [("plain", i) for i in range(len(LADDER_RATES))]
        return rungs + [("traced", self.traced_rung), ("profiled", self.traced_rung)]


def rung_meets_slo(rep: Rep) -> bool:
    """Whole-run p99 within the SLO, nothing failed, and no growing backlog
    (last-third mean response at most twice the first third's)."""
    if rep.failed or not rep.responses_ms:
        return False
    if percentile(sorted(rep.responses_ms), 0.99) > SLO_P99_MS:
        return False
    third = rep.extra["duration"] / 3.0
    early = [r for r, a in zip(rep.responses_ms, rep.arrivals) if a < third]
    late = [r for r, a in zip(rep.responses_ms, rep.arrivals) if a >= 2 * third]
    if not early or not late:
        return False
    return sum(late) / len(late) <= 2.0 * sum(early) / len(early)


# ----------------------------------------------------------------------
# Key/value workload on the LSM engine
# ----------------------------------------------------------------------
class KvLsmMixed:
    """Seeded put/get/delete/range mix straight onto a replicated LSM cluster."""

    name = "kv_lsm_mixed"
    why = ("No SQL: quorum N=3 writes beside reads on real files; the only "
           "workload where kvstore.engine (WAL, segments, compaction, "
           "recovery) works at all")
    unit = "kv op"
    min_reps = MIN_REPLAYS
    unit_roots = adapter.KV_UNIT_ROOTS
    preload_keys = 8000
    operations = 12500
    value_bytes = 110
    maintenance_every = 500
    #: The op loop's timed region is cut every so many ops (about 20 ms).
    slice_every = 100
    range_limit = 20

    def __init__(self, workdir: str):
        self.workdir = workdir

    def trace_schedule(self) -> List[Tuple[str, int]]:
        return list(TRACE_SCHEDULE)

    @staticmethod
    def _key(number: int) -> bytes:
        return b"k%08d" % number

    def reps(self, seed: int, index: int, scale: float, probe: Probe) -> List[Rep]:
        sub = sub_seed(seed)
        os.makedirs(self.workdir, exist_ok=True)
        data_dir = tempfile.mkdtemp(prefix="lsm-", dir=self.workdir)
        try:
            return [self._rep(sub, scale, probe, data_dir)]
        finally:
            shutil.rmtree(data_dir, ignore_errors=True)

    def _rep(self, sub: int, scale: float, probe: Probe, data_dir: str) -> Rep:
        rng = random.Random(sub)
        preload = max(200, int(self.preload_keys * scale))
        operations = max(500, int(self.operations * scale))
        keyspace = preload * 2
        model: Dict[bytes, bytes] = {}

        def initial():
            for number in range(0, keyspace, 2):
                key, value = self._key(number), rng.randbytes(self.value_bytes)
                model[key] = value
                yield key, value

        setup = Meter(recorder=probe.recorder, name="harness.setup",
                      sliced=probe.plain)
        with setup:
            store = adapter.KvStore(data_dir)
            store.bulk_load(initial())

        # The program receives only generated inputs: the op sequence is
        # drawn before the timed region and checked against the model after
        # it, so the region holds (almost) nothing but the program's work.
        plan: List[Tuple[str, bytes, bytes]] = []
        for _ in range(operations):
            draw = rng.random()
            key = self._key(rng.randrange(keyspace))
            if draw < 0.45:
                plan.append(("put", key, rng.randbytes(self.value_bytes)))
            elif draw < 0.85:
                plan.append(("get", key, b""))
            elif draw < 0.90:
                plan.append(("delete", key, b""))
            else:
                end = self._key(min(keyspace, int(key[1:]) + 64))
                plan.append(("range", key, end))

        results: List[Any] = []
        done = results.append
        put, get, delete, scan = store.put, store.get, store.delete, store.scan
        limit, every = self.range_limit, self.maintenance_every
        cut = self.slice_every
        io_before = proc_io()
        run = Meter(recorder=probe.recorder, profiler=probe.profiler,
                    sliced=probe.plain)
        with run:
            for step, (kind, key, argument) in enumerate(plan, 1):
                now = step * 0.001
                if kind == "put":
                    done(put(key, argument, now))
                elif kind == "get":
                    done(get(key, now))
                elif kind == "delete":
                    done(delete(key, now))
                else:
                    done(scan(key, argument, limit, now))
                if step % every == 0:
                    store.maintain(2)
                if step % cut == 0:
                    run.mark()
        io_after = proc_io()
        node = store.node_counters()

        # Read-your-writes under R + W > N: replay the plan against a dict.
        ordered = sorted(model)
        wrong_reads = gets = user_bytes = 0
        for (kind, key, argument), result in zip(plan, results):
            if kind == "put":
                if key not in model:
                    bisect.insort(ordered, key)
                model[key] = argument
                user_bytes += len(key) + len(argument)
            elif kind == "get":
                gets += 1
                wrong_reads += result.value != model.get(key)
            elif kind == "delete":
                if model.pop(key, None) is not None:
                    del ordered[bisect.bisect_left(ordered, key)]
                user_bytes += len(key)
            else:
                low = bisect.bisect_left(ordered, key)
                high = min(bisect.bisect_left(ordered, argument), low + limit)
                expected = [(k, model[k]) for k in ordered[low:high]]
                wrong_reads += list(result.value) != expected
        trail = [
            (kind, result.keys_touched, result.latency_seconds)
            for (kind, _key, _argument), result in zip(plan, results)
        ]

        recover = Meter(recorder=probe.recorder, name="harness.recover",
                        sliced=probe.plain)
        with recover:
            store.crash_and_recover(1)
        replayed = store.gauges().get("wal_records_replayed", 0.0)
        # No acknowledged write may be lost across the crash: every key the
        # run wrote or deleted is read back latency-free, and a sample of the
        # whole key space through the quorum path (which now includes the
        # recovered node).
        written = {key for kind, key, _argument in plan if kind in ("put", "delete")}
        lost = sum(1 for key in written if store.peek(key) != model.get(key))
        sample = random.Random(sub ^ 0x5EED)
        for _ in range(200):
            key = self._key(sample.randrange(keyspace))
            if store.get(key, operations * 0.001).value != model.get(key):
                lost += 1

        gauges_before_drain = store.gauges()
        store.drain_maintenance()
        gauges = store.gauges()
        live_bytes = sum(len(k) + len(v) for k, v in model.items())
        space = tree_bytes(data_dir)
        store.close()

        io = {
            name: (io_after[name] - io_before[name])
            if io_before is not None and io_after is not None else 0
            for name in ("wchar", "rchar", "syscw")
        }
        rpcs = node["gets"] + node["puts"] + node["range_requests"]
        keys = node["keys_read"] + node["keys_written"]
        exact = {
            "wchar": float(io["wchar"]),
            "syscw": float(io["syscw"]),
            "flushes": gauges_before_drain.get("flushes", 0.0),
            "compactions": gauges_before_drain.get("compactions", 0.0),
        }
        counts = {
            "kvstore.cluster.keys_per_rpc": keys / rpcs if rpcs else 0.0,
            "replication.read_repairs": node["read_repairs"],
            "replication.hints_added": node["hints_added"],
            "kvstore.node.keys_filtered": node["keys_filtered"] / operations,
            "kvstore.engine.flushes": gauges_before_drain.get("flushes", 0.0),
            "kvstore.engine.compactions": gauges_before_drain.get("compactions", 0.0),
            "kvstore.engine.segments_final": gauges.get("segment_count", 0.0),
            "kvstore.engine.write_syscalls": float(io["syscw"]),
            "kvstore.engine.wal_records_replayed": replayed,
        }
        extra = {
            "disk_write_amp": io["wchar"] / user_bytes if user_bytes else 0.0,
            "disk_read_bytes_per_get": io["rchar"] / gets if gets else 0.0,
            "disk_space_amp": (
                space / (live_bytes * adapter.KV_REPLICATION) if live_bytes else 0.0
            ),
            "recover_s": sum(recover.steady_walls()),
        }
        problems = []
        if wrong_reads:
            problems.append(f"{wrong_reads} reads disagreed with the model")
        if lost:
            problems.append(f"{lost} acknowledged writes lost across recovery")
        return Rep(
            key=(sub, scale),
            arm="main",
            setup=setup,
            run=run,
            units=operations,
            attempted=operations,
            failed=wrong_reads + lost,
            # The latency sample is the quorum reads: over all ops p99 falls
            # exactly on the 1.2% straggler boundary and flips between seeds.
            responses_ms=[
                result.latency_seconds * 1000.0
                for (kind, _key, _argument), result in zip(plan, results)
                if kind == "get"
            ],
            operations=keys,
            rpcs=rpcs,
            sim_digest=digest([operations, trail, rpcs]),
            exact=exact,
            counts=counts,
            extra=extra,
            problems=problems,
        )


def all_workloads(workdir: str) -> List[Any]:
    """The five workloads, in the order the benchmark reports them."""
    return [
        ClosedLoop(
            "tpcw_closed",
            "Paper's headline mix (30% writes), data fits the row cache: "
            "kvstore.cluster routing, latency sampling, storage writes and "
            "obs counters do their largest share here",
            kind="tpcw", clients=50, think=0.5, duration=40.0, slices=160,
        ),
        ClosedLoop(
            "scadr_closed",
            "Read-dominated range/merge home page over data larger than the "
            "row cache: execution and replication.merged_range dominate, "
            "storage writes are idle",
            kind="scadr", clients=20, think=2.0, duration=110.0, slices=150,
        ),
        OpenLadder(
            "tpcw_open_ladder",
            "Open-loop Poisson ladder 150-275/s against the p99<=500ms SLO: "
            "shows design changes on the simulated clock, proves host-only "
            "changes moved nothing",
            kind="tpcw", clients=50, think=0.0, duration=15.0, slices=90,
        ),
        Observed(
            "tpcw_observed",
            "tpcw_closed with telemetry+forensics on, paired with a plain "
            "arm: the only workload where obs does most of its work",
            kind="tpcw", clients=50, think=0.5, duration=20.0, slices=100,
        ),
        KvLsmMixed(workdir),
    ]
