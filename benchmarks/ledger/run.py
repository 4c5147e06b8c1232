"""The two-clock benchmark: one command, every metric by name with its unit.

    python benchmarks/ledger/run.py [--seed N] [--traced] [--profile] [--out FILE]
        every workload, each in its own single-threaded subprocess
    python benchmarks/ledger/run.py --workload NAME --seed N --seconds S --trace 0|1
        one workload in this process; the last line of stdout is one JSON
        object {"correct", "attempted", "failed", "metrics"}
    python benchmarks/ledger/run.py --compare A.json B.json [--out FILE]
    python benchmarks/ledger/run.py --workload NAME --calibrate SECONDS
    python benchmarks/ledger/run.py --selftest

``sim_*`` metrics are on the simulated clock and exact for a seed; every
other timing is host time, in steady seconds (measure.py).  See README.md.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import shutil
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

try:
    import adapter
except ImportError as error:
    # A directory without the program under test: no result, nonzero exit.
    print(f"benchmarks/ledger: cannot import the program under test "
          f"(src/repro): {error}", file=sys.stderr)
    raise SystemExit(2)
import catalogue
import crosscheck
import measure
import spans
import workloads
from workloads import Probe, Rep

WORK_ROOT = os.path.join(HERE, ".work")
DEFAULT_SEED = 13
#: A run stops adding repetitions here even if ``--seconds`` is not used up.
MAX_REPS_FACTOR = 4
SPAN_DUMP_LIMIT = 200_000

END_TO_END_UNITS = {name: unit for name, unit, *_rest in catalogue.END_TO_END}
PER_LAYER_UNITS = {name: unit for name, unit, *_rest in catalogue.PER_LAYER}


# ----------------------------------------------------------------------
# One workload, untraced: the end-to-end metrics
# ----------------------------------------------------------------------
def distinct(reps: Sequence[Rep]) -> List[Rep]:
    """The first repetition of each key (replays left out)."""
    seen, out = set(), []
    for rep in reps:
        if rep.key not in seen:
            seen.add(rep.key)
            out.append(rep)
    return out


def untraced_pass(workload: Any, seed: int, seconds: float, scale: float
                  ) -> List[Rep]:
    """At least ``min_reps`` repetitions; more while they fit in ``seconds``."""
    reps: List[Rep] = []
    started = time.perf_counter()
    index, last = 0, 0.0
    while index < workload.min_reps * MAX_REPS_FACTOR:
        elapsed = time.perf_counter() - started
        # One more only if at least half of it fits, so a run ends near
        # ``seconds`` whatever a repetition costs.
        if index >= workload.min_reps and elapsed + last / 2 >= seconds:
            break
        reps.extend(workload.reps(seed, index, scale, Probe()))
        index += 1
        last = time.perf_counter() - started - elapsed
    return reps


def latency_sample(workload: Any, reps: Sequence[Rep]) -> List[float]:
    """The pooled, sorted simulated response times a workload reports."""
    rate = getattr(workload, "latency_rate", None)
    if rate is not None:
        reps = [rep for rep in reps if rep.extra["rate"] == rate]
    return sorted(ms for rep in reps for ms in rep.responses_ms)


def measured(reps: Sequence[Rep]) -> List[Rep]:
    """The replays whose host time is reported: the main arm's first key."""
    main = [rep for rep in reps if rep.arm == "main"]
    return [rep for rep in main if rep.key == main[0].key]


def host_time(reps: Sequence[Rep]) -> Dict[str, float]:
    """Steady host time of the measured key (see ``measure.py``)."""
    replays = measured(reps)
    units = replays[0].units
    # Every repetition built on the measured key's data set up the same.
    same_data = [rep for rep in reps if rep.key[0] == replays[0].key[0]]
    return {
        "throughput_per_core_s": units / measure.floor_sum(
            [rep.run.steady_cores() for rep in replays]),
        "throughput_per_wall_s": units / measure.floor_sum(
            [rep.run.steady_walls() for rep in replays]),
        "setup_s": measure.median(
            [sum(rep.setup.steady_walls()) for rep in same_data]),
    }


def end_to_end(workload: Any, reps: Sequence[Rep]
               ) -> Tuple[Dict[str, float], Dict[str, Any]]:
    main = [rep for rep in reps if rep.arm == "main"]
    first = distinct(main)
    pooled = latency_sample(workload, first)
    units = sum(rep.units for rep in first)
    attempted = sum(rep.attempted for rep in reps)
    values = {
        **host_time(reps),
        "peak_rss_mb": measure.peak_rss_mb(),
        "sim_p50_ms": measure.percentile(pooled, 0.50),
        "kv_ops_per_interaction": sum(r.operations for r in first) / units,
        "rpc_rounds_per_interaction": sum(r.rpcs for r in first) / units,
        "ok_share": 1.0 - sum(rep.failed for rep in reps) / attempted,
    }
    replays = measured(reps)
    raw = {
        "throughput_per_core_s": [rep.units / rep.run.core_s for rep in replays],
        "throughput_per_wall_s": [rep.units / rep.run.wall_s for rep in replays],
        "setup_s": [rep.setup.wall_s for rep in reps],
        "state_probe_ms": [probe * 1000.0 for rep in replays
                           for probe in rep.run.probes],
    }
    detail = {
        "repetitions": len(main),
        "replays_of_measured_key": len(replays),
        "slices_per_replay": len(replays[0].run.walls),
        "latency_samples": len(pooled),
        "tail_percentile_supported": measure.tail_fraction(len(pooled)),
        # Host time as the clocks read it, before measure.steady.
        "raw_per_repetition": {name: raw[name] for name in
                               ("throughput_per_core_s", "throughput_per_wall_s",
                                "setup_s")},
        "raw_quartiles": {name: measure.quartiles(samples)
                          for name, samples in raw.items()},
        "sim_digest": {repr(rep.key): rep.sim_digest for rep in distinct(reps)},
    }
    return values, detail


def one_workload_metrics(workload: Any, reps: Sequence[Rep]) -> Dict[str, float]:
    """ISSUE.md's end-to-end metrics that cannot be in the driver's list
    (see catalogue.py); computed from untraced repetitions in either pass."""
    main = [rep for rep in reps if rep.arm == "main"]
    first = distinct(main)
    replays = measured(reps)
    values = {
        "sim_p99_ms": measure.percentile(latency_sample(workload, first), 0.99),
        "failed_share": (
            sum(rep.failed for rep in reps) / sum(rep.attempted for rep in reps)
        ),
        "host.raw_throughput_per_core_s": measure.median(
            [rep.units / rep.run.core_s for rep in replays]),
        "host.calib_kernel_ms": 1000.0 * measure.median(
            [probe for rep in replays for probe in rep.run.probes]),
    }
    if isinstance(workload, workloads.OpenLadder):
        meeting = [rep.extra["rate"] for rep in first
                   if workloads.rung_meets_slo(rep)]
        for rep in first:
            values[f"serving.p99_ms.r{int(rep.extra['rate'])}"] = (
                measure.percentile(sorted(rep.responses_ms), 0.99)
            )
        values["serving.rungs_meeting_slo"] = float(len(meeting))
        values["sim_slo_max_rate_per_s"] = max(meeting, default=0.0)
    if isinstance(workload, workloads.Observed):
        values["obs_overhead_ratio"] = (
            measure.floor_sum([rep.run.steady_cores() for rep in replays])
            / measure.floor_sum([rep.run.steady_cores() for rep in reps
                                 if rep.arm == "plain"])
        )
    if isinstance(workload, workloads.KvLsmMixed):
        for name in ("disk_write_amp", "disk_read_bytes_per_get",
                     "disk_space_amp", "recover_s"):
            values[name] = measure.median([rep.extra[name] for rep in main])
    return values


# ----------------------------------------------------------------------
# One workload, traced: the per-layer metrics
# ----------------------------------------------------------------------
#: A traced repetition with its run-region ledger and span-only figures.
Traced = Tuple[Rep, Dict[str, Any], Dict[str, float]]


def traced_pass(workload: Any, seed: int, scale: float) -> Dict[str, Any]:
    targets, missing = adapter.resolve_targets()
    plain: List[Rep] = []
    traced: List[Traced] = []
    recorder = profiler = None
    for mode, index in workload.trace_schedule():
        if mode == "plain":
            plain.extend(workload.reps(seed, index, scale, Probe()))
        elif mode == "traced":
            recorder = spans.Recorder()
            patches = spans.install(
                recorder, targets, workload.unit_roots, adapter.aliases_of
            )
            try:
                rep = workload.reps(seed, index, scale, Probe(recorder=recorder))[-1]
            finally:
                spans.uninstall(patches)
            traced.append((rep, *read_spans(recorder, rep)))
        else:
            # Shares do not depend on the horizon, so the profiled
            # repetition runs half of it: cProfile triples the cost.
            profiler = cProfile.Profile()
            workload.reps(seed, index, scale * 0.5, Probe(profiler=profiler))
    return {"plain": plain, "traced": traced, "recorder": recorder,
            "profiler": profiler, "missing": missing}


#: Calls whose spans give figures no public statistic does.
SPAN_FIGURE_NAMES = (
    "PiqlOptimizer.optimize", "PiqlDatabase.execute_ddl",
    "PiqlDatabase.bulk_load", "LsmEngine.bulk_load", "Workload.prepare_all",
    "LsmEngine.run_maintenance", "Tracer.start_span", "Tracer.record",
)


def read_spans(recorder: spans.Recorder, rep: Rep
               ) -> Tuple[Dict[str, Any], Dict[str, float]]:
    """The run region's ledger, and the figures only spans can give."""
    setup, run = rep.setup, rep.run
    ledger = spans.ledger(recorder, run.first_span, run.last_span)
    found = spans.indices_of(
        recorder, SPAN_FIGURE_NAMES, setup.first_span, run.last_span
    )

    def inside(name: str, region: Any) -> List[int]:
        return [i for i in found[name]
                if region.first_span <= i < region.last_span]

    def total_s(name: str, region: Any) -> float:
        return sum(recorder.duration(i) for i in inside(name, region)) / 1e9

    optimize = "PiqlOptimizer.optimize"
    compiles = sorted(recorder.duration(i) for i in found[optimize])
    units = rep.units or 1
    figures = {
        "optimizer.compiles": sum(
            1 for i in inside(optimize, run) if recorder.units[i] >= 0
        ) / units,
        "optimizer.compile_ms_p50": (
            compiles[len(compiles) // 2] / 1e6 if compiles else 0.0
        ),
        "setup.ddl_s": total_s("PiqlDatabase.execute_ddl", setup),
        "setup.bulk_load_s": (
            total_s("PiqlDatabase.bulk_load", setup)
            + total_s("LsmEngine.bulk_load", setup)
        ),
        "setup.prepare_all_s": total_s("Workload.prepare_all", setup),
        "obs.spans": (
            len(inside("Tracer.start_span", run))
            + len(inside("Tracer.record", run))
        ) / units,
        "kvstore.engine.maintenance_self_us": (
            total_s("LsmEngine.run_maintenance", run) * 1e6 / units
        ),
    }
    return ledger, figures


def per_layer(workload: Any, run: Dict[str, Any]
              ) -> Tuple[Dict[str, float], Dict[str, Any]]:
    plain: List[Rep] = run["plain"]
    traced: List[Traced] = run["traced"]
    traced_key = traced[0][0].key
    same_work = [rep for rep in plain
                 if rep.arm == "main" and rep.key == traced_key]
    values: Dict[str, float] = dict(same_work[0].counts)
    values.update(one_workload_metrics(workload, plain))

    # The ledger: per-layer medians over the traced repetitions.
    units = traced[0][0].units or 1
    for layer in adapter.LAYERS + ("harness",):
        entries = [ledger["layers"].get(layer, {"self_ns": 0, "calls": 0})
                   for _rep, ledger, _figures in traced]
        values[f"{layer}.self_us"] = (
            measure.median([e["self_ns"] for e in entries]) / 1000.0 / units
        )
        values[f"{layer}.calls"] = (
            measure.median([e["calls"] for e in entries]) / units
        )
    del values["harness.calls"]
    for name in traced[0][2]:
        values[name] = measure.median([figures[name] for _r, _l, figures in traced])
    values["ledger.closure_error"] = max(
        abs(ledger["total_ns"] - rep.run.wall_s * 1e9) / (rep.run.wall_s * 1e9)
        for rep, ledger, _figures in traced
    )
    values["ledger.unwrapped_targets"] = float(run["missing"])
    values["trace.overhead_ratio"] = (
        measure.median([rep.run.core_s for rep, _l, _f in traced])
        / measure.median([rep.run.core_s for rep in same_work])
    )
    values["host.rep_iqr_share"] = measure.iqr_share(
        [rep.run.core_s for rep in same_work]
    )

    last_ledger = traced[-1][1]
    ledger_shares = crosscheck.ledger_shares(last_ledger["layers"])
    profile_shares = crosscheck.profile_shares(run["profiler"])
    values["ledger.profile_disagreement_max"] = max(
        crosscheck.disagreement(ledger_shares, profile_shares).values()
    )
    every = plain + [rep for rep, _l, _f in traced]
    detail = {
        "ledger_names": last_ledger["names"],
        "ledger_total_us_per_unit": last_ledger["total_ns"] / 1000.0 / units,
        "spans_in_run": last_ledger["spans"],
        "ledger_shares": ledger_shares,
        "profile_shares": profile_shares,
        "dropped_knobs": list(adapter.DROPPED_KNOBS),
        "sim_digest": {repr(rep.key): rep.sim_digest for rep in distinct(every)},
    }
    return values, detail


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def print_metrics(title: str, values: Dict[str, float], units: Dict[str, str]
                  ) -> None:
    """The metrics that apply, in catalogue order, by name with unit."""
    rows = [(name, values[name], unit) for name, unit in units.items()
            if name in values]
    print(f"== {title}")
    width = max((len(name) for name, _v, _u in rows), default=0)
    for name, value, unit in rows:
        print(f"  {name:<{width}}  {value:>14.6g} {unit}")


def write_spans(run: Dict[str, Any], path: str, detail: Dict[str, Any]) -> None:
    """Write the last traced repetition's spans (and a Chrome trace)."""
    rep = run["traced"][-1][0]
    rows, dropped = spans.span_rows(
        run["recorder"], rep.run.first_span, rep.run.last_span, SPAN_DUMP_LIMIT
    )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"spans": rows, "dropped_spans": dropped,
                   "ledger": detail["ledger_names"]}, handle)
    spans.write_chrome_trace(path + ".chrome.json", rows, dropped)
    print(f"  wrote {len(rows)} spans ({dropped} over the cap, counted) to {path}")


def run_one(args: argparse.Namespace) -> int:
    workdir = os.path.join(WORK_ROOT, str(os.getpid()))
    known = {w.name: w for w in workloads.all_workloads(workdir)}
    if args.workload not in known:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(known)}", file=sys.stderr)
        return 2
    workload = known[args.workload]
    adapter.use_scratch_dir(workdir)
    try:
        if args.trace:
            run = traced_pass(workload, args.seed, args.scale)
            values, detail = per_layer(workload, run)
            reps = run["plain"] + [rep for rep, _l, _f in run["traced"]]
            units = PER_LAYER_UNITS
            if args.out:
                write_spans(run, args.out, detail)
        else:
            reps = untraced_pass(workload, args.seed, args.seconds, args.scale)
            values, detail = end_to_end(workload, reps)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = [p for rep in reps for p in rep.problems]
    problems += workloads.determinism_problems(reps)
    if not args.trace and len({len(rep.run.walls)
                               for rep in measured(reps)}) > 1:
        problems.append("replays of one key were cut into different slice counts")
    if args.trace and values["ledger.closure_error"] > 0.01:
        problems.append(
            f"ledger does not close: {values['ledger.closure_error']:.4f} > 0.01"
        )
    title = (f"{workload.name} seed {args.seed} "
             f"({'traced' if args.trace else 'untraced'}, unit: {workload.unit})")
    print_metrics(title, values, units)
    if not args.trace:
        detail["one_workload_metrics"] = one_workload_metrics(workload, reps)
        print_metrics("  also (the driver gets these with --trace 1)",
                      detail["one_workload_metrics"], PER_LAYER_UNITS)
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    result = {
        "correct": not problems,
        "attempted": sum(rep.attempted for rep in reps),
        "failed": sum(rep.failed for rep in reps) + len(problems),
        # A metric that does not apply to this workload is left out of the
        # table above; the driver's schema wants every key, so here it is 0.
        "metrics": {
            name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in units.items()
        },
    }
    if args.detail:
        with open(args.detail, "w", encoding="utf-8") as handle:
            json.dump({"result": result, "detail": detail,
                       "problems": problems}, handle, indent=1, default=list)
    print(json.dumps(result))
    try:
        os.rmdir(WORK_ROOT)  # leave nothing behind, unless a parent uses it
    except OSError:
        pass
    return 0


# ----------------------------------------------------------------------
# Every workload, each in its own process
# ----------------------------------------------------------------------
def run_all(args: argparse.Namespace) -> int:
    os.makedirs(WORK_ROOT, exist_ok=True)
    detail_path = os.path.join(WORK_ROOT, f"detail-{os.getpid()}.json")
    collected: Dict[str, Any] = {"seed": args.seed, "workloads": {}}
    ok = True
    try:
        for workload in workloads.all_workloads(WORK_ROOT):
            name = workload.name
            for trace in ((0, 1) if args.traced or args.profile else (0,)):
                command = [
                    sys.executable, os.path.join(HERE, "run.py"),
                    "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace),
                    "--scale", str(args.scale), "--detail", detail_path,
                ]
                if trace and args.out:
                    command += ["--out", f"{args.out}.{name}.spans.json"]
                done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
                lines = done.stdout.rstrip("\n").split("\n")
                print("\n".join(lines[:-1]))
                if done.returncode != 0:
                    print(f"{name}: exited with code {done.returncode}")
                    ok = False
                    continue
                with open(detail_path, "r", encoding="utf-8") as handle:
                    payload = json.load(handle)
                if args.profile and trace:
                    print_shares(payload["detail"])
                ok = ok and payload["result"]["correct"]
                entry = collected["workloads"].setdefault(name, {})
                entry["traced" if trace else "untraced"] = payload
    finally:
        shutil.rmtree(WORK_ROOT, ignore_errors=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(collected, handle, indent=1)
    print("all checks passed" if ok else "CHECKS FAILED")
    return 0 if ok else 1


def print_shares(detail: Dict[str, Any]) -> None:
    print("  layer shares: span ledger vs cProfile tottime")
    ledger, profile = detail["ledger_shares"], detail["profile_shares"]
    for layer in sorted(set(ledger) | set(profile),
                        key=lambda l: -max(ledger.get(l, 0), profile.get(l, 0))):
        print(f"    {layer:<18} {ledger.get(layer, 0.0):7.3f} "
              f"{profile.get(layer, 0.0):7.3f}")


# ----------------------------------------------------------------------
# Where CORE_BOUND_SHARE comes from
# ----------------------------------------------------------------------
def run_calibrate(args: argparse.Namespace) -> int:
    """Replay one workload for ``--calibrate`` seconds and print, for each
    core-bound share, how far replays of identical work then disagree: as
    single replays, and as ``floor_sum`` over runs of six.  The share to use
    is the one with the smallest spread; 0.0 is the raw clock."""
    workdir = os.path.join(WORK_ROOT, str(os.getpid()))
    workload = {w.name: w for w in workloads.all_workloads(workdir)}[args.workload]
    adapter.use_scratch_dir(workdir)
    try:
        reps: List[Rep] = []
        started = time.perf_counter()
        while time.perf_counter() - started < args.calibrate:
            reps.extend(workload.reps(args.seed, 0, args.scale, Probe()))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    replays = measured(reps)
    probes = sorted(p * 1000.0 for rep in replays for p in rep.run.probes)
    print(f"{workload.name}: {len(replays)} replays, state probe "
          f"{probes[0]:.3f} / {measure.median(probes):.3f} / {probes[-1]:.3f} ms "
          f"(min / median / max)")
    print("  share   single replays   floor_sum of 6   setup_s (median of 6)")
    for tenth in range(11):
        share = tenth / 10.0
        cores = [rep.run.steady_cores(share) for rep in replays]
        setups = [sum(rep.setup.steady_walls(share)) for rep in replays]
        groups = range(0, len(replays) - 5, 6)
        print(f"  {share:5.1f} {measure.iqr_share([sum(c) for c in cores]):16.3f}"
              f" {measure.iqr_share([measure.floor_sum(cores[g:g + 6]) for g in groups]):16.3f}"
              f" {measure.iqr_share([measure.median(setups[g:g + 6]) for g in groups]):16.3f}")
    return 0


# ----------------------------------------------------------------------
# Two sets of runs side by side
# ----------------------------------------------------------------------
#: Metrics that need not repeat exactly: host-clock readings, and the
#: process's ``rchar``, which also counts the benchmark reading /proc.
INEXACT_PREFIXES = ("throughput_", "setup", "peak_rss_mb", "recover_s",
                    "obs_overhead_ratio", "trace.", "ledger.closure_error",
                    "ledger.profile_disagreement_max", "host.",
                    "optimizer.compile_ms_p50", "disk_read_bytes_per_get")


def must_repeat_exactly(name: str) -> bool:
    return not (name.startswith(INEXACT_PREFIXES) or name.endswith("self_us"))


def summary(out: Dict[str, Any]) -> Dict[str, Any]:
    """What :func:`compare` needs of an ``--out`` file: nonzero metric
    values, digests, quartiles.  A baseline file stands for its first run."""
    if "first" in out:
        return out["first"]
    return {
        "seed": out["seed"],
        "workloads": {
            workload: {
                which: {
                    "metrics": {
                        name: entry["value"]
                        for name, entry in payload["result"]["metrics"].items()
                        if entry["value"]
                    },
                    "sim_digest": payload["detail"]["sim_digest"],
                    "raw_quartiles": payload["detail"].get("raw_quartiles", {}),
                }
                for which, payload in passes.items()
            }
            for workload, passes in out["workloads"].items()
        },
    }


def compare(first: Dict[str, Any], second: Dict[str, Any]) -> Dict[str, Any]:
    """Agreement of two run summaries of the same commit and seed.

    Simulated metrics, counts and digests must be identical; host-time
    metrics are listed with their relative difference.
    """
    mismatches: List[str] = []
    host: Dict[str, Dict[str, float]] = {}
    if first["seed"] != second["seed"]:
        mismatches.append(f"seeds differ: {first['seed']} vs {second['seed']}")
    for workload, passes in first["workloads"].items():
        for which, ours in passes.items():
            theirs = second["workloads"].get(workload, {}).get(which)
            if theirs is None:
                mismatches.append(f"{workload}/{which}: missing from second")
                continue
            if ours["sim_digest"] != theirs["sim_digest"]:
                mismatches.append(f"{workload}/{which}: sim_digest differs")
            for name in sorted(set(ours["metrics"]) | set(theirs["metrics"])):
                a = ours["metrics"].get(name, 0.0)
                b = theirs["metrics"].get(name, 0.0)
                if must_repeat_exactly(name):
                    if a != b:
                        mismatches.append(f"{workload}/{name}: {a} vs {b}")
                else:
                    host[f"{workload}/{name}"] = {
                        "first": a, "second": b,
                        "difference": abs(a - b) / max(abs(a), abs(b)),
                    }
    return {"exact_mismatches": mismatches, "host_time": host}


def run_compare(paths: Sequence[str], out: Optional[str]) -> int:
    runs = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            runs.append(summary(json.load(handle)))
    agreement = compare(*runs)
    for key, entry in agreement["host_time"].items():
        print(f"  {key:<58} {entry['first']:>12.6g} {entry['second']:>12.6g} "
              f"{entry['difference']:7.1%}")
    for line in agreement["exact_mismatches"]:
        print(f"  MISMATCH {line}")
    print(f"{len(agreement['exact_mismatches'])} simulated/count mismatches")
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            json.dump({"first": runs[0], "second": runs[1],
                       "agreement": agreement}, handle, indent=1)
    return 1 if agreement["exact_mismatches"] else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=catalogue.RUN_SECONDS,
                        help="host seconds one untraced run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true",
                        help="all workloads: add the traced pass")
    parser.add_argument("--profile", action="store_true",
                        help="all workloads: traced pass, and print the "
                             "ledger-vs-cProfile share table")
    parser.add_argument("--out", help="write results (and spans) here")
    parser.add_argument("--detail", help=argparse.SUPPRESS)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every simulated horizon (self-test)")
    parser.add_argument("--manifest", action="store_true",
                        help="print BENCHMARK.json's content and exit")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--calibrate", type=float, metavar="SECONDS",
                        help="with --workload: replay it this long and print "
                             "the spread left by each core-bound share")
    parser.add_argument("--compare", nargs=2, metavar="OUT",
                        help="agreement of two --out files of one commit; "
                             "with --out, both and the agreement in one file")
    args = parser.parse_args(argv)
    if args.compare:
        return run_compare(args.compare, args.out)
    if args.calibrate:
        if not args.workload:
            parser.error("--calibrate needs --workload")
        return run_calibrate(args)
    if args.selftest:
        import selftest
        return selftest.main()
    if args.manifest:
        print(json.dumps(catalogue.manifest(workloads.all_workloads(WORK_ROOT)),
                         indent=2))
        return 0
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
