"""One record per experiment, one runner for all of them.

Every experiment of the evaluation — the paper's figures and table, and the
serving, replication, storage, view and resilience scenarios built on its
method — is an :class:`Experiment`: a name, a configuration at full and at
quick size, ``run``, a JSON ``payload``, a ``check`` that raises
:class:`ClaimViolated` naming the claim that failed, and a ``render`` for
the tables (the payload itself, laid out as text, unless the experiment
has a figure's headers to show).  :func:`run_experiment` is the only way
any of them runs — from ``python -m repro.bench <name> [--quick]`` and from
the parametrised ``benchmarks/bench_experiments.py`` alike — so the
command-line smoke and the benchmark suite enforce the same claims and
write the same files.

Full-size runs write ``results/<name>.json``, the committed summaries:
seeds are fixed and time is simulated, so they regenerate byte for byte
(host-clock fields aside) and a diff against them is a behaviour change.
Quick runs write ``results/<name>.quick.json`` instead and never touch a
committed file; bulky per-run evidence (incident reports, traces) goes to
separate detail files.  Both kinds are gitignored, and both are written
whether or not the claims held — only the committed name is reserved for
runs that passed.
"""

from __future__ import annotations

import importlib
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Sequence

from .reporting import render_payload, save_results


class ClaimViolated(AssertionError):
    """An experiment's result contradicts one of the claims it exists to show."""

    def __init__(self, claim: str, detail: object = ""):
        self.claim = claim
        super().__init__(f"{claim}: {detail}" if detail != "" else claim)


def claim(name: str, holds: object, detail: object = "") -> None:
    """Raise :class:`ClaimViolated` naming ``name`` unless ``holds``."""
    if not holds:
        raise ClaimViolated(name, detail)


@dataclass(frozen=True)
class Experiment:
    """What the runner needs to know about one experiment."""

    #: Registry key, command-line name, and stem of ``results/<name>.json``.
    name: str
    #: The full-size configuration ``run`` takes, and the CI-sized one.
    config: Any
    quick: Any
    run: Callable[[Any], Any]
    #: JSON summary of a result — what gets committed under ``results/``.
    payload: Callable[[Any], Dict[str, Any]]
    #: Raises :class:`ClaimViolated`; holds at either size.
    check: Callable[[Any], None]
    #: The tables to print; by default the payload as text.
    render: Optional[Callable[[Any], str]] = None
    #: Bulky evidence as ``{file stem: JSON payload}``, saved beside the
    #: summary under gitignored names (``<name>.detail``, artifacts CI uploads).
    details: Optional[Callable[[Any], Dict[str, Dict[str, Any]]]] = None
    #: Key of the payload that a full-size run must reproduce from the
    #: committed ``results/<name>.json`` (for a payload that also carries
    #: host-clock numbers, which never reproduce).
    pinned: Optional[str] = None


#: Modules defining the experiments.
_MODULES = (
    "paper_figures", "intersection", "scaling", "strategies",
    "prediction_experiment", "serving_slo", "failover_slo",
    "pipelined_interactions", "operator_fusion", "view_maintenance",
    "storage_engine", "chaos", "trace_smoke",
)


def experiments() -> Dict[str, Experiment]:
    """The registry: every module's ``EXPERIMENTS``, by name."""
    registry: Dict[str, Experiment] = {}
    for module_name in _MODULES:
        module = importlib.import_module(f"{__package__}.{module_name}")
        for experiment in module.EXPERIMENTS:
            if experiment.name in registry:
                raise ValueError(f"two experiments are named {experiment.name!r}")
            registry[experiment.name] = experiment
    return registry


def run_experiment(
    experiment: Experiment,
    quick: bool = False,
    seeds: Optional[Sequence[int]] = None,
    directory: str = "results",
) -> Any:
    """run → check → save → render; a violated claim is raised after both.

    Only a run whose every claim held may replace the committed
    ``results/<name>.json``.  Quick and detail files are gitignored
    evidence and are written either way: a failing run is the one whose
    report gets read.  ``seeds`` overrides the configuration's ``seeds``
    for the experiments that have them.
    """
    config = experiment.quick if quick else experiment.config
    if seeds is not None:
        config = replace(config, seeds=tuple(seeds))
    suffix = ".quick" if quick else ""
    result = experiment.run(config)
    payload = experiment.payload(result)
    violated: Optional[ClaimViolated] = None
    try:
        experiment.check(result)
        committed = Path(directory) / f"{experiment.name}.json"
        if experiment.pinned and not quick and committed.exists():
            # Round-trip ours through JSON so both sides have JSON's types
            # (floats survive it exactly).
            ours = json.loads(json.dumps(payload[experiment.pinned], default=str))
            theirs = json.loads(committed.read_text()).get(experiment.pinned)
            claim(
                f"{experiment.name}: {experiment.pinned!r} numbers reproduce "
                f"the committed {committed}",
                ours == theirs,
                "delete the file to re-baseline on purpose",
            )
    except ClaimViolated as error:
        violated = error
    files = dict(experiment.details(result)) if experiment.details else {}
    if quick or violated is None:
        files[experiment.name] = payload
    for stem, content in files.items():
        print(f"wrote {save_results(stem + suffix, content, directory)}")
    print(experiment.render(result) if experiment.render else render_payload(payload))
    if violated is not None:
        raise violated
    return result
