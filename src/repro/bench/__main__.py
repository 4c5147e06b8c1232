"""``python -m repro.bench <experiment> [--quick] [--seeds 11,23]``.

The one command line for every experiment; exits 1 naming the claim when a
result contradicts one.  Output lands under ``results/`` in the working
directory (see :mod:`repro.bench.experiment` for which files).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .experiment import ClaimViolated, experiments, run_experiment


def main(argv: Optional[List[str]] = None) -> int:
    registry = experiments()
    parser = argparse.ArgumentParser(prog="python -m repro.bench")
    parser.add_argument("experiment", choices=sorted(registry))
    parser.add_argument(
        "--quick", action="store_true",
        help="CI-sized configuration; writes results/<name>.quick.json",
    )
    parser.add_argument(
        "--seeds", type=lambda text: [int(part) for part in text.split(",")],
        help="comma-separated seeds, for experiments that run once per seed",
    )
    args = parser.parse_args(argv)
    experiment = registry[args.experiment]
    if args.seeds is not None and not hasattr(experiment.config, "seeds"):
        parser.error(f"{args.experiment} does not run once per seed")
    try:
        run_experiment(experiment, args.quick, args.seeds)
    except ClaimViolated as violated:
        print(f"CLAIM VIOLATED: {violated}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
