"""Experiments reproducing the paper's evaluation (Section 8) and beyond.

``python -m repro.bench <name> [--quick]`` runs one experiment (``--help``
lists the names); :mod:`repro.bench.experiment` holds the record and the
runner every experiment shares.  Import what you need from the submodule
that defines it.
"""
