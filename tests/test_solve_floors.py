"""Per-cell solve counts of the benchmark's workloads equal the committed ones.

Builds the noise_sweep and curve_lift datasets of seeds 1 and 2 through
``perfbench/workloads.py``, runs every job once and counts, per (solver,
size, sigma) cell, the jobs that raise no error and meet their truth bound.
``tests/solve_floors.json`` holds the counts.  A change that moves a count
in either direction fails here: one that solves more jobs raises the
committed count in the same change, and one that solves fewer says why.

    PYTHONPATH=src python tests/test_solve_floors.py > tests/solve_floors.json

rewrites the file from the current package.
"""

import importlib.util
import json
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FLOORS = Path(__file__).with_name("solve_floors.json")
SEEDS = (1, 2)


def load_workloads():
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while the file runs
    spec.loader.exec_module(module)
    return module


def cell_counts() -> dict:
    """``{workload: {"solver size sigma": "passed/jobs"}}`` over ``SEEDS``."""
    workloads = load_workloads()
    out = {}
    for name, build in workloads.BUILDERS.items():
        passed, jobs = Counter(), Counter()
        for seed in SEEDS:
            for item in build(seed):
                key = f"{item.kind} {item.size} {item.sigma:g}"
                jobs[key] += 1
                try:
                    ds, result = workloads.run_job(item)
                except workloads.JOB_ERRORS:
                    continue
                passed[key] += workloads.check(item, ds, result) is None
        out[name] = {key: f"{passed[key]}/{jobs[key]}" for key in jobs}
    return out


def test_cell_counts_equal_the_committed_ones():
    doc = json.loads(FLOORS.read_text())
    assert doc["seeds"] == list(SEEDS)
    want = doc["cells"]
    got = cell_counts()
    moved = [
        f"{name} {key}: {got[name].get(key)} passed, committed {count}"
        for name in want
        for key, count in want[name].items()
        if got[name].get(key) != count
    ]
    assert not moved, "\n".join(moved)
    assert got == want  # no cell added or dropped


if __name__ == "__main__":
    doc = {"seeds": list(SEEDS), "cells": cell_counts()}
    json.dump(doc, sys.stdout, indent=2)
    print()
