"""Smoke-size checks of the benchmark: determinism, tracing, output contract.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from multiframe import persp2f, geometry  # noqa: E402
from spans import Tracer  # noqa: E402

SMOKE = {
    "noise_sweep": {"per_cell": 2},
    "curve_lift": {"scenes": {20: 1}},
}


def build(workload, seed):
    return workloads.BUILDERS[workload](seed, **SMOKE[workload])


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", sorted(SMOKE))
def test_same_seed_gives_identical_datasets(workload):
    a, b, c = build(workload, 5), build(workload, 5), build(workload, 6)
    assert [it.data for it in a] == [it.data for it in b]
    assert [it.data for it in a] != [it.data for it in c]


@pytest.mark.parametrize("workload", sorted(SMOKE))
def test_same_seed_gives_identical_outcomes(workload):
    first, second = run.Phase(), run.Phase()
    run.run_pass(build(workload, 5), first)
    run.run_pass(build(workload, 5), second)
    assert first.labels == second.labels
    assert first.order == second.order


@pytest.mark.parametrize("workload", sorted(SMOKE))
def test_noiseless_jobs_pass_their_truth_check(workload):
    items = build(workload, 5)
    phase = run.Phase()
    run.run_pass(items, phase)
    run.run_pass(items, phase)
    labels, correct = run.outcomes(items, phase.labels)
    assert correct and len(labels) == len(items)
    assert any(it.sigma == 0.0 for it in items)


def test_outcomes_reject_a_pass_that_disagrees():
    items = build("noise_sweep", 5)
    phase = run.Phase()
    run.run_pass(items, phase)
    noisy = next(i for i, it in enumerate(items) if it.sigma > 0.0)
    second = list(phase.labels)
    second[noisy] = "Other" if second[noisy] is None else None
    labels, correct = run.outcomes(items, phase.labels + second)
    assert labels == phase.labels and not correct
    noiseless = next(i for i, it in enumerate(items) if it.sigma == 0.0)
    first = list(phase.labels)
    first[noiseless] = workloads.BOUND_MISSED
    assert not run.outcomes(items, first + first)[1]


def noiseless_persp2f(seed):
    return [it for it in build("noise_sweep", seed) if it.kind == "persp2f" and it.sigma == 0.0]


def test_truth_check_rejects_a_wrong_answer():
    item = noiseless_persp2f(5)[0]
    ds, est = workloads.run_job(item)
    assert workloads.check(item, ds, est) is None
    flipped = persp2f.MotionEstimate(
        rotation=est.rotation,
        translation=-est.translation,
        translation_scaled=None,
        depths={},
        points3d={},
        distinguished=est.distinguished,
    )
    assert workloads.check(item, ds, flipped) == workloads.BOUND_MISSED


def test_tracer_restores_and_nests():
    originals = (persp2f.recover_depths, geometry.Rotation.__post_init__)
    items = noiseless_persp2f(5)
    tracer = Tracer()
    layers.instrument(tracer, setup=False)
    try:
        phase = run.Phase()
        run.run_pass(items, phase, tracer)
    finally:
        tracer.restore()
    assert (persp2f.recover_depths, geometry.Rotation.__post_init__) == originals
    metrics = layers.job_metrics(tracer, items, phase.order, phase.labels)
    assert metrics["persp2f.recover_depths_calls"] == 4.0
    assert metrics["geometry.rotation_checks"] > 0
    assert 0 < metrics["persp2f.self_ms"] < metrics["persp2f.reconstruct_ms"]
    assert min(tracer.self_times()) >= 0.0
    for rec in tracer.spans:
        if rec[0] == "persp2f.recover_depths":
            assert tracer.spans[rec[3]][0] == "persp2f.reconstruct"


def test_metric_names_match_benchmark_json():
    doc = spec()
    assert [m["name"] for m in doc["per_layer"]] == list(layers.PER_LAYER_UNITS)
    assert [m["unit"] for m in doc["per_layer"]] == list(layers.PER_LAYER_UNITS.values())
    assert [m["name"] for m in doc["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [m["unit"] for m in doc["end_to_end"]] == list(run.END_TO_END_UNITS.values())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)


def invoke(cwd, trace, seconds=0.2):
    cmd = spec()["command"] + [
        "--workload", "noise_sweep", "--seed", "3", "--seconds", str(seconds), "--trace", str(trace)
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_every_metric(trace):
    proc = invoke(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    group = spec()["per_layer" if trace else "end_to_end"]
    assert [m["name"] for m in group] == list(result["metrics"])


def test_failure_counts_do_not_depend_on_run_length():
    counts = []
    for seconds in (0.2, 2.0):
        proc = invoke(ROOT, 0, seconds)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        counts.append((result["attempted"], result["failed"]))
    assert counts[0] == counts[1]
    assert counts[0][1] > 0  # the baseline's known noisy failures are still counted


def test_command_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in spec()["paths"]:
        ignore = shutil.ignore_patterns("out", "__pycache__")
        shutil.copytree(ROOT / path, tmp_path / path, ignore=ignore)
    proc = invoke(tmp_path, 0)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
