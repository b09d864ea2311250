"""Which package functions the traced run wraps, and the per-layer metrics.

Layers are the package's modules.  Set-up metrics (``scene.*``,
``dataio.write_*``) are totals for one set-up; every other metric is
normalized per job of the workload, so a layer absent from a workload
reads 0.  ``dof``, ``config`` and ``errors`` do no per-job work and get
no metrics.
"""

from __future__ import annotations

from multiframe import curves, dataio, geometry, ortho3p, persp2f, scene

# (span name, owner, attribute) for set-up and for jobs
SETUP_SPANS = [
    ("scene.fabricate", scene, "random_triangle_scene"),
    ("scene.fabricate", scene, "random_cloud_scene"),
    ("scene.fabricate", scene, "random_arc_scene"),
    ("scene.fabricate", scene, "random_motion_script"),
    ("scene.render", scene, "render"),
    ("scene.add_noise", scene, "add_noise"),
    ("dataio.write", dataio, "write_dataset"),
]
JOB_SPANS = [
    ("dataio.read", dataio, "read_dataset"),
    ("persp2f.reconstruct", persp2f, "two_frame_reconstruct"),
    ("persp2f.normalize", persp2f, "normalize_distinguished"),
    ("persp2f.composite", persp2f, "solve_composite"),
    ("persp2f.decompose", persp2f, "decompose"),
    ("persp2f.recover_depths", persp2f, "recover_depths"),
    ("ortho3p.solve_triangle", ortho3p, "solve_triangle"),
    ("ortho3p.recover_motions", ortho3p, "recover_motions_consistent"),
    ("curves.lift", curves, "lift_curve"),
    ("curves.epipolar_line", curves, "epipolar_line"),
    ("curves.transfer_point", curves, "transfer_point"),
    ("curves.triangulate", curves, "triangulate_midpoint"),
]
# (count name, owner, attribute); best_fit_motion is also reached through
# the name ortho3p imported
JOB_COUNTS = [
    ("ortho3p.frame_sign_pattern_calls", ortho3p, "frame_sign_pattern"),
    ("ortho3p.eq4_residual_calls", ortho3p, "eq4_residual"),
    ("geometry.rotation_checks", geometry.Rotation, "__post_init__"),
    ("geometry.best_fit_motion_calls", geometry, "best_fit_motion"),
    ("geometry.best_fit_motion_calls", ortho3p, "best_fit_motion"),
]

# failure labels per layer: the error classes its solver raises, a missed
# truth bound, and "other" for any class not listed
FAILURE_LABELS = {
    "persp2f": (
        "NotEssentialError", "AmbiguityError", "RankDeficientError", "BoundMissed", "other"
    ),
    "ortho3p": (
        "NoSolutionError", "AmbiguityError", "RankDeficientError", "BoundMissed", "other"
    ),
    "curves": ("BoundMissed", "other"),
}
SIZE_CLASSES = {"curves.lift": ("m50", "m100", "m200")}

# Every per-layer metric, in report order, with its unit.
PER_LAYER_UNITS: dict[str, str] = {
    "scene.fabricate_ms": "ms/setup",
    "scene.render_ms": "ms/setup",
    "scene.add_noise_ms": "ms/setup",
    "dataio.write_ms": "ms/setup",
    "dataio.write_bytes": "bytes/setup",
    "dataio.read_ms": "ms/job",
    "dataio.read_bytes": "bytes/job",
    "persp2f.reconstruct_ms": "ms/job",
    "persp2f.normalize_ms": "ms/job",
    "persp2f.composite_ms": "ms/job",
    "persp2f.decompose_ms": "ms/job",
    "persp2f.recover_depths_ms": "ms/job",
    "persp2f.recover_depths_calls": "1/job",
    "persp2f.self_ms": "ms/job",
    "persp2f.accepted_frac": "fraction",
    "ortho3p.solve_triangle_ms": "ms/job",
    "ortho3p.frame_sign_pattern_calls": "1/job",
    "ortho3p.eq4_residual_calls": "1/job",
    "ortho3p.recover_motions_ms": "ms/job",
    "ortho3p.solutions_per_solve": "1/solve",
    "curves.lift_ms": "ms/job",
    "curves.epipolar_line_ms": "ms/job",
    "curves.epipolar_line_calls": "1/job",
    "curves.transfer_point_ms": "ms/job",
    "curves.transfer_point_calls": "1/job",
    "curves.triangulate_ms": "ms/job",
    "curves.self_ms": "ms/job",
    "curves.kept_frac": "fraction",
    "curves.holes": "1/job",
    "curves.flagged": "1/job",
    "geometry.rotation_checks": "1/job",
    "geometry.best_fit_motion_calls": "1/job",
}
for _span, _classes in SIZE_CLASSES.items():
    for _c in _classes:
        PER_LAYER_UNITS[f"{_span}_ms.{_c}"] = "ms/job"
for _layer, _labels in FAILURE_LABELS.items():
    for _label in _labels:
        PER_LAYER_UNITS[f"{_layer}.failed.{_label}"] = "1/job"
PER_LAYER_UNITS["trace.overhead_frac"] = "fraction"


def instrument(tracer, *, setup: bool):
    """Wrap the set-up functions (``setup=True``) or the job functions."""
    if setup:
        for name, owner, attr in SETUP_SPANS:
            tracer.span(owner, attr, name)
        return
    counts = tracer.counts

    def on_read(args, _result):
        counts["dataio.read_bytes"] += len(args[0])

    def on_depths(_args, vote):
        counts["persp2f.candidates"] += 1
        counts["persp2f.accepted"] += bool(vote.accepted)

    def on_solve(_args, solutions):
        counts["ortho3p.solves"] += 1
        counts["ortho3p.solutions"] += len(solutions)

    def on_lift(args, lifted):
        counts["curves.samples"] += len(args[0].samples)
        counts["curves.kept"] += len(lifted.source_indices)
        counts["curves.holes"] += len(lifted.holes)
        counts["curves.flagged"] += len(lifted.flagged)

    hooks = {
        "dataio.read": on_read,
        "persp2f.recover_depths": on_depths,
        "ortho3p.solve_triangle": on_solve,
        "curves.lift": on_lift,
    }
    for name, owner, attr in JOB_SPANS:
        tracer.span(owner, attr, name, hooks.get(name))
    for name, owner, attr in JOB_COUNTS:
        tracer.count(owner, attr, name)


def _outermost_ms(spans, indices, name) -> float:
    """Summed duration (ms) of ``name`` spans not nested in another ``name`` span."""
    total = 0.0
    for i in indices:
        rec = spans[i]
        if rec[0] != name:
            continue
        p = rec[3]
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            total += rec[2] - rec[1]
    return 1e3 * total


def setup_metrics(tracer, items) -> dict[str, float]:
    """Per-layer totals for the one traced set-up recorded so far."""
    spans = tracer.spans
    idx = range(len(spans))
    out = {
        f"{name}_ms": _outermost_ms(spans, idx, name)
        for name in ("scene.fabricate", "scene.render", "scene.add_noise", "dataio.write")
    }
    out["dataio.write_bytes"] = float(sum(len(it.data) for it in items))
    return out


def job_metrics(tracer, items, order, labels) -> dict[str, float]:
    """Per-job metrics of the traced jobs.

    ``order[j]`` is the item index of job ``j`` (the tracer's job id) and
    ``labels[j]`` its failure label or None.
    """
    spans = tracer.spans
    counts = tracer.counts
    n = len(order)
    idx = [i for i in range(len(spans)) if spans[i][4] is not None]
    self_ms = tracer.self_times()

    def per_job(x):
        return x / n

    def ratio(a, b):
        return counts[a] / counts[b] if counts[b] else 0.0

    out = {}
    for name, _owner, _attr in JOB_SPANS:
        out[f"{name}_ms"] = per_job(_outermost_ms(spans, idx, name))
    calls = {name: 0 for name, _o, _a in JOB_SPANS}
    for i in idx:
        calls[spans[i][0]] += 1
    for name in ("persp2f.recover_depths", "curves.epipolar_line", "curves.transfer_point"):
        out[f"{name}_calls"] = per_job(calls[name])
    for layer, parent in (("persp2f", "persp2f.reconstruct"), ("curves", "curves.lift")):
        own = sum(self_ms[i] for i in idx if spans[i][0] == parent)
        out[f"{layer}.self_ms"] = per_job(1e3 * own)
    out["dataio.read_bytes"] = per_job(counts["dataio.read_bytes"])
    out["persp2f.accepted_frac"] = ratio("persp2f.accepted", "persp2f.candidates")
    out["ortho3p.solutions_per_solve"] = ratio("ortho3p.solutions", "ortho3p.solves")
    out["curves.kept_frac"] = ratio("curves.kept", "curves.samples")
    for name in (
        "ortho3p.frame_sign_pattern_calls",
        "ortho3p.eq4_residual_calls",
        "curves.holes",
        "curves.flagged",
        "geometry.rotation_checks",
        "geometry.best_fit_motion_calls",
    ):
        out[name] = per_job(counts[name])

    for name, classes in SIZE_CLASSES.items():
        for size in classes:
            jobs = {j for j in range(n) if items[order[j]].size == size}
            ms = _outermost_ms(spans, [i for i in idx if spans[i][4] in jobs], name)
            out[f"{name}_ms.{size}"] = ms / len(jobs) if jobs else 0.0

    for layer, known in FAILURE_LABELS.items():
        tally = dict.fromkeys(known, 0)
        for j in range(n):
            label = labels[j]
            if label is not None and items[order[j]].kind == layer:
                tally[label if label in tally else "other"] += 1
        for label, c in tally.items():
            out[f"{layer}.failed.{label}"] = per_job(c)
    return out
