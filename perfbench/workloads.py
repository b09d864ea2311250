"""Workload definitions: seeded dataset builders, timed jobs, truth checks.

Set-up turns a seed into serialized datasets through the package's own
oracle (``scene.random_*`` -> ``render`` -> ``add_noise`` ->
``dataio.write_dataset``).  A job is ``dataio.read_dataset`` followed by
one solver path; its truth check runs after the job's timer stops.

Every package function is called through its module attribute, so the
traced run can wrap it (see ``layers.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from multiframe import curves, dataio, ortho3p, persp2f, scene
from multiframe.dof import Regime
from multiframe.errors import MultiframeError
from multiframe.scene import NoiseSpec

# Errors a job may raise on admissible input: counted as failed operations.
# Any other exception is a defect of the benchmark or the package and ends
# the run.
JOB_ERRORS = (MultiframeError, np.linalg.LinAlgError)

BOUND_MISSED = "BoundMissed"

NOISE_SWEEP_SIGMAS = (0.0, 1e-6, 1e-4, 1e-3, 1e-2)
# samples per curve -> scenes per pass.  Lift time differs from scene to
# scene, so each size needs several scenes for steady percentiles; equal
# counts put the median among the 100-sample jobs and the 90th percentile
# among the 200-sample jobs.
CURVE_SCENES = {50: 8, 100: 8, 200: 8}
CURVE_SIGMAS = (0.0, 1e-5)


@dataclass(frozen=True)
class Item:
    """One serialized dataset and the job that consumes it."""

    kind: str  # the layer whose solver runs: "ortho3p", "persp2f" or "curves"
    size: str  # size class, e.g. "f3", "n10", "m200"
    sigma: float
    data: bytes


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def _seeds(seed: int):
    """Endless stream of sub-seeds, fixed by ``seed``."""
    rng = np.random.default_rng(seed)
    while True:
        yield int(rng.integers(1, 2**31 - 1))


def _serialize(dataset, sigma: float, noise_seed: int) -> bytes:
    noisy = scene.add_noise(dataset, NoiseSpec(sigma, noise_seed))
    return dataio.write_dataset(noisy)


def build_noise_sweep(seed: int, *, per_cell: int = 20) -> list[Item]:
    """Tiny jobs: ortho3p triangles (3 and 4 frames), persp2f 10-point clouds.

    Each (solver, sigma) cell gets ``per_cell`` scenes with their own seeds.
    """
    sub = _seeds(seed)
    items = []
    for sigma in NOISE_SWEEP_SIGMAS:
        for _ in range(per_cell):
            for frames in (3, 4):
                s = next(sub)
                sc = scene.random_triangle_scene(s)
                script = scene.random_motion_script(s + 1, frames, Regime.ORTHOGRAPHIC, sc)
                ds = scene.render(sc, script, Regime.ORTHOGRAPHIC)
                items.append(Item("ortho3p", f"f{frames}", sigma, _serialize(ds, sigma, s + 2)))
            s = next(sub)
            sc = scene.random_cloud_scene(s, n_points=10)
            script = scene.random_motion_script(s + 1, 2, Regime.PERSPECTIVE_CALIBRATED, sc)
            ds = scene.render(sc, script, Regime.PERSPECTIVE_CALIBRATED)
            items.append(Item("persp2f", "n10", sigma, _serialize(ds, sigma, s + 2)))
    return items


def build_curve_lift(seed: int, *, scenes: dict[int, int] = CURVE_SCENES) -> list[Item]:
    """Arc scenes, ``scenes[m]`` of them with ``m`` curve samples, two frames each."""
    sub = _seeds(seed)
    items = []
    for m, count in scenes.items():
        for _ in range(count):
            s = next(sub)
            sc = scene.random_arc_scene(s, n_samples=m)
            script = scene.random_motion_script(s + 1, 2, Regime.PERSPECTIVE_CALIBRATED, sc)
            ds = scene.render(sc, script, Regime.PERSPECTIVE_CALIBRATED)
            for sigma in CURVE_SIGMAS:
                items.append(Item("curves", f"m{m}", sigma, _serialize(ds, sigma, s + 2)))
    return items


BUILDERS = {
    "noise_sweep": build_noise_sweep,
    "curve_lift": build_curve_lift,
}


# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------


def _solve_ortho3p(ds):
    obs = ortho3p.observations_from_dataset(ds)
    solutions = ortho3p.solve_triangle(obs)
    for sol in solutions:
        ortho3p.recover_motions_consistent(obs, sol)
    return solutions


def _solve_persp2f(ds):
    return persp2f.two_frame_reconstruct(ds)


def _solve_curves(ds):
    c1, c2 = curves.curves_from_dataset(ds)["arc"]
    pose1, pose2 = scene.truth_poses(ds, 0), scene.truth_poses(ds, 1)
    return curves.lift_curve(c1, c2, pose1, pose2)


SOLVERS = {"ortho3p": _solve_ortho3p, "persp2f": _solve_persp2f, "curves": _solve_curves}


def run_job(item: Item):
    """The timed unit of work: parse the dataset, then run its solver."""
    ds = dataio.read_dataset(item.data)
    return ds, SOLVERS[item.kind](ds)


# ---------------------------------------------------------------------------
# truth checks
# ---------------------------------------------------------------------------
#
# A result passes when its error is within min(floor + gain * sigma, cap).
# The floors hold noiseless results to the accuracy the package's own tests
# demand.  The gains allow two to three times the worst noise amplification
# seen on correct answers at sigma <= 1e-4; the caps keep the bound
# meaningful at sigma = 1e-2, where floor + gain * sigma would accept any
# answer.


@dataclass(frozen=True)
class Bound:
    floor: float
    gain: float
    cap: float

    def at(self, sigma: float) -> float:
        return min(self.floor + self.gain * sigma, self.cap)


# radians, for both the rotation and the translation direction
PERSP2F_BOUND = Bound(1e-6, 250.0, 0.5)
# relative to the longest true edge
ORTHO3P_BOUND = Bound(1e-9, 500.0, 0.5)
# relative to the scene diameter, for every lifted sample.  lift_curve
# accepts a match anywhere within Tolerances.transfer_band (1e-6 of the
# image scale) of the crossing, which moves a noiseless sample by up to
# about 1e-6 of the diameter; the floor allows ten times that.
CURVES_BOUND = Bound(1e-5, 1000.0, 0.05)
# share of curve samples that must be lifted
CURVES_MIN_KEPT = 0.9


def _angle(u, v) -> float:
    u = np.asarray(u, float) / np.linalg.norm(u)
    v = np.asarray(v, float) / np.linalg.norm(v)
    return float(np.arccos(np.clip(u @ v, -1.0, 1.0)))


def _check_ortho3p(ds, solutions, sigma: float) -> bool:
    p, q, r = (ds.truth.points3d[lab] for lab in ds.labels[:3])
    truth = np.array([np.linalg.norm(q - p), np.linalg.norm(r - q), np.linalg.norm(p - r)])
    err = min(np.max(np.abs(np.array(s.lengths) - truth)) for s in solutions)
    return err <= ORTHO3P_BOUND.at(sigma) * truth.max()


def _check_persp2f(ds, est, sigma: float) -> bool:
    if est.translation is None:
        return False
    rot, trans = persp2f.relative_truth_motion(ds)
    bound = PERSP2F_BOUND.at(sigma)
    return est.rotation.angle_to(rot) <= bound and _angle(est.translation, trans) <= bound


def _check_curves(ds, lifted, sigma: float) -> bool:
    truth = ds.truth.curves3d[0]["samples"]
    if len(lifted.source_indices) < CURVES_MIN_KEPT * len(truth):
        return False
    pts = np.array(list(ds.truth.points3d.values()))
    diam = float(np.max(np.linalg.norm(pts[:, None] - pts[None, :], axis=2)))
    err = np.linalg.norm(lifted.points - truth[lifted.source_indices], axis=1)
    return float(np.max(err)) <= CURVES_BOUND.at(sigma) * diam


CHECKS = {"ortho3p": _check_ortho3p, "persp2f": _check_persp2f, "curves": _check_curves}


def check(item: Item, ds, result) -> str | None:
    """None when the result is within its truth bound, else ``BOUND_MISSED``."""
    return None if CHECKS[item.kind](ds, result, item.sigma) else BOUND_MISSED
