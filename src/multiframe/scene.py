"""Synthetic rigid scenes: fabrication, motion scripts, rendering, noise.

The generator is the ground-truth oracle for every solver: it builds
labeled 3-D points and curves, applies a motion script (object motions for
the orthographic and calibrated regimes, camera poses for the uncalibrated
regime), renders per-frame observations, and attaches the truth block.
Everything is deterministic given the seeds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .dof import Regime
from .errors import DegenerateProjection, GenerationError, InputError
from .geometry import CameraPose, RigidMotion, Rotation, project, vec3


@dataclass(frozen=True, eq=False)
class CurveSpec:
    """Ordered 3-D samples of one smooth curve with traceable endpoints."""

    id: str
    samples: np.ndarray  # (n, 3)
    endpoint_labels: tuple[str, str]

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        if s.ndim != 2 or s.shape[1] != 3 or s.shape[0] < 2:
            raise InputError("curve needs >= 2 samples of shape (n, 3)")
        object.__setattr__(self, "samples", s)


@dataclass(frozen=True, eq=False)
class SceneSpec:
    """Labeled ground-truth points plus optional curves."""

    points: dict[str, np.ndarray]
    curves: list[CurveSpec] = field(default_factory=list)
    seed: int = 0

    def __post_init__(self):
        pts = {k: np.asarray(v, dtype=float) for k, v in self.points.items()}
        if len(pts) < 1:
            raise InputError("scene needs at least one labeled point")
        labels = sorted(pts)
        if len(labels) >= 3:
            a, b, c = (pts[l] for l in labels[:3])
            area = np.linalg.norm(np.cross(b - a, c - a))
            if area < 1e-12:
                raise InputError("first three labeled points are collinear")
        for curve in self.curves:
            for lab in curve.endpoint_labels:
                if lab not in pts:
                    raise InputError(f"curve {curve.id!r} endpoint label {lab!r} unknown")
        object.__setattr__(self, "points", pts)

    @property
    def labels(self) -> list[str]:
        return sorted(self.points)


@dataclass(frozen=True)
class NoiseSpec:
    sigma: float
    seed: int = 0

    def __post_init__(self):
        if not np.isfinite(self.sigma) or self.sigma < 0:
            raise InputError("noise sigma must be finite and >= 0")


@dataclass(frozen=True, eq=False)
class MotionScript:
    """Per-frame object motions (frame 1 identity) or per-frame camera poses."""

    motions: list[RigidMotion] | None = None
    poses: list[CameraPose] | None = None

    def __post_init__(self):
        if (self.motions is None) == (self.poses is None):
            raise InputError("script needs exactly one of motions or poses")
        if self.motions is not None:
            if len(self.motions) < 1:
                raise InputError("script needs at least one frame")
            first = self.motions[0]
            if not np.allclose(first.rotation.matrix, np.eye(3)) or not np.allclose(
                first.translation, 0.0
            ):
                raise InputError("first motion must be the identity (reference frame)")
        elif len(self.poses) < 1:
            raise InputError("script needs at least one frame")

    @property
    def n_frames(self) -> int:
        return len(self.motions) if self.motions is not None else len(self.poses)


@dataclass(frozen=True, eq=False)
class FrameObs:
    """Observations of one frame: labeled image points, curves, epipoles."""

    id: int
    points: dict[str, np.ndarray]
    curves: list[dict]  # {"id", "samples" (n,2), "endpoints" optional}
    epipoles: dict[int, np.ndarray] | None = None


@dataclass(frozen=True, eq=False)
class TruthBlock:
    points3d: dict[str, np.ndarray]
    motions: list[RigidMotion] | None = None
    poses: list[CameraPose] | None = None
    curves3d: list[dict] | None = None  # {"id", "samples" (n,3)}


@dataclass(frozen=True, eq=False)
class MultiframeDataset:
    regime: Regime
    frames: list[FrameObs]
    truth: TruthBlock | None = None
    noise: NoiseSpec | None = None

    def __post_init__(self):
        if not self.frames:
            raise InputError("dataset needs at least one frame")
        label_sets = {frozenset(f.points) for f in self.frames}
        if len(label_sets) != 1:
            raise InputError("all frames must share the same traced label set")
        has_epi = any(f.epipoles for f in self.frames)
        if has_epi and self.regime is not Regime.PERSPECTIVE_UNCALIBRATED:
            raise InputError("epipole tables only belong to uncalibrated datasets")

    @property
    def labels(self) -> list[str]:
        return sorted(self.frames[0].points)

    @property
    def n_frames(self) -> int:
        return len(self.frames)


def _pose_for_regime(regime: Regime) -> CameraPose:
    if regime is Regime.ORTHOGRAPHIC:
        return CameraPose.canonical_orthographic()
    return CameraPose.canonical_perspective()


def render(scene: SceneSpec, script: MotionScript, regime: Regime) -> MultiframeDataset:
    """Project every labeled point and curve sample into every frame.

    For the uncalibrated regime the script must supply camera poses and the
    exact epipole table is attached; otherwise the script supplies object
    motions in front of the canonical camera.  The truth block always rides
    along.  A point at or behind a focal plane raises
    :class:`GenerationError` naming the frame and label.
    """
    if regime is Regime.PERSPECTIVE_UNCALIBRATED:
        if script.poses is None:
            raise InputError("uncalibrated rendering moves the camera: supply poses")
        poses = script.poses
        frames = []
        for i, pose in enumerate(poses):
            pts = {}
            for lab, p in scene.points.items():
                try:
                    pts[lab] = project(p, pose)
                except DegenerateProjection as exc:
                    raise GenerationError(f"frame {i + 1}, point {lab!r}: {exc}") from exc
            curves = [
                {
                    "id": c.id,
                    "samples": np.array([project(q, pose) for q in c.samples]),
                    "endpoints": list(c.endpoint_labels),
                }
                for c in scene.curves
            ]
            epi = {}
            for j, other in enumerate(poses):
                if j == i:
                    continue
                try:
                    epi[j + 1] = project(other.focal, pose)
                except DegenerateProjection as exc:
                    raise GenerationError(
                        f"frame {i + 1}: focal point of frame {j + 1} not projectable: {exc}"
                    ) from exc
            frames.append(FrameObs(i + 1, pts, curves, epi))
        truth = TruthBlock(
            dict(scene.points),
            poses=list(poses),
            curves3d=[{"id": c.id, "samples": c.samples.copy()} for c in scene.curves],
        )
        return MultiframeDataset(regime, frames, truth)

    if script.motions is None:
        raise InputError("object-motion rendering requires a motions script")
    pose = _pose_for_regime(regime)
    frames = []
    for i, motion in enumerate(script.motions):
        pts = {}
        for lab, p in scene.points.items():
            try:
                pts[lab] = project(motion.apply(p), pose)
            except DegenerateProjection as exc:
                raise GenerationError(f"frame {i + 1}, point {lab!r}: {exc}") from exc
        curves = [
            {
                "id": c.id,
                "samples": np.array([project(motion.apply(q), pose) for q in c.samples]),
                "endpoints": list(c.endpoint_labels),
            }
            for c in scene.curves
        ]
        frames.append(FrameObs(i + 1, pts, curves, None))
    truth = TruthBlock(
        dict(scene.points),
        motions=list(script.motions),
        curves3d=[{"id": c.id, "samples": c.samples.copy()} for c in scene.curves],
    )
    return MultiframeDataset(regime, frames, truth)


def add_noise(dataset: MultiframeDataset, noise: NoiseSpec) -> MultiframeDataset:
    """Isotropic Gaussian perturbation of every stored image point.

    Deterministic per seed.  The truth block and the epipole tables are
    left untouched (epipoles stay exact by design).
    """
    if noise.sigma == 0.0:
        return dataset
    rng = np.random.default_rng(noise.seed)
    frames = []
    for f in dataset.frames:
        pts = {
            lab: f.points[lab] + rng.normal(scale=noise.sigma, size=2)
            for lab in sorted(f.points)
        }
        curves = [
            {
                **c,
                "samples": c["samples"] + rng.normal(scale=noise.sigma, size=c["samples"].shape),
            }
            for c in f.curves
        ]
        frames.append(FrameObs(f.id, pts, curves, f.epipoles))
    return MultiframeDataset(dataset.regime, frames, dataset.truth, noise)


def rerender_truth(dataset: MultiframeDataset) -> MultiframeDataset:
    """Render the truth block again (noiselessly); used by validators."""
    if dataset.truth is None:
        raise InputError("dataset carries no truth block")
    t = dataset.truth
    curves = []
    if t.curves3d:
        by_id = {c["id"]: c for c in t.curves3d}
        for c in dataset.frames[0].curves:
            ends = tuple(c.get("endpoints") or ("", ""))
            if all(e in t.points3d for e in ends):
                curves.append(CurveSpec(c["id"], by_id[c["id"]]["samples"], ends))
    scene = SceneSpec(dict(t.points3d), curves, seed=0)
    script = (
        MotionScript(motions=t.motions)
        if t.motions is not None
        else MotionScript(poses=t.poses)
    )
    return render(scene, script, dataset.regime)


def validate_general_position(dataset: MultiframeDataset) -> list[str]:
    """Warnings for configurations that break solver preconditions.

    Flags coincident projections, collinear projected triples, and curve
    samples whose tangent runs along the epipolar direction (approximate
    test, needs the truth block).
    """
    warnings: list[str] = []
    labels = dataset.labels
    for f in dataset.frames:
        for a, b in itertools.combinations(labels, 2):
            if np.linalg.norm(f.points[a] - f.points[b]) < 1e-9:
                warnings.append(f"frame {f.id}: labels {a!r} and {b!r} project together")
        for a, b, c in itertools.combinations(labels[: min(len(labels), 8)], 3):
            u = f.points[b] - f.points[a]
            v = f.points[c] - f.points[a]
            den = np.linalg.norm(u) * np.linalg.norm(v)
            if den > 0 and abs(u[0] * v[1] - u[1] * v[0]) < 1e-9 * den:
                warnings.append(f"frame {f.id}: labels {a!r},{b!r},{c!r} collinear")
    warnings.extend(_curve_tangency_warnings(dataset))
    return warnings


def _curve_tangency_warnings(dataset: MultiframeDataset) -> list[str]:
    out: list[str] = []
    t = dataset.truth
    if t is None or t.poses is None and t.motions is None:
        return out
    if dataset.regime is Regime.ORTHOGRAPHIC or not dataset.frames[0].curves:
        return out
    # epipolar direction at a sample ~ direction of the projected baseline;
    # compare against the local curve tangent in every non-reference frame
    from .curves import epipolar_lines  # local import to avoid a cycle

    ref_curves = {c["id"]: c["samples"] for c in dataset.frames[0].curves}
    pose_ref = truth_poses(dataset, 0)
    for f in dataset.frames[1:]:
        pairs = [
            (c["id"], ref_curves[c["id"]], c["samples"])
            for c in f.curves
            if c["id"] in ref_curves
            and len(c["samples"]) >= 3
            and len(ref_curves[c["id"]]) == len(c["samples"])
        ]
        if not pairs:
            continue
        _, dirs, degenerate = epipolar_lines(
            np.concatenate([ref[:-1] for _, ref, _ in pairs]),
            pose_ref,
            truth_poses(dataset, f.id - 1),
        )
        bounds = np.cumsum([len(s) - 1 for _, _, s in pairs])[:-1]
        for (cid, _, s), d, bad in zip(pairs, np.split(dirs, bounds), np.split(degenerate, bounds)):
            tangent = np.diff(s, axis=0)
            nt = np.linalg.norm(tangent, axis=1)
            with np.errstate(divide="ignore", invalid="ignore"):
                sin = np.abs(tangent[:, 0] * d[:, 1] - tangent[:, 1] * d[:, 0]) / nt
            near = np.flatnonzero((nt >= 1e-12) & ~bad & (sin < 1e-4))
            if near.size:
                out.append(
                    f"frame {f.id}: curve {cid!r} near epipolar tangency at sample {near[0]}"
                )
    return out


def truth_poses(dataset: MultiframeDataset, frame_idx: int) -> CameraPose:
    """Effective camera pose of one frame, in scene coordinates.

    Object-motion scripts are converted to the equivalent moving camera:
    frame i's camera is the canonical pose carried by the inverse motion.
    """
    t = dataset.truth
    if t is None:
        raise InputError("dataset carries no truth block")
    if t.poses is not None:
        return t.poses[frame_idx]
    pose = _pose_for_regime(dataset.regime)
    inv = t.motions[frame_idx].inverse()
    focal = None if pose.focal is None else inv.apply(pose.focal)
    return CameraPose(
        inv.apply(pose.origin),
        inv.rotation.apply(pose.basis_u),
        inv.rotation.apply(pose.basis_v),
        focal,
    )


# ---------------------------------------------------------------------------
# random scene fabrication (deterministic per seed)
# ---------------------------------------------------------------------------


def _random_rotation(rng) -> Rotation:
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return Rotation.from_axis_angle(axis, rng.uniform(0.3, 2.2))


def random_triangle_scene(seed: int, center=(0.0, 0.0, 0.0)) -> SceneSpec:
    """Non-degenerate labeled triangle P, Q, R near ``center``."""
    rng = np.random.default_rng(seed)
    c = np.asarray(center, dtype=float)
    while True:
        pts = c[None, :] + rng.uniform(-1.0, 1.0, size=(3, 3))
        area = np.linalg.norm(np.cross(pts[1] - pts[0], pts[2] - pts[0]))
        sides = [np.linalg.norm(pts[i] - pts[j]) for i, j in ((0, 1), (1, 2), (2, 0))]
        if area > 0.35 and min(sides) > 0.4:
            break
    return SceneSpec({"P": pts[0], "Q": pts[1], "R": pts[2]}, seed=seed)


def random_cloud_scene(seed: int, n_points: int = 10, center=(0.0, 0.0, 3.0)) -> SceneSpec:
    """Labeled point cloud in a unit ball around ``center``."""
    rng = np.random.default_rng(seed)
    c = np.asarray(center, dtype=float)
    pts = {}
    i = 0
    while len(pts) < n_points:
        p = c + rng.uniform(-1.0, 1.0, size=3)
        if all(np.linalg.norm(p - q) > 0.15 for q in pts.values()):
            pts[f"p{i:02d}"] = p
            i += 1
    labels = sorted(pts)
    a, b, cc = (pts[l] for l in labels[:3])
    if np.linalg.norm(np.cross(b - a, cc - a)) < 0.05:
        return random_cloud_scene(seed + 100_003, n_points, center)
    return SceneSpec(pts, seed=seed)


def random_arc_scene(seed: int, n_samples: int = 100, center=(0.0, 0.0, 3.0)) -> SceneSpec:
    """Circular 3-D arc plus a labeled cloud; arc endpoints are traced."""
    rng = np.random.default_rng(seed)
    cloud = random_cloud_scene(seed + 7, n_points=10, center=center)
    c = np.asarray(center, dtype=float) + rng.uniform(-0.2, 0.2, size=3)
    radius = rng.uniform(0.5, 0.9)
    u = rng.normal(size=3)
    u /= np.linalg.norm(u)
    v = rng.normal(size=3)
    v -= (v @ u) * u
    v /= np.linalg.norm(v)
    span = rng.uniform(1.5, 2.4)
    t = np.linspace(0.0, span, n_samples)
    samples = c[None, :] + radius * (
        np.cos(t)[:, None] * u[None, :] + np.sin(t)[:, None] * v[None, :]
    )
    pts = dict(cloud.points)
    pts["arc:start"] = samples[0]
    pts["arc:end"] = samples[-1]
    curve = CurveSpec("arc", samples, ("arc:start", "arc:end"))
    return SceneSpec(pts, [curve], seed=seed)


def random_motion_script(
    seed: int, n_frames: int, regime: Regime, scene: SceneSpec
) -> MotionScript:
    """Motion script keeping every scene element projectable in every frame."""
    rng = np.random.default_rng(seed)
    if regime is Regime.PERSPECTIVE_UNCALIBRATED:
        return MotionScript(poses=random_camera_ring(seed, n_frames))
    motions = [RigidMotion.identity()]
    all_pts = list(scene.points.values()) + [
        q for c in scene.curves for q in c.samples
    ]
    centroid = np.mean(all_pts, axis=0)
    for _ in range(n_frames - 1):
        for _attempt in range(200):
            rot = _random_rotation(rng)
            if regime is Regime.ORTHOGRAPHIC:
                trans = rng.uniform(-0.5, 0.5, size=3)
            else:
                # rotate about the cloud centroid, then drift gently
                trans = rng.uniform(-0.35, 0.35, size=3)
                trans[2] = rng.uniform(-0.25, 0.6)
            motion = RigidMotion(rot, centroid - rot.apply(centroid) + trans)
            if regime is Regime.ORTHOGRAPHIC or all(
                (motion.apply(p))[2] > 0.6 for p in all_pts
            ):
                motions.append(motion)
                break
        else:
            raise GenerationError("could not find a projectable motion")
    return MotionScript(motions=motions)


def random_camera_ring(seed: int, n_frames: int = 4, radius_range=(3.6, 4.0)) -> list[CameraPose]:
    """Cameras on a jittered ring looking roughly at the origin.

    Directions are kept 35-105 degrees apart so every focal point sits in
    front of every other camera (all epipoles well defined).
    """
    rng = np.random.default_rng(seed)
    for _attempt in range(500):
        dirs = []
        for k in range(n_frames):
            polar = np.deg2rad(45.0 + rng.uniform(-8.0, 8.0))
            azim = np.deg2rad(90.0 * k + rng.uniform(-14.0, 14.0))
            dirs.append(
                vec3(
                    np.sin(polar) * np.cos(azim),
                    np.sin(polar) * np.sin(azim),
                    np.cos(polar),
                )
            )
        angles = [
            np.degrees(np.arccos(np.clip(a @ b, -1, 1)))
            for a, b in itertools.combinations(dirs, 2)
        ]
        if min(angles) < 35.0 or max(angles) > 105.0:
            continue
        poses = []
        ok = True
        for d in dirs:
            focal = d * rng.uniform(*radius_range)
            target = rng.uniform(-0.15, 0.15, size=3)  # look near the origin
            n = target - focal
            n /= np.linalg.norm(n)
            u = np.cross(vec3(0, 0, 1.0), n)
            if np.linalg.norm(u) < 0.2:
                u = np.cross(vec3(0, 1.0, 0), n)
            u /= np.linalg.norm(u)
            v = np.cross(n, u)
            poses.append(CameraPose(focal + n, u, v, focal))
        # every focal must be in front of every other camera, with margin
        for i, pi in enumerate(poses):
            for j, pj in enumerate(poses):
                if i != j and float((pj.focal - pi.focal) @ pi.normal) < 0.5:
                    ok = False
        if ok:
            return poses
    raise GenerationError("could not place a valid uncalibrated camera ring")
