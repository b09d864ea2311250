"""Synthetic rigid scenes: fabrication, motion scripts, rendering, noise.

The generator is the ground-truth oracle for every solver: it builds
labeled 3-D points and curves, moves them by a script of object motions in
front of the canonical orthographic or calibrated-perspective camera,
renders per-frame observations, and attaches the truth block.  Everything
is deterministic given the seeds.

A :class:`MultiframeDataset` holds a sorted ``labels`` tuple and one
``(k, n, 2)`` array ``points``, row ``j`` of frame ``i`` imaging
``labels[j]``; each :class:`FrameObs` keeps a frame's id and curves.  A
``PERSPECTIVE_UNCALIBRATED`` dataset, which no solver reads, is refused.

Set-up cost: a render makes one product per frame and one projection product
for all frames; a cloud keeps its points in a grid, so a draw is compared with
its neighbours only; checks of one 3-vector or motion work on Python floats.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .dof import Regime
from .errors import DegenerateProjection, GenerationError, InputError
from .geometry import CameraPose, RigidMotion, Rotation, _finite3, _norm, cross, project_points


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
        if not np.isfinite(s).all():
            raise InputError(f"curve {self.id!r} samples must be finite")
        object.__setattr__(self, "samples", s)


@dataclass(frozen=True, eq=False)
class SceneSpec:
    """Labeled ground-truth points plus optional curves."""

    points: dict[str, np.ndarray]
    curves: list[CurveSpec] = field(default_factory=list)

    def __post_init__(self):
        if not self.points:
            raise InputError("scene needs at least one labeled point")
        _check_labels(self.points)
        try:
            xyz = np.array(list(self.points.values()), dtype=float)
        except ValueError:  # points of different shapes
            xyz = np.empty(0)
        if xyz.shape != (len(self.points), 3) or not np.isfinite(xyz).all():
            for label, p in self.points.items():  # raises on the first bad point
                _finite3(p, f"point {label!r}")
        pts = dict(zip(self.points, xyz))
        labels = sorted(pts)
        if len(labels) >= 3:
            a, b, c = (pts[l] for l in labels[:3])
            if _norm(cross(b - a, c - a)) < 1e-12:
                raise InputError("first three labeled points are collinear")
        for curve in self.curves:
            for lab in curve.endpoint_labels:
                if lab not in pts:
                    raise InputError(f"curve {curve.id!r} endpoint label {lab!r} unknown")
        object.__setattr__(self, "points", pts)


@dataclass(frozen=True)
class NoiseSpec:
    sigma: float
    seed: int = 0

    def __post_init__(self):
        if not np.isfinite(self.sigma) or self.sigma < 0:
            raise InputError("noise sigma must be finite and >= 0")


@dataclass(frozen=True, eq=False)
class MotionScript:
    """Per-frame object motions; frame 1's is the identity."""

    motions: list[RigidMotion]

    def __post_init__(self):
        if not self.motions:
            raise InputError("script needs at least one frame")
        first = self.motions[0]
        got = first.rotation.matrix.ravel().tolist() + first.translation.tolist()
        eye = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0)  # R's rows, then t
        # np.allclose's test on floats, NaN failing: |a - b| <= atol + rtol |b|
        if not all(abs(a - b) <= 1e-8 + 1e-5 * b for a, b in zip(got, eye)):
            raise InputError("first motion must be the identity (reference frame)")

    @property
    def n_frames(self) -> int:
        return len(self.motions)


@dataclass(frozen=True, eq=False)
class FrameObs:
    """One frame's id and curves; its points are a row of the dataset's array."""

    id: int
    curves: list[dict]  # {"id", "samples" (n,2), "endpoints" optional}


@dataclass(frozen=True, eq=False)
class TruthBlock:
    points3d: dict[str, np.ndarray]
    motions: list[RigidMotion] | None = None
    curves3d: list[dict] | None = None  # {"id", "samples" (n,3)}


@dataclass(frozen=True, eq=False)
class MultiframeDataset:
    """Frames of one regime: ``points[i, j]`` images ``labels[j]`` in ``frames[i]``."""

    regime: Regime
    labels: tuple[str, ...]
    points: np.ndarray  # (k, n, 2)
    frames: list[FrameObs]
    truth: TruthBlock | None = None
    noise: NoiseSpec | None = None

    def __post_init__(self):
        if self.regime is Regime.PERSPECTIVE_UNCALIBRATED:
            raise InputError("no solver reads perspective_uncalibrated datasets")
        if not self.frames:
            raise InputError("dataset needs at least one frame")
        labels = tuple(self.labels)
        _check_labels(labels)
        if list(labels) != sorted(set(labels)):
            raise InputError("labels must be distinct and sorted")
        points = np.asarray(self.points, dtype=float)
        if points.shape != (len(self.frames), len(labels), 2):
            raise InputError(
                f"points of shape {points.shape} do not hold one (u, v) row per frame "
                f"and label: {len(self.frames)} frames share a label set of {len(labels)}"
            )
        motions = self.truth.motions if self.truth is not None else None
        if motions is not None and len(motions) != len(self.frames):
            raise InputError(f"truth holds {len(motions)} motions for {len(self.frames)} frames")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "points", points)

    @property
    def n_frames(self) -> int:
        return len(self.frames)


def _check_labels(labels) -> None:
    for label in labels:
        if type(label) is not str:
            raise InputError(f"label {label!r} is {type(label).__name__}, not str")


def _pose_for_regime(regime: Regime) -> CameraPose:
    if regime is Regime.ORTHOGRAPHIC:
        return CameraPose.canonical_orthographic()
    return CameraPose.canonical_perspective()


def _moved(points: np.ndarray, motion: RigidMotion) -> np.ndarray:
    """``(n, 3)`` points moved by ``motion``: R p + t row by row in one stacked
    product, which rounds as RigidMotion.apply does (``points @ R.T`` may not)."""
    return (motion.rotation.matrix @ points[..., None])[..., 0] + motion.translation


def render(scene: SceneSpec, script: MotionScript, regime: Regime) -> MultiframeDataset:
    """Project every labeled point and curve sample into every frame.

    The script's object motions move the scene in front of the regime's
    canonical camera, one product per frame; one projection product images
    every frame's points (in scene order, then permuted into sorted label
    order) and curve samples.  The truth block always rides along.  A point
    or sample at or behind the focal plane raises :class:`GenerationError`
    naming the frame and the label, or the frame, curve id and sample index.
    """
    labels = list(scene.points)
    order = sorted(range(len(labels)), key=labels.__getitem__)
    xyz = np.concatenate([list(scene.points.values())] + [c.samples for c in scene.curves])
    # where the points, then each curve, end in a frame's block of rows
    ends = np.cumsum([len(labels)] + [len(c.samples) for c in scene.curves]).tolist()
    moved = np.concatenate([_moved(xyz, m) for m in script.motions])
    try:
        images = project_points(moved, _pose_for_regime(regime))[0].reshape(-1, len(xyz), 2)
    except DegenerateProjection as exc:  # the first bad row: the per-frame order's first
        i, row = divmod(exc.index, len(xyz))
        j = int(np.searchsorted(ends, row, side="right"))  # 0: a point, else curve j - 1
        c = scene.curves[j - 1] if j else None
        where = f"curve {c.id!r}, sample {row - ends[j - 1]}" if j else f"point {labels[row]!r}"
        raise GenerationError(f"frame {i + 1}, {where}: {exc}") from exc
    frames = [FrameObs(i + 1, []) for i in range(script.n_frames)]
    for c, a, b in zip(scene.curves, ends, ends[1:]):
        for f, im in zip(frames, images):
            f.curves.append({"id": c.id, "samples": im[a:b], "endpoints": list(c.endpoint_labels)})
    truth = TruthBlock(
        dict(scene.points),
        motions=list(script.motions),
        curves3d=[{"id": c.id, "samples": c.samples.copy()} for c in scene.curves],
    )
    return MultiframeDataset(regime, [labels[j] for j in order], images[:, order], frames, truth)


def add_noise(dataset: MultiframeDataset, noise: NoiseSpec) -> MultiframeDataset:
    """Isotropic Gaussian perturbation of every stored image point.

    Deterministic per seed: each frame draws one ``(n, 2)`` block for its
    points in label order, then one block per curve.  The truth block is
    left untouched.
    """
    if noise.sigma == 0.0:
        return dataset
    rng = np.random.default_rng(noise.seed)
    points = np.empty_like(dataset.points)
    frames = []
    for f, pts, out in zip(dataset.frames, dataset.points, points):
        out[:] = pts + rng.normal(scale=noise.sigma, size=pts.shape)
        curves = [
            {
                **c,
                "samples": c["samples"] + rng.normal(scale=noise.sigma, size=c["samples"].shape),
            }
            for c in f.curves
        ]
        frames.append(FrameObs(f.id, curves))
    return MultiframeDataset(dataset.regime, dataset.labels, points, frames, dataset.truth, noise)


def validate_general_position(dataset: MultiframeDataset) -> list[str]:
    """Warnings for configurations that break solver preconditions.

    Flags coincident projections, collinear projected triples, and curve
    samples whose tangent runs along the epipolar direction (approximate
    test, needs the truth block).
    """
    warnings: list[str] = []
    labels = dataset.labels
    for f, frame in zip(dataset.frames, dataset.points):
        pts = dict(zip(labels, frame))
        for a, b in itertools.combinations(labels, 2):
            if np.linalg.norm(pts[a] - pts[b]) < 1e-9:
                warnings.append(f"frame {f.id}: labels {a!r} and {b!r} project together")
        for a, b, c in itertools.combinations(labels[: min(len(labels), 8)], 3):
            u = pts[b] - pts[a]
            v = pts[c] - pts[a]
            den = np.linalg.norm(u) * np.linalg.norm(v)
            if den > 0 and abs(u[0] * v[1] - u[1] * v[0]) < 1e-9 * den:
                warnings.append(f"frame {f.id}: labels {a!r},{b!r},{c!r} collinear")
    warnings.extend(_curve_tangency_warnings(dataset))
    return warnings


def _curve_tangency_warnings(dataset: MultiframeDataset) -> list[str]:
    out: list[str] = []
    t = dataset.truth
    if t is None or t.motions is None:
        return out
    if dataset.regime is Regime.ORTHOGRAPHIC or not dataset.frames[0].curves:
        return out
    # epipolar direction at a sample ~ direction of the projected baseline;
    # compare against the local curve tangent in every non-reference frame
    from .curves import epipolar_lines  # local import to avoid a cycle

    ref_curves = {c["id"]: c["samples"] for c in dataset.frames[0].curves}
    pose_ref = truth_poses(dataset, 0)
    # frame i's truth is motion i: frames are matched to the truth by position, not id
    for i, f in enumerate(dataset.frames[1:], start=1):
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
            truth_poses(dataset, i),
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
    if t is None or t.motions is None:
        raise InputError("dataset carries no motion truth")
    motion = t.motions[frame_idx]
    r = motion.rotation.matrix
    # the inverse motion p -> R^T p + shift carries the canonical plane vectors,
    # unit axes, to rows of R, the perspective plane origin (0, 0, 1) to row 2
    # plus shift and the origin to shift.  + 0.0 turns a -0.0 of shift into
    # 0.0, as adding R^T 0 does unless a column of R is all negative
    shift = -(r.T @ motion.translation)
    if dataset.regime is Regime.ORTHOGRAPHIC:
        return CameraPose(shift + 0.0, r[0], r[1])
    return CameraPose(r[2] + shift, r[0], r[1], shift + 0.0)


# ---------------------------------------------------------------------------
# random scene fabrication (deterministic per seed)
# ---------------------------------------------------------------------------


def _random_rotation(rng) -> Rotation:
    axis = rng.normal(size=3)
    axis /= _norm(axis)
    return Rotation.from_axis_angle(axis, rng.uniform(0.3, 2.2))


def random_triangle_scene(seed: int) -> SceneSpec:
    """Non-degenerate labeled triangle P, Q, R in the cube of half-width 1 around the origin."""
    rng = np.random.default_rng(seed)
    while True:
        pts = rng.uniform(-1.0, 1.0, size=(3, 3))
        area = _norm(cross(pts[1] - pts[0], pts[2] - pts[0]))
        sides = [_norm(pts[i] - pts[j]) for i, j in ((0, 1), (1, 2), (2, 0))]
        if area > 0.35 and min(sides) > 0.4:
            break
    return SceneSpec({"P": pts[0], "Q": pts[1], "R": pts[2]})


# separation of a cloud of n points: CLOUD_SPREAD * n^(-1/3), at most 0.15, so that
# the points fill the same small share of the cube at every size; up to 101
# points it is 0.15
CLOUD_SPREAD = 0.7
# where clouds and arcs are centered: in front of the canonical perspective camera
CLOUD_CENTER = np.array([0.0, 0.0, 3.0])


_NEIGHBOURS = list(itertools.product((-1, 0, 1), repeat=3))


def random_cloud_scene(seed: int, n_points: int = 10) -> SceneSpec:
    """Labeled point cloud in the cube of half-width 1 around ``CLOUD_CENTER``.

    Uniform draws are kept when they lie farther than the separation from
    every point kept before (the distance is ``sqrt(dx dx + dy dy + dz dz)``
    of the differences, as ``np.linalg.norm`` rounds it).  Kept points sit in
    cubic cells of side twice the separation, keyed by ``floor(coord / side)``,
    so a draw is compared only with the points of the 27 cells around its own:
    any point of another cell lies farther away than the separation, and every
    decision is the one a scan of all kept points makes.
    """
    if not isinstance(n_points, numbers.Integral) or n_points < 1:
        raise InputError(f"n_points must be an integer >= 1, not {n_points!r}")
    rng = np.random.default_rng(seed)
    sep = min(0.15, CLOUD_SPREAD * n_points ** (-1 / 3))
    side = 2 * sep
    cells: dict[tuple[int, int, int], list[list[float]]] = {}
    kept = []
    while len(kept) < n_points:
        p = x, y, z = (CLOUD_CENTER + rng.uniform(-1.0, 1.0, size=3)).tolist()
        i, j, k = math.floor(x / side), math.floor(y / side), math.floor(z / side)
        near = (q for a, b, c in _NEIGHBOURS for q in cells.get((i + a, j + b, k + c), ()))
        squares = ((u - x) * (u - x) + (v - y) * (v - y) + (w - z) * (w - z) for u, v, w in near)
        if all(math.sqrt(d2) > sep for d2 in squares):
            cells.setdefault((i, j, k), []).append(p)
            kept.append(p)
    pts = np.array(kept)
    if n_points >= 3 and _norm(cross(pts[1] - pts[0], pts[2] - pts[0])) < 0.05:
        return random_cloud_scene(seed + 100_003, n_points)
    return SceneSpec({f"p{i:02d}": p for i, p in enumerate(pts)})


def random_arc_scene(seed: int, n_samples: int = 100) -> SceneSpec:
    """Circular 3-D arc plus a labeled cloud; arc endpoints are traced."""
    if not isinstance(n_samples, numbers.Integral) or n_samples < 2:
        raise InputError(f"n_samples must be an integer >= 2, not {n_samples!r}")
    rng = np.random.default_rng(seed)
    cloud = random_cloud_scene(seed + 7, n_points=10)
    c = CLOUD_CENTER + rng.uniform(-0.2, 0.2, size=3)
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
    return SceneSpec(pts, [curve])


def random_motion_script(
    seed: int, n_frames: int, regime: Regime, scene: SceneSpec
) -> MotionScript:
    """Motion script keeping every scene element projectable in every frame."""
    rng = np.random.default_rng(seed)
    motions = [RigidMotion.identity()]
    all_pts = np.concatenate(
        [np.array(list(scene.points.values()))] + [c.samples for c in scene.curves]
    )
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
            if regime is Regime.ORTHOGRAPHIC or (_moved(all_pts, motion)[:, 2] > 0.6).all():
                motions.append(motion)
                break
        else:
            raise GenerationError("could not find a projectable motion")
    return MotionScript(motions=motions)
