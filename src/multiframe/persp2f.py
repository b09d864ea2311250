"""Two-frame calibrated-perspective structure and motion.

Image coordinates live on a plane one unit in front of the focal point, so
a scene point at depth Z with bearing m = (x, y, 1) sits at Z*m in camera
coordinates.  Writing the motion between the two camera frames as
p2 = A p1 + t, the per-point depths can be eliminated, leaving one
bilinear constraint per correspondence:

    (x2, y2, 1) . E . (x1, y1, 1)^T = 0,   E = [t]_x A.

Nine or more correspondences determine E linearly up to scale; the
composite is then factored into rotation/translation-direction candidates
and the per-point depth systems pick the unique candidate with all depths
positive (chirality).  Global scale is unrecoverable: the gauge fixes the
distinguished point at unit distance from the first focal point.

Both frames are first re-expressed (a pure rotation about each focal
point) so the distinguished point lies on the optical axis; the recorded
rotations invert the recalculation afterwards.

Every step runs on ``(n, 3)`` bearing arrays, rows in the dataset's label
order, from the moment a frame is read: one rotation product per
frame normalizes, one ``einsum`` builds the stacked system, one batched
SVD of the ``(n, 3, 2)`` depth systems votes on a candidate, and the
denormalized depths, structure and residuals are computed as arrays.
Label-keyed dicts are built only for the returned values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dof import Regime
from .errors import (
    AmbiguityError,
    InputError,
    NotEssentialError,
    RankDeficientError,
)
from .geometry import Rotation, cross

# noise gate, until a noise estimate replaces it: a composite with singular
# values s0 >= s1 >= s2 is essential when (s0 - s1) / s0 and s2 / s0 stay within it
ESSENTIAL_STRUCTURE = 1e-6
DEPTH_SINGULAR = 1e-9  # s1 / s0 of a point's depth system: below it, on the baseline

NINE_POINT_MESSAGE = (
    "nine correspondences are required to solve the composite matrix linearly "
    "(pass allow_eight=True to accept the 8-point generic minimum)"
)


def bearing(image_points) -> np.ndarray:
    """Homogeneous bearings (u, v, 1) over the last axis: ``(2,)`` gives
    ``(3,)`` and ``(n, 2)`` gives ``(n, 3)``."""
    p = np.asarray(image_points, dtype=float)
    return np.concatenate([p, np.ones(p.shape[:-1] + (1,))], axis=-1)


@dataclass(frozen=True, eq=False)
class NormalizedPair:
    """Correspondences after rotating the distinguished point onto the axis.

    ``points1`` and ``points2`` are ``(n, 2)`` arrays whose rows follow ``labels``.
    """

    labels: tuple[str, ...]
    points1: np.ndarray
    points2: np.ndarray
    rot1: Rotation
    rot2: Rotation
    distinguished: str

    def original_points(self, frame: int) -> np.ndarray:
        """Invert the recorded recalculation (round-trip check)."""
        rot = self.rot1 if frame == 1 else self.rot2
        pts = self.points1 if frame == 1 else self.points2
        m = bearing(pts) @ rot.matrix  # rows R^T b
        return m[:, :2] / m[:, 2:]


def _axis_rotation(b: np.ndarray) -> Rotation:
    """Rotation taking the unit bearing ``b`` onto the optical axis."""
    b = b / np.linalg.norm(b)
    e3 = np.array([0.0, 0.0, 1.0])
    axis = cross(b, e3)
    s = np.linalg.norm(axis)
    c = float(b @ e3)
    # s is the sine of b's angle to the axis.  Below 1e-15, a few ulps of a unit
    # vector, axis / s is rounding noise and the identity is within that angle;
    # bearings point forward (z > 0), so b is on the axis, not opposite it
    if s < 1e-15:
        return Rotation.identity()
    return Rotation.from_axis_angle(axis / s, float(np.arctan2(s, c)))


def normalize_distinguished(
    labels: tuple[str, ...],
    uv1: np.ndarray,
    uv2: np.ndarray,
    distinguished: str,
) -> NormalizedPair:
    """Rotate both image frames so the distinguished point maps to (0, 0).

    ``uv1`` and ``uv2`` are the two frames' ``(n, 2)`` image points, rows
    following ``labels``.
    """
    labels = tuple(labels)
    if distinguished not in labels:
        raise InputError(f"distinguished label {distinguished!r} missing from the labels")
    b1, b2 = bearing(uv1), bearing(uv2)
    rows = min(len(b1), len(b2))
    if rows < len(labels):
        raise InputError(f"label {labels[rows]!r} missing from frame {1 if len(b1) == rows else 2}")
    if b1.shape != (len(labels), 3) or b2.shape != b1.shape:
        raise InputError("image points need one (u, v) row per label")
    d = labels.index(distinguished)
    rot1, rot2 = _axis_rotation(b1[d]), _axis_rotation(b2[d])
    m1, m2 = b1 @ rot1.matrix.T, b2 @ rot2.matrix.T
    behind = (m1[:, 2] <= 1e-12) | (m2[:, 2] <= 1e-12)
    if behind.any():
        raise InputError(
            f"label {labels[int(behind.argmax())]!r} leaves the field of view when recalculated"
        )
    n1, n2 = m1[:, :2] / m1[:, 2:], m2[:, :2] / m2[:, 2:]
    n1[d] = n2[d] = 0.0
    return NormalizedPair(labels, n1, n2, rot1, rot2, distinguished)


def elimination_constraint(e: np.ndarray, m1, m2) -> float:
    """Depth-free bilinear constraint residual for one correspondence."""
    return float(bearing(m2) @ np.asarray(e, dtype=float) @ bearing(m1))


def solve_composite(
    corr1: list[np.ndarray],
    corr2: list[np.ndarray],
    *,
    allow_eight: bool = False,
) -> tuple[np.ndarray, float, float]:
    """Minimum-norm unit-norm solution of the stacked bilinear system.

    Returns (E with unit Frobenius norm, smallest singular value of the
    stacked system, inconsistency ratio s_min/s_max).  Rank below 8 raises
    :class:`RankDeficientError`.
    """
    n = len(corr1)
    if n != len(corr2):
        raise InputError("correspondence lists differ in length")
    minimum = 8 if allow_eight else 9
    if n < minimum:
        raise InputError(NINE_POINT_MESSAGE)
    rows = np.einsum("ni,nj->nij", bearing(corr2), bearing(corr1)).reshape(n, 9)
    _, s, vt = np.linalg.svd(rows)
    if s[7] <= 1e-10 * s[0]:
        raise RankDeficientError("correspondence system has rank below 8")
    e = vt[-1].reshape(3, 3)
    e /= np.linalg.norm(e)
    s_min = float(s[8]) if n >= 9 else 0.0
    return e, s_min, float(s_min / s[0]) if s[0] > 0 else 0.0


def decompose(
    e: np.ndarray, *, structure_tol: float = ESSENTIAL_STRUCTURE
) -> list[tuple[Rotation, np.ndarray]]:
    """Rotation/translation-direction candidates of a composite matrix.

    Factors E ~ [t]_x A; the four candidates (two rotations x two baseline
    signs) are returned in a deterministic order.  A violated
    essential-structure invariant raises :class:`NotEssentialError`.
    """
    e = np.asarray(e, dtype=float)
    u, s, vt = np.linalg.svd(e)
    if s[0] <= 0:
        raise NotEssentialError("composite matrix is zero")
    if (s[0] - s[1]) / s[0] > structure_tol or s[2] / s[0] > structure_tol:
        raise NotEssentialError(
            "singular values %.3e, %.3e, %.3e break the essential structure (tolerance %.2e);"
            " correspondences are inconsistent" % (*s, structure_tol)
        )
    if np.linalg.det(u) < 0:
        u = -u
    if np.linalg.det(vt) < 0:
        vt = -vt
    w = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    t = u[:, 2]
    candidates = []
    for rot_mat in (u @ w @ vt, u @ w.T @ vt):
        rot = Rotation(rot_mat)
        for sign in (1.0, -1.0):
            candidates.append((rot, sign * t))
    return candidates


@dataclass(frozen=True, eq=False)
class DepthVote:
    """Per-candidate chirality outcome."""

    depths: np.ndarray  # (n, 2), nan where excluded
    excluded: list[int]
    accepted: bool


def recover_depths(
    rotation: Rotation,
    translation: np.ndarray,
    corr1: list[np.ndarray],
    corr2: list[np.ndarray],
) -> DepthVote:
    """Solve the per-point 3-equation depth systems by linear elimination.

    Z1 * (A m1) - Z2 * m2 = -t per point; points whose system is singular
    (on the baseline) are excluded from the vote.  The candidate is
    accepted iff every included point has Z1 > 0 and Z2 > 0.  One batched
    SVD of the ``(n, 3, 2)`` systems gives both the singular-value test and
    the least-squares depths ``V diag(1/s) U^T (-t)``.
    """
    n = len(corr1)
    mats = np.stack([bearing(corr1) @ rotation.matrix.T, -bearing(corr2)], axis=-1)
    u, s, vt = np.linalg.svd(mats, full_matrices=False)
    solvable = s[:, 1] > DEPTH_SINGULAR * s[:, 0]
    coeffs = np.einsum("nji,j->ni", u[solvable], -translation)
    depths = np.full((n, 2), np.nan)
    depths[solvable] = np.einsum("nji,nj->ni", vt[solvable], coeffs / s[solvable])
    accepted = bool(solvable.any()) and not (depths[solvable] <= 0).any()
    return DepthVote(depths, np.flatnonzero(~solvable).tolist(), accepted)


@dataclass(frozen=True, eq=False)
class MotionEstimate:
    """Recovered two-frame motion and structure (frame-1 camera coordinates)."""

    rotation: Rotation
    translation: np.ndarray | None  # unit direction, None when degenerate
    translation_scaled: np.ndarray | None  # gauge: distinguished depth = 1
    depths: dict[str, tuple[float, float]]
    points3d: dict[str, np.ndarray]
    distinguished: str
    baseline_degenerate: bool = False
    excluded_labels: list[str] = field(default_factory=list)
    candidates_tried: int = 0
    survivors: int = 1
    max_constraint_residual: float = 0.0


def _pure_rotation_fit(b1: np.ndarray, b2: np.ndarray) -> tuple[Rotation, float]:
    """Best bearing-aligning rotation and its worst angular residual.

    A rotation about the focal point moves no bearing's origin, so the
    bearings are aligned as they are, not centered as in
    :func:`~multiframe.geometry.best_fit_rotation`.
    """
    b1 = b1 / np.linalg.norm(b1, axis=1, keepdims=True)
    b2 = b2 / np.linalg.norm(b2, axis=1, keepdims=True)
    h = b1.T @ b2
    u, _, vt = np.linalg.svd(h)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    rot = Rotation(vt.T @ np.diag([1.0, 1.0, d]) @ u.T)
    aligned = b1 @ rot.matrix.T
    dots = np.clip(np.sum(aligned * b2, axis=1), -1.0, 1.0)
    return rot, float(np.max(np.arccos(dots)))


def two_frame_reconstruct(
    dataset,
    *,
    distinguished: str | None = None,
    allow_eight: bool = False,
) -> MotionEstimate:
    """Full pipeline: normalize, solve, decompose, vote, denormalize."""
    if dataset.regime is not Regime.PERSPECTIVE_CALIBRATED:
        raise InputError("two-frame reconstruction needs a calibrated-perspective dataset")
    if dataset.n_frames != 2:
        raise InputError("two-frame reconstruction needs exactly 2 frames")
    labels = dataset.labels
    minimum = 8 if allow_eight else 9
    if len(labels) < minimum:
        raise InputError(NINE_POINT_MESSAGE)
    if distinguished is None:
        distinguished = labels[0]
    uv1, uv2 = dataset.points[0], dataset.points[1]

    # zero-baseline scripts reduce to a pure rotation of the bearings; depths
    # are unrecoverable there, so report the rotation and flag the baseline
    rot_fit, resid = _pure_rotation_fit(bearing(uv1), bearing(uv2))
    # resid is an angle from arccos of a dot product.  One or two ulps below 1
    # read as 1.5e-8 to 3e-8 rad, so an exact pure rotation lands there; 1e-7
    # clears that by three times and calls any smaller parallax zero baseline
    if resid < 1e-7:
        return MotionEstimate(
            rotation=rot_fit,
            translation=None,
            translation_scaled=None,
            depths={},
            points3d={},
            distinguished=distinguished,
            baseline_degenerate=True,
            candidates_tried=0,
            survivors=0,
        )

    norm = normalize_distinguished(labels, uv1, uv2, distinguished)
    corr1, corr2 = norm.points1, norm.points2
    e, s_min, inconsistency = solve_composite(corr1, corr2, allow_eight=allow_eight)
    structure_tol = max(ESSENTIAL_STRUCTURE, 100.0 * inconsistency)
    candidates = decompose(e, structure_tol=structure_tol)
    votes = [recover_depths(a, t, corr1, corr2) for a, t in candidates]
    winners = [i for i, v in enumerate(votes) if v.accepted]
    if len(winners) != 1:
        raise AmbiguityError(
            f"chirality vote left {len(winners)} of {len(candidates)} candidates"
        )
    a_norm, t_norm = candidates[winners[0]]
    vote = votes[winners[0]]

    z_dist = vote.depths[labels.index(distinguished), 0]
    if not np.isfinite(z_dist) or z_dist <= 0:
        raise AmbiguityError("distinguished point depth is unrecoverable")
    scale = 1.0 / z_dist
    kept = np.delete(np.arange(len(labels)), vote.excluded)
    names = np.array(labels, dtype=object)
    z = vote.depths[kept] * scale
    m1, m2 = bearing(corr1[kept]), bearing(corr2[kept])
    points3d = (z[:, :1] * m1) @ norm.rot1.matrix  # rows R1^T (Z1 m1)
    residuals = np.abs(np.einsum("ni,ij,nj->n", m2, e, m1)) / (
        np.linalg.norm(m1, axis=1) * np.linalg.norm(m2, axis=1)
    )

    r2t = norm.rot2.matrix.T
    t_orig = r2t @ t_norm
    return MotionEstimate(
        rotation=Rotation(r2t @ a_norm.matrix @ norm.rot1.matrix),
        translation=t_orig,
        translation_scaled=t_orig * scale,
        depths=dict(zip(names[kept], map(tuple, z.tolist()))),
        points3d=dict(zip(names[kept], points3d)),
        distinguished=distinguished,
        excluded_labels=names[vote.excluded].tolist(),
        candidates_tried=len(candidates),
        survivors=1,
        max_constraint_residual=float(residuals.max(initial=0.0)),
    )


def relative_truth_motion(dataset) -> tuple[Rotation, np.ndarray]:
    """Ground-truth frame-1 to frame-2 camera motion (rotation, translation)."""
    t = dataset.truth
    if t is None or t.motions is None:
        raise InputError("dataset carries no object-motion truth")
    m1, m2 = t.motions[0], t.motions[1]
    rel = m2.compose(m1.inverse())
    return rel.rotation, rel.translation
