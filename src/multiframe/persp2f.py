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
order: one rotation product per frame normalizes, one ``einsum`` builds the
stacked system, and each candidate's vote fills one ``(n, 3, 2)`` array of
depth systems, whose one batched SVD solves every row before the singular
ones are masked.  A pure rotation (zero baseline) is reported, not solved;
its fit runs only when no bearing dot product changes between the frames by
more than a rotation allows (:func:`_parallax_gap`).  Label-keyed dicts are
built only for the returned values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dof import Regime
from .errors import (
    AmbiguityError,
    InputError,
    NotEssentialError,
    RankDeficientError,
)
from .geometry import Rotation, _det3, _norm, cross

# noise gate, until a noise estimate replaces it: a composite with singular
# values s0 >= s1 >= s2 is essential when (s0 - s1) / s0 and s2 / s0 stay within it
ESSENTIAL_STRUCTURE = 1e-6
DEPTH_SINGULAR = 1e-9  # s1 / s0 of a point's depth system: below it, on the baseline
PARALLAX = 3e-7  # a change in bearing dot products that no pure rotation makes
_W = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])  # a quarter turn about z

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


def _axis_rotation(b: np.ndarray) -> Rotation:
    """Rotation taking the unit bearing ``b`` onto the optical axis."""
    b = b / _norm(b)
    axis = cross(b, np.array([0.0, 0.0, 1.0]))
    s = _norm(axis)
    c = float(b[2])  # b . e3
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
    behind = np.fmin(m1[:, 2], m2[:, 2]) <= 1e-12
    if behind.any():
        raise InputError(
            f"label {labels[int(behind.argmax())]!r} leaves the field of view when recalculated"
        )
    n1, n2 = m1[:, :2] / m1[:, 2:], m2[:, :2] / m2[:, 2:]
    n1[d] = n2[d] = 0.0
    return NormalizedPair(labels, n1, n2, rot1, rot2, distinguished)


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
    # thin unless fewer than 9 rows: only vt's last row is read, and with 8 rows a
    # thin vt has only 8 (the full U would be n x n)
    _, s, vt = np.linalg.svd(rows, full_matrices=n < 9)
    s = s.tolist()
    if s[7] <= 1e-10 * s[0]:
        raise RankDeficientError("correspondence system has rank below 8")
    e = vt[-1].reshape(3, 3)
    e /= _norm(vt[-1])
    s_min = s[8] if n >= 9 else 0.0
    return e, s_min, s_min / s[0] if s[0] > 0 else 0.0


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
    s0, s1, s2 = s.tolist()
    if s0 <= 0:
        raise NotEssentialError("composite matrix is zero")
    if (s0 - s1) / s0 > structure_tol or s2 / s0 > structure_tol:
        raise NotEssentialError(
            "singular values %.3e, %.3e, %.3e break the essential structure (tolerance %.2e);"
            " correspondences are inconsistent" % (s0, s1, s2, structure_tol)
        )
    if _det3(u.tolist()) < 0:
        u = -u
    if _det3(vt.tolist()) < 0:
        vt = -vt
    t = u[:, 2]
    candidates = []
    for rot_mat in (u @ _W @ vt, u @ _W.T @ vt):
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
    (on the baseline) are excluded from the vote.  The candidate is accepted
    iff every included point has Z1 > 0 and Z2 > 0 (NaN is neither).  One
    batched SVD of the ``(n, 3, 2)`` systems, filled in place, gives both the
    singular-value test and every row's depths ``V diag(1/s) U^T (-t)``.
    """
    mats = np.empty((len(corr1), 3, 2))
    mats[:, :, 0] = bearing(corr1) @ rotation.matrix.T
    np.negative(corr2, out=mats[:, :2, 1])
    mats[:, 2, 1] = -1.0
    u, s, vt = np.linalg.svd(mats, full_matrices=False)
    solvable = s[:, 1] > DEPTH_SINGULAR * s[:, 0]
    with np.errstate(all="ignore"):  # the singular rows, masked below
        depths = np.einsum("nji,nj->ni", vt, np.einsum("nji,j->ni", u, -translation) / s)
    excluded = np.flatnonzero(~solvable)
    depths[excluded] = np.nan
    accepted = len(excluded) < len(depths) and bool((depths > 0).all(where=solvable[:, None]))
    return DepthVote(depths, excluded.tolist(), accepted)


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
    :func:`~multiframe.geometry.best_fit_motions`.
    """
    b1 = b1 / np.linalg.norm(b1, axis=1, keepdims=True)
    b2 = b2 / np.linalg.norm(b2, axis=1, keepdims=True)
    h = b1.T @ b2
    u, _, vt = np.linalg.svd(h)
    d = math.copysign(1.0, _det3(vt.tolist()) * _det3(u.tolist()))  # det(V U^T)
    rot = Rotation(vt.T @ np.diag([1.0, 1.0, d]) @ u.T)
    aligned = b1 @ rot.matrix.T
    dots = np.clip(np.sum(aligned * b2, axis=1), -1.0, 1.0)
    return rot, float(np.max(np.arccos(dots)))


def _parallax_gap(points: np.ndarray) -> float:
    """Largest change between two frames' ``(2, n, 2)`` image points in the cosine of a
    bearing's angle to the first point's: the pairs (0, i), never the n x n Gram matrix.

    A rotation R keeps dot products.  With unit bearings g1_i, g2_i and theta_i the
    angle from R g1_i to g2_i, |g2_i.g2_j - g1_i.g1_j| <= theta_i + theta_j for every R,
    as each bearing moves a dot product by at most its chord.  A gap above PARALLAX
    so leaves an angle above 1.5e-7 whatever R, which :func:`_pure_rotation_fit`
    reads to about 3e-9 (its dot products round at 1e-16): above its 1e-7 gate.
    """
    sq = np.einsum("fni,fni->fn", points, points) + 1.0  # bearings (u, v, 1)
    cos = (np.einsum("fni,fi->fn", points, points[:, 0]) + 1.0) / np.sqrt(sq * sq[:, :1])
    return np.abs(cos[1] - cos[0]).max()


def two_frame_reconstruct(
    dataset,
    *,
    allow_eight: bool = False,
) -> MotionEstimate:
    """Full pipeline: normalize, solve, decompose, vote, denormalize; the first label is
    the distinguished point."""
    if dataset.regime is not Regime.PERSPECTIVE_CALIBRATED:
        raise InputError("two-frame reconstruction needs a calibrated-perspective dataset")
    if dataset.n_frames != 2:
        raise InputError("two-frame reconstruction needs exactly 2 frames")
    labels = dataset.labels
    minimum = 8 if allow_eight else 9
    if len(labels) < minimum:
        raise InputError(NINE_POINT_MESSAGE)
    distinguished = labels[0]
    uv1, uv2 = dataset.points[0], dataset.points[1]

    # zero-baseline scripts reduce to a pure rotation of the bearings; depths
    # are unrecoverable there, so report the rotation and flag the baseline.
    # The fit runs only where the bearings' dot products do not prove parallax
    if not _parallax_gap(dataset.points) > PARALLAX:  # NaN, from overflow, runs the fit
        rot_fit, resid = _pure_rotation_fit(bearing(uv1), bearing(uv2))
        # resid is an angle from arccos of a dot product.  One or two ulps below 1
        # read as 1.5e-8 to 3e-8 rad, so an exact pure rotation lands there; 1e-7
        # clears that by three times and calls any smaller parallax zero baseline
        if resid < 1e-7:
            return MotionEstimate(
                rot_fit, None, None, {}, {}, distinguished, baseline_degenerate=True, survivors=0
            )

    norm = normalize_distinguished(labels, uv1, uv2, distinguished)
    corr1, corr2 = norm.points1, norm.points2
    e, s_min, inconsistency = solve_composite(corr1, corr2, allow_eight=allow_eight)
    structure_tol = max(ESSENTIAL_STRUCTURE, 100.0 * inconsistency)
    candidates = decompose(e, structure_tol=structure_tol)
    votes = [recover_depths(a, t, corr1, corr2) for a, t in candidates]
    winners = [i for i, v in enumerate(votes) if v.accepted]
    if len(winners) != 1:
        raise AmbiguityError(f"chirality vote left {len(winners)} of {len(candidates)} candidates")
    a_norm, t_norm = candidates[winners[0]]
    vote = votes[winners[0]]

    z_dist = vote.depths[0, 0]
    if not (math.isfinite(z_dist) and z_dist > 0):
        raise AmbiguityError("distinguished point depth is unrecoverable")
    scale = 1.0 / z_dist
    excluded = set(vote.excluded)
    kept = [i for i in range(len(labels)) if i not in excluded]
    z = vote.depths[kept] * scale
    m1, m2 = m = bearing(np.array((corr1, corr2))[:, kept])  # both frames' kept bearings
    points3d = (z[:, :1] * m1) @ norm.rot1.matrix  # rows R1^T (Z1 m1)
    lengths = np.sqrt(np.add.reduce(m * m, axis=2))  # as np.linalg.norm computes them
    residuals = np.abs(np.einsum("ni,ij,nj->n", m2, e, m1)) / (lengths[0] * lengths[1])

    r2t = norm.rot2.matrix.T
    t_orig = r2t @ t_norm
    names = [labels[i] for i in kept]
    return MotionEstimate(
        rotation=Rotation(r2t @ a_norm.matrix @ norm.rot1.matrix),
        translation=t_orig,
        translation_scaled=t_orig * scale,
        depths=dict(zip(names, map(tuple, z.tolist()))),
        points3d=dict(zip(names, points3d)),
        distinguished=distinguished,
        excluded_labels=[labels[i] for i in vote.excluded],
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
