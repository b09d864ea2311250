"""Lifting non-traceable curve points to 3-D once poses are known.

A curve interior point D' in image 1 has no correspondence of its own.
Its viewing ray, projected into image 2, must cross the second image of
the curve; the crossing D'' is the missing correspondence (monotone
arc-length continuity resolves multiple crossings).  Triangulating the two
viewing rays then lifts the point.

Transfer lines are built for all samples at once, in homogeneous image
coordinates: with ``P`` the 3x4 projector of the second camera, the line of
a ray with origin ``o`` and direction ``d`` is ``P (o, 1) x P (d, 0)``, the
join of the image of the origin (under perspective, the epipole) and the
ray's vanishing point.  Nothing is dehomogenized before the join, so rays
nearly parallel to the second focal plane, whose vanishing points run off
to infinity, keep full precision.  Under orthographic projection the
focal points sit at infinity and all transfer lines are parallel.

The transfer rule, for one line against the polyline of curve 2 (``band``
is ``Tolerances.transfer_band`` times the image scale, ``tangency`` is
``Tolerances.tangency``):

1. A segment whose sine of angle to the line is below ``tangency`` is a
   hit only when its first vertex lies within ``band`` of the line; the hit
   is that vertex and is marked tangent.
2. Any other segment is a hit when the line crosses it or passes within
   ``band`` (in arc length) of either end; the hit is the crossing clamped
   to the segment, marked tangent when the sine is below
   ``1e3 * tangency``.
3. Hits are stably sorted by arc position and de-duplicated as a chain: a
   hit within ``band`` of the last kept hit is dropped, so of a run of
   duplicates the earliest in arc order survives.
4. The match is the first kept hit at or after ``prev_pos - band``, where
   ``prev_pos`` is the previous sample's match.  Without one the sample is
   a hole (:class:`TransferGap`).

A sample is flagged, not lifted, when its line is degenerate, its match is
tangent, or its two viewing rays are parallel.  The segment table of curve
2 is built once per lift, and the matches are triangulated in one batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import TOL, Tolerances
from .errors import DegenerateGeometry, InputError
from .geometry import CameraPose, projection_matrix, rays_through, triangulate_midpoints
# kept in this namespace: perfbench traces curves.triangulate_midpoint
from .geometry import triangulate_midpoint  # noqa: F401


@dataclass(frozen=True, eq=False)
class ImageCurve:
    """Ordered image samples of one smooth curve."""

    samples: np.ndarray  # (n, 2)
    endpoint_labels: tuple[str, str] | None = None

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        if s.ndim != 2 or s.shape[1] != 2 or s.shape[0] < 2:
            raise InputError("curve needs >= 2 image samples")
        if np.any(np.linalg.norm(np.diff(s, axis=0), axis=1) == 0.0):
            raise InputError("consecutive curve samples must be distinct")
        object.__setattr__(self, "samples", s)

    @property
    def arc_positions(self) -> np.ndarray:
        seg = np.linalg.norm(np.diff(self.samples, axis=0), axis=1)
        return np.concatenate([[0.0], np.cumsum(seg)])

    def reversed(self) -> "ImageCurve":
        labels = None
        if self.endpoint_labels is not None:
            labels = (self.endpoint_labels[1], self.endpoint_labels[0])
        return ImageCurve(self.samples[::-1].copy(), labels)


@dataclass(frozen=True, eq=False)
class Line2D:
    point: np.ndarray
    direction: np.ndarray  # unit


@dataclass(frozen=True, eq=False)
class TransferHit:
    point: np.ndarray
    arc_pos: float
    segment: int
    tangent: bool


class TransferGap(DegenerateGeometry):
    """The transfer line misses the second curve (occlusion or coarse sampling)."""


@dataclass(frozen=True, eq=False)
class SpaceCurve:
    """Lifted 3-D samples with per-sample triangulation gaps."""

    points: np.ndarray  # (m, 3)
    gaps: np.ndarray  # (m,)
    source_indices: list[int]
    matches2: np.ndarray  # (m, 2) matched image-2 points
    holes: list[int] = field(default_factory=list)
    flagged: list[int] = field(default_factory=list)


def epipolar_lines(
    samples, pose1: CameraPose, pose2: CameraPose, *, tol: Tolerances = TOL
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Images in frame 2 of the viewing rays of ``(n, 2)`` samples of frame 1.

    Each line joins the homogeneous images of its ray's origin and of its
    ray's direction (the vanishing point), so a ray nearly parallel to the
    second focal plane costs no precision.  Returns ``(n, 2)`` line points
    (the foot of the perpendicular from the image origin), ``(n, 2)`` unit
    directions and an ``(n,)`` degenerate mask, set where the second focal
    point lies on the ray (the line collapses to the epipole, or under
    orthography the ray runs along the viewing direction) or where the ray
    runs parallel to the second focal plane behind it.  Masked rows are NaN.
    """
    origins, dirs = rays_through(samples, pose1)
    proj = projection_matrix(pose2)
    a = origins @ proj[:, :3].T + proj[:, 3]
    b = dirs @ proj[:, :3].T
    lines = np.cross(a, b)
    normal = np.hypot(lines[:, 0], lines[:, 1])
    if pose2.is_orthographic:
        degenerate = np.hypot(b[:, 0], b[:, 1]) < tol.ray_parallel
    else:
        w = pose2.focal - origins
        wd = np.einsum("ij,ij->i", w, dirs)
        off = np.linalg.norm(w - wd[:, None] * dirs, axis=1)
        on_ray = off < tol.ray_parallel * np.maximum(1.0, np.linalg.norm(w, axis=1))
        # the last projector row gives depths: a[:, 2] of the origin, b[:, 2] along the ray
        behind = (np.abs(b[:, 2]) < 1e-14) & (a[:, 2] <= 0)
        degenerate = on_ray | behind
    with np.errstate(divide="ignore", invalid="ignore"):
        points = -lines[:, 2:] * lines[:, :2] / (normal**2)[:, None]
        directions = np.stack([lines[:, 1], -lines[:, 0]], axis=1) / normal[:, None]
    points[degenerate] = np.nan
    directions[degenerate] = np.nan
    return points, directions, degenerate


def epipolar_line(d1, pose1: CameraPose, pose2: CameraPose, *, tol: Tolerances = TOL) -> Line2D:
    """Image in frame 2 of the viewing ray of ``d1`` in frame 1 (see :func:`epipolar_lines`)."""
    points, directions, degenerate = epipolar_lines(d1, pose1, pose2, tol=tol)
    if degenerate[0]:
        raise DegenerateGeometry(
            "viewing ray has no transfer line: it meets the second focal point"
            " or runs parallel to the second focal plane behind it"
        )
    return Line2D(points[0], directions[0])


@dataclass(frozen=True, eq=False)
class _Segments:
    """Segment table of a polyline, with the transfer band in segment units."""

    start: np.ndarray  # (m, 2) first vertex of each segment
    vec: np.ndarray  # (m, 2) segment vectors
    length: np.ndarray  # (m,)
    arc: np.ndarray  # (m,) arc position of each first vertex
    lo: np.ndarray  # (m,) -band / length
    hi: np.ndarray  # (m,) 1 + band / length
    band: float


def _segments(curve: ImageCurve, band: float) -> _Segments:
    s = curve.samples
    vec = np.diff(s, axis=0)
    length = np.linalg.norm(vec, axis=1)
    arc = np.concatenate([[0.0], np.cumsum(length[:-1])])
    return _Segments(s[:-1], vec, length, arc, -band / length, 1.0 + band / length, band)


def _transfer(
    table: _Segments, point, direction, prev_pos: float, tol: Tolerances
) -> tuple[int, float, float, bool]:
    """Segment, clamped segment weight, arc position and tangency of the match."""
    band = table.band
    normal = np.array([direction[1], -direction[0]])
    offset = (table.start - point) @ normal  # signed distance of each first vertex
    denom = table.vec @ normal  # cross(segment, direction)
    sin_angle = np.abs(denom) / table.length
    parallel = sin_angle < tol.tangency
    with np.errstate(divide="ignore", invalid="ignore"):
        w = -offset / denom
        crossing = (w >= table.lo) & (w <= table.hi) & ~parallel
    # a parallel segment is a hit only when it rides on the line
    riding = parallel & (np.abs(offset) <= band)
    hit = (crossing | riding).nonzero()[0]
    if hit.size == 0:
        raise TransferGap("transfer line misses the projected curve")
    # (arc position, segment, clamped weight); sorting ties by segment keeps
    # the sort stable
    hits = []
    for j in hit.tolist():
        weight = 0.0 if parallel[j] else min(max(float(w[j]), 0.0), 1.0)
        hits.append((float(table.arc[j] + weight * table.length[j]), j, weight))
    hits.sort()
    kept = -np.inf
    for pos, j, weight in hits:
        # crossings within ``band`` of the last kept one are duplicates
        if pos - kept <= band:
            continue
        kept = pos
        if pos >= prev_pos - band:
            return j, weight, pos, bool(sin_angle[j] < 1e3 * tol.tangency)
    raise TransferGap("every crossing precedes the previous match")


def transfer_point(
    line: Line2D,
    curve2: ImageCurve,
    prev_pos: float,
    *,
    scale: float,
    tol: Tolerances = TOL,
) -> TransferHit:
    """Intersect the transfer line with the polyline, monotone in arc length.

    See the module docstring for the rule.  No admissible intersection
    raises :class:`TransferGap`.
    """
    table = _segments(curve2, tol.transfer_band * scale)
    j, weight, pos, tangent = _transfer(table, line.point, line.direction, prev_pos, tol)
    return TransferHit(table.start[j] + weight * table.vec[j], pos, j, tangent)


def lift_curve(
    curve1: ImageCurve,
    curve2: ImageCurve,
    pose1: CameraPose,
    pose2: CameraPose,
    *,
    tol: Tolerances = TOL,
) -> SpaceCurve:
    """Sweep curve 1's samples, transfer each into image 2, triangulate.

    The sweep direction follows the matched endpoint labels: curve 2 is
    reversed when its labels run the other way.  Samples whose transfer
    fails are recorded as holes; near-tangent transfers are flagged and
    excluded rather than interpolated.
    """
    if (
        curve1.endpoint_labels is not None
        and curve2.endpoint_labels is not None
        and curve1.endpoint_labels == tuple(reversed(curve2.endpoint_labels))
    ):
        curve2 = curve2.reversed()
    scale = max(
        float(np.max(np.abs(curve1.samples))), float(np.max(np.abs(curve2.samples))), 1e-12
    )
    table = _segments(curve2, tol.transfer_band * scale)
    points, directions, degenerate = epipolar_lines(curve1.samples, pose1, pose2, tol=tol)
    matches = []
    kept: list[int] = []
    holes: list[int] = []
    flagged: list[int] = []
    prev = 0.0
    for i in range(len(points)):
        if degenerate[i]:
            flagged.append(i)
            continue
        try:
            j, weight, prev, tangent = _transfer(table, points[i], directions[i], prev, tol)
        except TransferGap:
            holes.append(i)
            continue
        if tangent:
            flagged.append(i)
            continue
        matches.append(table.start[j] + weight * table.vec[j])
        kept.append(i)
    kept_at = np.array(kept, dtype=int)
    matches2 = np.array(matches).reshape(-1, 2)
    p3, gaps, parallel = triangulate_midpoints(
        *rays_through(curve1.samples[kept_at], pose1), *rays_through(matches2, pose2), tol=tol
    )
    good = ~parallel
    return SpaceCurve(
        p3[good],
        gaps[good],
        kept_at[good].tolist(),
        matches2[good],
        holes,
        sorted(flagged + kept_at[parallel].tolist()),
    )


def curves_from_dataset(dataset, frame_a: int = 0, frame_b: int = 1):
    """Paired image curves of two frames, keyed by curve id."""
    fa, fb = dataset.frames[frame_a], dataset.frames[frame_b]
    by_id = {c["id"]: c for c in fb.curves}
    out = {}
    for c in fa.curves:
        if c["id"] not in by_id:
            continue
        ends_a = tuple(c["endpoints"]) if c.get("endpoints") else None
        cb = by_id[c["id"]]
        ends_b = tuple(cb["endpoints"]) if cb.get("endpoints") else None
        out[c["id"]] = (
            ImageCurve(c["samples"], ends_a),
            ImageCurve(cb["samples"], ends_b),
        )
    return out
