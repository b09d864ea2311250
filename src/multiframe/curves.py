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
is :data:`TRANSFER_BAND` times the image scale, ``tangency`` is
:data:`TANGENCY`):

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

Steps 1 and 2 run only on candidate pairs, with the table formulas, so
the hits are those of the full table.  All lines of a lift belong to one
pencil through the epipole, a point at infinity under orthography (Hartley
& Zisserman, *Multiple View Geometry*, 9.1).  The two lines that differ
most border the widest gap between the sorted directions.  If every line
stays parallel to the first of them to within ``band`` across the data,
lines are keyed by offset along its normal and a segment by its vertices'
offsets, widened by ``r`` plus that drift; otherwise lines are keyed by
angle in ``[0, pi)`` and a segment by the arc it spans seen from their
join ``c``, widened by ``asin(r / rho) + 64 eps`` at each end (every line
if ``rho <= r``).  ``rho`` bounds the distance of ``c`` from the segment
from below: the larger of its distances from the segment's line and from
the first vertex less the length.  ``r = band + delta + 16 eps (R + band
+ |c|)``, with ``delta`` the largest measured distance of a line from
``c`` (0 for offsets, as is ``|c|``) and ``R`` a bound on the norm of a
line point plus that of a segment point: a hit puts its line within
``band + 8 eps (R + band)`` of the segment even when near-parallel (its
weight rounds coarsely, its point does not leave the line), and a line
within ``delta`` of ``c`` that passes within ``r`` of a point ``rho`` from
``c`` turns at most ``asin(r / rho)`` from it.  ``searchsorted`` and
``repeat`` expand the ``H`` candidates, two to three per line on smooth
arcs: O((n + m) log n + H) time, O(n + m + H) memory.  Steps 3 and 4 run
in Python, once per sample over its few hits, as ``prev_pos`` moves with
every match.  :func:`transfer_point` is the same code on one line.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateGeometry, InputError
from .geometry import RAY_PARALLEL, CameraPose, cross, projection_matrix, rays_through
# triangulate_midpoint is kept in this namespace: perfbench traces it here
from .geometry import triangulate_midpoint, triangulate_midpoints  # noqa: F401

_EPS = np.finfo(float).eps

TRANSFER_BAND = 1e-6  # noise gate, times the image scale (largest |coordinate| of a curve)
TANGENCY = 1e-9  # sine of the angle between a transfer line and a segment


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
    samples, pose1: CameraPose, pose2: CameraPose
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
    lines = cross(a, b)
    normal = np.hypot(lines[:, 0], lines[:, 1])
    if pose2.is_orthographic:
        degenerate = np.hypot(b[:, 0], b[:, 1]) < RAY_PARALLEL
    else:
        w = pose2.focal - origins
        wd = np.einsum("ij,ij->i", w, dirs)
        off = np.linalg.norm(w - wd[:, None] * dirs, axis=1)
        on_ray = off < RAY_PARALLEL * np.maximum(1.0, np.linalg.norm(w, axis=1))
        # the last projector row gives depths: a[:, 2] of the origin, b[:, 2] along the ray
        behind = (np.abs(b[:, 2]) < 1e-14) & (a[:, 2] <= 0)
        degenerate = on_ray | behind
    with np.errstate(divide="ignore", invalid="ignore"):
        points = -lines[:, 2:] * lines[:, :2] / (normal**2)[:, None]
        directions = np.stack([lines[:, 1], -lines[:, 0]], axis=1) / normal[:, None]
    points[degenerate] = np.nan
    directions[degenerate] = np.nan
    return points, directions, degenerate


def epipolar_line(d1, pose1: CameraPose, pose2: CameraPose) -> Line2D:
    """Image in frame 2 of the viewing ray of ``d1`` in frame 1 (see :func:`epipolar_lines`)."""
    points, directions, degenerate = epipolar_lines(d1, pose1, pose2)
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


# segment codes of a row without a match
_MISSED = -1  # the line meets no segment
_BEHIND = -2  # every hit precedes the previous match


def _candidates(table: _Segments, points, directions) -> tuple[np.ndarray, np.ndarray]:
    """Line and segment indices of every pair that can hit (see the module docstring)."""
    n, m = len(points), len(table.length)
    if n == 0:
        return np.empty(0, dtype=int), np.empty(0, dtype=int)
    p0, p1, d0, d1 = points[:, 0], points[:, 1], directions[:, 0], directions[:, 1]
    a, vec = table.start, table.vec
    size = 2.0 * np.abs(points).max() + np.hypot(*a[0]) + table.arc[-1] + table.length[-1]
    reach = table.band + 16 * _EPS * (size + table.band)
    key = np.arctan2(d1, d0) % np.pi
    key[key == np.pi] = 0.0
    order = key.argsort()
    key = key[order]
    g = (np.concatenate((key[1:], [key[0] + np.pi])) - key).argmax()
    i, j = order[g], order[(g + 1) % n]  # the lines that differ most
    spread = (key[g] - key[(g + 1) % n]) % np.pi  # every direction lies within this after j's
    drift = np.sin(min(spread, np.pi / 2)) * (size + reach)
    if drift <= table.band:  # c at infinity: offsets along line j's normal
        key = d1[j] * p0 - d0[j] * p1
        order = key.argsort()
        key = key[order]
        ka, kb = (d1[j] * v[:, 0] - d0[j] * v[:, 1] for v in (a, a + vec))
        first = key.searchsorted(np.minimum(ka, kb) - reach - drift)
        stop = key.searchsorted(np.maximum(ka, kb) + reach + drift, "right")
    else:  # direction angles seen from the finite pencil point c
        (xi, yi), (ui, vi) = points[i].tolist(), directions[i].tolist()
        (xj, yj), (uj, vj) = points[j].tolist(), directions[j].tolist()
        t = ((xj - xi) * vj - (yj - yi) * uj) / (ui * vj - vi * uj)
        cx, cy = xi + t * ui, yi + t * vi
        reach += np.abs(d1 * (cx - p0) - d0 * (cy - p1)).max() + 16 * _EPS * (abs(cx) + abs(cy))
        ax, ay = a[:, 0] - cx, a[:, 1] - cy
        area = ax * vec[:, 1] - ay * vec[:, 0]  # segment length times the distance of c
        sweep = np.arctan2(area, ax * (ax + vec[:, 0]) + ay * (ay + vec[:, 1]))
        # no nearer to c than the segment's line, nor than the first vertex less the length
        rho = np.maximum(np.abs(area) / table.length, np.hypot(ax, ay) - table.length)
        half = np.arcsin(reach / np.maximum(rho, reach)) + 64 * _EPS
        lo = (np.arctan2(ay, ax) + np.minimum(sweep, 0.0) - half) % np.pi
        hi = lo + np.abs(sweep) + 2 * half  # an arc past pi goes on from 0
        first = key.searchsorted(lo)
        stop = key.searchsorted(hi, "right") + key.searchsorted(hi - np.pi, "right")
        whole = hi - lo >= np.pi
        first[whole], stop[whole] = 0, n
    count = stop - first
    seg = np.arange(m).repeat(count)
    at = np.arange(len(seg)) + (first + count - count.cumsum())[seg]
    return order[at % n], seg


def _match(
    table: _Segments, points, directions, prev_pos: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Monotone matches of ``(n, 2)`` transfer lines on the polyline.

    Returns per row the matched segment (``_MISSED`` or ``_BEHIND`` without
    a match), the clamped segment weight, the arc position and the tangency
    flag.  The sweep starts at ``prev_pos``; every matched row moves it on.
    """
    n, band = len(points), table.band
    line, seg = _candidates(table, points, directions)
    dx, dy, length = directions[:, 0][line], directions[:, 1][line], table.length[seg]
    # signed distance of each first vertex: differences first, as they are
    # exact for nearby points
    offset = (table.start[:, 0][seg] - points[:, 0][line]) * dy - (
        table.start[:, 1][seg] - points[:, 1][line]
    ) * dx
    denom = table.vec[:, 0][seg] * dy - table.vec[:, 1][seg] * dx  # cross(segment, direction)
    sin_angle = np.abs(denom) / length
    parallel = sin_angle < TANGENCY
    # a parallel segment's weight is not used: it may be undefined or overflow
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        w = -offset / denom
    crossing = (w >= table.lo[seg]) & (w <= table.hi[seg]) & ~parallel
    # a parallel segment is a hit only when it rides on the line
    hits = (crossing | (parallel & (np.abs(offset) <= band))).nonzero()[0]
    clamped = np.clip(w, 0.0, 1.0)
    clamped[parallel] = 0.0
    pos = table.arc[seg] + clamped * length
    # each line's hits by arc position, ties by segment: pairs come in segment
    # order, and a segment's hits lie between the arc positions of its ends
    hits = hits[line[hits].argsort(kind="stable")]
    first = line[hits].searchsorted(np.arange(n + 1)).tolist()
    hit_pos = pos[hits].tolist()
    chosen, prev = [_MISSED] * n, prev_pos
    for r, (h0, h1) in enumerate(zip(first, first[1:])):
        chosen[r] = _MISSED if h0 == h1 else _BEHIND
        kept = -np.inf
        for h in range(h0, h1):
            # hits within ``band`` of the last kept one are duplicates
            if hit_pos[h] - kept <= band:
                continue
            kept = hit_pos[h]
            if kept >= prev - band:
                chosen[r], prev = h, kept
                break
    segment = np.array(chosen, dtype=int)
    weight, arc_pos, tangent = np.zeros(n), np.zeros(n), np.zeros(n, dtype=bool)
    found = segment >= 0
    at = hits[segment[found]]
    segment[found], weight[found], arc_pos[found] = seg[at], clamped[at], pos[at]
    tangent[found] = sin_angle[at] < 1e3 * TANGENCY
    return segment, weight, arc_pos, tangent


def transfer_point(
    line: Line2D, curve2: ImageCurve, prev_pos: float, *, scale: float
) -> TransferHit:
    """Intersect the transfer line with the polyline, monotone in arc length.

    See the module docstring for the rule.  No admissible intersection
    raises :class:`TransferGap`.
    """
    table = _segments(curve2, TRANSFER_BAND * scale)
    segment, weight, arc_pos, tangent = _match(
        table, np.reshape(line.point, (1, 2)), np.reshape(line.direction, (1, 2)), prev_pos
    )
    j = int(segment[0])
    if j == _MISSED:
        raise TransferGap("transfer line misses the projected curve")
    if j == _BEHIND:
        raise TransferGap("every crossing precedes the previous match")
    return TransferHit(
        table.start[j] + weight[0] * table.vec[j], float(arc_pos[0]), j, bool(tangent[0])
    )


def lift_curve(
    curve1: ImageCurve, curve2: ImageCurve, pose1: CameraPose, pose2: CameraPose
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
    table = _segments(curve2, TRANSFER_BAND * scale)
    points, directions, degenerate = epipolar_lines(curve1.samples, pose1, pose2)
    live = (~degenerate).nonzero()[0]
    segment, weight, _, tangent = _match(table, points[live], directions[live], 0.0)
    matched = segment >= 0
    lifted = matched & ~tangent
    kept_at = live[lifted]
    j = segment[lifted]
    matches2 = table.start[j] + weight[lifted, None] * table.vec[j]
    p3, gaps, parallel = triangulate_midpoints(
        *rays_through(curve1.samples[kept_at], pose1), *rays_through(matches2, pose2)
    )
    flagged = degenerate.copy()
    flagged[live[matched & tangent]] = True
    flagged[kept_at[parallel]] = True
    good = ~parallel
    return SpaceCurve(
        p3[good],
        gaps[good],
        kept_at[good].tolist(),
        matches2[good],
        live[~matched].tolist(),
        flagged.nonzero()[0].tolist(),
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
