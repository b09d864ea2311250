"""Shared numeric geometry: rotations, rigid motions, cameras, rays.

Conventions
-----------
Points and directions are ``numpy`` arrays of shape ``(3,)`` (world units)
or ``(2,)`` (image-plane units).  A camera is a :class:`CameraPose`: a
projection plane (origin plus two orthonormal in-plane basis vectors) and
either a finite focal point (perspective) or ``None`` (orthographic, focal
direction at infinity along the plane normal).  The calibrated-perspective
convention places the plane one unit in front of the focal point, so image
coordinates are depth ratios; other focal distances are expressed by
rescaling image coordinates at ingestion.

Projection has one implementation, the 3x4 projector of
:func:`projection_matrix`; an orthographic camera is the projective one
whose last row is ``(0, 0, 0, 1)``.  :func:`project_points` images a batch
of points with one product; :func:`rays_through` gives a perspective
camera's ray origins as one ``(1, 3)`` row, the focal point, that broadcasts.

Rounding bounds are module constants, each next to its unit:
:data:`ROTATION_ORTHONORMAL` for rotation matrices and camera bases,
:data:`UNIT_VECTOR` for unit directions and rotation axes, and
:data:`RAY_PARALLEL` for parallel rays.  The noise gates of the solvers
are constants of the modules that use them (``ortho3p``, ``persp2f``,
``curves``).

One fixed-size object, a 3-vector or a 3x3 matrix, is checked and combined
on Python floats (``tolist()`` and ``math``): a numpy call costs 1 to 5 us
whatever its size, several times the arithmetic on nine floats.  Batches of
points, rays and matrices stay in numpy, in as few calls as give the same
bits: :func:`cross` is one gather per operand, one product and one
difference, written row-major (``einsum`` rounds a column-major operand
differently), and ``_row_norms`` sums the squares of 2 or 3 columns in
``np.linalg.norm``'s order without its reduction over a short axis.  The
fixed-size checks are written so that a NaN fails them, ``not (err <=
bound)``, and a pose, ray or motion takes only finite 3-vectors.

All functions are pure; values may be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateProjection, DegenerateTriangulation, InputError

Vec3 = np.ndarray

ROTATION_ORTHONORMAL = 1e-9  # absolute, on each entry of R^T R - I and on det R - 1
UNIT_VECTOR = 1e-12  # absolute, on the norm of a unit vector less 1
RAY_PARALLEL = 1e-10  # sine of the angle between two rays


def vec3(x, y, z) -> Vec3:
    return np.array([x, y, z], dtype=float)


def _norm(v: np.ndarray) -> float:
    """``np.linalg.norm`` of a 1-D array, bit for bit: the same ``dot``, without its dispatch."""
    return math.sqrt(v.dot(v))


def _det3(rows) -> float:
    """Determinant of a 3x3 matrix given as rows of Python floats (``m.tolist()``)."""
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _finite3(x, what: str) -> np.ndarray:
    """``x`` as a ``(3,)`` float array with finite entries, else :class:`InputError`."""
    a = np.asarray(x, dtype=float)
    if a.shape != (3,) or not all(map(math.isfinite, a.tolist())):
        raise InputError(f"{what} must be a finite 3-vector")
    return a


# component i of a x b is a[i + 1] b[i + 2] - a[i + 2] b[i + 1], indices mod 3:
# the three first products, then the three second ones
_CROSS_A = np.array([1, 2, 0, 2, 0, 1])
_CROSS_B = np.array([2, 0, 1, 1, 2, 0])


def cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product over the last axis of ``(3,)`` or ``(n, 3)`` arrays.

    Equal to ``np.cross`` bit for bit (the same products, then the same
    differences), without its axis handling, which costs more than the
    arithmetic on the few vectors a solver works on.  A batch is one gather
    per operand, one product and one difference, written row-major.
    """
    if a.ndim == 1 and b.ndim == 1:
        (a0, a1, a2), (b0, b1, b2) = a.tolist(), b.tolist()
        return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])
    p = a[..., _CROSS_A] * b[..., _CROSS_B]
    # gathers on the last axis come out column-major; a row-major result keeps
    # later reductions (einsum) rounding as they do on np.cross's output
    return np.subtract(p[..., :3], p[..., 3:], order="C")


def _row_norms(x: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(x, axis=-1)`` of rows of 2 or 3 entries, bit for bit: the same
    squares summed in the same order, without its dispatch and its reduction over a
    short axis, which costs more than the sums."""
    sq = x * x
    s = sq[..., 0] + sq[..., 1]
    if x.shape[-1] == 3:
        s += sq[..., 2]
    return np.sqrt(s)


@dataclass(frozen=True, eq=False)
class Rotation:
    """Proper rotation: 3x3 orthonormal matrix with determinant +1."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (3, 3):
            raise InputError(f"rotation matrix must be 3x3, got {m.shape}")
        rows = m.tolist()
        (a, b, c), (d, e, f), (g, h, i) = rows
        tol = ROTATION_ORTHONORMAL
        # an absolute bound on every entry of R^T R - I, the column dot products;
        # a relative one lets column norms drift
        if not (
            abs(a * a + d * d + g * g - 1.0) <= tol
            and abs(b * b + e * e + h * h - 1.0) <= tol
            and abs(c * c + f * f + i * i - 1.0) <= tol
            and abs(a * b + d * e + g * h) <= tol
            and abs(a * c + d * f + g * i) <= tol
            and abs(b * c + e * f + h * i) <= tol
        ):
            raise InputError("rotation matrix columns are not orthonormal")
        if not abs(_det3(rows) - 1.0) <= tol:
            raise InputError("rotation matrix determinant is not +1")
        object.__setattr__(self, "matrix", m)

    @classmethod
    def identity(cls) -> "Rotation":
        return cls(np.eye(3))

    @classmethod
    def from_axis_angle(cls, axis: Vec3, angle: float) -> "Rotation":
        """Rodrigues rotation about a unit axis by ``angle`` radians.

        The axis norm must be within :data:`UNIT_VECTOR` of 1, as the formula
        about doubles its error in ``R^T R`` (bounded by ``ROTATION_ORTHONORMAL``).
        """
        axis = np.asarray(axis, dtype=float)
        if axis.shape != (3,) or not abs(_norm(axis) - 1.0) <= UNIT_VECTOR:
            raise InputError("rotation axis must be a unit vector")
        if not math.isfinite(angle):
            raise InputError("rotation angle must be finite")
        x, y, z = axis.tolist()
        k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
        m = np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)
        return cls(m)

    def apply(self, p: Vec3) -> Vec3:
        return self.matrix @ np.asarray(p, dtype=float)

    def compose(self, other: "Rotation") -> "Rotation":
        """Rotation equal to applying ``other`` first, then ``self``."""
        return Rotation(self.matrix @ other.matrix)

    def inverse(self) -> "Rotation":
        return Rotation(self.matrix.T)

    def angle_to(self, other: "Rotation") -> float:
        """Geodesic angle (radians) between two rotations."""
        c = (np.trace(self.matrix.T @ other.matrix) - 1.0) / 2.0
        return float(np.arccos(np.clip(c, -1.0, 1.0)))


@dataclass(frozen=True, eq=False)
class RigidMotion:
    """Rotation followed by translation: ``p -> R p + t``."""

    rotation: Rotation
    translation: Vec3

    def __post_init__(self):
        object.__setattr__(self, "translation", _finite3(self.translation, "translation"))

    @classmethod
    def identity(cls) -> "RigidMotion":
        return cls(Rotation.identity(), np.zeros(3))

    def apply(self, p: Vec3) -> Vec3:
        return self.rotation.apply(p) + self.translation

    def compose(self, other: "RigidMotion") -> "RigidMotion":
        """Motion equal to applying ``other`` first, then ``self``."""
        return RigidMotion(
            self.rotation.compose(other.rotation),
            self.rotation.apply(other.translation) + self.translation,
        )

    def inverse(self) -> "RigidMotion":
        rinv = self.rotation.inverse()
        return RigidMotion(rinv, -rinv.apply(self.translation))


@dataclass(frozen=True, eq=False)
class Ray:
    """Half-infinite line: origin plus unit direction."""

    origin: Vec3
    direction: Vec3

    def __post_init__(self):
        o = _finite3(self.origin, "ray origin")
        d = _finite3(self.direction, "ray direction")
        if not abs(math.hypot(*d.tolist()) - 1.0) <= UNIT_VECTOR:
            raise InputError("ray direction must be a unit vector")
        object.__setattr__(self, "origin", o)
        object.__setattr__(self, "direction", d)


@dataclass(frozen=True, eq=False)
class CameraPose:
    """Projection plane plus focal point (``None`` = orthographic).

    ``basis_u`` and ``basis_v`` are orthonormal in-plane directions; image
    coordinates of an in-plane point ``q`` are ``((q - origin) . basis_u,
    (q - origin) . basis_v)``.  The plane normal is ``basis_u x basis_v``.
    """

    origin: Vec3
    basis_u: Vec3
    basis_v: Vec3
    focal: Vec3 | None = None

    def __post_init__(self):
        o = _finite3(self.origin, "plane origin")
        u = _finite3(self.basis_u, "plane basis vector")
        v = _finite3(self.basis_v, "plane basis vector")
        uu, vv = u.tolist(), v.tolist()
        tol = ROTATION_ORTHONORMAL
        if not (abs(math.hypot(*uu) - 1.0) <= tol and abs(math.hypot(*vv) - 1.0) <= tol):
            raise InputError("plane basis vectors must be unit length")
        if not abs(uu[0] * vv[0] + uu[1] * vv[1] + uu[2] * vv[2]) <= tol:
            raise InputError("plane basis vectors must be orthogonal")
        object.__setattr__(self, "origin", o)
        object.__setattr__(self, "basis_u", u)
        object.__setattr__(self, "basis_v", v)
        if self.focal is not None:
            f = _finite3(self.focal, "focal point")
            w = [a - b for a, b in zip(f.tolist(), o.tolist())]
            # (f - o) . (u x v), the focal offset along the normal, as a triple product
            if not abs(_det3([w, uu, vv])) > tol:
                raise InputError("focal point must not lie in the projection plane")
            object.__setattr__(self, "focal", f)

    @property
    def normal(self) -> Vec3:
        return cross(self.basis_u, self.basis_v)

    @property
    def is_orthographic(self) -> bool:
        return self.focal is None

    @classmethod
    def canonical_orthographic(cls) -> "CameraPose":
        return cls(np.zeros(3), vec3(1, 0, 0), vec3(0, 1, 0), None)

    @classmethod
    def canonical_perspective(cls) -> "CameraPose":
        # focal at origin, plane one unit along +z
        return cls(vec3(0, 0, 1), vec3(1, 0, 0), vec3(0, 1, 0), np.zeros(3))


def projection_matrix(pose: CameraPose) -> np.ndarray:
    """3x4 homogeneous projector ``P`` of a camera: ``P @ (p, 1)`` images ``p``.

    The image of a point ``p`` is ``x[:2] / x[2]`` with ``x = P @ (p, 1)``;
    ``P @ (d, 0)`` is the vanishing point of direction ``d``.  The last row
    of a perspective projector is the plane normal oriented away from the
    focal point, so ``x[2]`` is the depth of ``p`` (negative behind the
    camera).  An orthographic projector has last row ``(0, 0, 0, 1)``.
    """
    u, v = pose.basis_u, pose.basis_v
    if pose.is_orthographic:
        return np.array(
            [[*u, -(u @ pose.origin)], [*v, -(v @ pose.origin)], [0.0, 0.0, 0.0, 1.0]]
        )
    f = pose.focal
    n = pose.normal
    plane_d = float((pose.origin - f) @ n)
    if plane_d < 0:
        n = -n
        plane_d = -plane_d
    # depth * image = m @ (p - f), with depth = n . (p - f); the rows
    # plane_d * e + (off . e) * n, entry by entry on floats
    off = f - pose.origin
    nn = n.tolist()
    rows = [
        [plane_d * a + s * b for a, b in zip(e.tolist(), nn)]
        for e, s in ((u, float(off @ u)), (v, float(off @ v)))
    ]
    m = np.array([*rows, nn])
    return np.concatenate((m, -(m @ f)[:, None]), axis=1)


def project_points(points, pose: CameraPose) -> tuple[np.ndarray, np.ndarray]:
    """Images and depths of points through one :func:`projection_matrix` product.

    ``(n, 3)`` points give ``(n, 2)`` images and ``(n,)`` depths; orthographic
    depths are 1.  A perspective point at depth ``<= UNIT_VECTOR``
    (at or behind the focal plane) raises :class:`DegenerateProjection` whose
    ``index`` is the first such row.
    """
    proj = projection_matrix(pose)
    x = np.asarray(points, dtype=float).reshape(-1, 3) @ proj[:, :3].T + proj[:, 3]
    depths = x[:, 2]
    behind = np.flatnonzero(depths <= UNIT_VECTOR)
    if behind.size:
        k = int(behind[0])
        raise DegenerateProjection(f"point at depth {depths[k]:.3g} cannot be projected", k)
    # times the reciprocal, not divided: on the canonical cameras this is exactly
    # (1 / z) * p, the point moved onto the plane z = 1
    return x[:, :2] * (1.0 / depths)[:, None], depths


def rays_through(images, pose: CameraPose) -> tuple[np.ndarray, np.ndarray]:
    """Viewing rays of ``(n, 2)`` image points: origins and ``(n, 3)`` unit directions.

    Perspective: from the focal point, one ``(1, 3)`` origin row that broadcasts,
    through the plane point.  Orthographic: from the ``(n, 3)`` plane points along
    the plane normal (the focal point shifted to infinity).
    """
    img = np.asarray(images, dtype=float).reshape(-1, 2)
    q = pose.origin + img[:, :1] * pose.basis_u + img[:, 1:] * pose.basis_v
    if pose.is_orthographic:
        n = pose.normal
        return q, np.broadcast_to(n / _norm(n), q.shape)
    d = q - pose.focal
    return pose.focal[None], d / _row_norms(d)[:, None]


def triangulate_midpoints(
    o1: np.ndarray, d1: np.ndarray, o2: np.ndarray, d2: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise midpoints of the shortest segments joining two sets of rays.

    Rows of the ``(n, 3)`` arrays ``o1, d1`` and ``o2, d2`` are ray origins
    and unit directions; an origin array may also be one ``(1, 3)`` row that
    all its rays share, a perspective camera's focal point.  Returns ``(n,
    3)`` midpoints, ``(n,)`` gaps (the segment lengths, zero for intersecting
    rays) and an ``(n,)`` mask of pairs parallel within :data:`RAY_PARALLEL`
    (sine of the angle), whose midpoints and gaps are NaN.
    """
    n = cross(d1, d2)
    n2 = np.einsum("ij,ij->i", n, n)
    parallel = np.sqrt(n2) < RAY_PARALLEL
    w = o2 - o1
    with np.errstate(divide="ignore", invalid="ignore"):
        # Cramer's rule: t1 = det[w, d2, n] / |n|^2, t2 = det[w, d1, n] / |n|^2
        t1 = np.einsum("ij,ij->i", w, cross(d2, n)) / n2
        t2 = np.einsum("ij,ij->i", w, cross(d1, n)) / n2
    p1 = o1 + t1[:, None] * d1
    p2 = o2 + t2[:, None] * d2
    mid = (p1 + p2) / 2.0
    gap = _row_norms(p1 - p2)
    if parallel.any():
        mid[parallel] = np.nan
        gap[parallel] = np.nan
    return mid, gap, parallel


def triangulate_midpoint(r1: Ray, r2: Ray) -> tuple[Vec3, float]:
    """Midpoint of the shortest segment joining two rays, plus its length.

    The gap is zero for exactly intersecting rays.  Rays parallel within
    :data:`RAY_PARALLEL` (sine of the angle) raise
    :class:`DegenerateTriangulation`.
    """
    mid, gap, parallel = triangulate_midpoints(
        r1.origin[None], r1.direction[None], r2.origin[None], r2.direction[None]
    )
    if parallel[0]:
        raise DegenerateTriangulation("rays are parallel within tolerance")
    return mid[0], float(gap[0])


def best_fit_motions(src: np.ndarray, dst: np.ndarray) -> list[tuple[RigidMotion, float]]:
    """Rigid motions mapping ``src`` onto each row of ``dst`` in least squares.

    ``src`` is ``(n, 3)``, n >= 3 finite points not collinear; ``dst`` is ``(k, n, 3)``,
    finite.  One stacked SVD of the centered cross-covariances, determinants forced to +1,
    gives the k rotations.  Returns ``(motion, rms_residual)`` per row of ``dst``.
    """
    src = np.asarray(src, dtype=float)
    dst = np.asarray(dst, dtype=float)
    if src.ndim != 2 or src.shape[0] < 3 or src.shape[1] != 3 or dst.shape[1:] != src.shape:
        raise InputError("need (n, 3) points, n >= 3, and (k, n, 3) targets matching them")
    if not (np.isfinite(src).all() and np.isfinite(dst).all()):
        raise InputError("points must be finite")
    n = len(src)
    s_mean = np.add.reduce(src, axis=0) / n  # src.mean(axis=0), bit for bit
    d_mean = np.add.reduce(dst, axis=1) / n
    sc = src - s_mean
    dc = dst - d_mean[:, None]
    u, s, vt = np.linalg.svd(np.einsum("ni,knj->kij", sc, dc))
    # rank < 2 means collinear points: rotation about the line is free.  Rounding
    # leaves a collinear set's s1 near 1e-16 of |sc| |dc|, the product of the
    # spreads (s0 too can be rounding, when the set's terms cancel); 1e-12 keeps
    # four digits over that and accepts sets wider than 1e-6 of their length.
    # Relative to the spreads, so it holds at every scale; a set with no spread
    # still fails
    spread = math.sqrt(np.vdot(sc, sc)) * np.sqrt(np.einsum("kni,kni->k", dc, dc))
    rows = zip(s[:, 1].tolist(), spread.tolist(), u.tolist(), vt.tolist())
    for i, (s1, bound, ui, vi) in enumerate(rows):
        if s1 <= 1e-12 * bound:
            raise InputError("point sets are collinear; rotation is ill-posed")
        if _det3(ui) * _det3(vi) < 0:  # the sign of det(V U^T): flip V's last column
            vt[i, 2] = -vt[i, 2]
    rot = vt.transpose(0, 2, 1) @ u.transpose(0, 2, 1)
    resid = np.sqrt(np.add.reduce((sc @ rot.transpose(0, 2, 1) - dc) ** 2, axis=(1, 2)))
    fits = zip(rot, d_mean - rot @ s_mean, (resid / math.sqrt(n)).tolist())
    return [(RigidMotion(Rotation(r), t), e) for r, t, e in fits]


def best_fit_motion(src: np.ndarray, dst: np.ndarray) -> tuple[RigidMotion, float]:
    """Rigid motion mapping ``src`` points onto ``dst`` (see :func:`best_fit_motions`)."""
    return best_fit_motions(src, np.asarray(dst, dtype=float)[None])[0]
