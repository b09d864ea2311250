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

All functions are pure; values may be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import TOL, Tolerances
from .errors import DegenerateProjection, DegenerateTriangulation, InputError

Vec3 = np.ndarray
Vec2 = np.ndarray

_EYE3 = np.eye(3)


def vec3(x, y, z) -> Vec3:
    return np.array([x, y, z], dtype=float)


def vec2(u, v) -> Vec2:
    return np.array([u, v], dtype=float)


def cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product over the last axis of ``(3,)`` or ``(n, 3)`` arrays.

    Equal to ``np.cross`` bit for bit (the same products, then the same
    differences), without its axis handling, which costs more than the
    arithmetic on the few vectors a solver works on.
    """
    if a.ndim == 1 and b.ndim == 1:
        (a0, a1, a2), (b0, b1, b2) = a.tolist(), b.tolist()
        return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


@dataclass(frozen=True, eq=False)
class Rotation:
    """Proper rotation: 3x3 orthonormal matrix with determinant +1."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (3, 3):
            raise InputError(f"rotation matrix must be 3x3, got {m.shape}")
        tol = TOL.rotation_orthonormal
        # an absolute bound on every entry; a relative one lets column norms drift
        if not (np.abs(m.T @ m - _EYE3) <= tol).all():
            raise InputError("rotation matrix columns are not orthonormal")
        if abs(np.linalg.det(m) - 1.0) > tol:
            raise InputError("rotation matrix determinant is not +1")
        object.__setattr__(self, "matrix", m)

    @classmethod
    def identity(cls) -> "Rotation":
        return cls(np.eye(3))

    @classmethod
    def from_axis_angle(cls, axis: Vec3, angle: float) -> "Rotation":
        """Rodrigues rotation about a unit axis by ``angle`` radians."""
        axis = np.asarray(axis, dtype=float)
        if abs(np.linalg.norm(axis) - 1.0) > TOL.rotation_orthonormal:
            raise InputError("rotation axis must be a unit vector")
        k = np.array(
            [
                [0.0, -axis[2], axis[1]],
                [axis[2], 0.0, -axis[0]],
                [-axis[1], axis[0], 0.0],
            ]
        )
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
        t = np.asarray(self.translation, dtype=float)
        if t.shape != (3,) or not np.all(np.isfinite(t)):
            raise InputError("translation must be a finite 3-vector")
        object.__setattr__(self, "translation", t)

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
        d = np.asarray(self.direction, dtype=float)
        if abs(np.linalg.norm(d) - 1.0) > TOL.unit_vector:
            raise InputError("ray direction must be a unit vector")
        object.__setattr__(self, "origin", np.asarray(self.origin, dtype=float))
        object.__setattr__(self, "direction", d)

    def point_at(self, t: float) -> Vec3:
        return self.origin + t * self.direction


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
        o = np.asarray(self.origin, dtype=float)
        u = np.asarray(self.basis_u, dtype=float)
        v = np.asarray(self.basis_v, dtype=float)
        tol = TOL.rotation_orthonormal
        if abs(np.linalg.norm(u) - 1.0) > tol or abs(np.linalg.norm(v) - 1.0) > tol:
            raise InputError("plane basis vectors must be unit length")
        if abs(float(u @ v)) > tol:
            raise InputError("plane basis vectors must be orthogonal")
        object.__setattr__(self, "origin", o)
        object.__setattr__(self, "basis_u", u)
        object.__setattr__(self, "basis_v", v)
        if self.focal is not None:
            f = np.asarray(self.focal, dtype=float)
            n = cross(u, v)
            if abs(float((f - o) @ n)) <= tol:
                raise InputError("focal point must not lie in the projection plane")
            object.__setattr__(self, "focal", f)

    @property
    def normal(self) -> Vec3:
        return cross(self.basis_u, self.basis_v)

    @property
    def is_orthographic(self) -> bool:
        return self.focal is None

    def plane_point(self, image: Vec2) -> Vec3:
        """3-space position of an image point on the projection plane."""
        u, v = float(image[0]), float(image[1])
        return self.origin + u * self.basis_u + v * self.basis_v

    @classmethod
    def canonical_orthographic(cls) -> "CameraPose":
        return cls(np.zeros(3), vec3(1, 0, 0), vec3(0, 1, 0), None)

    @classmethod
    def canonical_perspective(cls) -> "CameraPose":
        # focal at origin, plane one unit along +z
        return cls(vec3(0, 0, 1), vec3(1, 0, 0), vec3(0, 1, 0), np.zeros(3))


def project_orthographic(p: Vec3, pose: CameraPose) -> Vec2:
    """Orthographic image of ``p``: in-plane components of ``p - origin``.

    Motion along the plane normal has no effect on the output.
    """
    if not pose.is_orthographic:
        raise InputError("project_orthographic requires an orthographic pose")
    d = np.asarray(p, dtype=float) - pose.origin
    return np.array([float(d @ pose.basis_u), float(d @ pose.basis_v)])


def project_perspective(p: Vec3, pose: CameraPose, *, tol: Tolerances = TOL) -> Vec2:
    """Perspective image of ``p``: pierce the plane with the focal ray.

    ``p`` must have positive depth (in front of the focal point on the
    plane's side); zero or negative depth raises
    :class:`DegenerateProjection`.
    """
    if pose.is_orthographic:
        raise InputError("project_perspective requires a perspective pose")
    f = pose.focal
    n = pose.normal
    plane_d = float((pose.origin - f) @ n)  # signed focal-to-plane distance
    if plane_d < 0:
        n = -n
        plane_d = -plane_d
    depth = float((np.asarray(p, dtype=float) - f) @ n)
    if depth <= tol.unit_vector:
        raise DegenerateProjection(f"point at depth {depth:.3g} cannot be projected")
    q = f + (plane_d / depth) * (np.asarray(p, dtype=float) - f)
    d = q - pose.origin
    return np.array([float(d @ pose.basis_u), float(d @ pose.basis_v)])


def project(p: Vec3, pose: CameraPose) -> Vec2:
    """Dispatch to the orthographic or perspective projection."""
    if pose.is_orthographic:
        return project_orthographic(p, pose)
    return project_perspective(p, pose)


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
    # depth * image = m @ (p - f), with depth = n . (p - f)
    off = f - pose.origin
    m = np.array([plane_d * u + (off @ u) * n, plane_d * v + (off @ v) * n, n])
    return np.column_stack([m, -(m @ f)])


def rays_through(images, pose: CameraPose) -> tuple[np.ndarray, np.ndarray]:
    """Viewing rays of ``(n, 2)`` image points: ``(n, 3)`` origins and unit directions.

    Perspective: from the focal point through the plane point.
    Orthographic: through the plane point along the plane normal (the
    focal point shifted to infinity).
    """
    img = np.asarray(images, dtype=float).reshape(-1, 2)
    q = pose.origin + img[:, :1] * pose.basis_u + img[:, 1:] * pose.basis_v
    if pose.is_orthographic:
        n = pose.normal
        return q, np.broadcast_to(n / np.linalg.norm(n), q.shape)
    d = q - pose.focal
    return np.broadcast_to(pose.focal, q.shape), d / np.linalg.norm(d, axis=1, keepdims=True)


def ray_through(image: Vec2, pose: CameraPose) -> Ray:
    """Viewing ray of one image point (see :func:`rays_through`)."""
    origins, directions = rays_through(image, pose)
    return Ray(origins[0], directions[0])


def triangulate_midpoints(
    o1: np.ndarray, d1: np.ndarray, o2: np.ndarray, d2: np.ndarray, *, tol: Tolerances = TOL
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise midpoints of the shortest segments joining two sets of rays.

    Rows of the ``(n, 3)`` arrays ``o1, d1`` and ``o2, d2`` are ray origins
    and unit directions.  Returns ``(n, 3)`` midpoints, ``(n,)`` gaps (the
    segment lengths, zero for intersecting rays) and an ``(n,)`` mask of
    pairs parallel within ``tol.ray_parallel`` (sine of the angle), whose
    midpoints and gaps are NaN.
    """
    n = cross(d1, d2)
    n2 = np.einsum("ij,ij->i", n, n)
    parallel = np.sqrt(n2) < tol.ray_parallel
    w = o2 - o1
    with np.errstate(divide="ignore", invalid="ignore"):
        # Cramer's rule: t1 = det[w, d2, n] / |n|^2, t2 = det[w, d1, n] / |n|^2
        t1 = np.einsum("ij,ij->i", w, cross(d2, n)) / n2
        t2 = np.einsum("ij,ij->i", w, cross(d1, n)) / n2
    p1 = o1 + t1[:, None] * d1
    p2 = o2 + t2[:, None] * d2
    mid = (p1 + p2) / 2.0
    gap = np.linalg.norm(p1 - p2, axis=1)
    mid[parallel] = np.nan
    gap[parallel] = np.nan
    return mid, gap, parallel


def triangulate_midpoint(
    r1: Ray, r2: Ray, *, tol: Tolerances = TOL
) -> tuple[Vec3, float]:
    """Midpoint of the shortest segment joining two rays, plus its length.

    The gap is zero for exactly intersecting rays.  Rays parallel within
    ``tol.ray_parallel`` (sine of the angle) raise
    :class:`DegenerateTriangulation`.
    """
    mid, gap, parallel = triangulate_midpoints(
        r1.origin[None], r1.direction[None], r2.origin[None], r2.direction[None], tol=tol
    )
    if parallel[0]:
        raise DegenerateTriangulation("rays are parallel within tolerance")
    return mid[0], float(gap[0])


def best_fit_rotation(src: np.ndarray, dst: np.ndarray) -> tuple[Rotation, float]:
    """Proper rotation aligning centered ``src`` onto centered ``dst``.

    Orthogonal decomposition of the cross-covariance with the determinant
    forced to +1; returns the rotation and the RMS alignment residual.
    Inputs are ``(n, 3)`` arrays of corresponding points, n >= 3 and not
    collinear.
    """
    src = np.asarray(src, dtype=float)
    dst = np.asarray(dst, dtype=float)
    if src.shape != dst.shape or src.shape[0] < 3:
        raise InputError("need matching point sets with at least 3 points")
    sc = src - src.mean(axis=0)
    dc = dst - dst.mean(axis=0)
    h = sc.T @ dc
    u, s, vt = np.linalg.svd(h)
    # rank < 2 means the points are collinear: rotation about the line is free
    if s[1] <= 1e-12 * max(s[0], 1.0):
        raise InputError("point sets are collinear; rotation is ill-posed")
    d = np.sign(np.linalg.det(vt.T @ u.T))
    rot = Rotation(vt.T @ np.diag([1.0, 1.0, d]) @ u.T)
    resid = np.linalg.norm(sc @ rot.matrix.T - dc) / np.sqrt(src.shape[0])
    return rot, float(resid)


def best_fit_motion(src: np.ndarray, dst: np.ndarray) -> tuple[RigidMotion, float]:
    """Rigid motion mapping ``src`` points onto ``dst`` in least squares."""
    rot, resid = best_fit_rotation(src, dst)
    t = np.asarray(dst, dtype=float).mean(axis=0) - rot.matrix @ np.asarray(
        src, dtype=float
    ).mean(axis=0)
    return RigidMotion(rot, t), resid
