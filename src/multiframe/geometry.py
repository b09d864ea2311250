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
of points with one product, and :func:`project` is its one-row call.

Rounding bounds are module constants, each next to its unit:
:data:`ROTATION_ORTHONORMAL` for rotation matrices and camera bases,
:data:`UNIT_VECTOR` for unit directions and rotation axes, and
:data:`RAY_PARALLEL` for parallel rays.  The noise gates of the solvers
are constants of the modules that use them (``ortho3p``, ``persp2f``,
``curves``).

All functions are pure; values may be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateProjection, DegenerateTriangulation, InputError

Vec3 = np.ndarray
Vec2 = np.ndarray

ROTATION_ORTHONORMAL = 1e-9  # absolute, on each entry of R^T R - I and on det R - 1
UNIT_VECTOR = 1e-12  # absolute, on the norm of a unit vector less 1
RAY_PARALLEL = 1e-10  # sine of the angle between two rays

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
        # an absolute bound on every entry; a relative one lets column norms drift
        if not (np.abs(m.T @ m - _EYE3) <= ROTATION_ORTHONORMAL).all():
            raise InputError("rotation matrix columns are not orthonormal")
        if abs(np.linalg.det(m) - 1.0) > ROTATION_ORTHONORMAL:
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
        if abs(np.linalg.norm(axis) - 1.0) > UNIT_VECTOR:
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
        if abs(np.linalg.norm(d) - 1.0) > UNIT_VECTOR:
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
        tol = ROTATION_ORTHONORMAL
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
    # depth * image = m @ (p - f), with depth = n . (p - f)
    off = f - pose.origin
    m = np.array([plane_d * u + (off @ u) * n, plane_d * v + (off @ v) * n, n])
    return np.column_stack([m, -(m @ f)])


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


def project(p: Vec3, pose: CameraPose) -> Vec2:
    """Image of one point (see :func:`project_points`)."""
    return project_points(p, pose)[0][0]


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
    o1: np.ndarray, d1: np.ndarray, o2: np.ndarray, d2: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise midpoints of the shortest segments joining two sets of rays.

    Rows of the ``(n, 3)`` arrays ``o1, d1`` and ``o2, d2`` are ray origins
    and unit directions.  Returns ``(n, 3)`` midpoints, ``(n,)`` gaps (the
    segment lengths, zero for intersecting rays) and an ``(n,)`` mask of
    pairs parallel within :data:`RAY_PARALLEL` (sine of the angle), whose
    midpoints and gaps are NaN.
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
    gap = np.linalg.norm(p1 - p2, axis=1)
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

    ``src`` is ``(n, 3)``, n >= 3 points not collinear; ``dst`` is ``(k, n, 3)``.  One
    stacked SVD of the centered cross-covariances, determinants forced to +1, gives the k
    rotations.  Returns ``(motion, rms_residual)`` per row of ``dst``.
    """
    src = np.asarray(src, dtype=float)
    dst = np.asarray(dst, dtype=float)
    if src.ndim != 2 or src.shape[0] < 3 or src.shape[1] != 3 or dst.shape[1:] != src.shape:
        raise InputError("need (n, 3) points, n >= 3, and (k, n, 3) targets matching them")
    s_mean = src.mean(axis=0)
    d_mean = dst.mean(axis=1)
    sc = src - s_mean
    dc = dst - d_mean[:, None]
    u, s, vt = np.linalg.svd(np.einsum("ni,knj->kij", sc, dc))
    # rank < 2 means collinear points: rotation about the line is free.  Rounding
    # leaves a collinear set's s[1] near 1e-16 * s[0]; 1e-12 keeps four digits over
    # that and accepts sets wider than 1e-6 of their length.  Relative to s[0], so
    # it holds at every scale; a set with no spread (s[0] = 0) still fails
    if (s[:, 1] <= 1e-12 * s[:, 0]).any():
        raise InputError("point sets are collinear; rotation is ill-posed")
    vt[:, 2] *= np.sign(np.linalg.det(u @ vt))[:, None]
    rot = np.swapaxes(vt, 1, 2) @ np.swapaxes(u, 1, 2)
    resid = np.sqrt(((sc @ np.swapaxes(rot, 1, 2) - dc) ** 2).sum(axis=(1, 2)))
    resid /= np.sqrt(src.shape[0])
    trans = d_mean - rot @ s_mean
    return [(RigidMotion(Rotation(r), t), float(e)) for r, t, e in zip(rot, trans, resid)]


def best_fit_rotation(src: np.ndarray, dst: np.ndarray) -> tuple[Rotation, float]:
    """Proper rotation aligning centered ``src`` onto centered ``dst``, and the RMS residual."""
    motion, resid = best_fit_motions(src, np.asarray(dst, dtype=float)[None])[0]
    return motion.rotation, resid


def best_fit_motion(src: np.ndarray, dst: np.ndarray) -> tuple[RigidMotion, float]:
    """Rigid motion mapping ``src`` points onto ``dst`` (see :func:`best_fit_motions`)."""
    return best_fit_motions(src, np.asarray(dst, dtype=float)[None])[0]
