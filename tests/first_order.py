"""First-order imaging model for tests: the image map of a scene and its Jacobian.

A scene of ``p`` points, ``s`` lines and ``k`` frames has these unknowns, in order:

- the ``p`` points, 3 coordinates each;
- each line as two of its points, 6 coordinates;
- for each frame after the first, a rotation vector and a translation (6);
- under the uncalibrated regime, a focal point for every frame (3 each).

Frame 1's camera coordinates are the world coordinates.  Frame ``j`` turns the
scene about ``SCENE_CENTER`` and shifts it, ``x -> R_j (x - c) + c + t_j``, where
``R_j`` is the exponential of the rotation vector, and images it through the
regime's camera.  The orthographic and calibrated cameras are
``CameraPose.canonical_orthographic`` and ``canonical_perspective``.
The uncalibrated camera keeps the canonical plane z = 1 and takes the frame's own
focal point.

The measurements are the images in every frame:

- each point's image (2 coordinates);
- each line's image as a 2-D line: its direction angle, then its signed offset from
  the image origin.  A line is not measured as the images of its two points, so
  sliding either point along the line leaves every measurement unchanged.

:func:`image_map` evaluates a batch of unknown vectors in one pass of numpy calls,
and :func:`jacobian` takes central differences over one such batch.
"""

import numpy as np

from multiframe.dof import Regime

STEP = 1e-5  # central-difference step, in the units of the unknowns
SCENE_CENTER = np.array([0.0, 0.0, 4.0])


def rotation_matrices(w: np.ndarray) -> np.ndarray:
    """``(..., 3, 3)`` exponentials of ``(..., 3)`` rotation vectors (Rodrigues)."""
    angle = np.linalg.norm(w, axis=-1)[..., None, None]
    x, y, z = np.moveaxis(w, -1, 0)
    zero = np.zeros_like(x)
    cross = np.stack([zero, -z, y, z, zero, -x, -y, x, zero], axis=-1).reshape(*w.shape, 3)
    # sin(a) / a and (1 - cos(a)) / a**2, both finite at a = 0
    return (
        np.eye(3)
        + np.sinc(angle / np.pi) * cross
        + 0.5 * np.sinc(angle / (2 * np.pi)) ** 2 * (cross @ cross)
    )


def random_scene(regime: Regime, p: int, s: int, k: int, rng) -> np.ndarray:
    """A generic scene's unknown vector: points in a unit box around ``SCENE_CENTER``,
    frames turned by about 0.5 rad and shifted by about 0.3, and focal points within
    about 0.2 of the origin."""
    points = SCENE_CENTER + rng.uniform(-1.0, 1.0, (p + 2 * s, 3))
    motions = rng.normal(0.0, 0.3, (k - 1, 6))
    parts = [points.ravel(), motions.ravel()]
    if regime is Regime.PERSPECTIVE_UNCALIBRATED:
        parts.append(rng.normal(0.0, 0.2, 3 * k))
    return np.concatenate(parts)


def image_map(theta: np.ndarray, regime: Regime, p: int, s: int, k: int) -> np.ndarray:
    """Measurements of a ``(b, unknowns)`` batch of scenes, one row each: the
    ``(k, p, 2)`` point images, the ``(k, s)`` line angles, the ``(k, s)`` line
    offsets."""
    b, n = theta.shape[0], p + 2 * s
    x = theta[:, : 3 * n].reshape(b, 1, n, 3, 1)
    motion = theta[:, 3 * n : 3 * n + 6 * (k - 1)].reshape(b, k - 1, 6)
    rot = np.concatenate(
        [np.broadcast_to(np.eye(3), (b, 1, 3, 3)), rotation_matrices(motion[..., :3])], axis=1
    )
    t = np.concatenate([np.zeros((b, 1, 3)), motion[..., 3:]], axis=1)
    y = (rot[:, :, None] @ (x - SCENE_CENTER[:, None]))[..., 0] + SCENE_CENTER + t[:, :, None]
    if regime is Regime.ORTHOGRAPHIC:
        img = y[..., :2]
    elif regime is Regime.PERSPECTIVE_CALIBRATED:
        img = y[..., :2] / y[..., 2:]
    else:
        # the ray from focal point f through y meets the plane z = 1
        f = theta[:, -3 * k :].reshape(b, k, 1, 3)
        img = f[..., :2] + (1.0 - f[..., 2:]) / (y[..., 2:] - f[..., 2:]) * (y[..., :2] - f[..., :2])
    a, d = img[:, :, p::2], img[:, :, p + 1 :: 2] - img[:, :, p::2]
    angle = np.arctan2(d[..., 1], d[..., 0])
    offset = (a[..., 1] * d[..., 0] - a[..., 0] * d[..., 1]) / np.hypot(d[..., 0], d[..., 1])
    return np.concatenate(
        [img[:, :, :p].reshape(b, -1), angle.reshape(b, -1), offset.reshape(b, -1)], axis=1
    )


def jacobian(theta: np.ndarray, regime: Regime, p: int, s: int, k: int) -> np.ndarray:
    """Central-difference Jacobian of :func:`image_map` at one unknown vector: one
    ``(2 n, n)`` batch of ``theta +- STEP`` along each axis, evaluated at once."""
    n = theta.size
    steps = STEP * np.eye(n)
    out = image_map(np.concatenate([theta + steps, theta - steps]), regime, p, s, k)
    diff = out[:n] - out[n:]
    angles = slice(2 * k * p, 2 * k * p + k * s)
    diff[:, angles] = np.remainder(diff[:, angles] + np.pi, 2 * np.pi) - np.pi
    return diff.T / (2 * STEP)


def relative_singular_values(theta: np.ndarray, regime: Regime, p: int, s: int, k: int):
    """Singular values of the Jacobian over its largest, ascending, padded with zeros to
    one per unknown (a wide Jacobian has a null space beyond its rows)."""
    sv = np.linalg.svd(jacobian(theta, regime, p, s, k), compute_uv=False)
    padded = np.zeros(theta.size)
    padded[: sv.size] = sv / sv[0]
    return np.sort(padded)
