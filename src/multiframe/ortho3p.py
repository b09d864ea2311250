"""Three-point structure from orthographic multiframes.

Under orthographic projection the true edge lengths (a, b, c) of a traced
triangle and the projected lengths (a_i, b_i, c_i) of frame i satisfy one
of three square-root compatibility relations (the signed depth differences
along the view direction sum to zero):

    sqrt(a^2-a_i^2) + sqrt(b^2-b_i^2) - sqrt(c^2-c_i^2) = 0
    sqrt(a^2-a_i^2) - sqrt(b^2-b_i^2) + sqrt(c^2-c_i^2) = 0
   -sqrt(a^2-a_i^2) + sqrt(b^2-b_i^2) + sqrt(c^2-c_i^2) = 0

Squaring twice turns any of them into one quartic per frame in
x = (a^2, b^2, c^2):

    F_i(x) = B(x) + 2 l_i . x + c_i,   B(x) = 2 |x|^2 - (a^2 + b^2 + c^2)^2

where the block B does not depend on the frame, and the frame's observed
lengths give l_i = (-a_i^2+b_i^2+c_i^2, a_i^2-b_i^2+c_i^2, a_i^2+b_i^2-c_i^2)
and c_i = B(a_i^2, b_i^2, c_i^2).  With q = B(x) as an unknown of its own,
every frame is one row of a homogeneous k x 5 system M y = 0 in
y = (x, q, w), under the one quadratic constraint q w = B(x).  The two
smallest right singular vectors of M span a pencil, on which the constraint
is a binary quadratic: at most two candidate length triples.  Where the
pencil line misses the conic (under noise), its vertex, the point of least
|q w - B(x)|, is the one candidate.  For three frames the pencil is M's exact
null space and both roots are kept; for more it is the total-least-squares
pencil and only the root of least misfit |M y| is kept.  A root clears the
floor, the largest observed squared lengths, when it falls at most its clamp
below it: its own misfit (at least ROOT_CLAMP), which grows with the image
noise.  When no root clears it, the one least far below it, in units of its
clamp, is kept.  Every kept root is clamped up to the floor.

The observations are one (k, 3, 2) array, frames x (P, Q, R) x (u, v), as
:func:`observations_from_dataset` cuts it from a dataset's points.  Depth
offsets per frame are recovered from the square roots up to a common
shift and a per-frame reflection, which is a gauge: a posed triple is
planar, so it and its mirror image are related by a proper rotation.  One
batched orthogonal (cross-covariance) alignment of the representative posed
triples gives the rigid motions from frame 1 to every later frame.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dof import Regime
from .errors import (
    AmbiguityError,
    DegenerateGeometry,
    InconsistentDataError,
    InputError,
    NoSolutionError,
    RankDeficientError,
)
# best_fit_motion is kept in this namespace: perfbench traces it here
from .geometry import RigidMotion, best_fit_motion, best_fit_motions  # noqa: F401

# The root clamp, in powers of the scale, the longest observed edge: a true
# squared length may fall this far below an observed one, or by a candidate's
# own misfit |M y| where that is larger
ROOT_CLAMP = 1e-9  # x scale^2


def _edges(obs) -> tuple[list[tuple[float, float, float]], list[tuple[float, float, float]]]:
    """Per-frame projected lengths (|PQ|, |QR|, |RP|) of a (k, 3, 2) observation array and
    their squares, as Python floats.  A square above the double range raises
    :class:`InputError`; edges under about 1.5e-162 square to 0, and frames of such edges
    make :func:`solve_triangle` raise :class:`RankDeficientError`."""
    try:
        obs = np.asarray(obs, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"observations must be a (k, 3, 2) array of numbers: {exc}") from None
    if obs.ndim != 3 or obs.shape[1:] != (3, 2):
        raise InputError(f"observations must be a (k, 3, 2) array, not {obs.shape}")
    lengths, squares = [], []
    for (px, py), (qx, qy), (rx, ry) in obs.tolist():
        if not all(map(math.isfinite, (px, py, qx, qy, rx, ry))):
            raise InputError("projected points must be finite")
        a = math.hypot(qx - px, qy - py)
        b = math.hypot(rx - qx, ry - qy)
        c = math.hypot(px - rx, py - ry)
        if min(a, b, c) == 0.0:
            raise DegenerateGeometry("coincident projected points")
        try:  # libm's pow, which rounds unlike a * a in about 1 case of 1,000
            squares.append((a**2, b**2, c**2))
        except OverflowError:
            raise InputError("projected edge lengths overflow when squared") from None
        lengths.append((a, b, c))
    return lengths, squares


class SignPattern(Enum):
    """Which square root enters negatively in the vanishing relation."""

    PPM = (1, 1, -1)
    PMP = (1, -1, 1)
    MPP = (-1, 1, 1)


@dataclass(frozen=True, eq=False)
class TriangleSolution:
    """One candidate triangle and its pose in every frame.

    ``lengths`` are the true edge lengths (|PQ|, |QR|, |RP|); ``patterns`` holds each
    frame's vanishing relation and ``depths`` its (k, 3) depth offsets (dP, dQ, dR), one
    representative of shift and reflection with dP = 0.  ``below_floor`` is 0 when the root
    cleared the largest observed squared lengths; when no root did and this one lay least
    far below them, it is how far, in units of the root's own clamp (so above 1).
    """

    lengths: tuple[float, float, float]
    patterns: list[SignPattern]
    depths: np.ndarray
    below_floor: float


def _block(a2: float, b2: float, c2: float) -> float:
    """B(x), the frame-independent quartic block; at observed lengths, c_i."""
    return a2 * a2 + b2 * b2 + c2 * c2 - 2 * a2 * b2 - 2 * a2 * c2 - 2 * b2 * c2


def eq4_residual(a2: float, b2: float, c2: float, squares) -> float:
    """Quartic per-frame compatibility polynomial at squared lengths.

    Zero exactly when (a2, b2, c2) is consistent with the frame whose squared
    observed lengths are ``squares``; quadratic in its three arguments and
    homogeneous of degree four in the lengths.
    """
    if not (a2 >= 0 and b2 >= 0 and c2 >= 0):
        raise InputError("squared lengths must be nonnegative")
    ai2, bi2, ci2 = squares
    return (
        _block(a2, b2, c2)
        + _block(ai2, bi2, ci2)
        + 2 * (-ai2 + bi2 + ci2) * a2
        + 2 * (ai2 - bi2 + ci2) * b2
        + 2 * (ai2 + bi2 - ci2) * c2
    )


def pencil_rows(lengths, squares) -> tuple[np.ndarray, float]:
    """The k x 5 system M and its scale s, the longest observed edge.

    Row i is (2 l_i / s^2, 1, c_i / s^4), so that M @ (x / s^2, B(x) / s^4, 1)
    is every frame's quartic F_i(x) / s^4.
    """
    scale = max(map(max, lengths))
    rows = []
    for sq in squares:
        a2, b2, c2 = (v / scale / scale for v in sq)
        l_i = [-a2 + b2 + c2, a2 - b2 + c2, a2 + b2 - c2]
        rows.append([2 * v for v in l_i] + [1.0, _block(a2, b2, c2)])
    return np.array(rows), scale


def _quadratic_roots(alpha: float, beta: float, gamma: float) -> list[float]:
    # the root s is O(1) in the scaled coordinates, so the coefficients compare
    # directly; they are sums of products of a few unit-vector components,
    # each rounded at about 1e-16 of mag; a term under 1e-13 of mag is that
    # rounding with three digits to spare, so the quadratic drops to a line (or
    # to no constraint)
    mag = max(abs(alpha), abs(beta), abs(gamma), 1e-300)
    if abs(alpha) <= 1e-13 * mag:
        if abs(beta) <= 1e-13 * mag:
            raise AmbiguityError("the constraint q w = B(x) does not fix a point of the pencil")
        return [-gamma / beta]
    disc = beta * beta - 4 * alpha * gamma
    if disc < 0:
        # the line misses the conic (noise, or a tangent's rounding): the
        # vertex is the point of the line where |q w - B(x)| is least
        return [-beta / (2 * alpha)]
    sq = math.sqrt(disc)
    qq = -(beta + sq) / 2 if beta >= 0 else -(beta - sq) / 2
    # qq is 0 only where beta = disc = 0: a double root at 0
    return [qq / alpha, gamma / qq] if qq != 0 else [0.0]


def frame_sign_pattern(x, lengths, squares) -> tuple[list[SignPattern], np.ndarray]:
    """Identify every frame's vanishing square-root relation and depth offsets.

    Returns per frame the pattern of the relation nearest zero, and a (k, 3)
    array of one representative depth triple per frame (dP = 0); the
    reflected triple is its negation.  If the squared lengths fall below a
    frame's observed ones beyond :data:`ROOT_CLAMP` of its longest edge
    squared, the frame is inconsistent with the candidate.
    """
    patterns, depths = [], []
    for edges, sq in zip(lengths, squares):
        scale = max(edges)
        clamp = -ROOT_CLAMP * scale * scale
        da, db, dc = (float(v) - o for v, o in zip(x, sq))
        if not (da >= clamp and db >= clamp and dc >= clamp):
            raise InconsistentDataError("true squared length below an observed one")
        sa, sb, sc = (math.sqrt(max(d, 0.0)) for d in (da, db, dc))
        # the relations of PPM, PMP and MPP; the first nearest zero wins
        relations = [abs(sa + sb - sc), abs(sa - sb + sc), abs(-sa + sb + sc)]
        i = relations.index(min(relations))
        patterns.append((SignPattern.PPM, SignPattern.PMP, SignPattern.MPP)[i])
        depths.append([0.0, sa, sa + sb if i == 0 else sa - sb])
    return patterns, np.array(depths)


def solve_triangle(obs) -> list[TriangleSolution]:
    """Candidate true length triples from a (k, 3, 2) observation array, k >= 3.

    Intersects the pencil of the frames' homogeneous system with the
    constraint q w = B(x) (see the module docstring), keeps both roots for
    three frames and the one of least misfit for more, keeps those that clear
    the floor or else the one least far below it, clamps each up to the floor,
    and assigns per-frame sign patterns and depth offsets.
    """
    lengths, squares = _edges(obs)
    if len(lengths) < 3:
        raise InputError("need at least 3 frames (two frames never suffice)")
    m, scale = pencil_rows(lengths, squares)
    _, sv, vt = np.linalg.svd(m)
    # M's entries are O(1) and its singular values round at about 1e-16 of
    # s1; a third one under 1e-10 of s1 is that rounding with six digits to
    # spare, so the pencil is not a line
    if not sv[2] > 1e-10 * sv[0]:
        raise RankDeficientError(
            "frame quartics are rank deficient (degenerate motion, e.g. "
            "in-plane rotation across all frames)"
        )
    u, v = vt[3].tolist(), vt[4].tolist()
    wu, wv = u[4], v[4]
    ww = wu * wu + wv * wv
    if ww == 0.0:
        raise NoSolutionError("the pencil lies at infinity (w = 0)")
    # the pencil's point b with w = 1, and its unit direction t with w = 0
    b = [(wu * p + wv * q) / ww for p, q in zip(u, v)]
    t = [(wv * p - wu * q) / math.sqrt(ww) for p, q in zip(u, v)]
    # q w - B(x) at b + s t is -B(t) s^2 + (t_q - bt) s + b_q - B(b), where
    # bt = 2 B(b, t) is twice the polar form of B
    bt = 4 * (b[0] * t[0] + b[1] * t[1] + b[2] * t[2]) - 2 * sum(b[:3]) * sum(t[:3])
    roots = sorted(_quadratic_roots(-_block(*t[:3]), t[3] - bt, b[3] - _block(*b[:3])))
    if len(roots) == 2 and roots[1] - roots[0] <= 1e-10:  # nearly equal roots: keep one
        del roots[1]

    # a root clears the floor when it lies at most its own clamp below it; else
    # it lies `below` clamps below it
    rows, h = m.tolist(), scale * scale
    floor = [max(col) for col in zip(*squares)]
    candidates = []
    for s in roots:
        y = [p + s * q for p, q in zip(b, t)]
        resid = [sum(map(operator.mul, row, y)) for row in rows]  # every F_i / scale^4
        misfit = math.hypot(*resid)
        x = [v * h for v in y[:3]]
        clamp = max(ROOT_CLAMP, misfit) * h
        short = max(f - v for v, f in zip(x, floor))
        below = 0.0 if short <= clamp else short / clamp
        candidates.append((misfit, x, below))
    if len(lengths) > 3:
        candidates = sorted(candidates)[:1]
    kept = [c for c in candidates if c[2] == 0.0] or [min(candidates, key=operator.itemgetter(2))]
    solutions = []
    for _, x, below in kept:
        x = [max(v, f) for v, f in zip(x, floor)]
        patterns, depths = frame_sign_pattern(x, lengths, squares)
        solutions.append(TriangleSolution(tuple(map(math.sqrt, x)), patterns, depths, below))
    return solutions


def recover_motions_consistent(obs, solution: TriangleSolution) -> list[tuple[RigidMotion, float]]:
    """Rigid motions carrying frame 1's posed triple onto every frame's, in one fit.

    Returns (motion, residual) per frame, frame 1's the identity.  Both reflections
    align to rounding (the mirror is a gauge, see the module docstring), so every
    frame keeps its representative depths.
    """
    obs = np.asarray(obs, dtype=float)
    if obs.shape != (len(solution.depths), 3, 2):
        raise InputError(f"observations of shape {obs.shape} for {len(solution.depths)} frames")
    # every frame's triangle in view coordinates (u, v, depth)
    posed = np.concatenate((obs, solution.depths[..., None]), axis=2)
    fits = best_fit_motions(posed[0], posed[1:])
    return [(RigidMotion.identity(), 0.0)] + fits


def observations_from_dataset(dataset) -> np.ndarray:
    """The (k, 3, 2) observations of the first three labels of an orthographic dataset."""
    if dataset.regime is not Regime.ORTHOGRAPHIC:
        raise InputError("the three-point solver needs an orthographic dataset")
    if len(dataset.labels) < 3:
        raise InputError(f"the three-point solver needs 3 labels, not {len(dataset.labels)}")
    return dataset.points[:, :3].copy()
