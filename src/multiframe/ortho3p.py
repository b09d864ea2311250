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
y = (x, q, w), under the one quadratic constraint q w = B(x).  The two smallest right singular vectors of
M span a pencil, on which the constraint is a binary quadratic: at most two
candidate length triples.  For three frames the pencil is M's exact null
space and both roots are kept; for more it is the total-least-squares pencil
and only the root of least misfit |M y| is kept.  A root's squared lengths
may fall below the largest observed ones by its own misfit (at least
ROOT_CLAMP), which grows with the image noise.

Depth offsets per frame are recovered from the square roots up to a common
shift and a per-frame reflection, which is a gauge: a posed triple is
planar, so it and its mirror image are related by a proper rotation.  One
batched orthogonal (cross-covariance) alignment of the representative posed
triples gives the rigid motions from frame 1 to every later frame.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
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


def edge_lengths(p, q, r) -> tuple[float, float, float]:
    """Projected segment lengths (|PQ|, |QR|, |RP|) of one frame."""
    points = [np.asarray(x, dtype=float) for x in (p, q, r)]
    if not all(x.shape == (2,) for x in points):
        raise InputError("projected points must be 2-vectors")
    (px, py), (qx, qy), (rx, ry) = (x.tolist() for x in points)
    if not all(map(math.isfinite, (px, py, qx, qy, rx, ry))):
        raise InputError("projected points must be finite")
    a = math.hypot(qx - px, qy - py)
    b = math.hypot(rx - qx, ry - qy)
    c = math.hypot(px - rx, py - ry)
    if min(a, b, c) == 0.0:
        raise DegenerateGeometry("coincident projected points")
    return a, b, c


@dataclass(frozen=True, eq=False)
class TriangleFrameObs:
    """One frame's observation of the traced triangle; ``a, b, c`` = ``|PQ|, |QR|, |RP|``,
    ``lengths_sq`` their squares.  A square above the double range raises :class:`InputError`;
    edges under about 1.5e-162 square to 0, and frames of such edges make
    :func:`solve_triangle` raise :class:`RankDeficientError`."""

    p: np.ndarray
    q: np.ndarray
    r: np.ndarray
    a: float = field(init=False)
    b: float = field(init=False)
    c: float = field(init=False)
    lengths_sq: tuple[float, float, float] = field(init=False)

    def __post_init__(self):
        a, b, c = edge_lengths(self.p, self.q, self.r)
        try:  # libm's pow, which rounds unlike a * a in about 1 case of 1,000
            squares = (a**2, b**2, c**2)
        except OverflowError:
            raise InputError("projected edge lengths overflow when squared") from None
        for name, value in zip(("a", "b", "c", "lengths_sq"), (a, b, c, squares)):
            object.__setattr__(self, name, value)

    @classmethod
    def from_points(cls, p, q, r) -> "TriangleFrameObs":
        return cls(np.asarray(p, float), np.asarray(q, float), np.asarray(r, float))


class SignPattern(Enum):
    """Which square root enters negatively in the vanishing relation."""

    PPM = (1, 1, -1)
    PMP = (1, -1, 1)
    MPP = (-1, 1, 1)


@dataclass(frozen=True, eq=False)
class FrameSolution:
    pattern: SignPattern
    depths: np.ndarray  # (dP, dQ, dR), one representative of shift+reflection


@dataclass(frozen=True, eq=False)
class TriangleSolution:
    lengths: tuple[float, float, float]
    frames: list[FrameSolution]
    max_eq4_residual: float  # the largest |F_i| over all frames, before the root clamp


def _block(a2: float, b2: float, c2: float) -> float:
    """B(x), the frame-independent quartic block; at observed lengths, c_i."""
    return a2 * a2 + b2 * b2 + c2 * c2 - 2 * a2 * b2 - 2 * a2 * c2 - 2 * b2 * c2


def eq4_residual(a2: float, b2: float, c2: float, obs: TriangleFrameObs) -> float:
    """Quartic per-frame compatibility polynomial at squared lengths.

    Zero exactly when (a2, b2, c2) is consistent with the frame; quadratic
    in its three arguments and homogeneous of degree four in the lengths.
    """
    if not (a2 >= 0 and b2 >= 0 and c2 >= 0):
        raise InputError("squared lengths must be nonnegative")
    ai2, bi2, ci2 = obs.lengths_sq
    return (
        _block(a2, b2, c2)
        + _block(ai2, bi2, ci2)
        + 2 * (-ai2 + bi2 + ci2) * a2
        + 2 * (ai2 - bi2 + ci2) * b2
        + 2 * (ai2 + bi2 - ci2) * c2
    )


def pencil_rows(observations: list[TriangleFrameObs]) -> tuple[np.ndarray, float]:
    """The k x 5 system M and its scale s, the longest observed edge.

    Row i is (2 l_i / s^2, 1, c_i / s^4), so that M @ (x / s^2, B(x) / s^4, 1)
    is every frame's quartic F_i(x) / s^4.
    """
    scale = max(max(o.a, o.b, o.c) for o in observations)
    rows = []
    for obs in observations:
        a2, b2, c2 = (v / scale / scale for v in obs.lengths_sq)
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
        # a tangent line has a double root, whose disc rounds to either sign at
        # about 1e-16 of its terms; 1e-12 keeps four digits over that
        if disc > -1e-12 * (beta * beta + abs(4 * alpha * gamma)):
            return [-beta / (2 * alpha)]
        return []
    sq = math.sqrt(disc)
    if beta >= 0:
        qq = -(beta + sq) / 2
    else:
        qq = -(beta - sq) / 2
    roots = []
    if qq != 0:
        roots.append(qq / alpha)
        roots.append(gamma / qq)
    else:
        roots.append(0.0)
        roots.append(-beta / alpha)
    return roots


def frame_sign_pattern(lengths_sq, obs: TriangleFrameObs) -> tuple[SignPattern, np.ndarray]:
    """Identify the vanishing square-root relation and the depth offsets.

    Returns the pattern of the relation nearest zero plus one
    representative depth triple (dP = 0); the reflected triple is its
    negation.  If the squared lengths fall below the observed ones beyond
    :data:`ROOT_CLAMP` of the frame's longest edge squared, the frame is
    inconsistent with the candidate.
    """
    scale = max(obs.a, obs.b, obs.c)
    clamp = -ROOT_CLAMP * scale * scale
    da, db, dc = (float(x) - o for x, o in zip(lengths_sq, obs.lengths_sq))
    if not (da >= clamp and db >= clamp and dc >= clamp):
        raise InconsistentDataError("true squared length below an observed one")
    sa, sb, sc = (math.sqrt(max(d, 0.0)) for d in (da, db, dc))
    # the relations of PPM, PMP and MPP; the first nearest zero wins
    relations = [abs(sa + sb - sc), abs(sa - sb + sc), abs(-sa + sb + sc)]
    i = relations.index(min(relations))
    pattern = (SignPattern.PPM, SignPattern.PMP, SignPattern.MPP)[i]
    return pattern, np.array([0.0, sa, sa + sb if i == 0 else sa - sb])


def solve_triangle(observations: list[TriangleFrameObs]) -> list[TriangleSolution]:
    """Candidate true length triples from three or more frames.

    Intersects the pencil of the frames' homogeneous system with the
    constraint q w = B(x) (see the module docstring), keeps both roots for
    three frames and the one of least misfit for more, clamps each to the
    largest observed squared lengths within its misfit, and assigns
    per-frame sign patterns and depth offsets.
    """
    if len(observations) < 3:
        raise InputError("need at least 3 frames (two frames never suffice)")
    m, scale = pencil_rows(observations)
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
    bt =4 * (b[0] * t[0] + b[1] * t[1] + b[2] * t[2]) - 2 * sum(b[:3]) * sum(t[:3])
    roots = _quadratic_roots(-_block(*t[:3]), t[3] - bt, b[3] - _block(*b[:3]))

    # dedupe nearly equal roots
    uniq: list[float] = []
    for s in sorted(roots):
        if not uniq or abs(s - uniq[-1]) > 1e-10:
            uniq.append(s)
    rows = m.tolist()
    candidates = []
    for s in uniq:
        y = [p + s * q for p, q in zip(b, t)]
        resid = [sum(map(operator.mul, row, y)) for row in rows]  # every F_i / scale^4
        candidates.append((math.hypot(*resid), max(map(abs, resid)), y[:3]))
    if len(observations) > 3:
        candidates = sorted(candidates)[:1]

    h = scale * scale
    floor = [max(col) for col in zip(*(o.lengths_sq for o in observations))]
    solutions = []
    for misfit, worst, y in candidates:
        x = [v * h for v in y]
        clamp = -max(ROOT_CLAMP, misfit) * h
        if not all(v - f >= clamp for v, f in zip(x, floor)):
            continue
        x = [max(v, f) for v, f in zip(x, floor)]
        frames = [FrameSolution(*frame_sign_pattern(x, obs)) for obs in observations]
        solutions.append(TriangleSolution(tuple(math.sqrt(v) for v in x), frames, worst * h * h))
    if not solutions:
        raise NoSolutionError("no candidate length triple clears the observed lengths")
    return solutions


def recover_motions_consistent(
    observations: list[TriangleFrameObs],
    solution: TriangleSolution,
) -> list[tuple[RigidMotion, float, bool]]:
    """Rigid motions carrying frame 1's posed triple onto every frame's, in one fit.

    Returns (motion, residual, reflected) per frame, frame 1's the identity.  Both
    reflections align to rounding (the mirror is a gauge, see the module docstring),
    so every frame keeps its representative depths and ``reflected`` is False.
    """
    if len(observations) != len(solution.frames):
        raise InputError(f"{len(observations)} observations for {len(solution.frames)} frames")
    rows = zip(observations, (f.depths.tolist() for f in solution.frames))
    posed = np.array(  # every frame's triangle in view coordinates (u, v, depth)
        [[[*o.p.tolist(), d[0]], [*o.q.tolist(), d[1]], [*o.r.tolist(), d[2]]] for o, d in rows]
    )
    fits = best_fit_motions(posed[0], posed[1:])
    return [(RigidMotion.identity(), 0.0, False)] + [(m, e, False) for m, e in fits]


def observations_from_dataset(dataset, labels=None) -> list[TriangleFrameObs]:
    """Triangle observations for three labels of an orthographic dataset."""
    if dataset.regime is not Regime.ORTHOGRAPHIC:
        raise InputError("the three-point solver needs an orthographic dataset")
    if labels is None:
        labels = dataset.labels[:3]
    if len(labels) != 3:
        raise InputError("exactly three labels are required")
    for lab in labels:
        if lab not in dataset.labels:
            raise InputError(f"label {lab!r} missing from the dataset")
    rows = dataset.points[:, [dataset.labels.index(lab) for lab in labels]]
    return [TriangleFrameObs(p, q, r) for p, q, r in rows]  # rows of a float array
