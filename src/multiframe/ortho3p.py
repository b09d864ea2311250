"""Three-point structure from orthographic multiframes.

Under orthographic projection the true edge lengths (a, b, c) of a traced
triangle and the projected lengths (a_i, b_i, c_i) of frame i satisfy one
of three square-root compatibility relations (the signed depth differences
along the view direction sum to zero):

    sqrt(a^2-a_i^2) + sqrt(b^2-b_i^2) - sqrt(c^2-c_i^2) = 0
    sqrt(a^2-a_i^2) - sqrt(b^2-b_i^2) + sqrt(c^2-c_i^2) = 0
   -sqrt(a^2-a_i^2) + sqrt(b^2-b_i^2) + sqrt(c^2-c_i^2) = 0

Squaring twice turns any of them into one quartic equation per frame that
is quadratic in (a^2, b^2, c^2).  Subtracting the third frame's equation
from the first and second cancels the frame-independent quartic block and
leaves two linear equations; the solution line substituted back into the
third frame's quartic gives a univariate quadratic, hence at most two
candidate length triples.  Frames beyond the third act as filters only.

Depth offsets per frame are recovered from the square roots up to a common
shift and a per-frame reflection, which is a gauge: a posed triple is
planar, so it and its mirror image are related by a proper rotation.  One
batched orthogonal (cross-covariance) alignment of the representative posed
triples gives the rigid motions from frame 1 to every later frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import (
    AmbiguityError,
    DegenerateGeometry,
    InconsistentDataError,
    InputError,
    NoSolutionError,
    RankDeficientError,
)
from .geometry import RigidMotion, _norm, best_fit_motion, best_fit_motions, cross

# Noise gates in powers of the scale, the longest observed edge; they stay
# constants until a noise estimate replaces them
ROOT_CLAMP = 1e-9  # x scale^2: a true squared length may fall this far below an observed one
SIGN_PATTERN = 1e-7  # x scale: the least square-root relation must vanish within this
RESIDUAL_FILTER = 1e-7  # x scale^4: the quartic residual of every frame beyond the third


def edge_lengths(p, q, r) -> tuple[float, float, float]:
    """Projected segment lengths (|PQ|, |QR|, |RP|) of one frame."""
    # np.linalg.norm's rounding is load-bearing: solve_triangle's finite-difference
    # quadratic amplifies an ulp of a length, and math.dist in its place moves
    # noiseless three-frame solutions by up to 7e-11 of the longest edge
    p, q, r = (np.asarray(x, dtype=float) for x in (p, q, r))
    a = float(np.linalg.norm(q - p))
    b = float(np.linalg.norm(r - q))
    c = float(np.linalg.norm(p - r))
    if min(a, b, c) == 0.0:
        raise DegenerateGeometry("coincident projected points")
    return a, b, c


@dataclass(frozen=True, eq=False)
class TriangleFrameObs:
    """One frame's observation of the traced triangle; ``a, b, c`` = ``|PQ|, |QR|, |RP|``,
    ``lengths_sq`` their squares."""

    p: np.ndarray
    q: np.ndarray
    r: np.ndarray
    a: float = field(init=False)
    b: float = field(init=False)
    c: float = field(init=False)
    lengths_sq: tuple[float, float, float] = field(init=False)

    def __post_init__(self):
        a, b, c = edge_lengths(self.p, self.q, self.r)
        for name, value in zip(("a", "b", "c", "lengths_sq"), (a, b, c, (a**2, b**2, c**2))):
            object.__setattr__(self, name, value)

    @classmethod
    def from_points(cls, p, q, r) -> "TriangleFrameObs":
        return cls(np.asarray(p, float), np.asarray(q, float), np.asarray(r, float))


class SignPattern(Enum):
    """Which square root enters negatively in the vanishing relation."""

    PPM = (1, 1, -1)
    PMP = (1, -1, 1)
    MPP = (-1, 1, 1)

    @property
    def signs(self) -> np.ndarray:
        return np.array(self.value, dtype=float)


@dataclass(frozen=True, eq=False)
class FrameSolution:
    pattern: SignPattern
    depths: np.ndarray  # (dP, dQ, dR), one representative of shift+reflection


@dataclass(frozen=True, eq=False)
class TriangleSolution:
    lengths: tuple[float, float, float]
    frames: list[FrameSolution]
    max_eq4_residual: float

    @property
    def lengths_sq(self) -> np.ndarray:
        return np.array([v * v for v in self.lengths])


def _observed_block(obs: TriangleFrameObs) -> float:
    a2, b2, c2 = obs.lengths_sq
    return a2 * a2 + b2 * b2 + c2 * c2 - 2 * a2 * b2 - 2 * a2 * c2 - 2 * b2 * c2


def eq4_residual(a2: float, b2: float, c2: float, obs: TriangleFrameObs) -> float:
    """Quartic per-frame compatibility polynomial at squared lengths.

    Zero exactly when (a2, b2, c2) is consistent with the frame; quadratic
    in its three arguments and homogeneous of degree four in the lengths.
    """
    if min(a2, b2, c2) < 0:
        raise InputError("squared lengths must be nonnegative")
    ai2, bi2, ci2 = obs.lengths_sq
    return (
        a2 * a2 + b2 * b2 + c2 * c2
        - 2 * a2 * b2 - 2 * a2 * c2 - 2 * b2 * c2
        + _observed_block(obs)
        + 2 * (-ai2 + bi2 + ci2) * a2
        + 2 * (ai2 - bi2 + ci2) * b2
        + 2 * (ai2 + bi2 - ci2) * c2
    )


@dataclass(frozen=True, eq=False)
class LinearPair:
    """Two linear equations rows @ (a2, b2, c2) + consts = 0."""

    rows: np.ndarray  # (2, 3)
    consts: np.ndarray  # (2,)

    def residual(self, x) -> np.ndarray:
        return self.rows @ np.asarray(x, dtype=float) + self.consts

    def rank_deficient(self) -> bool:
        """True when the rows are parallel within 1e-10 (sine of their angle)."""
        r0, r1 = self.rows
        n, d = _norm(cross(r0, r1)), _norm(r0) * _norm(r1)
        return d == 0.0 or n <= 1e-10 * d


def linearized_pair(
    obs1: TriangleFrameObs, obs2: TriangleFrameObs, obs3: TriangleFrameObs
) -> LinearPair:
    """Subtract frame 3's quartic from frames 1 and 2.

    The block a^4+b^4+c^4-2a^2b^2-2a^2c^2-2b^2c^2 does not depend on the
    frame, so the differences are linear in (a^2, b^2, c^2).
    """
    rows = []
    consts = []
    ref = obs3.lengths_sq
    ref_coeff = 2 * np.array([-ref[0] + ref[1] + ref[2], ref[0] - ref[1] + ref[2], ref[0] + ref[1] - ref[2]])
    for obs in (obs1, obs2):
        s = obs.lengths_sq
        coeff = 2 * np.array([-s[0] + s[1] + s[2], s[0] - s[1] + s[2], s[0] + s[1] - s[2]])
        rows.append(coeff - ref_coeff)
        consts.append(_observed_block(obs) - _observed_block(obs3))
    return LinearPair(np.array(rows), np.array(consts))


def _quadratic_roots(alpha: float, beta: float, gamma: float, unit: float) -> list[float]:
    # coefficients live on very different scales; normalize by the natural
    # magnitude of s (squared-length units) before deciding what is "zero"
    mag = max(abs(alpha) * unit * unit, abs(beta) * unit, abs(gamma), 1e-300)
    # the coefficients are differences of three quartic values, each rounded at
    # about 1e-16 of mag; a term under 1e-13 of mag is that rounding with three
    # digits to spare, so the quadratic drops to a line (or to no constraint)
    if abs(alpha) * unit * unit <= 1e-13 * mag:
        if abs(beta) * unit <= 1e-13 * mag:
            raise AmbiguityError("frame-3 quartic does not constrain the solution line")
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


def frame_sign_pattern(
    lengths_sq, obs: TriangleFrameObs, *, scale: float | None = None
) -> tuple[SignPattern, np.ndarray]:
    """Identify the vanishing square-root relation and the depth offsets.

    Returns the sign pattern plus one representative depth triple
    (dP = 0); the reflected triple is its negation.  If the squared
    lengths fall below the observed ones beyond :data:`ROOT_CLAMP`, or no
    relation vanishes within :data:`SIGN_PATTERN`, the frame is
    inconsistent with the candidate.  ``scale`` defaults to the frame's
    longest edge.
    """
    if scale is None:
        scale = max(obs.a, obs.b, obs.c)
    clamp = -ROOT_CLAMP * scale * scale
    da, db, dc = (float(x) - o for x, o in zip(lengths_sq, obs.lengths_sq))
    if not (da >= clamp and db >= clamp and dc >= clamp):
        raise InconsistentDataError("true squared length below an observed one")
    sa, sb, sc = (math.sqrt(max(d, 0.0)) for d in (da, db, dc))
    relations = {
        SignPattern.PPM: sa + sb - sc,
        SignPattern.PMP: sa - sb + sc,
        SignPattern.MPP: -sa + sb + sc,
    }
    pattern = min(relations, key=lambda k: abs(relations[k]))
    if not abs(relations[pattern]) <= SIGN_PATTERN * scale:
        raise InconsistentDataError(
            f"no square-root relation vanishes (best {relations[pattern]:.3e})"
        )
    if pattern is SignPattern.PPM:
        depths = np.array([0.0, sa, sa + sb])
    else:
        depths = np.array([0.0, sa, sa - sb])
    return pattern, depths


def solve_triangle(observations: list[TriangleFrameObs]) -> list[TriangleSolution]:
    """Candidate true length triples from three or more frames.

    Builds the linear pair from frames 1-3, walks the one-dimensional
    affine solution line, intersects it with frame 3's quartic, keeps
    admissible real roots (squared lengths at least the observed ones,
    clamped near tangency), assigns per-frame sign patterns and depth
    offsets, and filters candidates by the quartic residual on every
    frame beyond the third.
    """
    if len(observations) < 3:
        raise InputError("need at least 3 frames (two frames never suffice)")
    scale = max(max(o.a, o.b, o.c) for o in observations)
    pair = linearized_pair(observations[0], observations[1], observations[2])
    if pair.rank_deficient():
        raise RankDeficientError(
            "linearized frame pair is rank deficient (degenerate motion, e.g. "
            "in-plane rotation across all frames)"
        )
    x_part, *_ = np.linalg.lstsq(pair.rows, -pair.consts, rcond=None)
    direction = cross(pair.rows[0], pair.rows[1])
    norm = _norm(direction)
    x_part, direction = x_part.tolist(), [d / norm for d in direction.tolist()]

    def on_line(s: float) -> list[float]:
        return [p + s * d for p, d in zip(x_part, direction)]

    h = scale * scale
    obs3 = observations[2]

    def eq_at(s: float) -> float:
        qa, qb, qc = (x - o for x, o in zip(on_line(s), obs3.lengths_sq))
        return qa * qa + qb * qb + qc * qc - 2 * qa * qb - 2 * qa * qc - 2 * qb * qc

    e0, ep, em = eq_at(0.0), eq_at(h), eq_at(-h)
    alpha = (ep + em - 2 * e0) / (2 * h * h)
    beta = (ep - em) / (2 * h)
    gamma = e0
    roots = _quadratic_roots(alpha, beta, gamma, h)

    # dedupe nearly equal roots
    uniq: list[float] = []
    for s in sorted(roots):
        if not uniq or abs(s - uniq[-1]) > 1e-10 * h:
            uniq.append(s)

    floor = [max(col) for col in zip(*(o.lengths_sq for o in observations))]
    clamp = -ROOT_CLAMP * scale * scale
    solutions = []
    for s in uniq:
        x = on_line(s)
        if not all(v - f >= clamp for v, f in zip(x, floor)):
            continue
        x = [max(v, f) for v, f in zip(x, floor)]
        frames = []
        ok = True
        worst = 0.0
        for obs in observations:
            try:
                pattern, depths = frame_sign_pattern(x, obs, scale=scale)
            except InconsistentDataError:
                ok = False
                break
            frames.append(FrameSolution(pattern, depths))
        if not ok:
            continue
        for obs in observations[3:]:
            resid = abs(eq4_residual(x[0], x[1], x[2], obs))
            worst = max(worst, resid)
            if resid > RESIDUAL_FILTER * scale**4:
                ok = False
                break
        if not ok:
            continue
        lengths = tuple(math.sqrt(v) for v in x)
        solutions.append(TriangleSolution(lengths, frames, worst))
    if not solutions:
        raise NoSolutionError("no admissible length triple survived the filters")
    return solutions


def posed_triple(obs: TriangleFrameObs, depths: np.ndarray) -> np.ndarray:
    """Embed one frame's triangle in view coordinates (u, v, depth)."""
    return np.array(
        [
            [obs.p[0], obs.p[1], depths[0]],
            [obs.q[0], obs.q[1], depths[1]],
            [obs.r[0], obs.r[1], depths[2]],
        ]
    )


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
    base, *rest = (posed_triple(o, f.depths) for o, f in zip(observations, solution.frames))
    fits = best_fit_motions(base, np.array(rest).reshape(-1, 3, 3))
    return [(RigidMotion.identity(), 0.0, False)] + [(m, e, False) for m, e in fits]


def observations_from_dataset(dataset, labels=None) -> list[TriangleFrameObs]:
    """Triangle observations for three labels of an orthographic dataset."""
    if labels is None:
        labels = dataset.labels[:3]
    if len(labels) != 3:
        raise InputError("exactly three labels are required")
    for lab in labels:
        if lab not in dataset.labels:
            raise InputError(f"label {lab!r} missing from the dataset")
    rows = dataset.points[:, [dataset.labels.index(lab) for lab in labels]]
    return [TriangleFrameObs.from_points(p, q, r) for p, q, r in rows]
