"""Degrees-of-freedom balances and feasibility verdicts per projection regime.

One balance serves every regime.  ``p`` traced points, ``s`` straight lines and
``k`` frames give

    dof = gauge + 3p + 4s + per_frame * (k - 1)    against    info = 2k (p + s)

A point has 3 unknown coordinates and a line 4; every feature gives 2 image
coordinates per frame (a line its direction and offset).  ``(gauge, per_frame)``
is, per regime:

- orthographic ``(-1, 5)``: the common depth is unobservable, and a frame's
  translation along its viewing direction has no image effect;
- calibrated perspective ``(-1, 6)``: the global scale is unrecoverable, and a
  frame's motion has 6 parameters;
- uncalibrated perspective ``(2, 9)``, points only: the first frame's focal point
  adds 3 to the -1 of scale, and every further frame moves both the body (6)
  and the focal point (3).

All arithmetic is exact integer arithmetic.  On top of the balance,
``_override`` applies the configurations known to be unrecoverable even when
the balance closes, plus one recorded claim (three uncalibrated frames) kept
distinct from the proven cases.  ``tests/test_dof.py`` checks the verdicts against
the rank of the imaging model's Jacobian.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

from .errors import InputError


class Regime(Enum):
    ORTHOGRAPHIC = "orthographic"
    PERSPECTIVE_CALIBRATED = "perspective_calibrated"
    PERSPECTIVE_UNCALIBRATED = "perspective_uncalibrated"


_BALANCE = {
    Regime.ORTHOGRAPHIC: (-1, 5),
    Regime.PERSPECTIVE_CALIBRATED: (-1, 6),
    Regime.PERSPECTIVE_UNCALIBRATED: (2, 9),
}


@dataclass(frozen=True)
class DofVerdict:
    """Outcome of one balance: unknowns vs information, plus overrides.

    ``balanced`` is the comparison symbol for ``dof`` vs ``info``
    ("<", "=", ">").  ``by_claim`` marks verdicts resting on a stated
    claim rather than a proven impossibility.
    """

    regime: Regime
    p: int
    s: int
    k: int
    dof: int
    info: int
    balanced: str
    feasible: bool
    override_reason: str | None
    by_claim: bool

    @property
    def status(self) -> str:
        if self.feasible:
            return "feasible"
        return "infeasible-by-claim" if self.by_claim else "infeasible"

    def describe(self) -> str:
        line = f"{self.dof} {self.balanced} {self.info} {self.status}"
        if self.override_reason:
            line += f" ({self.override_reason})"
        return line


def _override(regime: Regime, p: int, s: int, k: int, closes: bool):
    """``(feasible, reason, by_claim)``: ``closes`` (``dof <= info``) unless a
    known configuration overrides it."""
    if regime is Regime.ORTHOGRAPHIC:
        if k == 2:
            return False, (
                "two orthographic frames never determine structure: each point beyond "
                "the third can be assigned an arbitrary depth line in the second frame"
            ), False
        if p == 2 and s == 1:
            return False, (
                "two points and one line never determine orthographic structure: scenes "
                "that differ in the points' separation along the line, each with its "
                "own motions, give the same images in every frame"
            ), False
        if s == 0 and (k < 3 or p < 3):
            return False, "orthographic recovery needs at least 3 frames and 3 traced points", False
    elif regime is Regime.PERSPECTIVE_UNCALIBRATED:
        if p <= 4:
            return False, (
                "with four or fewer traced points the unknowns outnumber the "
                "measurements for every frame count"
            ), False
        if k == 2:
            return False, (
                "two uncalibrated frames never determine structure: each point beyond "
                "the seventh adds no constraint"
            ), False
        if k == 3:
            # where the balance closes, three frames are held insufficient as a
            # claim, kept distinct from the proven cases
            claim = (
                "three uncalibrated frames admit distinct spatial arrangements "
                "consistent with the same images (claimed, with a proof sketch only)"
            )
            return False, claim if closes else None, closes
    return closes, None, False


def dof_verdict(regime: Regime, p: int, s: int, k: int) -> DofVerdict:
    """The balance of ``p`` points, ``s`` lines and ``k`` frames under ``regime``,
    with its overrides.  The uncalibrated regime takes points only."""
    if regime is Regime.PERSPECTIVE_UNCALIBRATED and s != 0:
        raise InputError("the uncalibrated regime supports points only (s must be 0)")
    if p < 0 or s < 0:
        raise InputError("feature counts must be nonnegative")
    if p + s < 1:
        raise InputError("at least one traced feature is required")
    if k < 1:
        raise InputError("at least one frame is required")
    gauge, per_frame = _BALANCE[regime]
    dof = gauge + 3 * p + 4 * s + per_frame * (k - 1)
    info = 2 * k * (p + s)
    balanced = "<" if dof < info else ("=" if dof == info else ">")
    verdict = _override(regime, p, s, k, dof <= info)
    return DofVerdict(regime, p, s, k, dof, info, balanced, *verdict)


def verdict_table(
    regime: Regime,
    p_range: range | list[int],
    s_range: range | list[int],
    k_range: range | list[int],
) -> list[DofVerdict]:
    """One verdict per (p, s, k) combination, in lexicographic order."""
    cells = itertools.product(p_range, s_range, k_range)
    return [dof_verdict(regime, p, s, k) for p, s, k in cells]
