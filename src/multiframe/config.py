"""Numeric tolerances.

Every tolerance in the package defaults to the values below and can be
overridden per call where a function accepts a ``tol`` argument.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    rotation_orthonormal: float = 1e-9
    unit_vector: float = 1e-12
    ray_parallel: float = 1e-10          # sine of angle between rays
    # ortho3p (relative to the frame scale, see module docs)
    root_clamp: float = 1e-9             # x scale^2
    sign_pattern: float = 1e-7           # x scale
    residual_filter: float = 1e-7        # x scale^4
    # persp-epi
    essential_structure: float = 1e-6
    depth_singular: float = 1e-9
    # curve-lift
    transfer_band: float = 1e-6          # x scale
    tangency: float = 1e-9               # sine of line/segment angle


TOL = Tolerances()
