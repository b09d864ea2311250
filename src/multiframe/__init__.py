"""Recovery of rigid 3-D structure and motion from multi-frame 2-D projections."""

from .dof import DofVerdict, Regime, dof_verdict, verdict_table
from .geometry import (
    CameraPose,
    Ray,
    RigidMotion,
    Rotation,
    best_fit_motion,
    project_points,
    projection_matrix,
    rays_through,
    triangulate_midpoint,
    triangulate_midpoints,
)

__version__ = "0.1.0"

__all__ = [
    "CameraPose",
    "DofVerdict",
    "Ray",
    "Regime",
    "RigidMotion",
    "Rotation",
    "best_fit_motion",
    "dof_verdict",
    "project_points",
    "projection_matrix",
    "rays_through",
    "triangulate_midpoint",
    "triangulate_midpoints",
    "verdict_table",
]
