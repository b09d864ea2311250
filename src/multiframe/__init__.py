"""Recovery of rigid 3-D structure and motion from multi-frame 2-D projections."""

from .dof import (
    DofVerdict,
    FeatureCount,
    Regime,
    dof_orthographic,
    dof_perspective_calibrated,
    dof_uncalibrated,
    dof_verdict,
    verdict_table,
)
from .geometry import (
    CameraPose,
    Ray,
    RigidMotion,
    Rotation,
    best_fit_motion,
    best_fit_rotation,
    project,
    project_points,
    projection_matrix,
    ray_through,
    rays_through,
    triangulate_midpoint,
    triangulate_midpoints,
)

__version__ = "0.1.0"

__all__ = [
    "CameraPose",
    "DofVerdict",
    "FeatureCount",
    "Ray",
    "Regime",
    "RigidMotion",
    "Rotation",
    "best_fit_motion",
    "best_fit_rotation",
    "dof_orthographic",
    "dof_perspective_calibrated",
    "dof_uncalibrated",
    "dof_verdict",
    "project",
    "project_points",
    "projection_matrix",
    "ray_through",
    "rays_through",
    "triangulate_midpoint",
    "triangulate_midpoints",
    "verdict_table",
]
