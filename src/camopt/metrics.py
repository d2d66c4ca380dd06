"""Placement quality metrics, computed from exact visibility only.

These never consult the learned field: they are the ground truth a run is
judged by, independent of what the optimizer believed during the search.
"""

from dataclasses import dataclass

import numpy as np

from camopt.attributes import _threshold, observer_groups, pair_cosines
from camopt.visibility import CameraRig, CoverageMatrix, coverage_matrix

ANGLE_BAND_DEG = (45.0, 145.0)


def coverage_optimality_gap(E: CoverageMatrix, K) -> float:
    """Normalized shortfall against the K-observations-per-voxel requirement:
    the mean over voxels of (max(0, K - cov_j))^2 / K^2, which is 0 exactly
    when every voxel meets the requirement and 1 when nothing is covered.
    """
    k_req = float(_threshold(K))
    cov = E.per_voxel_count.astype(np.float64)
    n = len(cov)
    if n < 1:
        raise ValueError("need at least one voxel")
    deficit = np.maximum(0.0, k_req - cov)
    return float(np.sum(deficit ** 2) / (k_req ** 2 * n))


def observation_angle_quality(rig: CameraRig, grid, E: CoverageMatrix) -> float:
    """Pooled fraction of observer-ray pairs meeting at a well-conditioned
    angle (45..145 degrees), over every voxel with at least two observers.
    Returns 0 when no voxel has two observers; raises ValueError when an
    observing camera sits on a voxel center."""
    cos_hi = np.cos(np.deg2rad(ANGLE_BAND_DEG[0]))  # cos decreases: 45 deg bounds above
    cos_lo = np.cos(np.deg2rad(ANGLE_BAND_DEG[1]))
    positions = np.stack([pose.position for pose in rig.poses])
    good = 0
    total = 0
    for _, dirs in observer_groups(positions, E, grid.centers):
        if dirs.shape[1] >= 2:
            dots = pair_cosines(dirs)
            good += int(np.sum((dots <= cos_hi + 1e-12) & (dots >= cos_lo - 1e-12)))
            total += dots.size
    return good / total if total else 0.0


@dataclass(frozen=True, eq=False)
class EvaluationReport:
    uc: float
    angle_quality: float
    per_voxel_coverage: np.ndarray
    camera_count: int
    voxel_count: int

    def __post_init__(self):
        if not (0.0 <= self.angle_quality <= 1.0):
            raise ValueError("angle_quality out of range")
        if self.uc < 0.0:
            raise ValueError("uc must be non-negative")


def evaluate_rig(rig: CameraRig, grid, K) -> EvaluationReport:
    E = coverage_matrix(rig, grid)
    return EvaluationReport(
        uc=coverage_optimality_gap(E, K),
        angle_quality=observation_angle_quality(rig, grid, E),
        per_voxel_coverage=E.per_voxel_count.copy(),
        camera_count=len(rig),
        voxel_count=len(grid.centers),
    )
