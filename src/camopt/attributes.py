"""Per-voxel observation attributes [c, phi_cc, phi_co] from coverage.

The triple measures residual observation need: c counts missing observers
against the coverage threshold, phi_cc measures how far the observing
directions sit from ideal 90 degree triangulation, and phi_co how far the
combined observing direction tilts off the surface normal. Larger values
mean the voxel needs more or better observation.
"""

from dataclasses import dataclass

import numpy as np

from camopt.visibility import CameraRig, CoverageMatrix, coverage_matrix

PHI_CC_DEGENERATE = np.pi / 2.0   # fewer than two observers
PHI_CO_DEGENERATE = 1.0           # no observers, or observer directions cancel


@dataclass(frozen=True)
class CoverageThreshold:
    K: int

    def __post_init__(self):
        if int(self.K) != self.K or self.K < 1:
            raise ValueError("coverage threshold must be a positive integer")
        object.__setattr__(self, "K", int(self.K))


def _threshold(K) -> int:
    return K.K if isinstance(K, CoverageThreshold) else CoverageThreshold(K).K


def sup_vector(K) -> np.ndarray:
    """Componentwise maximum of the attribute triple."""
    return np.array([float(_threshold(K)), np.pi / 2.0, 1.0])


@dataclass(frozen=True)
class ObservationAttributes:
    c: np.ndarray        # (m,) in [0, K]
    phi_cc: np.ndarray   # (m,) radians in [0, pi/2]
    phi_co: np.ndarray   # (m,)
    K: int

    def stack(self) -> np.ndarray:
        """(m, 3) matrix of [c, phi_cc, phi_co] rows."""
        return np.stack([self.c, self.phi_cc, self.phi_co], axis=1)

    def __len__(self):
        return len(self.c)


def remaining_coverage(E: CoverageMatrix, K) -> np.ndarray:
    """c[j] = clamp(K - observer count of voxel j, 0, K)."""
    k = _threshold(K)
    return np.clip(float(k) - E.per_voxel_count.astype(np.float64), 0.0, float(k))


def camera_to_camera_angle(A_j) -> float:
    """Deviation of the mean pairwise observer-ray angle from 90 degrees."""
    dirs = np.asarray(A_j, dtype=np.float64)
    if dirs.ndim != 2 or len(dirs) < 2:
        raise ValueError("need at least two observer directions")
    dots = dirs @ dirs.T
    iu = np.triu_indices(len(dirs), k=1)
    angles = np.arccos(np.clip(dots[iu], -1.0, 1.0))
    return float(np.abs(np.pi / 2.0 - angles.mean()))


def camera_to_object_angle(A_j, n_j) -> float:
    """One minus the cosine between the normal and the summed observer rays."""
    dirs = np.atleast_2d(np.asarray(A_j, dtype=np.float64))
    if len(dirs) < 1:
        raise ValueError("need at least one observer direction")
    resultant = dirs.sum(axis=0)
    length = np.linalg.norm(resultant)
    if length < 1e-12:
        raise ValueError("observer directions cancel out")
    n = np.asarray(n_j, dtype=np.float64)
    return float(1.0 - np.dot(n, resultant / length))


def observer_directions(positions: np.ndarray, E: CoverageMatrix, center: np.ndarray,
                        voxel: int) -> np.ndarray:
    """Unit voxel->camera vectors for the cameras observing the voxel."""
    rows = np.nonzero(E.entries[:, voxel])[0]
    if len(rows) == 0:
        return np.zeros((0, 3))
    offsets = positions[rows] - center
    lengths = np.linalg.norm(offsets, axis=1)
    if np.any(lengths < 1e-12):
        raise ValueError("an observing camera coincides with the voxel center")
    return offsets / lengths[:, None]


def attributes_from_coverage(E: CoverageMatrix, positions, centers, normals, K) -> ObservationAttributes:
    """Attribute triple for every voxel given a fixed coverage matrix."""
    k = _threshold(K)
    positions = np.asarray(positions, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64)
    normals = np.asarray(normals, dtype=np.float64)
    m = centers.shape[0]
    c = remaining_coverage(E, k)
    phi_cc = np.full(m, PHI_CC_DEGENERATE)
    phi_co = np.full(m, PHI_CO_DEGENERATE)
    for j in range(m):
        dirs = observer_directions(positions, E, centers[j], j)
        if len(dirs) >= 2:
            phi_cc[j] = camera_to_camera_angle(dirs)
        if len(dirs) >= 1:
            resultant = dirs.sum(axis=0)
            if np.linalg.norm(resultant) >= 1e-12:
                phi_co[j] = camera_to_object_angle(dirs, normals[j])
    return ObservationAttributes(c=c, phi_cc=phi_cc, phi_co=phi_co, K=k)


def shape_analyze(rig: CameraRig, grid, K) -> tuple:
    """Coverage analysis of a rig against a voxel grid: the coverage matrix
    and the per-voxel attribute triple (degenerate substitutions applied),
    as (E, attrs)."""
    E = coverage_matrix(rig, grid)
    positions = np.stack([pose.position for pose in rig.poses])
    return E, attributes_from_coverage(E, positions, grid.centers, grid.normals, K)
