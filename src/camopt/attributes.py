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


def _threshold(K) -> int:
    """The coverage threshold K as an int; it must be a positive integer."""
    if int(K) != K or K < 1:
        raise ValueError("coverage threshold must be a positive integer")
    return int(K)


def sup_vector(K) -> np.ndarray:
    """Componentwise maximum of the attribute triple."""
    return np.array([float(_threshold(K)), np.pi / 2.0, 1.0])


@dataclass(frozen=True, eq=False)
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


def observer_groups(positions: np.ndarray, E: CoverageMatrix, centers: np.ndarray,
                    voxels=None) -> list:
    """Voxels grouped by observer count n >= 1, as (rows, dirs) pairs: rows
    holds the group's voxel indices and dirs[r, i] the unit vector from voxel
    rows[r] to its i-th observing camera, cameras in rig order. voxels, an
    ascending array of voxel indices, limits the groups to those voxels; a
    voxel's dirs are the same either way."""
    counts = E.per_voxel_count if voxels is None else E.per_voxel_count[voxels]
    groups = []
    for n in np.unique(counts[counts > 0]):
        rows = np.flatnonzero(counts == n)
        if voxels is not None:
            rows = voxels[rows]
        cams = np.nonzero(E.entries[:, rows].T)[1].reshape(len(rows), n)
        offsets = positions[cams] - centers[rows, None, :]
        lengths = np.linalg.norm(offsets, axis=2)
        if np.any(lengths < 1e-12):
            raise ValueError("an observing camera coincides with the voxel center")
        groups.append((rows, offsets / lengths[..., None]))
    return groups


def pair_cosines(dirs: np.ndarray) -> np.ndarray:
    """(v, n(n-1)/2) cosines of each voxel's observer pairs, upper-triangle
    order. C-contiguous, so a row reduction sums in the same order as it
    would over that voxel's pairs alone."""
    iu = np.triu_indices(dirs.shape[1], k=1)
    return np.ascontiguousarray((dirs @ dirs.transpose(0, 2, 1))[:, iu[0], iu[1]])


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
    for rows, dirs in observer_groups(positions, E, centers):
        if dirs.shape[1] >= 2:
            angles = np.arccos(np.clip(pair_cosines(dirs), -1.0, 1.0))
            phi_cc[rows] = np.abs(np.pi / 2.0 - angles.mean(axis=1))
        resultant = dirs.sum(axis=1)
        length = np.sqrt(np.vecdot(resultant, resultant))
        ok = length >= 1e-12   # directions that cancel keep the degenerate value
        phi_co[rows[ok]] = 1.0 - np.vecdot(normals[rows[ok]], resultant[ok] / length[ok, None])
    return ObservationAttributes(c=c, phi_cc=phi_cc, phi_co=phi_co, K=k)


def shape_analyze(rig: CameraRig, grid, K) -> tuple:
    """Coverage analysis of a rig against a voxel grid: the coverage matrix
    and the per-voxel attribute triple (degenerate substitutions applied),
    as (E, attrs)."""
    E = coverage_matrix(rig, grid)
    positions = np.stack([pose.position for pose in rig.poses])
    return E, attributes_from_coverage(E, positions, grid.centers, grid.normals, K)
