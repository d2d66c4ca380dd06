"""Per-camera voxel visibility: frustum, range, backface, and occlusion.

Occlusion is one exact test: a voxel is hidden when the segment from the
camera to its center passes through another occupied cell, found by
traversing the cells of the occupancy box its grid derives once. The
traversal runs per ray in the compiled kernel library (`camopt.native`),
which the process's first traversal, field fit or field query builds.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from camopt import native


@dataclass(frozen=True)
class CameraIntrinsics:
    hfov: float   # radians
    vfov: float   # radians
    near: float   # meters
    far: float    # meters

    def __post_init__(self):
        if not (0.0 < self.hfov < np.pi and 0.0 < self.vfov < np.pi):
            raise ValueError("fov angles must lie in (0, pi)")
        if not (0.0 < self.near < self.far):
            raise ValueError("need 0 < near < far")


def default_intrinsics(scene_diagonal: Optional[float] = None) -> CameraIntrinsics:
    """60 degree square FOV; range band scales with scene size when known
    (a diagonal of at most 1e-9 counts as unknown)."""
    if scene_diagonal is None or scene_diagonal <= 1e-9:
        near, far = 0.2, 5.0
    else:
        near, far = 0.08 * scene_diagonal, 2.0 * scene_diagonal
    return CameraIntrinsics(hfov=np.pi / 3.0, vfov=np.pi / 3.0, near=near, far=far)


def _norm(v: np.ndarray) -> float:
    """Euclidean length of a 1-D float64 array: np.linalg.norm's own
    sqrt(v . v), so bit for bit the same, without its argument handling."""
    return math.sqrt(v.dot(v))


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a x b of two 3-vectors with np.cross's products and subtraction order
    (a1*b2 - a2*b1, ...), so bit for bit the same, without its broadcasting."""
    a0, a1, a2 = a.tolist()
    b0, b1, b2 = b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def rotation_from_six(params) -> np.ndarray:
    """Orthonormalize a 6-number orientation into a rotation matrix.

    The two stored 3-vectors Gram-Schmidt into the camera right and up axes;
    their cross product is the forward (viewing) axis, column 2.
    """
    params = np.asarray(params, dtype=np.float64)
    a, b = params[:3], params[3:]
    na = _norm(a)
    if na < 1e-12:
        raise ValueError("orientation first vector is numerically zero")
    c1 = a / na
    b_perp = b - np.dot(c1, b) * c1
    nb = _norm(b_perp)
    if nb < 1e-12:
        raise ValueError("orientation vectors are parallel")
    c2 = b_perp / nb
    rot = np.empty((3, 3))
    rot[:, 0], rot[:, 1], rot[:, 2] = c1, c2, _cross(c1, c2)
    return rot


@dataclass(frozen=True, eq=False)
class CameraPose:
    """Position plus a continuous 6-number orientation (right/up seeds)."""

    position: np.ndarray   # (3,)
    rot6: np.ndarray       # (6,)
    _rotation: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "position", np.asarray(self.position, dtype=np.float64).reshape(3))
        object.__setattr__(self, "rot6", np.asarray(self.rot6, dtype=np.float64).reshape(6))
        # NaN passes the determinant check below, so test finiteness first
        if not (np.isfinite(self.position).all() and np.isfinite(self.rot6).all()):
            raise ValueError("pose position and orientation must be finite")
        rot = rotation_from_six(self.rot6)
        if abs(np.linalg.det(rot) - 1.0) > 1e-6:
            raise ValueError("orientation does not orthonormalize to a proper rotation")
        rot.flags.writeable = False
        object.__setattr__(self, "_rotation", rot)

    def rotation(self) -> np.ndarray:
        """The (3, 3) rotation derived once from rot6, read-only."""
        return self._rotation


def pose_from_forward(position, forward) -> CameraPose:
    """Build a pose at position looking along forward, its right axis
    horizontal (+z x forward), or along +x x forward when forward is
    vertical."""
    f = np.asarray(forward, dtype=np.float64)
    nf = _norm(f)
    if nf < 1e-12:
        raise ValueError("forward direction is zero")
    f = f / nf
    right = _cross(np.array([0.0, 0.0, 1.0]), f)
    nr = _norm(right)
    if nr < 1e-9:  # forward along z
        right = _cross(np.array([1.0, 0.0, 0.0]), f)
        nr = _norm(right)
    right = right / nr
    true_up = _cross(f, right)
    return CameraPose(position=np.asarray(position, dtype=np.float64),
                      rot6=np.concatenate([right, true_up]))


@dataclass(frozen=True, eq=False)
class CameraRig:
    poses: tuple            # of CameraPose
    intrinsics: CameraIntrinsics

    def __post_init__(self):
        object.__setattr__(self, "poses", tuple(self.poses))
        if len(self.poses) < 1:
            raise ValueError("rig needs at least one camera")

    def __len__(self):
        return len(self.poses)


@dataclass(frozen=True, eq=False)
class CoverageMatrix:
    """Binary camera-by-voxel visibility; row i marks the voxels camera i
    sees, and per_voxel_count caches the column sums. A matrix given to the
    constructor is checked whole; one that replace_row derives from a
    checked matrix has only its new row checked, and its column sums are
    the old ones moved by the row difference."""

    entries: np.ndarray          # (k, m) of {0, 1}
    per_voxel_count: np.ndarray = field(init=False)   # (m,)

    def __post_init__(self):
        entries = np.asarray(self.entries)
        if entries.ndim != 2 or not ((entries == 0) | (entries == 1)).all():
            raise ValueError("entries must be a binary matrix")
        object.__setattr__(self, "entries", entries.astype(np.int8))
        object.__setattr__(self, "per_voxel_count", entries.sum(axis=0).astype(np.int64))

    @classmethod
    def _derived(cls, entries: np.ndarray, per_voxel_count: np.ndarray) -> "CoverageMatrix":
        """A matrix built from a checked one: int8 entries and their int64
        column sums, taken as they are."""
        E = object.__new__(cls)
        object.__setattr__(E, "entries", entries)
        object.__setattr__(E, "per_voxel_count", per_voxel_count)
        return E


def frustum_mask(pose: CameraPose, intrinsics: CameraIntrinsics, centers: np.ndarray) -> np.ndarray:
    """Inside-frustum test: depth within [near, far] and within both FOV cones."""
    rot = pose.rotation()
    cam = (centers - pose.position) @ rot   # camera-frame coordinates
    z = cam[:, 2]
    ok = (z >= intrinsics.near) & (z <= intrinsics.far)
    ok &= np.abs(cam[:, 0]) <= np.tan(intrinsics.hfov / 2.0) * z
    ok &= np.abs(cam[:, 1]) <= np.tan(intrinsics.vfov / 2.0) * z
    return ok


def _cell_blocked(grid, eye, target_rows) -> np.ndarray:
    """Exact occupied-cell traversal: True where the segment eye->center
    passes through another voxel's cell (Amanatides & Woo, 1987).

    In cell units each ray is clipped to the occupied box [lo, lo + shape).
    Every cell plane the clipped segment crosses enters exactly one cell;
    those cells plus the entry cell are the cells it passes through, and any
    occupied one but the target's own blocks the ray. A point's cell is its
    floor, as for the keys, with the crossing axis set to the entered cell
    and every axis clipped into the box. A crossing that also lies on a
    plane of another axis (the ray meets a cell edge) adds the cell on the
    lower side of that plane too, so a cell the segment touches along an
    edge blocks as well. Along a zero direction component the ray keeps the
    eye's coordinate, so it spans that slab iff floor(start) lies in the box.

    The traversal runs per ray in the compiled library (native.load, built
    by the process's first call that needs a kernel) and stops a ray at its
    first blocking cell.
    """
    return native.load().cell_blocked(grid, eye, target_rows)


def visible_set(pose: CameraPose, intrinsics: CameraIntrinsics, grid) -> set:
    """Voxels the camera actually observes: in-frustum, facing the camera,
    not on the camera's own position, and with no other occupied cell on the
    segment from the camera to the voxel center. Each test after the frustum
    reads only the voxels still in."""
    rows = np.flatnonzero(frustum_mask(pose, intrinsics, grid.centers))
    if len(rows) == 0:
        return set()
    to_voxel = grid.centers[rows] - pose.position
    # a coincident center is never visible
    rows = rows[(np.sum(to_voxel * grid.normals[rows], axis=1) < 0.0)
                & (np.linalg.norm(to_voxel, axis=1) > 1e-12)]
    if len(rows) == 0:
        return set()
    return set(rows[~_cell_blocked(grid, pose.position, rows)].tolist())


def coverage_matrix(rig: CameraRig, grid) -> CoverageMatrix:
    """Row-stack of visible_set over the rig's cameras."""
    entries = np.zeros((len(rig), len(grid.centers)), dtype=np.int8)
    for i, pose in enumerate(rig.poses):
        entries[i, list(visible_set(pose, rig.intrinsics, grid))] = 1
    return CoverageMatrix(entries)


def replace_row(E: CoverageMatrix, i: int, vis) -> CoverageMatrix:
    """E with camera i's row replaced by the voxels of vis (a visible set or
    an array of voxel rows). Only the new row is checked, and the column
    sums move by the difference between the two rows."""
    rows = list(vis)
    m = E.entries.shape[1]
    if rows and not 0 <= min(rows) <= max(rows) < m:
        raise ValueError("visible voxel rows must lie in [0, voxel count)")
    if not rows and not E.entries[i].any():
        return E    # an empty row stays empty
    row = np.zeros(m, dtype=np.int8)
    row[rows] = 1
    entries = E.entries.copy()
    counts = E.per_voxel_count + (row - entries[i])
    entries[i] = row
    return CoverageMatrix._derived(entries, counts)
