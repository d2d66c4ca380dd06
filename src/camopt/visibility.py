"""Per-camera voxel visibility: frustum, range, backface, and occlusion.

Occlusion is one exact test: a voxel is hidden when the segment from the
camera to its center passes through another occupied cell, found by
traversing the cells of the occupancy box its grid derives once.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np


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
    na = np.linalg.norm(a)
    if na < 1e-12:
        raise ValueError("orientation first vector is numerically zero")
    c1 = a / na
    b_perp = b - np.dot(c1, b) * c1
    nb = np.linalg.norm(b_perp)
    if nb < 1e-12:
        raise ValueError("orientation vectors are parallel")
    c2 = b_perp / nb
    c3 = _cross(c1, c2)
    return np.stack([c1, c2, c3], axis=1)


@dataclass(frozen=True)
class CameraPose:
    """Position plus a continuous 6-number orientation (right/up seeds)."""

    position: np.ndarray   # (3,)
    rot6: np.ndarray       # (6,)
    _rotation: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "position", np.asarray(self.position, dtype=np.float64).reshape(3))
        object.__setattr__(self, "rot6", np.asarray(self.rot6, dtype=np.float64).reshape(6))
        rot = rotation_from_six(self.rot6)
        if abs(np.linalg.det(rot) - 1.0) > 1e-6:
            raise ValueError("orientation does not orthonormalize to a proper rotation")
        rot.flags.writeable = False
        object.__setattr__(self, "_rotation", rot)

    def rotation(self) -> np.ndarray:
        """The (3, 3) rotation derived once from rot6, read-only."""
        return self._rotation

    @property
    def forward(self) -> np.ndarray:
        return self.rotation()[:, 2]


def pose_from_forward(position, forward, up_hint=(0.0, 0.0, 1.0)) -> CameraPose:
    """Build a pose at position looking along forward, roll fixed by up_hint."""
    f = np.asarray(forward, dtype=np.float64)
    nf = np.linalg.norm(f)
    if nf < 1e-12:
        raise ValueError("forward direction is zero")
    f = f / nf
    up = np.asarray(up_hint, dtype=np.float64)
    right = _cross(up, f)
    if np.linalg.norm(right) < 1e-9:  # forward parallel to the hint
        alt = np.array([1.0, 0.0, 0.0]) if abs(f[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
        right = _cross(alt, f)
    right = right / np.linalg.norm(right)
    true_up = _cross(f, right)
    return CameraPose(position=np.asarray(position, dtype=np.float64),
                      rot6=np.concatenate([right, true_up]))


@dataclass(frozen=True)
class CameraRig:
    poses: tuple            # of CameraPose
    intrinsics: CameraIntrinsics

    def __post_init__(self):
        object.__setattr__(self, "poses", tuple(self.poses))
        if len(self.poses) < 1:
            raise ValueError("rig needs at least one camera")

    def __len__(self):
        return len(self.poses)


@dataclass(frozen=True)
class CoverageMatrix:
    """Binary camera-by-voxel visibility; row i marks the voxels camera i
    sees, and per_voxel_count caches the column sums."""

    entries: np.ndarray          # (k, m) of {0, 1}
    per_voxel_count: np.ndarray = field(init=False)   # (m,)

    def __post_init__(self):
        entries = np.asarray(self.entries)
        if entries.ndim != 2 or not ((entries == 0) | (entries == 1)).all():
            raise ValueError("entries must be a binary matrix")
        object.__setattr__(self, "entries", entries.astype(np.int8))
        object.__setattr__(self, "per_voxel_count", entries.sum(axis=0).astype(np.int64))


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
    passes through another voxel's cell (Amanatides & Woo, 1987, vectorized
    over rays).

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
    """
    res = grid.resolution
    lo, shape, occupied = grid.occupancy
    top = shape - 1
    strides = np.array([shape[1] * shape[2], shape[2], 1])   # of occupied, C order
    start = (eye - grid.origin) / res - lo    # cell units, box corner at 0
    rays = (grid.centers[target_rows] - eye) / res
    moving = rays != 0.0

    # slab test against the box; a static axis's quotients (x/0, or 0/0 for
    # an eye on a face) are never read
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t_lo = -start / rays
        t_hi = (shape - start) / rays
    t_in = np.maximum(np.where(moving, np.minimum(t_lo, t_hi), -np.inf).max(axis=1), 0.0)
    t_out = np.minimum(np.where(moving, np.maximum(t_lo, t_hi), np.inf).min(axis=1), 1.0)
    eye_cell = np.floor(start)
    spans = (eye_cell >= 0) & (eye_cell < shape)
    entry_rays = np.nonzero((t_in < t_out) & np.all(moving | spans, axis=1))[0]
    rays, moving = rays[entry_rays], moving[entry_rays]
    step = np.sign(rays)
    first = np.clip(np.floor(start + t_in[entry_rays, None] * rays), 0, top)
    last = np.clip(np.floor(start + t_out[entry_rays, None] * rays), 0, top)

    # cells as flat offsets into occupied: the entry cells, then per axis
    # one row per plane crossing; crossing m = 1..n enters cell
    # first + m * step through the plane on its near side, at the time t
    # where the other axes are read
    ray_of = [np.arange(len(rays))]
    cells = [first @ strides]
    for axis in range(3):
        n = np.maximum((last[:, axis] - first[:, axis]) * step[:, axis], 0).astype(np.int64)
        rows = np.repeat(ray_of[0], n)
        along = step[rows, axis]
        entered = first[rows, axis] + (np.arange(rows.size) - np.repeat(np.cumsum(n) - n - 1, n)) * along
        t = (entered + (along < 0) - start[axis]) / rays[rows, axis]
        upper = lower = entered * strides[axis]
        for other in (axis + 1) % 3, (axis + 2) % 3:
            p = start[other] + t * rays[rows, other]
            below = np.floor(p)
            on_plane = (p == below) & moving[rows, other]
            upper = upper + np.clip(below, 0, top[other]) * strides[other]
            lower = lower + np.clip(below - on_plane, 0, top[other]) * strides[other]
        edge = lower != upper
        ray_of += [rows, rows[edge]]
        cells += [upper, lower[edge]]

    ray_of = np.concatenate(ray_of)
    cells = np.concatenate(cells).astype(np.int64)
    hit = np.nonzero(occupied.ravel()[cells])[0]
    ray_of, cells = ray_of[hit], cells[hit]
    own = (grid.keys[target_rows[entry_rays]] - lo) @ strides
    blocked = np.zeros(len(target_rows), dtype=bool)
    blocked[entry_rays[ray_of[cells != own[ray_of]]]] = True
    return blocked


def visible_set(pose: CameraPose, intrinsics: CameraIntrinsics, grid) -> set:
    """Voxels the camera actually observes: in-frustum, facing the camera,
    not on the camera's own position, and with no other occupied cell on the
    segment from the camera to the voxel center."""
    centers = grid.centers
    mask = frustum_mask(pose, intrinsics, centers)
    to_voxel = centers - pose.position
    mask &= np.sum(to_voxel * grid.normals, axis=1) < 0.0
    candidates = np.nonzero(mask)[0]
    # a coincident center is never visible
    candidates = candidates[np.linalg.norm(to_voxel[candidates], axis=1) > 1e-12]
    if len(candidates) == 0:
        return set()
    candidates = candidates[~_cell_blocked(grid, pose.position, candidates)]
    return set(candidates.tolist())


def coverage_matrix(rig: CameraRig, grid) -> CoverageMatrix:
    """Row-stack of visible_set over the rig's cameras."""
    entries = np.zeros((len(rig), len(grid.centers)), dtype=np.int8)
    for i, pose in enumerate(rig.poses):
        entries[i, list(visible_set(pose, rig.intrinsics, grid))] = 1
    return CoverageMatrix(entries)


def replace_row(E: CoverageMatrix, i: int, vis) -> CoverageMatrix:
    """E with camera i's row replaced by the voxels of vis (a visible set or
    an array of voxel rows)."""
    entries = E.entries.copy()
    entries[i] = 0
    entries[i, list(vis)] = 1
    return CoverageMatrix(entries)
