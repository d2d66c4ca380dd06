"""Per-camera voxel visibility: frustum, range, backface, and occlusion.

Hidden-point removal returns a boolean row mask over its points (one convex
hull, its vertices marked straight from the hull's simplices), and the
occupied-cell march reads the occupancy box its grid derives once.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.spatial import ConvexHull

DEFAULT_HPR_GAMMA = 100.0
_SLAB_EPS = 1e-6   # cells of slack on the bounding box in the cell march
_SLAB_PAD = 2      # samples of slack on each end of a ray's slab interval


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
    """Binary camera-by-voxel visibility with cached per-voxel counts."""

    entries: np.ndarray          # (k, m) of {0, 1}
    per_voxel_count: np.ndarray  # (m,)

    def __post_init__(self):
        entries = np.asarray(self.entries)
        if entries.ndim != 2 or not ((entries == 0) | (entries == 1)).all():
            raise ValueError("entries must be a binary matrix")
        counts = entries.sum(axis=0)
        if not np.array_equal(counts, np.asarray(self.per_voxel_count)):
            raise ValueError("per_voxel_count disagrees with entry column sums")
        object.__setattr__(self, "entries", entries.astype(np.int8))
        object.__setattr__(self, "per_voxel_count", counts.astype(np.int64))


def _subspace_hull_visible(cloud: np.ndarray) -> np.ndarray:
    """Mask over the rows of cloud but its last (the viewpoint's origin) that
    marks the hull vertices, dropping to the principal subspace when the set
    is rank-deficient."""
    centered = cloud - cloud.mean(axis=0)
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    rank = int(np.sum(svals > max(svals[0], 1.0) * 1e-9)) if svals.size else 0
    on_hull = np.zeros(len(cloud), dtype=bool)
    if rank <= 1:
        # a line: hull is the pair of extreme coordinates
        axis = vt[0] if svals.size else np.array([1.0, 0.0, 0.0])
        t = centered @ axis
        on_hull[[np.argmin(t), np.argmax(t)]] = True
    else:
        # every hull vertex is a corner of some facet simplex
        on_hull[ConvexHull(centered @ vt[:rank].T).simplices] = True
    return on_hull[:-1]


def hidden_point_removal(viewpoint, points) -> np.ndarray:
    """Katz-style visibility: spherical flip about the viewpoint, then the
    convex hull of the flipped set plus the viewpoint; hull membership marks
    a point visible. Returns a boolean mask over the rows of points."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValueError("points must be a non-empty (n, d) array")
    centered = pts - np.asarray(viewpoint, dtype=np.float64)
    dist = np.linalg.norm(centered, axis=1)
    if np.all(dist < 1e-12):
        raise ValueError("all points coincide with the viewpoint")
    if np.any(dist < 1e-12):
        raise ValueError("a point coincides with the viewpoint")
    radius = DEFAULT_HPR_GAMMA * dist.max()
    flipped = centered * ((2.0 * radius - dist) / dist)[:, None]
    cloud = np.vstack([flipped, np.zeros((1, pts.shape[1]))])
    return _subspace_hull_visible(cloud)


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
    """Occupied-cell ray march: True where the segment eye->center crosses
    another voxel's cell. Catches solid-voxel occlusion that point-based HPR
    leaks on sparse center sets; sampling at quarter-resolution strides only
    ever skips corner clips, so it never over-blocks relative to exact
    traversal.

    Every ray shares one sample grid t = (s + 0.5) / n over the segment, but
    only the samples inside the ray's slab interval through the occupied
    cells' bounding box are evaluated: no other sample can land in a cell.
    The interval is padded by _SLAB_EPS cells and _SLAB_PAD samples, so the
    result equals marching the whole segment.
    """
    res = grid.resolution
    keys = grid.keys
    lo, shape, occupied = grid.occupancy

    targets = grid.centers[target_rows]
    rays = targets - eye
    longest = float(np.linalg.norm(rays, axis=1).max())
    n_steps = max(2, int(np.ceil(longest / (res / 4.0))))
    t = (np.arange(n_steps) + 0.5) / n_steps

    # slab test in cell units against the box [lo, lo + shape). Along a zero
    # direction component every sample keeps the eye's coordinate; there the
    # division gives +-inf (nan for an eye exactly on a padded face), which
    # fmin/fmax turn into "spans the slab" or "misses it", as it should
    start = (eye - grid.origin) / res
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t_lo = (lo - _SLAB_EPS - start) / (rays / res)
        t_hi = (lo + shape + _SLAB_EPS - start) / (rays / res)
    enter = np.fmin(t_lo, t_hi).max(axis=1)
    leave = np.fmax(t_lo, t_hi).min(axis=1)
    # sample s lies in [enter, leave] when s + 0.5 lies in n * [enter, leave];
    # the clip keeps infinite bounds finite
    enter = np.clip(enter, -1.0, 2.0) * n_steps - 0.5
    leave = np.clip(leave, -1.0, 2.0) * n_steps - 0.5
    first = np.maximum(np.ceil(enter).astype(np.int64) - _SLAB_PAD, 0)
    stop = np.minimum(np.floor(leave).astype(np.int64) + 1 + _SLAB_PAD, n_steps)
    counts = np.maximum(stop - first, 0)

    # the evaluated samples, ray by ray: s runs over [first, stop) of its ray
    ray_of = np.repeat(np.arange(len(rays)), counts)
    s = np.arange(ray_of.size) - np.repeat(np.cumsum(counts) - counts - first, counts)
    samples = eye + rays[ray_of] * t[s][:, None]                         # (samples, 3)
    rel = np.floor((samples - grid.origin) / res).astype(np.int64) - lo
    inside = np.all((rel >= 0) & (rel < shape), axis=-1)
    hit = np.zeros(len(rel), dtype=bool)
    ri = rel[inside]
    hit[inside] = occupied[ri[:, 0], ri[:, 1], ri[:, 2]]
    hit &= np.any(rel != keys[target_rows][ray_of] - lo, axis=-1)
    blocked = np.zeros(len(rays), dtype=bool)
    blocked[ray_of[hit]] = True
    return blocked


def visible_set(pose: CameraPose, intrinsics: CameraIntrinsics, grid) -> set:
    """Voxels the camera actually observes: in-frustum, facing the camera,
    and unoccluded per hidden-point removal over every voxel center."""
    centers = grid.centers
    mask = frustum_mask(pose, intrinsics, centers)
    to_voxel = centers - pose.position
    mask &= np.sum(to_voxel * grid.normals, axis=1) < 0.0
    if not mask.any():
        return set()
    dist = np.linalg.norm(to_voxel, axis=1)
    hpr_input = np.nonzero(dist > 1e-12)[0]  # a coincident center is never visible
    hpr_ok = np.zeros(len(centers), dtype=bool)
    hpr_ok[hpr_input] = hidden_point_removal(pose.position, centers[hpr_input])
    candidates = np.nonzero(mask & hpr_ok)[0]
    if len(candidates) == 0:
        return set()
    candidates = candidates[~_cell_blocked(grid, pose.position, candidates)]
    return set(candidates.tolist())


def coverage_from_sets(visible_sets, m: int) -> CoverageMatrix:
    """Coverage matrix over m voxels whose row i marks the voxels of
    visible_sets[i]."""
    entries = np.zeros((len(visible_sets), m), dtype=np.int8)
    for i, vis in enumerate(visible_sets):
        entries[i, list(vis)] = 1
    return CoverageMatrix(entries=entries, per_voxel_count=entries.sum(axis=0))


def coverage_matrix(rig: CameraRig, grid) -> CoverageMatrix:
    """Row-stack of visible_set over the rig's cameras."""
    return coverage_from_sets([visible_set(pose, rig.intrinsics, grid) for pose in rig.poses],
                              len(grid.centers))
