"""Target scenes: ingestion, procedural planar shapes, voxelization, normals.

Geometry fixed by a scene or a grid is derived once, on first use, and cached
on the instance: a scene's convex-hull facets (the camera containment test)
and a grid's occupied-cell box (the occlusion traversal).
"""

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np
from scipy.spatial import ConvexHull, QhullError, cKDTree

from camopt import cloudio

PLANAR2D = "planar2d"
VOLUMETRIC3D = "volumetric3d"

DEFAULT_VOXEL_CAP = 2**20
DEFAULT_RESOLUTION_DIVISOR = 32.0
_MESH_SAMPLES = 4096


@dataclass(frozen=True)
class TargetScene:
    """A point-sampled target surface with unit normals and an AABB."""

    points: np.ndarray          # (n, 3) meters
    normals: np.ndarray         # (n, 3) unit vectors
    mode: str                   # PLANAR2D or VOLUMETRIC3D
    bounds: np.ndarray          # (2, 3): [min corner, max corner]

    def __post_init__(self):
        points = np.ascontiguousarray(np.asarray(self.points, dtype=np.float64))
        normals = np.ascontiguousarray(np.asarray(self.normals, dtype=np.float64))
        if points.ndim != 2 or points.shape[1] != 3 or len(points) < 1:
            raise ValueError("points must be a non-empty (n, 3) array")
        if normals.shape != points.shape:
            raise ValueError("normals must match points in shape")
        norms = np.linalg.norm(normals, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-6):
            raise ValueError("normals must be unit length within 1e-6")
        if self.mode not in (PLANAR2D, VOLUMETRIC3D):
            raise ValueError(f"unknown scene mode {self.mode!r}")
        if self.mode == PLANAR2D:
            if np.ptp(points[:, 2]) > 1e-9:
                raise ValueError("planar scenes need a constant third coordinate")
            if np.any(np.abs(normals[:, 2]) > 1e-6):
                raise ValueError("planar scene normals must lie in-plane")
        bounds = np.asarray(self.bounds, dtype=np.float64)
        if bounds.shape != (2, 3):
            raise ValueError("bounds must be a (2, 3) min/max pair")
        if np.any(points < bounds[0] - 1e-12) or np.any(points > bounds[1] + 1e-12):
            raise ValueError("bounds must contain every point")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "normals", normals)
        object.__setattr__(self, "bounds", bounds)

    @property
    def diagonal(self) -> float:
        return float(np.linalg.norm(self.bounds[1] - self.bounds[0]))

    def default_resolution(self) -> float:
        """Bounding-box diagonal divided by 32; floor keeps flat scenes usable."""
        diag = self.diagonal
        if diag <= 0.0:
            return 1.0
        return diag / DEFAULT_RESOLUTION_DIVISOR

    @cached_property
    def hull_facets(self) -> Optional[np.ndarray]:
        """Outward facet equations (unit normal, offset) of the points' convex
        hull, in-plane for planar scenes; None when the cloud is too
        degenerate to enclose any volume. Built once per scene."""
        pts = self.points[:, :2] if self.mode == PLANAR2D else self.points
        if len(pts) <= pts.shape[1]:
            return None
        try:
            return ConvexHull(pts).equations
        except QhullError:
            return None


def _scene_from_arrays(points, normals, mode) -> TargetScene:
    bounds = np.stack([points.min(axis=0), points.max(axis=0)])
    return TargetScene(points=points, normals=normals, mode=mode, bounds=bounds)


@dataclass(frozen=True)
class VoxelGrid:
    """Sparse voxelization of a scene, anchored at the bounds minimum.

    origin is the lattice anchor: floor((x - origin) / resolution) maps a
    position to its integer cell key; keys[row] is the key of voxel row.
    """

    resolution: float
    centers: np.ndarray                 # (m, 3)
    normals: np.ndarray                 # (m, 3) unit vectors
    members: tuple                      # m tuples of point index arrays
    keys: np.ndarray                    # (m, 3) int64 cell keys
    origin: np.ndarray                  # (3,)

    def __len__(self):
        return len(self.centers)

    @cached_property
    def occupancy(self) -> tuple:
        """(lo, shape, occupied): the keys' bounding box, its lower corner and
        extent in cells, and a read-only boolean array over it marking the
        occupied cells. Built once per grid."""
        lo = self.keys.min(axis=0)
        shape = self.keys.max(axis=0) - lo + 1
        occupied = np.zeros(shape, dtype=bool)
        occupied[tuple((self.keys - lo).T)] = True
        for array in (lo, shape, occupied):
            array.flags.writeable = False
        return lo, shape, occupied


@dataclass(frozen=True)
class ShapeSpec:
    """Procedural planar shape description. Dimension parameters are meters."""

    kind: str
    parameters: dict
    sample_count: int
    seed: int = 0
    components: tuple = field(default_factory=tuple)  # for kind == "composite"

    def __post_init__(self):
        kinds = ("circle", "triangle", "square", "composite")
        if self.kind not in kinds:
            raise ValueError(f"unknown shape kind {self.kind!r}")
        if self.sample_count < 3:
            raise ValueError("sample_count must be at least 3")
        for key in ("radius", "side"):
            if key in self.parameters and not self.parameters[key] > 0.0:
                raise ValueError(f"{key} must be strictly positive")
        if self.kind == "composite" and len(self.components) == 0:
            raise ValueError("composite shape needs at least one component")


def _circle_geometry(params):
    c = np.asarray(params.get("center", (0.0, 0.0)), dtype=np.float64)
    r = float(params["radius"])
    return c, r


def _square_corners(params):
    c = np.asarray(params.get("center", (0.0, 0.0)), dtype=np.float64)
    h = float(params["side"]) / 2.0
    return c + np.array([[-h, -h], [h, -h], [h, h], [-h, h]])


def _triangle_corners(params):
    c = np.asarray(params.get("center", (0.0, 0.0)), dtype=np.float64)
    s = float(params["side"])
    circum = s / np.sqrt(3.0)
    angles = np.deg2rad([90.0, 210.0, 330.0])
    return c + circum * np.stack([np.cos(angles), np.sin(angles)], axis=1)


def _sample_polygon(corners, count, phase):
    """Evenly spaced perimeter samples (offset by phase) with outward normals."""
    closed = np.vstack([corners, corners[:1]])
    seg = closed[1:] - closed[:-1]
    seg_len = np.linalg.norm(seg, axis=1)
    cum = np.concatenate([[0.0], np.cumsum(seg_len)])
    perimeter = cum[-1]
    t = (np.arange(count) + phase) / count * perimeter
    idx = np.clip(np.searchsorted(cum, t, side="right") - 1, 0, len(seg) - 1)
    local = (t - cum[idx]) / seg_len[idx]
    pts = closed[idx] + local[:, None] * seg[idx]
    tangent = seg[idx] / seg_len[idx][:, None]
    # counterclockwise winding puts the outward normal at (ty, -tx)
    nrm = np.stack([tangent[:, 1], -tangent[:, 0]], axis=1)
    return pts, nrm


def _sample_circle(params, count, phase):
    c, r = _circle_geometry(params)
    ang = 2.0 * np.pi * (np.arange(count) + phase) / count
    nrm = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    return c + r * nrm, nrm


def _perimeter(kind, params):
    if kind == "circle":
        return 2.0 * np.pi * float(params["radius"])
    if kind == "square":
        return 4.0 * float(params["side"])
    if kind == "triangle":
        return 3.0 * float(params["side"])
    raise ValueError(f"no perimeter for kind {kind!r}")


def _signed_inside(kind, params, pts):
    """True where pts lie strictly inside the shape (1e-9 margin)."""
    eps = 1e-9
    if kind == "circle":
        c, r = _circle_geometry(params)
        return np.linalg.norm(pts - c, axis=1) < r - eps
    if kind == "square":
        c = np.asarray(params.get("center", (0.0, 0.0)), dtype=np.float64)
        h = float(params["side"]) / 2.0
        return np.max(np.abs(pts - c), axis=1) < h - eps
    if kind == "triangle":
        corners = _triangle_corners(params)
        inside = np.ones(len(pts), dtype=bool)
        for a in range(3):
            p0, p1 = corners[a], corners[(a + 1) % 3]
            edge = p1 - p0
            # cross product sign: positive = left of edge = interior side (ccw)
            cr = edge[0] * (pts[:, 1] - p0[1]) - edge[1] * (pts[:, 0] - p0[0])
            inside &= cr > eps
        return inside
    raise ValueError(f"no containment test for kind {kind!r}")


def _sample_component(kind, params, count, phase):
    if kind == "circle":
        return _sample_circle(params, count, phase)
    if kind == "square":
        return _sample_polygon(_square_corners(params), count, phase)
    if kind == "triangle":
        return _sample_polygon(_triangle_corners(params), count, phase)
    raise ValueError(f"cannot sample kind {kind!r}")


def generate_planar_shape(spec: ShapeSpec) -> TargetScene:
    """Sample a planar shape boundary into a z=0 scene with outward normals.

    Composite shapes drop boundary samples that fall strictly inside another
    component, leaving the outline of the union; the returned point count can
    therefore be below sample_count.
    """
    rng = np.random.default_rng(spec.seed)

    if spec.kind == "composite":
        comps = [(c["kind"], c["parameters"]) for c in spec.components]
        peri = np.array([_perimeter(k, p) for k, p in comps])
        counts = np.maximum(1, np.rint(peri / peri.sum() * spec.sample_count).astype(int))
        parts = []
        for ci, (kind, params) in enumerate(comps):
            pts, nrm = _sample_component(kind, params, counts[ci], rng.random())
            keep = np.ones(len(pts), dtype=bool)
            for cj, (okind, oparams) in enumerate(comps):
                if cj != ci:
                    keep &= ~_signed_inside(okind, oparams, pts)
            parts.append((pts[keep], nrm[keep]))
        pts2 = np.vstack([p for p, _ in parts])
        nrm2 = np.vstack([n for _, n in parts])
        if len(pts2) == 0:
            raise ValueError("composite components swallowed every boundary sample")
    else:
        pts2, nrm2 = _sample_component(spec.kind, spec.parameters, spec.sample_count, rng.random())

    points = np.concatenate([pts2, np.zeros((len(pts2), 1))], axis=1)
    normals = np.concatenate([nrm2, np.zeros((len(nrm2), 1))], axis=1)
    return _scene_from_arrays(points, normals, PLANAR2D)


def estimate_normals(points: np.ndarray, mode: str = VOLUMETRIC3D) -> np.ndarray:
    """Plane-fit normals over the 16 nearest neighbors, oriented away from
    the centroid. Planar scenes use the in-plane 2D analogue."""
    n = len(points)
    dims = 2 if mode == PLANAR2D else 3
    coords = points[:, :dims]
    k = min(16, n)
    tree = cKDTree(coords)
    _, nbr = tree.query(coords, k=k)
    if k == 1:
        nbr = nbr[:, None]
    centroid = coords.mean(axis=0)
    normals = np.zeros((n, dims))
    for i in range(n):
        patch = coords[nbr[i]]
        cov = np.cov(patch.T) if len(patch) > 1 else np.eye(dims)
        _, vecs = np.linalg.eigh(np.atleast_2d(cov))
        normal = vecs[:, 0]  # smallest-variance direction
        off = coords[i] - centroid
        if np.dot(normal, off) < 0.0:
            normal = -normal
        normals[i] = normal
    if dims == 2:
        normals = np.concatenate([normals, np.zeros((n, 1))], axis=1)
    lens = np.linalg.norm(normals, axis=1, keepdims=True)
    lens[lens == 0.0] = 1.0
    return normals / lens


def load_scene(path, mode: str = VOLUMETRIC3D) -> TargetScene:
    """Load a PLY/OBJ point cloud or mesh as a TargetScene.

    Meshes (files with faces) are surface-sampled to _MESH_SAMPLES points.
    Missing or degenerate normals are estimated.
    """
    points, normals, faces = cloudio.read_point_file(path)
    if faces:
        points, normals = cloudio.sample_faces(points, faces, _MESH_SAMPLES)
    if len(points) == 0:
        raise ValueError("scene file has no points")
    if np.ptp(points, axis=0).max() < 1e-12:
        raise ValueError("degenerate geometry: all points coincident")
    if normals is None:
        normals = estimate_normals(points, mode)
    else:
        normals = np.asarray(normals, dtype=np.float64).copy()
        lens = np.linalg.norm(normals, axis=1)
        bad = lens < 1e-9
        if np.any(bad):
            normals[bad] = estimate_normals(points, mode)[bad]
            lens = np.linalg.norm(normals, axis=1)
        normals = normals / lens[:, None]
        if mode == PLANAR2D:
            normals[:, 2] = 0.0
            lens = np.linalg.norm(normals, axis=1)
            if np.any(lens < 1e-9):
                raise ValueError("planar scene has normals orthogonal to the plane")
            normals = normals / lens[:, None]
    return _scene_from_arrays(np.asarray(points, dtype=np.float64), normals, mode)


def voxelize(scene: TargetScene, resolution: Optional[float] = None,
             cell_cap: int = DEFAULT_VOXEL_CAP) -> VoxelGrid:
    """Bin scene points into a grid anchored at the bounds minimum.

    Voxel normal is the normalized mean of member normals; if members cancel,
    the normal of the member nearest the voxel center is used instead.
    """
    if resolution is None:
        resolution = scene.default_resolution()
    if not resolution > 0.0:
        raise ValueError("resolution must be positive")
    bmin = scene.bounds[0]
    extent = scene.bounds[1] - bmin
    cells = np.maximum(1, np.ceil(extent / resolution - 1e-12).astype(np.int64))
    if int(np.prod(cells)) > cell_cap:
        raise ValueError(
            f"resolution {resolution} implies {int(np.prod(cells))} cells, over the cap {cell_cap}")
    coord = np.floor((scene.points - bmin) / resolution).astype(np.int64)
    coord = np.minimum(coord, cells - 1)  # points on the max face stay in range

    index: dict = {}
    member_lists = []
    for pi, key in enumerate(map(tuple, coord)):
        row = index.get(key)
        if row is None:
            index[key] = len(member_lists)
            member_lists.append([pi])
        else:
            member_lists[row].append(pi)

    # rows are numbered in insertion order, so the keys come out in row order
    keys = np.array(list(index), dtype=np.int64)
    # a zero-extent axis (planar scenes) keeps its coordinate on the plane
    half = np.where(extent > 1e-12, 0.5, 0.0)
    centers = bmin + (keys + half) * resolution
    normals = np.empty((len(keys), 3))
    for row, mem in enumerate(member_lists):
        mean = scene.normals[mem].mean(axis=0)
        length = np.linalg.norm(mean)
        if length < 1e-9:
            d = np.linalg.norm(scene.points[mem] - centers[row], axis=1)
            normals[row] = scene.normals[mem[int(np.argmin(d))]]
        else:
            normals[row] = mean / length
    members = tuple(np.asarray(m_, dtype=np.intp) for m_ in member_lists)
    return VoxelGrid(resolution=float(resolution), centers=centers,
                     normals=normals, members=members, keys=keys,
                     origin=bmin.copy())
