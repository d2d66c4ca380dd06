"""Target scenes: ingestion, procedural planar shapes, voxelization, normals.

Geometry fixed by a scene or a grid is derived once, on first use, and cached
on the instance: the scene's containment predicate (camera sampling) and the
grid's occupied-cell box (the occlusion traversal).
"""

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from camopt import cloudio

PLANAR2D = "planar2d"
VOLUMETRIC3D = "volumetric3d"

DEFAULT_VOXEL_CAP = 2**20
DEFAULT_RESOLUTION_DIVISOR = 32.0
_MESH_SAMPLES = 4096


@dataclass(frozen=True, eq=False)
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

    @cached_property
    def containment(self):
        """The point-in-convex-hull predicate of `_containment_test`, or
        None for a degenerate cloud. Built once per scene."""
        return _containment_test(self)

    def default_resolution(self) -> float:
        """Bounding-box diagonal divided by 32; floor keeps flat scenes usable."""
        diag = self.diagonal
        if diag <= 0.0:
            return 1.0
        return diag / DEFAULT_RESOLUTION_DIVISOR


def _scene_from_arrays(points, normals, mode) -> TargetScene:
    bounds = np.stack([points.min(axis=0), points.max(axis=0)])
    return TargetScene(points=points, normals=normals, mode=mode, bounds=bounds)


def _containment_test(scene: TargetScene):
    """Point-in-convex-hull predicate over the scene's points (in-plane for
    planar scenes), or None when the cloud is too degenerate to enclose any
    volume: at most dims points, or affine rank below dims. A query outside
    the scene's bounds is outside; any other is decided by `_hull_contains`,
    so no hull is ever built."""
    dims = 2 if scene.mode == PLANAR2D else 3
    pts = np.ascontiguousarray(scene.points[:, :dims])
    if len(pts) <= dims or np.linalg.matrix_rank(pts[1:] - pts[0]) < dims:
        return None
    lo, hi = scene.bounds[:, :dims]
    centroid = pts.mean(axis=0)

    def inside(p):
        q = p[:dims]
        if np.any(q < lo) or np.any(q > hi):
            return False
        return _hull_contains(pts, centroid, q)

    return inside


_GJK_STEP_CAP = 64


def _hull_contains(pts: np.ndarray, start: np.ndarray, q: np.ndarray) -> bool:
    """Whether q lies in the convex hull of the rows of pts, by the
    nearest-point iteration of Gilbert, Johnson & Keerthi (1988, "GJK").

    Coordinates are taken relative to q. The iteration keeps a simplex of at
    most dims + 1 points of the hull, starting from `start` (any point of the
    hull), and v, the simplex's point nearest the origin. The support point
    w = argmin(pts @ v) either proves q outside (w . v > 0: every point lies
    beyond the plane through q normal to v) or joins the simplex, which then
    shrinks to its face nearest the origin. A full simplex around the origin,
    or v = 0, proves q inside. Each step brings v nearer the origin, so a
    query still open after _GJK_STEP_CAP steps lies all but on the hull's
    boundary, which counts as inside.
    """
    v = start - q
    simplex = v[None]
    for _ in range(_GJK_STEP_CAP):
        w = pts[np.argmin(pts @ v)] - q
        if w @ v > 0.0:
            return False
        simplex, v = _nearest_face(np.concatenate((simplex, w[None])))
        if v is None or not v @ v > 0.0:
            return True
    return True


def _nearest_face(simplex: np.ndarray):
    """GJK's simplex step: (face, nearest point) for the face of `simplex`
    (rows, newest last) nearest the origin among those holding the newest
    point, or (simplex, None) when the simplex is full and holds the origin.

    A face's nearest point is new + sum(mu_a (p_a - new)) with mu solving the
    normal equations of its edges from new; it counts only when every
    barycentric weight (each mu_a and 1 - sum(mu)) is positive.
    """
    new = simplex[-1]
    edges = simplex[:-1] - new
    k, dims = edges.shape
    if k == dims:
        try:
            mu = np.linalg.solve(edges.T, -new)
        except np.linalg.LinAlgError:       # a flat simplex: try its faces
            pass
        else:
            if mu.min() > 0.0 and mu.sum() < 1.0:
                return simplex, None
    g = (edges @ edges.T).tolist()
    r = (-(edges @ new)).tolist()
    nn = float(new @ new)
    best, best_mu, best_d2 = (), (), nn
    for size in range(1, dims):
        for face in itertools.combinations(range(k), size):
            if size == 1:
                (a,) = face
                if not g[a][a] > 0.0:
                    continue
                mu = (r[a] / g[a][a],)
            else:
                a, b = face
                det = g[a][a] * g[b][b] - g[a][b] * g[a][b]
                if not det > 0.0:
                    continue
                mu = ((r[a] * g[b][b] - r[b] * g[a][b]) / det,
                      (r[b] * g[a][a] - r[a] * g[a][b]) / det)
            if min(mu) > 0.0 and sum(mu) < 1.0:
                # at the solution |nearest|^2 = |new|^2 - mu . r
                d2 = nn - sum(m * r[i] for m, i in zip(mu, face))
                if d2 < best_d2:
                    best, best_mu, best_d2 = face, mu, d2
    if not best:
        return new[None], new
    rows = list(best)
    return np.concatenate((simplex[rows], new[None])), new + np.asarray(best_mu) @ edges[rows]


@dataclass(frozen=True, eq=False)
class VoxelGrid:
    """Sparse voxelization of a scene, anchored at the bounds minimum.

    origin is the lattice anchor: floor((x - origin) / resolution) maps a
    position to its integer cell key; keys[row] is the key of voxel row.
    """

    resolution: float
    centers: np.ndarray                 # (m, 3)
    normals: np.ndarray                 # (m, 3) unit vectors
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
        if self.kind != "composite":
            _check_size(self.kind, self.parameters)
        elif len(self.components) == 0:
            raise ValueError("composite shape needs at least one component")
        if self.sample_count < 3:
            raise ValueError("sample_count must be at least 3")
        for comp in self.components:
            if not isinstance(comp, dict):
                raise ValueError(f"component {comp!r} is not a dict")
            _check_size(comp.get("kind"), comp.get("parameters"))


# each basic kind's size parameter, and its perimeter per unit of that size
_SIZES = {"circle": ("radius", 2.0 * np.pi), "triangle": ("side", 3.0), "square": ("side", 4.0)}


def _check_size(kind, params):
    """A circle, triangle or square needs its size parameter, > 0."""
    if kind not in _SIZES:
        raise ValueError(f"unknown shape kind {kind!r}")
    key = _SIZES[kind][0]
    try:
        size = float(params[key])
    except (KeyError, TypeError, ValueError):
        size = math.nan
    if not size > 0.0:
        raise ValueError(f"a {kind} needs a strictly positive {key!r} parameter")


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
    key, per_size = _SIZES[kind]
    return per_size * float(params[key])


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


def estimate_normals(points: np.ndarray, mode: str = VOLUMETRIC3D,
                     rows: Optional[np.ndarray] = None) -> np.ndarray:
    """Plane-fit normals over the 16 nearest neighbors, oriented away from
    the centroid. Planar scenes use the in-plane 2D analogue. One stacked
    product gives every patch covariance (laid out as `np.cov` lays out one)
    and one batched `eigh` every smallest-variance direction.

    `rows` selects the points to estimate (all by default); neighbors and
    centroid still come from the whole cloud, so the result equals the
    selected rows of the full estimate."""
    # the one scipy user on the run path, and only for files without normals
    from scipy.spatial import cKDTree

    dims = 2 if mode == PLANAR2D else 3
    coords = points[:, :dims]
    at = coords if rows is None else coords[rows]
    n = len(at)
    k = min(16, len(coords))
    patches = coords[cKDTree(coords).query(at, k=k)[1].reshape(n, k)]
    dev = patches - patches.mean(axis=1, keepdims=True)
    cov = np.matmul(dev.transpose(0, 2, 1), dev) * (1.0 / max(k - 1, 1))
    normals = np.linalg.eigh(cov)[1][:, :, 0]  # smallest-variance direction
    off = at - coords.mean(axis=0)
    facing = np.matmul(normals[:, None, :], off[:, :, None])[:, 0, 0]
    normals = np.where((facing < 0.0)[:, None], -normals, normals)
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
            normals[bad] = estimate_normals(points, mode, rows=np.flatnonzero(bad))
            lens = np.linalg.norm(normals, axis=1)
        normals = normals / lens[:, None]
        if mode == PLANAR2D:
            normals[:, 2] = 0.0
            lens = np.linalg.norm(normals, axis=1)
            if np.any(lens < 1e-9):
                raise ValueError("planar scene has normals orthogonal to the plane")
            normals = normals / lens[:, None]
    return _scene_from_arrays(np.asarray(points, dtype=np.float64), normals, mode)


def voxelize(scene: TargetScene, resolution: Optional[float] = None) -> VoxelGrid:
    """Bin scene points into a grid anchored at the bounds minimum, counting
    the cells against DEFAULT_VOXEL_CAP in exact integers.

    Points are grouped by one flat cell key (`np.unique`): voxel rows follow
    each cell's first point. Voxel normal is the normalized mean of its
    points' normals (summed in point order); if they cancel, the normal of
    its point nearest the voxel center is used."""
    if resolution is None:
        resolution = scene.default_resolution()
    if not resolution > 0.0:
        raise ValueError("resolution must be positive")
    cell_cap = DEFAULT_VOXEL_CAP
    bmin = scene.bounds[0]
    extent = scene.bounds[1] - bmin
    # Python ints never wrap; an axis over the cap counts as cap + 1 (no ceil of inf)
    cells = [max(1, math.ceil(min(e / resolution - 1e-12, cell_cap + 1))) for e in extent.tolist()]
    if math.prod(cells) > cell_cap:
        raise ValueError(f"resolution {resolution} implies more than {cell_cap} cells, the cap")
    coord = np.floor((scene.points - bmin) / resolution).astype(np.int64)
    coord = np.minimum(coord, np.array(cells) - 1)  # points on the max face stay in range
    lo = coord.min(axis=0)  # -1 for a point within the bounds' tolerance below the minimum
    _, first, cell = np.unique(np.ravel_multi_index(tuple((coord - lo).T), coord.max(0) - lo + 1),
                               return_index=True, return_inverse=True)
    order = np.argsort(first)  # cells in the order of their first point
    row = np.argsort(order)[cell]
    keys = coord[first[order]]
    counts = np.bincount(row)
    # a zero-extent axis (planar scenes) keeps its coordinate on the plane
    half = np.where(extent > 1e-12, 0.5, 0.0)
    centers = bmin + (keys + half) * resolution
    mean = np.stack([np.bincount(row, weights=w, minlength=len(keys))
                     for w in scene.normals.T], axis=1) / counts[:, None]
    # a batched dot, as np.linalg.norm of one vector is sqrt(x @ x) to the bit
    length = np.sqrt(np.matmul(mean[:, None, :], mean[:, :, None])[:, 0, 0])
    cancel = length < 1e-9
    normals = mean / np.where(cancel, 1.0, length)[:, None]
    for r in np.flatnonzero(cancel):
        mem = np.flatnonzero(row == r)
        d = np.linalg.norm(scene.points[mem] - centers[r], axis=1)
        normals[r] = scene.normals[mem[np.argmin(d)]]
    return VoxelGrid(resolution=float(resolution), centers=centers,
                     normals=normals, keys=keys,
                     origin=bmin.copy())
