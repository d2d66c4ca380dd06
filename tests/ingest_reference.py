"""Per-point reference implementations of point-cloud ingestion.

These are the row-at-a-time versions of `cloudio.read_ply` and its header
parser, `cloudio.write_ply_rgb`, `scene.voxelize` and
`scene.estimate_normals`: a dict per PLY row, one `struct` call per binary
scalar, a dict and a per-voxel loop to group points, and an `np.cov` plus
`eigh` call per point.
The library computes the same outputs with whole-array numpy; the tests
assert exact equality against these.
"""

import struct

import numpy as np
from scipy.spatial import cKDTree

from camopt.scene import PLANAR2D, VOLUMETRIC3D, VoxelGrid

_PLY_SCALARS = {
    "char": ("b", 1), "int8": ("b", 1),
    "uchar": ("B", 1), "uint8": ("B", 1),
    "short": ("h", 2), "int16": ("h", 2),
    "ushort": ("H", 2), "uint16": ("H", 2),
    "int": ("i", 4), "int32": ("i", 4),
    "uint": ("I", 4), "uint32": ("I", 4),
    "float": ("f", 4), "float32": ("f", 4),
    "double": ("d", 8), "float64": ("d", 8),
}


def _parse_ply_header(fh):
    if fh.readline().strip() != b"ply":
        raise ValueError("not a PLY file")
    fmt = None
    elements = []  # (name, count, [(prop_name, scalar) or (prop_name, "list", count_t, item_t)])
    while True:
        line = fh.readline()
        if not line:
            raise ValueError("unterminated PLY header")
        tokens = line.decode("ascii", "replace").split()
        if not tokens or tokens[0] == "comment":
            continue
        if tokens[0] == "format":
            fmt = tokens[1]
        elif tokens[0] == "element":
            elements.append((tokens[1], int(tokens[2]), []))
        elif tokens[0] == "property":
            if tokens[1] == "list":
                elements[-1][2].append((tokens[4], "list", tokens[2], tokens[3]))
            else:
                elements[-1][2].append((tokens[2], tokens[1]))
        elif tokens[0] == "end_header":
            break
    if fmt not in ("ascii", "binary_little_endian"):
        raise ValueError(f"unsupported PLY format {fmt!r}")
    return fmt, elements


def _read_ply_ascii(fh, elements):
    data = {}
    for name, count, props in elements:
        rows = []
        for _ in range(count):
            tokens = fh.readline().split()
            row = {}
            pos = 0
            for prop in props:
                if prop[1] == "list":
                    n = int(tokens[pos]); pos += 1
                    row[prop[0]] = [float(t) for t in tokens[pos:pos + n]]
                    pos += n
                else:
                    row[prop[0]] = float(tokens[pos]); pos += 1
            rows.append(row)
        data[name] = rows
    return data


def _read_ply_binary(fh, elements):
    data = {}
    for name, count, props in elements:
        rows = []
        for _ in range(count):
            row = {}
            for prop in props:
                if prop[1] == "list":
                    cfmt, csize = _PLY_SCALARS[prop[2]]
                    ifmt, isize = _PLY_SCALARS[prop[3]]
                    (n,) = struct.unpack("<" + cfmt, fh.read(csize))
                    vals = struct.unpack("<" + ifmt * n, fh.read(isize * n))
                    row[prop[0]] = list(vals)
                else:
                    sfmt, ssize = _PLY_SCALARS[prop[1]]
                    (row[prop[0]],) = struct.unpack("<" + sfmt, fh.read(ssize))
            rows.append(row)
        data[name] = rows
    return data


def read_ply(path):
    """Read a PLY file; returns (points, normals or None, faces or None)."""
    with open(path, "rb") as fh:
        fmt, elements = _parse_ply_header(fh)
        data = _read_ply_ascii(fh, elements) if fmt == "ascii" else _read_ply_binary(fh, elements)
    verts = data.get("vertex", [])
    if not verts:
        raise ValueError("PLY file has no vertices")
    points = np.array([[v["x"], v["y"], v["z"]] for v in verts], dtype=np.float64)
    normals = None
    if all(k in verts[0] for k in ("nx", "ny", "nz")):
        normals = np.array([[v["nx"], v["ny"], v["nz"]] for v in verts], dtype=np.float64)
    faces = None
    face_rows = data.get("face")
    if face_rows:
        props = next(props for name, _, props in elements if name == "face")
        lists = [prop[0] for prop in props if prop[1] == "list"]
        key = next((n for n in ("vertex_indices", "vertex_index") if n in lists), lists[0])
        faces = []
        for row in face_rows:
            idx = [int(i) for i in row[key]]
            for a in range(1, len(idx) - 1):
                faces.append((idx[0], idx[a], idx[a + 1]))
    return points, normals, faces


def write_ply_rgb(path, points, colors, normals=None):
    """Write an ASCII PLY with per-vertex uchar RGB (and normals if given)."""
    points = np.asarray(points, dtype=np.float64)
    colors = np.asarray(colors)
    if colors.shape != points.shape:
        raise ValueError("colors must be (n, 3) matching points")
    colors = np.clip(np.rint(colors), 0, 255).astype(np.uint8)
    with open(path, "w") as fh:
        fh.write("ply\nformat ascii 1.0\n")
        fh.write(f"element vertex {len(points)}\n")
        fh.write("property double x\nproperty double y\nproperty double z\n")
        if normals is not None:
            fh.write("property double nx\nproperty double ny\nproperty double nz\n")
        fh.write("property uchar red\nproperty uchar green\nproperty uchar blue\n")
        fh.write("end_header\n")
        for i, p in enumerate(points):
            row = f"{p[0]:.17g} {p[1]:.17g} {p[2]:.17g}"
            if normals is not None:
                q = normals[i]
                row += f" {q[0]:.17g} {q[1]:.17g} {q[2]:.17g}"
            c = colors[i]
            fh.write(row + f" {c[0]} {c[1]} {c[2]}\n")


def estimate_normals(points, mode=VOLUMETRIC3D):
    """Plane-fit normals over the 16 nearest neighbors, one point at a time."""
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
        normal = vecs[:, 0]
        off = coords[i] - centroid
        if np.dot(normal, off) < 0.0:
            normal = -normal
        normals[i] = normal
    if dims == 2:
        normals = np.concatenate([normals, np.zeros((n, 1))], axis=1)
    lens = np.linalg.norm(normals, axis=1, keepdims=True)
    lens[lens == 0.0] = 1.0
    return normals / lens


def voxel_members(scene, resolution):
    """The points of each voxel, grouped with a dict keyed by cell: the
    cell keys in the order of their first point, and each voxel's point
    indices in point order."""
    bmin = scene.bounds[0]
    extent = scene.bounds[1] - bmin
    cells = np.maximum(1, np.ceil(extent / resolution - 1e-12).astype(np.int64))
    coord = np.floor((scene.points - bmin) / resolution).astype(np.int64)
    coord = np.minimum(coord, cells - 1)

    index = {}
    member_lists = []
    for pi, key in enumerate(map(tuple, coord)):
        row = index.get(key)
        if row is None:
            index[key] = len(member_lists)
            member_lists.append([pi])
        else:
            member_lists[row].append(pi)
    keys = np.array(list(index), dtype=np.int64)
    return keys, tuple(np.asarray(m_, dtype=np.intp) for m_ in member_lists)


def voxelize(scene, resolution):
    """Bin scene points with voxel_members and a per-voxel loop."""
    bmin = scene.bounds[0]
    extent = scene.bounds[1] - bmin
    keys, members = voxel_members(scene, resolution)
    half = np.where(extent > 1e-12, 0.5, 0.0)
    centers = bmin + (keys + half) * resolution
    normals = np.empty((len(keys), 3))
    for row, mem in enumerate(members):
        mean = scene.normals[mem].mean(axis=0)
        length = np.linalg.norm(mean)
        if length < 1e-9:
            d = np.linalg.norm(scene.points[mem] - centers[row], axis=1)
            normals[row] = scene.normals[mem[int(np.argmin(d))]]
        else:
            normals[row] = mean / length
    return VoxelGrid(resolution=float(resolution), centers=centers,
                     normals=normals, keys=keys, origin=bmin.copy())
