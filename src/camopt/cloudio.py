"""Point cloud file IO: PLY and OBJ reading, colored PLY writing.

Only the pieces the toolkit needs: vertex positions, optional per-vertex
normals, and (for meshes) triangle faces so surfaces can be sampled into
point sets. Anything else in a file is skipped.
"""

import struct

import numpy as np

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


def _face_index_property(props) -> str:
    """The face property holding vertex indices: the list property named
    vertex_indices or vertex_index, else the first list property."""
    lists = [prop[0] for prop in props if prop[1] == "list"]
    if not lists:
        raise ValueError("PLY face element has no list property")
    return next((name for name in ("vertex_indices", "vertex_index") if name in lists), lists[0])


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
        key = _face_index_property(next(props for name, _, props in elements if name == "face"))
        faces = []
        for row in face_rows:
            idx = [int(i) for i in row[key]]
            for a in range(1, len(idx) - 1):  # fan-triangulate polygons
                faces.append((idx[0], idx[a], idx[a + 1]))
    return points, normals, faces


def read_obj(path):
    """Read an OBJ file; returns (points, normals or None, faces or None)."""
    points, normals, faces = [], [], []
    with open(path, "r") as fh:
        for line in fh:
            tokens = line.split()
            if not tokens:
                continue
            if tokens[0] == "v":
                points.append([float(t) for t in tokens[1:4]])
            elif tokens[0] == "vn":
                normals.append([float(t) for t in tokens[1:4]])
            elif tokens[0] == "f":
                idx = [int(t.split("/")[0]) for t in tokens[1:]]
                idx = [i - 1 if i > 0 else len(points) + i for i in idx]
                for a in range(1, len(idx) - 1):
                    faces.append((idx[0], idx[a], idx[a + 1]))
    if not points:
        raise ValueError("OBJ file has no vertices")
    pts = np.asarray(points, dtype=np.float64)
    nrm = np.asarray(normals, dtype=np.float64) if len(normals) == len(points) else None
    return pts, nrm, faces or None


def sample_faces(points, faces, count, seed=0):
    """Area-weighted triangle sampling; returns (points, face normals)."""
    tri = points[np.asarray(faces, dtype=np.intp)]  # (f, 3, 3)
    e1 = tri[:, 1] - tri[:, 0]
    e2 = tri[:, 2] - tri[:, 0]
    cr = np.cross(e1, e2)
    area = 0.5 * np.linalg.norm(cr, axis=1)
    total = float(area.sum())
    if total <= 0.0:
        raise ValueError("mesh has zero surface area")
    rng = np.random.default_rng(seed)
    pick = rng.choice(len(area), size=count, p=area / total)
    u = rng.random(count)
    v = rng.random(count)
    flip = u + v > 1.0
    u[flip] = 1.0 - u[flip]
    v[flip] = 1.0 - v[flip]
    sampled = tri[pick, 0] + u[:, None] * e1[pick] + v[:, None] * e2[pick]
    norms = np.linalg.norm(cr[pick], axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return sampled, cr[pick] / norms


def read_point_file(path):
    """Dispatch on extension; returns (points, normals or None, faces or None)."""
    lower = str(path).lower()
    if lower.endswith(".ply"):
        return read_ply(path)
    if lower.endswith(".obj"):
        return read_obj(path)
    raise ValueError(f"unsupported point file format: {path}")


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
            row = f"{p[0]:.9g} {p[1]:.9g} {p[2]:.9g}"
            if normals is not None:
                q = normals[i]
                row += f" {q[0]:.9g} {q[1]:.9g} {q[2]:.9g}"
            c = colors[i]
            fh.write(row + f" {c[0]} {c[1]} {c[2]}\n")
