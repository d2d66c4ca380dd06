"""Point cloud file IO: PLY and OBJ reading, colored PLY writing.

Only vertex positions, optional per-vertex normals and (for meshes)
triangle faces are kept; anything else in a file is skipped. A PLY element
of scalar properties (the vertices) is read into named columns in one call:
an ASCII block through `np.loadtxt`, a binary little-endian one through
`np.frombuffer` with a record dtype built from the header. Only an element
with list properties (the faces) is read row by row. Malformed data raises
a ValueError that names the element or property.
"""

import numpy as np

_PLY_TYPES = {  # PLY scalar types and their numpy codes, read little-endian
    "char": "i1", "uchar": "u1", "short": "i2", "ushort": "u2",
    "int": "i4", "uint": "u4", "float": "f4", "double": "f8",
    "int8": "i1", "uint8": "u1", "int16": "i2", "uint16": "u2",
    "int32": "i4", "uint32": "u4", "float32": "f4", "float64": "f8",
}


def _parse_ply_header(fh):
    if fh.readline().strip() != b"ply":
        raise ValueError("not a PLY file")
    # elements: (name, count, [(prop, type) or (prop, "list", count type, item type)])
    fmt, elements = None, []
    for line in iter(fh.readline, b""):
        tokens = line.decode("ascii", "replace").split() or [""]
        if tokens[0] == "format":
            fmt = tokens[1]
        elif tokens[0] == "element":
            elements.append((tokens[1], int(tokens[2]), []))
        elif tokens[0] == "property":
            prop = (tokens[4], *tokens[1:4]) if tokens[1] == "list" else (tokens[2], tokens[1])
            elements[-1][2].append(prop)
        elif tokens[0] == "end_header":
            if fmt not in ("ascii", "binary_little_endian"):
                raise ValueError(f"unsupported PLY format {fmt!r}")
            return fmt, elements
    raise ValueError("unterminated PLY header")


def _dtype(type_name):
    if type_name not in _PLY_TYPES:
        raise ValueError(f"unknown PLY type {type_name!r}")
    return np.dtype("<" + _PLY_TYPES[type_name])


def _read_table(body, pos, fmt, count, props):
    """An element of scalar properties, read whole into one record array:
    ({property: column}, the position after it). `body` holds the lines
    (ASCII) or bytes (binary) after the header; `pos` indexes it."""
    if fmt == "ascii":
        table = np.loadtxt(body[pos:pos + count], [(prop[0], "f8") for prop in props],
                           comments=None, ndmin=1)
        end = pos + count
    else:
        dtype = np.dtype([(prop[0], _dtype(prop[1])) for prop in props])
        end = pos + count * dtype.itemsize
        if end > len(body):
            raise ValueError(f"truncated: {len(body) - pos} of {end - pos} bytes")
        table = np.frombuffer(body, dtype, count, pos)
    if len(table) != count:
        raise ValueError(f"truncated: {len(table)} of {count} rows")
    return {prop[0]: table[prop[0]] for prop in props}, end


def _read_rows(body, pos, fmt, count, props):
    """An element with list properties, read row by row: ({property: list
    over the rows}, the position after it); a list property's entries are
    lists of its items."""
    columns = {prop[0]: [] for prop in props}
    # per property the types of its list length (None for a scalar) and items
    types = [prop[2:] if prop[1] == "list" else (None, prop[1]) for prop in props]
    if fmt != "ascii":  # binary types as dtypes, built once per element
        types = [(n and _dtype(n), _dtype(item)) for n, item in types]
    for row in range(count):
        chunk, at = (body[pos].split(), 0) if fmt == "ascii" else (body, pos)
        for prop, (n_type, item_type) in zip(props, types):
            n = 1
            if n_type is not None:
                (n,), at = _take(chunk, at, fmt, n_type, 1)
            value, at = _take(chunk, at, fmt, item_type, int(n))
            columns[prop[0]].append(value if n_type is not None else value[0])
        if fmt == "ascii" and at != len(chunk):
            raise ValueError(f"row {row} holds {len(chunk)} values, not {at}")
        pos = pos + 1 if fmt == "ascii" else at
    return columns, pos


def _take(chunk, at, fmt, dtype, n):
    """n values of a dtype from position `at` of a row's tokens (ASCII) or
    of the body's bytes (binary), and the position after them."""
    end = at + n * (1 if fmt == "ascii" else dtype.itemsize)
    if n < 0 or end > len(chunk):
        raise ValueError(f"truncated, or a negative list length, at {at}")
    if fmt == "ascii":
        return [float(token) for token in chunk[at:end]], end
    return np.frombuffer(chunk, dtype, n, at).tolist(), end


def read_ply(path):
    """Read a PLY file; returns (points, normals or None, faces or None)."""
    with open(path, "rb") as fh:
        fmt, elements = _parse_ply_header(fh)
        body = fh.read().split(b"\n") if fmt == "ascii" else fh.read()
    data, pos = {}, 0
    for name, count, props in elements:
        read = _read_rows if any(prop[1] == "list" for prop in props) else _read_table
        try:
            data[name], pos = read(body, pos, fmt, count, props) if count else ({}, pos)
        except (IndexError, ValueError, OverflowError) as exc:
            raise ValueError(f"PLY element {name!r}: {exc}") from None
    verts = data.get("vertex")
    if not verts:
        raise ValueError("PLY file has no vertices")
    missing = [axis for axis in ("x", "y", "z") if axis not in verts]
    if missing:
        raise ValueError(f"PLY element 'vertex' has no property {missing[0]!r}")
    points = np.stack([verts[axis] for axis in ("x", "y", "z")], axis=1).astype(np.float64)
    normals = None
    if all(axis in verts for axis in ("nx", "ny", "nz")):
        normals = np.stack([verts[axis] for axis in ("nx", "ny", "nz")], axis=1).astype(np.float64)
    faces = None
    if data.get("face"):
        # the vertex indices: the list named vertex_indices or vertex_index, else the first list
        lists = [prop[0] for prop in next(p for name, _, p in elements if name == "face")
                 if prop[1] == "list"]
        if not lists:
            raise ValueError("PLY face element has no list property")
        key = next((name for name in ("vertex_indices", "vertex_index") if name in lists), lists[0])
        rows = ([int(i) for i in row] for row in data["face"][key])
        faces = [(idx[0], idx[a], idx[a + 1])  # fan-triangulate polygons
                 for idx in rows for a in range(1, len(idx) - 1)]
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


def sample_faces(points, faces, count):
    """Area-weighted triangle sampling, seeded with 0; returns (points, face
    normals)."""
    tri = points[np.asarray(faces, dtype=np.intp)]  # (f, 3, 3)
    e1 = tri[:, 1] - tri[:, 0]
    e2 = tri[:, 2] - tri[:, 0]
    cr = np.cross(e1, e2)
    area = 0.5 * np.linalg.norm(cr, axis=1)
    total = float(area.sum())
    if total <= 0.0:
        raise ValueError("mesh has zero surface area")
    rng = np.random.default_rng(0)
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
    """Write an ASCII PLY with per-vertex uchar RGB (and normals if given),
    each row formatted by one `%` format string."""
    points = np.asarray(points, dtype=np.float64)
    colors = np.asarray(colors)
    if colors.shape != points.shape:
        raise ValueError("colors must be (n, 3) matching points")
    colors = np.clip(np.rint(colors), 0, 255).astype(np.uint8)
    names = ["x", "y", "z"] + (["nx", "ny", "nz"] if normals is not None else [])
    table = np.column_stack([points] + ([normals] if normals is not None else []) + [colors])
    row = "%.17g " * len(names) + "%d %d %d\n"
    with open(path, "w") as fh:
        fh.write(f"ply\nformat ascii 1.0\nelement vertex {len(points)}\n")
        fh.write("".join(f"property double {name}\n" for name in names))
        fh.write("property uchar red\nproperty uchar green\nproperty uchar blue\nend_header\n")
        fh.writelines(row % tuple(values) for values in table.tolist())
