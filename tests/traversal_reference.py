"""The occupied-cell traversal in numpy, vectorized over rays: the oracle the
tests hold the compiled traversal (`native.Library.cell_blocked`, behind
`visibility._cell_blocked`) to, bit for bit.

It follows the rules `visibility._cell_blocked` documents. The compiled
traversal repeats its float expressions per ray, visits the cells of one
axis's crossings after another and stops a ray at its first blocking cell,
so the two masks are equal.
"""

import numpy as np

OTHER_AXES = np.array([[1, 2, 0], [2, 0, 1]])   # column a: the two axes beside axis a


def numpy_cell_blocked(grid, eye, target_rows) -> np.ndarray:
    """True where the segment eye->center of a target row passes through
    another voxel's cell.

    Per-ray values are held axis-major, as (3, rays) arrays, and the plane
    crossings of all three axes are handled in one pass, in that order.
    Cell coordinates, box extents and strides are exact integers held as
    floats.
    """
    res = grid.resolution
    lo, shape, occupied = grid.occupancy
    top = shape - 1.0
    strides = np.array([shape[1] * shape[2], shape[2], 1], dtype=np.float64)  # of occupied, C order
    start = (eye - grid.origin) / res - lo    # cell units, box corner at 0
    col = start[:, None]
    rays = np.ascontiguousarray(((grid.centers[target_rows] - eye) / res).T)
    moving = rays != 0.0

    # slab test against the box; a static axis's quotients (x/0, or 0/0 for
    # an eye on a face) are never read
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t_lo = -col / rays
        t_hi = (shape[:, None] - col) / rays
    t_in = np.maximum(np.where(moving, np.minimum(t_lo, t_hi), -np.inf).max(axis=0), 0.0)
    t_out = np.minimum(np.where(moving, np.maximum(t_lo, t_hi), np.inf).min(axis=0), 1.0)
    eye_cell = np.floor(start)
    static_ok = ((eye_cell >= 0) & (eye_cell < shape))[:, None]
    entry_rays = np.flatnonzero((t_in < t_out) & (moving | static_ok).all(axis=0))
    rays = rays.take(entry_rays, axis=1)
    count = len(entry_rays)
    step = np.sign(rays)
    first = np.minimum(np.maximum(np.floor(col + t_in[entry_rays] * rays), 0), top[:, None])
    last = np.minimum(np.maximum(np.floor(col + t_out[entry_rays] * rays), 0), top[:, None])

    # plane crossings, axis-major: c = axis * count + ray indexes the
    # (3, rays) arrays, and per_axis counts each axis's crossings. Crossing
    # m = 1..n of a ray along an axis enters cell first + m * step through
    # the plane on its near side (entered + 1 when stepping down), at the
    # time t where the other two axes (rows of `beside`, indexed by c as
    # well) are read. With j the crossing's index among all crossings and
    # j0 that of the ray's first one, m = j - j0 + 1, so
    # first + m * step = (first - (j0 - 1) * step) + j * step, exactly.
    n = np.maximum((last - first) * step, 0).astype(np.int64).ravel()
    c = np.repeat(np.arange(n.size), n)
    per_axis = n.reshape(3, count).sum(axis=1)
    step, first = step.ravel(), first.ravel()
    zeroth = first - (np.cumsum(n) - n - 1) * step
    moved = np.arange(c.size, dtype=np.float64)
    moved *= step.take(c)
    base = np.repeat(zeroth, n)
    base += moved                                   # the entered cell
    t = np.repeat(zeroth + (step < 0), n)
    t += moved                                      # the plane crossed
    t -= np.repeat(start, per_axis)
    t /= rays.ravel().take(c)
    beside = rays[OTHER_AXES].reshape(2, -1).take(c, axis=1)
    p = t * beside
    p += np.repeat(start[OTHER_AXES], per_axis, axis=1)
    below = np.floor(p)
    cap = np.repeat(top[OTHER_AXES], per_axis, axis=1)
    scale = np.repeat(strides[OTHER_AXES], per_axis, axis=1)
    base *= np.repeat(strides, per_axis)
    upper = np.maximum(below, 0)
    np.minimum(upper, cap, out=upper)
    upper *= scale
    upper = upper.sum(axis=0)
    upper += base
    # a crossing that also lies on a plane of a moving other axis (it meets
    # a cell edge) enters the cell below that plane as well
    on_plane = (p == below) & (beside != 0.0)
    edge = np.flatnonzero(on_plane.any(axis=0))
    lower = base[edge] + (np.minimum(np.maximum(below[:, edge] - on_plane[:, edge], 0), cap[:, edge])
                          * scale[:, edge]).sum(axis=0)
    keep = lower != upper[edge]
    edge, lower = edge[keep], lower[keep]

    # cells as flat offsets into occupied: the entry cells, then one per
    # plane crossing, then the lower cell of each edge crossing; the ray of
    # a flat (axis, ray) index is its remainder by count
    cells = np.concatenate((strides @ first.reshape(3, count), upper, lower)).astype(np.int64)
    hit = np.flatnonzero(occupied.ravel()[cells])
    ray_of = np.concatenate((np.arange(count), c, c[edge]))[hit] % count
    cells = cells[hit]
    own = (grid.keys[target_rows[entry_rays]] - lo) @ strides
    blocked = np.zeros(len(target_rows), dtype=bool)
    blocked[entry_rays[ray_of[cells != own[ray_of]]]] = True
    return blocked
