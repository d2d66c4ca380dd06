import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from camopt import native
from camopt import visibility
from camopt.hybrid import initialize
from camopt.scene import (PLANAR2D, VOLUMETRIC3D, ShapeSpec, TargetScene, VoxelGrid,
                          generate_planar_shape, voxelize)
from camopt.visibility import (
    CameraIntrinsics,
    CameraPose,
    CameraRig,
    CoverageMatrix,
    coverage_matrix,
    default_intrinsics,
    frustum_mask,
    pose_from_forward,
    replace_row,
    rotation_from_six,
    visible_set,
)
from camopt.visibility import _cell_blocked
from test_baselines import torus_scene
from ingest_reference import voxel_members
from traversal_reference import numpy_cell_blocked


def raycast_visible_oracle(pose, intrinsics, centers, normals, radius):
    """Reference visibility: voxels are opaque spheres of the given radius;
    a voxel is visible when the segment camera->center misses every other
    sphere, subject to the same frustum, range, and facing rules."""
    p = pose.position
    rot = pose.rotation()
    visible = set()
    for j, c in enumerate(centers):
        cam = rot.T @ (c - p)
        z = cam[2]
        if not (intrinsics.near <= z <= intrinsics.far):
            continue
        if abs(cam[0]) > np.tan(intrinsics.hfov / 2) * z:
            continue
        if abs(cam[1]) > np.tan(intrinsics.vfov / 2) * z:
            continue
        ray = c - p
        length = np.linalg.norm(ray)
        if length < 1e-12 or np.dot(ray, normals[j]) >= 0.0:
            continue
        u = ray / length
        blocked = False
        for i, o in enumerate(centers):
            if i == j:
                continue
            w = o - p
            t = np.dot(w, u)
            d2 = np.dot(w, w) - t * t
            if d2 >= radius * radius:
                continue
            s = np.sqrt(radius * radius - d2)
            if t - s < length - 1e-9 and t + s > 1e-9:
                blocked = True
                break
        if not blocked:
            visible.add(j)
    return visible


def sphere_grid(n=400, seed=0, resolution=0.25):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    scene = TargetScene(pts, pts.copy(), VOLUMETRIC3D, np.stack([pts.min(0), pts.max(0)]))
    return voxelize(scene, resolution=resolution)


def np_cross_rotation_from_six(params):
    """rotation_from_six with np.cross for the forward axis."""
    params = np.asarray(params, dtype=np.float64)
    a, b = params[:3], params[3:]
    c1 = a / np.linalg.norm(a)
    b_perp = b - np.dot(c1, b) * c1
    c2 = b_perp / np.linalg.norm(b_perp)
    return np.stack([c1, c2, np.cross(c1, c2)], axis=1)


def np_cross_rot6_from_forward(forward):
    """The rot6 pose_from_forward builds, with np.cross for every product."""
    f = np.asarray(forward, dtype=np.float64)
    f = f / np.linalg.norm(f)
    right = np.cross([0.0, 0.0, 1.0], f)
    if np.linalg.norm(right) < 1e-9:
        alt = np.array([1.0, 0.0, 0.0]) if abs(f[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
        right = np.cross(alt, f)
    right = right / np.linalg.norm(right)
    return np.concatenate([right, np.cross(f, right)])


class TestRotation:
    def test_axes_recovered_from_seed_vectors(self):
        rot = rotation_from_six([1, 0, 0, 0, 1, 0])
        assert np.allclose(rot, np.eye(3))

    def test_parallel_seed_vectors_rejected(self):
        with pytest.raises(ValueError):
            rotation_from_six([1, 0, 0, 2, 0, 0])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 100_000))
    def test_always_a_proper_rotation(self, seed):
        rng = np.random.default_rng(seed)
        params = rng.normal(size=6)
        if np.linalg.norm(params[:3]) < 1e-3:
            params[:3] = (1.0, 0.0, 0.0)
        cr = np.cross(params[:3], params[3:])
        if np.linalg.norm(cr) < 1e-3:
            params[3:] = params[3:] + (0.0, 1.0, 0.5)
        rot = rotation_from_six(params)
        assert np.allclose(rot.T @ rot, np.eye(3), atol=1e-9)
        assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("name, index", [("position", i) for i in range(3)]
                             + [("rot6", i) for i in range(6)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_pose_rejects_non_finite_values(self, name, index, bad):
        # a NaN rotation passes the determinant check, so it needs its own
        values = {"position": np.zeros(3), "rot6": np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0])}
        values[name][index] = bad
        with pytest.raises(ValueError, match="finite"):
            CameraPose(**values)

    def test_pose_derives_its_rotation_once(self, monkeypatch):
        import camopt.baselines as baselines
        import camopt.visibility as visibility
        calls = []
        real = visibility.rotation_from_six

        def counting(params):
            calls.append(1)
            return real(params)

        monkeypatch.setattr(visibility, "rotation_from_six", counting)
        scene = generate_planar_shape(ShapeSpec("circle", {"radius": 1.0}, 96, seed=0))
        grid = voxelize(scene)
        rig = CameraRig((pose_from_forward([2.5, 0.0, 0.0], [-1.0, 0.0, 0.0]),),
                        default_intrinsics(scene.diagonal))
        calls.clear()
        cand = baselines._perturb(rig, 0, 0.05, 0.05, True, np.random.default_rng(0))
        visible_set(cand.poses[0], cand.intrinsics, grid)
        assert len(calls) == 1      # the new pose's own __post_init__
        rot = cand.poses[0].rotation()
        assert rot is cand.poses[0].rotation()
        np.testing.assert_array_equal(rot, real(cand.poses[0].rot6))
        with pytest.raises(ValueError):
            rot[0, 0] = 2.0

    def test_rotations_equal_np_cross_references(self):
        rng = np.random.default_rng(11)
        six = list(rng.normal(size=(300, 6))) + [
            np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0]),
            np.array([-0.0, 1.0, 0.0, 0.0, 0.0, -1.0]),
            np.array([1e-150, 1.0, 2.0, 1e150, -1.0, 0.5]),
        ]
        for params in six:
            np.testing.assert_array_equal(rotation_from_six(params),
                                          np_cross_rotation_from_six(params))
        forwards = list(rng.normal(size=(300, 3))) + [
            # along z the fallback axis is taken
            np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -3.0]),
            np.array([1e-12, 0.0, 1.0]), np.array([2.0, 0.0, 0.0]),
            np.array([-1.0, 1e-13, 0.0]), np.array([0.3, -0.2, 0.9]),
            np.array([1.0, 0.0, 0.0]), np.array([0.0, -1.0, 0.0])]
        for fwd in forwards:
            pose = pose_from_forward(rng.normal(size=3), fwd)
            np.testing.assert_array_equal(pose.rot6, np_cross_rot6_from_forward(fwd))
            np.testing.assert_array_equal(pose.rotation(), np_cross_rotation_from_six(pose.rot6))

    def test_pose_from_forward(self):
        pose = pose_from_forward([1.0, 2.0, 0.0], [0.0, -1.0, 0.0])
        assert np.allclose(pose.rotation()[:, 2], [0.0, -1.0, 0.0])
        rot = pose.rotation()
        assert np.allclose(rot.T @ rot, np.eye(3), atol=1e-12)
        # planar hint keeps the up axis out of plane
        assert np.allclose(rot[:, 1], [0.0, 0.0, 1.0])


class TestIntrinsics:
    def test_defaults_scale_with_diagonal(self):
        intr = default_intrinsics(2.5)
        assert intr.near == pytest.approx(0.2)
        assert intr.far == pytest.approx(5.0)
        assert intr.hfov == pytest.approx(np.pi / 3)

    def test_degenerate_diagonal_falls_back_to_fixed_range(self):
        # a single-point scene has diagonal 0: a range band scaled by it
        # would be empty, so it counts as an unknown scene size
        assert default_intrinsics(0.0) == default_intrinsics()
        assert default_intrinsics(1e-10) == default_intrinsics(None)

    def test_validation(self):
        with pytest.raises(ValueError):
            CameraIntrinsics(hfov=0.0, vfov=1.0, near=0.1, far=1.0)
        with pytest.raises(ValueError):
            CameraIntrinsics(hfov=1.0, vfov=1.0, near=1.0, far=0.5)


def visible_points(viewpoint, points, resolution=0.1):
    """Per-point visibility from a viewpoint: a point is visible when the
    voxel that holds it is in visible_set. Every normal faces the viewpoint
    and the frustum holds the whole cloud, so occlusion alone decides."""
    viewpoint = np.asarray(viewpoint, dtype=np.float64)
    pts = np.asarray(points, dtype=np.float64)
    rays = pts - viewpoint
    dist = np.linalg.norm(rays, axis=1)
    scene = TargetScene(pts, -rays / dist[:, None], VOLUMETRIC3D,
                        np.stack([pts.min(axis=0), pts.max(axis=0)]))
    grid = voxelize(scene, resolution=resolution)
    forward = pts.mean(axis=0) - viewpoint
    forward /= np.linalg.norm(forward)
    half = np.arccos(np.clip((rays @ forward / dist).min(), -1.0, 1.0)) + 0.05
    intr = CameraIntrinsics(2.0 * half, 2.0 * half, 0.5 * dist.min(), 2.0 * dist.max())
    got = np.zeros(len(pts), dtype=bool)
    keys, members = voxel_members(scene, resolution)
    assert np.array_equal(keys, grid.keys)
    for row in visible_set(pose_from_forward(viewpoint, forward), intr, grid):
        got[members[row]] = True
    return got


class TestHiddenPointRemoval:
    """Which points of a cloud are hidden from a viewpoint, read off
    visible_set through the voxels that hold them."""

    def test_single_point(self):
        assert set(np.flatnonzero(visible_points([0, 0, 0], [[0, 0, 1]]))) == {0}

    def test_two_points_on_a_ray(self):
        vis = set(np.flatnonzero(visible_points([0, 0, 0], [[0, 0, 1], [0, 0, 2]])))
        assert vis == {0}

    def test_planar_input_uses_lower_dimension(self):
        ang = np.linspace(0, 2 * np.pi, 60, endpoint=False)
        pts = np.stack([np.cos(ang), np.sin(ang), np.zeros_like(ang)], axis=1)
        got = visible_points([3.0, 0.0, 0.0], pts)
        # near side of the circle faces the viewpoint
        assert got[0]
        assert not got[len(pts) // 2]


class TestVisibleSet:
    def on_axis_grid(self, centers, normals, resolution=0.1):
        from camopt.scene import VoxelGrid
        centers = np.asarray(centers, dtype=np.float64)
        normals = np.asarray(normals, dtype=np.float64)
        origin = centers.min(axis=0) - resolution / 2.0
        keys = np.floor((centers - origin) / resolution).astype(np.int64)
        assert len(np.unique(keys, axis=0)) == len(centers)
        return VoxelGrid(resolution=resolution, centers=centers, normals=normals,
                         keys=keys, origin=origin)

    def wide_intrinsics(self):
        return CameraIntrinsics(hfov=np.pi / 2, vfov=np.pi / 2, near=0.1, far=10.0)

    def test_on_axis_voxel_visible(self):
        grid = self.on_axis_grid([[0, 0, 1]], [[0, 0, -1]])
        pose = CameraPose(position=[0, 0, 0], rot6=[1, 0, 0, 0, 1, 0])
        assert visible_set(pose, self.wide_intrinsics(), grid) == {0}

    def test_voxel_behind_camera_invisible(self):
        grid = self.on_axis_grid([[0, 0, -1]], [[0, 0, 1]])
        pose = CameraPose(position=[0, 0, 0], rot6=[1, 0, 0, 0, 1, 0])
        assert visible_set(pose, self.wide_intrinsics(), grid) == set()

    def test_occluded_voxel_on_shared_ray(self):
        grid = self.on_axis_grid([[0, 0, 1], [0, 0, 2]], [[0, 0, -1], [0, 0, -1]])
        pose = CameraPose(position=[0, 0, 0], rot6=[1, 0, 0, 0, 1, 0])
        assert visible_set(pose, self.wide_intrinsics(), grid) == {0}

    def test_backfacing_voxel_excluded(self):
        grid = self.on_axis_grid([[0, 0, 1]], [[0, 0, 1]])
        pose = CameraPose(position=[0, 0, 0], rot6=[1, 0, 0, 0, 1, 0])
        assert visible_set(pose, self.wide_intrinsics(), grid) == set()

    def test_camera_on_voxel_center_is_handled(self):
        grid = self.on_axis_grid([[0, 0, 0], [0, 0, 1]], [[0, 0, -1], [0, 0, -1]])
        embedded = CameraPose(position=[0, 0, 0], rot6=[1, 0, 0, 0, 1, 0])
        # a camera inside a solid voxel sees nothing, and must not crash
        assert visible_set(embedded, self.wide_intrinsics(), grid) == set()
        clear = CameraPose(position=[0, 0, 0.2], rot6=[1, 0, 0, 0, 1, 0])
        assert 1 in visible_set(clear, self.wide_intrinsics(), grid)

    def test_agreement_with_raycast_oracle(self):
        grid = sphere_grid()
        assert len(grid) <= 200
        intr = CameraIntrinsics(hfov=np.pi / 2, vfov=np.pi / 2, near=0.1, far=10.0)
        rng = np.random.default_rng(42)
        radius = grid.resolution / 2.0
        mismatches = 0
        for _ in range(20):
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            pos = direction * rng.uniform(2.0, 3.0)
            pose = pose_from_forward(pos, -direction)
            got = visible_set(pose, intr, grid)
            want = raycast_visible_oracle(pose, intr, grid.centers, grid.normals, radius)
            mismatches += len(got ^ want)
        agreement = 1.0 - mismatches / (20 * len(grid))
        assert agreement >= 0.90

    def test_range_monotonicity(self):
        grid = sphere_grid(n=200, seed=5)
        rng = np.random.default_rng(9)
        for _ in range(10):
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            pose = pose_from_forward(direction * 2.5, -direction)
            wide = visible_set(pose, CameraIntrinsics(np.pi / 2, np.pi / 2, 0.05, 10.0), grid)
            tight = visible_set(pose, CameraIntrinsics(np.pi / 2, np.pi / 2, 0.5, 3.0), grid)
            assert tight <= wide

    def test_planar_scene_sector(self):
        scene = generate_planar_shape(ShapeSpec("circle", {"radius": 1.0}, 300, seed=1))
        grid = voxelize(scene, resolution=0.1)
        pose = pose_from_forward([3.0, 0.0, 0.0], [-1.0, 0.0, 0.0])
        intr = CameraIntrinsics(np.pi / 3, np.pi / 3, 0.1, 10.0)
        vis = visible_set(pose, intr, grid)
        assert len(vis) > 0
        for j in vis:
            assert grid.centers[j, 0] > 0.0  # far side of the disk boundary is hidden


class TestCoverageMatrix:
    def test_matches_row_stack(self):
        grid = sphere_grid(n=250, seed=7)
        rng = np.random.default_rng(1)
        poses = []
        for _ in range(3):
            d = rng.normal(size=3)
            d /= np.linalg.norm(d)
            poses.append(pose_from_forward(d * 2.5, -d))
        intr = CameraIntrinsics(np.pi / 2, np.pi / 2, 0.1, 10.0)
        rig = CameraRig(poses=tuple(poses), intrinsics=intr)
        cov = coverage_matrix(rig, grid)
        for i, pose in enumerate(rig.poses):
            vs = visible_set(pose, intr, grid)
            assert set(np.nonzero(cov.entries[i])[0]) == vs
        assert np.array_equal(cov.per_voxel_count, cov.entries.sum(axis=0))

    def test_from_sets_matches_coverage_matrix_on_a_real_rig(self):
        from camopt.hybrid import initialize

        scene = generate_planar_shape(ShapeSpec("circle", {"radius": 1.0}, 300, seed=2))
        grid = voxelize(scene, None)
        rig = initialize(scene, 8, seed=6)
        sets = [visible_set(pose, rig.intrinsics, grid) for pose in rig.poses]
        assert set() in sets and sum(map(bool, sets)) >= 3
        want = np.zeros((len(rig), len(grid.centers)), dtype=np.int8)
        for i, vis in enumerate(sets):
            for j in vis:
                want[i, j] = 1
        got = coverage_matrix(rig, grid)
        assert got.entries.dtype == np.int8
        assert np.array_equal(got.entries, want)
        assert np.array_equal(got.per_voxel_count, want.sum(axis=0))

    def test_binary_validation(self):
        with pytest.raises(ValueError):
            CoverageMatrix(np.array([[2, 0]]))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_replace_row_equals_a_matrix_rebuilt_from_rows(self, data):
        k = data.draw(st.integers(1, 4))
        m = data.draw(st.integers(1, 12))
        voxel_sets = st.sets(st.integers(0, m - 1), max_size=m)
        rows = data.draw(st.lists(voxel_sets, min_size=k, max_size=k))
        i = data.draw(st.integers(0, k - 1))
        new = data.draw(voxel_sets)

        def built(sets):
            entries = np.zeros((k, m), dtype=np.int8)
            for r, vis in enumerate(sets):
                entries[r, sorted(vis)] = 1
            return entries

        E = CoverageMatrix(built(rows))
        # the new row as a visible set and as the sorted row array of the
        # candidate cache; either way an empty row stays empty
        as_array = np.array(sorted(new), dtype=np.intp)
        for vis in (new, as_array):
            got = replace_row(E, i, vis)
            want = built(rows[:i] + [new] + rows[i + 1:])
            assert got.entries.dtype == np.int8
            assert np.array_equal(got.entries, want)
            assert np.array_equal(got.per_voxel_count, want.sum(axis=0))
        assert np.array_equal(E.entries, built(rows))   # E itself is unchanged

    def test_replace_row_checks_the_new_row(self):
        E = CoverageMatrix(np.array([[1, 0, 1], [0, 0, 0]]))
        for bad in ({3}, {-1}, np.array([0, 5])):
            with pytest.raises(ValueError):
                replace_row(E, 0, bad)
        assert replace_row(E, 1, set()) is E   # an empty row stays empty
        got = replace_row(E, 0, set())
        assert got.entries.tolist() == [[0, 0, 0], [0, 0, 0]]
        assert got.per_voxel_count.tolist() == [0, 0, 0]

    def test_rig_needs_a_camera(self):
        with pytest.raises(ValueError):
            CameraRig(poses=(), intrinsics=default_intrinsics())


class TestFrustum:
    def test_fov_boundary(self):
        pose = CameraPose(position=[0, 0, 0], rot6=[1, 0, 0, 0, 1, 0])
        intr = CameraIntrinsics(np.pi / 2, np.pi / 2, 0.1, 10.0)
        centers = np.array([
            [0.99, 0.0, 1.0],   # just inside the 45 degree half-angle
            [1.01, 0.0, 1.0],   # just outside
            [0.0, 0.0, 0.05],   # closer than near
            [0.0, 0.0, 11.0],   # beyond far
        ])
        mask = frustum_mask(pose, intr, centers)
        assert mask.tolist() == [True, False, False, False]


def full_segment_march(grid, eye, target_rows):
    """Quarter-step cell march, the reference exact traversal must contain:
    every ray is sampled at quarter-voxel strides over the whole eye->center
    segment, so it can skip a cell the segment only clips at a corner."""
    res = grid.resolution
    keys = grid.keys
    lo = keys.min(axis=0)
    shape = keys.max(axis=0) - lo + 1
    occupied = np.zeros(shape, dtype=bool)
    occupied[tuple((keys - lo).T)] = True
    rays = grid.centers[target_rows] - eye
    longest = float(np.linalg.norm(rays, axis=1).max())
    n_steps = max(2, int(np.ceil(longest / (res / 4.0))))
    t = (np.arange(n_steps) + 0.5) / n_steps
    samples = eye + rays[:, None, :] * t[None, :, None]
    rel = np.floor((samples - grid.origin) / res).astype(np.int64) - lo
    inside = np.all((rel >= 0) & (rel < shape), axis=-1)
    hit = np.zeros(rel.shape[:2], dtype=bool)
    ri = rel[inside]
    hit[inside] = occupied[ri[:, 0], ri[:, 1], ri[:, 2]]
    hit &= ~np.all(rel == (keys[target_rows] - lo)[:, None, :], axis=-1)
    return hit.any(axis=1)


class TestOccupancy:
    """The cell traversal reads the occupied-cell box its grid derives once."""

    @pytest.mark.parametrize("make_grid", [
        lambda: sphere_grid(n=400, seed=3, resolution=0.2),
        lambda: voxelize(generate_planar_shape(ShapeSpec("circle", {"radius": 1.0}, 400,
                                                         seed=2)), resolution=0.08)],
        ids=["sphere", "circle"])
    def test_box_equals_a_rebuild_from_keys(self, make_grid):
        grid = make_grid()
        keys = grid.keys
        lo = keys.min(axis=0)
        shape = keys.max(axis=0) - lo + 1
        occupied = np.zeros(shape, dtype=bool)
        occupied[tuple((keys - lo).T)] = True
        got_lo, got_shape, got_occupied = grid.occupancy
        np.testing.assert_array_equal(got_lo, lo)
        np.testing.assert_array_equal(got_shape, shape)
        np.testing.assert_array_equal(got_occupied, occupied)
        assert grid.occupancy is grid.occupancy     # derived once per grid
        with pytest.raises(ValueError):
            got_occupied[0, 0, 0] = True


def slab_oracle(grid, eye, target_rows):
    """Brute-force occlusion: the segment eye->center is blocked when it
    overlaps some occupied cell other than the target's by a positive
    length. Each cell [k, k + 1) is slab-tested in cell units; along a zero
    direction component the segment stays in floor(start)."""
    start = (eye - grid.origin) / grid.resolution
    blocked = np.zeros(len(target_rows), dtype=bool)
    for i, row in enumerate(target_rows):
        ray = (grid.centers[row] - eye) / grid.resolution
        cells = np.delete(grid.keys, row, axis=0).astype(np.float64)
        t_in = np.zeros(len(cells))
        t_out = np.ones(len(cells))
        inside = np.ones(len(cells), dtype=bool)
        for axis in range(3):
            if ray[axis] == 0.0:
                inside &= cells[:, axis] == np.floor(start[axis])
                continue
            with np.errstate(over="ignore"):   # a denormal component
                t0 = (cells[:, axis] - start[axis]) / ray[axis]
                t1 = (cells[:, axis] + 1.0 - start[axis]) / ray[axis]
            t_in = np.maximum(t_in, np.minimum(t0, t1))
            t_out = np.minimum(t_out, np.maximum(t0, t1))
        blocked[i] = np.any(inside & (t_in < t_out))
    return blocked


def traversals(grid, eye, rows):
    """The masks of the compiled traversal (_cell_blocked) and of its numpy
    oracle (tests/traversal_reference.py)."""
    return _cell_blocked(grid, eye, rows), numpy_cell_blocked(grid, eye, rows)


class TestCellMarch:
    """Exact traversal must equal the brute-force slab oracle, and block a
    superset of what the quarter-step full-segment march blocks, compiled
    and in its numpy oracle."""

    def planar_grid(self):
        scene = generate_planar_shape(ShapeSpec("circle", {"radius": 1.0}, 400, seed=2))
        return voxelize(scene, resolution=0.08)

    def block_grid(self):
        # a 6 x 5 x 1 slab of unit cells whose centers sit on the box's
        # lower z face, so rays at z = 0 slide along that face
        keys = [(i, j, 0) for i in range(6) for j in range(5)]
        centers = np.array([[i + 0.5, j + 0.5, 0.0] for i, j, _ in keys])
        normals = np.tile([0.0, 0.0, 1.0], (len(keys), 1))
        return VoxelGrid(resolution=1.0, centers=centers, normals=normals,
                         keys=np.array(keys), origin=np.zeros(3))

    def box(self, grid):
        keys = grid.keys
        lo = grid.origin + keys.min(axis=0) * grid.resolution
        hi = grid.origin + (keys.max(axis=0) + 1) * grid.resolution
        return lo, hi

    def assert_exact(self, grid, eyes, oracle=True):
        """Traversal blocks a superset of the march on every eye, and equals
        the oracle where asked."""
        blocked = clear = 0
        for eye in eyes:
            eye = np.asarray(eye, dtype=np.float64)
            rows = np.nonzero(np.linalg.norm(grid.centers - eye, axis=1) > 1e-12)[0]
            march = full_segment_march(grid, eye, rows)
            want = slab_oracle(grid, eye, rows) if oracle else None
            for got in traversals(grid, eye, rows):
                assert not np.any(march & ~got), f"eye {eye.tolist()}"
                if oracle:
                    np.testing.assert_array_equal(got, want, err_msg=f"eye {eye.tolist()}")
                blocked += int(got.sum())
                clear += int((~got).sum())
        assert blocked and clear   # both outcomes were exercised

    def eyes_around(self, grid, rng, count, planar):
        lo, hi = self.box(grid)
        mid, span = (lo + hi) / 2.0, hi - lo
        outside = mid + rng.normal(size=(count, 3)) * span.max() * 1.5
        inside = lo + rng.random((count, 3)) * span
        eyes = np.vstack([outside, inside])
        if planar:
            eyes[:, 2] = grid.centers[0, 2]   # zero z component on every ray
        return eyes

    def test_planar_grid(self):
        grid = self.planar_grid()
        self.assert_exact(grid, self.eyes_around(grid, np.random.default_rng(0), 8, True))

    def test_volumetric_grid(self):
        grid = sphere_grid(n=400, seed=3, resolution=0.2)
        self.assert_exact(grid, self.eyes_around(grid, np.random.default_rng(1), 8, False))

    def test_axis_parallel_rays(self):
        grid = sphere_grid(n=400, seed=4, resolution=0.2)
        rng = np.random.default_rng(2)
        eyes = []
        for row in rng.choice(len(grid.centers), 6, replace=False):
            for axis in range(3):
                for side in (-2.5, 2.5):
                    eye = grid.centers[row].copy()
                    eye[axis] += side   # the ray back to this center runs along one axis
                    eyes.append(eye)
        # half-cell offsets put rays exactly through cell edges, where the
        # oracle's own rounding decides; only the superset is asserted
        self.assert_exact(grid, eyes, oracle=False)

    def test_rays_grazing_box_faces(self):
        grid = self.block_grid()
        eyes = [(-3.0, 2.5, 0.0), (9.0, -1.0, 0.0), (-1.0, -1.0, 0.0),
                (2.5, 7.0, 0.0), (0.0, -4.0, 0.0), (6.0, 8.0, 0.0),
                (-2.0, 2.5, 1.0), (-2.0, 0.0, 0.0), (8.0, 5.0, 0.0)]
        self.assert_exact(grid, eyes, oracle=False)
        # one denormal below the face, every ray meets the box only at its
        # target center; the march's samples round z up onto the face and
        # block, so this eye is held to the oracle alone
        eye = np.array([3.0, 3.0, np.nextafter(0.0, -1.0)])
        rows = np.arange(len(grid.centers))
        for got in traversals(grid, eye, rows):
            np.testing.assert_array_equal(got, np.zeros(len(rows), dtype=bool))
        np.testing.assert_array_equal(slab_oracle(grid, eye, rows),
                                      np.zeros(len(rows), dtype=bool))
        # eyes on the sphere grid's box faces, and a hair either side of them
        grid = sphere_grid(n=400, seed=5, resolution=0.2)
        lo, hi = self.box(grid)
        rng = np.random.default_rng(3)
        eyes = []
        for axis in range(3):
            for face, away in ((lo[axis], -np.inf), (hi[axis], np.inf)):
                for value in (face, np.nextafter(face, away), np.nextafter(face, -away)):
                    eye = lo + rng.random(3) * (hi - lo)
                    eye[axis] = value
                    eyes.append(eye)
        self.assert_exact(grid, eyes, oracle=False)

    def test_corner_clip_blocks(self):
        # the ray to the far cell clips the upper right corner of the middle
        # cell for about 0.03 cells of its length, between two of the
        # march's quarter-cell samples
        keys = np.array([(0, 0, 0), (4, 1, 0), (8, 0, 0)])
        grid = VoxelGrid(resolution=1.0, centers=keys + 0.5, normals=np.tile([0.0, 0.0, -1.0], (3, 1)),
                         keys=keys, origin=np.zeros(3))
        eye = np.array([0.5, 3.9, 0.5])
        rows = np.array([2])
        assert not full_segment_march(grid, eye, rows)[0]
        assert slab_oracle(grid, eye, rows)[0]
        assert all(got[0] for got in traversals(grid, eye, rows))

    def test_planar_eye_on_box_face(self):
        # the planar scene's cells span z in [0, 1) from the plane z = 0, so
        # an eye on that plane sits exactly on the box's lower z face: along
        # z each ray has a zero component and a 0/0 slab quotient
        grid = voxelize(generate_planar_shape(ShapeSpec("circle", {"radius": 1.0}, 2000, seed=0)),
                        resolution=0.0075)
        lo, _, _ = grid.occupancy
        assert grid.origin[2] == 0.0 and lo[2] == 0
        assert np.all(grid.centers[:, 2] == 0.0)
        rng = np.random.default_rng(4)
        angles = rng.uniform(0.0, 2.0 * np.pi, 4)
        eyes = np.stack([1.6 * np.cos(angles), 1.6 * np.sin(angles), np.zeros(4)], axis=1)
        rows = rng.choice(len(grid.centers), 150, replace=False)
        blocked = 0
        for eye in eyes:
            want = slab_oracle(grid, eye, rows)
            for got in traversals(grid, eye, rows):
                np.testing.assert_array_equal(got, want)
                blocked += int(got.sum())
        assert blocked > 0


@pytest.fixture(scope="module", params=["circle", "sphere", "torus"])
def bench_scene(request):
    """A benchmark scene and its grid: the 2000-point circle at resolution
    0.0075, and the 3000-point unit sphere and torus at their default
    resolution."""
    if request.param == "circle":
        scene = generate_planar_shape(ShapeSpec("circle", {"radius": 1.0}, 2000, seed=0))
        return scene, voxelize(scene, resolution=0.0075)
    if request.param == "sphere":
        pts = np.random.default_rng(0).normal(size=(3000, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        scene = TargetScene(pts, pts.copy(), VOLUMETRIC3D,
                            np.stack([pts.min(axis=0), pts.max(axis=0)]))
    else:
        scene = torus_scene(count=3000)
    return scene, voxelize(scene)


@pytest.fixture(scope="module")
def library():
    return native.load()


@pytest.fixture(scope="module")
def library_O0():
    return native.build(opt=("-O0",))


def on_cell_plane(grid, axis, value):
    """The coordinate nearest value that lies exactly on a cell plane of the
    given axis in the traversal's cell units."""
    origin, res = grid.origin[axis], grid.resolution
    k = round((value - origin) / res)
    for step in range(64):
        snapped = origin + (k + step) * res
        if ((snapped - origin) / res).is_integer():
            return snapped
    raise AssertionError("no coordinate on a cell plane near the eye")


class TestCompiledTraversal:
    def test_masks_equal_the_numpy_traversal(self, bench_scene, library, library_O0):
        # 80 eyes per scene, 240 in all: a third anywhere around and inside
        # the scene, a third with one coordinate on a cell plane, and a third
        # on the axis-parallel line through a voxel center, whose rays to
        # that row of voxels run along an axis
        scene, grid = bench_scene
        rng = np.random.default_rng(7)
        lo, hi = grid.centers.min(axis=0), grid.centers.max(axis=0)
        blocked = clear = 0
        for i in range(80):
            eye = (lo + hi) / 2.0 + rng.normal(size=3) * (hi - lo).max()
            if scene.mode == PLANAR2D:
                eye[2] = grid.centers[0, 2]
            if i % 3 == 1:
                axis = rng.integers(3)
                eye[axis] = on_cell_plane(grid, axis, eye[axis])
            elif i % 3 == 2:
                center = grid.centers[rng.integers(len(grid))]
                beside = np.arange(3) != rng.integers(3)
                eye[beside] = center[beside]
            rows = np.flatnonzero(np.linalg.norm(grid.centers - eye, axis=1) > 1e-12)
            want = numpy_cell_blocked(grid, eye, rows)
            for lib in (library, library_O0):
                np.testing.assert_array_equal(lib.cell_blocked(grid, eye, rows), want,
                                              err_msg=f"eye {eye.tolist()}")
            blocked += int(want.sum())
            clear += int((~want).sum())
        assert blocked and clear

    def test_coverage_matrix_is_the_same_without_the_library(self, bench_scene, monkeypatch):
        # with the numpy oracle in place of the compiled traversal
        scene, grid = bench_scene
        rig = initialize(scene, 10, 0)
        E = coverage_matrix(rig, grid)
        monkeypatch.setattr(visibility, "_cell_blocked", numpy_cell_blocked)
        F = coverage_matrix(rig, grid)
        assert E.entries.any()
        np.testing.assert_array_equal(E.entries, F.entries)

    def test_is_faster_than_the_numpy_traversal(self, library):
        # one circle-workload call: an eye at distance 1.6 in the plane and
        # the rays to the voxels facing it
        scene = generate_planar_shape(ShapeSpec("circle", {"radius": 1.0}, 2000, seed=0))
        grid = voxelize(scene, resolution=0.0075)
        eye = np.array([1.6, 0.0, grid.centers[0, 2]])
        rows = np.flatnonzero(np.sum((grid.centers - eye) * grid.normals, axis=1) < 0.0)
        assert 200 < len(rows) < 320

        def best_of_5(traverse):
            times = []
            for _ in range(5):
                t0 = time.perf_counter()
                traverse(grid, eye, rows)
                times.append(time.perf_counter() - t0)
            return min(times)

        native_s = best_of_5(_cell_blocked)
        numpy_s = best_of_5(numpy_cell_blocked)
        assert native_s < numpy_s, f"native {native_s * 1e3:.3f} ms, numpy {numpy_s * 1e3:.3f} ms"

    def test_rejects_rows_out_of_range(self, library):
        grid = sphere_grid(n=400, seed=3, resolution=0.2)
        eye = np.array([3.0, 0.0, 0.0])
        for rows in ([0, len(grid)], [-1]):
            with pytest.raises(IndexError):
                library.cell_blocked(grid, eye, np.array(rows))
