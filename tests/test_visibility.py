import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import ConvexHull

from camopt.scene import (ShapeSpec, TargetScene, VOLUMETRIC3D, VoxelGrid, generate_planar_shape,
                          voxelize)
from camopt.visibility import (
    DEFAULT_HPR_GAMMA,
    CameraIntrinsics,
    CameraPose,
    CameraRig,
    CoverageMatrix,
    coverage_from_sets,
    coverage_matrix,
    default_intrinsics,
    frustum_mask,
    hidden_point_removal,
    pose_from_forward,
    rotation_from_six,
    visible_set,
)
from camopt.visibility import _cell_blocked


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


def np_cross_rot6_from_forward(forward, up_hint=(0.0, 0.0, 1.0)):
    """The rot6 pose_from_forward builds, with np.cross for every product."""
    f = np.asarray(forward, dtype=np.float64)
    f = f / np.linalg.norm(f)
    up = np.asarray(up_hint, dtype=np.float64)
    right = np.cross(up, f)
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
        with pytest.raises(ValueError):
            cand.poses[0].forward[0] = 2.0

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
        hints = [(0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.3, -0.2, 0.9)]
        forwards = list(rng.normal(size=(300, 3))) + [
            # parallel to a hint: both fallback axes are taken
            np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -3.0]),
            np.array([1e-12, 0.0, 1.0]), np.array([2.0, 0.0, 0.0]),
            np.array([-1.0, 1e-13, 0.0]), np.array([0.3, -0.2, 0.9]),
            np.array([1.0, 0.0, 0.0]), np.array([0.0, -1.0, 0.0])]
        for fwd in forwards:
            for hint in hints:
                pose = pose_from_forward(rng.normal(size=3), fwd, hint)
                np.testing.assert_array_equal(pose.rot6, np_cross_rot6_from_forward(fwd, hint))
                np.testing.assert_array_equal(pose.rotation(),
                                              np_cross_rotation_from_six(pose.rot6))

    def test_pose_from_forward(self):
        pose = pose_from_forward([1.0, 2.0, 0.0], [0.0, -1.0, 0.0])
        assert np.allclose(pose.forward, [0.0, -1.0, 0.0])
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


class TestHiddenPointRemoval:
    def test_single_point(self):
        assert set(np.flatnonzero(hidden_point_removal([0, 0, 0], [[0, 0, 1]]))) == {0}

    def test_two_points_on_a_ray(self):
        vis = set(np.flatnonzero(hidden_point_removal([0, 0, 0], [[0, 0, 1], [0, 0, 2]])))
        assert vis == {0}

    def test_hemisphere(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(1500, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        vis = set(np.flatnonzero(hidden_point_removal([0.0, 0.0, 100.0], pts)))
        facing = pts[:, 2] > 0.0
        got = np.zeros(len(pts), dtype=bool)
        got[list(vis)] = True
        agreement = np.mean(got == facing)
        assert agreement >= 0.95

    def test_cube_corner_faces(self):
        # front faces carry full-extent samples; back faces are inset past the
        # one-sample-spacing shadow band where point-based occlusion is
        # genuinely ambiguous
        def face_samples(axis, side, ticks):
            uu, vv = np.meshgrid(ticks, ticks)
            uv = np.stack([uu.ravel(), vv.ravel()], axis=1)
            face = np.zeros((len(uv), 3))
            face[:, axis] = side
            face[:, (axis + 1) % 3] = uv[:, 0]
            face[:, (axis + 2) % 3] = uv[:, 1]
            normal = np.zeros(3)
            normal[axis] = 1.0 if side == 1.0 else -1.0
            return face, np.tile(normal, (len(uv), 1))

        viewpoint = np.array([10.0, 10.0, 10.0])
        pts, nrm = [], []
        for axis in range(3):
            for side in (0.0, 1.0):
                toward = 1.0 if side == 1.0 else -1.0
                front = toward * viewpoint[axis] > 0
                ticks = np.linspace(0.025, 0.975, 13) if front else np.linspace(0.2, 0.8, 9)
                f, n = face_samples(axis, side, ticks)
                pts.append(f)
                nrm.append(n)
        pts = np.vstack(pts)
        nrm = np.vstack(nrm)
        vis = set(np.flatnonzero(hidden_point_removal(viewpoint, pts)))
        to_view = viewpoint - pts
        front_mask = np.sum(nrm * to_view, axis=1) > 0.0
        assert not any(~front_mask[i] for i in vis)
        got = np.zeros(len(pts), dtype=bool)
        got[list(vis)] = True
        assert got[front_mask].mean() >= 0.99  # the three facing faces are seen

    def test_coincident_viewpoint_rejected(self):
        with pytest.raises(ValueError):
            hidden_point_removal([0, 0, 1], [[0, 0, 1], [1, 1, 1]])

    def test_planar_input_uses_lower_dimension(self):
        ang = np.linspace(0, 2 * np.pi, 60, endpoint=False)
        pts = np.stack([np.cos(ang), np.sin(ang), np.zeros_like(ang)], axis=1)
        vis = set(np.flatnonzero(hidden_point_removal([3.0, 0.0, 0.0], pts)))
        # near side of the circle faces the viewpoint
        got = np.zeros(len(pts), dtype=bool)
        got[list(vis)] = True
        assert got[0]
        assert not got[len(pts) // 2]


def reference_hpr_rows(viewpoint, points):
    """Hidden-point removal as the set of hull-vertex rows, taken from
    set(ConvexHull(proj).vertices) with the viewpoint's row dropped."""
    pts = np.asarray(points, dtype=np.float64)
    centered = pts - np.asarray(viewpoint, dtype=np.float64)
    dist = np.linalg.norm(centered, axis=1)
    radius = DEFAULT_HPR_GAMMA * dist.max()
    flipped = centered * ((2.0 * radius - dist) / dist)[:, None]
    cloud = np.vstack([flipped, np.zeros((1, pts.shape[1]))])
    centered = cloud - cloud.mean(axis=0)
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    rank = int(np.sum(svals > max(svals[0], 1.0) * 1e-9))
    if rank <= 1:
        t = centered @ vt[0]
        verts = {int(np.argmin(t)), int(np.argmax(t))}
    else:
        verts = set(int(v) for v in ConvexHull(centered @ vt[:rank].T).vertices)
    return verts - {len(cloud) - 1}


def torus_target(count=3000, seed=0, major=1.0, minor=0.35):
    rng = np.random.default_rng(seed)
    u, v = rng.uniform(0.0, 2.0 * np.pi, (2, count))
    normals = np.stack([np.cos(v) * np.cos(u), np.cos(v) * np.sin(u), np.sin(v)], axis=1)
    ring = np.stack([np.cos(u), np.sin(u), np.zeros(count)], axis=1)
    pts = major * ring + minor * normals
    return TargetScene(pts, normals, VOLUMETRIC3D, np.stack([pts.min(0), pts.max(0)]))


class TestHiddenPointRemovalMask:
    """The row mask must mark exactly the reference's hull-vertex rows."""

    def assert_matches(self, viewpoint, points):
        mask = hidden_point_removal(viewpoint, points)
        assert mask.dtype == bool and mask.shape == (len(points),)
        assert set(np.flatnonzero(mask).tolist()) == reference_hpr_rows(viewpoint, points)

    def test_random_clouds(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 3, 4, 5, 8, 30, 400):
            for _ in range(5):
                self.assert_matches(rng.normal(size=3) * 3.0, rng.normal(size=(n, 3)))

    def test_planar_clouds(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            basis = np.linalg.qr(rng.normal(size=(3, 3)))[0][:, :2]
            pts = rng.normal(size=(60, 2)) @ basis.T + rng.normal(size=3)
            self.assert_matches(pts.mean(axis=0) + basis @ rng.normal(size=2) * 4.0, pts)
        ang = np.linspace(0, 2 * np.pi, 200, endpoint=False)
        circle = np.stack([np.cos(ang), np.sin(ang), np.zeros_like(ang)], axis=1)
        for x in (1.5, 3.0, 10.0):
            self.assert_matches([x, 0.3, 0.0], circle)

    def test_collinear_clouds(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            direction = rng.normal(size=3)
            pts = np.outer(rng.normal(size=12), direction) + rng.normal(size=3)
            self.assert_matches(pts[0] + direction * 50.0, pts)   # on the line
            self.assert_matches(rng.normal(size=3) * 5.0, pts)    # off the line

    @pytest.mark.parametrize("make_grid", [
        lambda: sphere_grid(n=2000, seed=4, resolution=0.1),
        lambda: voxelize(torus_target(), resolution=0.08)], ids=["sphere", "torus"])
    def test_voxel_centers_from_many_viewpoints(self, make_grid):
        centers = make_grid().centers
        rng = np.random.default_rng(3)
        for _ in range(25):
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            self.assert_matches(direction * rng.uniform(1.3, 4.0), centers)


class TestVisibleSet:
    def on_axis_grid(self, centers, normals, resolution=0.1):
        from camopt.scene import VoxelGrid
        centers = np.asarray(centers, dtype=np.float64)
        normals = np.asarray(normals, dtype=np.float64)
        members = tuple(np.array([i]) for i in range(len(centers)))
        origin = centers.min(axis=0) - resolution / 2.0
        keys = np.floor((centers - origin) / resolution).astype(np.int64)
        assert len(np.unique(keys, axis=0)) == len(centers)
        return VoxelGrid(resolution=resolution, centers=centers, normals=normals,
                         members=members, keys=keys, origin=origin)

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
        got = coverage_from_sets(sets, len(grid.centers))
        assert got.entries.dtype == np.int8
        assert np.array_equal(got.entries, want)
        assert np.array_equal(got.entries, coverage_matrix(rig, grid).entries)
        assert np.array_equal(got.per_voxel_count, want.sum(axis=0))

    def test_counts_validation(self):
        with pytest.raises(ValueError):
            CoverageMatrix(entries=np.array([[1, 0]]), per_voxel_count=np.array([0, 0]))

    def test_binary_validation(self):
        with pytest.raises(ValueError):
            CoverageMatrix(entries=np.array([[2, 0]]), per_voxel_count=np.array([2, 0]))

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
    """The cell march before slab clipping: every ray is sampled at
    quarter-voxel strides over the whole eye->center segment."""
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
    """The cell march reads the occupied-cell box its grid derives once."""

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


class TestCellMarch:
    """The slab-clipped march must equal the full-segment march exactly."""

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
                         members=tuple(np.array([r]) for r in range(len(keys))),
                         keys=np.array(keys), origin=np.zeros(3))

    def box(self, grid):
        keys = grid.keys
        lo = grid.origin + keys.min(axis=0) * grid.resolution
        hi = grid.origin + (keys.max(axis=0) + 1) * grid.resolution
        return lo, hi

    def assert_same(self, grid, eyes):
        blocked = clear = 0
        for eye in eyes:
            eye = np.asarray(eye, dtype=np.float64)
            rows = np.nonzero(np.linalg.norm(grid.centers - eye, axis=1) > 1e-12)[0]
            got = _cell_blocked(grid, eye, rows)
            want = full_segment_march(grid, eye, rows)
            assert np.array_equal(got, want), f"eye {eye.tolist()}"
            blocked += int(want.sum())
            clear += int((~want).sum())
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
        self.assert_same(grid, self.eyes_around(grid, np.random.default_rng(0), 8, True))

    def test_volumetric_grid(self):
        grid = sphere_grid(n=400, seed=3, resolution=0.2)
        self.assert_same(grid, self.eyes_around(grid, np.random.default_rng(1), 8, False))

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
        self.assert_same(grid, eyes)

    def test_rays_grazing_box_faces(self):
        grid = self.block_grid()
        eyes = [(-3.0, 2.5, 0.0), (9.0, -1.0, 0.0), (-1.0, -1.0, 0.0),
                (2.5, 7.0, 0.0), (0.0, -4.0, 0.0), (6.0, 8.0, 0.0),
                (-2.0, 2.5, 1.0), (3.0, 3.0, np.nextafter(0.0, -1.0)),
                (-2.0, 0.0, 0.0), (8.0, 5.0, 0.0)]
        self.assert_same(grid, eyes)
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
        self.assert_same(grid, eyes)
