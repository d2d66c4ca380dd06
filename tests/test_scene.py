import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from camopt import cloudio
from camopt.scene import (
    PLANAR2D,
    VOLUMETRIC3D,
    ShapeSpec,
    TargetScene,
    estimate_normals,
    generate_planar_shape,
    load_scene,
    voxelize,
)


def unit_sphere_cloud(n, radius=1.0, seed=0):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v * radius


class TestShapeGeneration:
    def test_circle_points_lie_on_radius(self):
        spec = ShapeSpec("circle", {"radius": 1.0}, sample_count=100, seed=3)
        scene = generate_planar_shape(spec)
        assert len(scene.points) == 100
        d = np.linalg.norm(scene.points[:, :2], axis=1)
        assert np.all(np.abs(d - 1.0) < 1e-9)

    def test_circle_normals_are_radial(self):
        spec = ShapeSpec("circle", {"radius": 2.0}, sample_count=64, seed=1)
        scene = generate_planar_shape(spec)
        radial = scene.points[:, :2] / np.linalg.norm(scene.points[:, :2], axis=1, keepdims=True)
        assert np.max(np.abs(scene.normals[:, :2] - radial)) < 1e-9

    def test_square_points_on_perimeter(self):
        spec = ShapeSpec("square", {"side": 2.0}, sample_count=8, seed=0)
        scene = generate_planar_shape(spec)
        xy = np.abs(scene.points[:, :2])
        on_edge = np.abs(xy.max(axis=1) - 1.0) < 1e-9
        within = xy.min(axis=1) <= 1.0 + 1e-9
        assert np.all(on_edge & within)

    def test_square_normals_point_outward(self):
        spec = ShapeSpec("square", {"side": 2.0}, sample_count=40, seed=5)
        scene = generate_planar_shape(spec)
        # moving along the outward normal must leave the square
        outside = scene.points[:, :2] + 1e-6 * scene.normals[:, :2]
        assert np.all(np.max(np.abs(outside), axis=1) > 1.0)

    def test_triangle_normals_point_outward(self):
        spec = ShapeSpec("triangle", {"side": 1.5}, sample_count=33, seed=2)
        scene = generate_planar_shape(spec)
        centroid = scene.points[:, :2].mean(axis=0)
        away = scene.points[:, :2] - centroid
        dots = np.sum(scene.normals[:, :2] * away, axis=1)
        assert np.all(dots > 0.0)

    def test_composite_removes_interior_boundary(self):
        comps = (
            {"kind": "circle", "parameters": {"radius": 1.0, "center": (0.0, 0.0)}},
            {"kind": "circle", "parameters": {"radius": 1.0, "center": (1.2, 0.0)}},
        )
        spec = ShapeSpec("composite", {}, sample_count=400, seed=7, components=comps)
        scene = generate_planar_shape(spec)
        pts = scene.points[:, :2]
        # brute-force union-boundary check against each disk
        for center in ((0.0, 0.0), (1.2, 0.0)):
            d = np.linalg.norm(pts - np.asarray(center), axis=1)
            on_this = np.abs(d - 1.0) < 1e-9
            strictly_inside = d < 1.0 - 1e-9
            assert not np.any(strictly_inside & ~on_this)
        assert len(pts) <= 400

    def test_composite_requires_components(self):
        with pytest.raises(ValueError):
            ShapeSpec("composite", {}, sample_count=10, seed=0)

    def test_determinism(self):
        spec = ShapeSpec("triangle", {"side": 1.0}, sample_count=50, seed=123)
        a = generate_planar_shape(spec)
        b = generate_planar_shape(spec)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.normals, b.normals)

    def test_seed_changes_phase(self):
        a = generate_planar_shape(ShapeSpec("circle", {"radius": 1.0}, 10, seed=0))
        b = generate_planar_shape(ShapeSpec("circle", {"radius": 1.0}, 10, seed=1))
        assert not np.array_equal(a.points, b.points)

    def test_planar_invariants(self):
        spec = ShapeSpec("square", {"side": 0.5}, sample_count=20, seed=9)
        scene = generate_planar_shape(spec)
        assert scene.mode == PLANAR2D
        assert np.all(scene.points[:, 2] == 0.0)
        assert np.all(scene.normals[:, 2] == 0.0)
        assert np.allclose(np.linalg.norm(scene.normals, axis=1), 1.0, atol=1e-9)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ShapeSpec("circle", {"radius": -1.0}, sample_count=10)
        with pytest.raises(ValueError):
            ShapeSpec("circle", {"radius": 1.0}, sample_count=2)
        with pytest.raises(ValueError):
            ShapeSpec("blob", {"radius": 1.0}, sample_count=10)

    def test_external_kind_rejected_at_construction(self):
        # point clouds come from load_scene; no generator kind stands for them
        with pytest.raises(ValueError, match="unknown shape kind"):
            ShapeSpec("external", {}, 10)


class TestSceneInvariants:
    def test_bounds_must_contain_points(self):
        pts = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        nrm = np.tile([1.0, 0.0, 0.0], (2, 1))
        with pytest.raises(ValueError):
            TargetScene(pts, nrm, VOLUMETRIC3D, np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]))

    def test_non_unit_normals_rejected(self):
        pts = np.zeros((1, 3))
        with pytest.raises(ValueError):
            TargetScene(pts, np.array([[2.0, 0.0, 0.0]]), VOLUMETRIC3D,
                        np.zeros((2, 3)))


class TestVoxelize:
    def test_single_point_single_voxel(self):
        pts = np.array([[0.3, 0.3, 0.3]])
        nrm = np.array([[0.0, 0.0, 1.0]])
        scene = TargetScene(pts, nrm, VOLUMETRIC3D, np.stack([pts[0], pts[0]]))
        grid = voxelize(scene, resolution=1.0)
        assert len(grid) == 1
        assert list(grid.members[0]) == [0]

    def test_two_distant_points_two_voxels(self):
        res = 0.25
        pts = np.array([[0.0, 0.0, 0.0], [10 * res, 0.0, 0.0]])
        nrm = np.tile([0.0, 0.0, 1.0], (2, 1))
        scene = TargetScene(pts, nrm, VOLUMETRIC3D, np.stack([pts.min(0), pts.max(0)]))
        grid = voxelize(scene, resolution=res)
        assert len(grid) == 2

    def test_sphere_partition(self):
        pts = unit_sphere_cloud(500, seed=4)
        scene = TargetScene(pts, pts.copy(), VOLUMETRIC3D, np.stack([pts.min(0), pts.max(0)]))
        grid = voxelize(scene, resolution=1.0 / 8.0)
        counts = np.zeros(len(pts), dtype=int)
        for mem in grid.members:
            assert len(mem) >= 1
            counts[mem] += 1
        assert np.all(counts == 1)

    def test_voxel_normals_are_mean_of_members(self):
        pts = np.array([[0.0, 0.0, 0.0], [0.01, 0.0, 0.0]])
        a = np.array([1.0, 0.0, 0.0])
        b = np.array([0.0, 1.0, 0.0])
        scene = TargetScene(pts, np.stack([a, b]), VOLUMETRIC3D,
                            np.stack([pts.min(0), pts.max(0)]))
        grid = voxelize(scene, resolution=1.0)
        expect = (a + b) / np.linalg.norm(a + b)
        assert np.allclose(grid.normals[0], expect)

    def test_cancelling_normals_fall_back_to_nearest_member(self):
        pts = np.array([[0.2, 0.0, 0.0], [0.9, 0.0, 0.0]])
        nrm = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
        scene = TargetScene(pts, nrm, VOLUMETRIC3D, np.stack([pts.min(0), pts.max(0)]))
        grid = voxelize(scene, resolution=1.0)
        assert len(grid) == 1
        # cell center x = 0.2 + 0.5*1.0 = 0.7, nearer to the second point
        assert np.allclose(grid.normals[0], nrm[1])

    def test_cell_cap(self):
        pts = unit_sphere_cloud(50, seed=1)
        scene = TargetScene(pts, pts.copy(), VOLUMETRIC3D, np.stack([pts.min(0), pts.max(0)]))
        with pytest.raises(ValueError):
            voxelize(scene, resolution=1e-3, cell_cap=1000)

    def test_planar_voxel_centers_stay_on_plane(self):
        scene = generate_planar_shape(ShapeSpec("circle", {"radius": 1.0}, 200, seed=0))
        grid = voxelize(scene, resolution=0.1)
        assert np.all(grid.centers[:, 2] == 0.0)
        assert np.all(np.abs(grid.normals[:, 2]) < 1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 80),
        res=st.floats(0.05, 3.0),
    )
    def test_partition_property(self, seed, n, res):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-4.0, 4.0, size=(n, 3))
        nrm = rng.normal(size=(n, 3))
        nrm[np.linalg.norm(nrm, axis=1) < 1e-6] = (1.0, 0.0, 0.0)
        nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
        scene = TargetScene(pts, nrm, VOLUMETRIC3D, np.stack([pts.min(0), pts.max(0)]))
        grid = voxelize(scene, resolution=res, cell_cap=2**26)
        total = sum(len(m) for m in grid.members)
        assert total == n
        seen = np.concatenate([np.asarray(m) for m in grid.members])
        assert len(np.unique(seen)) == n
        assert np.allclose(np.linalg.norm(grid.normals, axis=1), 1.0, atol=1e-6)


class TestNormalEstimation:
    def test_sphere_normals_within_five_degrees(self):
        pts = unit_sphere_cloud(1000, seed=11)
        est = estimate_normals(pts, VOLUMETRIC3D)
        cosine = np.abs(np.sum(est * pts, axis=1))
        ok = np.degrees(np.arccos(np.clip(cosine, -1.0, 1.0))) <= 5.0
        assert ok.mean() >= 0.95
        # orientation: flipped away from centroid means outward here
        assert (np.sum(est * pts, axis=1) > 0).mean() >= 0.95


class TestCloudIO:
    def test_ascii_ply_roundtrip(self, tmp_path):
        pts = unit_sphere_cloud(20, seed=2)
        colors = np.tile([255, 0, 0], (20, 1))
        path = tmp_path / "cloud.ply"
        cloudio.write_ply_rgb(path, pts, colors, normals=pts)
        rpts, rnrm, faces = cloudio.read_ply(path)
        assert faces is None
        assert np.allclose(rpts, pts, atol=1e-6)
        assert np.allclose(rnrm, pts, atol=1e-6)

    def test_binary_ply(self, tmp_path):
        pts = np.array([[0.0, 0.5, 1.0], [1.0, 2.0, 3.0]], dtype=np.float64)
        path = tmp_path / "bin.ply"
        header = (
            "ply\nformat binary_little_endian 1.0\n"
            "element vertex 2\n"
            "property float x\nproperty float y\nproperty float z\n"
            "end_header\n"
        )
        with open(path, "wb") as fh:
            fh.write(header.encode("ascii"))
            for p in pts:
                fh.write(struct.pack("<fff", *p))
        rpts, rnrm, _ = cloudio.read_ply(path)
        assert rnrm is None
        assert np.allclose(rpts, pts, atol=1e-6)

    def test_obj_read_and_face_sampling(self, tmp_path):
        path = tmp_path / "tri.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
        pts, nrm, faces = cloudio.read_obj(path)
        assert len(pts) == 3 and faces == [(0, 1, 2)]
        sampled, snrm = cloudio.sample_faces(pts, faces, 200, seed=0)
        assert sampled.shape == (200, 3)
        assert np.allclose(sampled[:, 2], 0.0)
        assert np.all(sampled[:, 0] >= -1e-12) and np.all(sampled[:, 1] >= -1e-12)
        assert np.all(sampled.sum(axis=1) <= 1.0 + 1e-9)
        assert np.allclose(np.abs(snrm[:, 2]), 1.0)

    def test_unsupported_extension(self, tmp_path):
        path = tmp_path / "cloud.xyz"
        path.write_text("0 0 0\n")
        with pytest.raises(ValueError):
            cloudio.read_point_file(path)


class TestLoadScene:
    def test_explicit_normals_pass_through(self, tmp_path):
        pts = np.eye(3)
        nrm = np.eye(3)
        path = tmp_path / "three.ply"
        with open(path, "w") as fh:
            fh.write("ply\nformat ascii 1.0\nelement vertex 3\n")
            fh.write("property double x\nproperty double y\nproperty double z\n")
            fh.write("property double nx\nproperty double ny\nproperty double nz\n")
            fh.write("end_header\n")
            for p, q in zip(pts, nrm):
                fh.write(" ".join(str(v) for v in (*p, *q)) + "\n")
        scene = load_scene(path)
        assert np.allclose(scene.points, pts)
        assert np.allclose(scene.normals, nrm)

    def test_oversized_normals_rescaled(self, tmp_path):
        path = tmp_path / "scaled.ply"
        with open(path, "w") as fh:
            fh.write("ply\nformat ascii 1.0\nelement vertex 2\n")
            fh.write("property double x\nproperty double y\nproperty double z\n")
            fh.write("property double nx\nproperty double ny\nproperty double nz\n")
            fh.write("end_header\n")
            fh.write("0 0 0 2 0 0\n")
            fh.write("1 0 0 0 0 2\n")
        scene = load_scene(path)
        assert np.allclose(np.linalg.norm(scene.normals, axis=1), 1.0)
        assert np.allclose(scene.normals[0], [1.0, 0.0, 0.0])

    def test_sphere_without_normals_estimated(self, tmp_path):
        pts = unit_sphere_cloud(1000, seed=8)
        path = tmp_path / "sphere.ply"
        with open(path, "w") as fh:
            fh.write("ply\nformat ascii 1.0\nelement vertex 1000\n")
            fh.write("property double x\nproperty double y\nproperty double z\n")
            fh.write("end_header\n")
            for p in pts:
                fh.write(f"{p[0]} {p[1]} {p[2]}\n")
        scene = load_scene(path)
        cosine = np.abs(np.sum(scene.normals * pts, axis=1))
        ok = np.degrees(np.arccos(np.clip(cosine, -1.0, 1.0))) <= 5.0
        assert ok.mean() >= 0.95

    def test_degenerate_cloud_rejected(self, tmp_path):
        path = tmp_path / "flat.ply"
        with open(path, "w") as fh:
            fh.write("ply\nformat ascii 1.0\nelement vertex 2\n")
            fh.write("property double x\nproperty double y\nproperty double z\n")
            fh.write("end_header\n0 0 0\n0 0 0\n")
        with pytest.raises(ValueError):
            load_scene(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_scene(tmp_path / "nope.ply")
