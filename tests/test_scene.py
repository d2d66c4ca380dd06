import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from camopt import cloudio
from camopt import scene as scene_mod
from camopt.attributes import ObservationAttributes
from camopt.field import CapturedCamera, PlacementLoss
from camopt.hybrid import IterationRecord
from camopt.metrics import EvaluationReport
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
from camopt.visibility import CameraPose, CameraRig, CoverageMatrix, default_intrinsics
from ingest_reference import voxel_members


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
        # each kind needs its own size parameter, present and positive
        for kind, parameters in (("circle", {}), ("square", {"radius": 1.0}),
                                 ("triangle", {"side": "wide"})):
            with pytest.raises(ValueError, match="strictly positive"):
                ShapeSpec(kind, parameters, sample_count=10)

    def test_external_kind_rejected_at_construction(self):
        # point clouds come from load_scene; no generator kind stands for them
        with pytest.raises(ValueError, match="unknown shape kind"):
            ShapeSpec("external", {}, 10)

    @pytest.mark.parametrize("component, message", [
        ({"kind": "circle", "parameters": {"radius": -1.0}}, "'radius'"),
        ({"kind": "square", "parameters": {"side": 0.0}}, "'side'"),
        ({"kind": "triangle", "parameters": {"side": float("nan")}}, "'side'"),
        ({"kind": "circle", "parameters": {}}, "'radius'"),
        ({"kind": "circle"}, "'radius'"),
        ({"kind": "composite", "parameters": {}}, "unknown shape kind"),
        ({"parameters": {"radius": 1.0}}, "unknown shape kind"),
        ("circle", "not a dict"),
    ])
    def test_composite_checks_each_component(self, component, message):
        # unchecked, a negative radius samples inward-facing points beyond
        # the requested count, and a missing one raises KeyError at sampling
        good = {"kind": "circle", "parameters": {"radius": 1.0, "center": (1.2, 0.0)}}
        with pytest.raises(ValueError, match=message):
            ShapeSpec("composite", {}, 100, seed=0, components=(good, component))


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
        assert np.array_equal(grid.keys, [[0, 0, 0]])
        assert np.array_equal(grid.centers, pts) and np.array_equal(grid.normals, nrm)

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
        keys, members = voxel_members(scene, 1.0 / 8.0)
        assert np.array_equal(grid.keys, keys)
        counts = np.zeros(len(pts), dtype=int)
        for mem in members:
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
        (mem,) = voxel_members(scene, 1.0)[1]
        assert mem.tolist() == [0, 1]
        expect = scene.normals[mem].sum(axis=0)
        assert np.allclose(grid.normals[0], expect / np.linalg.norm(expect))

    def test_cancelling_normals_fall_back_to_nearest_member(self):
        pts = np.array([[0.2, 0.0, 0.0], [0.9, 0.0, 0.0]])
        nrm = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
        scene = TargetScene(pts, nrm, VOLUMETRIC3D, np.stack([pts.min(0), pts.max(0)]))
        grid = voxelize(scene, resolution=1.0)
        assert len(grid) == 1
        # cell center x = 0.2 + 0.5*1.0 = 0.7, nearer to the second point
        assert np.allclose(grid.normals[0], nrm[1])

    def test_cell_cap(self, monkeypatch):
        pts = unit_sphere_cloud(50, seed=1)
        scene = TargetScene(pts, pts.copy(), VOLUMETRIC3D, np.stack([pts.min(0), pts.max(0)]))
        monkeypatch.setattr(scene_mod, "DEFAULT_VOXEL_CAP", 1000)
        with pytest.raises(ValueError):
            voxelize(scene, resolution=1e-3)

    @pytest.mark.parametrize("resolution", [2.0 ** -21, 1e-30, 5e-324])
    def test_cell_cap_counts_in_exact_integers(self, resolution):
        # on a unit cube 2**-21 implies 2**63 cells and 1e-30 implies 1e90, and
        # 5e-324 overflows the per-axis ratio: no count may wrap around in a
        # fixed-width integer and pass the cap
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        scene = TargetScene(pts, np.tile([0.0, 0.0, 1.0], (2, 1)), VOLUMETRIC3D, pts)
        with pytest.raises(ValueError, match="cap"):
            voxelize(scene, resolution=resolution)

    def test_cell_cap_is_inclusive(self, monkeypatch):
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        scene = TargetScene(pts, np.tile([0.0, 0.0, 1.0], (2, 1)), VOLUMETRIC3D, pts)
        monkeypatch.setattr(scene_mod, "DEFAULT_VOXEL_CAP", 1000)
        assert len(voxelize(scene, resolution=0.1)) == 2
        monkeypatch.setattr(scene_mod, "DEFAULT_VOXEL_CAP", 999)
        with pytest.raises(ValueError, match="cap"):
            voxelize(scene, resolution=0.1)

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
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scene_mod, "DEFAULT_VOXEL_CAP", 2**26)
            grid = voxelize(scene, resolution=res)
        keys, members = voxel_members(scene, res)
        assert np.array_equal(grid.keys, keys)
        total = sum(len(m) for m in members)
        assert total == n
        seen = np.concatenate(members)
        assert len(np.unique(seen)) == n
        assert np.allclose(np.linalg.norm(grid.normals, axis=1), 1.0, atol=1e-6)


class TestIdentityEquality:
    """Dataclasses that hold arrays compare and hash by identity: the
    generated field-wise __eq__ would raise on the arrays."""

    @pytest.mark.parametrize("make", [
        lambda: TargetScene(points=np.zeros((2, 3)), normals=np.tile([0.0, 0.0, 1.0], (2, 1)),
                            mode=VOLUMETRIC3D, bounds=np.zeros((2, 3))),
        lambda: voxelize(generate_planar_shape(ShapeSpec("circle", {"radius": 1.0}, 16))),
        lambda: CameraPose(np.zeros(3), [1.0, 0.0, 0.0, 0.0, 1.0, 0.0]),
        lambda: CameraRig((CameraPose(np.zeros(3), [1.0, 0.0, 0.0, 0.0, 1.0, 0.0]),),
                          default_intrinsics(1.0)),
        lambda: CoverageMatrix(np.ones((2, 3))),
        lambda: ObservationAttributes(np.zeros(2), np.zeros(2), np.zeros(2), K=2),
        lambda: PlacementLoss(1.0, np.zeros(3)),
        lambda: IterationRecord(0, "init", 1.0, np.zeros(3), 0.5, 0.5, (), 1.0),
        lambda: CapturedCamera(np.zeros((2, 3)), np.zeros((2, 3)), 1.0, False),
        lambda: EvaluationReport(0.5, 0.5, np.zeros(2), 1, 2),
    ], ids=["TargetScene", "VoxelGrid", "CameraPose", "CameraRig", "CoverageMatrix",
            "ObservationAttributes", "PlacementLoss", "IterationRecord", "CapturedCamera",
            "EvaluationReport"])
    def test_equal_contents_compare_by_identity(self, make):
        a, b = make(), make()
        assert a == a and a != b
        assert len({a, b, a}) == 2


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

    SQUARE = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 0.0]])

    def test_ascii_ply_faces_after_a_scalar_property(self, tmp_path):
        # the index list is not the face element's first property
        path = tmp_path / "mesh.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 4\n"
            "property float x\nproperty float y\nproperty float z\n"
            "element face 2\nproperty uchar flags\n"
            "property list uchar int vertex_indices\nend_header\n"
            + "".join(f"{x} {y} {z}\n" for x, y, z in self.SQUARE)
            + "7 3 0 1 2\n9 4 0 1 2 3\n")
        pts, _, faces = cloudio.read_ply(path)
        assert np.array_equal(pts, self.SQUARE)
        assert faces == [(0, 1, 2), (0, 1, 2), (0, 2, 3)]

    def test_binary_ply_faces_pick_vertex_indices_by_name(self, tmp_path):
        # a scalar and another list come first; a face element with one
        # list property under another name reads that list
        def write(path, face_props, face_rows):
            header = ("ply\nformat binary_little_endian 1.0\nelement vertex 4\n"
                      "property float x\nproperty float y\nproperty float z\n"
                      f"element face {len(face_rows)}\n{face_props}end_header\n")
            with open(path, "wb") as fh:
                fh.write(header.encode("ascii"))
                for point in self.SQUARE:
                    fh.write(struct.pack("<fff", *point))
                for row in face_rows:
                    fh.write(row)

        named = tmp_path / "named.ply"
        write(named, "property uchar flags\nproperty list uchar float texcoord\n"
                     "property list uchar int vertex_index\n",
              [struct.pack("<BB2fB4i", 1, 2, 0.5, 0.5, 4, 3, 2, 1, 0)])
        assert cloudio.read_ply(named)[2] == [(3, 2, 1), (3, 1, 0)]
        other = tmp_path / "other.ply"
        write(other, "property int material\nproperty list uchar uint corners\n",
              [struct.pack("<iB3I", 5, 3, 2, 3, 0)])
        assert cloudio.read_ply(other)[2] == [(2, 3, 0)]

    def test_obj_read_and_face_sampling(self, tmp_path):
        path = tmp_path / "tri.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
        pts, nrm, faces = cloudio.read_obj(path)
        assert len(pts) == 3 and faces == [(0, 1, 2)]
        sampled, snrm = cloudio.sample_faces(pts, faces, 200)
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


def write_malformed_ply(path, fmt, case):
    """A three-vertex PLY (float x y z) broken as `case` says: "truncated"
    (four vertices declared), "short row" and "long row" (the second row one
    value short or over), "no z" (only x and y declared)."""
    names = ["x", "y"] if case == "no z" else ["x", "y", "z"]
    rows = [[0.0, 0.5, 1.0], [1.0, 2.0, 3.0], [2.0, 0.0, 1.0]]
    rows = [row[:len(names)] for row in rows]
    if case == "short row":
        rows[1] = rows[1][:-1]
    if case == "long row":
        rows[1] = rows[1] + [4.0]
    count = 4 if case == "truncated" else 3
    header = (f"ply\nformat {fmt} 1.0\nelement vertex {count}\n"
              + "".join(f"property float {name}\n" for name in names) + "end_header\n")
    if fmt == "ascii":
        body = "".join(" ".join(map(str, row)) + "\n" for row in rows).encode("ascii")
    else:
        body = b"".join(struct.pack(f"<{len(row)}f", *row) for row in rows)
    path.write_bytes(header.encode("ascii") + body)
    return path


MALFORMED_PLY_CASES = [("ascii", "truncated"), ("ascii", "short row"), ("ascii", "long row"),
                       ("ascii", "no z"), ("binary_little_endian", "truncated"),
                       ("binary_little_endian", "short row"), ("binary_little_endian", "no z")]


class TestMalformedPly:
    @pytest.mark.parametrize("fmt, case", MALFORMED_PLY_CASES)
    def test_raises_value_error_naming_the_element(self, tmp_path, fmt, case):
        path = write_malformed_ply(tmp_path / "bad.ply", fmt, case)
        match = "'vertex' has no property 'z'" if case == "no z" else "PLY element 'vertex'"
        with pytest.raises(ValueError, match=match):
            cloudio.read_ply(path)

    @pytest.mark.parametrize("fmt", ["ascii", "binary_little_endian"])
    def test_truncated_face_list_names_the_face_element(self, tmp_path, fmt):
        header = (f"ply\nformat {fmt} 1.0\nelement vertex 3\nproperty float x\n"
                  "property float y\nproperty float z\nelement face 1\n"
                  "property list uchar int vertex_indices\nend_header\n").encode("ascii")
        if fmt == "ascii":
            body = b"0 0 0\n1 0 0\n0 1 0\n3 0 1\n"
        else:
            body = struct.pack("<9fB2i", 0, 0, 0, 1, 0, 0, 0, 1, 0, 3, 0, 1)
        path = tmp_path / "faces.ply"
        path.write_bytes(header + body)
        with pytest.raises(ValueError, match="PLY element 'face'"):
            cloudio.read_ply(path)

    def test_unknown_binary_type_is_named(self, tmp_path):
        path = tmp_path / "half.ply"
        path.write_bytes(b"ply\nformat binary_little_endian 1.0\nelement vertex 1\n"
                         b"property half x\nend_header\n\x00\x00")
        with pytest.raises(ValueError, match="PLY element 'vertex': unknown PLY type 'half'"):
            cloudio.read_ply(path)


class TestLoadScene:
    @pytest.mark.parametrize("kind", ["circle", "sphere"])
    def test_written_scene_loads_back_exactly(self, tmp_path, kind):
        # a generated scene written as PLY and loaded again has the
        # generator's points and normals to the last bit; load_scene divides
        # every normal by its length, as it does for the in-memory normals
        if kind == "circle":
            scene = generate_planar_shape(ShapeSpec("circle", {"radius": 1.0}, 2000, seed=0))
        else:
            pts = unit_sphere_cloud(3000, seed=0)
            scene = TargetScene(pts, pts.copy(), VOLUMETRIC3D,
                                np.stack([pts.min(axis=0), pts.max(axis=0)]))
        path = tmp_path / "scene.ply"
        cloudio.write_ply_rgb(path, scene.points, np.full(scene.points.shape, 128.0),
                              normals=scene.normals)
        points, normals, _ = cloudio.read_ply(path)
        np.testing.assert_array_equal(points, scene.points)
        np.testing.assert_array_equal(normals, scene.normals)
        loaded = load_scene(path, scene.mode)
        np.testing.assert_array_equal(loaded.points, scene.points)
        np.testing.assert_array_equal(
            loaded.normals, scene.normals / np.linalg.norm(scene.normals, axis=1)[:, None])

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

    @pytest.mark.parametrize("mode", [VOLUMETRIC3D, PLANAR2D])
    def test_only_degenerate_normals_are_estimated(self, tmp_path, monkeypatch, mode):
        import scipy.spatial
        pts = unit_sphere_cloud(2000, seed=4)
        if mode == PLANAR2D:
            pts[:, 2] = 0.0
            pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        nrm = pts.copy()
        bad = np.array([7, 1234])
        nrm[bad] = 0.0
        path = tmp_path / "cloud.ply"
        with open(path, "w") as fh:
            fh.write("ply\nformat ascii 1.0\nelement vertex 2000\n")
            fh.write("property double x\nproperty double y\nproperty double z\n")
            fh.write("property double nx\nproperty double ny\nproperty double nz\n")
            fh.write("end_header\n")
            for row in np.concatenate([pts, nrm], axis=1):
                fh.write(" ".join(repr(float(v)) for v in row) + "\n")
        sizes = []

        class SpyTree(scipy.spatial.cKDTree):
            def query(self, x, *args, **kwargs):
                sizes.append(len(x))
                return super().query(x, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(scipy.spatial, "cKDTree", SpyTree)
            scene = load_scene(path, mode)
        assert sizes == [len(bad)]
        points = cloudio.read_point_file(path)[0]
        full = estimate_normals(points, mode)
        np.testing.assert_array_equal(estimate_normals(points, mode, rows=bad), full[bad])
        np.testing.assert_allclose(scene.normals[bad], full[bad], atol=1e-12)
        np.testing.assert_allclose(np.delete(scene.normals, bad, axis=0),
                                   np.delete(nrm, bad, axis=0), atol=1e-12)

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
