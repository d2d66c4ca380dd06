"""Whole-array ingestion equals the per-point references bit for bit.

`ingest_reference` keeps the row-at-a-time readers, writer, voxelizer and
normal estimator; every comparison here is on raw bytes, so a sign of zero
or a last-bit difference fails.
"""
import io
import struct

import numpy as np
import pytest

import ingest_reference as ref
from camopt import cloudio
from camopt.scene import (
    PLANAR2D,
    VOLUMETRIC3D,
    ShapeSpec,
    TargetScene,
    estimate_normals,
    generate_planar_shape,
    voxelize,
)


def scene_of(points, normals):
    return TargetScene(points, normals, VOLUMETRIC3D, np.stack([points.min(0), points.max(0)]))


def sphere_scene(seed, count=3000):
    """The sphere3d_hybrid benchmark scene."""
    pts = np.random.default_rng(seed).normal(size=(count, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return scene_of(pts, pts.copy())


def torus_scene(seed, count=3000, major=1.0, minor=0.35):
    """The torus3d_anneal_cli benchmark scene."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.0, 2.0 * np.pi, count)
    v = rng.uniform(0.0, 2.0 * np.pi, count)
    normals = np.stack([np.cos(v) * np.cos(u), np.cos(v) * np.sin(u), np.sin(v)], axis=1)
    ring = np.stack([np.cos(u), np.sin(u), np.zeros(count)], axis=1)
    return scene_of(major * ring + minor * normals, normals)


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_grid(grid, expected):
    assert grid.resolution == expected.resolution
    for name in ("centers", "normals", "keys", "origin"):
        assert same_bytes(getattr(grid, name), getattr(expected, name)), name


def cancelling_scene():
    # the first voxel's two normals cancel; the third point's voxel does not
    pts = np.array([[0.2, 0.0, 0.0], [0.9, 0.0, 0.0], [3.0, 0.5, 0.0]])
    nrm = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    return scene_of(pts, nrm)


def negative_zero_scene():
    # every normal's z is -0.0, so each voxel's z sum is a sum of negative zeros
    pts = np.array([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0], [2.0, 1.0, 0.0], [2.1, 1.0, 0.0]])
    nrm = np.array([[1.0, 0.0, -0.0], [0.0, 1.0, -0.0], [-0.0, 1.0, -0.0], [-1.0, -0.0, -0.0]])
    return scene_of(pts, nrm)


def single_point_scene():
    pts = np.array([[0.3, -0.2, 0.7]])
    return scene_of(pts, np.array([[0.0, 0.0, 1.0]]))


def below_bounds_scene():
    # the bounds admit a point up to 1e-12 below their minimum; its cell key is -1
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [0.5, -5e-13, 0.5], [-5e-13, 0.1, 0.9]])
    nrm = np.tile([0.0, 0.0, 1.0], (4, 1))
    return TargetScene(pts, nrm, VOLUMETRIC3D, np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]))


class TestVoxelizeMatchesReference:
    @pytest.mark.parametrize("make, resolution", [
        (lambda: generate_planar_shape(ShapeSpec("circle", {"radius": 1.0}, 2000, 0)), 0.0075),
        (lambda: sphere_scene(0), None),
        (lambda: torus_scene(0), None),
        (lambda: generate_planar_shape(ShapeSpec("square", {"side": 2.0}, 300, 5)), 0.1),
        (cancelling_scene, 1.0),
        (negative_zero_scene, 1.0),
        (single_point_scene, 1.0),
        (below_bounds_scene, 0.25),
    ], ids=["circle2d_hybrid", "sphere3d_hybrid", "torus3d_anneal_cli", "planar_square",
            "cancelling_normals", "negative_zero_normals", "single_point", "below_bounds"])
    def test_grid_is_bit_identical(self, make, resolution):
        scene = make()
        expected = ref.voxelize(scene, scene.default_resolution() if resolution is None
                                else resolution)
        assert_same_grid(voxelize(scene, resolution), expected)

    def test_point_below_the_bounds_keeps_its_negative_key(self):
        grid = voxelize(below_bounds_scene(), 0.25)
        assert grid.keys.tolist() == [[0, 0, 0], [3, 3, 3], [2, -1, 2], [-1, 0, 3]]

    def test_cancelling_voxel_takes_the_nearest_member_normal(self):
        grid = voxelize(cancelling_scene(), 1.0)
        assert same_bytes(grid.normals[0], np.array([-1.0, 0.0, 0.0]))


class TestEstimateNormalsMatchesReference:
    @pytest.mark.parametrize("points, mode", [
        (sphere_scene(3).points, VOLUMETRIC3D),
        (torus_scene(0).points, VOLUMETRIC3D),
        (generate_planar_shape(ShapeSpec("circle", {"radius": 1.0}, 500, 0)).points, PLANAR2D),
        (np.array([[0.1, 0.2, 0.3]]), VOLUMETRIC3D),
        (np.array([[0.1, 0.2, 0.0]]), PLANAR2D),
        (np.array([[0.0, 0.0, 0.0], [1.0, 0.5, 0.0], [0.2, 1.0, 0.3]]), VOLUMETRIC3D),
    ], ids=["sphere", "torus", "planar_outline", "one_point_k1", "one_point_k1_planar",
            "three_points"])
    def test_normals_are_bit_identical(self, points, mode):
        assert same_bytes(estimate_normals(points, mode), ref.estimate_normals(points, mode))


# vertex values that exercise the text and float32 conversions
EDGE_VALUES = [0.1, -0.0, 5e-324, 1e-300, 1e20, -2.5, 1.0 / 3.0, 123456.789]


def vertex_rows(count=12):
    rng = np.random.default_rng(7)
    rows = rng.normal(size=(count, 6))
    rows[:len(EDGE_VALUES) // 2, :2] = np.reshape(EDGE_VALUES, (-1, 2))
    return rows


def write_mesh_ply(path, fmt, rows):
    """float x y z, double nx ny nz and uchar rgb vertices, then faces whose
    index list follows a scalar property."""
    header = (f"ply\nformat {fmt} 1.0\ncomment made by a test\nelement vertex {len(rows)}\n"
              "property float x\nproperty float y\nproperty float z\n"
              "property double nx\nproperty double ny\nproperty double nz\n"
              "property uchar red\nproperty uchar green\nproperty uchar blue\n"
              "element face 3\nproperty uchar flags\n"
              "property list uchar int vertex_indices\nend_header\n").encode("ascii")
    faces = [(7, [0, 1, 2]), (9, [3, 4, 5, 6]), (1, [7, 8, 9, 10, 11])]
    if fmt == "ascii":
        body = "".join(" ".join(repr(float(v)) for v in row) + f" {i % 256} 0 255\n"
                       for i, row in enumerate(rows))
        body += "".join(f"{flag} {len(idx)} " + " ".join(map(str, idx)) + "\n"
                        for flag, idx in faces)
        body = body.encode("ascii")
    else:
        body = b"".join(struct.pack("<3f3d3B", *row, i % 256, 0, 255) for i, row in enumerate(rows))
        body += b"".join(struct.pack(f"<BB{len(idx)}i", flag, len(idx), *idx)
                         for flag, idx in faces)
    path.write_bytes(header + body)
    return path


HEADERS = [
    b"ply\nformat ascii 1.0\nelement vertex 2\nproperty float x\nend_header\n1\n2\n",
    b"ply\r\nformat binary_little_endian 1.0\r\ncomment a b\r\n\r\nobj_info scanner 7\r\n"
    b"element vertex 1\r\nproperty double x\r\nelement face 0\r\n"
    b"property list uchar int vertex_indices\r\nend_header\r\n\x00",
    b"ply\ncomment format binary_big_endian 1.0\nformat ascii 1.0\nend_header\n",
]


class TestParseHeaderMatchesReference:
    @pytest.mark.parametrize("header", HEADERS, ids=["ascii", "binary_crlf_comments", "comment"])
    def test_elements_and_body_offset(self, header):
        fh, ref_fh = io.BytesIO(header), io.BytesIO(header)
        assert cloudio._parse_ply_header(fh) == ref._parse_ply_header(ref_fh)
        assert fh.tell() == ref_fh.tell()

    @pytest.mark.parametrize("header", [
        b"plx\nformat ascii 1.0\nend_header\n",
        b"ply\nformat ascii 1.0\nelement vertex 1\n",
        b"ply\nformat binary_big_endian 1.0\nend_header\n",
        b"ply\nelement vertex 1\nend_header\n",
    ], ids=["not_ply", "unterminated", "big_endian", "no_format"])
    def test_same_errors(self, header):
        with pytest.raises(ValueError) as got:
            cloudio._parse_ply_header(io.BytesIO(header))
        with pytest.raises(ValueError) as want:
            ref._parse_ply_header(io.BytesIO(header))
        assert str(got.value) == str(want.value)


class TestReadPlyMatchesReference:
    def assert_same_read(self, path):
        points, normals, faces = cloudio.read_ply(path)
        ref_points, ref_normals, ref_faces = ref.read_ply(path)
        assert same_bytes(points, ref_points)
        assert (normals is None and ref_normals is None) or same_bytes(normals, ref_normals)
        assert faces == ref_faces

    @pytest.mark.parametrize("fmt", ["ascii", "binary_little_endian"])
    def test_mesh_with_float32_uchar_and_faces_after_a_scalar(self, tmp_path, fmt):
        path = write_mesh_ply(tmp_path / "mesh.ply", fmt, vertex_rows())
        self.assert_same_read(path)
        assert len(cloudio.read_ply(path)[2]) == 1 + 2 + 3

    def test_benchmark_torus_file(self, tmp_path):
        scene = torus_scene(0)
        path = tmp_path / "torus.ply"
        cloudio.write_ply_rgb(path, scene.points, np.full(scene.points.shape, 128.0),
                              normals=scene.normals)
        self.assert_same_read(path)

    def test_points_without_normals(self, tmp_path):
        path = tmp_path / "bare.ply"
        path.write_text("ply\nformat ascii 1.0\nelement vertex 3\nproperty double x\n"
                        "property double y\nproperty double z\nend_header\n"
                        "1 2 3\n-0 5e-324 1e-300\n\t4  5 6 \n")
        self.assert_same_read(path)


class TestWritePlyMatchesReference:
    @pytest.mark.parametrize("with_normals", [True, False])
    def test_bytes_are_identical(self, tmp_path, with_normals):
        points = torus_scene(1, count=200).points.copy()
        points[:6, 0] = [-0.0, 5e-324, 1e-300, 1e20, -1e-310, 2.5e-320]
        points[6:8, 1] = [np.inf, np.nan]
        normals = -points[::-1] if with_normals else None
        colors = np.random.default_rng(2).uniform(-20.0, 280.0, size=points.shape)
        colors[:4, 2] = [0.5, 1.5, 254.5, 255.49]
        ref.write_ply_rgb(tmp_path / "ref.ply", points, colors, normals=normals)
        cloudio.write_ply_rgb(tmp_path / "new.ply", points, colors, normals=normals)
        assert (tmp_path / "new.ply").read_bytes() == (tmp_path / "ref.ply").read_bytes()
