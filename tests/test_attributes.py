import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from camopt.attributes import (
    CoverageThreshold,
    attributes_from_coverage,
    camera_to_camera_angle,
    camera_to_object_angle,
    remaining_coverage,
    shape_analyze,
    sup_vector,
)
from camopt.scene import ShapeSpec, generate_planar_shape, voxelize
from camopt.visibility import (
    CameraIntrinsics,
    CameraPose,
    CameraRig,
    CoverageMatrix,
    pose_from_forward,
)


def brute_force_attributes(E, positions, centers, normals, K):
    """Independent recomputation of the attribute triple, straight from the
    definitions. Deliberately written with plain loops."""
    m = centers.shape[0]
    c = np.zeros(m)
    phi_cc = np.zeros(m)
    phi_co = np.zeros(m)
    for j in range(m):
        observers = [i for i in range(E.shape[0]) if E[i, j] == 1]
        need = K - len(observers)
        c[j] = min(max(need, 0), K)
        dirs = []
        for i in observers:
            v = positions[i] - centers[j]
            dirs.append(v / np.linalg.norm(v))
        if len(dirs) < 2:
            phi_cc[j] = np.pi / 2
        else:
            acc = []
            for a in range(len(dirs)):
                for b in range(a + 1, len(dirs)):
                    acc.append(np.arccos(np.clip(np.dot(dirs[a], dirs[b]), -1, 1)))
            phi_cc[j] = abs(np.pi / 2 - sum(acc) / len(acc))
        if not dirs:
            phi_co[j] = 1.0
        else:
            resultant = np.sum(dirs, axis=0)
            norm = np.linalg.norm(resultant)
            if norm < 1e-12:
                phi_co[j] = 1.0
            else:
                phi_co[j] = 1.0 - np.dot(normals[j], resultant / norm)
    return c, phi_cc, phi_co


def random_coverage_config(seed, k=3, m=40):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-1, 1, size=(m, 3))
    normals = rng.normal(size=(m, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    positions = rng.uniform(-4, 4, size=(k, 3))
    entries = (rng.random((k, m)) < 0.5).astype(np.int8)
    # a camera sitting on a voxel center would make the direction undefined
    for i in range(k):
        for j in range(m):
            if np.linalg.norm(positions[i] - centers[j]) < 1e-6:
                entries[i, j] = 0
    E = CoverageMatrix(entries=entries, per_voxel_count=entries.sum(axis=0))
    return E, positions, centers, normals


class TestRemainingCoverage:
    def make_E(self, counts):
        k = max(max(counts), 1)
        entries = np.zeros((k, len(counts)), dtype=np.int8)
        for j, n in enumerate(counts):
            entries[:n, j] = 1
        return CoverageMatrix(entries=entries, per_voxel_count=entries.sum(axis=0))

    def test_partially_seen(self):
        assert remaining_coverage(self.make_E([2]), 3)[0] == 1.0

    def test_overcovered_clamps_to_zero(self):
        assert remaining_coverage(self.make_E([5]), 3)[0] == 0.0

    def test_unseen(self):
        assert remaining_coverage(self.make_E([0]), 3)[0] == 3.0

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            CoverageThreshold(0)
        with pytest.raises(ValueError):
            CoverageThreshold(2.5)


class TestPairAngles:
    def test_orthogonal_pair_is_ideal(self):
        assert camera_to_camera_angle([[1, 0, 0], [0, 1, 0]]) == pytest.approx(0.0)

    def test_parallel_pair_is_worst(self):
        assert camera_to_camera_angle([[1, 0, 0], [1, 0, 0]]) == pytest.approx(np.pi / 2)

    def test_three_mutually_orthogonal(self):
        assert camera_to_camera_angle(np.eye(3)) == pytest.approx(0.0)

    def test_requires_two_vectors(self):
        with pytest.raises(ValueError):
            camera_to_camera_angle([[1, 0, 0]])


class TestObjectAngle:
    def test_head_on_observer(self):
        assert camera_to_object_angle([[0, 0, 1]], [0, 0, 1]) == pytest.approx(0.0)

    def test_perpendicular_observer(self):
        assert camera_to_object_angle([[1, 0, 0]], [0, 0, 1]) == pytest.approx(1.0)

    def test_symmetric_pair_about_normal(self):
        s = np.sqrt(0.5)
        dirs = [[s, 0, s], [-s, 0, s]]
        assert camera_to_object_angle(dirs, [0, 0, 1]) == pytest.approx(0.0)

    def test_cancelling_directions_rejected(self):
        with pytest.raises(ValueError):
            camera_to_object_angle([[1, 0, 0], [-1, 0, 0]], [0, 0, 1])


class TestSup:
    def test_sup_vector(self):
        assert np.allclose(sup_vector(3), [3.0, np.pi / 2, 1.0])


class TestAttributesFromCoverage:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_brute_force(self, seed):
        E, positions, centers, normals = random_coverage_config(seed)
        attrs = attributes_from_coverage(E, positions, centers, normals, 3)
        c, cc, co = brute_force_attributes(E.entries, positions, centers, normals, 3)
        assert np.max(np.abs(attrs.c - c)) < 1e-9
        assert np.max(np.abs(attrs.phi_cc - cc)) < 1e-9
        assert np.max(np.abs(attrs.phi_co - co)) < 1e-9

    def test_rotation_equivariance(self):
        E, positions, centers, normals = random_coverage_config(99)
        base = attributes_from_coverage(E, positions, centers, normals, 3)
        from camopt.visibility import rotation_from_six
        rot = rotation_from_six([0.3, -1.2, 0.5, 2.0, 0.1, -0.7])
        rotated = attributes_from_coverage(
            E, positions @ rot.T, centers @ rot.T, normals @ rot.T, 3)
        assert np.max(np.abs(base.c - rotated.c)) < 1e-9
        assert np.max(np.abs(base.phi_cc - rotated.phi_cc)) < 1e-9
        assert np.max(np.abs(base.phi_co - rotated.phi_co)) < 1e-9

    def test_permutation_invariance(self):
        E, positions, centers, normals = random_coverage_config(7)
        base = attributes_from_coverage(E, positions, centers, normals, 3)
        perm = np.array([2, 0, 1])
        E2 = CoverageMatrix(entries=E.entries[perm],
                            per_voxel_count=E.entries[perm].sum(axis=0))
        shuffled = attributes_from_coverage(E2, positions[perm], centers, normals, 3)
        assert np.array_equal(base.c, shuffled.c)
        assert np.max(np.abs(base.phi_cc - shuffled.phi_cc)) < 1e-12
        assert np.max(np.abs(base.phi_co - shuffled.phi_co)) < 1e-12

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), k=st.integers(1, 6), K=st.integers(1, 5))
    def test_bounds_property(self, seed, k, K):
        E, positions, centers, normals = random_coverage_config(seed, k=k, m=25)
        attrs = attributes_from_coverage(E, positions, centers, normals, K)
        assert np.all((attrs.c >= 0) & (attrs.c <= K))
        assert np.all((attrs.phi_cc >= 0) & (attrs.phi_cc <= np.pi / 2 + 1e-12))
        assert np.all((attrs.phi_co >= 0) & (attrs.phi_co <= 2.0 + 1e-12))


class TestShapeAnalyze:
    def test_camera_seeing_nothing(self):
        scene = generate_planar_shape(ShapeSpec("circle", {"radius": 1.0}, 100, seed=0))
        grid = voxelize(scene, resolution=0.1)
        # camera far outside the range band sees nothing
        pose = pose_from_forward([50.0, 0.0, 0.0], [-1.0, 0.0, 0.0])
        intr = CameraIntrinsics(np.pi / 3, np.pi / 3, 0.1, 2.0)
        rig = CameraRig(poses=(pose,), intrinsics=intr)
        _, attrs = shape_analyze(rig, grid, 3)
        assert np.all(attrs.c == 3.0)
        assert np.all(attrs.phi_cc == np.pi / 2)
        assert np.all(attrs.phi_co == 1.0)

    def test_single_voxel_on_axis_camera(self):
        from camopt.scene import VoxelGrid
        grid = VoxelGrid(resolution=0.2, centers=np.array([[0.0, 0.0, 0.0]]),
                         normals=np.array([[0.0, 0.0, 1.0]]),
                         members=(np.array([0]),), keys=np.zeros((1, 3), dtype=np.int64),
                         origin=np.array([-0.1, -0.1, -0.1]))
        pose = pose_from_forward([0.0, 0.0, 1.0], [0.0, 0.0, -1.0], up_hint=(0, 1, 0))
        intr = CameraIntrinsics(np.pi / 2, np.pi / 2, 0.1, 5.0)
        rig = CameraRig(poses=(pose,), intrinsics=intr)
        _, attrs = shape_analyze(rig, grid, 3)
        assert attrs.c[0] == 2.0
        assert attrs.phi_cc[0] == np.pi / 2   # single observer: degenerate
        assert attrs.phi_co[0] == pytest.approx(0.0)

    def test_three_camera_circle_matches_oracle(self):
        scene = generate_planar_shape(ShapeSpec("circle", {"radius": 1.0}, 300, seed=3))
        grid = voxelize(scene, resolution=scene.default_resolution())
        assert 30 <= len(grid) <= 120
        intr = CameraIntrinsics(np.pi / 3, np.pi / 3, 0.2, 5.0)
        rng = np.random.default_rng(0)
        poses = []
        for _ in range(3):
            ang = rng.uniform(0, 2 * np.pi)
            pos = np.array([2.5 * np.cos(ang), 2.5 * np.sin(ang), 0.0])
            poses.append(pose_from_forward(pos, -pos))
        rig = CameraRig(poses=tuple(poses), intrinsics=intr)
        E, attrs = shape_analyze(rig, grid, 3)
        positions = np.stack([p.position for p in poses])
        c, cc, co = brute_force_attributes(E.entries, positions, grid.centers,
                                           grid.normals, 3)
        assert np.max(np.abs(attrs.c - c)) < 1e-9
        assert np.max(np.abs(attrs.phi_cc - cc)) < 1e-9
        assert np.max(np.abs(attrs.phi_co - co)) < 1e-9
        # with backface culling every observed voxel faces its observers
        observed = attrs.c < 3.0
        assert np.all(attrs.phi_co[observed] <= 1.0 + 1e-12)
