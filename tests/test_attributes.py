import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from camopt.attributes import (
    PHI_CC_DEGENERATE,
    PHI_CO_DEGENERATE,
    attributes_from_coverage,
    remaining_coverage,
    shape_analyze,
    sup_vector,
)
from camopt.hybrid import initialize
from camopt.metrics import ANGLE_BAND_DEG, observation_angle_quality
from camopt.scene import ShapeSpec, VoxelGrid, generate_planar_shape, voxelize
from camopt.visibility import (
    CameraIntrinsics,
    CameraPose,
    CameraRig,
    CoverageMatrix,
    coverage_matrix,
    default_intrinsics,
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
    E = CoverageMatrix(entries)
    return E, positions, centers, normals


class TestRemainingCoverage:
    def make_E(self, counts):
        k = max(max(counts), 1)
        entries = np.zeros((k, len(counts)), dtype=np.int8)
        for j, n in enumerate(counts):
            entries[:n, j] = 1
        return CoverageMatrix(entries)

    def test_partially_seen(self):
        assert remaining_coverage(self.make_E([2]), 3)[0] == 1.0

    def test_overcovered_clamps_to_zero(self):
        assert remaining_coverage(self.make_E([5]), 3)[0] == 0.0

    def test_unseen(self):
        assert remaining_coverage(self.make_E([0]), 3)[0] == 3.0

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            sup_vector(0)
        with pytest.raises(ValueError):
            sup_vector(2.5)


def one_voxel_attributes(directions, normal=(0.0, 0.0, 1.0)):
    """Attributes of one voxel at the origin, seen by one camera at the tip of
    each given direction."""
    positions = np.asarray(directions, dtype=np.float64)
    entries = np.ones((len(positions), 1), dtype=np.int8)
    E = CoverageMatrix(entries)
    return attributes_from_coverage(E, positions, np.zeros((1, 3)),
                                    np.array([normal], dtype=np.float64), 3)


class TestPairAngles:
    def test_orthogonal_pair_is_ideal(self):
        assert one_voxel_attributes([[1, 0, 0], [0, 1, 0]]).phi_cc[0] == pytest.approx(0.0)

    def test_parallel_pair_is_worst(self):
        assert one_voxel_attributes([[1, 0, 0], [1, 0, 0]]).phi_cc[0] == pytest.approx(np.pi / 2)

    def test_three_mutually_orthogonal(self):
        assert one_voxel_attributes(np.eye(3)).phi_cc[0] == pytest.approx(0.0)

    def test_requires_two_vectors(self):
        assert one_voxel_attributes([[1, 0, 0]]).phi_cc[0] == PHI_CC_DEGENERATE


class TestObjectAngle:
    def test_head_on_observer(self):
        assert one_voxel_attributes([[0, 0, 1]]).phi_co[0] == pytest.approx(0.0)

    def test_perpendicular_observer(self):
        assert one_voxel_attributes([[1, 0, 0]]).phi_co[0] == pytest.approx(1.0)

    def test_symmetric_pair_about_normal(self):
        s = np.sqrt(0.5)
        dirs = [[s, 0, s], [-s, 0, s]]
        assert one_voxel_attributes(dirs).phi_co[0] == pytest.approx(0.0)

    def test_cancelling_directions_rejected(self):
        attrs = one_voxel_attributes([[1, 0, 0], [-1, 0, 0]])
        assert attrs.phi_co[0] == PHI_CO_DEGENERATE


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
        E2 = CoverageMatrix(E.entries[perm])
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


def loop_attributes(E, positions, centers, normals, K):
    """The per-voxel loop the grouped pass replaced, kept as its bit-exact
    reference."""
    m = centers.shape[0]
    phi_cc = np.full(m, PHI_CC_DEGENERATE)
    phi_co = np.full(m, PHI_CO_DEGENERATE)
    for j in range(m):
        rows = np.nonzero(E.entries[:, j])[0]
        if len(rows) == 0:
            continue
        offsets = positions[rows] - centers[j]
        dirs = offsets / np.linalg.norm(offsets, axis=1)[:, None]
        if len(dirs) >= 2:
            dots = dirs @ dirs.T
            angles = np.arccos(np.clip(dots[np.triu_indices(len(dirs), k=1)], -1.0, 1.0))
            phi_cc[j] = float(np.abs(np.pi / 2.0 - angles.mean()))
        resultant = dirs.sum(axis=0)
        length = np.linalg.norm(resultant)
        if length >= 1e-12:
            phi_co[j] = float(1.0 - np.dot(normals[j], resultant / length))
    return remaining_coverage(E, K), phi_cc, phi_co


def loop_angle_quality(positions, centers, E):
    """The per-voxel loop of observation_angle_quality, kept as its reference."""
    cos_hi = np.cos(np.deg2rad(ANGLE_BAND_DEG[0]))
    cos_lo = np.cos(np.deg2rad(ANGLE_BAND_DEG[1]))
    good = 0
    total = 0
    for j in np.nonzero(E.per_voxel_count >= 2)[0]:
        cams = np.nonzero(E.entries[:, j])[0]
        dirs = positions[cams] - centers[j]
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        dots = (dirs @ dirs.T)[np.triu_indices(len(cams), k=1)]
        good += int(np.sum((dots <= cos_hi + 1e-12) & (dots >= cos_lo - 1e-12)))
        total += dots.size
    return good / total if total else 0.0


class TestGroupedPassMatchesLoop:
    """The grouped pass must reproduce the per-voxel loop bit for bit, since
    seeded rigs depend on every attribute value."""

    def assert_matches_loop(self, rig, grid, E, K=3):
        positions = np.stack([p.position for p in rig.poses])
        attrs = attributes_from_coverage(E, positions, grid.centers, grid.normals, K)
        c, phi_cc, phi_co = loop_attributes(E, positions, grid.centers, grid.normals, K)
        assert np.array_equal(attrs.c, c)
        assert np.array_equal(attrs.phi_cc, phi_cc)
        assert np.array_equal(attrs.phi_co, phi_co)
        assert observation_angle_quality(rig, grid, E) == \
            loop_angle_quality(positions, grid.centers, E)

    def test_random_configs_with_many_pairs(self):
        # 6-11 cameras give voxels with 10 or more observer pairs, where the
        # summation order of a row mean depends on the memory layout
        for seed in range(40):
            rng = np.random.default_rng(seed)
            E, positions, centers, normals = random_coverage_config(
                seed, k=int(rng.integers(6, 12)), m=60)
            poses = tuple(pose_from_forward(p, -p) for p in positions)
            grid = VoxelGrid(resolution=0.1, centers=centers, normals=normals,
                             members=tuple(np.array([j]) for j in range(len(centers))),
                             keys=np.zeros((len(centers), 3), dtype=np.int64),
                             origin=centers.min(axis=0))
            self.assert_matches_loop(CameraRig(poses, default_intrinsics()), grid, E)

    def test_initialized_rig_on_circle(self):
        scene = generate_planar_shape(ShapeSpec("circle", {"radius": 1.0}, 2000, seed=0))
        grid = voxelize(scene, 0.0075)
        # seed 6 is the first initialization seed whose rig sees voxels
        # three times; coplanar cameras give near-parallel observer pairs
        rig = initialize(scene, 10, seed=6)
        E = coverage_matrix(rig, grid)
        assert E.per_voxel_count.max() == 3
        self.assert_matches_loop(rig, grid, E)
