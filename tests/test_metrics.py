import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camopt.attributes import attributes_from_coverage
from camopt.metrics import (
    EvaluationReport,
    coverage_optimality_gap,
    evaluate_rig,
    observation_angle_quality,
    rescore,
    score_terms,
)
from camopt.scene import VoxelGrid
from camopt.visibility import (CameraRig, CoverageMatrix, default_intrinsics, pose_from_forward,
                               replace_row)


def cov(entries):
    entries = np.asarray(entries)
    return CoverageMatrix(entries)


def grid_at(centers):
    centers = np.atleast_2d(np.asarray(centers, dtype=np.float64))
    m = len(centers)
    normals = np.tile([0.0, 0.0, 1.0], (m, 1))
    origin = centers.min(axis=0) - 0.5
    return VoxelGrid(resolution=1.0, centers=centers, normals=normals,
                     keys=np.floor(centers - origin).astype(np.int64),
                     origin=origin)


def rig_at(positions):
    poses = []
    for p in np.atleast_2d(np.asarray(positions, dtype=np.float64)):
        fwd = -p if np.linalg.norm(p) > 1e-9 else np.array([1.0, 0.0, 0.0])
        poses.append(pose_from_forward(p, fwd))
    return CameraRig(tuple(poses), default_intrinsics())


class TestCoverageGap:
    def test_fully_covered_is_zero(self):
        E = cov(np.ones((3, 8), dtype=int))
        assert coverage_optimality_gap(E, 3) == 0.0

    def test_uncovered_is_one(self):
        E = cov(np.zeros((2, 5), dtype=int))
        assert coverage_optimality_gap(E, 3) == 1.0

    def test_half_covered_is_half(self):
        entries = np.zeros((3, 10), dtype=int)
        entries[:, :5] = 1
        assert coverage_optimality_gap(cov(entries), 3) == 0.5

    def test_partial_deficit_squares(self):
        # K=3, one voxel seen twice: deficit 1 -> 1/9 of that voxel's full gap
        E = cov(np.array([[1], [1], [0]]))
        assert coverage_optimality_gap(E, 3) == pytest.approx(1.0 / 9.0)

    def test_overcoverage_does_not_go_negative(self):
        E = cov(np.ones((5, 4), dtype=int))
        assert coverage_optimality_gap(E, 2) == 0.0

    def test_zero_iff_requirement_met(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            entries = (rng.random((4, 12)) < 0.5).astype(int)
            E = cov(entries)
            uc = coverage_optimality_gap(E, 3)
            assert 0.0 <= uc <= 1.0
            assert (uc == 0.0) == bool(np.all(E.per_voxel_count >= 3))

    @given(st.integers(0, 2 ** 18 - 1), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_extra_camera_never_hurts(self, bits, K):
        base = np.array([int(b) for b in format(bits, "018b")]).reshape(3, 6)
        extra = np.vstack([base, (np.arange(6) % 2)])
        assert coverage_optimality_gap(cov(extra), K) <= \
            coverage_optimality_gap(cov(base), K) + 1e-15


class TestAngleQuality:
    def test_orthogonal_pair_is_perfect(self):
        grid = grid_at([[0.0, 0.0, 0.0]])
        rig = rig_at([[2.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        E = cov([[1], [1]])
        assert observation_angle_quality(rig, grid, E) == 1.0

    def test_narrow_pair_is_zero(self):
        grid = grid_at([[0.0, 0.0, 0.0]])
        a = np.deg2rad(10.0)
        rig = rig_at([[2.0, 0.0, 0.0], [2.0 * np.cos(a), 2.0 * np.sin(a), 0.0]])
        E = cov([[1], [1]])
        assert observation_angle_quality(rig, grid, E) == 0.0

    def test_three_observers_two_of_three_pairs(self):
        grid = grid_at([[0.0, 0.0, 0.0]])
        rig = rig_at([[2.0, 0.0, 0.0], [0.0, 2.0, 0.0], [-2.0, 0.0, 0.0]])
        E = cov([[1], [1], [1]])
        assert observation_angle_quality(rig, grid, E) == pytest.approx(2.0 / 3.0)

    def test_no_pairs_gives_zero(self):
        grid = grid_at([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        rig = rig_at([[3.0, 0.0, 0.0]])
        E = cov([[1, 1]])
        assert observation_angle_quality(rig, grid, E) == 0.0

    def test_pooled_not_per_voxel_average(self):
        # voxel A: one good pair; voxel B: three observers, all bad pairs.
        # Pooled: 1 good of 4 total; per-voxel averaging would give 1/2.
        grid = grid_at([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]])
        rig = rig_at([[2.0, 0.0, 0.0], [0.0, 2.0, 0.0],
                      [12.0, 0.0, 0.0], [12.1, 0.05, 0.0], [12.0, -0.05, 0.0]])
        E = cov([[1, 0], [1, 0], [0, 1], [0, 1], [0, 1]])
        assert observation_angle_quality(rig, grid, E) == pytest.approx(0.25)

    def test_camera_on_voxel_center_rejected(self):
        # the pairs of the coincident camera have no direction; attributes
        # reject the same coverage
        grid = grid_at([[0.0, 0.0, 0.0]])
        rig = rig_at([[2.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 0.0]])
        E = cov([[1], [1], [1]])
        with pytest.raises(ValueError, match="coincides"):
            observation_angle_quality(rig, grid, E)
        positions = np.stack([pose.position for pose in rig.poses])
        with pytest.raises(ValueError, match="coincides"):
            attributes_from_coverage(E, positions, grid.centers, grid.normals, 3)

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(3)
        centers = rng.uniform(-1, 1, (6, 3))
        cams = rng.uniform(-4, 4, (4, 3))
        entries = (rng.random((4, 6)) < 0.6).astype(int)
        E = cov(entries)
        q = observation_angle_quality(rig_at(cams), grid_at(centers), E)
        theta = 0.7
        R = np.array([[np.cos(theta), -np.sin(theta), 0],
                      [np.sin(theta), np.cos(theta), 0], [0, 0, 1.0]])
        t = np.array([5.0, -2.0, 1.5])
        q2 = observation_angle_quality(rig_at(cams @ R.T + t),
                                       grid_at(centers @ R.T + t), E)
        assert q2 == pytest.approx(q, abs=1e-12)


class TestScoreTerms:
    """Counting again only the voxels whose observer rays changed gives the
    terms, and so the scores, of counting every voxel."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_rescore_after_moving_one_camera_equals_a_full_count(self, data):
        k = data.draw(st.integers(1, 6))
        m = data.draw(st.integers(1, 30))
        K = data.draw(st.integers(1, 4))
        density = data.draw(st.floats(0.1, 0.9))
        cam = data.draw(st.integers(0, k - 1))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        centers = rng.uniform(-1.0, 1.0, (m, 3))
        positions = rng.uniform(-4.0, 4.0, (k, 3))
        E = cov(rng.random((k, m)) < density)
        terms = score_terms(positions, E, centers, K)
        moved = positions.copy()
        moved[cam] = rng.uniform(-4.0, 4.0, 3)
        E_moved = replace_row(E, cam, np.flatnonzero(rng.random(m) < density))
        voxels = np.flatnonzero(E.entries[cam] | E_moved.entries[cam])
        got = rescore(terms, moved, E_moved, centers, voxels)
        want = score_terms(moved, E_moved, centers, K)
        assert (got.K, got.deficit_squares, got.good_pairs, got.pairs) == (
            want.K, want.deficit_squares, want.good_pairs, want.pairs)
        np.testing.assert_array_equal(got.counts, want.counts)
        np.testing.assert_array_equal(got.good, want.good)
        assert (got.uc, got.angle_quality) == (
            coverage_optimality_gap(E_moved, K),
            observation_angle_quality(rig_at(moved), grid_at(centers), E_moved))


class TestEvaluateRig:
    def test_report_fields_consistent(self):
        grid = grid_at([[0.0, 0.0, 0.0], [0.4, 0.0, 0.0]])
        rig = rig_at([[0.2, 3.0, 0.0]])
        report = evaluate_rig(rig, grid, K=2)
        assert report.camera_count == 1
        assert report.voxel_count == 2
        assert len(report.per_voxel_coverage) == 2
        assert 0.0 <= report.uc <= 1.0

    def test_report_validation(self):
        with pytest.raises(ValueError):
            EvaluationReport(uc=-0.1, angle_quality=0.5,
                             per_voxel_coverage=np.zeros(1), camera_count=1, voxel_count=1)
        with pytest.raises(ValueError):
            EvaluationReport(uc=0.1, angle_quality=1.5,
                             per_voxel_coverage=np.zeros(1), camera_count=1, voxel_count=1)
