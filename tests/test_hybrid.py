"""Hybrid optimizer: initialization, the two phases, and the full loop."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from camopt import hybrid, visibility
from camopt.attributes import shape_analyze
from camopt.field import lean_neof, placement_loss
from camopt.hybrid import (
    BOUNDS_INFLATION,
    OptimizerConfig,
    OptimizationTrace,
    IterationRecord,
    grad_phase,
    initialize,
    non_grad_phase,
    optimize,
    step_update,
    worst_regions,
)
from camopt.metrics import coverage_optimality_gap
from camopt.scene import (
    PLANAR2D,
    VOLUMETRIC3D,
    ShapeSpec,
    TargetScene,
    _containment_test,
    generate_planar_shape,
    voxelize,
)
from camopt.visibility import (
    CameraRig,
    coverage_matrix,
    default_intrinsics,
    pose_from_forward,
    visible_set,
)


def circle_scene(radius=1.0, samples=96, seed=0):
    return generate_planar_shape(ShapeSpec("circle", {"radius": radius}, samples, seed=seed))


def two_lobe_scene(seed=0):
    # overlapping disks -> connected, non-convex outline
    comps = (
        {"kind": "circle", "parameters": {"radius": 0.8, "center": (0.0, 0.0)}},
        {"kind": "circle", "parameters": {"radius": 0.8, "center": (1.3, 0.0)}},
    )
    return generate_planar_shape(
        ShapeSpec("composite", {}, 160, seed=seed, components=comps))


def trained_field(rig, grid, K=3, seed=0):
    _, attrs = shape_analyze(rig, grid, K)
    return lean_neof(None, grid, attrs, seed=seed), attrs


class TestInitialize:
    def test_single_camera_inside_inflated_bounds(self):
        scene = circle_scene()
        rig = initialize(scene, 1, seed=0)
        assert len(rig.poses) == 1
        p = rig.poses[0].position
        center = scene.bounds.mean(axis=0)
        half = (scene.bounds[1] - scene.bounds[0]) / 2.0
        lo = center - 1.5 * np.maximum(half, 1e-9)
        hi = center + 1.5 * np.maximum(half, 1e-9)
        assert np.all(p[:2] >= lo[:2] - 1e-12) and np.all(p[:2] <= hi[:2] + 1e-12)
        assert np.linalg.norm(p[:2]) > 1.0 - 1e-9  # outside the disk hull
        assert p[2] == 0.0  # planar mode keeps cameras in-plane

    def test_same_seed_identical(self):
        scene = circle_scene()
        a = initialize(scene, 5, seed=42)
        b = initialize(scene, 5, seed=42)
        for pa, pb in zip(a.poses, b.poses):
            np.testing.assert_array_equal(pa.position, pb.position)
            np.testing.assert_array_equal(pa.rot6, pb.rot6)

    def test_different_seeds_differ(self):
        scene = circle_scene()
        a = initialize(scene, 5, seed=0)
        b = initialize(scene, 5, seed=1)
        assert any(not np.array_equal(pa.position, pb.position)
                   for pa, pb in zip(a.poses, b.poses))

    def test_positions_cover_all_quadrants(self):
        scene = circle_scene()
        center = scene.bounds.mean(axis=0)
        quadrants = set()
        for seed in range(100):
            rig = initialize(scene, 10, seed=seed)
            for pose in rig.poses:
                d = pose.position[:2] - center[:2]
                quadrants.add((d[0] >= 0, d[1] >= 0))
        assert len(quadrants) == 4

    def test_planar_orientation_stays_in_plane(self):
        scene = circle_scene()
        rig = initialize(scene, 8, seed=7)
        for pose in rig.poses:
            fwd = pose.rotation()[:, 2]
            assert abs(fwd[2]) < 1e-9


def volumetric_scene(points, normals):
    bounds = np.stack([points.min(axis=0), points.max(axis=0)])
    return TargetScene(points=points, normals=normals, mode=VOLUMETRIC3D, bounds=bounds)


def sphere_scene(count=1500, seed=0):
    pts = np.random.default_rng(seed).normal(size=(count, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return volumetric_scene(pts, pts.copy())


def torus_scene(count=1500, seed=0, major=1.0, minor=0.35):
    rng = np.random.default_rng(seed)
    u, v = rng.uniform(0.0, 2.0 * np.pi, (2, count))
    normals = np.stack([np.cos(v) * np.cos(u), np.cos(v) * np.sin(u), np.sin(v)], axis=1)
    ring = np.stack([np.cos(u), np.sin(u), np.zeros(count)], axis=1)
    return volumetric_scene(major * ring + minor * normals, normals)


class TestContainment:
    """The containment predicate must make the same decisions as locating
    the point in a Delaunay triangulation of the same points."""

    @pytest.mark.parametrize("make_scene", [
        lambda: circle_scene(samples=400, seed=3), sphere_scene, torus_scene],
        ids=["circle", "sphere", "torus"])
    def test_matches_delaunay_find_simplex(self, make_scene):
        from scipy.spatial import Delaunay

        scene = make_scene()
        planar = scene.mode == PLANAR2D
        dims = 2 if planar else 3
        center = scene.bounds.mean(axis=0)
        half = (scene.bounds[1] - scene.bounds[0]) / 2.0 * BOUNDS_INFLATION
        samples = np.random.default_rng(5).uniform(center - half, center + half,
                                                   size=(10_000, 3))
        inside = _containment_test(scene)
        got = np.array([inside(q) for q in samples])
        want = Delaunay(scene.points[:, :dims]).find_simplex(samples[:, :dims]) >= 0
        np.testing.assert_array_equal(got, want)
        assert 0 < want.sum() < len(want)

    @settings(max_examples=40, deadline=None)
    @given(dims=st.sampled_from([2, 3]), count=st.integers(4, 60),
           slab=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_random_clouds_match_delaunay_find_simplex(self, dims, count, slab, seed):
        from scipy.spatial import Delaunay

        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(count, dims))
        if slab:
            pts[:, -1] *= 0.02      # thin, but still of full rank
        normals = np.zeros((count, 3))
        normals[:, 0] = 1.0
        points = np.zeros((count, 3))
        points[:, :dims] = pts
        bounds = np.stack([points.min(axis=0), points.max(axis=0)])
        scene = TargetScene(points=points, normals=normals,
                            mode=PLANAR2D if dims == 2 else VOLUMETRIC3D, bounds=bounds)
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        center, half = (lo + hi) / 2.0, (hi - lo) / 2.0
        queries = np.concatenate([
            rng.uniform(center - BOUNDS_INFLATION * half, center + BOUNDS_INFLATION * half,
                        size=(100, dims)),
            rng.uniform(lo, hi, size=(100, dims)),
            rng.dirichlet(np.ones(count), size=20) @ pts,
        ])
        inside = _containment_test(scene)
        padded = np.zeros((len(queries), 3))
        padded[:, :dims] = queries
        got = np.array([inside(q) for q in padded])
        want = Delaunay(pts).find_simplex(queries) >= 0
        np.testing.assert_array_equal(got, want)

    def test_degenerate_clouds_have_no_predicate(self):
        def planar(points):
            pts = np.array(points, dtype=np.float64)
            normals = np.tile([0.0, 1.0, 0.0], (len(pts), 1))
            bounds = np.stack([pts.min(axis=0), pts.max(axis=0)])
            return TargetScene(points=pts, normals=normals, mode=PLANAR2D, bounds=bounds)

        up = np.tile([0.0, 0.0, 1.0], (3, 1))
        too_few_volumetric = volumetric_scene(np.eye(3), up)
        too_few_planar = planar([[0.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
        collinear_planar = planar([[x, 2.0 * x, 0.0] for x in range(6)])
        grid = np.array([[x, y, 0.5] for x in range(3) for y in range(3)], dtype=np.float64)
        coplanar_volumetric = volumetric_scene(grid, np.tile([0.0, 0.0, 1.0], (9, 1)))
        for scene in (too_few_volumetric, too_few_planar, collinear_planar,
                      coplanar_volumetric):
            assert _containment_test(scene) is None
        # without a predicate every sample is accepted
        assert len(initialize(coplanar_volumetric, 3, seed=0)) == 3


class TestDescentProperty:
    """Over random small planar scenes: accepted descent steps never raise
    the loss, and every committed swap strictly lowers it."""

    @settings(max_examples=5, deadline=None)
    @given(kind=st.sampled_from(["circle", "square", "triangle"]),
           samples=st.integers(24, 80), seed=st.integers(0, 10_000))
    def test_steps_never_raise_and_swaps_lower_the_loss(self, kind, samples, seed):
        size = {"radius": 1.0} if kind == "circle" else {"side": 2.0}
        scene = generate_planar_shape(ShapeSpec(kind, size, samples, seed=seed))
        config = OptimizerConfig(K=2, seed=seed, max_outer=2)
        grid = voxelize(scene, None)
        rig = initialize(scene, 4, seed)
        E, attrs = shape_analyze(rig, grid, config.K)
        field = lean_neof(None, grid, attrs, budget=20, seed=seed)
        start = placement_loss(field, rig, E, weights=config.weights)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hybrid, "INNER_STEP_CAP", 15)
            _, summary, _, _, _ = grad_phase(rig, field, grid, config, planar=True, E=E)
            assert summary.total <= start.total

            _, trace = optimize(scene, 4, config)
        for swap in trace.swaps:
            assert swap["loss_after"] < swap["loss_before"], swap


class TestGradPhase:
    def test_blind_rig_is_left_untouched(self):
        # nothing visible -> zero gradients -> Adam cannot move anything
        scene = circle_scene()
        grid = voxelize(scene, None)
        pose = pose_from_forward(np.array([5.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]))
        rig = CameraRig((pose,), default_intrinsics(scene.diagonal))
        field, _ = trained_field(rig, grid)
        cfg = OptimizerConfig()
        rig2, summary, grad_norms, steps, converged = grad_phase(rig, field, grid, cfg)
        np.testing.assert_array_equal(rig2.poses[0].position, pose.position)
        np.testing.assert_array_equal(rig2.poses[0].rot6, pose.rot6)
        assert converged and not coverage_matrix(rig, grid).entries.any()
        assert np.all(grad_norms == 0.0)

    def test_single_voxel_off_axis_loss_never_rises(self):
        pts = np.array([[0.0, 0.0, 0.0]])
        nrm = np.array([[1.0, 0.0, 0.0]])
        scene = TargetScene(pts, nrm, VOLUMETRIC3D, np.stack([pts[0], pts[0]]))
        grid = voxelize(scene, 0.25)
        pose = pose_from_forward(np.array([2.0, 0.3, 0.0]), np.array([-1.0, -0.15, 0.0]))
        rig = CameraRig((pose,), default_intrinsics())
        assert visible_set(pose, rig.intrinsics, grid)
        field, _ = trained_field(rig, grid)
        cfg = OptimizerConfig(weights=(0.0, 0.0, 1.0))
        _, summary, _, _, _ = grad_phase(rig, field, grid, cfg)
        L0 = summary.total
        # re-running from the result cannot end higher: steps are only accepted
        # when they do not increase the loss
        _, summary2, _, _, _ = grad_phase(rig, field, grid, cfg)
        assert summary2.total <= L0 + 1e-12

    def test_composite_ten_cameras_loss_drops_for_most_seeds(self):
        scene = two_lobe_scene()
        grid = voxelize(scene, None)
        wins = 0
        for seed in range(10):
            rig = initialize(scene, 10, seed=seed)
            field, _ = trained_field(rig, grid, seed=seed)
            E = coverage_matrix(rig, grid)
            L_init = placement_loss(field, rig, E, weights=(0.4, 0.3, 0.3)).total
            _, summary, _, _, _ = grad_phase(rig, field, grid, OptimizerConfig(),
                                             planar=True)
            if summary.total < L_init:
                wins += 1
        assert wins >= 9

    def test_tolerance_stop_carries_its_last_gradient_into_the_next_step(self, monkeypatch):
        # a phase that stops on eps_L leaves its last gradients unspent; the
        # first step of the next phase adds them to its own (the descent's
        # behaviour since the gradients were accumulated on pose tensors)
        scene = two_lobe_scene()
        grid = voxelize(scene, None)
        rig = initialize(scene, 6, seed=1)
        field, _ = trained_field(rig, grid, seed=1)
        cfg = OptimizerConfig(eps_L=1e3)
        opt = hybrid.PoseOptimizer(rig)
        rig1, _, _, steps, converged = grad_phase(rig, field, grid, cfg, planar=True, opt=opt)
        assert converged and steps == 1 and opt.carry.shape == (6, 9)
        carry = opt.carry.copy()

        fresh, stepped = [], []
        real_loss, real_step = hybrid.placement_loss_grads, hybrid.ad.adam_step

        def loss_spy(*args, **kwargs):
            out = real_loss(*args, **kwargs)
            fresh.append([g.copy() for g in out[1:]])
            return out

        def step_spy(theta, g, state):
            stepped.append(np.array(g))
            return real_step(theta, g, state)

        monkeypatch.setattr(hybrid, "placement_loss_grads", loss_spy)
        monkeypatch.setattr(hybrid.ad, "adam_step", step_spy)
        monkeypatch.setattr(hybrid, "INNER_STEP_CAP", 1)
        grad_phase(rig1, field, grid, OptimizerConfig(), planar=True, opt=opt)
        assert opt.carry is None
        # the (k, 9) gradient holds each camera's [position | rot6]
        want_pos, want_rot = fresh[0][0] + carry[:, :3], fresh[0][1] + carry[:, 3:]
        want_pos[:, 2] = 0.0
        want_rot[:, 2:] = 0.0
        np.testing.assert_array_equal(stepped[0][:, :3], want_pos)
        np.testing.assert_array_equal(stepped[0][:, 3:], want_rot)
        assert np.any(carry[:, :3] != 0) and np.any(fresh[0][0] != 0)

    def test_committed_swap_zeroes_exactly_its_cameras_moments(self, monkeypatch):
        # a committed swap of camera i forgets its Adam moments, elements
        # [9i, 9i + 9) of theta's camera-by-camera layout, and keeps every
        # other camera's
        resets = []
        real_sync = hybrid.PoseOptimizer.sync_from

        def sync_spy(opt, rig, reset_moments=()):
            before = (opt.adam.m.copy(), opt.adam.v.copy())
            real_sync(opt, rig, reset_moments)
            if reset_moments:
                resets.append((list(reset_moments), before,
                               (opt.adam.m.copy(), opt.adam.v.copy())))

        monkeypatch.setattr(hybrid.PoseOptimizer, "sync_from", sync_spy)
        # seed 1 commits swaps of some of the cameras, after descent steps
        optimize(circle_scene(), 6, OptimizerConfig(seed=1, max_outer=4))
        assert resets
        for cameras, before, after in resets:
            swapped = np.zeros(6 * 9, dtype=bool)
            for i in cameras:
                swapped[9 * i:9 * i + 9] = True
            for b, a in zip(before, after):
                assert b[swapped].any() and b[~swapped].any()
                assert not a[swapped].any()
                np.testing.assert_array_equal(a[~swapped], b[~swapped])

    def test_planar_masks_out_of_plane_motion(self):
        scene = circle_scene()
        grid = voxelize(scene, None)
        rig = initialize(scene, 4, seed=3)
        field, _ = trained_field(rig, grid)
        rig2, _, _, _, _ = grad_phase(rig, field, grid, OptimizerConfig(), planar=True)
        for pose in rig2.poses:
            assert pose.position[2] == 0.0


class TestNonGradPhase:
    @staticmethod
    def identical_views():
        """A rig whose cameras all get one view: no contribution spread, so
        no camera qualifies for relocation."""
        scene = circle_scene()
        grid = voxelize(scene, None)
        base = pose_from_forward(np.array([3.0, 0.0, 0.0]), np.array([-1.0, 0.0, 0.0]))
        rig = CameraRig((base, base, base), default_intrinsics(scene.diagonal))
        return (rig, *trained_field(rig, grid), grid)

    def test_no_candidates_leaves_rig_unchanged(self):
        rig, field, attrs, grid = self.identical_views()
        rig2, commits, _, _ = non_grad_phase(rig, field, grid, attrs, OptimizerConfig(),
                                             phase_converged=True)
        assert commits == []
        assert rig2 is rig

    def test_no_candidates_seeks_no_region_and_no_candidate_pose(self, monkeypatch):
        rig, field, attrs, grid = self.identical_views()
        calls = []

        def counting(name):
            real = getattr(hybrid, name)

            def counted(*args):
                calls.append(name)
                return real(*args)
            return counted

        for name in ("worst_regions", "_candidate_visible"):
            monkeypatch.setattr(hybrid, name, counting(name))
        _, commits, _, _ = non_grad_phase(rig, field, grid, attrs, OptimizerConfig(),
                                          phase_converged=True)
        assert commits == [] and calls == []

    def test_empty_camera_relocated_to_uncovered_cluster(self):
        scene = circle_scene()
        grid = voxelize(scene, None)
        # one camera staring into the void, the whole shape uncovered
        away = pose_from_forward(np.array([4.0, 4.0, 0.0]), np.array([1.0, 1.0, 0.0]))
        rig = CameraRig((away,), default_intrinsics(scene.diagonal))
        field, attrs = trained_field(rig, grid)
        cfg = OptimizerConfig(m=1)
        rig2, commits, _, _ = non_grad_phase(rig, field, grid, attrs, cfg,
                                             phase_converged=True)
        assert len(commits) == 1
        assert commits[0]["camera"] == 0
        assert commits[0]["loss_after"] < commits[0]["loss_before"]
        assert visible_set(rig2.poses[0], rig.intrinsics, grid)

    def test_two_lobe_commit_lands_above_uncovered_lobe(self):
        scene = two_lobe_scene()
        grid = voxelize(scene, None)
        intr = default_intrinsics(scene.diagonal)
        # close-range cameras ring the left lobe (saturating it at K=1) while
        # the right lobe stays dark; the last camera stares at nothing
        lobe = np.array([0.0, 0.0, 0.0])
        ring = [np.array([-1.6, 0.0, 0.0]), np.array([0.0, 1.6, 0.0]),
                np.array([0.0, -1.6, 0.0]), np.array([-1.2, 1.2, 0.0]),
                np.array([-1.2, -1.2, 0.0])]
        poses = [pose_from_forward(p, lobe - p) for p in ring]
        poses.append(pose_from_forward(np.array([-4.0, 4.0, 0.0]),
                                       np.array([-1.0, 1.0, 0.0])))
        rig = CameraRig(tuple(poses), intr)
        field, attrs = trained_field(rig, grid, K=1)
        # residual need must sit on the right lobe for the premise to hold
        needy_x = grid.centers[attrs.c > 0, 0]
        assert needy_x.size and needy_x.mean() > 0.65
        rig2, commits, _, _ = non_grad_phase(rig, field, grid, attrs, OptimizerConfig(K=1),
                                             phase_converged=True)
        assert commits, "expected at least one relocation"
        right_centroid = np.array([1.7, 0.0, 0.0])
        left_centroid = np.array([-0.4, 0.0, 0.0])
        moved = [c["position"] for c in commits]
        assert any(np.linalg.norm(p - right_centroid) < np.linalg.norm(p - left_centroid)
                   for p in moved)

    def test_commits_strictly_decrease_loss(self):
        scene = circle_scene()
        grid = voxelize(scene, None)
        rig = initialize(scene, 6, seed=11)
        field, attrs = trained_field(rig, grid, seed=11)
        _, commits, _, _ = non_grad_phase(rig, field, grid, attrs, OptimizerConfig(),
                                          phase_converged=True)
        assert commits
        for c in commits:
            assert c["loss_after"] < c["loss_before"]

    def test_returned_matrix_is_the_new_rigs(self):
        scene = circle_scene()
        grid = voxelize(scene, None)
        rig = initialize(scene, 6, seed=11)
        field, attrs = trained_field(rig, grid, seed=11)
        E = coverage_matrix(rig, grid)
        rig2, commits, E2, attrs2 = non_grad_phase(rig, field, grid, attrs, OptimizerConfig(),
                                                   E=E, phase_converged=True)
        assert commits
        want = coverage_matrix(rig2, grid)
        assert np.array_equal(E2.entries, want.entries)
        assert np.array_equal(E2.per_voxel_count, want.per_voxel_count)
        assert np.array_equal(attrs2.stack(), shape_analyze(rig2, grid, 3)[1].stack())
        assert np.array_equal(E.entries, coverage_matrix(rig, grid).entries)

    def test_camera_count_preserved(self):
        scene = circle_scene()
        grid = voxelize(scene, None)
        rig = initialize(scene, 7, seed=2)
        field, attrs = trained_field(rig, grid, seed=2)
        rig2, _, _, _ = non_grad_phase(rig, field, grid, attrs, OptimizerConfig(),
                                       phase_converged=True)
        assert len(rig2.poses) == 7


class TestResultPositions:
    """The benchmark's trace hooks read grad_phase(...)[3] as the inner step
    count, non_grad_phase(...)[1] as the commit list and optimize(...)[1] as
    the trace, so those tuple positions are part of the interface."""

    def test_phase_and_loop_results_keep_their_positions(self, monkeypatch):
        scene = circle_scene()
        grid = voxelize(scene, None)
        rig = initialize(scene, 6, seed=11)
        field, attrs = trained_field(rig, grid, seed=11)
        with monkeypatch.context() as mp:
            mp.setattr(hybrid, "INNER_STEP_CAP", 3)
            grad = grad_phase(rig, field, grid, OptimizerConfig(), planar=True)
        assert len(grad) == 5 and isinstance(grad[3], int) and 1 <= grad[3] <= 3
        non_grad = non_grad_phase(rig, field, grid, attrs, OptimizerConfig(),
                                  phase_converged=True)
        assert len(non_grad) == 4 and isinstance(non_grad[1], list) and non_grad[1]
        assert all(c.keys() >= {"camera", "loss_before", "loss_after"} for c in non_grad[1])
        run = optimize(scene, 3, OptimizerConfig(seed=0, max_outer=1))
        assert isinstance(run[1], OptimizationTrace)
        assert max(r.index for r in run[1].records) == 1


class TestWorstRegions:
    def test_regions_cover_distinct_areas(self):
        scene = circle_scene()
        grid = voxelize(scene, None)
        rig = CameraRig(
            (pose_from_forward(np.array([3.0, 0.0, 0.0]), np.array([-1.0, 0.0, 0.0])),),
            default_intrinsics(scene.diagonal))
        _, attrs = shape_analyze(rig, grid, 3)
        regions = worst_regions(grid, attrs, 4)
        assert 1 <= len(regions) <= 4
        cents = np.array([r[0] for r in regions])
        if len(cents) > 1:
            gaps = np.linalg.norm(cents[:, None] - cents[None], axis=2)
            assert gaps[np.triu_indices(len(cents), 1)].min() > 0.1

    def test_fully_satisfied_scene_has_no_regions(self):
        scene = circle_scene()
        grid = voxelize(scene, None)
        rig = CameraRig(
            (pose_from_forward(np.array([3.0, 0.0, 0.0]), np.array([-1.0, 0.0, 0.0])),),
            default_intrinsics(scene.diagonal))
        _, attrs = shape_analyze(rig, grid, 3)
        zeroed = type(attrs)(np.zeros_like(attrs.c), attrs.phi_cc, attrs.phi_co, attrs.K)
        assert worst_regions(grid, zeroed, 5) == []


class TestOptimize:
    def test_single_voxel_single_camera_reaches_full_coverage(self):
        pts = np.array([[0.0, 0.0, 0.0]])
        nrm = np.array([[0.0, 0.0, 1.0]])
        scene = TargetScene(pts, nrm, VOLUMETRIC3D, np.stack([pts[0], pts[0]]))
        cfg = OptimizerConfig(K=1, max_outer=3, seed=0)
        rig, trace = optimize(scene, 1, cfg)
        grid = voxelize(scene, None)
        E = coverage_matrix(rig, grid)
        assert coverage_optimality_gap(E, 1) == 0.0
        fwd = rig.poses[0].rotation()[:, 2]
        assert float(fwd @ nrm[0]) < -0.9  # staring down the normal

    def test_infinite_step_tolerance_stops_after_one_outer(self):
        scene = circle_scene()
        cfg = OptimizerConfig(eps_P=np.inf, max_outer=12, seed=1)
        _, trace = optimize(scene, 4, cfg)
        outer_indices = {r.index for r in trace.records if r.phase != "init"}
        assert outer_indices == {1}

    def test_identical_runs_identical_traces(self):
        scene = circle_scene()
        cfg = OptimizerConfig(seed=5, max_outer=4)
        rig_a, trace_a = optimize(scene, 5, cfg)
        rig_b, trace_b = optimize(scene, 5, cfg)
        assert len(trace_a.records) == len(trace_b.records)
        for ra, rb in zip(trace_a.records, trace_b.records):
            assert ra.index == rb.index and ra.phase == rb.phase
            assert ra.loss == rb.loss
            assert ra.uc == rb.uc and ra.angle_quality == rb.angle_quality
            for pa, pb in zip(ra.poses, rb.poses):
                np.testing.assert_array_equal(pa.position, pb.position)
                np.testing.assert_array_equal(pa.rot6, pb.rot6)
        for pa, pb in zip(rig_a.poses, rig_b.poses):
            np.testing.assert_array_equal(pa.position, pb.position)

    def test_trace_invariants_on_a_real_run(self):
        scene = circle_scene()
        cfg = OptimizerConfig(seed=0, max_outer=8)
        rig, trace = optimize(scene, 10, cfg)
        assert len(rig.poses) == 10
        for rec in trace.records:
            assert len(rec.poses) == 10
            assert np.isfinite(rec.loss)
        rm = trace.running_min_loss
        assert all(a >= b - 1e-15 for a, b in zip(rm, rm[1:]))
        for swap in trace.swaps:
            assert swap["loss_after"] < swap["loss_before"]
        # coverage must end far better than it started
        assert trace.records[-1].uc < trace.records[0].uc

    def test_ablation_switches(self):
        scene = circle_scene()
        cfg = OptimizerConfig(seed=2, max_outer=4)
        _, t_grad = optimize(scene, 6, cfg, non_grad_enabled=False)
        assert all(r.phase != "non_grad" for r in t_grad.records)
        _, t_ng = optimize(scene, 6, cfg, grad_enabled=False)
        assert all(r.inner_steps == 0 for r in t_ng.records)
        assert any(r.phase == "non_grad" for r in t_ng.records)

    def test_resampling_beats_descent_from_blind_starts(self):
        scene = circle_scene()
        cfg = OptimizerConfig(seed=4, max_outer=6)
        grid = voxelize(scene, None)
        _, t_hybrid = optimize(scene, 8, cfg)
        _, t_grad = optimize(scene, 8, cfg, non_grad_enabled=False)
        assert t_hybrid.records[-1].uc < t_grad.records[-1].uc

    def test_dense_circle_rig_does_not_collapse_into_one_sector(self):
        # with hidden-point removal in visibility, this run ended with all ten
        # cameras in one sector: uc 0.805 and a 350.6 degree bearing gap
        scene = circle_scene(samples=2000, seed=0)
        cfg = OptimizerConfig(K=3, seed=0, resolution=0.0075, max_outer=3)
        rig, trace = optimize(scene, 10, cfg)
        assert trace.records[-1].uc < 0.7
        xy = np.array([p.position[:2] for p in rig.poses]) - scene.points[:, :2].mean(axis=0)
        bearings = np.sort(np.degrees(np.arctan2(xy[:, 1], xy[:, 0])))
        gaps = np.diff(np.append(bearings, bearings[0] + 360.0))
        assert gaps.max() < 180.0

    @settings(max_examples=8, deadline=None)
    @given(k=st.integers(1, 4), seed=st.integers(0, 50))
    def test_terminates_and_conserves_k(self, k, seed):
        scene = generate_planar_shape(
            ShapeSpec("circle", {"radius": 1.0}, 32, seed=seed % 7))
        cfg = OptimizerConfig(seed=seed, max_outer=3)
        rig, trace = optimize(scene, k, cfg)
        assert len(rig.poses) == k
        assert len(trace.records) <= 1 + 2 * cfg.max_outer


class TestCandidateCache:
    """optimize keeps one run-scoped map from candidate pose to visible set."""

    CONFIG = OptimizerConfig(K=3, seed=0, resolution=0.0075, max_outer=3)

    @staticmethod
    def bench_circle():
        return circle_scene(samples=2000, seed=0)

    @pytest.fixture(scope="class")
    def counted_run(self):
        calls = {"hybrid": 0, "visibility": 0, "analyze": 0}
        candidates = set()
        orig_visible, orig_analyze, orig_regions = (
            hybrid.visible_set, hybrid.shape_analyze, hybrid._region_poses)

        def through(binding, fn):
            def counted(*args, **kwargs):
                calls[binding] += 1
                return fn(*args, **kwargs)
            return counted

        def regions(*args, **kwargs):
            poses = orig_regions(*args, **kwargs)
            candidates.update(p.position.tobytes() + p.rot6.tobytes() for p in poses)
            return poses

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hybrid, "visible_set", through("hybrid", orig_visible))
            mp.setattr(visibility, "visible_set", through("visibility", orig_visible))
            mp.setattr(hybrid, "shape_analyze", through("analyze", orig_analyze))
            mp.setattr(hybrid, "_region_poses", regions)
            rig, trace = optimize(self.bench_circle(), 10, self.CONFIG)
        return rig, trace, calls, len(candidates)

    def test_each_distinct_candidate_is_computed_once(self, counted_run):
        _, trace, calls, distinct = counted_run
        assert trace.swaps, "the run must reach the resampler to test its cache"
        assert calls["hybrid"] == distinct
        assert calls["hybrid"] + calls["visibility"] == 10 * calls["analyze"] + distinct

    def test_same_rig_and_trace_without_the_cache(self, counted_run, monkeypatch):
        rig, trace, _, _ = counted_run
        monkeypatch.setattr(
            hybrid, "_candidate_visible",
            lambda pose, intrinsics, grid, cache: np.array(
                sorted(visibility.visible_set(pose, intrinsics, grid)), dtype=np.intp))
        rig_b, trace_b = optimize(self.bench_circle(), 10, self.CONFIG)
        for pa, pb in zip(rig.poses, rig_b.poses):
            assert pa.position.tobytes() == pb.position.tobytes()
            assert pa.rot6.tobytes() == pb.rot6.tobytes()
        assert len(trace.records) == len(trace_b.records)
        for ra, rb in zip(trace.records, trace_b.records):
            assert (ra.index, ra.phase, ra.loss, ra.uc, ra.angle_quality,
                    ra.inner_steps, ra.commits) == \
                (rb.index, rb.phase, rb.loss, rb.uc, rb.angle_quality,
                 rb.inner_steps, rb.commits)
            assert np.array_equal(ra.components, rb.components)
            for pa, pb in zip(ra.poses, rb.poses):
                assert pa.position.tobytes() == pb.position.tobytes()
                assert pa.rot6.tobytes() == pb.rot6.tobytes()
        assert len(trace.swaps) == len(trace_b.swaps)
        for sa, sb in zip(trace.swaps, trace_b.swaps):
            assert sa.keys() == sb.keys()
            assert all(np.array_equal(sa[key], sb[key]) for key in sa)

    def test_cached_sets_are_frozen(self):
        scene = circle_scene()
        grid = voxelize(scene, None)
        pose = pose_from_forward([2.5, 0.0, 0.0], [-1.0, 0.0, 0.0])
        cache = {}
        first = hybrid._candidate_visible(pose, default_intrinsics(scene.diagonal), grid, cache)
        again = hybrid._candidate_visible(
            pose_from_forward([2.5, 0.0, 0.0], [-1.0, 0.0, 0.0]),
            default_intrinsics(scene.diagonal), grid, cache)
        assert again is first and len(cache) == 1
        assert isinstance(first, np.ndarray) and not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = -1
        assert first.tolist() == sorted(visible_set(pose, default_intrinsics(scene.diagonal),
                                                    grid))


class TestStepUpdate:
    def test_zero_for_identical_poses(self):
        rig = initialize(circle_scene(), 3, seed=0)
        assert step_update(rig.poses, rig.poses, 2.0) == 0.0

    def test_scales_position_change_by_diagonal(self):
        pose = pose_from_forward(np.zeros(3), np.array([1.0, 0.0, 0.0]))
        moved = pose_from_forward(np.array([1.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]))
        d_small = step_update((pose,), (moved,), 10.0)
        d_big = step_update((pose,), (moved,), 1.0)
        assert d_small == pytest.approx(0.1)
        assert d_big == pytest.approx(1.0)

    def test_rotation_contributes_geodesic_angle(self):
        pose = pose_from_forward(np.zeros(3), np.array([1.0, 0.0, 0.0]))
        turned = pose_from_forward(np.zeros(3), np.array([0.0, 1.0, 0.0]))
        assert step_update((pose,), (turned,), 1.0) == pytest.approx(np.pi / 2, abs=1e-9)


class TestConfigValidation:
    def test_rejects_bad_tolerances(self):
        with pytest.raises(ValueError):
            OptimizerConfig(eps_L=0.0)

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            OptimizerConfig(weights=(0.5, 0.5))
        with pytest.raises(ValueError):
            OptimizerConfig(weights=(-0.1, 0.5, 0.6))

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            OptimizerConfig(m=0)
        with pytest.raises(ValueError):
            OptimizerConfig(max_outer=0)

    def test_trace_rejects_camera_count_change(self):
        trace = OptimizationTrace()
        rig3 = initialize(circle_scene(), 3, seed=0)
        rig4 = initialize(circle_scene(), 4, seed=0)
        trace.add(IterationRecord(index=0, phase="init", loss=1.0,
                                  components=np.zeros(3), uc=1.0, angle_quality=0.0,
                                  poses=rig3.poses, wall_ms=0.0))
        with pytest.raises(ValueError):
            trace.add(IterationRecord(index=1, phase="grad", loss=1.0,
                                      components=np.zeros(3), uc=1.0, angle_quality=0.0,
                                      poses=rig4.poses, wall_ms=0.0))
