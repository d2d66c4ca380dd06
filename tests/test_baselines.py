"""Random-search and simulated-annealing reference optimizers."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import camopt.baselines as baselines
import camopt.visibility as visibility
from camopt.baselines import (
    W_VIS,
    AnnealConfig,
    _perturb,
    accept_proposal,
    random_search,
    rig_energy,
    simulated_annealing,
)
from camopt.cli import OPTIMIZERS, ExperimentConfig, run_cell
from camopt.hybrid import initialize
from camopt.metrics import evaluate_rig
from camopt.scene import (
    PLANAR2D,
    VOLUMETRIC3D,
    ShapeSpec,
    TargetScene,
    generate_planar_shape,
    voxelize,
)
from camopt.visibility import CameraPose, CameraRig, default_intrinsics

PLANE_TOLERANCE = 1e-9


def circle_scene(samples=96, seed=0):
    return generate_planar_shape(ShapeSpec("circle", {"radius": 1.0}, samples, seed=seed))


def lifted_circle(z, radius=3.0, samples=48):
    """A planar circle moved onto the plane at height z."""
    base = generate_planar_shape(ShapeSpec("circle", {"radius": radius}, samples, seed=0))
    pts = base.points + np.array([0.0, 0.0, z])
    return TargetScene(pts, base.normals, base.mode, np.stack([pts.min(axis=0), pts.max(axis=0)]))


def torus_scene(count=600, seed=0, major=1.0, minor=0.35):
    rng = np.random.default_rng(seed)
    u, v = rng.uniform(0.0, 2.0 * np.pi, (2, count))
    normals = np.stack([np.cos(v) * np.cos(u), np.cos(v) * np.sin(u), np.sin(v)], axis=1)
    pts = major * np.stack([np.cos(u), np.sin(u), np.zeros(count)], axis=1) + minor * normals
    return TargetScene(pts, normals, VOLUMETRIC3D, np.stack([pts.min(axis=0), pts.max(axis=0)]))


def full_rescore_anneal(scene, k, config, K=3):
    """Reference chain: the annealing loop that rescores every proposal from
    all k visible sets (evaluate_rig on the whole candidate rig)."""
    grid = voxelize(scene)
    rng = np.random.default_rng(config.seed)
    planar = scene.mode == PLANAR2D
    diag = scene.diagonal
    sigma_pos = config.perturb_scale * (diag if diag > 1e-9 else 1.0)

    def score(rig):
        report = evaluate_rig(rig, grid, K)
        return (W_VIS * report.uc - (1.0 - W_VIS) * report.angle_quality,
                report.uc, report.angle_quality)

    rig = initialize(scene, k, config.seed)
    energy, uc, aq = score(rig)
    best_rig, best = rig, (energy, uc, aq)

    def entry(temperature, accepted, proposals):
        return {"temperature": temperature, "energy": energy, "best_energy": best[0],
                "accepted": accepted, "proposals": proposals, "uc": uc, "angle_quality": aq,
                "best_uc": best[1], "best_angle_quality": best[2]}

    trace = [entry(config.T0, 0, 0)]
    T = config.T0
    while T > config.termination:
        accepted = 0
        for _ in range(config.steps_per_temp):
            cam = int(rng.integers(k))
            cand = _perturb(rig, cam, sigma_pos, config.perturb_scale, planar, rng)
            cand_score = score(cand)
            if accept_proposal(cand_score[0] - energy, T, rng):
                rig, (energy, uc, aq) = cand, cand_score
                accepted += 1
                if energy < best[0]:
                    best_rig, best = rig, cand_score
        trace.append(entry(T, accepted, config.steps_per_temp))
        T *= config.cooling
    return best_rig, trace


def pose_bytes(rig):
    return b"".join(p.position.tobytes() + p.rot6.tobytes() for p in rig.poses)


class TestRandomSearch:
    def test_single_trial_equals_initialize(self):
        scene = circle_scene()
        rig = random_search(scene, 5, trials=1, seed=9)
        ref = initialize(scene, 5, seed=9)
        for a, b in zip(rig.poses, ref.poses):
            np.testing.assert_array_equal(a.position, b.position)
            np.testing.assert_array_equal(a.rot6, b.rot6)

    def test_more_trials_never_worse(self):
        scene = circle_scene()
        grid = voxelize(scene, None)
        e1 = rig_energy(random_search(scene, 6, trials=1, seed=3), grid, 3)
        e100 = rig_energy(random_search(scene, 6, trials=100, seed=3), grid, 3)
        assert e100 <= e1

    def test_fifty_trials_beat_single_trial_median(self):
        scene = circle_scene()
        grid = voxelize(scene, None)
        singles, fifties = [], []
        for seed in range(10):
            s = random_search(scene, 10, trials=1, seed=seed)
            singles.append(evaluate_rig(s, grid, 3).uc)
            f = random_search(scene, 10, trials=50, seed=seed)
            fifties.append(evaluate_rig(f, grid, 3).uc)
        assert np.median(fifties) < np.median(singles)

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            random_search(circle_scene(), 3, trials=0, seed=0)

    def test_deterministic(self):
        scene = circle_scene()
        a = random_search(scene, 4, trials=7, seed=5)
        b = random_search(scene, 4, trials=7, seed=5)
        for pa, pb in zip(a.poses, b.poses):
            np.testing.assert_array_equal(pa.position, pb.position)


class TestAnnealConfig:
    def test_defaults_valid(self):
        cfg = AnnealConfig()
        assert cfg.T0 > cfg.termination > 0

    @pytest.mark.parametrize("kw", [
        {"cooling": 1.0},
        {"cooling": 0.0},
        {"T0": 1e-4, "termination": 1e-3},
        {"termination": 0.0},
        {"steps_per_temp": 0},
        {"perturb_scale": 0.0},
    ])
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
            AnnealConfig(**kw)


class TestAcceptance:
    def test_zero_delta_always_accepted(self):
        rng = np.random.default_rng(0)
        assert all(accept_proposal(0.0, t, rng) for t in (1.0, 0.1, 1e-6))

    def test_downhill_always_accepted(self):
        rng = np.random.default_rng(0)
        assert accept_proposal(-5.0, 1e-9, rng)

    def test_cold_limit_rejects_uphill(self):
        rng = np.random.default_rng(1)
        assert not any(accept_proposal(0.1, 1e-9, rng) for _ in range(1000))

    def test_acceptance_rate_matches_boltzmann(self):
        # statistical contract: +-0.03 of exp(-dE/T) over 10k proposals
        rng = np.random.default_rng(7)
        delta_e, T = 0.05, 0.5
        hits = sum(accept_proposal(delta_e, T, rng) for _ in range(10_000))
        assert abs(hits / 10_000 - math.exp(-delta_e / T)) <= 0.03


class TestSimulatedAnnealing:
    fast = AnnealConfig(T0=1.0, cooling=0.7, steps_per_temp=5,
                        termination=0.05, seed=0)

    def test_preserves_camera_count_and_validity(self):
        scene = circle_scene(samples=48)
        rig, trace = simulated_annealing(scene, 4, self.fast)
        assert len(rig.poses) == 4
        for pose in rig.poses:
            R = pose.rotation()
            np.testing.assert_allclose(R @ R.T, np.eye(3), atol=1e-9)

    def test_final_energy_never_above_initial(self):
        # the returned rig is the best seen, so this holds for every seed
        scene = circle_scene(samples=48)
        grid = voxelize(scene, None)
        wins = 0
        for seed in range(10):
            cfg = AnnealConfig(T0=1.0, cooling=0.7, steps_per_temp=5,
                               termination=0.05, seed=seed)
            rig, trace = simulated_annealing(scene, 4, cfg)
            if rig_energy(rig, grid, 3) <= trace[0]["energy"]:
                wins += 1
        assert wins >= 8

    def test_trace_best_energy_monotone(self):
        scene = circle_scene(samples=48)
        _, trace = simulated_annealing(scene, 3, self.fast)
        bests = [t["best_energy"] for t in trace]
        assert all(a >= b for a, b in zip(bests, bests[1:]))
        assert len(trace) > 1

    def test_temperature_schedule_respected(self):
        scene = circle_scene(samples=48)
        _, trace = simulated_annealing(scene, 3, self.fast)
        temps = [t["temperature"] for t in trace[1:]]
        for a, b in zip(temps, temps[1:]):
            assert b == pytest.approx(a * self.fast.cooling)
        assert temps[-1] > self.fast.termination

    def test_planar_scene_keeps_cameras_in_plane(self):
        scene = circle_scene(samples=48)
        rig, _ = simulated_annealing(scene, 4, self.fast)
        for pose in rig.poses:
            assert pose.position[2] == 0.0
            assert abs(pose.rotation()[2, 2]) < 1e-9

    def test_lifted_planar_scene_keeps_cameras_on_its_plane(self):
        # large enough that a camera at z = 0 still sees part of the circle, so a
        # camera pushed off the plane could improve the energy and be returned
        scene = lifted_circle(1.0)
        rig, trace = simulated_annealing(scene, 4, self.fast)
        assert sum(t["accepted"] for t in trace) > 0
        for pose in rig.poses:
            assert pose.position[2] == 1.0

    def test_deterministic(self):
        scene = circle_scene(samples=48)
        a, ta = simulated_annealing(scene, 3, self.fast)
        b, tb = simulated_annealing(scene, 3, self.fast)
        assert ta == tb
        for pa, pb in zip(a.poses, b.poses):
            np.testing.assert_array_equal(pa.position, pb.position)


class TestDeltaScoring:
    """The annealing loop rescores only the moved camera; the chain must be
    the one a full rescoring of every proposal gives."""
    cfg = dict(T0=0.5, cooling=0.6, steps_per_temp=4, termination=0.02)

    @pytest.mark.parametrize("make_scene", [lambda: circle_scene(samples=400),
                                            lambda: torus_scene()],
                             ids=["circle", "torus"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_chain_equals_full_rescoring(self, make_scene, seed):
        scene = make_scene()
        config = AnnealConfig(seed=seed, **self.cfg)
        rig, trace = simulated_annealing(scene, 5, config)
        ref_rig, ref_trace = full_rescore_anneal(scene, 5, config)
        assert trace == ref_trace
        assert pose_bytes(rig) == pose_bytes(ref_rig)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_one_visible_set_per_proposal(self, monkeypatch, seed):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        real = visibility.visible_set   # also reached through coverage_matrix
        monkeypatch.setattr(baselines, "visible_set", counting)
        monkeypatch.setattr(visibility, "visible_set", counting)
        k = 6
        _, trace = simulated_annealing(torus_scene(), k, AnnealConfig(seed=seed, **self.cfg))
        assert len(calls) == k + sum(t["proposals"] for t in trace)

    @pytest.mark.parametrize("make_scene", [lambda: circle_scene(samples=400),
                                            lambda: torus_scene()],
                             ids=["circle", "torus"])
    def test_every_proposal_matrix_equals_coverage_matrix(self, monkeypatch, make_scene):
        # the chain rewrites only the moved camera's row of the current
        # matrix; each scored matrix must be the full matrix of its rig
        scored = []
        real = baselines._score

        def recording(rig, grid, K, E):
            scored.append((rig, grid, E))
            return real(rig, grid, K, E)

        monkeypatch.setattr(baselines, "_score", recording)
        _, trace = simulated_annealing(make_scene(), 5, AnnealConfig(seed=2, **self.cfg))
        assert len(scored) == 1 + sum(t["proposals"] for t in trace)
        for rig, grid, E in scored:
            want = visibility.coverage_matrix(rig, grid)
            assert E.entries.dtype == want.entries.dtype
            assert np.array_equal(E.entries, want.entries)
            assert np.array_equal(E.per_voxel_count, want.per_voxel_count)

    def test_trace_rows_hold_the_energy_terms(self):
        scene = torus_scene()
        k, config = 5, AnnealConfig(seed=1, **self.cfg)
        _, trace = simulated_annealing(scene, k, config)
        for t in trace:
            assert t["energy"] == W_VIS * t["uc"] - (1.0 - W_VIS) * t["angle_quality"]
        report = evaluate_rig(initialize(scene, k, config.seed), voxelize(scene), 3)
        assert (trace[0]["uc"], trace[0]["angle_quality"]) == (report.uc, report.angle_quality)

    @pytest.mark.parametrize("make_scene", [lambda: circle_scene(samples=400),
                                            lambda: torus_scene()],
                             ids=["circle", "torus"])
    @pytest.mark.parametrize("seed", [0, 1, 4])
    def test_best_scores_equal_evaluate_rig_of_the_returned_rig(self, make_scene, seed):
        scene = make_scene()
        grid = voxelize(scene)
        rig, trace = simulated_annealing(scene, 5, AnnealConfig(seed=seed, **self.cfg),
                                         grid=grid)
        report = evaluate_rig(rig, grid, 3)
        assert (trace[-1]["best_uc"], trace[-1]["best_angle_quality"]) == (
            report.uc, report.angle_quality)
        assert trace[-1]["best_energy"] == W_VIS * report.uc - (1.0 - W_VIS) * report.angle_quality

    def test_given_grid_is_used(self):
        scene = circle_scene(samples=48)
        grid = voxelize(scene, 0.2)
        config = AnnealConfig(seed=0, **self.cfg)
        rig, trace = simulated_annealing(scene, 3, config, grid=grid)
        assert trace[-1]["best_energy"] == rig_energy(rig, grid, 3)
        best = random_search(scene, 3, trials=4, seed=0, grid=grid)
        assert rig_energy(best, grid, 3) == min(
            rig_energy(initialize(scene, 3, t), grid, 3) for t in range(4))


# tiny budgets: the property is about where cameras may go, not how well
TINY_BUDGETS = {
    "hybrid": {"max_outer": 1, "inner_cap": 3},
    "grad_only": {"max_outer": 1, "inner_cap": 3},
    "non_grad_only": {"max_outer": 1, "inner_cap": 3},
    "sa": {"T0": 1.0, "cooling": 0.5, "steps_per_temp": 3, "termination": 0.1},
    "random": {"trials": 3},
}


class TestPlaneProperty:
    @settings(max_examples=5, deadline=None)
    @given(z=st.floats(-3.0, 3.0, allow_nan=False))
    def test_every_optimizer_keeps_planar_cameras_on_the_scene_plane(self, z):
        scene = lifted_circle(z, samples=40)
        plane = scene.points[0, 2]
        for name in OPTIMIZERS:
            config = ExperimentConfig(scene_source={"path": "unused"}, k_list=[3], seeds=[0],
                                      optimizer=name, K=2, optimizer_config=TINY_BUDGETS[name])
            payload = run_cell(scene, voxelize(scene), config, 3, 0)
            for pose in payload["final"]["poses"]:
                assert abs(pose["position"][2] - plane) <= PLANE_TOLERANCE, (name, pose)


class TestWorkDoneOnce:
    """An sa cell takes its final scores from the chain, and a scene builds
    its containment hull once however many cells or trials use it."""

    def test_no_visibility_after_the_sa_chain(self, monkeypatch):
        import camopt.cli as cli
        import camopt.hybrid as hybrid
        import camopt.metrics as metrics

        events = []
        real_sa = baselines.simulated_annealing

        def chain(*args, **kwargs):
            out = real_sa(*args, **kwargs)
            events.append("chain end")
            return out

        monkeypatch.setattr(cli, "simulated_annealing", chain)
        for name in ("visible_set", "coverage_matrix"):
            real = getattr(visibility, name)

            def counting(*args, _name=name, _real=real, **kwargs):
                events.append(_name)
                return _real(*args, **kwargs)

            for module in (visibility, baselines, hybrid, metrics, cli):
                if getattr(module, name, None) is real:
                    monkeypatch.setattr(module, name, counting)
        scene = torus_scene()
        config = ExperimentConfig(scene_source={"path": "unused"}, k_list=[4], seeds=[0],
                                  optimizer="sa", K=3, optimizer_config=TINY_BUDGETS["sa"])
        payload = run_cell(scene, voxelize(scene), config, 4, 0)
        assert events[-1] == "chain end" and "visible_set" in events
        # one full matrix starts the chain; proposals rewrite single rows
        assert events[0] == "coverage_matrix" and events.count("coverage_matrix") == 1
        report = evaluate_rig(CameraRig(
            [CameraPose(p["position"], p["rot6"]) for p in payload["final"]["poses"]],
            default_intrinsics(scene.diagonal)), voxelize(scene), 3)
        assert (payload["final"]["uc"], payload["final"]["angle_quality"]) == (
            report.uc, report.angle_quality)

    def count_hulls(self, monkeypatch):
        import camopt.scene as scene_module

        calls = []
        real = scene_module.ConvexHull

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(scene_module, "ConvexHull", counting)
        return calls

    def test_one_scene_hull_across_sa_cells(self, monkeypatch):
        calls = self.count_hulls(monkeypatch)
        scene = torus_scene()
        grid = voxelize(scene)
        config = ExperimentConfig(scene_source={"path": "unused"}, k_list=[3], seeds=[0, 1, 2],
                                  optimizer="sa", K=3, optimizer_config=TINY_BUDGETS["sa"])
        for seed in (0, 1, 2):
            run_cell(scene, grid, config, 3, seed)
        assert len(calls) == 1

    def test_one_scene_hull_across_random_trials(self, monkeypatch):
        calls = self.count_hulls(monkeypatch)
        scene = torus_scene()
        random_search(scene, 3, trials=4, seed=0, grid=voxelize(scene))
        assert len(calls) == 1
