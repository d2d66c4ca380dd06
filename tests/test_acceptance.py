"""End-to-end acceptance checks, one test per shipping criterion.

Every test_criterion_* function asserts exactly one deliverable-level
contract; tests/conftest.py prints the per-criterion verdict table after
the run. The ablation suite (5 planar shapes x 10 seeds x 3 optimizer
variants at k=10, K=3) is computed once and shared by criteria 4, 5 and 7.
"""
import math
import time

import numpy as np
import pytest

from camopt import autodiff as ad
from camopt import (
    CameraIntrinsics,
    CameraRig,
    CoverageMatrix,
    OptimizerConfig,
    ShapeSpec,
    TargetScene,
    VOLUMETRIC3D,
    coverage_optimality_gap,
    default_intrinsics,
    generate_planar_shape,
    lean_neof,
    observation_angle_quality,
    optimize,
    pose_from_forward,
    shape_analyze,
    visible_set,
    voxelize,
)
from camopt.attributes import attributes_from_coverage
from camopt.baselines import accept_proposal
from camopt.field import capture_visible, placement_loss_grads

COVERAGE_K = 3
CAMERA_COUNT = 10
LOSS_WEIGHTS = (0.4, 0.3, 0.3)


def suite_shapes(seed: int) -> dict:
    """The five planar outlines of the ablation protocol, sampled with the
    run's seed so scene jitter and camera init vary together."""
    return {
        "circle": ShapeSpec("circle", {"radius": 1.0}, 96, seed=seed),
        "square": ShapeSpec("square", {"side": 2.0}, 96, seed=seed),
        "triangle": ShapeSpec("triangle", {"side": 2.0}, 96, seed=seed),
        "two_circles": ShapeSpec("composite", {}, 160, seed=seed, components=(
            {"kind": "circle", "parameters": {"radius": 1.0, "center": (0.0, 0.0)}},
            {"kind": "circle", "parameters": {"radius": 0.8, "center": (1.4, 0.0)}},
        )),
        "square_plus_circle": ShapeSpec("composite", {}, 160, seed=seed, components=(
            {"kind": "square", "parameters": {"side": 1.6, "center": (0.0, 0.0)}},
            {"kind": "circle", "parameters": {"radius": 0.7, "center": (1.3, 0.9)}},
        )),
    }


@pytest.fixture(scope="session")
def ablation_suite():
    variants = {
        "hybrid": {},
        "grad_only": {"non_grad_enabled": False},
        "non_grad_only": {"grad_enabled": False},
    }
    runs = {name: [] for name in variants}
    t0 = time.perf_counter()
    for seed in range(10):
        for shape_name, spec in suite_shapes(seed).items():
            scene = generate_planar_shape(spec)
            for vname, kwargs in variants.items():
                _, trace = optimize(scene, CAMERA_COUNT,
                                    OptimizerConfig(K=COVERAGE_K, seed=seed),
                                    **kwargs)
                first, last = trace.records[0], trace.records[-1]
                runs[vname].append({
                    "shape": shape_name, "seed": seed,
                    "init_uc": first.uc, "final_uc": last.uc,
                    "init_aq": first.angle_quality,
                    "final_aq": last.angle_quality,
                    "trace": trace,
                })
    return {"runs": runs, "wall_s": time.perf_counter() - t0}


@pytest.fixture(scope="session")
def fixed_scene_traces():
    """Ten optimizer seeds on one frozen scene (scene sampling seed pinned)."""
    scene = generate_planar_shape(ShapeSpec("square", {"side": 2.0}, 96, seed=3))
    traces = []
    for seed in range(10):
        _, trace = optimize(scene, 18, OptimizerConfig(K=COVERAGE_K, seed=seed))
        traces.append(trace)
    return traces


# ---------------------------------------------------------------------------
# criterion 1: gradients vs central finite differences
# ---------------------------------------------------------------------------

def _fd_grads(forward, arrays, h=1e-6):
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        flat, gflat = arr.ravel(), g.ravel()
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            hi = forward()
            flat[i] = keep - h
            lo = forward()
            flat[i] = keep
            gflat[i] = (hi - lo) / (2.0 * h)
        grads.append(g)
    return grads


def _max_rel_err(got, want):
    worst = 0.0
    for g, w in zip(got, want):
        g = np.zeros_like(w) if g is None else g
        denom = np.maximum(np.maximum(np.abs(g), np.abs(w)), 1e-8)
        worst = max(worst, float(np.max(np.abs(g - w) / denom)))
    return worst


def _away_from(rng, shape, lo, hi, kinks=(), margin=0.05):
    """Uniform draw in +-[lo, hi] resampled until clear of the kink points."""
    out = rng.uniform(lo, hi, size=shape) * rng.choice([-1.0, 1.0], size=shape)
    for kink in kinks:
        while np.any(np.abs(out - kink) < margin):
            bad = np.abs(out - kink) < margin
            out[bad] = rng.uniform(lo, hi, size=bad.sum()) * \
                rng.choice([-1.0, 1.0], size=bad.sum())
    return out


def _op_cases(rng):
    """(name, arrays, graph builder) triples covering every tape op. The
    builder lifts the arrays fresh on every call so finite differences see
    in-place mutations of the arrays."""
    w34 = rng.normal(size=(3, 4))
    w32 = rng.normal(size=(3, 2))
    w43 = rng.normal(size=(4, 3))
    w53 = rng.normal(size=(5, 3))
    w35 = rng.normal(size=(3, 5))
    w26 = rng.normal(size=(2, 6))
    w23 = rng.normal(size=(2, 3))
    w41 = rng.normal(size=(4, 1))
    w54 = rng.normal(size=(5, 4))
    g34 = rng.normal(size=(3, 4))

    a34 = rng.normal(size=(3, 4))
    b4 = rng.normal(size=4)
    b34 = rng.normal(size=(3, 4))
    d34 = _away_from(rng, (3, 4), 0.5, 2.0)
    base = rng.uniform(0.5, 2.0, size=(3, 4))
    r34 = _away_from(rng, (3, 4), 0.2, 1.5, kinks=(0.0,))
    c34 = _away_from(rng, (3, 4), 0.0, 1.2, kinks=(-0.5, 0.5))
    m34, m42 = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
    x53, y53 = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
    n43 = rng.normal(size=(4, 3)) + np.sign(rng.normal(size=(4, 3))) * 0.4
    s35 = rng.normal(size=(3, 5))
    c1, c2 = rng.normal(size=(2, 4)), rng.normal(size=(3, 4))
    pa = _away_from(rng, (3, 4), 0.2, 1.0, kinks=(0.0,))
    pb = _away_from(rng, (2, 4), 0.2, 1.0, kinks=(0.0,))
    pz = rng.normal(size=(2, 4))
    while np.min(np.abs(pa[None, :, :] + pb[:, None, :])) < 0.02:
        pa = _away_from(rng, (3, 4), 0.2, 1.0, kinks=(0.0,))
        pb = _away_from(rng, (2, 4), 0.2, 1.0, kinks=(0.0,))

    return [
        ("add", [a34, b4], lambda t: ad.mul(ad.add(t[0], t[1]), ad.Tensor(w34))),
        ("sub", [a34, b4], lambda t: ad.mul(ad.sub(t[0], t[1]), ad.Tensor(w34))),
        ("mul", [a34, b34], lambda t: ad.mul(ad.mul(t[0], t[1]), ad.Tensor(w34))),
        ("div", [a34, d34], lambda t: ad.mul(ad.div(t[0], t[1]), ad.Tensor(w34))),
        ("pow", [base.copy()], lambda t: ad.mul(ad.pow_(t[0], 1.7), ad.Tensor(w34))),
        ("relu", [r34], lambda t: ad.mul(ad.relu(t[0]), ad.Tensor(w34))),
        ("sin", [a34.copy()], lambda t: ad.mul(ad.sin(t[0]), ad.Tensor(w34))),
        ("cos", [a34.copy()], lambda t: ad.mul(ad.cos(t[0]), ad.Tensor(w34))),
        ("clamp", [c34], lambda t: ad.mul(ad.clamp(t[0], -0.5, 0.5), ad.Tensor(w34))),
        ("matmul", [m34, m42], lambda t: ad.mul(ad.matmul(t[0], t[1]), ad.Tensor(w32))),
        ("transpose", [a34.copy()], lambda t: ad.mul(ad.transpose(t[0]), ad.Tensor(w43))),
        ("cross3", [x53, y53], lambda t: ad.mul(ad.cross3(t[0], t[1]), ad.Tensor(w53))),
        ("norm", [n43.copy()], lambda t: ad.mul(ad.norm(t[0]), ad.Tensor(w41))),
        ("normalize", [n43.copy()], lambda t: ad.mul(ad.normalize(t[0]), ad.Tensor(w43))),
        ("sum_all", [a34.copy()], lambda t: ad.sum_(t[0])),
        ("sum_axis", [a34.copy()], lambda t: ad.mul(ad.sum_(t[0], axis=0), ad.Tensor(b4))),
        ("mean", [a34.copy()], lambda t: ad.mul(ad.mean(t[0], axis=1), ad.Tensor(w34[:, 0]))),
        ("softmax", [s35], lambda t: ad.mul(ad.softmax(t[0]), ad.Tensor(w35))),
        ("concat", [c1, c2], lambda t: ad.mul(
            ad.concat([t[0], t[1]], axis=0), ad.Tensor(w54))),
        ("reshape", [a34.copy()], lambda t: ad.mul(
            ad.reshape(t[0], (2, 6)), ad.Tensor(w26))),
        ("getitem", [a34.copy()], lambda t: ad.mul(
            ad.getitem(t[0], np.array([0, 2, 0])), ad.Tensor(g34))),
        ("pairwise_scores", [pa, pb, pz], lambda t: ad.mul(
            ad.pairwise_scores(t[0], t[1], t[2]), ad.Tensor(w23))),
    ]


def test_criterion_01_gradients_match_finite_differences():
    t_start = time.perf_counter()
    instances = 0
    worst = 0.0

    for trial in range(3):
        rng = np.random.default_rng(100 + trial)
        for name, arrays, build in _op_cases(rng):
            leaves = [ad.Tensor(a, requires_grad=True) for a in arrays]
            out = build(leaves)
            loss = ad.sum_(out)
            loss.backward()
            got = [t.grad for t in leaves]

            def forward(arrays=arrays, build=build):
                ts = [ad.Tensor(a, requires_grad=True) for a in arrays]
                return float(ad.sum_(build(ts)).data)

            want = _fd_grads(forward, arrays)
            err = _max_rel_err(got, want)
            assert err < 1e-3, f"{name} trial {trial}: rel err {err:.2e}"
            worst = max(worst, err)
            instances += 1

    # pose-parameter gradients of the placement loss, visible sets frozen
    for trial in range(3):
        rng = np.random.default_rng(300 + trial)
        scene = generate_planar_shape(
            ShapeSpec("circle", {"radius": 1.0}, 48, seed=trial))
        grid = voxelize(scene)
        intr = default_intrinsics(scene.diagonal)
        poses = []
        for j in range(3):
            ang = 2.0 * np.pi * j / 3.0 + rng.uniform(-0.2, 0.2)
            pos = np.array([2.2 * np.cos(ang), 2.2 * np.sin(ang), 0.0])
            look = -pos + rng.uniform(-0.1, 0.1, size=3) * np.array([1, 1, 0])
            poses.append(pose_from_forward(pos, look))
        rig = CameraRig(tuple(poses), intr)
        E, attrs = shape_analyze(rig, grid, COVERAGE_K)
        field = lean_neof(None, grid, attrs, seed=trial)
        assert E.entries.any(), "degenerate instance: nothing visible"
        caps = capture_visible(field, rig, E)

        positions = np.stack([p.position for p in rig.poses])
        rot6 = np.stack([p.rot6 for p in rig.poses])

        def loss_and_grads():
            loss, g_pos, g_rot = placement_loss_grads(field, positions, rot6, caps,
                                                      weights=LOSS_WEIGHTS)
            return loss.total, [g_pos, g_rot]

        got = loss_and_grads()[1]
        want = _fd_grads(lambda: loss_and_grads()[0], [positions, rot6])
        err = _max_rel_err(got, want)
        assert err < 1e-3, f"placement loss trial {trial}: rel err {err:.2e}"
        worst = max(worst, err)
        instances += 1

    assert instances >= 50
    assert time.perf_counter() - t_start < 60.0


# ---------------------------------------------------------------------------
# criterion 2: attribute formulas vs brute force
# ---------------------------------------------------------------------------

def _brute_force_attributes(entries, positions, centers, normals, K):
    """Straight-loop recomputation of the residual-need triple from raw
    visibility entries; deliberately shares no code with the library."""
    n_cams, m = entries.shape
    c = np.empty(m)
    phi_cc = np.empty(m)
    phi_co = np.empty(m)
    for j in range(m):
        observers = [i for i in range(n_cams) if entries[i, j]]
        c[j] = min(max(K - len(observers), 0), K)
        dirs = []
        for i in observers:
            d = positions[i] - centers[j]
            dirs.append(d / math.sqrt(float(d @ d)))
        if len(dirs) >= 2:
            angles = []
            for a in range(len(dirs)):
                for b in range(a + 1, len(dirs)):
                    dot = max(-1.0, min(1.0, float(dirs[a] @ dirs[b])))
                    angles.append(math.acos(dot))
            phi_cc[j] = abs(math.pi / 2.0 - sum(angles) / len(angles))
        else:
            phi_cc[j] = math.pi / 2.0
        if dirs:
            resultant = np.sum(dirs, axis=0)
            length = math.sqrt(float(resultant @ resultant))
            phi_co[j] = 1.0 if length < 1e-12 else \
                1.0 - float(normals[j] @ resultant) / length
        else:
            phi_co[j] = 1.0
    return c, phi_cc, phi_co


def test_criterion_02_attribute_formulas_match_brute_force():
    rng = np.random.default_rng(7)
    m = 40
    for _ in range(100):
        n_cams = int(rng.integers(2, 7))
        centers = rng.normal(size=(m, 3))
        normals = rng.normal(size=(m, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        positions = rng.normal(size=(n_cams, 3)) * 4.0 + 6.0
        entries = (rng.random((n_cams, m)) < rng.uniform(0.1, 0.9)).astype(int)
        E = CoverageMatrix(entries)
        K = int(rng.integers(1, 5))

        attrs = attributes_from_coverage(E, positions, centers, normals, K)
        c, cc, co = _brute_force_attributes(entries, positions, centers,
                                            normals, K)
        assert np.max(np.abs(attrs.c - c)) <= 1e-9
        assert np.max(np.abs(attrs.phi_cc - cc)) <= 1e-9
        assert np.max(np.abs(attrs.phi_co - co)) <= 1e-9


# ---------------------------------------------------------------------------
# criterion 3: visibility vs sphere-occluder ray casting
# ---------------------------------------------------------------------------

def _raycast_reference(pose, intrinsics, centers, normals, radius):
    """Voxels as opaque spheres: visible iff the camera->center segment
    clears every other sphere, under the same frustum and facing rules."""
    eye = pose.position
    rot = pose.rotation()
    visible = set()
    for j, center in enumerate(centers):
        cam = rot.T @ (center - eye)
        z = cam[2]
        if not (intrinsics.near <= z <= intrinsics.far):
            continue
        if abs(cam[0]) > math.tan(intrinsics.hfov / 2.0) * z:
            continue
        if abs(cam[1]) > math.tan(intrinsics.vfov / 2.0) * z:
            continue
        ray = center - eye
        length = float(np.linalg.norm(ray))
        if length < 1e-12 or float(ray @ normals[j]) >= 0.0:
            continue
        u = ray / length
        blocked = False
        for i, other in enumerate(centers):
            if i == j:
                continue
            w = other - eye
            t = float(w @ u)
            d2 = float(w @ w) - t * t
            if d2 >= radius * radius:
                continue
            span = math.sqrt(radius * radius - d2)
            if t - span < length - 1e-9 and t + span > 1e-9:
                blocked = True
                break
        if not blocked:
            visible.add(j)
    return visible


def _cloud_grid(n, seed, resolution):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    pts *= rng.uniform(0.9, 1.1, size=(n, 1))
    scene = TargetScene(pts, pts / np.linalg.norm(pts, axis=1, keepdims=True),
                        VOLUMETRIC3D, np.stack([pts.min(0), pts.max(0)]))
    return voxelize(scene, resolution=resolution), False


def _outline_grid(kind, params, seed):
    scene = generate_planar_shape(ShapeSpec(kind, params, 96, seed=seed))
    return voxelize(scene), True


def test_criterion_03_visibility_matches_raycast_reference():
    scenes = [
        _cloud_grid(260, 11, 0.25),
        _cloud_grid(220, 12, 0.3),
        _cloud_grid(300, 13, 0.25),
        _outline_grid("circle", {"radius": 1.0}, 1),
        _outline_grid("square", {"side": 2.0}, 2),
    ]
    intr = CameraIntrinsics(hfov=np.pi / 2, vfov=np.pi / 2, near=0.1, far=10.0)
    rng = np.random.default_rng(99)
    for grid, planar in scenes:
        radius = grid.resolution / 2.0
        mismatches = 0
        for _ in range(20):
            direction = rng.normal(size=3)
            if planar:
                direction[2] = 0.0
            direction /= np.linalg.norm(direction)
            pose = pose_from_forward(direction * rng.uniform(2.0, 3.0),
                                     -direction)
            got = visible_set(pose, intr, grid)
            want = _raycast_reference(pose, intr, grid.centers, grid.normals,
                                      radius)
            mismatches += len(got ^ want)
        agreement = 1.0 - mismatches / (20 * len(grid.centers))
        assert agreement >= 0.90, f"agreement {agreement:.3f}"


# ---------------------------------------------------------------------------
# criteria 4-7: optimization behavior at protocol scale
# ---------------------------------------------------------------------------

def test_criterion_04_hybrid_beats_ablations(ablation_suite):
    assert ablation_suite["wall_s"] < 1200.0
    medians = {
        name: float(np.median([r["final_uc"] for r in rr]))
        for name, rr in ablation_suite["runs"].items()
    }
    assert medians["hybrid"] <= medians["grad_only"], medians
    assert medians["hybrid"] <= medians["non_grad_only"], medians


def test_criterion_05_hybrid_improves_on_initialization(ablation_suite):
    hybrid = ablation_suite["runs"]["hybrid"]
    init_uc = float(np.median([r["init_uc"] for r in hybrid]))
    final_uc = float(np.median([r["final_uc"] for r in hybrid]))
    init_aq = float(np.median([r["init_aq"] for r in hybrid]))
    final_aq = float(np.median([r["final_aq"] for r in hybrid]))
    assert final_uc <= 0.85 * init_uc, (final_uc, init_uc)
    assert final_aq > init_aq, (final_aq, init_aq)


def test_criterion_06_robust_to_initialization(fixed_scene_traces):
    init_uc = [t.records[0].uc for t in fixed_scene_traces]
    final_uc = [t.records[-1].uc for t in fixed_scene_traces]
    spread_init = float(np.std(init_uc))
    spread_final = float(np.std(final_uc))
    assert spread_final <= 0.5 * spread_init, (spread_final, spread_init)


def test_criterion_07_monotone_trend(ablation_suite, fixed_scene_traces):
    traces = [r["trace"] for rr in ablation_suite["runs"].values() for r in rr]
    traces.extend(fixed_scene_traces)
    assert traces
    for trace in traces:
        running_min = np.asarray(trace.running_min_loss)
        assert np.all(np.diff(running_min) <= 1e-12)
        for swap in trace.swaps:
            assert swap["loss_after"] < swap["loss_before"]


# ---------------------------------------------------------------------------
# criterion 8: throughput
# ---------------------------------------------------------------------------

def test_criterion_08_outer_iteration_under_one_second():
    scene = generate_planar_shape(ShapeSpec("circle", {"radius": 1.0}, 2000,
                                            seed=0))
    grid = voxelize(scene, 0.0075)
    assert 500 <= len(grid.centers) <= 1000
    optimize(scene, CAMERA_COUNT,
             OptimizerConfig(K=COVERAGE_K, seed=0, resolution=0.0075,
                             max_outer=1))     # warmup
    # an outer iteration is its grad record plus the non_grad record of the
    # same index, when resampling ran
    best_worst_ms, best_outers = math.inf, []
    for _ in range(2):
        _, trace = optimize(scene, CAMERA_COUNT,
                            OptimizerConfig(K=COVERAGE_K, seed=0,
                                            resolution=0.0075, max_outer=3))
        outers = {}
        for r in trace.records:
            if r.phase in ("grad", "non_grad"):
                outers[r.index] = outers.get(r.index, 0.0) + r.wall_ms
        assert outers
        worst = max(outers.values())
        if worst < best_worst_ms:
            best_worst_ms, best_outers = worst, sorted(outers.items())
    per_outer = ", ".join(f"outer {i}: {wall:.0f} ms" for i, wall in best_outers)
    assert best_worst_ms < 1000.0, \
        f"{best_worst_ms:.0f} ms (grad plus non_grad records of the best run: {per_outer})"


# ---------------------------------------------------------------------------
# criterion 9: metric identities
# ---------------------------------------------------------------------------

def test_criterion_09_metric_identities():
    full = np.ones((COVERAGE_K, 7), dtype=int)
    E_full = CoverageMatrix(full)
    assert coverage_optimality_gap(E_full, COVERAGE_K) == 0.0

    empty = np.zeros((COVERAGE_K, 7), dtype=int)
    E_empty = CoverageMatrix(empty)
    assert coverage_optimality_gap(E_empty, COVERAGE_K) == 1.0

    pts = np.array([[0.0, 0.0, 0.0]])
    nrm = np.array([[0.0, 0.0, 1.0]])
    scene = TargetScene(pts, nrm, VOLUMETRIC3D, np.stack([pts[0], pts[0]]))
    grid = voxelize(scene, 0.5)
    rig = CameraRig((pose_from_forward((1.0, 0.0, 0.0), (-1.0, 0.0, 0.0)),
                     pose_from_forward((0.0, 1.0, 0.0), (0.0, -1.0, 0.0))),
                    default_intrinsics())
    pair = np.ones((2, 1), dtype=int)
    E_pair = CoverageMatrix(pair)
    assert observation_angle_quality(rig, grid, E_pair) == 1.0


# ---------------------------------------------------------------------------
# criterion 10: annealing acceptance statistics
# ---------------------------------------------------------------------------

def test_criterion_10_boltzmann_acceptance_rate():
    rng = np.random.default_rng(2024)
    for delta_e, temperature in ((0.05, 0.5), (0.3, 0.5), (0.5, 0.25)):
        accepted = sum(accept_proposal(delta_e, temperature, rng)
                       for _ in range(10_000))
        target = math.exp(-delta_e / temperature)
        assert abs(accepted / 10_000 - target) <= 0.03, (delta_e, temperature)
