"""Hybrid pose optimization: Adam on a differentiable proxy loss, alternated
with non-gradient elite resampling that relocates stuck or useless cameras
over the regions the coverage analysis says need observation most.
"""

import time
from dataclasses import dataclass, field as dfield
from typing import Optional

import numpy as np

from camopt import autodiff as ad
from camopt.attributes import attributes_from_coverage, shape_analyze, sup_vector
from camopt.field import (
    FINETUNE_BUDGET,
    LOSS_QUERY_CAP,
    ObservationField,
    PlacementLoss,
    capture_visible,
    encode_captures,
    lean_neof,
    placement_loss,
    placement_loss_graph,
    visible_attr_sum,
)
from camopt.metrics import coverage_optimality_gap, observation_angle_quality
from camopt.scene import PLANAR2D, TargetScene, voxelize
from camopt.visibility import (
    CameraIntrinsics,
    CameraPose,
    CameraRig,
    CoverageMatrix,
    coverage_matrix,
    default_intrinsics,
    pose_from_forward,
    replace_row,
    visible_set,
)

INNER_STEP_CAP = 100
BOUNDS_INFLATION = 1.5
CONTRIBUTION_MARGIN = 1.1   # "large loss" = this factor above the mean share


@dataclass(frozen=True)
class OptimizerConfig:
    K: int = 3
    weights: tuple = (0.4, 0.3, 0.3)
    eps_L: float = 1e-4        # loss-stall tolerance
    eps_P: float = 1e-4        # pose step-update stopping tolerance
    eps_g: float = 1e-4        # per-camera gradient-norm convergence tolerance
    m: int = 5                 # candidate regions for resampling
    max_outer: int = 12
    seed: int = 0
    inner_cap: int = INNER_STEP_CAP
    query_cap: int = LOSS_QUERY_CAP
    resolution: Optional[float] = None
    # pose steps are Adam-normalized, so the rate is roughly meters moved per
    # inner step. The rate decays across the whole run (the optimizer state
    # persists through every gradient phase): early phases travel toward what
    # the field flags as needy, late phases shrink until per-step loss changes
    # drop under eps_L, descent stalls immediately, and the step-update test
    # can terminate the loop. Without the decay the descent keeps trading
    # visibility for predicted need forever and the loop never settles.
    pose_lr: float = 1e-3
    pose_lr_decay: float = 0.5
    pose_lr_decay_every: int = 10

    def __post_init__(self):
        if min(self.eps_L, self.eps_P, self.eps_g) <= 0:
            raise ValueError("tolerances must be positive")
        if self.m < 1:
            raise ValueError("need at least one candidate region")
        if self.max_outer < 1 or self.inner_cap < 1:
            raise ValueError("iteration caps must be at least 1")
        if len(self.weights) != 3 or min(self.weights) < 0:
            raise ValueError("weights must be three non-negative numbers")
        if not 0.0 < self.pose_lr_decay <= 1.0 or self.pose_lr_decay_every < 1:
            raise ValueError("pose learning-rate schedule is out of range")


@dataclass
class IterationRecord:
    index: int
    phase: str               # "init" | "grad" | "non_grad"
    loss: float
    components: np.ndarray   # (3,)
    uc: float
    angle_quality: float
    poses: tuple             # CameraPose snapshot
    wall_ms: float
    inner_steps: int = 0
    commits: int = 0


@dataclass
class OptimizationTrace:
    records: list = dfield(default_factory=list)
    swaps: list = dfield(default_factory=list)

    def add(self, record: IterationRecord):
        if self.records:
            if len(record.poses) != len(self.records[0].poses):
                raise ValueError("camera count changed mid-run")
            if record.index < self.records[-1].index:
                raise ValueError("iteration records out of order")
        self.records.append(record)

    @property
    def losses(self) -> np.ndarray:
        return np.array([r.loss for r in self.records])

    @property
    def running_min_loss(self) -> np.ndarray:
        return np.minimum.accumulate(self.losses)


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

def _containment_test(scene: TargetScene):
    """Point-in-convex-hull predicate over the scene's points, or None when
    the cloud is too degenerate to enclose any volume. Reads the scene's
    hull facets, which are built once per scene."""
    facets = scene.hull_facets
    if facets is None:
        return None
    # facet rows are outward unit normals and offsets: inside is <= 0 on every facet
    normals, offsets = facets[:, :-1], facets[:, -1]

    def inside(p):
        q = p[:2] if scene.mode == PLANAR2D else p
        return bool(np.all(normals @ q + offsets <= 0.0))

    return inside


def initialize(scene: TargetScene, k: int, seed: int, intrinsics=None) -> CameraRig:
    """Random rig: positions uniform in the scene bounds inflated about their
    center, rejecting samples inside the object's convex hull; orientations
    uniform (in-plane for planar scenes)."""
    if k < 1:
        raise ValueError("need at least one camera")
    if intrinsics is None:
        intrinsics = default_intrinsics(scene.diagonal)
    rng = np.random.default_rng(seed)
    bmin, bmax = scene.bounds[0], scene.bounds[1]
    center = (bmin + bmax) / 2.0
    half = (bmax - bmin) / 2.0 * BOUNDS_INFLATION
    # degenerate axes get a fallback span so sampling has somewhere to go;
    # the planar z-axis is pinned to the shape plane instead
    fallback = max(scene.diagonal / 2.0, 1.0)
    planar = scene.mode == PLANAR2D
    for axis in range(3):
        if half[axis] < 1e-9 and not (planar and axis == 2):
            half[axis] = fallback
    lo, hi = center - half, center + half
    inside = _containment_test(scene)

    poses = []
    tries = 0
    while len(poses) < k:
        tries += 1
        if tries > 10_000:
            raise RuntimeError("initialization rejection sampling exceeded 10000 tries")
        p = rng.uniform(lo, hi)
        if planar:
            p[2] = center[2]
        if inside is not None and inside(p):
            continue
        if planar:
            theta = rng.uniform(0.0, 2.0 * np.pi)
            forward = np.array([np.cos(theta), np.sin(theta), 0.0])
        else:
            forward = rng.normal(size=3)
            while np.linalg.norm(forward) < 1e-9:
                forward = rng.normal(size=3)
        poses.append(pose_from_forward(p, forward))
    return CameraRig(tuple(poses), intrinsics)


# ---------------------------------------------------------------------------
# gradient phase
# ---------------------------------------------------------------------------

class PoseOptimizer:
    """Pose tensors plus one Adam state shared across every gradient phase of
    a run, so the scheduled learning-rate decay actually accumulates. A fresh
    optimizer per phase would restart at the initial rate forever and the
    descent would never quiesce enough for the step-update termination test.
    """

    def __init__(self, rig: CameraRig, config: "OptimizerConfig"):
        self.pos_ts = [ad.Tensor(p.position.copy(), requires_grad=True) for p in rig.poses]
        self.rot_ts = [ad.Tensor(p.rot6.copy(), requires_grad=True) for p in rig.poses]
        self.params = []
        for pt, rt in zip(self.pos_ts, self.rot_ts):
            self.params.extend([pt, rt])
        self.adam = ad.AdamState(self.params, lr=config.pose_lr,
                                 decay=config.pose_lr_decay,
                                 decay_every=config.pose_lr_decay_every)

    def sync_from(self, rig: CameraRig, reset_moments=()):
        """Copy rig poses into the tensors; cameras whose pose was replaced
        outside the gradient flow get their Adam moments zeroed (the old
        moments described a basin the camera no longer occupies)."""
        for i, pose in enumerate(rig.poses):
            self.pos_ts[i].data = pose.position.copy()
            self.rot_ts[i].data = pose.rot6.copy()
        for i in reset_moments:
            self.adam.reset_slot(2 * i)
            self.adam.reset_slot(2 * i + 1)


def grad_phase(rig: CameraRig, field: ObservationField, grid, config: OptimizerConfig,
               planar: bool = False, E: CoverageMatrix | None = None,
               opt: PoseOptimizer | None = None):
    """Adam descent on all pose parameters against the frozen field, the
    rig's coverage matrix E (computed when not given) held fixed for the
    phase. Stops when the per-step loss change drops below eps_L, a step
    fails to improve the loss (the step is reverted), or the inner cap is hit.

    Returns (rig', PlacementLoss of the last accepted step, per-camera
    gradient norms, inner steps taken, converged flag).
    """
    if E is None:
        E = coverage_matrix(rig, grid)
    k = len(rig)
    if opt is None:
        opt = PoseOptimizer(rig, config)
    else:
        opt.sync_from(rig)
    pos_ts, rot_ts, params, adam = opt.pos_ts, opt.rot_ts, opt.params, opt.adam

    # the local-frame capture stays frozen for the whole phase: the visible
    # bundle rides along with the pose, so pose motion registers as moving
    # query points in the field (re-capturing every step would pin the
    # queries back onto the voxel centers and freeze the loss value)
    caps = capture_visible(field, rig, E, query_cap=config.query_cap)
    # the field and the captures are frozen too, so only B = -X @ W1[:3] of
    # the logits moves with the poses; the rest is encoded once
    encoding = encode_captures(field, caps)

    grad_norms = np.zeros(k)
    L_prev = None
    L_last = np.nan
    vec_last = field.sup.copy() if field.sup is not None else np.zeros(3)
    snapshot = None
    steps = 0
    converged = False
    for _ in range(config.inner_cap):
        loss_t, vec_t = placement_loss_graph(field, pos_ts, rot_ts, caps,
                                             weights=config.weights, encoding=encoding)
        L_here = float(loss_t.data)
        if not np.isfinite(L_here):
            raise RuntimeError(f"non-finite placement loss {L_here!r} during gradient phase")
        if L_prev is not None and L_here > L_prev:
            # reject the step that got us here; the rig the resampler placed
            # is often already at a proxy minimum and a blind Adam step off
            # it would trade away visibility for nothing
            for p, saved in zip(params, snapshot):
                p.data = saved
            converged = True
            break
        L_last = L_here
        vec_last = vec_t.data.copy()
        if loss_t.needs_grad:
            loss_t.backward()
        for p in params:
            if p.grad is None:
                p.grad = np.zeros_like(p.data)
        if planar:
            for pt, rt in zip(pos_ts, rot_ts):
                pt.grad[2] = 0.0
                rt.grad[2:] = 0.0   # keep the right-axis in-plane and up pinned
        grad_norms = np.array([
            np.sqrt(np.sum(pt.grad ** 2) + np.sum(rt.grad ** 2))
            for pt, rt in zip(pos_ts, rot_ts)])
        if L_prev is not None and abs(L_here - L_prev) < config.eps_L:
            converged = True
            break
        snapshot = [p.data.copy() for p in params]
        ad.adam_step(params, adam)
        steps += 1
        L_prev = L_here

    final_poses = tuple(CameraPose(pt.data.copy(), rt.data.copy())
                        for pt, rt in zip(pos_ts, rot_ts))
    out_rig = CameraRig(final_poses, rig.intrinsics)
    return out_rig, PlacementLoss(L_last, vec_last), grad_norms, steps, converged


# ---------------------------------------------------------------------------
# non-gradient phase (elite resampling)
# ---------------------------------------------------------------------------

def worst_regions(grid, attrs, m: int):
    """Cluster the voxels that still need observation into up to m regions by
    greedy farthest-point seeding (distance weighted by residual coverage c),
    then summarize each region by its c-weighted centroid and mean normal."""
    c = attrs.c
    pool = np.nonzero(c > 1e-12)[0]
    if len(pool) == 0:
        return []
    pts = grid.centers[pool]
    w = c[pool]
    seeds = [int(pool[np.argmax(w)])]
    while len(seeds) < min(m, len(pool)):
        d = np.min(np.linalg.norm(pts[:, None, :] - grid.centers[seeds][None], axis=2), axis=1)
        score = w * d
        if score.max() <= 1e-12:
            break
        seeds.append(int(pool[np.argmax(score)]))
    assign = np.argmin(np.linalg.norm(pts[:, None, :] - grid.centers[seeds][None], axis=2), axis=1)
    regions = []
    for s in range(len(seeds)):
        rows = pool[assign == s]
        ww = c[rows][:, None]
        centroid = (grid.centers[rows] * ww).sum(axis=0) / ww.sum()
        nsum = (grid.normals[rows] * ww).sum(axis=0)
        norm = np.linalg.norm(nsum)
        normal = nsum / norm if norm > 1e-9 else grid.normals[seeds[s]].copy()
        regions.append((centroid, normal))
    return regions


def _region_poses(regions, intrinsics):
    dist = (intrinsics.near + intrinsics.far) / 2.0
    return [pose_from_forward(centroid + normal * dist, -normal)
            for centroid, normal in regions]


def _candidate_visible(pose: CameraPose, intrinsics, grid, cache: dict) -> np.ndarray:
    """Sorted visible voxel rows of a candidate pose, read from cache when
    the same pose (bit for bit) was evaluated before in the run. The arrays
    are read-only, so no holder can change a cached one."""
    key = pose.position.tobytes() + pose.rot6.tobytes()
    rows = cache.get(key)
    if rows is None:
        rows = cache[key] = np.array(sorted(visible_set(pose, intrinsics, grid)), dtype=np.intp)
        rows.flags.writeable = False
    return rows


def non_grad_phase(rig: CameraRig, field: ObservationField, grid, attrs,
                   config: OptimizerConfig, grad_norms=None, E: CoverageMatrix | None = None,
                   phase_converged: bool = False, candidate_cache=None):
    """Relocate cameras that converged to a poor share of the loss (or see
    nothing) onto poses staring at the worst-covered regions, committing a
    replacement only when the proxy loss strictly decreases.

    A camera counts as descent-converged when its own gradient norm is below
    eps_g or when the caller reports the whole gradient phase stopped on its
    loss tolerance (Adam can stall in a flat basin with the raw gradient well
    above eps_g; without this the resampler would only ever rescue blind
    cameras).

    A committed swap replaces the camera's row of the coverage matrix E (the
    rig's, computed when not given); the attributes are then re-derived from
    it and the field's value snapshot refreshed (no retraining): consumed
    need stops attracting further cameras, so successive relocations spread
    over distinct regions instead of piling onto the first one.

    Candidate poses recur between passes and phases, so their exact visible
    rows come from candidate_cache (pose bytes -> sorted read-only row array;
    a dict owned by the caller, one per run and grid), filled on a miss.
    Their field sums are recomputed, because the field changes after every
    commit.

    Returns (rig', committed, E', attrs'): the accepted swaps, and the
    coverage matrix and attributes of rig'.
    """
    k = len(rig)
    n = len(grid.centers)
    w = np.asarray(config.weights, dtype=np.float64)
    sup = sup_vector(attrs.K)
    if E is None:
        E = coverage_matrix(rig, grid)
    if grad_norms is None:
        grad_norms = np.zeros(k)
    if candidate_cache is None:
        candidate_cache = {}

    def evaluate_pose(pose):
        vis = _candidate_visible(pose, rig.intrinsics, grid, candidate_cache)
        return vis, visible_attr_sum(field, vis, config.query_cap)

    poses = list(rig.poses)
    committed = []
    replaced = set()
    attrs_cur = attrs
    while True:
        regions = worst_regions(grid, attrs_cur, config.m)
        if not regions:
            break
        cand_poses = _region_poses(regions, rig.intrinsics)
        cand_eval = [evaluate_pose(p) for p in cand_poses]

        rows = [np.flatnonzero(row) for row in E.entries]
        sums = np.array([visible_attr_sum(field, r, config.query_cap) for r in rows])
        sizes = np.array([len(r) for r in rows])
        L_cur = float(w @ (sup - sums.sum(axis=0) / (k * n)))

        contrib = np.empty(k)
        for i in range(k):
            if sizes[i] == 0:
                contrib[i] = float(w @ sup)
            else:
                contrib[i] = float(w @ (sup - sums[i] / sizes[i]))
        mean_contrib = contrib.mean()
        candidates = [
            i for i in range(k) if i not in replaced and (
                sizes[i] == 0
                or ((phase_converged or grad_norms[i] < config.eps_g)
                    and contrib[i] > CONTRIBUTION_MARGIN * mean_contrib))
        ]
        if not candidates:
            break
        best = None
        for i in candidates:
            for ci, (vis, s_new) in enumerate(cand_eval):
                L_new = L_cur - float(w @ (s_new - sums[i])) / (k * n)
                if best is None or L_new < best[0] - 1e-15:
                    best = (L_new, i, ci, vis, s_new)
        if best is None or best[0] >= L_cur:
            break
        L_new, cam, ci, vis, s_new = best
        committed.append({
            "camera": cam,
            "loss_before": L_cur,
            "loss_after": L_new,
            "position": cand_poses[ci].position.copy(),
        })
        poses[cam] = cand_poses[ci]
        replaced.add(cam)
        # fold the accepted swap back into the need estimate
        E = replace_row(E, cam, vis)
        positions = np.stack([p.position for p in poses])
        attrs_cur = attributes_from_coverage(E, positions, grid.centers,
                                             grid.normals, attrs.K)
        lean_neof(field, grid, attrs_cur, budget=0)
    if not committed:
        return rig, [], E, attrs
    return CameraRig(tuple(poses), rig.intrinsics), committed, E, attrs_cur


# ---------------------------------------------------------------------------
# the full loop
# ---------------------------------------------------------------------------

def step_update(prev_poses, poses, diagonal: float) -> float:
    """Max over cameras of normalized position change plus geodesic rotation
    change (radians) — the pose-space stopping metric."""
    scale = diagonal if diagonal > 1e-9 else 1.0
    worst = 0.0
    for a, b in zip(prev_poses, poses):
        dp = np.linalg.norm(b.position - a.position) / scale
        Rrel = a.rotation().T @ b.rotation()
        ang = float(np.arccos(np.clip((np.trace(Rrel) - 1.0) / 2.0, -1.0, 1.0)))
        worst = max(worst, dp + ang)
    return worst


def optimize(scene: TargetScene, k: int, config: OptimizerConfig,
             grad_enabled: bool = True, non_grad_enabled: bool = True,
             intrinsics: CameraIntrinsics | None = None, grid=None):
    """Full placement run. The two enable switches exist for ablation studies
    (gradient-only and resampling-only variants); both default on. `grid` is
    the scene voxelized at config.resolution, built here when not given.

    Returns (final rig, OptimizationTrace); the last trace record holds the
    final rig's exact uc and angle quality.
    """
    grid = voxelize(scene, config.resolution) if grid is None else grid
    diag = scene.diagonal
    if intrinsics is None:
        intrinsics = default_intrinsics(diag)
    planar = scene.mode == PLANAR2D

    def record(index, phase, loss, rig, E, t0, **counts):
        """Trace record of a rig with coverage matrix E: its proxy loss and
        exact scores, timed from t0."""
        return IterationRecord(
            index=index, phase=phase, loss=loss.total, components=loss.components,
            uc=coverage_optimality_gap(E, config.K),
            angle_quality=observation_angle_quality(rig, grid, E),
            poses=rig.poses, wall_ms=(time.perf_counter() - t0) * 1e3, **counts)

    t0 = time.perf_counter()
    rig = initialize(scene, k, config.seed, intrinsics)
    E, attrs = shape_analyze(rig, grid, config.K)
    field = lean_neof(None, grid, attrs, seed=config.seed)
    init = placement_loss(field, rig, E, weights=config.weights, query_cap=config.query_cap)
    trace = OptimizationTrace()
    trace.add(record(0, "init", init, rig, E, t0))

    opt = PoseOptimizer(rig, config) if grad_enabled else None
    candidate_cache = {}
    L_outer_prev = init.total
    prev_poses = rig.poses
    for outer in range(1, config.max_outer + 1):
        t0 = time.perf_counter()
        if grad_enabled:
            rig, summary, grad_norms, steps, converged = grad_phase(
                rig, field, grid, config, planar=planar, E=E, opt=opt)
        else:
            # ablation: skip descent, keep analysis/resampling cadence
            summary = placement_loss(field, rig, E, weights=config.weights,
                                     query_cap=config.query_cap)
            grad_norms = np.zeros(len(rig))
            steps, converged = 0, True
        E, attrs = shape_analyze(rig, grid, config.K)
        field = lean_neof(field, grid, attrs)
        trace.add(record(outer, "grad", summary, rig, E, t0, inner_steps=steps))

        # a phase that stopped short of the step cap stalled on its loss
        # tolerance; a capped phase still counts once outer-level progress dies
        stalled = converged or \
            abs(summary.total - L_outer_prev) < config.eps_L
        L_outer_prev = summary.total

        if non_grad_enabled and stalled:
            t1 = time.perf_counter()
            rig, commits, E, attrs = non_grad_phase(
                rig, field, grid, attrs, config, grad_norms=grad_norms, E=E,
                phase_converged=converged or not grad_enabled,
                candidate_cache=candidate_cache)
            if commits:
                field = lean_neof(field, grid, attrs, budget=2 * FINETUNE_BUDGET)
                trace.swaps.extend({"iteration": outer, **c} for c in commits)
                if opt is not None:
                    opt.sync_from(rig, reset_moments=[c["camera"] for c in commits])
            after = placement_loss(field, rig, E, weights=config.weights,
                                   query_cap=config.query_cap)
            trace.add(record(outer, "non_grad", after, rig, E, t1, commits=len(commits)))

        if step_update(prev_poses, rig.poses, diag) < config.eps_P:
            break
        prev_poses = rig.poses
    return rig, trace
