"""Reference optimizers: random placement search and simulated annealing.

Both score camera rigs with the exact-visibility evaluation metrics (never the
learned field), so comparisons against the hybrid optimizer are not skewed by
how well the field happens to fit a particular scene. The annealing chain
keeps the exact scores of the best rig it has seen, so its final scores need
no second evaluation.
"""
import math
from dataclasses import dataclass

import numpy as np

from .hybrid import initialize
from .metrics import coverage_optimality_gap, observation_angle_quality
from .scene import PLANAR2D, TargetScene, voxelize
from .visibility import CameraRig, coverage_matrix, pose_from_forward, replace_row, visible_set

W_VIS = 0.4


def _score(rig: CameraRig, grid, K: int, E) -> tuple:
    """(rig_energy, uc, angle quality) of a rig whose coverage matrix is E."""
    uc = coverage_optimality_gap(E, K)
    angle_quality = observation_angle_quality(rig, grid, E)
    return W_VIS * uc - (1.0 - W_VIS) * angle_quality, uc, angle_quality


def rig_energy(rig: CameraRig, grid, K: int) -> float:
    """Scalarized placement quality: W_VIS * uc - (1 - W_VIS) * angle quality.

    Lower is better; both terms come from the exact coverage matrix.
    """
    return _score(rig, grid, K, coverage_matrix(rig, grid))[0]


def random_search(scene: TargetScene, k: int, trials: int, seed: int,
                  K: int = 3, grid=None, intrinsics=None):
    """Best random rig over `trials` independent draws (trial t uses seed+t,
    so trials=1 reproduces initialize(scene, k, seed) exactly)."""
    if trials < 1:
        raise ValueError("need at least one trial")
    grid = voxelize(scene) if grid is None else grid
    best_rig = None
    best_e = math.inf
    for t in range(trials):
        rig = initialize(scene, k, seed + t, intrinsics)
        e = rig_energy(rig, grid, K)
        if e < best_e:
            best_rig, best_e = rig, e
    return best_rig


@dataclass(frozen=True)
class AnnealConfig:
    T0: float = 1.0
    cooling: float = 0.95
    steps_per_temp: int = 20
    perturb_scale: float = 0.05   # fraction of scene diagonal; radians for look direction
    termination: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.cooling < 1.0:
            raise ValueError("cooling factor must lie in (0, 1)")
        if not self.T0 > self.termination > 0.0:
            raise ValueError("need T0 > termination > 0")
        if self.steps_per_temp < 1:
            raise ValueError("steps_per_temp must be at least 1")
        if self.perturb_scale <= 0.0:
            raise ValueError("perturb_scale must be positive")


def accept_proposal(delta_e: float, temperature: float, rng) -> bool:
    """Metropolis rule: downhill always, uphill with probability exp(-dE/T)."""
    if delta_e <= 0.0:
        return True
    return bool(rng.random() < math.exp(-delta_e / temperature))


def _perturb(rig: CameraRig, cam: int, sigma_pos: float, sigma_rot: float,
             planar: bool, rng) -> CameraRig:
    pose = rig.poses[cam]
    pos = pose.position + rng.normal(0.0, sigma_pos, 3)
    fwd = pose.rotation()[:, 2] + rng.normal(0.0, sigma_rot, 3)
    if planar:
        pos[2] = pose.position[2]
        fwd[2] = 0.0
    if np.linalg.norm(fwd) < 1e-9:
        fwd = pose.rotation()[:, 2]
    poses = list(rig.poses)
    poses[cam] = pose_from_forward(pos, fwd)
    return CameraRig(tuple(poses), rig.intrinsics)


def simulated_annealing(scene: TargetScene, k: int, config: AnnealConfig,
                        K: int = 3, grid=None, intrinsics=None):
    """Anneal a random rig under the scalarized metric.

    One proposal perturbs a single uniformly chosen camera (Gaussian position
    noise scaled by the scene diagonal, Gaussian look-direction noise), and
    only that camera's visible set and coverage row are recomputed. The
    temperature multiplies by the cooling factor after each batch of
    steps_per_temp proposals and the chain stops below the termination
    temperature. Returns (best rig seen, per-batch trace); a trace entry
    holds the current rig's energy, uc and angle_quality, and the best rig's
    best_energy, best_uc and best_angle_quality, which equal evaluate_rig of
    that rig.
    """
    grid = voxelize(scene) if grid is None else grid
    rng = np.random.default_rng(config.seed)
    planar = scene.mode == PLANAR2D
    diag = scene.diagonal
    sigma_pos = config.perturb_scale * (diag if diag > 1e-9 else 1.0)
    sigma_rot = config.perturb_scale

    rig = initialize(scene, k, config.seed, intrinsics)
    E = coverage_matrix(rig, grid)
    energy, uc, angle_quality = _score(rig, grid, K, E)
    best_rig, best = rig, (energy, uc, angle_quality)

    def entry(temperature, accepted, proposals):
        return {"temperature": temperature, "energy": energy, "best_energy": best[0],
                "accepted": accepted, "proposals": proposals, "uc": uc,
                "angle_quality": angle_quality, "best_uc": best[1],
                "best_angle_quality": best[2]}

    trace = [entry(config.T0, 0, 0)]

    T = config.T0
    while T > config.termination:
        accepted = 0
        for _ in range(config.steps_per_temp):
            cam = int(rng.integers(k))
            cand = _perturb(rig, cam, sigma_pos, sigma_rot, planar, rng)
            cand_E = replace_row(E, cam, visible_set(cand.poses[cam], cand.intrinsics, grid))
            cand_score = _score(cand, grid, K, cand_E)
            if accept_proposal(cand_score[0] - energy, T, rng):
                rig, E, (energy, uc, angle_quality) = cand, cand_E, cand_score
                accepted += 1
                if energy < best[0]:
                    best_rig, best = rig, cand_score
        trace.append(entry(T, accepted, config.steps_per_temp))
        T *= config.cooling
    return best_rig, trace
