"""The benchmark's workloads: seeded input builders, the timed call, and the
output checks every repetition must pass.

A workload run is a sequence of instances. Instance i of workload seed s is
built from instance seed ``s * 1000 + i``: the scene samples (and, for the
hybrid workloads, the optimizer seed) come from it, so the program receives
only generated inputs and a perf claim can be re-checked on seeds never used
while it was written. Each instance is one timed call.
"""

import hashlib
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import camopt
from camopt import cli, cloudio, hybrid, metrics, scene as scene_mod

K_REQUIRED = 3
PLANE_TOLERANCE = 1e-9


def instance_seed(seed, index):
    return seed * 1000 + index


def fingerprint(poses):
    """sha256 of the float64 position and rot6 bytes of every pose, in order."""
    h = hashlib.sha256()
    for position, rot6 in poses:
        h.update(np.asarray(position, dtype="<f8").tobytes())
        h.update(np.asarray(rot6, dtype="<f8").tobytes())
    return h.hexdigest()


def _scene(points, normals):
    bounds = np.stack([points.min(axis=0), points.max(axis=0)])
    return camopt.TargetScene(points=points, normals=normals,
                              mode=camopt.VOLUMETRIC3D, bounds=bounds)


def sphere_scene(seed, count=3000):
    """Points uniform on the unit sphere; the normal is the position."""
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(count, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return _scene(pts, pts.copy())


def torus_scene(seed, count=3000, major=1.0, minor=0.35):
    """Points at uniform (u, v) torus angles with analytic outward normals."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.0, 2.0 * np.pi, count)
    v = rng.uniform(0.0, 2.0 * np.pi, count)
    normals = np.stack([np.cos(v) * np.cos(u), np.cos(v) * np.sin(u), np.sin(v)], axis=1)
    ring = np.stack([np.cos(u), np.sin(u), np.zeros(count)], axis=1)
    return _scene(major * ring + minor * normals, normals)


@dataclass
class Outcome:
    """What one timed call produced, after its output checks. An operation is
    one `optimize` call or one CLI cell."""
    attempted: int
    failed: int
    fingerprint: str
    uc: float
    angle_quality: float
    crit8_grad_ms: float = 0.0
    violations: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# hybrid optimizer, called in process
# ---------------------------------------------------------------------------

@dataclass
class HybridInstance:
    scene: object
    k: int
    config: object


class HybridWorkload:
    """`optimize` on one generated scene per instance."""

    def __init__(self, name, make_scene, k=10, **config):
        self.name = name
        self.make_scene = make_scene
        self.k = k
        self.config = config

    def build(self, seed, workdir):
        return HybridInstance(self.make_scene(seed), self.k,
                              camopt.OptimizerConfig(K=K_REQUIRED, seed=seed, **self.config))

    def run(self, inst, threads=1):
        t0 = time.perf_counter()
        rig, trace = hybrid.optimize(inst.scene, inst.k, inst.config)
        return time.perf_counter() - t0, (rig, trace)

    def check(self, inst, result):
        rig, trace = result
        violations = []
        last = trace.records[-1]
        grid = scene_mod.voxelize(inst.scene, inst.config.resolution)
        report = metrics.evaluate_rig(rig, grid, inst.config.K)
        if (report.uc, report.angle_quality) != (last.uc, last.angle_quality):
            violations.append(
                f"final record (uc {last.uc!r}, angle_quality {last.angle_quality!r}) != "
                f"evaluate_rig (uc {report.uc!r}, angle_quality {report.angle_quality!r})")
        poses = [(p.position, p.rot6) for p in rig.poses]
        if fingerprint([(p.position, p.rot6) for p in last.poses]) != fingerprint(poses):
            violations.append("final record poses differ from the returned rig")
        if inst.scene.mode == camopt.PLANAR2D:
            plane = inst.scene.points[0, 2]
            off = [i for i, p in enumerate(rig.poses)
                   if abs(p.position[2] - plane) > PLANE_TOLERANCE]
            if off:
                violations.append(f"planar cameras {off} left the scene plane z={plane}")
        for swap in trace.swaps:
            if not swap["loss_after"] < swap["loss_before"]:
                violations.append(f"swap did not lower the loss: {swap}")
        grads = [r.wall_ms for r in trace.records if r.phase == "grad"]
        return Outcome(attempted=1, failed=int(bool(violations)),
                       fingerprint=fingerprint(poses), uc=report.uc,
                       angle_quality=report.angle_quality,
                       crit8_grad_ms=max(grads) if grads else 0.0,
                       violations=violations)


# ---------------------------------------------------------------------------
# simulated annealing through the command line, called in process
# ---------------------------------------------------------------------------

@dataclass
class CliInstance:
    config_path: Path
    out_dir: Path
    cell_seeds: list


class AnnealCliWorkload:
    """`camopt optimize` with the SA optimizer on a PLY the benchmark writes,
    over `cells` cells whose seeds come from the instance seed.

    A cell's cost is set mostly by how many of its k cameras face the object,
    which its seed decides; many short chains per call average that out,
    where two long ones spread call times over 4-16 s.
    """

    def __init__(self, name, make_scene, k=8, cells=2, anneal=None):
        self.name = name
        self.make_scene = make_scene
        self.k = k
        self.cells = cells
        self.anneal = anneal or {}

    def build(self, seed, workdir):
        workdir = Path(workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        scene = self.make_scene(seed)
        ply = workdir / f"scene_{seed}.ply"
        gray = np.full(scene.points.shape, 128.0)
        cloudio.write_ply_rgb(ply, scene.points, gray, normals=scene.normals)
        cell_seeds = [seed * self.cells + c for c in range(self.cells)]
        config = {
            "scene_source": {"path": str(ply)},
            "mode": camopt.VOLUMETRIC3D,
            "k_list": [self.k],
            "seeds": cell_seeds,
            "optimizer": "sa",
            "K": K_REQUIRED,
            "optimizer_config": dict(self.anneal),
            "output_dir": str(workdir / f"cells_{seed}"),
        }
        config_path = workdir / f"config_{seed}.json"
        config_path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
        return CliInstance(config_path, workdir / f"cells_{seed}", cell_seeds)

    def run(self, inst, threads=1):
        shutil.rmtree(inst.out_dir, ignore_errors=True)
        t0 = time.perf_counter()
        code = cli.main(["optimize", "--config", str(inst.config_path),
                         "--threads", str(threads), "--out", str(inst.out_dir)])
        return time.perf_counter() - t0, code

    def check(self, inst, code):
        violations = []
        if code != 0:
            violations.append(f"camopt optimize exited with {code}")
        cells = [inst.out_dir / f"sa_k{self.k}_seed{s}.json" for s in inst.cell_seeds]
        poses, ucs, quals = [], [], []
        bad_cells = set()
        for path in cells:
            if not path.is_file():
                violations.append(f"missing cell result {path.name}")
                bad_cells.add(path)
                continue
            final = json.loads(path.read_text())["final"]
            poses += [(p["position"], p["rot6"]) for p in final["poses"]]
            ucs.append(final["uc"])
            quals.append(final["angle_quality"])
            evaluated = path.with_name(path.stem + ".evaluate.json")
            ev_code = cli.main(["evaluate", str(path), "--out", str(evaluated)])
            if ev_code != 0:
                violations.append(f"camopt evaluate {path.name} exited with {ev_code}")
                bad_cells.add(path)
                continue
            ev = json.loads(evaluated.read_text())
            if (ev["uc"], ev["angle_quality"]) != (final["uc"], final["angle_quality"]):
                violations.append(
                    f"{path.name}: written (uc {final['uc']!r}, angle_quality "
                    f"{final['angle_quality']!r}) != camopt evaluate (uc {ev['uc']!r}, "
                    f"angle_quality {ev['angle_quality']!r})")
                bad_cells.add(path)
        failed = len(cells) if code != 0 else len(bad_cells)
        return Outcome(attempted=len(cells), failed=failed, fingerprint=fingerprint(poses),
                       uc=float(np.mean(ucs)) if ucs else float("nan"),
                       angle_quality=float(np.mean(quals)) if quals else float("nan"),
                       violations=violations)


WORKLOADS = {
    w.name: w for w in (
        HybridWorkload(
            "circle2d_hybrid",
            lambda seed: camopt.generate_planar_shape(
                camopt.ShapeSpec("circle", {"radius": 1.0}, 2000, seed)),
            resolution=0.0075, max_outer=3),
        HybridWorkload("sphere3d_hybrid", sphere_scene, max_outer=3),
        AnnealCliWorkload(
            "torus3d_anneal_cli", torus_scene, cells=8,
            anneal={"T0": 0.05, "cooling": 0.8, "steps_per_temp": 3,
                    "termination": 0.001}),
    )
}
