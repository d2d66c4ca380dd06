"""Batch experiment driver.

Subcommands:
    generate  build a scene from a config and write it out as PLY
    optimize  run every (k, seed) cell of a config with its chosen optimizer
    evaluate  recompute exact-visibility metrics for a saved result
    export    write a voxel cloud colored by residual observation need
    report    aggregate cell result files into a summary

Exit codes: 0 success, 2 config/usage error, 3 runtime failure.
"""
import argparse
import json
import math
import sys
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field as dfield, fields
from pathlib import Path

import numpy as np

from . import cloudio, native
from .attributes import shape_analyze
from .baselines import AnnealConfig, random_search, simulated_annealing
from .hybrid import OptimizerConfig, optimize
from .metrics import evaluate_rig
from .scene import (
    PLANAR2D,
    VOLUMETRIC3D,
    ShapeSpec,
    generate_planar_shape,
    load_scene,
    voxelize,
)
from .visibility import CameraIntrinsics, CameraRig, CameraPose, default_intrinsics

OPTIMIZERS = ("hybrid", "grad_only", "non_grad_only", "sa", "random")


class ConfigError(ValueError):
    """Raised for malformed experiment configs; maps to exit code 2."""


def optimizer_config_keys(optimizer: str) -> set:
    """The `optimizer_config` keys an optimizer reads. Every optimizer reads
    `resolution`; the top-level K and the cell's seed are not keys here."""
    reads = {"trials"} if optimizer == "random" else {
        f.name for f in fields(AnnealConfig if optimizer == "sa" else OptimizerConfig)}
    return (reads - {"K", "seed"}) | {"resolution"}


@dataclass
class ExperimentConfig:
    scene_source: dict                     # {"generator": {...}} or {"path": "..."}
    k_list: list
    seeds: list
    optimizer: str = "hybrid"
    mode: str = PLANAR2D
    K: int = 3
    intrinsics: dict | None = None         # null -> scaled defaults
    optimizer_config: dict = dfield(default_factory=dict)
    output_dir: str = "results"

    def __post_init__(self):
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(
                f"optimizer: {self.optimizer!r} is not one of {OPTIMIZERS}")
        if not self.seeds:
            raise ConfigError("seeds: need at least one seed")
        if not self.k_list:
            raise ConfigError("k_list: need at least one camera count")
        if self.mode not in (PLANAR2D, VOLUMETRIC3D):
            raise ConfigError(f"mode: unknown mode {self.mode!r}")
        if not isinstance(self.scene_source, dict) or \
                not ({"generator", "path"} & set(self.scene_source)):
            raise ConfigError("scene_source: need a 'generator' spec or a 'path'")
        if not isinstance(self.optimizer_config, dict):
            raise ConfigError("optimizer_config: need an object")
        unknown = set(self.optimizer_config) - optimizer_config_keys(self.optimizer)
        if unknown:
            raise ConfigError(
                f"optimizer_config: {self.optimizer} takes no keys {sorted(unknown)}")
        if self.intrinsics is not None:
            wanted = {"hfov", "vfov", "near", "far"}
            if not isinstance(self.intrinsics, dict) or \
                    set(self.intrinsics) != wanted:
                raise ConfigError(
                    f"intrinsics: need exactly the keys {sorted(wanted)}")

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        missing = {"scene_source", "k_list", "seeds"} - set(data)
        if missing:
            raise ConfigError(f"missing config fields: {sorted(missing)}")
        return cls(**data)

    def to_dict(self) -> dict:
        return asdict(self)


def parse_config(path) -> ExperimentConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    return ExperimentConfig.from_dict(data)


def build_scene(config: ExperimentConfig):
    src = config.scene_source
    if "generator" in src:
        g = dict(src["generator"])
        comps = tuple(g.pop("components", ()))
        spec = ShapeSpec(
            kind=g.pop("kind"),
            parameters=g.pop("parameters", {}),
            sample_count=g.pop("sample_count", 256),
            seed=g.pop("seed", 0),
            components=comps,
        )
        if g:
            raise ConfigError(f"scene_source.generator: unknown keys {sorted(g)}")
        return generate_planar_shape(spec)
    return load_scene(src["path"], mode=config.mode)


def _scene_and_grid(config: ExperimentConfig):
    """The configured scene and its voxel grid at `optimizer_config.resolution`."""
    scene = build_scene(config)
    return scene, voxelize(scene, config.optimizer_config.get("resolution"))


def _build_intrinsics(config: ExperimentConfig, scene) -> CameraIntrinsics:
    if config.intrinsics is None:
        return default_intrinsics(scene.diagonal)
    d = config.intrinsics
    return CameraIntrinsics(hfov=d["hfov"], vfov=d["vfov"],
                            near=d["near"], far=d["far"])


def _pose_payload(rig: CameraRig) -> list:
    return [{"position": p.position.tolist(), "rot6": p.rot6.tolist()}
            for p in rig.poses]


def _iteration_rows(trace) -> list:
    rows = []
    for r in trace.records:
        c = np.asarray(r.components, dtype=np.float64)
        rows.append({
            "iter": r.index, "phase": r.phase, "L": float(r.loss),
            "L_vis": float(c[0]), "L_cc": float(c[1]), "L_co": float(c[2]),
            "uc": float(r.uc), "angle_quality": float(r.angle_quality),
            "wall_ms": float(r.wall_ms),
        })
    return rows


def run_cell(scene, grid, config: ExperimentConfig, k: int, seed: int) -> dict:
    """One (k, seed) run of the configured optimizer, as a results payload.
    `grid` is the scene voxelized at the configured resolution; the cells of
    a run share it read-only. The final scores come from the optimizer's own
    exact evaluation of its returned rig where it has one."""
    opt_kw = config.optimizer_config
    intrinsics = _build_intrinsics(config, scene) if config.intrinsics else None
    if config.optimizer in ("hybrid", "grad_only", "non_grad_only"):
        cfg = OptimizerConfig(K=config.K, seed=seed, **opt_kw)
        rig, trace = optimize(
            scene, k, cfg,
            grad_enabled=config.optimizer != "non_grad_only",
            non_grad_enabled=config.optimizer != "grad_only",
            intrinsics=intrinsics, grid=grid)
        per_iteration = _iteration_rows(trace)
        last = trace.records[-1]        # scores the returned rig exactly
        final = {"uc": last.uc, "angle_quality": last.angle_quality}
    elif config.optimizer == "random":
        trials = int(opt_kw.get("trials", 50))
        rig = random_search(scene, k, trials=trials, seed=seed, K=config.K,
                            grid=grid, intrinsics=intrinsics)
        per_iteration = []
        report = evaluate_rig(rig, grid, config.K)
        final = {"uc": report.uc, "angle_quality": report.angle_quality}
    else:  # sa
        anneal_kw = {key: value for key, value in opt_kw.items() if key != "resolution"}
        rig, sa_trace = simulated_annealing(
            scene, k, AnnealConfig(seed=seed, **anneal_kw), K=config.K,
            grid=grid, intrinsics=intrinsics)
        per_iteration = [{
            "iter": i, "phase": "anneal", "L": t["energy"],
            "L_vis": None, "L_cc": None, "L_co": None,
            "uc": t["uc"], "angle_quality": t["angle_quality"], "wall_ms": None,
        } for i, t in enumerate(sa_trace)]
        # the chain already holds its best rig's exact scores
        final = {"uc": sa_trace[-1]["best_uc"],
                 "angle_quality": sa_trace[-1]["best_angle_quality"]}
    return {
        "config": {**config.to_dict(), "k": k, "seed": seed},
        "per_iteration": per_iteration,
        "final": {**final, "poses": _pose_payload(rig)},
    }


def _dump_json(payload, path: Path):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def summarize(cells: list) -> dict:
    """Aggregate uc/angle-quality stats per optimizer across cell payloads."""
    groups = {}
    for cell in cells:
        groups.setdefault(cell["config"]["optimizer"], []).append(cell["final"])
    summary = {}
    for name, finals in sorted(groups.items()):
        uc = [f["uc"] for f in finals]
        aq = [f["angle_quality"] for f in finals]
        summary[name] = {
            "cells": len(finals),
            "uc": {"mean": float(np.mean(uc)), "min": float(np.min(uc)),
                   "max": float(np.max(uc)), "median": float(np.median(uc))},
            "angle_quality": {"mean": float(np.mean(aq)),
                              "min": float(np.min(aq)), "max": float(np.max(aq)),
                              "median": float(np.median(aq))},
        }
    return summary


def run(config_path, threads: int = 1, seed_override=None, out_override=None) -> int:
    if threads < 1:
        print(f"usage error: --threads must be at least 1, got {threads}", file=sys.stderr)
        return 2
    try:
        config = parse_config(config_path)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if seed_override is not None:
        config.seeds = [int(seed_override)]
    if out_override is not None:
        config.output_dir = str(out_override)
    try:
        scene, grid = _scene_and_grid(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"scene load or voxelization failure: {exc}", file=sys.stderr)
        return 3
    try:
        native.load()    # every optimizer's visibility runs in the kernels
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cells = [(k, seed) for k in config.k_list for seed in config.seeds]

    def one(cell):
        k, seed = cell
        return run_cell(scene, grid, config, k, seed)

    results, failures = [], []
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(lambda c: _guard(one, c), cells))
    else:
        outcomes = [_guard(one, c) for c in cells]
    for cell, (payload, err) in zip(cells, outcomes):
        if err is not None:
            failures.append((cell, err))
            continue
        results.append(payload)
        name = f"{config.optimizer}_k{cell[0]}_seed{cell[1]}.json"
        _dump_json(payload, out_dir / name)
    _dump_json(summarize(results), out_dir / "summary.json")

    if failures:
        for (k, seed), err in failures:
            print(f"cell k={k} seed={seed} failed: {err}", file=sys.stderr)
        return 3
    return 0


def _guard(fn, arg):
    try:
        return fn(arg), None
    except Exception:
        return None, traceback.format_exc(limit=3)


# ---------------------------------------------------------------------------
# colored cloud export
# ---------------------------------------------------------------------------

CHANNELS = ("c", "phi_cc", "phi_co", "combined")


def export_colored_cloud(grid, attrs, channel: str, path):
    """Voxel centers colored by normalized residual need: 0 -> blue, sup -> red."""
    if channel not in CHANNELS:
        raise ValueError(f"channel must be one of {CHANNELS}")
    if len(attrs.c) != len(grid.centers):
        raise ValueError("attribute length does not match voxel count")
    norm = {
        "c": attrs.c / attrs.K,
        "phi_cc": attrs.phi_cc / (math.pi / 2.0),
        "phi_co": attrs.phi_co,
    }
    if channel == "combined":
        value = (norm["c"] + norm["phi_cc"] + norm["phi_co"]) / 3.0
    else:
        value = norm[channel]
    value = np.clip(value, 0.0, 1.0)
    colors = np.stack([255.0 * value, np.zeros_like(value),
                       255.0 * (1.0 - value)], axis=1)
    cloudio.write_ply_rgb(path, grid.centers, colors, normals=grid.normals)


# ---------------------------------------------------------------------------
# argument parsing / entry point
# ---------------------------------------------------------------------------

def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="camopt", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write the configured scene as PLY")
    gen.add_argument("--config", required=True)
    gen.add_argument("--out", required=True)

    opt = sub.add_parser("optimize", help="run every (k, seed) experiment cell")
    opt.add_argument("--config", required=True)
    opt.add_argument("--out", help="override the config's output_dir")
    opt.add_argument("--seed-override", type=int)
    opt.add_argument("--threads", type=int, default=1)

    ev = sub.add_parser("evaluate", help="recompute metrics for a saved result")
    ev.add_argument("results", help="cell results JSON")
    ev.add_argument("--config", help="config to rebuild the scene (defaults to embedded)")
    ev.add_argument("--out", help="write the evaluation JSON here instead of stdout")

    ex = sub.add_parser("export", help="write a need-colored voxel cloud")
    ex.add_argument("results", help="cell results JSON")
    ex.add_argument("--channel", choices=CHANNELS, default="combined")
    ex.add_argument("--out", required=True)

    rep = sub.add_parser("report", help="aggregate cell files into a summary")
    rep.add_argument("cells", nargs="+", help="cell results JSON files")
    rep.add_argument("--out", help="write the summary here instead of stdout")
    return ap


def _load_result(path) -> tuple:
    """(payload, config, final poses) of a cell results file; a file that
    does not hold them, or the final uc and angle quality that `report`
    summarizes, is a usage error, like a malformed config."""
    try:
        data = json.loads(Path(path).read_text())
        for key in ("uc", "angle_quality"):
            if not isinstance(data["final"].get(key), (int, float)):
                raise ValueError(f"final {key} is missing or not a number")
        config = ExperimentConfig.from_dict(
            {k: v for k, v in data["config"].items() if k not in ("k", "seed")})
        poses = tuple(
            CameraPose(np.asarray(p["position"], dtype=np.float64),
                       np.asarray(p["rot6"], dtype=np.float64))
            for p in data["final"]["poses"])
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ConfigError(f"malformed results file {path}: {exc!r}") from exc
    return data, config, poses


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "generate":
            config = parse_config(args.config)
            scene = build_scene(config)
            colors = np.tile([128.0, 128.0, 128.0], (len(scene.points), 1))
            cloudio.write_ply_rgb(args.out, scene.points, colors, scene.normals)
            print(f"wrote {len(scene.points)} points to {args.out}")
            return 0

        if args.command == "optimize":
            return run(args.config, threads=args.threads,
                       seed_override=args.seed_override, out_override=args.out)

        if args.command == "evaluate":
            _, config, poses = _load_result(args.results)
            if args.config:
                config = parse_config(args.config)
            scene, grid = _scene_and_grid(config)
            rig = CameraRig(poses, _build_intrinsics(config, scene))
            report = evaluate_rig(rig, grid, config.K)
            payload = {"uc": report.uc, "angle_quality": report.angle_quality,
                       "camera_count": report.camera_count,
                       "voxel_count": report.voxel_count}
            if args.out:
                _dump_json(payload, Path(args.out))
            else:
                print(json.dumps(payload, indent=2, sort_keys=True))
            return 0

        if args.command == "export":
            _, config, poses = _load_result(args.results)
            scene, grid = _scene_and_grid(config)
            rig = CameraRig(poses, _build_intrinsics(config, scene))
            _, attrs = shape_analyze(rig, grid, config.K)
            export_colored_cloud(grid, attrs, args.channel, args.out)
            print(f"wrote {len(grid.centers)} voxels to {args.out}")
            return 0

        if args.command == "report":
            cells = [_load_result(p)[0] for p in args.cells]
            payload = summarize(cells)
            if args.out:
                _dump_json(payload, Path(args.out))
            else:
                print(json.dumps(payload, indent=2, sort_keys=True))
            return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 2


if __name__ == "__main__":
    sys.exit(main())
