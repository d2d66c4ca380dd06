"""Batch driver: config handling, cell outputs, reproducibility, exports."""
import json
import math
from pathlib import Path

import numpy as np
import pytest

import camopt.baselines as baselines
import camopt.cli as cli
from camopt.attributes import ObservationAttributes
from camopt.baselines import W_VIS
from camopt.cli import (
    ConfigError,
    ExperimentConfig,
    build_scene,
    export_colored_cloud,
    main,
    run,
    summarize,
)
from camopt.hybrid import initialize
from camopt.metrics import evaluate_rig
from camopt.scene import voxelize


def write_config(path: Path, **overrides) -> Path:
    data = {
        "scene_source": {"generator": {"kind": "circle",
                                       "parameters": {"radius": 1.0},
                                       "sample_count": 48, "seed": 1}},
        "k_list": [3],
        "seeds": [0],
        "optimizer": "hybrid",
        "mode": "planar2d",
        "K": 2,
        "optimizer_config": {"max_outer": 2},
        "output_dir": str(path.parent / "out"),
    }
    data.update(overrides)
    path.write_text(json.dumps(data))
    return path


def strip_wall_ms(payload: dict) -> dict:
    clean = json.loads(json.dumps(payload))
    for row in clean.get("per_iteration", []):
        row.pop("wall_ms", None)
    return clean


def read_ascii_ply_rows(path) -> np.ndarray:
    """Raw per-vertex property rows of an ascii PLY, independent of cloudio."""
    lines = Path(path).read_text().splitlines()
    assert lines[0] == "ply"
    end = lines.index("end_header")
    count = next(int(l.split()[-1]) for l in lines[:end]
                 if l.startswith("element vertex"))
    body = lines[end + 1:end + 1 + count]
    return np.array([[float(tok) for tok in line.split()] for line in body])


class TestConfig:
    def test_round_trip(self):
        cfg = ExperimentConfig(
            scene_source={"generator": {"kind": "circle",
                                        "parameters": {"radius": 2.0},
                                        "sample_count": 32}},
            k_list=[2, 4], seeds=[0, 1, 2], optimizer="sa", mode="planar2d",
            K=4, optimizer_config={"T0": 0.7}, output_dir="x")
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize("patch", [
        {"optimizer": "gradient_descent"},
        {"seeds": []},
        {"k_list": []},
        {"mode": "spherical"},
        {"scene_source": {}},
    ])
    def test_rejects_bad_fields(self, patch):
        base = {
            "scene_source": {"path": "scene.ply"},
            "k_list": [1], "seeds": [0],
        }
        base.update(patch)
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(base)

    def test_rejects_unknown_and_missing_keys(self):
        with pytest.raises(ConfigError, match="unknown"):
            ExperimentConfig.from_dict({"scene_source": {"path": "x"},
                                        "k_list": [1], "seeds": [0],
                                        "shininess": 3})
        with pytest.raises(ConfigError, match="missing"):
            ExperimentConfig.from_dict({"k_list": [1], "seeds": [0]})

    def test_generator_scene_matches_sample_count(self, tmp_path):
        cfg_path = write_config(tmp_path / "c.json")
        cfg = ExperimentConfig.from_dict(json.loads(cfg_path.read_text()))
        scene = build_scene(cfg)
        assert len(scene.points) == 48


class TestRun:
    def test_single_cell_writes_cell_and_summary(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        assert run(cfg) == 0
        out = tmp_path / "out"
        files = sorted(p.name for p in out.iterdir())
        assert files == ["hybrid_k3_seed0.json", "summary.json"]
        payload = json.loads((out / "hybrid_k3_seed0.json").read_text())
        assert payload["config"]["k"] == 3 and payload["config"]["seed"] == 0
        assert payload["per_iteration"][0]["phase"] == "init"
        for row in payload["per_iteration"]:
            assert set(row) == {"iter", "phase", "L", "L_vis", "L_cc", "L_co",
                                "uc", "angle_quality", "wall_ms"}
        final = payload["final"]
        assert 0.0 <= final["uc"] <= 1.0
        assert len(final["poses"]) == 3
        for pose in final["poses"]:
            assert len(pose["position"]) == 3 and len(pose["rot6"]) == 6

    def test_rerun_identical_apart_from_timings(self, tmp_path):
        cfg_a = write_config(tmp_path / "a.json",
                             output_dir=str(tmp_path / "out_a"))
        cfg_b = write_config(tmp_path / "b.json",
                             output_dir=str(tmp_path / "out_b"))
        assert run(cfg_a) == 0 and run(cfg_b) == 0
        pa = json.loads((tmp_path / "out_a" / "hybrid_k3_seed0.json").read_text())
        pb = json.loads((tmp_path / "out_b" / "hybrid_k3_seed0.json").read_text())
        pa["config"]["output_dir"] = pb["config"]["output_dir"] = ""
        assert strip_wall_ms(pa) == strip_wall_ms(pb)

    def test_seed_override_narrows_to_one_cell(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", seeds=[0, 1, 2])
        assert run(cfg, seed_override=7) == 0
        files = sorted(p.name for p in (tmp_path / "out").iterdir())
        assert files == ["hybrid_k3_seed7.json", "summary.json"]

    def test_threads_match_serial_output(self, tmp_path):
        cfg_s = write_config(tmp_path / "s.json", seeds=[0, 1],
                             output_dir=str(tmp_path / "serial"))
        cfg_t = write_config(tmp_path / "t.json", seeds=[0, 1],
                             output_dir=str(tmp_path / "threaded"))
        assert run(cfg_s, threads=1) == 0
        assert run(cfg_t, threads=2) == 0
        for name in ("hybrid_k3_seed0.json", "hybrid_k3_seed1.json"):
            ps = json.loads((tmp_path / "serial" / name).read_text())
            pt = json.loads((tmp_path / "threaded" / name).read_text())
            ps["config"]["output_dir"] = pt["config"]["output_dir"] = ""
            assert strip_wall_ms(ps) == strip_wall_ms(pt)

    @pytest.mark.parametrize("optimizer, extra", [
        ("sa", {"T0": 0.5, "cooling": 0.6, "steps_per_temp": 4, "termination": 0.05}),
        ("random", {"trials": 4}),
    ])
    def test_threads_match_serial_output_for_baselines(self, tmp_path, optimizer, extra):
        # the cells of a run share one voxel grid, threaded or not
        cfg_s = write_config(tmp_path / "s.json", seeds=[0, 1, 2], optimizer=optimizer,
                             optimizer_config=extra, output_dir=str(tmp_path / "serial"))
        cfg_t = write_config(tmp_path / "t.json", seeds=[0, 1, 2], optimizer=optimizer,
                             optimizer_config=extra, output_dir=str(tmp_path / "threaded"))
        assert run(cfg_s, threads=1) == 0
        assert run(cfg_t, threads=2) == 0
        for seed in (0, 1, 2):
            name = f"{optimizer}_k3_seed{seed}.json"
            ps = json.loads((tmp_path / "serial" / name).read_text())
            pt = json.loads((tmp_path / "threaded" / name).read_text())
            ps["config"]["output_dir"] = pt["config"]["output_dir"] = ""
            assert strip_wall_ms(ps) == strip_wall_ms(pt)

    def test_sa_run_voxelizes_once(self, tmp_path, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return voxelize(*args, **kwargs)

        monkeypatch.setattr(cli, "voxelize", counting)
        monkeypatch.setattr(baselines, "voxelize", counting)
        cfg = write_config(tmp_path / "c.json", seeds=[0, 1, 2], optimizer="sa",
                           optimizer_config={"T0": 0.5, "cooling": 0.5,
                                             "steps_per_temp": 2, "termination": 0.1})
        assert run(cfg) == 0
        assert len(calls) == 1
        assert len(list((tmp_path / "out").glob("sa_k3_seed*.json"))) == 3

    def test_summary_recomputable_from_cell_files(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", seeds=[0, 1, 2],
                           optimizer="random",
                           optimizer_config={"trials": 5})
        assert run(cfg) == 0
        out = tmp_path / "out"
        cells = [json.loads(p.read_text()) for p in sorted(out.iterdir())
                 if p.name != "summary.json"]
        stored = json.loads((out / "summary.json").read_text())
        assert stored == summarize(cells)
        assert stored["random"]["cells"] == 3
        ucs = [c["final"]["uc"] for c in cells]
        assert stored["random"]["uc"]["mean"] == pytest.approx(np.mean(ucs))
        assert stored["random"]["uc"]["min"] == min(ucs)
        assert stored["random"]["uc"]["max"] == max(ucs)

    def test_three_seeds_two_optimizers_aggregate(self, tmp_path, capsys):
        out = tmp_path / "out"
        for optimizer, extra in (("hybrid", {"max_outer": 2}),
                                 ("random", {"trials": 3})):
            cfg = write_config(tmp_path / f"{optimizer}.json",
                               seeds=[0, 1, 2], optimizer=optimizer,
                               optimizer_config=extra, output_dir=str(out))
            assert run(cfg) == 0
        cell_paths = sorted(p for p in out.iterdir() if p.name != "summary.json")
        assert len(cell_paths) == 6
        assert main(["report", *map(str, cell_paths)]) == 0
        merged = json.loads(capsys.readouterr().out)
        # recompute the aggregate independently from the raw cell files
        by_opt = {}
        for p in cell_paths:
            cell = json.loads(p.read_text())
            by_opt.setdefault(cell["config"]["optimizer"], []).append(
                cell["final"]["uc"])
        assert set(merged) == {"hybrid", "random"}
        for name, ucs in by_opt.items():
            assert merged[name]["cells"] == 3
            assert merged[name]["uc"]["mean"] == pytest.approx(np.mean(ucs))
            assert merged[name]["uc"]["min"] == min(ucs)
            assert merged[name]["uc"]["max"] == max(ucs)

    def test_sa_cells_record_anneal_trace(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", optimizer="sa",
                           optimizer_config={"T0": 0.5, "cooling": 0.6,
                                             "steps_per_temp": 4,
                                             "termination": 0.05})
        assert run(cfg) == 0
        payload = json.loads(
            (tmp_path / "out" / "sa_k3_seed0.json").read_text())
        rows = payload["per_iteration"]
        assert rows and all(r["phase"] == "anneal" for r in rows)
        assert all(r["L_vis"] is None for r in rows)
        energies = [r["L"] for r in rows]
        assert all(math.isfinite(e) for e in energies)

    def test_sa_rows_hold_exact_uc_and_angle_quality(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", optimizer="sa",
                           optimizer_config={"T0": 0.5, "cooling": 0.6,
                                             "steps_per_temp": 4,
                                             "termination": 0.05})
        assert run(cfg) == 0
        rows = json.loads((tmp_path / "out" / "sa_k3_seed0.json").read_text())["per_iteration"]
        for r in rows:
            assert r["L"] == W_VIS * r["uc"] - (1.0 - W_VIS) * r["angle_quality"]
            assert (r["L_vis"], r["L_cc"], r["L_co"], r["wall_ms"]) == (None,) * 4
        scene = build_scene(ExperimentConfig.from_dict(json.loads(cfg.read_text())))
        report = evaluate_rig(initialize(scene, 3, 0), voxelize(scene), 2)
        assert (rows[0]["uc"], rows[0]["angle_quality"]) == (report.uc, report.angle_quality)


class TestExitCodes:
    def test_missing_config_is_usage_error(self, capsys):
        assert main(["optimize", "--config", "/nonexistent/c.json"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_malformed_json_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["optimize", "--config", str(bad)]) == 2

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_is_usage_error(self, tmp_path, capsys, threads):
        cfg = write_config(tmp_path / "c.json", optimizer="sa",
                           optimizer_config={"steps_per_temp": 1, "termination": 0.5})
        out = tmp_path / "out"
        assert main(["optimize", "--config", str(cfg), "--threads", threads,
                     "--out", str(out)]) == 2
        assert "--threads" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_optimizer_is_usage_error(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", optimizer="banana")
        assert main(["optimize", "--config", str(cfg)]) == 2

    def test_unreadable_scene_is_runtime_error(self, tmp_path):
        cfg = write_config(tmp_path / "c.json",
                           scene_source={"path": str(tmp_path / "missing.ply")})
        assert main(["optimize", "--config", str(cfg)]) == 3

    def test_external_generator_kind_is_runtime_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", scene_source={"generator": {
            "kind": "external", "parameters": {}, "sample_count": 48}})
        assert main(["optimize", "--config", str(cfg)]) == 3
        assert "unknown shape kind 'external'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unvoxelizable_scene_exits_3_before_any_cell(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", optimizer="sa",
                           optimizer_config={"resolution": 0.0})
        assert main(["optimize", "--config", str(cfg)]) == 3
        assert "resolution must be positive" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_failing_cell_reports_and_exits_3(self, tmp_path, capsys):
        # a zero-camera cell fails at rig construction inside the worker
        cfg = write_config(tmp_path / "c.json", k_list=[0])
        assert main(["optimize", "--config", str(cfg)]) == 3
        assert "failed" in capsys.readouterr().err

    def assert_rejected_before_any_cell(self, tmp_path, capsys, optimizer, optimizer_config):
        cfg = write_config(tmp_path / "c.json", optimizer=optimizer,
                           optimizer_config=optimizer_config)
        assert main(["optimize", "--config", str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("optimizer", ["hybrid", "grad_only", "non_grad_only"])
    @pytest.mark.parametrize("key", ["bogus", "threads", "trials", "T0"])
    def test_unknown_gradient_optimizer_key_is_usage_error(self, tmp_path, capsys,
                                                           optimizer, key):
        self.assert_rejected_before_any_cell(tmp_path, capsys, optimizer,
                                             {"max_outer": 1, key: 1})

    @pytest.mark.parametrize("key", ["bogus", "trials", "max_outer"])
    def test_unknown_sa_key_is_usage_error(self, tmp_path, capsys, key):
        self.assert_rejected_before_any_cell(tmp_path, capsys, "sa", {"T0": 0.5, key: 1})

    @pytest.mark.parametrize("key", ["bogus", "T0", "max_outer"])
    def test_unknown_random_key_is_usage_error(self, tmp_path, capsys, key):
        self.assert_rejected_before_any_cell(tmp_path, capsys, "random", {"trials": 2, key: 1})

    @pytest.mark.parametrize("optimizer", ["hybrid", "grad_only", "non_grad_only",
                                           "sa", "random"])
    def test_shared_keys_accepted_by_every_optimizer(self, optimizer):
        config = ExperimentConfig(scene_source={"path": "scene.ply"}, k_list=[1], seeds=[0],
                                  optimizer=optimizer,
                                  optimizer_config={"K": 5, "seed": 9, "resolution": 0.1})
        assert config.optimizer_config["resolution"] == 0.1

    @pytest.fixture(params=["invalid_json", "missing_config"])
    def malformed_result(self, request, tmp_path):
        path = tmp_path / "cell.json"
        path.write_text("{not json" if request.param == "invalid_json"
                        else json.dumps({"final": {"poses": []}}))
        return path

    def test_evaluate_malformed_result_is_usage_error(self, malformed_result, capsys):
        assert main(["evaluate", str(malformed_result)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_export_malformed_result_is_usage_error(self, malformed_result, tmp_path, capsys):
        out = tmp_path / "need.ply"
        assert main(["export", str(malformed_result), "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()


class TestSubcommands:
    @pytest.fixture()
    def cell_file(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        assert run(cfg) == 0
        return tmp_path / "out" / "hybrid_k3_seed0.json"

    def test_generate_writes_full_cloud(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json")
        out = tmp_path / "scene.ply"
        assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_ascii_ply_rows(out)
        assert rows.shape[0] == 48

    def test_evaluate_matches_stored_final(self, cell_file, capsys):
        assert main(["evaluate", str(cell_file)]) == 0
        report = json.loads(capsys.readouterr().out)
        stored = json.loads(cell_file.read_text())["final"]
        assert report["uc"] == pytest.approx(stored["uc"], abs=1e-12)
        assert report["angle_quality"] == pytest.approx(
            stored["angle_quality"], abs=1e-12)
        assert report["camera_count"] == 3

    def test_export_writes_colored_voxels(self, cell_file, tmp_path):
        out = tmp_path / "need.ply"
        assert main(["export", str(cell_file), "--channel", "c",
                     "--out", str(out)]) == 0
        rows = read_ascii_ply_rows(out)
        assert rows.shape[1] == 9  # xyz + normal + rgb
        rgb = rows[:, 6:9]
        assert rgb.min() >= 0 and rgb.max() <= 255

    def test_report_merges_cells(self, cell_file, capsys):
        assert main(["report", str(cell_file), str(cell_file)]) == 0
        merged = json.loads(capsys.readouterr().out)
        assert merged["hybrid"]["cells"] == 2


class TestHybridCellsShareWork:
    """Hybrid-family cells reuse the run's grid and take their final scores
    from the optimizer's last trace record."""

    @pytest.mark.parametrize("optimizer", ["hybrid", "grad_only", "non_grad_only"])
    def test_cells_voxelize_nothing_inside_optimize(self, tmp_path, monkeypatch, optimizer):
        import camopt.hybrid as hybrid

        calls = []
        real = hybrid.voxelize

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(hybrid, "voxelize", counting)
        cfg = write_config(tmp_path / "c.json", optimizer=optimizer, seeds=[0, 1])
        assert run(cfg) == 0
        assert len(list((tmp_path / "out").glob(f"{optimizer}_k3_seed*.json"))) == 2
        assert calls == []

    def test_final_scores_come_from_the_last_record(self, tmp_path, monkeypatch, capsys):
        import camopt.attributes as attributes
        import camopt.hybrid as hybrid
        import camopt.metrics as metrics
        import camopt.visibility as visibility

        events = []
        for name in ("optimize", "run_cell"):
            def marking(*args, _name=name, _real=getattr(cli, name), **kwargs):
                out = _real(*args, **kwargs)
                events.append(f"{_name} end")
                return out

            monkeypatch.setattr(cli, name, marking)
        for module, name in ((cli, "evaluate_rig"), (metrics, "evaluate_rig"),
                             (visibility, "coverage_matrix"), (attributes, "coverage_matrix"),
                             (metrics, "coverage_matrix"), (baselines, "coverage_matrix"),
                             (hybrid, "coverage_matrix")):
            real = getattr(module, name, None)
            if real is None:
                continue

            def counting(*args, _name=name, _real=real, **kwargs):
                events.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
        cfg = write_config(tmp_path / "c.json", seeds=[0, 1])
        assert run(cfg) == 0
        # the optimizers score coverage inside; the cell adds nothing after
        assert "coverage_matrix" in events
        ends = [i for i, e in enumerate(events) if e == "optimize end"]
        assert len(ends) == 2
        assert all(events[i + 1] == "run_cell end" for i in ends)
        monkeypatch.undo()
        for seed in (0, 1):
            cell = tmp_path / "out" / f"hybrid_k3_seed{seed}.json"
            stored = json.loads(cell.read_text())
            assert main(["evaluate", str(cell)]) == 0
            report = json.loads(capsys.readouterr().out)
            assert (report["uc"], report["angle_quality"]) == (
                stored["final"]["uc"], stored["final"]["angle_quality"])
            last = stored["per_iteration"][-1]
            assert (last["uc"], last["angle_quality"]) == (
                stored["final"]["uc"], stored["final"]["angle_quality"])


class TestColoredExport:
    @pytest.fixture()
    def grid(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        scene = build_scene(ExperimentConfig.from_dict(
            json.loads(cfg.read_text())))
        return voxelize(scene)

    def make_attrs(self, grid, c, cc, co, K=2):
        m = len(grid.centers)
        return ObservationAttributes(
            c=np.full(m, float(c)), phi_cc=np.full(m, float(cc)),
            phi_co=np.full(m, float(co)), K=K)

    def test_zero_need_is_blue(self, grid, tmp_path):
        attrs = self.make_attrs(grid, 0.0, 0.0, 0.0)
        path = tmp_path / "blue.ply"
        export_colored_cloud(grid, attrs, "combined", path)
        rgb = read_ascii_ply_rows(path)[:, 6:9]
        assert np.all(rgb == [0, 0, 255])

    def test_sup_need_is_red(self, grid, tmp_path):
        attrs = self.make_attrs(grid, 2.0, math.pi / 2.0, 1.0)
        path = tmp_path / "red.ply"
        export_colored_cloud(grid, attrs, "combined", path)
        rgb = read_ascii_ply_rows(path)[:, 6:9]
        assert np.all(rgb == [255, 0, 0])

    def test_each_channel_normalizes_by_its_sup(self, grid, tmp_path):
        attrs = self.make_attrs(grid, 1.0, math.pi / 4.0, 0.5)
        for channel in ("c", "phi_cc", "phi_co", "combined"):
            path = tmp_path / f"{channel}.ply"
            export_colored_cloud(grid, attrs, channel, path)
            rgb = read_ascii_ply_rows(path)[:, 6:9]
            # every channel sits at half need -> half red, half blue
            assert np.all(np.abs(rgb[:, 0] - 127.5) <= 0.5)
            assert np.all(np.abs(rgb[:, 2] - 127.5) <= 0.5)

    def test_color_order_follows_need_order(self, grid, tmp_path):
        m = len(grid.centers)
        rng = np.random.default_rng(5)
        c = rng.uniform(0.0, 2.0, size=m)
        attrs = ObservationAttributes(c=c, phi_cc=np.zeros(m),
                                      phi_co=np.zeros(m), K=2)
        path = tmp_path / "rank.ply"
        export_colored_cloud(grid, attrs, "c", path)
        rgb = read_ascii_ply_rows(path)[:, 6:9]
        order_need = np.argsort(c)
        red_sorted = rgb[order_need, 0]
        assert np.all(np.diff(red_sorted) >= 0)
        blue_sorted = rgb[order_need, 2]
        assert np.all(np.diff(blue_sorted) <= 0)

    def test_rejects_unknown_channel_and_size_mismatch(self, grid):
        attrs = self.make_attrs(grid, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            export_colored_cloud(grid, attrs, "temperature", "x.ply")
        short = ObservationAttributes(c=np.zeros(3), phi_cc=np.zeros(3),
                                      phi_co=np.zeros(3), K=2)
        with pytest.raises(ValueError):
            export_colored_cloud(grid, short, "c", "x.ply")
