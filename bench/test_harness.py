"""Tests of the benchmark harness itself.

    python3 -m pytest bench/test_harness.py -q
"""

import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import camopt  # noqa: E402
from camopt import hybrid, visibility  # noqa: E402
from camopt.autodiff import Tensor  # noqa: E402
from run import layer_tracing  # noqa: E402
from tracer import Tracer, traced  # noqa: E402
from workloads import AnnealCliWorkload, HybridWorkload, torus_scene  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_duration_minus_children():
    clock = FakeClock()
    tr = Tracer(clock=clock)

    def inner(dt):
        clock.now += dt

    def outer():
        clock.now += 1.0
        tr.call("m.inner", inner, (2.0,), {})
        clock.now += 1.0
        tr.call("m.inner", inner, (1.0,), {})
        clock.now += 5.0

    tr.call("m.outer", outer, (), {})
    assert tr.stats["m.outer"] == [1, 10.0, 7.0]
    assert tr.stats["m.inner"] == [2, 3.0, 3.0]
    assert tr.total_self_ms() == pytest.approx(10_000.0)


def test_each_thread_has_its_own_span_stack():
    clock = FakeClock()
    tr = Tracer(clock=clock)

    def work(dt):
        clock.now += dt

    def outer():
        worker = threading.Thread(target=tr.call, args=("m.worker", work, (4.0,), {}))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()

    tr.call("m.outer", outer, (), {})
    # the worker's span is a root of its own thread, not a child of m.outer
    assert tr.stats["m.outer"] == [1, 4.0, 4.0]
    assert tr.stats["m.worker"] == [1, 4.0, 4.0]


def test_count_under_and_result_hooks():
    tr = Tracer()
    tr.count_under("m.outer", "m.leaf")
    tr.on_result("m.leaf", lambda t, args, kwargs, result: t.add("leaf.sum", result))

    tr.call("m.leaf", lambda: 2, (), {})
    tr.call("m.outer", lambda: tr.call("m.mid", lambda: tr.call("m.leaf", lambda: 3, (), {}),
                                       (), {}), (), {})
    assert tr.counters == {"leaf.sum": 5, "m.outer>m.leaf": 1}


def _tiny_grid_and_rig():
    scene = camopt.generate_planar_shape(camopt.ShapeSpec("circle", {"radius": 1.0}, 64, 0))
    grid = camopt.voxelize(scene, 0.1)
    return grid, hybrid.initialize(scene, 2, seed=0)


def test_traced_wraps_importer_bindings_and_restores_them():
    originals = (visibility.visible_set, hybrid.visible_set, camopt.visible_set,
                 Tensor.__dict__["backward"])
    grid, rig = _tiny_grid_and_rig()
    tr = Tracer()
    with traced(tr, ["visibility"], methods=[(Tensor, "backward", "autodiff.backward")]):
        assert hybrid.visible_set is visibility.visible_set is camopt.visible_set
        assert hybrid.visible_set is not originals[0]
        hybrid.coverage_matrix(rig, grid)
        Tensor(np.ones(1), requires_grad=True).backward()
    assert tr.calls("visibility.coverage_matrix") == 1
    assert tr.calls("visibility.visible_set") == 2
    assert tr.calls("autodiff.backward") == 1
    assert (visibility.visible_set, hybrid.visible_set, camopt.visible_set,
            Tensor.__dict__["backward"]) == originals


def test_traced_restores_bindings_when_the_call_raises():
    original = hybrid.coverage_matrix
    with pytest.raises(ValueError):
        with traced(Tracer(), ["visibility"]):
            raise ValueError("boom")
    assert hybrid.coverage_matrix is original


def _run(workload, inst, tracer=None):
    if tracer is None:
        _, result = workload.run(inst)
    else:
        with layer_tracing(tracer):
            _, result = workload.run(inst)
    outcome = workload.check(inst, result)
    assert outcome.violations == [] and outcome.failed == 0
    return outcome


@pytest.mark.parametrize("workload", [
    HybridWorkload(
        "tiny_circle",
        lambda seed: camopt.generate_planar_shape(
            camopt.ShapeSpec("circle", {"radius": 1.0}, 120, seed)),
        k=3, resolution=0.08, max_outer=1),
    AnnealCliWorkload(
        "tiny_torus_cli", lambda seed: torus_scene(seed, count=300), k=3,
        anneal={"T0": 0.05, "cooling": 0.5, "steps_per_temp": 3, "termination": 0.01}),
], ids=lambda w: w.name)
def test_traced_and_untraced_runs_return_the_same_rig(workload, tmp_path):
    inst = workload.build(7, tmp_path)
    plain = _run(workload, inst)
    tr = Tracer()
    with_trace = _run(workload, inst, tr)
    assert with_trace.fingerprint == plain.fingerprint
    assert (with_trace.uc, with_trace.angle_quality) == (plain.uc, plain.angle_quality)
    assert tr.calls("visibility.visible_set") > 0


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "circle2d_hybrid",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
