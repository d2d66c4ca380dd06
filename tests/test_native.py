"""The compiled library's build: the errors where it cannot be built, and
its C source shipped as package data."""

import tempfile
from pathlib import Path

import numpy as np
import pytest

from camopt import native
from camopt.field import lean_neof
from camopt.scene import ShapeSpec, generate_planar_shape, voxelize
from camopt.visibility import default_intrinsics, pose_from_forward, visible_set
from test_field import random_attrs, scattered_grid

MISSING_CC = "camopt needs a C compiler to build its kernels, and there is no `cc` on PATH"


def first_visible_set():
    scene = generate_planar_shape(ShapeSpec("circle", {"radius": 1.0}, 200, seed=0))
    grid = voxelize(scene, resolution=0.05)
    eye = grid.centers.mean(axis=0) + (1.6, 0.0, 0.0)
    visible_set(pose_from_forward(eye, (-1.0, 0.0, 0.0)), default_intrinsics(), grid)


def first_fit():
    rng = np.random.default_rng(0)
    lean_neof(None, scattered_grid(20, rng), random_attrs(20, 3, rng), budget=2)


class TestMissingCompiler:
    @pytest.mark.parametrize("call", [first_visible_set, first_fit])
    def test_first_kernel_call_raises_naming_cc(self, no_compiler, call):
        with pytest.raises(RuntimeError, match="no `cc` on PATH"):
            call()
        assert no_compiler == [1]

    def test_later_calls_raise_again_without_a_second_build(self, no_compiler):
        for call in (first_visible_set, first_fit, native.load):
            with pytest.raises(RuntimeError) as raised:
                call()
            assert str(raised.value) == MISSING_CC
        assert no_compiler == [1]

    def test_failed_compile_raises_with_the_compilers_stderr(self, tmp_path, monkeypatch):
        # the compiler names the option it rejects on stderr; the build's
        # temporary directory goes either way
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        with pytest.raises(RuntimeError, match="failed") as raised:
            native.build(opt=("-fno-such-camopt-option",))
        assert "-fno-such-camopt-option" in str(raised.value)
        assert list(tmp_path.iterdir()) == []


class TestPackaging:
    def test_the_c_source_ships_beside_the_module(self):
        tomllib = pytest.importorskip("tomllib")    # Python 3.11 on
        root = Path(__file__).resolve().parent.parent
        with open(root / "pyproject.toml", "rb") as fh:
            setuptools = tomllib.load(fh)["tool"]["setuptools"]
        assert setuptools["package-data"] == {"camopt": ["native.c"]}
        assert Path(native.__file__).with_name("native.c").is_file()
