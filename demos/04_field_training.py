"""Fit the attention field to voxel attributes and check its fidelity.

The field is a tiny cross-attention regressor from voxel position to the
three residual needs. The optimizer never reads exact attributes during
descent -- it differentiates through field queries -- so what matters is
that predictions track the analyzed values and refresh cheaply after a
rig change.
"""
import time

import numpy as np

from camopt import (
    CameraRig,
    ShapeSpec,
    default_intrinsics,
    generate_planar_shape,
    lean_neof,
    pose_from_forward,
    shape_analyze,
    voxelize,
)
from camopt.field import query

K = 3
scene = generate_planar_shape(ShapeSpec("circle", {"radius": 1.0}, 96, seed=0))
grid = voxelize(scene)
intr = default_intrinsics(scene.diagonal)

angles = np.linspace(0.0, 2.0 * np.pi, 4, endpoint=False)
rig = CameraRig(tuple(pose_from_forward(
    (2.5 * np.cos(a), 2.5 * np.sin(a), 0.0),
    (-np.cos(a), -np.sin(a), 0.0)) for a in angles), intr)

_, attrs = shape_analyze(rig, grid, K)
t0 = time.perf_counter()
field = lean_neof(None, grid, attrs, seed=0)
t_fit = time.perf_counter() - t0

pred = query(field, grid.centers, grid.normals)
err = np.abs(pred - attrs.stack())
print(f"initial fit: {t_fit * 1e3:.0f} ms, "
      f"mean abs error per attribute = {np.round(err.mean(axis=0), 3)}")
print(f"attribute ranges: c in [0,{K}], phi_cc in [0,{np.pi/2:.3f}], phi_co in [0,1]")

# The field generalizes off-lattice: probe midpoints between voxel centers.
mid = 0.5 * (grid.centers[:-1] + grid.centers[1:])
mid_n = grid.normals[:-1] + grid.normals[1:]
mid_n /= np.linalg.norm(mid_n, axis=1, keepdims=True) + 1e-12
mid_pred = query(field, mid, mid_n)
print(f"off-lattice probes stay in range: "
      f"{bool((mid_pred.min() >= -0.2) and (mid_pred.max() <= K + 0.2))}")

# After a rig change, a warm-started refresh is much cheaper than refitting.
rig2 = CameraRig(rig.poses[:2], intr)
_, attrs2 = shape_analyze(rig2, grid, K)
t0 = time.perf_counter()
field2 = lean_neof(field, grid, attrs2)
t_warm = time.perf_counter() - t0
pred2 = query(field2, grid.centers, grid.normals)
err2 = np.abs(pred2 - attrs2.stack())
print(f"\nwarm refresh after dropping 2 cameras: {t_warm * 1e3:.0f} ms "
      f"({t_fit / max(t_warm, 1e-9):.1f}x faster than the initial fit), "
      f"mean abs error = {np.round(err2.mean(axis=0), 3)}")
print("need went up where coverage was lost:",
      bool(pred2[:, 0].mean() > pred[:, 0].mean()))
