"""What a single camera sees, and how a rig's coverage matrix reads.

Visibility = inside the frustum (FOV wedge + near/far band), facing the
surface, and with no other occupied voxel cell on the line of sight, so a
camera outside a circle sees roughly the near half of the arc it points at.
"""
import numpy as np

from camopt import (
    CameraRig,
    ShapeSpec,
    coverage_matrix,
    default_intrinsics,
    generate_planar_shape,
    pose_from_forward,
    visible_set,
    voxelize,
)

scene = generate_planar_shape(ShapeSpec("circle", {"radius": 1.0}, 96, seed=0))
grid = voxelize(scene)
intr = default_intrinsics(scene.diagonal)
print(f"intrinsics: hfov={np.degrees(intr.hfov):.0f}deg "
      f"near={intr.near:.2f} far={intr.far:.2f}")

# One camera east of the circle, looking at the center.
pose = pose_from_forward((2.5, 0.0, 0.0), (-1.0, 0.0, 0.0))
seen = visible_set(pose, intr, grid)
xs = grid.centers[sorted(seen), 0]
print(f"\nsingle camera at (2.5, 0): sees {len(seen)}/{len(grid.centers)} voxels, "
      f"all on the near side (min x of seen = {xs.min():.2f})")

# A rig of four axis-aligned cameras covers the whole outline.
positions = [(2.5, 0, 0), (-2.5, 0, 0), (0, 2.5, 0), (0, -2.5, 0)]
rig = CameraRig(tuple(pose_from_forward(p, np.negative(p)) for p in positions), intr)
E = coverage_matrix(rig, grid)
counts = E.per_voxel_count
print(f"\n4-camera ring: entries shape {E.entries.shape} "
      f"(cameras x voxels), per-voxel coverage "
      f"min={counts.min()} mean={counts.mean():.2f} max={counts.max()}")
print("uncovered voxels:", int((counts == 0).sum()))

# Facing check: from inside the circle every wall shows its back side, and
# back-facing surface never counts as observed.
back = pose_from_forward((0.35, 0.0, 0.0), (1.0, 0.0, 0.0))
seen_inside = visible_set(back, intr, grid)
print(f"\ncamera inside the shape, looking at the wall: sees "
      f"{len(seen_inside)} voxels (back-facing surface does not count)")
