"""Per-voxel observation attributes: what still needs watching.

Each voxel gets three residual needs, all zero when fully satisfied:
  c       missing observation count, in [0, K]
  phi_cc  camera-to-camera angle shortfall vs a 90 degree target, in [0, pi/2]
  phi_co  grazing-angle penalty for the observing directions, in [0, 1]

A voxel nobody sees sits at the supremum (K, pi/2, 1); adding well-spread
cameras drives all three down.
"""
import numpy as np

from camopt import (
    CameraRig,
    ShapeSpec,
    default_intrinsics,
    generate_planar_shape,
    pose_from_forward,
    shape_analyze,
    sup_vector,
    voxelize,
)

K = 3
scene = generate_planar_shape(ShapeSpec("circle", {"radius": 1.0}, 96, seed=0))
grid = voxelize(scene)
intr = default_intrinsics(scene.diagonal)
print("sup vector [c, phi_cc, phi_co] =", np.round(sup_vector(K), 4))


def describe(tag, rig):
    _, attrs = shape_analyze(rig, grid, K)
    stack = attrs.stack()
    print(f"\n{tag}")
    for i, name in enumerate(("c", "phi_cc", "phi_co")):
        col = stack[:, i]
        print(f"  {name:7s} mean={col.mean():.3f} max={col.max():.3f}")
    at_sup = np.all(np.isclose(stack, sup_vector(K)), axis=1)
    spread = attrs.phi_cc < np.pi / 2.0 - 0.01   # >0.57deg apart counts
    print(f"  voxels at the supremum (unseen): {at_sup.sum()}/{len(grid.centers)}"
          f", seen from separated directions: {spread.sum()}")
    return attrs


# One camera: most of the outline is unseen, and what it does see lacks
# angular diversity (phi_cc stays at its supremum with a single viewpoint).
one = CameraRig((pose_from_forward((2.5, 0, 0), (-1, 0, 0)),), intr)
describe("1 camera east", one)

# Two cameras 45 degrees apart: their arcs overlap, and on the shared arc
# phi_cc finally drops below its supremum.
angles = np.radians([0.0, 45.0])
poses = tuple(pose_from_forward((2.5 * np.cos(a), 2.5 * np.sin(a), 0.0),
                                (-np.cos(a), -np.sin(a), 0.0)) for a in angles)
describe("2 cameras 45deg apart", CameraRig(poses, intr))

# Three stacked cameras: the count need c hits zero on one arc, but with no
# angular diversity phi_cc and phi_co stay as bad as the single camera.
stack3 = CameraRig(tuple(pose_from_forward((2.5, 0.001 * i, 0), (-1, 0, 0))
                         for i in range(3)), intr)
describe("3 cameras stacked at one spot", stack3)
