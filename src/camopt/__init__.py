"""Multi-camera placement optimization guided by a learned observation field.

The pipeline: describe or load a target surface (`scene`), voxelize it, rate
how well a candidate camera rig observes each voxel (`visibility`,
`attributes`, `metrics`), fit a lightweight attention field to those residual
observation needs (`field`), and move cameras against the frozen field with
alternating gradient descent and elite resampling (`hybrid`). `baselines`
holds the random-search and simulated-annealing references, `cli` the batch
experiment driver.
"""

from camopt.scene import (
    PLANAR2D,
    VOLUMETRIC3D,
    ShapeSpec,
    TargetScene,
    VoxelGrid,
    generate_planar_shape,
    load_scene,
    voxelize,
)
from camopt.visibility import (
    CameraIntrinsics,
    CameraPose,
    CameraRig,
    CoverageMatrix,
    coverage_matrix,
    default_intrinsics,
    pose_from_forward,
    rotation_from_six,
    visible_set,
)
from camopt.attributes import (
    ObservationAttributes,
    attributes_from_coverage,
    shape_analyze,
    sup_vector,
)
from camopt.field import (
    ObservationField,
    PlacementLoss,
    capture_visible,
    lean_neof,
    placement_loss,
)
from camopt.metrics import (
    EvaluationReport,
    coverage_optimality_gap,
    evaluate_rig,
    observation_angle_quality,
)
from camopt.hybrid import (
    IterationRecord,
    OptimizationTrace,
    OptimizerConfig,
    initialize,
    optimize,
    step_update,
)
from camopt.baselines import (
    AnnealConfig,
    accept_proposal,
    random_search,
    rig_energy,
    simulated_annealing,
)

__all__ = [
    "AnnealConfig",
    "CameraIntrinsics",
    "CameraPose",
    "CameraRig",
    "CoverageMatrix",
    "EvaluationReport",
    "IterationRecord",
    "ObservationAttributes",
    "ObservationField",
    "OptimizationTrace",
    "OptimizerConfig",
    "PLANAR2D",
    "PlacementLoss",
    "ShapeSpec",
    "TargetScene",
    "VOLUMETRIC3D",
    "VoxelGrid",
    "accept_proposal",
    "attributes_from_coverage",
    "capture_visible",
    "coverage_matrix",
    "coverage_optimality_gap",
    "default_intrinsics",
    "evaluate_rig",
    "generate_planar_shape",
    "initialize",
    "lean_neof",
    "load_scene",
    "observation_angle_quality",
    "optimize",
    "placement_loss",
    "pose_from_forward",
    "random_search",
    "rig_energy",
    "rotation_from_six",
    "shape_analyze",
    "simulated_annealing",
    "step_update",
    "sup_vector",
    "visible_set",
    "voxelize",
]
