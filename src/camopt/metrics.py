"""Placement quality metrics, computed from exact visibility only.

These never consult the learned field: they are the ground truth a run is
judged by, independent of what the optimizer believed during the search.
Both scores are ratios of integer sums over voxels (`ScoreTerms`), so a rig
that differs from a scored one in a few voxels' observers is rescored from
those voxels alone, with the same result bit for bit (`rescore`).
"""

from dataclasses import dataclass

import numpy as np

from camopt.attributes import _threshold, observer_groups, pair_cosines
from camopt.visibility import CameraRig, CoverageMatrix, coverage_matrix

ANGLE_BAND_DEG = (45.0, 145.0)
_COS_HI = np.cos(np.deg2rad(ANGLE_BAND_DEG[0]))   # cos decreases: 45 deg bounds above
_COS_LO = np.cos(np.deg2rad(ANGLE_BAND_DEG[1]))


# Both sums below run over a histogram of observer counts, histogram[n]
# being the number of voxels with n observers. They are linear in it, so
# the difference of two histograms gives the change of either sum.

def _deficit_squares(histogram: list, k: int) -> int:
    """The sum over voxels of the squared coverage deficit (max(0, k - n))^2."""
    return sum(h * max(0, k - n) ** 2 for n, h in enumerate(histogram))


def _observer_pairs(histogram: list) -> int:
    """The sum over voxels of the observer pairs n(n - 1) / 2."""
    return sum(h * (n * (n - 1) // 2) for n, h in enumerate(histogram))


def _gap(deficit_squares: int, k: int, voxels: int) -> float:
    return deficit_squares / (float(k) ** 2 * voxels)


def _ratio(good: int, pairs: int) -> float:
    return good / pairs if pairs else 0.0


def coverage_optimality_gap(E: CoverageMatrix, K) -> float:
    """Normalized shortfall against the K-observations-per-voxel requirement:
    the mean over voxels of (max(0, K - cov_j))^2 / K^2, which is 0 exactly
    when every voxel meets the requirement and 1 when nothing is covered.
    """
    k = _threshold(K)
    n = len(E.per_voxel_count)
    if n < 1:
        raise ValueError("need at least one voxel")
    return _gap(_deficit_squares(np.bincount(E.per_voxel_count).tolist(), k), k, n)


def good_pairs(positions: np.ndarray, E: CoverageMatrix, centers: np.ndarray,
               voxels=None) -> tuple:
    """(rows, good): the voxels with at least two observers (among voxels,
    an ascending index array, when given) and, per voxel, how many of its
    observer-ray pairs meet at a well-conditioned angle (45..145 degrees).
    Raises ValueError when an observing camera sits on a voxel center."""
    rows, good = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.int64)]
    for group_rows, dirs in observer_groups(positions, E, centers, voxels):
        if dirs.shape[1] >= 2:
            dots = pair_cosines(dirs)
            rows.append(group_rows)
            good.append(np.count_nonzero((dots <= _COS_HI + 1e-12) & (dots >= _COS_LO - 1e-12),
                                         axis=1))
    return np.concatenate(rows), np.concatenate(good)


def observation_angle_quality(rig: CameraRig, grid, E: CoverageMatrix) -> float:
    """Pooled fraction of observer-ray pairs meeting at a well-conditioned
    angle (45..145 degrees), over every voxel with at least two observers.
    Returns 0 when no voxel has two observers; raises ValueError when an
    observing camera sits on a voxel center."""
    positions = np.stack([pose.position for pose in rig.poses])
    _, good = good_pairs(positions, E, grid.centers)
    return _ratio(int(good.sum()), _observer_pairs(np.bincount(E.per_voxel_count).tolist()))


@dataclass(frozen=True, eq=False)
class ScoreTerms:
    """The exact integers a rig's uc and angle quality are ratios of: per
    voxel its observer count and its well-conditioned observer pairs, and
    over all voxels the summed squared coverage deficits, well-conditioned
    pairs and observer pairs. Equal terms give bit-identical scores."""

    K: int
    counts: np.ndarray     # (m,) observers per voxel
    good: np.ndarray       # (m,) well-conditioned observer pairs per voxel
    deficit_squares: int
    good_pairs: int
    pairs: int

    @property
    def uc(self) -> float:
        return _gap(self.deficit_squares, self.K, len(self.counts))

    @property
    def angle_quality(self) -> float:
        return _ratio(self.good_pairs, self.pairs)


def score_terms(positions: np.ndarray, E: CoverageMatrix, centers: np.ndarray, K) -> ScoreTerms:
    """The ScoreTerms of a rig whose cameras sit at positions and whose
    coverage matrix is E, counted over every voxel."""
    k = _threshold(K)
    counts = E.per_voxel_count
    if len(counts) < 1:
        raise ValueError("need at least one voxel")
    rows, good = good_pairs(positions, E, centers)
    per_voxel = np.zeros(len(counts), dtype=np.int64)
    per_voxel[rows] = good
    histogram = np.bincount(counts).tolist()
    return ScoreTerms(k, counts, per_voxel, _deficit_squares(histogram, k), int(good.sum()),
                      _observer_pairs(histogram))


def rescore(terms: ScoreTerms, positions: np.ndarray, E: CoverageMatrix, centers: np.ndarray,
            voxels: np.ndarray) -> ScoreTerms:
    """The ScoreTerms of a rig that differs from the one `terms` counts only
    in the observer rays of voxels (an ascending index array; for a moved
    camera, its old row and its new row): only those voxels are counted
    again, by the same path as score_terms, and the sums move by the
    difference."""
    if len(voxels) == 0:
        return terms
    rows, good = good_pairs(positions, E, centers, voxels)
    per_voxel = terms.good.copy()
    per_voxel[voxels] = 0
    per_voxel[rows] = good
    size = len(positions) + 1    # a voxel has at most one observer per camera
    change = (np.bincount(E.per_voxel_count[voxels], minlength=size)
              - np.bincount(terms.counts[voxels], minlength=size)).tolist()
    return ScoreTerms(terms.K, E.per_voxel_count, per_voxel,
                      terms.deficit_squares + _deficit_squares(change, terms.K),
                      terms.good_pairs + int(good.sum()) - int(terms.good[voxels].sum()),
                      terms.pairs + _observer_pairs(change))


@dataclass(frozen=True, eq=False)
class EvaluationReport:
    uc: float
    angle_quality: float
    per_voxel_coverage: np.ndarray
    camera_count: int
    voxel_count: int

    def __post_init__(self):
        if not (0.0 <= self.angle_quality <= 1.0):
            raise ValueError("angle_quality out of range")
        if self.uc < 0.0:
            raise ValueError("uc must be non-negative")


def evaluate_rig(rig: CameraRig, grid, K) -> EvaluationReport:
    E = coverage_matrix(rig, grid)
    return EvaluationReport(
        uc=coverage_optimality_gap(E, K),
        angle_quality=observation_angle_quality(rig, grid, E),
        per_voxel_coverage=E.per_voxel_count.copy(),
        camera_count=len(rig),
        voxel_count=len(grid.centers),
    )
