"""Learned observation field: attention over attributed voxels.

The field maps a spatial query (position + normal) to an estimate of the
observation-attribute triple by encoding voxel offsets relative to the query
with a small MLP and attending over the snapshot of attributed voxels, which
a field holds from its construction on. It is differentiable with respect to
query positions, which is what lets camera poses follow its gradient.

The attention logits are computed in a folded form. With the encoder
enc(x) = relu(x @ W1 + b1) @ W2 + b2 and keys K_m = enc([C_m - X_q, N_m]) @ WK,
the logit Qrow . K_m / sqrt(dk) expands to

    relu(A_m + B_q) . Z_q + const_q,

where A_m = [C_m, N_m] @ W1 + b1 depends only on the voxel, B_q = -X_q @ W1[:3]
only on the query position, and Z_q = (W2 @ WK) @ Qrow_q / sqrt(dk). The
per-query constant shifts every logit of a row equally, so softmax discards
it and it is dropped. This avoids materializing per-pair encoder activations
through two linear layers and keeps the hot loop in one fused kernel.

Nothing here builds a tape. A and Z depend only on the weights and the
query normals, so one encode (_encode) serves all three callers: `query`
runs the forward; the placement loss (placement_loss_grads) runs it at
captured points that move with the poses and takes the gradients of the
poses in closed form back through B, the points and each camera's
Gram-Schmidt frame (a gradient phase encodes its frozen captures once,
encode_captures); and the weight fit (`lean_neof`) takes the gradient of
the weight vector theta, which holds the six weights one after the other,
from one call of the fit's compiled step and hands it to
autodiff.adam_step.

The heavy parts run in the compiled library (camopt.native), which the
process's first fit, query or visibility traversal builds. A fit step is
one call of a native.FitStep, which runs two kernels and numpy's exp
between them: fit_forward encodes the weights and writes the scores, each
row less its maximum, and fit_backward runs the row chain (softmax, att @
V, clamp, error, softmax backward), the slab gradients and the chain back
to the six weights. The slab passes, the relu(A + B) scores and the contractions for
the gradients of A, B and Z, run in float32; everything else (the encode,
the row chain, the weight chain, Adam state, `query`, the placement loss)
stays float64. lean_neof makes a fit's FitStep and gathers its training
batches once per call, so no step allocates an array of the (batch, keys)
size. A 128-query step on the benchmark's snapshots takes about 0.45 ms
on a 2-vCPU Xeon with 512-bit vectors. The float64 scores of `query` and
the placement loss, and the placement loss's gradient of them with
respect to B, run in the library's attention kernels (_scores,
_scores_b_grad); the softmax (_softmax), the att @ V and clamp forward
(_values) and the softmax backward (_softmax_backward) around them are
numpy. A query's attention (_attention) depends on the weights and the
keys' encoder inputs, not on the keys' attributes, so the resampler,
which only swaps attributes between its field sums, keeps it for a
phase (visible_attr_sum). Every float64 sum of the kernels runs in a
fixed order, so the bits depend on neither the BLAS kernel nor the
compiler flags.
"""

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from camopt import autodiff as ad
from camopt import native
from camopt.attributes import ObservationAttributes, sup_vector
from camopt.visibility import CameraRig, CoverageMatrix

HIDDEN = native.HIDDEN     # 32, the width the field's kernels are compiled for
D_K = native.D_K           # 32, the width of the attention queries and keys
DEFAULT_WEIGHTS = (0.4, 0.3, 0.3)
INITIAL_BUDGET = 200
FINETUNE_BUDGET = 20
TRAIN_QUERY_POOL = 512
TRAIN_BATCH = 128
KEY_BASIS_CAP = 256
LOSS_QUERY_CAP = 16
_INV_SQRT_DK = 1.0 / np.sqrt(D_K)


def _strided(total: int, want: int) -> np.ndarray:
    """Deterministic evenly spaced index subset; all indices when they fit."""
    if total <= want:
        return np.arange(total)
    return np.arange(want) * total // want


class ObservationField:
    """Encoder + attention weights plus the attributed-voxel snapshot of a
    grid and its attributes (taken at construction, replaced by `snapshot`).
    The weights are one float64 vector, theta, which Adam updates in place;
    W1, b1, W2, b2, WQ and WK are views of it (native.weight_views)."""

    def __init__(self, grid, attrs: ObservationAttributes, seed: int = 0):
        # WQ/WK start small so initial attention is near-uniform: a large
        # random init produces confidently wrong peaks that the budgeted
        # training cannot unlearn at the fixed learning rate. Positive b1
        # keeps most ReLU units live from step one.
        rng = np.random.default_rng(seed)
        self.theta = np.concatenate([
            rng.normal(0.0, np.sqrt(2.0 / 6.0), size=6 * HIDDEN), np.full(HIDDEN, 0.5),
            rng.normal(0.0, np.sqrt(2.0 / HIDDEN), size=HIDDEN * HIDDEN), np.zeros(HIDDEN),
            rng.normal(0.0, 0.05, size=HIDDEN * D_K), rng.normal(0.0, 0.05, size=HIDDEN * D_K)])
        self.W1, self.b1, self.W2, self.b2, self.WQ, self.WK = native.weight_views(self.theta)
        self.adam = ad.AdamState(self.theta.size)
        self.snapshot(grid, attrs)

    def snapshot(self, grid, attrs: ObservationAttributes):
        if len(attrs) != len(grid.centers):
            raise ValueError("attribute count must match voxel count")
        if len(grid.centers) == 0:
            raise ValueError("cannot snapshot an empty grid")
        self.centers = np.asarray(grid.centers, dtype=np.float64).copy()
        self.normals = np.asarray(grid.normals, dtype=np.float64).copy()
        self.values = attrs.stack()
        key_idx = _strided(len(self.centers), KEY_BASIS_CAP)
        # the keys' encoder inputs and attributes, gathered once per snapshot
        self.key_basis = np.concatenate([self.centers[key_idx], self.normals[key_idx]], axis=1)
        self.key_values = self.values[key_idx]
        self.sup = sup_vector(attrs.K)


class _Encoding(NamedTuple):
    """The weight-only parts of the folded logits for one batch of query
    normals: the key basis A and the query vectors Z."""
    A: np.ndarray        # (keys, 32) field.key_basis @ W1 + b1
    Z: np.ndarray        # (q, 32) ((relu(q_in @ W1 + b1) @ W2 + b2) @ WQ) @ folded.T


def _encode(field: ObservationField, normals: np.ndarray) -> _Encoding:
    """Encode the key basis and the query normals with the current weights,
    in numpy: the weights are constants to every caller. q_in holds a zero
    offset and the query normal, folded = (W2 @ WK) / sqrt(dk)."""
    W1, b1, W2 = field.W1, field.b1, field.W2
    q_in = np.concatenate([np.zeros_like(normals), normals], axis=1)
    pre = q_in @ W1 + b1
    h = np.where(pre > 0, pre, 0.0)
    qrow = (h @ W2 + field.b2) @ field.WQ
    folded = (W2 @ field.WK) * _INV_SQRT_DK
    return _Encoding(field.key_basis @ W1 + b1, qrow @ folded.T)


def _offsets(field: ObservationField, positions: np.ndarray) -> np.ndarray:
    """B = -X @ W1[:3], the query-position half of the logits' pre-activation."""
    return (positions @ field.W1[0:3]) * -1.0


def _softmax(s: np.ndarray) -> np.ndarray:
    """The softmax of float64 scores s (rows, keys) along each row, in place
    in s, which is returned."""
    s -= s.max(axis=-1, keepdims=True)
    att = np.exp(s, out=s)
    att /= att.sum(axis=-1, keepdims=True)
    return att


def _values(att: np.ndarray, V: np.ndarray, sup: np.ndarray):
    """The row chain's forward from the attention att (rows, keys): raw =
    att @ V and the outputs raw clamped to [0, sup]. Returns (raw, out)."""
    raw = att @ V
    return raw, np.minimum(np.maximum(raw, 0.0), sup)


def _softmax_backward(g: np.ndarray, att: np.ndarray) -> np.ndarray:
    """The gradient g with respect to att, turned in place into the one
    with respect to the logits: att * (g - sum(g * att)), per row."""
    g -= (g * att).sum(axis=-1, keepdims=True)
    g *= att
    return g


def _scores(A: np.ndarray, B: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """The float64 scores (q, keys) sum_h relu(A[m, h] + B[q, h]) Z[q, h] of
    the queries and the placement loss (native.attend_scores, summed over
    the channels in order)."""
    return native.load().attend_scores(A, B, Z)


def _scores_b_grad(A: np.ndarray, B: np.ndarray, Z: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The gradient (q, 32) of sum(g * _scores(A, B, Z)) with respect to B
    (native.attend_b_grad, summed over the keys in order)."""
    return native.load().attend_b_grad(A, B, Z, g)


def _attention(field: ObservationField, positions: np.ndarray,
               normals: np.ndarray) -> np.ndarray:
    """The attention (q, keys) of the query points over the keys, the half
    of `query` that depends on the weights and the keys' encoder inputs
    alone, not on the keys' attributes."""
    enc = _encode(field, normals)
    return _softmax(_scores(enc.A, _offsets(field, positions), enc.Z))


def query(field: ObservationField, positions, normals) -> np.ndarray:
    """Attributes (q, 3) at the query points, positions (q, 3) with their
    unit normals (q, 3), under the current weights."""
    positions = np.asarray(positions, dtype=np.float64)
    normals = np.asarray(normals, dtype=np.float64)
    if positions.ndim != 2 or positions.shape[1] != 3:
        raise ValueError("positions must be (q, 3)")
    if normals.shape != positions.shape:
        raise ValueError("normals must match positions in shape")
    if len(normals) == 0:
        raise ValueError("empty query batch")
    return _values(_attention(field, positions, normals), field.key_values, field.sup)[1]


class _FitBatch(NamedTuple):
    """A training batch's snapshot rows, gathered once per fit."""
    positions: np.ndarray    # (rows, 3)
    normals: np.ndarray      # (rows, 3)
    target: np.ndarray       # (rows, 3) their attributes


def _fit_workspace(field: ObservationField, rows: int) -> native.FitStep:
    """The compiled step (native.FitStep) of a fit's steps of `rows`
    training rows, with its workspace."""
    V = field.key_values
    dV = V.T * (2.0 / (rows * V.shape[1]))    # d mean(err ** 2) / d err = 2 err / size
    return native.load().fit_step(field.theta, field.key_basis, V, np.ascontiguousarray(dV),
                                  field.sup, rows)


def lean_neof(field: Optional[ObservationField], grid, attrs: ObservationAttributes,
              budget: Optional[int] = None, seed: int = 0) -> ObservationField:
    """Fit (or refresh) the field against the current attribute snapshot.

    A fresh field (ObservationField(grid, attrs, seed)) is built and trained
    for the initial budget when none is given; an existing field takes the
    new snapshot, keeps its weights and Adam state and fine-tunes for the
    smaller budget. Budget 0 runs no step.

    Each step is one call of the fit's native.FitStep on a batch of
    snapshot rows, which returns the gradient of the weight vector theta of
    the mean squared error of the field's outputs at the rows against their
    attributes, and one autodiff.adam_step of theta. The slab passes run in
    float32, so the gradients match the float64 tape of the same loss to
    about 1e-6 relative; a rare relu or clamp decision at a float32 rounding
    boundary moves one by up to about 1e-3.
    """
    if field is None:
        field = ObservationField(grid, attrs, seed=seed)
        if budget is None:
            budget = INITIAL_BUDGET
    else:
        field.snapshot(grid, attrs)
        if budget is None:
            budget = FINETUNE_BUDGET
    pool = _strided(len(field.centers), TRAIN_QUERY_POOL)
    rows = min(len(pool), TRAIN_BATCH)
    step = _fit_workspace(field, rows) if budget > 0 else None
    batches = {}
    for i in range(budget):
        # the rows of the pool from a start that advances a batch a step and
        # wraps (the whole pool where it holds no more than a batch)
        start = (i * rows) % len(pool)
        if start not in batches:
            idx = pool[(start + np.arange(rows)) % len(pool)]
            batches[start] = _FitBatch(field.centers[idx], field.normals[idx],
                                       field.values[idx])
        ad.adam_step(field.theta, step(*batches[start]), field.adam)
    return field


# ---------------------------------------------------------------------------
# pose-differentiable placement loss
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class CapturedCamera:
    """A camera's visible voxels frozen in its local frame at capture time."""
    local: np.ndarray     # (s, 3) sampled voxel centers in camera coordinates
    normals: np.ndarray   # (s, 3) voxel normals, world frame at capture
    scale: float          # visible voxel count / s, undoes the sampling in the sum
    empty: bool


def _sample_visible(rows: np.ndarray):
    """The voxel rows a camera is queried at, a strided subset of at most
    LOSS_QUERY_CAP of its sorted non-empty visible rows, and the factor
    |rows| / |sample| that undoes the sampling in a sum."""
    take = rows[_strided(len(rows), LOSS_QUERY_CAP)]
    return take, len(rows) / len(take)


def visible_attr_sum(field: ObservationField, rows: np.ndarray, attention: dict) -> np.ndarray:
    """Componentwise sum of field attributes over one camera's sorted visible
    voxel rows (at most LOSS_QUERY_CAP of them sampled, the sum rescaled), the
    additive per-camera share of the loss; zeros when there are none.

    attention maps the sampled rows' bytes to their attention (_attention),
    read on a hit and filled on a miss. Its entries hold while the weights
    and the keys' encoder inputs do: a snapshot of the same grid changes
    only the keys' attributes, which the values half (_values) reads afresh
    on every call."""
    if len(rows) == 0:
        return np.zeros(3)
    take, scale = _sample_visible(rows)
    key = take.tobytes()
    att = attention.get(key)
    if att is None:
        att = attention[key] = _attention(field, field.centers[take], field.normals[take])
    out = _values(att, field.key_values, field.sup)[1]
    return out.sum(axis=0) * scale


def capture_visible(field: ObservationField, rig: CameraRig, E: CoverageMatrix):
    """Store each camera's visible voxel centers (its row of the coverage
    matrix E, at most LOSS_QUERY_CAP of them sampled) in its own frame so
    their world positions become a differentiable function of the pose."""
    caps = []
    for pose, row in zip(rig.poses, E.entries):
        rows = np.flatnonzero(row)
        if len(rows) == 0:
            caps.append(CapturedCamera(np.zeros((0, 3)), np.zeros((0, 3)), 1.0, True))
            continue
        take, scale = _sample_visible(rows)
        local = (field.centers[take] - pose.position) @ pose.rotation()
        caps.append(CapturedCamera(local=local, normals=field.normals[take].copy(),
                                   scale=scale, empty=False))
    return caps


def encode_captures(field: ObservationField, captures):
    """The weight-only logit parts (_encode) of the captured normals of the
    non-empty cameras, in camera order: fixed while the field and the
    captures are, so a gradient phase computes them once. None when every
    camera is empty."""
    normals = [cap.normals for cap in captures if not cap.empty]
    return _encode(field, np.concatenate(normals, axis=0)) if normals else None


@dataclass(eq=False)
class PlacementLoss:
    total: float
    components: np.ndarray        # (3,) [L_vis, L_cc, L_co]


def _frames(rot6: np.ndarray):
    """The camera axes of every rot6 row by Gram-Schmidt: rows (k, 3, 3)
    holding c1, c2 and c1 x c2, the transposed rotations (world = local @
    rows[i] + position), and the backward from their gradients G (k, 3, 3)
    to the (k, 6) rot6 gradients.

    The backward adds its terms in the order reverse-mode accumulation adds
    them (where more than two add, the order changes the last bits): c1
    collects its row, the cross product, the projection and the dot product
    in turn."""
    a, b = rot6[:, 0:3], rot6[:, 3:6]
    n1 = np.sqrt(np.sum(a * a, axis=-1, keepdims=True))
    c1 = a / n1
    proj = np.sum(c1 * b, axis=-1, keepdims=True)
    v = b - c1 * proj
    n2 = np.sqrt(np.sum(v * v, axis=-1, keepdims=True))
    c2 = v / n2

    def backward(G):
        g3 = G[:, 2]
        g2 = G[:, 1] + np.cross(g3, c1)
        g_n2 = np.sum(((-g2) * v) / (n2 * n2), axis=-1, keepdims=True)
        g_v = g2 / n2 + (g_n2 * v) / n2
        g_proj = np.sum((-g_v) * c1, axis=-1, keepdims=True)
        g_c1 = G[:, 0] + np.cross(c2, g3) + (-g_v) * proj + g_proj * b
        g_n1 = np.sum(((-g_c1) * a) / (n1 * n1), axis=-1, keepdims=True)
        g_a = g_c1 / n1 + (g_n1 * a) / n1
        return np.concatenate([g_a, g_v + g_proj * c1], axis=1)

    return np.stack([c1, c2, np.cross(c1, c2)], axis=1), backward


def placement_loss_grads(field: ObservationField, positions: np.ndarray, rot6: np.ndarray,
                         captures, weights=DEFAULT_WEIGHTS, encoding=None):
    """The placement loss of poses (positions (k, 3), rot6 (k, 6)) whose
    captures stay frozen, under the frozen field, with its gradients.

    Each non-empty camera's captured points move with its pose to world
    coordinates X; the loss is w . (sup - sum of the field's outputs at X,
    rescaled per camera, / (k n)). Empty-visibility cameras contribute
    nothing to the attribute sum (their share of the loss stays at the
    componentwise maximum) and get zero gradients. `encoding` is
    encode_captures(field, captures), computed here when not given.

    Returns (PlacementLoss, (k, 3) position gradients, (k, 6) rot6
    gradients).
    """
    k, n, sup = len(captures), len(field.centers), field.sup
    w = np.asarray(weights, dtype=np.float64)
    g_pos, g_rot = np.zeros((k, 3)), np.zeros((k, 6))
    live = [i for i, cap in enumerate(captures) if not cap.empty]
    if not live:
        L_vec = sup.copy()
        return PlacementLoss(float(np.sum(L_vec * w)), L_vec), g_pos, g_rot
    if encoding is None:
        encoding = encode_captures(field, captures)

    rows, frames_backward = _frames(rot6[live])
    ends = np.cumsum([len(captures[i].local) for i in live]).tolist()
    spans = list(zip([0] + ends[:-1], ends))
    X = np.concatenate([captures[i].local @ r + positions[i] for i, r in zip(live, rows)])
    B = _offsets(field, X)
    V = field.key_values
    att = _softmax(_scores(encoding.A, B, encoding.Z))
    raw, out = _values(att, V, sup)
    total = None
    for (lo, hi), i in zip(spans, live):
        part = np.sum(out[lo:hi], axis=0) * captures[i].scale
        total = part if total is None else total + part
    scale = 1.0 / (k * n)
    L_vec = sup - total * scale

    # backward: d loss / d total = -w / (k n), spread over each span
    g_total = (-w) * scale
    g_out = np.empty_like(out)
    for (lo, hi), i in zip(spans, live):
        g_out[lo:hi] = g_total * captures[i].scale
    g_s = _softmax_backward((g_out * (out == raw)) @ V.T, att)
    g_X = (_scores_b_grad(encoding.A, B, encoding.Z, g_s) * -1.0) @ field.W1[0:3].T
    G = np.empty((len(live), 3, 3))
    for j, ((lo, hi), i) in enumerate(zip(spans, live)):
        G[j] = captures[i].local.T @ g_X[lo:hi]
        g_pos[i] = g_X[lo:hi].sum(axis=0)
    g_rot[live] = frames_backward(G)
    return PlacementLoss(float(np.sum(L_vec * w)), L_vec), g_pos, g_rot


def placement_loss(field: ObservationField, rig: CameraRig, E: CoverageMatrix,
                   weights=DEFAULT_WEIGHTS) -> PlacementLoss:
    """Loss of the rig at its current poses, seeing the voxels of its
    coverage matrix E (capture_visible samples them), under the frozen field."""
    captures = capture_visible(field, rig, E)
    positions = np.stack([p.position for p in rig.poses])
    rot6 = np.stack([p.rot6 for p in rig.poses])
    return placement_loss_grads(field, positions, rot6, captures, weights=weights)[0]
