"""Learned observation field: attention over attributed voxels.

The field maps a spatial query (position + normal) to an estimate of the
observation-attribute triple by encoding voxel offsets relative to the query
with a small MLP and attending over the snapshot of attributed voxels. It is
differentiable with respect to query positions, which is what lets camera
poses follow its gradient.

The attention logits are computed in a folded form. With the encoder
enc(x) = relu(x @ W1 + b1) @ W2 + b2 and keys K_m = enc([C_m - X_q, N_m]) @ WK,
the logit Qrow . K_m / sqrt(dk) expands to

    relu(A_m + B_q) . Z_q + const_q,

where A_m = [C_m, N_m] @ W1 + b1 depends only on the voxel, B_q = -X_q @ W1[:3]
only on the query position, and Z_q = (W2 @ WK) @ Qrow_q / sqrt(dk). The
per-query constant shifts every logit of a row equally, so softmax discards
it and it is dropped. This avoids materializing per-pair encoder activations
through two linear layers and keeps the hot loop in one fused kernel.

A and Z depend only on the weights and the query normals, so one numpy
encode (_encode) serves all three callers, none of which differentiates
through the weights: `query` runs the forward without a tape; the placement
loss keeps only B on the tape, since only the query positions move with the
poses (a gradient phase encodes its frozen captures once, encode_captures);
and the weight fit (`lean_neof`) takes its gradients from a fused numpy step,
_fit_gradients. That step walks the training queries in blocks of FIT_BLOCK,
builds each block's (block, keys, 32) relu slab once, and while the slab is
in cache runs the forward, the squared-error gradient back to the logits and
the slab contractions; the six weight gradients then close in numpy. The
slab passes run in float32, which halves the step's time; everything else
here (the per-row softmax and error chain, weights, Adam state, `query`, the
placement loss) stays float64. The gradients match the float64 tape of the
same loss to about 1e-7 relative, not bit for bit, so this change of
arithmetic moved every rig in its last bits once.
"""

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from camopt import autodiff as ad
from camopt.attributes import ObservationAttributes, sup_vector
from camopt.visibility import CameraRig, CoverageMatrix

HIDDEN = 32
D_K = 32
DEFAULT_WEIGHTS = (0.4, 0.3, 0.3)
INITIAL_BUDGET = 200
FINETUNE_BUDGET = 20
TRAIN_QUERY_POOL = 512
TRAIN_BATCH = 128
KEY_BASIS_CAP = 256
LOSS_QUERY_CAP = 16
# training queries per block of the fit step's float32 relu slab (512 KB at
# 256 keys and 32 channels)
FIT_BLOCK = 16
_INV_SQRT_DK = 1.0 / np.sqrt(D_K)
_FLUSH = 1e-30       # fit-step logit gradients below this are dropped


def _strided(total: int, want: int) -> np.ndarray:
    """Deterministic evenly spaced index subset; all indices when they fit."""
    if total <= want:
        return np.arange(total)
    return np.arange(want) * total // want


class FieldQueryBatch:
    """Query positions with their unit normals."""

    def __init__(self, positions, normals):
        self.positions = np.asarray(positions, dtype=np.float64)
        self.normals = np.asarray(normals, dtype=np.float64)
        if self.positions.ndim != 2 or self.positions.shape[1] != 3:
            raise ValueError("positions must be (q, 3)")
        if self.normals.shape != self.positions.shape:
            raise ValueError("normals must match positions in shape")
        if len(self.normals) == 0:
            raise ValueError("empty query batch")


class ObservationField:
    """Encoder + attention weights plus the attributed-voxel snapshot."""

    def __init__(self, seed: int = 0):
        # WQ/WK start small so initial attention is near-uniform: a large
        # random init produces confidently wrong peaks that the budgeted
        # training cannot unlearn at the fixed learning rate. Positive b1
        # keeps most ReLU units live from step one.
        rng = np.random.default_rng(seed)
        self.W1 = ad.Tensor(rng.normal(0.0, np.sqrt(2.0 / 6.0), size=(6, HIDDEN)),
                            requires_grad=True)
        self.b1 = ad.Tensor(np.full(HIDDEN, 0.5), requires_grad=True)
        self.W2 = ad.Tensor(rng.normal(0.0, np.sqrt(2.0 / HIDDEN), size=(HIDDEN, HIDDEN)),
                            requires_grad=True)
        self.b2 = ad.Tensor(np.zeros(HIDDEN), requires_grad=True)
        self.WQ = ad.Tensor(rng.normal(0.0, 0.05, size=(HIDDEN, D_K)), requires_grad=True)
        self.WK = ad.Tensor(rng.normal(0.0, 0.05, size=(HIDDEN, D_K)), requires_grad=True)
        self.adam = ad.AdamState(self.params())
        self.centers = None
        self.normals = None
        self.values = None
        self.key_idx = None
        self.K = None
        self.sup = None
        self.trained = False

    def params(self):
        return [self.W1, self.b1, self.W2, self.b2, self.WQ, self.WK]

    @property
    def voxel_count(self) -> int:
        return 0 if self.centers is None else len(self.centers)

    def snapshot(self, grid, attrs: ObservationAttributes):
        if len(attrs) != len(grid.centers):
            raise ValueError("attribute count must match voxel count")
        if len(grid.centers) == 0:
            raise ValueError("cannot snapshot an empty grid")
        self.centers = np.asarray(grid.centers, dtype=np.float64).copy()
        self.normals = np.asarray(grid.normals, dtype=np.float64).copy()
        self.values = attrs.stack()
        self.key_idx = _strided(len(self.centers), KEY_BASIS_CAP)
        self.K = attrs.K
        self.sup = sup_vector(attrs.K)

    def _require_snapshot(self):
        if self.centers is None:
            raise ValueError("field has no attributed voxel snapshot yet")


class _Encoding(NamedTuple):
    """The weight-only parts of the folded logits for one batch of query
    normals: the key basis A and the query vectors Z, plus the intermediates
    the fit step's backward reads."""
    basis: np.ndarray    # (keys, 6) key centers and normals
    A: np.ndarray        # (keys, 32) basis @ W1 + b1
    q_in: np.ndarray     # (q, 6) zero offset and query normal
    live: np.ndarray     # (q, 32) bool, relu mask of the query encoder
    h: np.ndarray        # (q, 32) relu(q_in @ W1 + b1)
    enc: np.ndarray      # (q, 32) h @ W2 + b2
    qrow: np.ndarray     # (q, dk) enc @ WQ
    folded: np.ndarray   # (32, dk) (W2 @ WK) / sqrt(dk)
    Z: np.ndarray        # (q, 32) qrow @ folded.T


def _encode(field: ObservationField, normals: np.ndarray) -> _Encoding:
    """Encode the key basis and the query normals with the current weights,
    in numpy: the weights are constants to every caller."""
    W1, b1, W2, b2, WQ, WK = (p.data for p in field.params())
    kidx = field.key_idx
    basis = np.concatenate([field.centers[kidx], field.normals[kidx]], axis=1)
    q_in = np.concatenate([np.zeros_like(normals), normals], axis=1)
    pre = q_in @ W1 + b1
    live = pre > 0
    h = np.where(live, pre, 0.0)
    enc = h @ W2 + b2
    qrow = enc @ WQ
    folded = (W2 @ WK) * _INV_SQRT_DK
    return _Encoding(basis, basis @ W1 + b1, q_in, live, h, enc, qrow, folded,
                     qrow @ folded.T)


def _offsets(field: ObservationField, positions: ad.Tensor) -> ad.Tensor:
    """B = -X @ W1[:3], the query-position half of the logits' pre-activation;
    on the tape only when the positions are."""
    return ad.mul(ad.matmul(positions, ad.Tensor(field.W1.data[0:3])), ad.Tensor(-1.0))


def _attend(field: ObservationField, A, B, Z) -> ad.Tensor:
    """Attention forward from the logits' parts; returns the clamped outputs
    (q, 3), on the tape only where B is."""
    att = ad.softmax(ad.pairwise_scores(ad.Tensor(A), B, ad.Tensor(Z)))
    return ad.clamp(ad.matmul(att, ad.Tensor(field.values[field.key_idx])), 0.0, field.sup)


def query(field: ObservationField, batch: FieldQueryBatch) -> np.ndarray:
    """Attributes (q, 3) at the query points under the current weights."""
    field._require_snapshot()
    if not field.trained:
        raise ValueError("field must be trained (lean_neof) before querying")
    enc = _encode(field, batch.normals)
    return _attend(field, enc.A, _offsets(field, ad.Tensor(batch.positions)), enc.Z).data


def _fit_gradients(field: ObservationField, idx: np.ndarray) -> None:
    """Set every weight's .grad to the gradient of the mean squared error of
    the field's outputs at the snapshot voxels idx against their attributes.

    One fused pass per block of FIT_BLOCK queries builds the relu slab once
    and, while it is in cache, runs the forward to the clamped outputs, the
    error gradient back through clamp and softmax to the logits, and the slab
    contractions for A, B and Z (softmax, clamp and the error are per query
    row, so a block needs no other rows). The slab and its contractions are
    float32: A, B and Z are cast once per step and their gradients cast
    back, so the six weight gradients close in float64. The scores, softmax
    and error chain of a block, (block, keys) arrays, run in float64. The
    gradients match the float64 tape of the same loss to about 1e-7
    relative; a rare relu or clamp decision at a float32 rounding boundary
    moves one by up to about 1e-3.
    """
    W1, b1, W2, b2, WQ, WK = field.params()
    enc = _encode(field, field.normals[idx])
    pos = field.centers[idx]
    f32 = np.float32
    A, Z = enc.A.astype(f32), enc.Z.astype(f32)
    B = _offsets(field, ad.Tensor(pos)).data.astype(f32)
    V = field.values[field.key_idx]
    target = field.values[idx]
    dV = V.T * (2.0 / target.size)      # d mean(err ** 2) / d err = 2 err / size
    gA = np.zeros_like(A)
    gB = np.empty_like(B)
    gZ = np.empty_like(Z)
    scores = np.empty((min(len(idx), FIT_BLOCK), len(A)), dtype=f32)
    for rows, slab in ad.score_blocks(A, B, FIT_BLOCK):
        np.maximum(slab, 0.0, out=slab)
        s = scores[:len(slab)]
        np.matmul(slab, Z[rows, :, None], out=s[:, :, None])
        # the row-wise chain is small next to the slab and cancels in the
        # softmax backward, so it runs in float64
        s = s.astype(np.float64)
        s -= s.max(axis=-1, keepdims=True)
        att = np.exp(s, out=s)
        att /= att.sum(axis=-1, keepdims=True)
        raw = att @ V
        out = np.minimum(np.maximum(raw, 0.0), field.sup)
        # the error, where the clamp passes its gradient
        err = (out - target[rows]) * (out == raw)
        # softmax backward: att * (g_att - sum(g_att * att))
        g = err @ dV
        g -= (g * att).sum(axis=-1, keepdims=True)
        g *= att
        # a key the row barely attends to leaves a g far below float32
        # resolution; as a float32 denormal it would slow every product it
        # enters many times over, so it is dropped
        np.putmask(g, np.abs(g) < _FLUSH, 0.0)
        g = g.astype(f32)
        np.matmul(g[:, None, :], slab, out=gZ[rows, None, :])
        # last use of the slab: overwrite it with the relu mask times Z;
        # gB[q] = g[q] @ that, gA[m] = g[:, m] @ that[:, m], one product per key
        on_z = np.greater(slab, 0.0, out=slab)
        on_z *= Z[rows, None, :]
        np.matmul(g[:, None, :], on_z, out=gB[rows, None, :])
        gA += (g.T[:, None, :] @ on_z.transpose(1, 0, 2))[:, 0, :]
    gA, gB, gZ = (x.astype(np.float64) for x in (gA, gB, gZ))

    # Z = qrow @ folded.T, folded = (W2 @ WK) / sqrt(dk), qrow = enc @ WQ,
    # enc = relu(q_in @ W1 + b1) @ W2 + b2
    g_qrow = gZ @ enc.folded
    g_fold = (gZ.T @ enc.qrow) * _INV_SQRT_DK
    g_enc = g_qrow @ WQ.data.T
    g_pre = (g_enc @ W2.data.T) * enc.live
    W1.grad = enc.basis.T @ gA + enc.q_in.T @ g_pre
    # B = -pos @ W1[:3] touches only the position rows of W1
    W1.grad[0:3] -= pos.T @ gB
    b1.grad = gA.sum(axis=0) + g_pre.sum(axis=0)
    W2.grad = enc.h.T @ g_enc + g_fold @ WK.data.T
    b2.grad = g_enc.sum(axis=0)
    WQ.grad = enc.enc.T @ g_qrow
    WK.grad = W2.data.T @ g_fold


def lean_neof(field: Optional[ObservationField], grid, attrs: ObservationAttributes,
              budget: Optional[int] = None, seed: int = 0) -> ObservationField:
    """Fit (or refresh) the field against the current attribute snapshot.

    A fresh field is created and trained for the initial budget when none is
    given; an existing field keeps its weights and Adam state and fine-tunes
    for the smaller budget. Budget 0 only swaps in the new snapshot.
    """
    if field is None:
        field = ObservationField(seed=seed)
        if budget is None:
            budget = INITIAL_BUDGET
    elif budget is None:
        budget = FINETUNE_BUDGET
    field.snapshot(grid, attrs)
    m = field.voxel_count
    pool = _strided(m, TRAIN_QUERY_POOL)
    for step in range(budget):
        if len(pool) > TRAIN_BATCH:
            start = (step * TRAIN_BATCH) % len(pool)
            idx = pool[(start + np.arange(TRAIN_BATCH)) % len(pool)]
        else:
            idx = pool
        _fit_gradients(field, idx)
        ad.adam_step(field.params(), field.adam)
    field.trained = True
    return field


# ---------------------------------------------------------------------------
# pose-differentiable placement loss
# ---------------------------------------------------------------------------

@dataclass
class CapturedCamera:
    """A camera's visible voxels frozen in its local frame at capture time."""
    local: np.ndarray     # (s, 3) sampled voxel centers in camera coordinates
    normals: np.ndarray   # (s, 3) voxel normals, world frame at capture
    scale: float          # visible voxel count / s, undoes the sampling in the sum
    empty: bool


def _sample_visible(rows: np.ndarray, query_cap: int):
    """The voxel rows a camera is queried at, a strided subset of its sorted
    non-empty visible rows, and the factor |rows| / |sample| that undoes the
    sampling in a sum."""
    take = rows[_strided(len(rows), query_cap)]
    return take, len(rows) / len(take)


def visible_attr_sum(field: ObservationField, rows: np.ndarray,
                     query_cap: int = LOSS_QUERY_CAP) -> np.ndarray:
    """Componentwise sum of field attributes over one camera's sorted visible
    voxel rows (sampled and rescaled), the additive per-camera share of the
    loss; zeros when there are none."""
    if len(rows) == 0:
        return np.zeros(3)
    take, scale = _sample_visible(rows, query_cap)
    out = query(field, FieldQueryBatch(field.centers[take], field.normals[take]))
    return out.sum(axis=0) * scale


def capture_visible(field: ObservationField, rig: CameraRig, E: CoverageMatrix,
                    query_cap: int = LOSS_QUERY_CAP):
    """Store each camera's visible voxel centers (its row of the coverage
    matrix E) in its own frame so their world positions become a
    differentiable function of the pose."""
    field._require_snapshot()
    caps = []
    for pose, row in zip(rig.poses, E.entries):
        rows = np.flatnonzero(row)
        if len(rows) == 0:
            caps.append(CapturedCamera(np.zeros((0, 3)), np.zeros((0, 3)), 1.0, True))
            continue
        take, scale = _sample_visible(rows, query_cap)
        local = (field.centers[take] - pose.position) @ pose.rotation()
        caps.append(CapturedCamera(local=local, normals=field.normals[take].copy(),
                                   scale=scale, empty=False))
    return caps


def _rotation_rows(rot6_t: ad.Tensor) -> ad.Tensor:
    """(3, 3) matrix whose rows are the orthonormalized camera axes, i.e. the
    transpose of the rotation; world = local @ rows + position."""
    a = rot6_t[0:3]
    b = rot6_t[3:6]
    c1 = ad.normalize(a)
    proj = ad.sum_(ad.mul(c1, b))
    c2 = ad.normalize(ad.sub(b, ad.mul(c1, proj)))
    c3 = ad.cross3(c1, c2)
    return ad.concat([ad.reshape(c1, (1, 3)), ad.reshape(c2, (1, 3)),
                      ad.reshape(c3, (1, 3))], axis=0)


def encode_captures(field: ObservationField, captures):
    """The weight-only logit parts (_encode) of the captured normals of the
    non-empty cameras, in camera order: fixed while the field and the
    captures are, so a gradient phase computes them once. None when every
    camera is empty."""
    normals = [cap.normals for cap in captures if not cap.empty]
    return _encode(field, np.concatenate(normals, axis=0)) if normals else None


def placement_loss_graph(field: ObservationField, position_ts, rot6_ts, captures,
                         weights=DEFAULT_WEIGHTS, encoding=None):
    """Differentiable loss over pose parameter tensors; the field's weights
    are constants.

    Empty-visibility cameras contribute nothing to the attribute sum (their
    share of the loss stays at the componentwise maximum) and receive no
    gradient. `encoding` is encode_captures(field, captures), computed here
    when not given. Returns (scalar loss, component vector) tensors.
    """
    field._require_snapshot()
    k = len(captures)
    n = field.voxel_count
    sup = field.sup

    world_parts, spans, scales = [], [], []
    q0 = 0
    for pos_t, rot_t, cap in zip(position_ts, rot6_ts, captures):
        if cap.empty:
            continue
        rows = _rotation_rows(rot_t)
        world = ad.add(ad.matmul(ad.Tensor(cap.local), rows), ad.reshape(pos_t, (1, 3)))
        world_parts.append(world)
        spans.append((q0, q0 + len(cap.local)))
        scales.append(cap.scale)
        q0 += len(cap.local)

    w_t = ad.Tensor(np.asarray(weights, dtype=np.float64))
    if not world_parts:
        L_vec = ad.Tensor(sup.copy())
        return ad.sum_(ad.mul(L_vec, w_t)), L_vec

    if encoding is None:
        encoding = encode_captures(field, captures)
    B = _offsets(field, ad.concat(world_parts, axis=0))
    out = _attend(field, encoding.A, B, encoding.Z)

    total = None
    for (lo, hi), scale in zip(spans, scales):
        part = ad.mul(ad.sum_(out[lo:hi], axis=0), ad.Tensor(scale))
        total = part if total is None else ad.add(total, part)
    L_vec = ad.sub(ad.Tensor(sup.copy()), ad.mul(total, ad.Tensor(1.0 / (k * n))))
    return ad.sum_(ad.mul(L_vec, w_t)), L_vec


@dataclass
class PlacementLoss:
    total: float
    components: np.ndarray        # (3,) [L_vis, L_cc, L_co]


def placement_loss(field: ObservationField, rig: CameraRig, E: CoverageMatrix,
                   weights=DEFAULT_WEIGHTS, query_cap: int = LOSS_QUERY_CAP) -> PlacementLoss:
    """Loss of the rig at its current poses, seeing the voxels of its
    coverage matrix E, under the frozen field and without gradients
    (grad_phase differentiates placement_loss_graph itself)."""
    captures = capture_visible(field, rig, E, query_cap=query_cap)
    position_ts = [ad.Tensor(p.position.copy()) for p in rig.poses]
    rot6_ts = [ad.Tensor(p.rot6.copy()) for p in rig.poses]
    loss_t, vec_t = placement_loss_graph(field, position_ts, rot6_ts, captures,
                                         weights=weights)
    return PlacementLoss(total=float(loss_t.data), components=vec_t.data.copy())
