"""The field's fit step in numpy: the oracle the tests compare the compiled
step (a call of the `native.FitStep` that `field.lean_neof` makes per fit)
with.

It computes the same gradients as the compiled step, the float32 slab
passes and the float64 rest, but sums in numpy's and the BLAS kernel's
orders: the encode and the weight chain are numpy products, and the slab
passes and the row chain run in blocks of FIT_BLOCK queries, each block's
relu slab built once. So the two agree to float32 rounding, not bit for
bit (tests/test_field.py's reference_fit_step repeats the compiled step's
own orders).
"""

import numpy as np

from camopt import autodiff as ad
from camopt import native
from camopt.field import D_K, _attend, _softmax_backward

# training queries per block of the float32 relu slab (512 KB at 256 keys
# and 32 channels)
FIT_BLOCK = 16
_INV_SQRT_DK = 1.0 / np.sqrt(D_K)


def logit_grads(s, V, target, dV, sup) -> np.ndarray:
    """From float64 scores s (rows, keys): the attention forward
    (field._attend, which overwrites s), the squared-error gradient where
    the clamp passes it, and the softmax backward to the logits. dV is V.T *
    2 / target.size. Every step is per row."""
    att, raw, out = _attend(s, V, sup)
    err = (out - target) * (out == raw)
    return _softmax_backward(err @ dV, att)


def slab_grads(A, B, Z, V, target, dV, sup):
    """gA, gB, gZ (float32) of float32 A, B and Z, FIT_BLOCK queries at a
    time: each block's relu slab runs the scores, the row chain
    (logit_grads) and the slab contractions while it is in cache."""
    gA = np.zeros_like(A)
    gB = np.empty_like(B)
    gZ = np.empty_like(Z)
    scores = np.empty((min(len(B), FIT_BLOCK), len(A)), dtype=np.float32)
    for rows, slab in ad.score_blocks(A, B, FIT_BLOCK):
        np.maximum(slab, 0.0, out=slab)
        n = len(slab)
        s = scores[:n]
        np.matmul(slab, Z[rows, :, None], out=s[:, :, None])
        g = logit_grads(s.astype(np.float64), V, target[rows], dV, sup)
        # a key the row barely attends to leaves a g far below float32
        # resolution; as a float32 denormal it would slow every product it
        # enters many times over, so it is dropped
        np.putmask(g, np.abs(g) < native.FLUSH, 0.0)
        g = g.astype(np.float32)
        np.matmul(g[:, None, :], slab, out=gZ[rows, None, :])
        # last use of the slab: overwrite it with the relu mask times Z;
        # gB[q] = g[q] @ that, gA[m] = g[:, m] @ that[:, m], one product per key
        on_z = np.greater(slab, 0.0, out=slab)
        on_z *= Z[rows, None, :]
        np.matmul(g[:, None, :], on_z, out=gB[rows, None, :])
        gA += (g.T[:, None, :] @ on_z.transpose(1, 0, 2))[:, 0, :]
    return gA, gB, gZ


def fit_gradients(field, batch):
    """The six weight gradients (native.WEIGHT_SHAPES order) of the mean
    squared error of the field's outputs at the batch's rows
    (field._FitBatch) against their attributes."""
    W1, b1, W2, b2, WQ, WK = native.weight_views(field.theta)
    pos, nrm = batch.positions, batch.normals
    # the encode: A of the keys, and Z of the query normals through the
    # query encoder enc = relu(q_in @ W1 + b1) @ W2 + b2, qrow = enc @ WQ
    # and folded = (W2 @ WK) / sqrt(dk)
    q_in = np.concatenate([np.zeros_like(nrm), nrm], axis=1)
    pre = q_in @ W1 + b1
    live = pre > 0
    h = np.where(live, pre, 0.0)
    enc = h @ W2 + b2
    qrow = enc @ WQ
    folded = (W2 @ WK) * _INV_SQRT_DK
    f32 = np.float32
    A = (field.key_basis @ W1 + b1).astype(f32)
    Z = (qrow @ folded.T).astype(f32)
    B = ((pos @ W1[0:3]) * -1.0).astype(f32)
    V = field.key_values
    dV = V.T * (2.0 / (len(pos) * V.shape[1]))
    gA, gB, gZ = (x.astype(np.float64)
                  for x in slab_grads(A, B, Z, V, batch.target, dV, field.sup))

    # back through Z, qrow, enc and h to the weights
    g_qrow = gZ @ folded
    g_fold = (gZ.T @ qrow) * _INV_SQRT_DK
    g_enc = g_qrow @ WQ.T
    g_pre = (g_enc @ W2.T) * live
    g_W1 = field.key_basis.T @ gA + q_in.T @ g_pre
    # B = -pos @ W1[:3] touches only the position rows of W1
    g_W1[0:3] -= pos.T @ gB
    return (g_W1,
            gA.sum(axis=0) + g_pre.sum(axis=0),
            h.T @ g_enc + g_fold @ WK.T,
            g_enc.sum(axis=0),
            enc.T @ g_qrow,
            W2.T @ g_fold)
