"""Tape-built reference for the placement loss and its pose gradients.

This is the loss the gradient phase differentiated on the reverse-mode tape
before `field.placement_loss_grads` computed it in numpy: the camera axes
from rot6 by a Gram-Schmidt graph (`_rotation_rows`), the captured points
moved to world coordinates, B = -X @ W1[:3] and the attention forward on the
tape, then `backward()`. The library's numpy forward and backward repeat the
tape's float expressions and accumulation order; the tests assert that the
two agree bit for bit.
"""

import numpy as np

from camopt import autodiff as ad
from camopt.field import DEFAULT_WEIGHTS, encode_captures


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


def _attend(field, A, B, Z) -> ad.Tensor:
    """Attention forward from the logits' parts; returns the clamped outputs
    (q, 3), on the tape where B is."""
    att = ad.softmax(ad.pairwise_scores(ad.Tensor(A), B, ad.Tensor(Z)))
    return ad.clamp(ad.matmul(att, ad.Tensor(field.key_values)), 0.0, field.sup)


def placement_loss_graph(field, position_ts, rot6_ts, captures,
                         weights=DEFAULT_WEIGHTS, encoding=None):
    """Differentiable loss over pose parameter tensors; the field's weights
    are constants. Returns (scalar loss, component vector) tensors."""
    k = len(captures)
    n = len(field.centers)
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
    X = ad.concat(world_parts, axis=0)
    B = ad.mul(ad.matmul(X, ad.Tensor(field.W1[0:3])), ad.Tensor(-1.0))
    out = _attend(field, encoding.A, B, encoding.Z)

    total = None
    for (lo, hi), scale in zip(spans, scales):
        part = ad.mul(ad.sum_(out[lo:hi], axis=0), ad.Tensor(scale))
        total = part if total is None else ad.add(total, part)
    L_vec = ad.sub(ad.Tensor(sup.copy()), ad.mul(total, ad.Tensor(1.0 / (k * n))))
    return ad.sum_(ad.mul(L_vec, w_t)), L_vec


def tape_loss_and_grads(field, positions, rot6, captures, weights=DEFAULT_WEIGHTS):
    """(loss, components, (k, 3) position and (k, 6) rot6 gradients) of the
    tape graph, taken as the gradient phase took them: the graph, then
    backward(), with zeros for the cameras no gradient reached."""
    pos_ts = [ad.Tensor(p.copy(), requires_grad=True) for p in positions]
    rot_ts = [ad.Tensor(r.copy(), requires_grad=True) for r in rot6]
    loss_t, vec_t = placement_loss_graph(field, pos_ts, rot_ts, captures, weights=weights)
    if loss_t.needs_grad:
        loss_t.backward()
    return (float(loss_t.data), vec_t.data.copy(),
            np.stack([np.zeros(3) if t.grad is None else t.grad for t in pos_ts]),
            np.stack([np.zeros(6) if t.grad is None else t.grad for t in rot_ts]))


def tape_era_adam_step(params, state) -> None:
    """The Adam step as it read the tape: the gradients from each Tensor's
    .grad, the update written to .data, the gradients cleared. The tensors
    take consecutive spans of the state's moments in order, so their data
    may be views of one vector, as autodiff.adam_step's theta."""
    for i, p in enumerate(params):
        if p.grad is None:
            raise ValueError(f"parameter {i} has no gradient")
    lr = state.current_lr()
    state.step_count += 1
    t = state.step_count
    b1, b2 = state.beta1, state.beta2
    g = np.concatenate([p.grad.ravel() for p in params])
    m, v = state.m, state.v
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * (g * g)
    m_hat = m / (1.0 - b1**t)
    v_hat = v / (1.0 - b2**t)
    update = lr * m_hat / (np.sqrt(v_hat) + state.eps)
    end = 0
    for p in params:
        start, end = end, end + p.data.size
        p.data -= update[start:end].reshape(p.data.shape)
        p.grad = None
