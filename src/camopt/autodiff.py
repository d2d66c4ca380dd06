"""Minimal reverse-mode automatic differentiation on float64 numpy arrays.

A dynamic tape is rebuilt on every forward pass: each op returns a Tensor
that keeps references to its parent tensors and a closure that pushes the
output gradient into them.  ``backward()`` on a scalar output walks the
graph in reverse topological order and runs those closures.  Gradients only
flow into branches that end in a ``requires_grad`` leaf, so constants cost
nothing in the backward pass.

Everything is float64 and single-threaded per tape; the tensors involved
are small (a few thousand parameters, query batches in the hundreds), so
the implementation favors clarity and exact, finite-difference-checkable
gradients over throughput tricks.  The one exception is
``pairwise_scores``, a fused kernel for the attention logits that avoids
materializing the (query, key, channel) intermediates on the tape.

Nothing on the optimization path builds a tape: the field's weight fit and
the placement loss's pose gradients are closed-form passes in
``camopt.field`` and the compiled kernels of ``camopt.native``. The tape
serves the gradient checks and the tests' float64 references of those
passes, and the numpy attention-logit helpers ``scores_forward`` and
``scores_b_grad`` over ``score_blocks``, which ``pairwise_scores`` wraps,
serve the tape. The run path uses only ``AdamState`` and ``adam_step``,
one update of one flat parameter vector from one gradient of its shape.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Tensor",
    "AdamState",
    "adam_step",
    "add",
    "sub",
    "mul",
    "div",
    "matmul",
    "relu",
    "sin",
    "cos",
    "softmax",
    "sum_",
    "mean",
    "norm",
    "normalize",
    "concat",
    "reshape",
    "transpose",
    "getitem",
    "clamp",
    "cross3",
    "pairwise_scores",
    "score_blocks",
    "scores_b_grad",
    "scores_forward",
]


class Tensor:
    """A dense float64 array plus its place in the current tape."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    # -- graph bookkeeping -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    @property
    def needs_grad(self) -> bool:
        """True if a gradient should flow into or through this node."""
        return self.requires_grad or self._parents != ()

    def _accumulate(self, g: np.ndarray) -> None:
        if not self.needs_grad:
            return
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Backpropagate from this scalar through the recorded tape."""
        if self.data.size != 1:
            raise ValueError(
                f"backward() requires a scalar output, got shape {self.data.shape}"
            )
        # Iterative topological sort; optimization graphs can be deep.
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen and p.needs_grad:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- operator sugar ----------------------------------------------------

    def __add__(self, other):
        return add(self, _lift(other))

    def __radd__(self, other):
        return add(_lift(other), self)

    def __sub__(self, other):
        return sub(self, _lift(other))

    def __rsub__(self, other):
        return sub(_lift(other), self)

    def __mul__(self, other):
        return mul(self, _lift(other))

    def __rmul__(self, other):
        return mul(_lift(other), self)

    def __truediv__(self, other):
        return div(self, _lift(other))

    def __rtruediv__(self, other):
        return div(_lift(other), self)

    def __neg__(self):
        return mul(self, Tensor(-1.0))

    def __matmul__(self, other):
        return matmul(self, _lift(other))

    def __pow__(self, exponent):
        return pow_(self, exponent)

    def __getitem__(self, idx):
        return getitem(self, idx)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _lift(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


def _make(data, parents, backward) -> Tensor:
    """Wrap an op result; the node joins the tape only if a parent needs grad."""
    out = Tensor(data)
    live = tuple(p for p in parents if p.needs_grad)
    if live:
        out._parents = live
        out._backward = backward
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum gradient over axes that numpy broadcasting expanded."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise and scalar ops
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = _lift(a), _lift(b)

    def backward(g):
        a._accumulate(_unbroadcast(g, a.data.shape))
        b._accumulate(_unbroadcast(g, b.data.shape))

    return _make(a.data + b.data, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    a, b = _lift(a), _lift(b)

    def backward(g):
        a._accumulate(_unbroadcast(g, a.data.shape))
        b._accumulate(_unbroadcast(-g, b.data.shape))

    return _make(a.data - b.data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _lift(a), _lift(b)

    def backward(g):
        a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return _make(a.data * b.data, (a, b), backward)


def div(a: Tensor, b: Tensor) -> Tensor:
    a, b = _lift(a), _lift(b)

    def backward(g):
        a._accumulate(_unbroadcast(g / b.data, a.data.shape))
        b._accumulate(_unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return _make(a.data / b.data, (a, b), backward)


def pow_(a: Tensor, exponent: float) -> Tensor:
    a = _lift(a)
    p = float(exponent)

    def backward(g):
        a._accumulate(g * p * np.power(a.data, p - 1.0))

    return _make(np.power(a.data, p), (a,), backward)


def relu(a: Tensor) -> Tensor:
    a = _lift(a)
    mask = a.data > 0

    def backward(g):
        a._accumulate(g * mask)

    return _make(np.where(mask, a.data, 0.0), (a,), backward)


def sin(a: Tensor) -> Tensor:
    a = _lift(a)

    def backward(g):
        a._accumulate(g * np.cos(a.data))

    return _make(np.sin(a.data), (a,), backward)


def cos(a: Tensor) -> Tensor:
    a = _lift(a)

    def backward(g):
        a._accumulate(-g * np.sin(a.data))

    return _make(np.cos(a.data), (a,), backward)


def clamp(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clip to [lo, hi]; gradient passes through only inside the interval."""
    a = _lift(a)
    inside = (a.data >= lo) & (a.data <= hi)

    def backward(g):
        a._accumulate(g * inside)

    return _make(np.clip(a.data, lo, hi), (a,), backward)


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a @ b with b strictly 2D; a may carry leading batch dimensions."""
    a, b = _lift(a), _lift(b)
    if b.data.ndim != 2:
        raise ValueError(f"matmul expects a 2D right operand, got {b.data.shape}")
    if a.data.ndim < 2:
        raise ValueError(f"matmul expects a >=2D left operand, got {a.data.shape}")
    if a.data.shape[-1] != b.data.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.data.shape} @ {b.data.shape}")

    def backward(g):
        if a.needs_grad:
            a._accumulate(g @ b.data.T)
        if b.needs_grad:
            k = a.data.shape[-1]
            b._accumulate(a.data.reshape(-1, k).T @ g.reshape(-1, g.shape[-1]))

    return _make(a.data @ b.data, (a, b), backward)


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes."""
    a = _lift(a)

    def backward(g):
        a._accumulate(np.swapaxes(g, -1, -2))

    return _make(np.swapaxes(a.data, -1, -2), (a,), backward)


def cross3(a: Tensor, b: Tensor) -> Tensor:
    """Cross product over a trailing axis of size 3."""
    a, b = _lift(a), _lift(b)

    def backward(g):
        # (v x b) . g = v . (b x g)   and   (a x w) . g = w . (g x a)
        a._accumulate(_unbroadcast(np.cross(b.data, g), a.data.shape))
        b._accumulate(_unbroadcast(np.cross(g, a.data), b.data.shape))

    return _make(np.cross(a.data, b.data), (a, b), backward)


def norm(a: Tensor, axis: int = -1, keepdims: bool = True) -> Tensor:
    """Euclidean norm along one axis."""
    a = _lift(a)
    n = np.sqrt(np.sum(a.data * a.data, axis=axis, keepdims=True))

    def backward(g):
        if not keepdims:
            g = np.expand_dims(g, axis)
        a._accumulate(g * a.data / n)

    out = n if keepdims else np.squeeze(n, axis=axis)
    return _make(out, (a,), backward)


def normalize(a: Tensor, axis: int = -1) -> Tensor:
    """a / |a| along one axis; callers guarantee nonzero input."""
    return div(a, norm(a, axis=axis, keepdims=True))


# ---------------------------------------------------------------------------
# reductions and shape ops
# ---------------------------------------------------------------------------


def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = _lift(a)
    in_shape = a.data.shape

    def backward(g):
        if axis is None:
            a._accumulate(np.broadcast_to(g, in_shape).copy())
            return
        if not keepdims:
            g = np.expand_dims(g, axis)
        a._accumulate(np.broadcast_to(g, in_shape).copy())

    return _make(np.sum(a.data, axis=axis, keepdims=keepdims), (a,), backward)


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = _lift(a)
    if axis is None:
        count = a.data.size
    elif isinstance(axis, tuple):
        count = int(np.prod([a.data.shape[i] for i in axis]))
    else:
        count = a.data.shape[axis]
    return mul(sum_(a, axis=axis, keepdims=keepdims), Tensor(1.0 / count))


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis."""
    a = _lift(a)
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        inner = np.sum(g * y, axis=-1, keepdims=True)
        a._accumulate(y * (g - inner))

    return _make(y, (a,), backward)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [_lift(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            t._accumulate(g[tuple(idx)])

    return _make(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), backward)


def reshape(a: Tensor, shape) -> Tensor:
    a = _lift(a)
    in_shape = a.data.shape

    def backward(g):
        a._accumulate(g.reshape(in_shape))

    return _make(a.data.reshape(shape), (a,), backward)


def getitem(a: Tensor, idx) -> Tensor:
    a = _lift(a)

    def backward(g):
        full = np.zeros_like(a.data)
        np.add.at(full, idx, g)
        a._accumulate(full)

    return _make(a.data[idx], (a,), backward)


# ---------------------------------------------------------------------------
# fused attention-logit kernel
# ---------------------------------------------------------------------------


# queries per block of the attention kernel: one block's (block, keys,
# channels) float64 slab is 512 KB at 256 keys and 32 channels, small enough
# to stay in cache between the passes over it
SCORE_BLOCK = 8


def score_blocks(a: np.ndarray, b: np.ndarray, block: int):
    """Yield (query slice, slab) pairs, the slab holding the pre-activation
    a[None] + b[rows, None] of `block` queries at a time, in the inputs'
    dtype.  Every block reuses one buffer, so a consumer must finish with a
    slab before asking for the next."""
    q = len(b)
    slab = np.empty((min(q, block),) + a.shape, dtype=np.result_type(a, b))
    for lo in range(0, q, block):
        rows = slice(lo, min(lo + block, q))
        pre = slab[:rows.stop - lo]
        np.add(a, b[rows, None, :], out=pre)
        yield rows, pre


def scores_forward(a: np.ndarray, b: np.ndarray, z: np.ndarray) -> np.ndarray:
    """scores[q, m] = sum_h relu(a[m, h] + b[q, h]) * z[q, h], in float64
    blocks of SCORE_BLOCK queries."""
    out = np.empty((len(b), len(a)))
    for rows, pre in score_blocks(a, b, SCORE_BLOCK):
        np.maximum(pre, 0.0, out=pre)
        np.matmul(pre, z[rows, :, None], out=out[rows, :, None])
    return out


def scores_b_grad(a: np.ndarray, b: np.ndarray, z: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The gradient of sum(g * scores_forward(a, b, z)) with respect to b:
    gb[q] = (g[q] @ mask[q]) * z[q], mask[q] the relu mask of a + b[q], in
    the same blocks as the forward."""
    gb = np.empty_like(b)
    for rows, pre in score_blocks(a, b, SCORE_BLOCK):
        on = np.greater(pre, 0.0, out=pre)
        np.matmul(g[rows, None, :], on, out=gb[rows, None, :])
        gb[rows] *= z[rows]
    return gb


def pairwise_scores(a: Tensor, b: Tensor, z: Tensor) -> Tensor:
    """Fused scores[q, m] = sum_h relu(a[m, h] + b[q, h]) * z[q, h].

    Equivalent to broadcasting a (queries, keys, channels) pre-activation,
    applying relu, and contracting with a per-query vector, but never stores
    that intermediate: the pre-activation is built block by block by
    score_blocks, and the backward pass rebuilds it the same way (bit for
    bit) to get the relu mask.  The forward and the b gradient are the numpy
    helpers scores_forward and scores_b_grad; the field's queries and pose
    gradients run the same sums in the compiled attention kernels, in
    another order.  Only the inputs that need a gradient get one.
    """
    a, b, z = _lift(a), _lift(b), _lift(z)

    def backward(g):
        if b.needs_grad:
            b._accumulate(scores_b_grad(a.data, b.data, z.data, g))
        ga = np.zeros_like(a.data) if a.needs_grad else None
        gz = np.empty_like(z.data) if z.needs_grad else None
        if ga is None and gz is None:
            return
        mask = np.empty((min(len(b.data), SCORE_BLOCK),) + a.data.shape)
        for rows, pre in score_blocks(a.data, b.data, SCORE_BLOCK):
            on = np.greater(pre, 0.0, out=mask[:len(pre)])
            if gz is not None:
                np.maximum(pre, 0.0, out=pre)
                np.matmul(g[rows, None, :], pre, out=gz[rows, None, :])
            if ga is not None:
                on *= z.data[rows, None, :]
                ga += np.einsum("qm,qmh->mh", g[rows], on)
        for t, grad in ((a, ga), (z, gz)):
            if grad is not None:
                t._accumulate(grad)

    return _make(scores_forward(a.data, b.data, z.data), (a, b, z), backward)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


class AdamState:
    """Adam moments of `size` float64 parameters, plus a stepped
    learning-rate decay schedule. m and v are flat, an element per parameter
    in the parameters' order, so a caller forgets some parameters by zeroing
    their span of both. Learning rate at step t (1-based) is
    lr0 * decay ** ((t - 1) // decay_every).
    """

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, size: int, lr: float = 1e-3, decay: float = 0.95, decay_every: int = 50):
        self.lr0 = lr
        self.decay = decay
        self.decay_every = decay_every
        self.step_count = 0
        self.m = np.zeros(size)
        self.v = np.zeros(size)

    def current_lr(self) -> float:
        return self.lr0 * self.decay ** (self.step_count // self.decay_every)


def adam_step(theta: np.ndarray, g: np.ndarray, state: AdamState) -> None:
    """One in-place Adam update of the parameters theta, an array of
    state's size in any shape, from their gradient g of theta's shape; the
    moments follow theta's elements in C order."""
    if np.size(theta) != state.m.size or np.shape(g) != np.shape(theta):
        raise ValueError(f"need {state.m.size} parameters and a gradient of their shape")
    lr = state.current_lr()
    state.step_count += 1
    t = state.step_count
    b1, b2 = state.beta1, state.beta2
    g = np.ravel(g)
    m, v = state.m, state.v
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * (g * g)
    m_hat = m / (1.0 - b1**t)
    v_hat = v / (1.0 - b2**t)
    theta -= (lr * m_hat / (np.sqrt(v_hat) + state.eps)).reshape(theta.shape)
