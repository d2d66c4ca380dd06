import numpy as np
import pytest

import pose_loss_reference as ref
from camopt import autodiff as ad
from gradcheck_utils import gradcheck, op_cases, backprop_grads, finite_diff, max_rel_err


def test_square_derivative_at_three():
    x = ad.Tensor(3.0, requires_grad=True)
    y = ad.mul(x, x)
    y.backward()
    assert np.allclose(x.grad, 6.0)


def test_softmax_of_equal_logits_is_uniform():
    x = ad.Tensor(np.full(4, 1.3))
    y = ad.softmax(x)
    assert np.allclose(y.data, 0.25)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    y = ad.softmax(ad.Tensor(rng.normal(size=(7, 9)) * 4))
    assert np.allclose(y.data.sum(axis=-1), 1.0, atol=1e-12)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(1)
    logits = rng.normal(size=(3, 6))
    shifted = logits.copy()
    shifted[1] += 17.3
    a = ad.softmax(ad.Tensor(logits)).data
    b = ad.softmax(ad.Tensor(shifted)).data
    assert np.max(np.abs(a - b)) < 1e-9


@pytest.mark.parametrize("seed", range(5))
def test_gradcheck_all_ops(seed):
    for name, func, leaves in op_cases(seed):
        fd = finite_diff(func, leaves)
        bp = backprop_grads(func, leaves)
        for f, b in zip(fd, bp):
            err = max_rel_err(f, b)
            assert err < 1e-4, f"{name} (seed {seed}): rel err {err:.3e}"


def test_gradient_of_mean_relu_matmul_matches_fd():
    rng = np.random.default_rng(42)
    x = np.abs(rng.normal(size=(5, 3))) + 0.1
    w = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True)

    def f(leaves):
        return ad.mean(ad.relu(ad.matmul(ad.Tensor(x), leaves[0])))

    gradcheck(f, [w], tol=1e-4)


def test_backward_requires_scalar():
    x = ad.Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError):
        (x * 2.0).backward()


def test_no_gradient_leakage_into_constants():
    x = ad.Tensor(np.ones(4), requires_grad=True)
    c = ad.Tensor(np.arange(4.0))
    out = ad.sum_(ad.mul(x, c))
    out.backward()
    assert c.grad is None
    assert x.grad is not None


def test_tape_determinism():
    def run():
        rng = np.random.default_rng(7)
        w = ad.Tensor(rng.normal(size=(6, 6)), requires_grad=True)
        x = ad.Tensor(rng.normal(size=(10, 6)))
        loss = ad.mean(ad.relu(ad.matmul(x, w)))
        loss.backward()
        return w.grad.copy()

    g1, g2 = run(), run()
    assert np.array_equal(g1, g2)


def test_pairwise_scores_b_only_backward_matches_all_inputs():
    # the pose-descent case (scores_b_grad): a and z come from frozen
    # weights, only b (the query positions' projection) carries a gradient
    q = 2 * ad.SCORE_BLOCK + 5    # two full query blocks and a partial one
    rng = np.random.default_rng(11)
    arrays = (rng.normal(size=(40, 32)), rng.normal(size=(q, 32)),
              rng.normal(size=(q, 32)))
    w = rng.normal(size=(q, 40))

    def run(flags):
        leaves = [ad.Tensor(x.copy(), requires_grad=f) for x, f in zip(arrays, flags)]
        scores = ad.pairwise_scores(*leaves)
        ad.sum_(ad.mul(ad.softmax(scores), ad.Tensor(w))).backward()
        return leaves

    full = run((True, True, True))
    only_b = run((False, True, False))
    assert only_b[0].grad is None and only_b[2].grad is None
    assert max_rel_err(full[1].grad, only_b[1].grad) < 1e-12

    # the unfused definition, whose a gradient sums over every query block
    a, b, z = arrays
    pre = a[None, :, :] + b[:, None, :]
    y = ad.softmax(ad.Tensor(np.einsum("qmh,qh->qm", np.maximum(pre, 0.0), z))).data
    g = y * (w - np.sum(w * y, axis=-1, keepdims=True))
    t = (pre > 0) * (g[:, :, None] * z[:, None, :])
    assert max_rel_err(t.sum(axis=1), only_b[1].grad) < 1e-12
    assert max_rel_err(t.sum(axis=0), full[0].grad) < 1e-12
    assert max_rel_err(np.einsum("qm,qmh->qh", g, np.maximum(pre, 0.0)), full[2].grad) < 1e-12


def test_pairwise_scores_stays_float64():
    # the pose descent runs scores_forward and scores_b_grad in float64;
    # only the field's weight fit runs its slab in float32
    rng = np.random.default_rng(5)
    leaves = [ad.Tensor(rng.normal(size=s), requires_grad=True)
              for s in ((30, 32), (2 * ad.SCORE_BLOCK + 3, 32), (2 * ad.SCORE_BLOCK + 3, 32))]
    scores = ad.pairwise_scores(*leaves)
    ad.sum_(ad.softmax(scores)).backward()
    assert scores.data.dtype == np.float64
    assert all(t.grad.dtype == np.float64 for t in leaves)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_score_blocks_take_the_block_length_and_the_inputs_dtype(dtype):
    rng = np.random.default_rng(6)
    a = rng.normal(size=(9, 4)).astype(dtype)
    b = rng.normal(size=(37, 4)).astype(dtype)
    seen = []
    for rows, slab in ad.score_blocks(a, b, 16):
        assert slab.dtype == dtype
        assert np.array_equal(slab, a[None] + b[rows, None])
        seen.append(rows.stop - rows.start)
    assert seen == [16, 16, 5]


def test_matmul_rejects_bad_shapes():
    a = ad.Tensor(np.ones((2, 3)))
    with pytest.raises(ValueError):
        ad.matmul(a, ad.Tensor(np.ones((4, 2))))
    with pytest.raises(ValueError):
        ad.matmul(a, ad.Tensor(np.ones((2, 2, 2))))


def views_of(theta, shapes):
    """Views of consecutive spans of the flat vector theta, one per shape,
    with the (start, end) of each span."""
    ends = np.cumsum([int(np.prod(s)) for s in shapes]).tolist()
    spans = list(zip([0] + ends[:-1], ends))
    return [theta[a:b].reshape(s) for (a, b), s in zip(spans, shapes)], spans


class TestAdam:
    def test_zero_gradient_leaves_parameters_unchanged(self):
        p = np.array([1.0, -2.0])
        state = ad.AdamState(2)
        before = p.copy()
        for _ in range(3):
            ad.adam_step(p, np.zeros_like(p), state)
        assert np.array_equal(p, before)
        assert state.step_count == 3

    def test_missing_gradient_raises(self):
        p = np.ones(2)
        state = ad.AdamState(2)
        with pytest.raises(ValueError):
            ad.adam_step(p, None, state)

    def test_mismatched_gradients_raise_and_leave_the_state_alone(self):
        theta = np.ones(8)
        state = ad.AdamState(8)
        for g in (np.ones(2), np.ones(7), np.ones((8, 1)), np.ones((4, 2)), np.ones(0)):
            with pytest.raises(ValueError):
                ad.adam_step(theta, g, state)
        with pytest.raises(ValueError):
            ad.adam_step(np.ones(7), np.ones(7), state)
        with pytest.raises(ValueError):
            ad.adam_step(np.ones((2, 4)), np.ones(8), state)
        assert state.step_count == 0
        assert np.array_equal(theta, np.ones(8))
        assert not state.m.any() and not state.v.any()

    def test_constant_gradient_moves_against_its_sign(self):
        p = np.array([0.0, 0.0])
        state = ad.AdamState(2)
        g = np.array([0.5, -2.0])
        for _ in range(100):
            ad.adam_step(p, g.copy(), state)
        assert p[0] < 0.0
        assert p[1] > 0.0

    def test_quadratic_bowl_converges(self):
        target = np.array([0.3, -1.1, 0.7])
        p = np.zeros(3)
        state = ad.AdamState(3, lr=1e-2, decay=1.0)
        for _ in range(2000):
            leaf = ad.Tensor(p.copy(), requires_grad=True)
            diff = ad.sub(leaf, ad.Tensor(target))
            ad.sum_(ad.mul(diff, diff)).backward()
            ad.adam_step(p, leaf.grad, state)
        assert np.linalg.norm(p - target) < 1e-2

    def test_gradients_are_left_unchanged_by_a_step(self):
        p = np.ones(2)
        state = ad.AdamState(2)
        g = np.array([0.25, -1.0])
        ad.adam_step(p, g, state)
        assert np.array_equal(g, [0.25, -1.0])

    def test_fused_step_equals_the_per_parameter_loop(self):
        # the per-parameter update, element for element, on views of one
        # vector across two learning-rate decays and a moment reset
        rng = np.random.default_rng(4)
        shapes = [(6, 32), (32,), (3,), (2, 2, 2)]
        theta = rng.normal(size=sum(int(np.prod(s)) for s in shapes))
        params, spans = views_of(theta, shapes)
        state = ad.AdamState(theta.size, lr=1e-2, decay=0.5, decay_every=3)
        ref = [p.copy() for p in params]
        m = [np.zeros(s) for s in shapes]
        v = [np.zeros(s) for s in shapes]
        for step in range(8):
            grads = [rng.normal(size=s) for s in shapes]
            if step == 4:
                a, b = spans[1]
                state.m[a:b], state.v[a:b] = 0.0, 0.0
                m[1], v[1] = np.zeros(shapes[1]), np.zeros(shapes[1])
            lr, t = 1e-2 * 0.5 ** (step // 3), step + 1
            for i, g in enumerate(grads):
                m[i] = 0.9 * m[i] + (1.0 - 0.9) * g
                v[i] = 0.999 * v[i] + (1.0 - 0.999) * (g * g)
                m_hat = m[i] / (1.0 - 0.9**t)
                v_hat = v[i] / (1.0 - 0.999**t)
                ref[i] -= lr * m_hat / (np.sqrt(v_hat) + 1e-8)
            ad.adam_step(theta, np.concatenate([g.ravel() for g in grads]), state)
            for i, (p, (a, b)) in enumerate(zip(params, spans)):
                assert np.array_equal(p, ref[i])
                assert np.array_equal(state.m[a:b], m[i].ravel())
                assert np.array_equal(state.v[a:b], v[i].ravel())
        assert state.current_lr() == 1e-2 * 0.5 ** 2

    def test_a_shaped_vector_steps_as_its_flat_elements(self):
        # a (k, 9) pose vector takes the step of its C-order elements
        rng = np.random.default_rng(5)
        theta = rng.normal(size=(4, 9))
        flat = theta.ravel().copy()
        state, flat_state = ad.AdamState(36), ad.AdamState(36)
        for _ in range(5):
            g = rng.normal(size=(4, 9))
            ad.adam_step(theta, g, state)
            ad.adam_step(flat, g.ravel(), flat_state)
            assert np.array_equal(theta.ravel(), flat)
            assert np.array_equal(state.m, flat_state.m) and np.array_equal(state.v, flat_state.v)

    def test_array_step_equals_the_tape_era_step(self):
        # the tape-era step read each Tensor's .grad; the flat step takes
        # the same gradients as one vector and must move every element the
        # same way, across learning-rate decays and a moment reset
        rng = np.random.default_rng(9)
        shapes = [(6, 32), (32,), (3,), (6,), (2, 2, 2)]
        theta = rng.normal(size=sum(int(np.prod(s)) for s in shapes))
        tape_theta = theta.copy()
        views, spans = views_of(tape_theta, shapes)
        tensors = [ad.Tensor(view, requires_grad=True) for view in views]
        assert all(np.shares_memory(t.data, tape_theta) for t in tensors)
        state = ad.AdamState(theta.size, lr=1e-2, decay=0.5, decay_every=4)
        tape_state = ad.AdamState(theta.size, lr=1e-2, decay=0.5, decay_every=4)
        for step in range(12):
            grads = [rng.normal(size=s) * 10.0 ** rng.integers(-6, 2) for s in shapes]
            if step == 5:
                a, b = spans[3]
                for st in (state, tape_state):
                    st.m[a:b], st.v[a:b] = 0.0, 0.0
            for t, g in zip(tensors, grads):
                t.grad = g.copy()
            ref.tape_era_adam_step(tensors, tape_state)
            ad.adam_step(theta, np.concatenate([g.ravel() for g in grads]), state)
            assert np.array_equal(theta, tape_theta)
            assert np.array_equal(state.m, tape_state.m)
            assert np.array_equal(state.v, tape_state.v)

    def test_learning_rate_schedule(self):
        p = np.ones(1)
        state = ad.AdamState(1, lr=1e-3, decay=0.95, decay_every=50)
        assert state.current_lr() == pytest.approx(1e-3)
        for _ in range(50):
            ad.adam_step(p, np.ones(1), state)
        assert state.current_lr() == pytest.approx(1e-3 * 0.95)
        for _ in range(50):
            ad.adam_step(p, np.ones(1), state)
        assert state.current_lr() == pytest.approx(1e-3 * 0.95**2)
