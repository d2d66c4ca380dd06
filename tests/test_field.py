"""Field tests: attention identities, a dense unfolded reference forward,
training behaviour, pose gradients of the placement loss."""

import ctypes
import os
import platform
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fit_step_reference as numpy_fit
import pose_loss_reference as ref
from camopt import autodiff as ad
from camopt import field as field_module
from camopt import native
from camopt.attributes import ObservationAttributes, shape_analyze, sup_vector
from camopt.field import (
    D_K,
    INITIAL_BUDGET,
    KEY_BASIS_CAP,
    TRAIN_BATCH,
    TRAIN_QUERY_POOL,
    ObservationField,
    PlacementLoss,
    _encode,
    _FitBatch,
    _fit_workspace,
    _strided,
    capture_visible,
    lean_neof,
    placement_loss,
    placement_loss_grads,
    query,
    visible_attr_sum,
)
from camopt.hybrid import initialize
from camopt.scene import (
    VOLUMETRIC3D,
    ShapeSpec,
    TargetScene,
    VoxelGrid,
    generate_planar_shape,
    voxelize,
)
from camopt.visibility import (CameraRig, CoverageMatrix, default_intrinsics, pose_from_forward,
                               replace_row)


def make_grid(centers, normals=None):
    centers = np.atleast_2d(np.asarray(centers, dtype=np.float64))
    m = len(centers)
    if normals is None:
        normals = np.tile([0.0, 0.0, 1.0], (m, 1))
    normals = np.asarray(normals, dtype=np.float64)
    origin = centers.min(axis=0) - 0.5
    keys = np.floor(centers - origin).astype(np.int64)
    return VoxelGrid(
        resolution=1.0,
        centers=centers,
        normals=normals,
        keys=keys,
        origin=origin,
    )


def random_attrs(m, K, rng, margin=0.05):
    """Attribute rows strictly inside (margin, 1-margin) of the value range,
    keeping the output clamp inactive for smoothness-sensitive tests."""
    sup = sup_vector(K)
    u = rng.uniform(margin, 1.0 - margin, size=(m, 3))
    vals = u * sup
    return ObservationAttributes(c=vals[:, 0], phi_cc=vals[:, 1], phi_co=vals[:, 2], K=K)


def constant_attrs(m, K, row):
    row = np.asarray(row, dtype=np.float64)
    return ObservationAttributes(
        c=np.full(m, row[0]), phi_cc=np.full(m, row[1]), phi_co=np.full(m, row[2]), K=K)


def scattered_grid(m, rng, scale=2.0):
    centers = rng.uniform(-scale, scale, size=(m, 3))
    normals = rng.normal(size=(m, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return make_grid(centers, normals)


# ---------------------------------------------------------------------------
# reference forward: unfolded attention, recomputed from first principles
# ---------------------------------------------------------------------------

def key_rows(field):
    """The snapshot rows the field attends over: KEY_BASIS_CAP of them,
    evenly strided."""
    return _strided(len(field.centers), KEY_BASIS_CAP)


def naive_query(field, q_pos, q_norm):
    """Encode every (offset, normal) pair through the full MLP and run plain
    scaled dot-product attention, constant term and all."""
    W1, b1, W2, b2, WQ, WK = native.weight_views(field.theta)

    def encode(x):
        return np.maximum(x @ W1 + b1, 0.0) @ W2 + b2

    kidx = key_rows(field)
    q_vec = encode(np.concatenate([np.zeros(3), q_norm])[None, :])[0] @ WQ
    key_in = np.concatenate([field.centers[kidx] - q_pos, field.normals[kidx]], axis=1)
    keys = encode(key_in) @ WK
    logits = keys @ q_vec / np.sqrt(WK.shape[1])
    e = np.exp(logits - logits.max())
    att = e / e.sum()
    return np.clip(att @ field.values[kidx], 0.0, field.sup)


class TestQueryForward:
    def test_matches_unfolded_reference(self):
        rng = np.random.default_rng(11)
        grid = scattered_grid(40, rng)
        field = lean_neof(None, grid, random_attrs(40, 3, rng), budget=0, seed=11)
        q_pos = rng.uniform(-2, 2, size=(7, 3))
        q_norm = rng.normal(size=(7, 3))
        q_norm /= np.linalg.norm(q_norm, axis=1, keepdims=True)
        got = query(field, q_pos, q_norm)
        want = np.stack([naive_query(field, p, n) for p, n in zip(q_pos, q_norm)])
        assert np.max(np.abs(got - want)) < 1e-9

    def test_single_voxel_returns_its_attributes(self):
        grid = make_grid([[0.3, -0.2, 1.0]])
        attrs = constant_attrs(1, 4, [2.5, 0.7, 0.4])
        field = lean_neof(None, grid, attrs, budget=0)
        out = query(field, [[5.0, 5.0, 5.0]], [[0.0, 0.0, 1.0]])
        assert np.allclose(out[0], [2.5, 0.7, 0.4], atol=1e-12)

    def test_identical_voxels_collapse_to_shared_value(self):
        centers = np.tile([1.0, 2.0, 3.0], (4, 1))
        attrs = constant_attrs(4, 2, [1.0, 0.3, 0.8])
        field = lean_neof(None, make_grid(centers), attrs, budget=0)
        out = query(field, [[0.0, 0.0, 0.0]], [[1.0, 0.0, 0.0]])
        assert np.allclose(out[0], [1.0, 0.3, 0.8], atol=1e-12)

    def test_values_clipped_to_attribute_range(self):
        # phi_co can exceed its nominal cap on adversarial inputs; the field
        # output may not.
        grid = make_grid([[0.0, 0.0, 0.0]])
        attrs = ObservationAttributes(c=np.array([1.0]), phi_cc=np.array([0.2]),
                                      phi_co=np.array([1.8]), K=2)
        field = lean_neof(None, grid, attrs, budget=0)
        out = query(field, [[1.0, 0.0, 0.0]], [[0.0, 0.0, 1.0]])
        assert out[0, 2] == pytest.approx(1.0, abs=1e-12)

    def test_query_requires_training_and_snapshot(self):
        # a field is built with its snapshot, so there is no field without one
        with pytest.raises(TypeError):
            ObservationField()
        with pytest.raises(TypeError):
            ObservationField(seed=0)
        empty = (VoxelGrid(1.0, np.zeros((0, 3)), np.zeros((0, 3)),
                           np.zeros((0, 3), dtype=np.int64), np.zeros(3)),
                 ObservationAttributes(np.zeros(0), np.zeros(0), np.zeros(0), 3))
        with pytest.raises(ValueError, match="empty grid"):
            ObservationField(*empty)
        field = lean_neof(None, make_grid([[0.0, 0.0, 0.0]]),
                          constant_attrs(1, 3, [1.0, 0.5, 0.5]), budget=0)
        with pytest.raises(ValueError, match="empty grid"):
            lean_neof(field, *empty, budget=0)

    def test_batch_validation(self):
        field = lean_neof(None, make_grid([[0.0, 0.0, 0.0]]),
                          constant_attrs(1, 3, [1.0, 0.5, 0.5]), budget=0)
        with pytest.raises(ValueError, match="positions must be"):
            query(field, [[0.0, 0.0]], [[0.0, 0.0]])
        with pytest.raises(ValueError, match="normals must match"):
            query(field, [[0.0, 0.0, 0.0]], [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        with pytest.raises(ValueError, match="empty query batch"):
            query(field, np.zeros((0, 3)), np.zeros((0, 3)))


class TestAttentionReuse:
    """visible_attr_sum's attention dict, which non_grad_phase keeps for a
    phase: a snapshot of the same grid leaves the attention as it was."""

    @pytest.mark.parametrize("count", [5, 16, 90])
    def test_reused_attention_sum_equals_a_fresh_query_sum_after_a_snapshot(
            self, monkeypatch, count):
        rng = np.random.default_rng(count)
        grid = scattered_grid(300, rng)
        field = lean_neof(None, grid, random_attrs(300, 3, rng), budget=5, seed=1)
        rows = np.sort(rng.choice(300, size=count, replace=False))
        attention = {}
        before = visible_attr_sum(field, rows, attention)
        assert len(attention) == 1
        field.snapshot(grid, random_attrs(300, 3, rng, margin=-0.3))
        computed = []
        real = field_module._attention
        monkeypatch.setattr(field_module, "_attention",
                            lambda *args: computed.append(1) or real(*args))
        reused = visible_attr_sum(field, rows, attention)
        assert computed == [] and len(attention) == 1
        take = rows[_strided(len(rows), field_module.LOSS_QUERY_CAP)]
        fresh = query(field, field.centers[take], field.normals[take]).sum(axis=0) \
            * (len(rows) / len(take))
        assert reused.tobytes() == fresh.tobytes()
        assert reused.tobytes() == visible_attr_sum(field, rows, {}).tobytes()
        assert not np.array_equal(reused, before)


class TestTraining:
    def test_training_shrinks_reconstruction_error(self):
        rng = np.random.default_rng(7)
        grid = scattered_grid(30, rng)
        attrs = random_attrs(30, 3, rng)
        batch = (grid.centers, grid.normals)
        raw = lean_neof(None, grid, attrs, budget=0, seed=7)
        mse0 = np.mean((query(raw, *batch) - attrs.stack()) ** 2)
        trained = lean_neof(None, grid, attrs, seed=7)  # default initial budget
        mse1 = np.mean((query(trained, *batch) - attrs.stack()) ** 2)
        assert mse1 < 0.25 * mse0

    def test_trained_field_reproduces_voxel_attributes_at_centers(self):
        rng = np.random.default_rng(3)
        grid = scattered_grid(30, rng)
        attrs = random_attrs(30, 3, rng)
        field = lean_neof(None, grid, attrs, seed=3)
        out = query(field, grid.centers, grid.normals)
        err = np.abs(out - attrs.stack()) / field.sup
        assert np.max(err) <= 0.1

    def test_constant_attributes_fit_immediately(self):
        rng = np.random.default_rng(0)
        grid = scattered_grid(50, rng)
        attrs = constant_attrs(50, 3, [1.5, 0.4, 0.6])
        field = lean_neof(None, grid, attrs, budget=1)
        out = query(field, grid.centers, grid.normals)
        assert np.max(np.abs(out - attrs.stack())) < 1e-9

    def test_finetune_keeps_adam_state_and_updates_weights(self):
        rng = np.random.default_rng(9)
        grid = scattered_grid(20, rng)
        attrs = random_attrs(20, 3, rng)
        field = lean_neof(None, grid, attrs, budget=30, seed=9)
        steps_before = field.adam.step_count
        w_before = field.W1.copy()
        lean_neof(field, grid, attrs)  # default fine-tune budget
        assert field.adam.step_count == steps_before + 20
        assert not np.allclose(field.W1, w_before)

    def test_finetune_with_zero_budget_only_refreshes_snapshot(self):
        rng = np.random.default_rng(2)
        grid = scattered_grid(15, rng)
        field = lean_neof(None, grid, random_attrs(15, 3, rng), budget=10, seed=2)
        new_attrs = random_attrs(15, 3, rng)
        theta_before = field.theta.copy()
        lean_neof(field, grid, new_attrs, budget=0)
        assert np.array_equal(field.theta, theta_before)
        assert np.allclose(field.values, new_attrs.stack())

    def test_training_is_deterministic(self):
        rng = np.random.default_rng(4)
        centers = rng.uniform(-1, 1, size=(18, 3))
        f1 = lean_neof(None, make_grid(centers), random_attrs(18, 3, np.random.default_rng(1)),
                       budget=25, seed=4)
        f2 = lean_neof(None, make_grid(centers), random_attrs(18, 3, np.random.default_rng(1)),
                       budget=25, seed=4)
        assert np.array_equal(f1.theta, f2.theta)


# ---------------------------------------------------------------------------
# float32 fit step against the float64 tape
# ---------------------------------------------------------------------------

def tape_fit_grads(field, idx):
    """The six weight gradients of one training step, taken on the float64
    tape: the attention forward with every weight on it, mean(diff * diff),
    then backward(). This is the fit loop lean_neof ran before the fused
    float32 step, kept as its reference."""
    W1, b1, W2, b2, WQ, WK = params = [ad.Tensor(p, requires_grad=True)
                                       for p in native.weight_views(field.theta)]
    kidx = key_rows(field)
    basis_in = np.concatenate([field.centers[kidx], field.normals[kidx]], axis=1)
    A = ad.add(ad.matmul(ad.Tensor(basis_in), W1), b1)
    B = ad.mul(ad.matmul(ad.Tensor(field.centers[idx]), W1[0:3]), ad.Tensor(-1.0))
    normals = field.normals[idx]
    q_in = np.concatenate([np.zeros_like(normals), normals], axis=1)
    enc_q = ad.add(ad.matmul(ad.relu(ad.add(ad.matmul(ad.Tensor(q_in), W1), b1)), W2), b2)
    qrow = ad.matmul(enc_q, WQ)
    folded = ad.mul(ad.matmul(W2, WK), ad.Tensor(1.0 / np.sqrt(D_K)))
    Z = ad.matmul(qrow, ad.transpose(folded))
    att = ad.softmax(ad.pairwise_scores(A, B, Z))
    out = ad.clamp(ad.matmul(att, ad.Tensor(field.values[kidx])), 0.0, field.sup)
    diff = ad.sub(out, ad.Tensor(field.values[idx]))
    ad.mean(ad.mul(diff, diff)).backward()
    return [p.grad for p in params]


def fit_batch(field, idx):
    return _FitBatch(field.centers[idx], field.normals[idx], field.values[idx])


def fused_fit_grads(field, idx):
    grad = _fit_workspace(field, len(idx))(*fit_batch(field, idx))
    return [g.copy() for g in native.weight_views(grad)]


def numpy_fit_grads(field, idx):
    """The oracle's gradients (tests/fit_step_reference.py) of the same step."""
    return numpy_fit.fit_gradients(field, fit_batch(field, idx))


def train_batches(field, budget):
    """The query rows lean_neof trains on at each step."""
    pool = _strided(len(field.centers), TRAIN_QUERY_POOL)
    for step in range(budget):
        if len(pool) > TRAIN_BATCH:
            start = (step * TRAIN_BATCH) % len(pool)
            yield pool[(start + np.arange(TRAIN_BATCH)) % len(pool)]
        else:
            yield pool


def tape_fit(grid, attrs, budget, seed=0):
    """A field trained like lean_neof but on tape_fit_grads: the float64
    reference fit."""
    field = lean_neof(None, grid, attrs, budget=0, seed=seed)
    for idx in train_batches(field, budget):
        grad = np.concatenate([g.ravel() for g in tape_fit_grads(field, idx)])
        ad.adam_step(field.theta, grad, field.adam)
    return field


def real_snapshot(kind):
    """Field snapshot of a 10-camera rig on the benchmark shapes: the
    2000-point circle at resolution 0.0075 and the 3000-point unit sphere."""
    if kind == "circle":
        scene = generate_planar_shape(ShapeSpec("circle", {"radius": 1.0}, 2000, seed=0))
        grid = voxelize(scene, 0.0075)
    else:
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(3000, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        scene = TargetScene(pts, pts.copy(), VOLUMETRIC3D,
                            np.stack([pts.min(axis=0), pts.max(axis=0)]))
        grid = voxelize(scene)
    _, attrs = shape_analyze(initialize(scene, 10, 1), grid, 3)
    return grid, attrs


def rel_diff(got, want):
    """Largest |got - want| relative to the largest |want|."""
    scale = np.max(np.abs(want))
    return float(np.max(np.abs(got - want)) / scale) if scale > 0 else float(np.max(np.abs(got)))


# The fit step runs its slab passes in float32 (unit roundoff 6e-8) and the
# per-row softmax and error chain and the weight gradients in float64.
# Measured against the tape: relative gradient differences of at most 7.6e-7
# on the two snapshots over their first 30 steps and 1.5e-6 over 200 random
# Hypothesis-style cases for the numpy oracle, and 1.3e-6 and 1.7e-6 for the
# compiled kernel, whose sums run over whole rows. Along a 200-step tape fit of each snapshot, one
# step in 200 had a relu or clamp decision flip at a float32 rounding
# boundary, which moved the b1 gradient by 1.9e-4 (circle) and 6.1e-4
# (sphere). The bound admits such flips; a wrong term in the step (a
# missing factor 2, a dropped mask) is off by O(1).
GRAD_REL_BOUND = 1e-3


def check_snapshot_bounds(kind, fit_grads=fused_fit_grads):
    grid, attrs = real_snapshot(kind)
    fresh = lean_neof(None, grid, attrs, budget=0, seed=0)
    assert len(fresh.key_basis) == 256 and len(fresh.centers) > TRAIN_QUERY_POOL
    first = next(train_batches(fresh, 1))
    trained = lean_neof(None, grid, attrs, budget=25, seed=0)
    assert trained.adam.step_count == 25
    for field in (fresh, trained):
        for got, want in zip(fit_grads(field, first), tape_fit_grads(field, first)):
            assert got.dtype == np.float64
            assert rel_diff(got, want) <= GRAD_REL_BOUND


def check_random_case(keys, queries, seed, margin, fit_grads=fused_fit_grads):
    # a negative margin puts attributes outside their range, so the
    # output clamp is active on some rows; 130 queries leave a partial
    # last block
    rng = np.random.default_rng(seed)
    grid = scattered_grid(keys, rng)
    field = lean_neof(None, grid, random_attrs(keys, 3, rng, margin=margin),
                      budget=0, seed=seed)
    assert len(field.key_basis) == keys
    idx = rng.integers(keys, size=queries)
    for got, want in zip(fit_grads(field, idx), tape_fit_grads(field, idx)):
        assert rel_diff(got, want) <= GRAD_REL_BOUND


def check_clamped_component(fit_grads=fused_fit_grads):
    # every c value lies above its range, so every output's c is clamped
    # and only phi_cc and phi_co carry error back to the weights
    rng = np.random.default_rng(8)
    grid = scattered_grid(60, rng)
    sup = sup_vector(3)
    vals = sup * rng.uniform(0.05, 0.95, size=(60, 3))
    vals[:, 0] = sup[0] * rng.uniform(1.2, 1.5, size=60)
    attrs = ObservationAttributes(c=vals[:, 0], phi_cc=vals[:, 1], phi_co=vals[:, 2], K=3)
    field = lean_neof(None, grid, attrs, budget=0, seed=8)
    idx = np.arange(60)
    for got, want in zip(fit_grads(field, idx), tape_fit_grads(field, idx)):
        assert np.max(np.abs(want)) > 0
        assert rel_diff(got, want) <= GRAD_REL_BOUND


class TestFloat32FitStep:
    """The fit step as it runs: the compiled kernel."""

    @pytest.mark.parametrize("kind", ["circle", "sphere"])
    def test_gradients_within_float32_bound_before_and_after_25_steps(self, kind):
        check_snapshot_bounds(kind)

    @settings(max_examples=40, deadline=None)
    @given(keys=st.integers(1, 256), queries=st.integers(1, 130),
           seed=st.integers(0, 10_000), margin=st.sampled_from([-0.3, 0.05]))
    def test_within_float32_bound_over_batch_and_key_counts(self, keys, queries, seed, margin):
        check_random_case(keys, queries, seed, margin)

    def test_clamped_component_passes_no_gradient(self):
        check_clamped_component()

    @pytest.mark.parametrize("kind", ["circle", "sphere"])
    def test_trained_field_matches_float64_tape_fit(self, kind):
        # After the initial budget the outputs of the float32 fit stay
        # within 1e-4 of the attribute range of the float64 fit's (measured:
        # 4.5e-8 circle, 3.6e-8 sphere), and its training MSE is no worse
        # beyond rounding (measured: +1.5e-9 circle, +2.3e-8 sphere,
        # relative).
        grid, attrs = real_snapshot(kind)
        fit32 = lean_neof(None, grid, attrs, seed=0)
        fit64 = tape_fit(grid, attrs, INITIAL_BUDGET)
        assert fit32.adam.step_count == fit64.adam.step_count == INITIAL_BUDGET
        pool = _strided(len(fit32.centers), TRAIN_QUERY_POOL)
        batch = (grid.centers[pool], grid.normals[pool])
        out32, out64 = query(fit32, *batch), query(fit64, *batch)
        assert np.max(np.abs(out32 - out64) / fit32.sup) <= 1e-4
        target = attrs.stack()[pool]
        mse32 = np.mean((out32 - target) ** 2)
        mse64 = np.mean((out64 - target) ** 2)
        assert mse32 <= mse64 * (1.0 + 1e-5)

    def test_weights_and_moments_stay_float64(self):
        grid, attrs = real_snapshot("circle")
        field = lean_neof(None, grid, attrs, budget=3, seed=0)
        for array in (field.theta, field.adam.m, field.adam.v):
            assert array.dtype == np.float64 and array.shape == field.theta.shape
        assert all(np.shares_memory(w, field.theta) for w in
                   (field.W1, field.b1, field.W2, field.b2, field.WQ, field.WK))
        assert query(field, grid.centers[:5], grid.normals[:5]).dtype \
            == np.float64

    def test_weights_do_not_depend_on_blas_thread_count(self, tmp_path):
        # a short fit in two fresh processes, one pinned to one BLAS thread
        # and one with the library's default, must give the same weights
        code = (
            "import sys, numpy as np\n"
            "from test_field import real_snapshot\n"
            "from camopt.field import lean_neof\n"
            "field = lean_neof(None, *real_snapshot('sphere'), budget=5, seed=0)\n"
            "np.savez(sys.argv[1], field.theta)\n")
        src = Path(__file__).resolve().parent.parent / "src"
        base = {k: v for k, v in os.environ.items()
                if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        base["PYTHONPATH"] = os.pathsep.join([str(src), str(Path(__file__).parent)])
        weights = []
        for name, extra in (("one", {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                                     "MKL_NUM_THREADS": "1"}), ("default", {})):
            out = tmp_path / f"{name}.npz"
            subprocess.run([sys.executable, "-c", code, str(out)], env={**base, **extra},
                           check=True, timeout=300)
            with np.load(out) as npz:
                weights.append([npz[key] for key in sorted(npz.files)])
        assert all(np.array_equal(a, b) for a, b in zip(*weights))


class TestNumpyFitStep:
    """The same bounds on the numpy oracle of the fit step
    (tests/fit_step_reference.py), which TestFitKernel compares the kernel
    with."""

    @pytest.mark.parametrize("kind", ["circle", "sphere"])
    def test_gradients_within_float32_bound_before_and_after_25_steps(self, kind):
        check_snapshot_bounds(kind, numpy_fit_grads)

    @settings(max_examples=20, deadline=None)
    @given(keys=st.integers(1, 256), queries=st.integers(1, 130),
           seed=st.integers(0, 10_000), margin=st.sampled_from([-0.3, 0.05]))
    def test_within_float32_bound_over_batch_and_key_counts(self, keys, queries, seed, margin):
        check_random_case(keys, queries, seed, margin, numpy_fit_grads)

    def test_clamped_component_passes_no_gradient(self):
        check_clamped_component(numpy_fit_grads)


# ---------------------------------------------------------------------------
# the compiled slab kernel
# ---------------------------------------------------------------------------

def numpy_flush(g):
    """The float64 logit gradients g as the numpy fit step hands them to
    its float32 contractions: below native.FLUSH set to +0.0, then rounded."""
    g = g.copy()
    np.putmask(g, np.abs(g) < native.FLUSH, 0.0)
    return g.astype(np.float32)


def reference_scores(A, B, Z):
    """The kernel's float32 scores over the full (queries, keys, channels)
    tensor, summed channel by channel."""
    relu = np.maximum(A[None, :, :] + B[:, None, :], np.float32(0.0))
    scores = np.zeros((len(B), len(A)), dtype=np.float32)
    for h in range(A.shape[1]):
        scores += relu[:, :, h] * Z[:, None, h]
    return scores


def reference_slab(A, B, Z, g):
    """Scores and (gA, gB, gZ) of the kernel over full (queries, keys,
    channels) float32 tensors for float32 logit gradients g, with numpy
    summing in the kernel's order: the scores channel by channel, gZ and gB
    over keys (axis 1) and gA over queries (axis 0), each a sequential
    reduction over a non-contiguous axis. All four are float32; the kernel
    writes them widened to float64."""
    slab = A[None, :, :] + B[:, None, :]
    relu = np.maximum(slab, np.float32(0.0))
    t = g[:, :, None] * np.where(slab > 0, Z[:, None, :], np.float32(0.0))
    return (reference_scores(A, B, Z), t.sum(axis=0), t.sum(axis=1),
            (g[:, :, None] * relu).sum(axis=1))


def slab_passes(kernel):
    """The CDLL of kernel (a native.Library) with its slab passes, fit_scores
    and fit_grads, bound: the library exports them, and the package runs
    them only inside the fit step."""
    lib, ptr, n = kernel.lib, ctypes.c_void_p, ctypes.c_long
    lib.fit_scores.argtypes = [ptr] * 4 + [n, n]
    lib.fit_scores.restype = None
    lib.fit_grads.argtypes = [ptr] * 8 + [n, n]
    lib.fit_grads.restype = None
    return lib


def fit_scores(kernel, A, B, Z, out):
    """The (q, keys) scores sum_h relu(A[m] + B[q])_h Z[q, h] of float32 A,
    B and Z, summed in float32 by the kernel's fit_scores and written
    widened into the float64 array out, which is returned."""
    q, m = len(B), len(A)
    f32, h = np.float32, native.HIDDEN
    At = np.ascontiguousarray(A.T)
    slab_passes(kernel).fit_scores(native._address(At, f32, (h, m)),
                                   native._address(B, f32, (q, h)),
                                   native._address(Z, f32, (q, h)),
                                   native._address(out, np.float64, (q, m)), q, m)
    return out


def fit_grads(kernel, A, B, Z, g, scratch):
    """(gA, gB, gZ), float64, of the kernel's fit_grads for the float64 logit
    gradients g (q, keys), which it flushes and rounds to float32; scratch
    is a float32 array of A's shape that gA sums in."""
    q, m = len(B), len(A)
    f32, h = np.float32, native.HIDDEN
    args = (native._address(A, f32, (m, h)), native._address(B, f32, (q, h)),
            native._address(Z, f32, (q, h)), native._address(g, np.float64, (q, m)),
            native._address(scratch, f32, (m, h)))
    gA, gB, gZ = np.empty((m, h)), np.empty((q, h)), np.empty((q, h))
    slab_passes(kernel).fit_grads(*args, gA.ctypes.data, gB.ctypes.data, gZ.ctypes.data, q, m)
    return gA, gB, gZ


def kernel_scores(kernel, A, B, Z):
    return fit_scores(kernel, A, B, Z, np.empty((len(B), len(A))))


def slab_operands(keys, queries, seed, margin):
    """Float32 A, B, Z of a random field at random queries, and the float64
    logit gradients g the row chain makes of the kernel's scores."""
    rng = np.random.default_rng(seed)
    grid = scattered_grid(keys, rng)
    field = lean_neof(None, grid, random_attrs(keys, 3, rng, margin=margin),
                      budget=0, seed=seed)
    idx = rng.integers(keys, size=queries)
    enc = _encode(field, field.normals[idx])
    A, Z = enc.A.astype(np.float32), enc.Z.astype(np.float32)
    B = (-(field.centers[idx] @ field.W1[0:3])).astype(np.float32)
    V, target = field.key_values, field.values[idx]
    scores = kernel_scores(native.load(), A, B, Z)
    g = numpy_fit.logit_grads(scores, V, target, V.T * (2.0 / target.size), field.sup)
    return A, B, Z, g


def kernel_slab(kernel, A, B, Z, g):
    """The kernel's scores and (gA, gB, gZ), all float64."""
    return (kernel_scores(kernel, A, B, Z),) + fit_grads(kernel, A, B, Z, g, np.empty_like(A))


def best_of_5(step):
    """The least wall time of five calls of step, in seconds."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        step()
        times.append(time.perf_counter() - t0)
    return min(times)


@pytest.fixture(scope="module")
def kernel_O0():
    return native.build(opt=("-O0",))


@pytest.fixture(scope="module")
def kernel_x86_64():
    """The kernels built for the x86-64 baseline, whose slab-gradient
    vectors have SSE2's 4 float lanes where the loaded build's have 16
    (AVX-512) or 8 (AVX); None on other architectures, where -march=x86-64
    names no target and the tests compare the -O0 build alone."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return None
    return native.build(opt=("-O2", "-march=x86-64"))


def other_builds(*kernels):
    """The builds of kernels that exist on this host."""
    return [kernel for kernel in kernels if kernel is not None]


class TestFitKernel:
    def test_loads_where_cc_is_on_path(self):
        assert isinstance(native.load(), native.Library)

    @settings(max_examples=40, deadline=None)
    @given(keys=st.integers(1, 256), queries=st.integers(1, 130),
           seed=st.integers(0, 10_000), margin=st.sampled_from([-0.3, 0.05]))
    def test_equals_full_tensor_reference_and_O0_build(self, kernel_O0, kernel_x86_64, keys,
                                                       queries, seed, margin):
        # a negative margin puts attributes outside their range, so the
        # clamp zeroes some of g
        A, B, Z, g = slab_operands(keys, queries, seed, margin)
        got = kernel_slab(native.load(), A, B, Z, g)
        reference = [x.astype(np.float64) for x in reference_slab(A, B, Z, numpy_flush(g))]
        for other in [reference] + [kernel_slab(build, A, B, Z, g)
                                    for build in other_builds(kernel_O0, kernel_x86_64)]:
            for x, y in zip(got, other):
                assert x.dtype == y.dtype == np.float64
                np.testing.assert_array_equal(x, y)

    def test_flushes_and_rounds_logit_gradients_like_the_numpy_step(self, kernel_O0,
                                                                   kernel_x86_64):
        # rows of nothing but values at and below the flush threshold, so
        # each sum is made of them alone: a 9.9e-31 or a 1e-40 the kernel
        # kept would leave a nonzero sum where the numpy rule leaves 0
        kernel = native.load()
        A, B, Z, _ = slab_operands(8, 3, 0, 0.05)
        special = np.array([1e-30, -1e-30, 9.9e-31, -9.9e-31, 1e-40, 1e-300, 0.0, -0.0])
        g = np.stack([np.roll(special, r) for r in range(3)])
        assert g.shape == (len(B), len(A))
        want = [x.astype(np.float64) for x in reference_slab(A, B, Z, numpy_flush(g))[1:]]
        # the +-1e-30 the rule keeps reach every sum
        assert all(np.any(x != 0.0) for x in want)
        for build in [kernel] + other_builds(kernel_O0, kernel_x86_64):
            for x, y in zip(fit_grads(build, A, B, Z, g, np.empty_like(A)), want):
                np.testing.assert_array_equal(x, y)

    def test_rejects_operands_of_mismatched_shape(self):
        kernel = native.load()
        A, B, Z, g = slab_operands(40, 9, 0, 0.05)
        scores, scratch = np.empty((9, 40)), np.empty_like(A)
        with pytest.raises(ValueError):
            fit_scores(kernel, A, B[:5], Z, scores)
        with pytest.raises(ValueError):
            fit_grads(kernel, A, B, Z, g[:, :-1], scratch)
        with pytest.raises(ValueError):
            fit_grads(kernel, A, B, Z, g, scratch[:-1])
        # the operands go in as raw pointers, so a wrong dtype or layout is
        # refused as well
        with pytest.raises(ValueError):
            fit_scores(kernel, A, B.astype(np.float64), Z, scores)
        with pytest.raises(ValueError):
            fit_scores(kernel, A, B, Z, np.empty((9, 40), dtype=np.float32))
        with pytest.raises(ValueError):
            fit_grads(kernel, A, np.asfortranarray(B), Z, g, scratch)
        with pytest.raises(ValueError):
            fit_grads(kernel, A, B, Z, g.astype(np.float32), scratch)

    def test_kernel_is_faster_than_the_numpy_step(self):
        # an unoptimized build is slower than the numpy oracle of the step
        # (gcc 12 on a 2-vCPU Xeon: a whole compiled step 0.42 ms at
        # native.OPT, 0.92 ms at plain -O3, in SSE2's 4 lanes, and 9.6 ms
        # at -O0, against 2.3 ms for the numpy step), so a library that
        # loads but runs unoptimized fails here instead of slowing every fit
        grid, attrs = real_snapshot("circle")
        field = lean_neof(None, grid, attrs, budget=0, seed=0)
        batch = fit_batch(field, next(train_batches(field, 1)))
        assert len(field.key_basis) == 256 and len(batch.target) == TRAIN_BATCH
        work = _fit_workspace(field, TRAIN_BATCH)
        kernel_s = best_of_5(lambda: work(*batch))
        numpy_s = best_of_5(lambda: numpy_fit.fit_gradients(field, batch))
        assert kernel_s < numpy_s, f"kernel {kernel_s * 1e3:.2f} ms, numpy {numpy_s * 1e3:.2f} ms"

    def test_kernel_and_numpy_steps_agree(self):
        # the kernel and its numpy oracle sum in different orders and agree
        # to float32 rounding
        grid, attrs = real_snapshot("circle")
        field = lean_neof(None, grid, attrs, budget=0, seed=0)
        idx = next(train_batches(field, 1))
        for got, want in zip(fused_fit_grads(field, idx), numpy_fit_grads(field, idx)):
            assert rel_diff(got, want) <= 1e-5

    def test_import_starts_no_process_and_a_fit_leaves_nothing_behind(self, tmp_path):
        # the import opens no C source and starts no process; the first
        # traversal builds the library, in one compiler process, and the
        # fit after it builds nothing more
        code = (
            "import os, subprocess, sys, tempfile\n"
            "opened = []\n"
            "sys.addaudithook(lambda event, args: opened.append(str(args[0]))\n"
            "                 if event == 'open' else None)\n"
            "started = []\n"
            "real_popen = subprocess.Popen\n"
            "class Counting(real_popen):\n"
            "    def __init__(self, *args, **kwargs):\n"
            "        started.append(args[0])\n"
            "        super().__init__(*args, **kwargs)\n"
            "subprocess.Popen = Counting\n"
            "names = [n for n in ('fork', 'system', 'posix_spawn', 'posix_spawnp')\n"
            "         if hasattr(os, n)]\n"
            "real = {n: getattr(os, n) for n in names}\n"
            "for n in names:\n"
            "    setattr(os, n, lambda *a, _n=n, **k: sys.exit('os.%s at import' % _n))\n"
            "import camopt, camopt.cli, camopt.field as field, camopt.native as native\n"
            "for n in names:\n"
            "    setattr(os, n, real[n])\n"
            "assert started == [], started\n"
            "assert not [p for p in opened if p.endswith('native.c')], opened\n"
            "assert not native._tried and native._library is None\n"
            "tempfile.tempdir = sys.argv[1]\n"
            "from test_field import real_snapshot\n"
            "grid, attrs = real_snapshot('circle')\n"
            "assert native._tried and len(started) == 1, started\n"
            "eye = grid.centers.mean(axis=0) + (1.6, 0.0, 0.0)\n"
            "camopt.visible_set(camopt.pose_from_forward(eye, (-1.0, 0.0, 0.0)),\n"
            "                   camopt.default_intrinsics(), grid)\n"
            "field.lean_neof(None, grid, attrs, budget=2, seed=0)\n"
            "assert len(started) == 1, started\n"
            "assert native._library is not None\n"
            "assert os.listdir(sys.argv[1]) == [], os.listdir(sys.argv[1])\n"
            "try:\n"
            "    os.waitpid(-1, os.WNOHANG)\n"
            "    sys.exit('a child process is left')\n"
            "except ChildProcessError:\n"
            "    pass\n")
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join([str(src), str(Path(__file__).parent)])}
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        proc = subprocess.run([sys.executable, "-c", code, str(scratch)], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# the compiled fit step: one FitStep call runs fit_forward, numpy's exp, fit_backward
# ---------------------------------------------------------------------------

def ordered_matmul(x, y):
    """x @ y in float64, each element summed over the inner index in order
    from 0.0: the fit step kernels' products."""
    out = np.zeros((x.shape[0], y.shape[1]))
    for k in range(x.shape[1]):
        out += x[:, k, None] * y[k]
    return out


def column_sums(x):
    """The sums of x's columns over its rows in order, from 0.0."""
    return ordered_matmul(np.ones((1, len(x))), x)[0]


def reference_fit_step(weights, basis, V, dV, sup, batch):
    """The compiled fit step in numpy: (g, grads, clamped), the logit
    gradients the step leaves in s and the six weight gradients it returns,
    every float64 sum in the kernels' order (ordered_matmul; a row's sums
    over its keys in key order) and the float32 slab passes as
    reference_slab sums them; and the mask of the outputs the clamp
    holds."""
    W1, b1, W2, b2, WQ, WK = weights
    pos, nrm, target = batch
    f32 = np.float32
    inv_sqrt_dk = 1.0 / np.sqrt(D_K)
    # forward: the encode, the float32 scores, each row less its maximum
    A = (ordered_matmul(basis, W1) + b1).astype(f32)
    B = (ordered_matmul(pos, W1[0:3]) * -1.0).astype(f32)
    pre = ordered_matmul(nrm, W1[3:6]) + b1
    h = np.where(pre > 0.0, pre, 0.0)
    enc = ordered_matmul(h, W2) + b2
    qrow = ordered_matmul(enc, WQ)
    fold = ordered_matmul(W2, WK) * inv_sqrt_dk
    Z = ordered_matmul(qrow, fold.T).astype(f32)
    s = reference_scores(A, B, Z).astype(np.float64)
    s -= s.max(axis=1, keepdims=True)
    # backward: the row chain
    e = np.exp(s)
    total = np.zeros(len(e))
    for m in range(e.shape[1]):
        total += e[:, m]
    att = e / total[:, None]
    raw = ordered_matmul(att, V)
    up = np.where(raw > 0.0, raw, 0.0)
    out = np.where(up < sup, up, sup)
    ge = ordered_matmul((out - target) * (out == raw), dV)
    dot = np.zeros(len(e))
    for m in range(e.shape[1]):
        dot += ge[:, m] * att[:, m]
    g = (ge - dot[:, None]) * att
    clamped = out != raw
    # the slab passes and the weight chain
    gA, gB, gZ = (x.astype(np.float64) for x in reference_slab(A, B, Z, numpy_flush(g))[1:])
    g_qrow = ordered_matmul(gZ, fold)
    g_fold = ordered_matmul(gZ.T, qrow) * inv_sqrt_dk
    g_enc = ordered_matmul(g_qrow, WQ.T)
    g_pre = ordered_matmul(g_enc, W2.T) * (h > 0.0)
    g_W1 = ordered_matmul(basis.T, gA)
    g_W1[0:3] -= ordered_matmul(pos.T, gB)
    g_W1[3:6] += ordered_matmul(nrm.T, g_pre)
    grads = (g_W1, column_sums(gA) + column_sums(g_pre),
             ordered_matmul(h.T, g_enc) + ordered_matmul(g_fold, WK.T), column_sums(g_enc),
             ordered_matmul(enc.T, g_qrow), ordered_matmul(W2.T, g_fold))
    return g, grads, clamped


def fit_step_case(kind, queries=TRAIN_BATCH, seed=0, margin=0.05, sharpen=1.0):
    """A field and a batch of training rows: a benchmark snapshot (kind
    "circle" or "sphere", its first training batch) or a random field of
    kind keys at `queries` random rows. sharpen scales WQ, and with it every
    logit, so rows attend to few keys and leave logit gradients to flush."""
    if kind in ("circle", "sphere"):
        field = lean_neof(None, *real_snapshot(kind), budget=0, seed=0)
        idx = next(train_batches(field, 1))
    else:
        rng = np.random.default_rng(seed)
        field = lean_neof(None, scattered_grid(kind, rng),
                          random_attrs(kind, 3, rng, margin=margin), budget=0, seed=seed)
        idx = rng.integers(kind, size=queries)
    field.WQ *= sharpen
    return field, fit_batch(field, idx)


def compiled_fit_step(kernel, field, batch, dV=None):
    """(g, grads) of one call of the kernel's FitStep: the logit gradients
    it leaves in s and the weight gradients it returns. dV defaults to the
    one lean_neof gives a step of the batch's rows."""
    rows = len(batch.target)
    if dV is None:
        dV = np.ascontiguousarray(field.key_values.T * (2.0 / (rows * 3)))
    step = kernel.fit_step(field.theta, field.key_basis, field.key_values, dV, field.sup, rows)
    grads = [g.copy() for g in native.weight_views(step(*batch))]
    return step.s.copy(), grads


def check_fit_step(builds, field, batch):
    """The loaded kernel's fit step equals the numpy reference's and those of
    the other builds (other_builds) bit for bit, and is the step lean_neof
    takes. Returns the reference's logit gradients and clamp mask."""
    rows = len(batch.target)
    want_g, want, clamped = reference_fit_step(
        native.weight_views(field.theta), field.key_basis, field.key_values,
        field.key_values.T * (2.0 / (rows * 3)), field.sup, batch)
    for build in [native.load()] + builds:
        g, grads = compiled_fit_step(build, field, batch)
        np.testing.assert_array_equal(g, want_g)
        for got, expected in zip(grads, want, strict=True):
            np.testing.assert_array_equal(got, expected)
    step = _fit_workspace(field, rows)
    assert isinstance(step, native.FitStep)
    grad = step(*batch)
    assert grad.shape == field.theta.shape
    for got, expected in zip(native.weight_views(grad), want, strict=True):
        np.testing.assert_array_equal(got, expected)
    return want_g, clamped


class TestFitStepKernel:
    @pytest.mark.parametrize("kind", ["circle", "sphere"])
    def test_equals_reference_and_O0_build_on_the_snapshots(self, kernel_O0, kernel_x86_64,
                                                            kind):
        check_fit_step(other_builds(kernel_O0, kernel_x86_64), *fit_step_case(kind))

    def test_equals_reference_and_O0_build_with_clamped_rows_flushed_gradients_and_a_partial_block(
            self, kernel_O0, kernel_x86_64):
        # 13 rows: a block of 8 and a partial one of 5, and an odd last row
        # for the slab-gradient pass, which walks the keys in pairs of rows
        field, batch = fit_step_case(200, queries=13, seed=0, margin=-0.3, sharpen=300.0)
        g, clamped = check_fit_step(other_builds(kernel_O0, kernel_x86_64), field, batch)
        assert np.any(clamped[:8]) and np.any(clamped[8:])
        flushed = (np.abs(g) < native.FLUSH) & (g != 0.0)
        assert np.any(flushed[:8]) and np.any(flushed[8:])

    @settings(max_examples=15, deadline=None)
    @given(keys=st.integers(1, 256), queries=st.integers(1, 130),
           seed=st.integers(0, 10_000), margin=st.sampled_from([-0.3, 0.05]),
           sharpen=st.sampled_from([1.0, 300.0]))
    def test_equals_reference_and_O0_build_over_batch_and_key_counts(
            self, kernel_O0, kernel_x86_64, keys, queries, seed, margin, sharpen):
        check_fit_step(other_builds(kernel_O0, kernel_x86_64),
                       *fit_step_case(keys, queries, seed, margin, sharpen))

    def test_step_rows_do_not_depend_on_the_other_rows(self):
        # with one dV for both steps, a row's scores and logit gradients are
        # its own row's alone, whichever block of rows it falls in
        kernel = native.load()
        field, batch = fit_step_case(256, queries=40, seed=2)
        dV = np.ascontiguousarray(field.key_values.T * (2.0 / (40 * 3)))
        first = _FitBatch(*(x[:11].copy() for x in batch))
        np.testing.assert_array_equal(compiled_fit_step(kernel, field, first, dV)[0],
                                      compiled_fit_step(kernel, field, batch, dV)[0][:11])

    def test_rejects_operands_of_wrong_dtype_shape_or_order(self):
        kernel = native.load()
        field, batch = fit_step_case(40, queries=9, seed=0)
        V = field.key_values
        dV = np.ascontiguousarray(V.T * (2.0 / 27))
        theta = field.theta
        good = {"theta": theta, "basis": field.key_basis, "V": V, "dV": dV, "sup": field.sup,
                "rows": 9}
        for bad in ({"theta": theta.astype(np.float32)}, {"theta": theta[:-1]},
                    {"theta": np.append(theta, 0.0)}, {"theta": np.repeat(theta, 2)[::2]},
                    {"theta": theta[None]}, {"theta": list(theta)},
                    {"basis": field.key_basis[:, :3]}, {"V": V[:-1]},
                    {"dV": V.T * (2.0 / 27)}, {"dV": dV.astype(np.float32)},
                    {"sup": field.sup[:2]}):
            with pytest.raises(ValueError):
                kernel.fit_step(**{**good, **bad})
        step = kernel.fit_step(**good)
        pos, nrm, target = batch
        for bad_pos, bad_nrm in ((pos[:5], nrm), (pos, nrm.astype(np.float32)),
                                 (np.asfortranarray(pos), nrm), (pos, nrm.T.copy().T)):
            with pytest.raises(ValueError):
                step(bad_pos, bad_nrm, target)
        for bad_target in (target[:, :2].copy(), target.astype(np.float32),
                           np.asfortranarray(target)):
            with pytest.raises(ValueError):
                step(pos, nrm, bad_target)


class TestNativeSource:
    def test_compiles_without_warnings(self, tmp_path):
        # build() shows the compiler's output only when the build fails, so
        # a warning in the kernels would go unseen there
        src = Path(native.__file__).with_name("native.c")
        proc = subprocess.run(["cc", *native.OPT, *native.FLAGS, "-Wall", "-Wextra", "-Werror",
                               "-o", str(tmp_path / "native.so"), str(src), "-lm"],
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# the compiled float64 attention scores of queries and pose gradients
# ---------------------------------------------------------------------------

def sequential_scores(A, B, Z):
    """scores[q, m] = sum_h relu(A[m, h] + B[q, h]) * Z[q, h] in float64,
    summed over the channels one at a time, the order of
    native.attend_scores."""
    s = np.zeros((len(B), len(A)))
    for h in range(A.shape[1]):
        s += np.maximum(A[None, :, h] + B[:, None, h], 0.0) * Z[:, None, h]
    return s


def sequential_b_grad(A, B, Z, g):
    """The gradient of sum(g * scores) with respect to B in float64, its
    relu-mask sums taken over the keys one at a time, the order of
    native.attend_b_grad."""
    acc = np.zeros_like(B)
    for m in range(len(A)):
        acc += g[:, m, None] * (A[m] + B > 0.0)
    return acc * Z


def attend_operands(queries, keys, seed):
    """Random float64 A (keys, 32), B and Z (queries, 32) and g (queries,
    keys), with pre-activations A[m, h] + B[q, h] that are exactly +0.0
    (x + -x) and -0.0 (-0.0 + -0.0)."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(keys, field_module.HIDDEN))
    B = rng.normal(size=(queries, field_module.HIDDEN))
    Z = rng.normal(size=(queries, field_module.HIDDEN))
    g = rng.normal(size=(queries, keys))
    A[0, :8] = -B[0, :8]
    A[-1, 8:16] = -0.0
    B[-1, 8:16] = -0.0
    pre = A[None, :, :] + B[:, None, :]
    assert np.any(pre == 0.0) and np.any(np.signbit(pre[pre == 0.0]))
    return A, B, Z, g


class TestAttendKernel:
    @pytest.mark.parametrize("keys", [1, 63, 64, 65, 256])
    @pytest.mark.parametrize("queries", [1, 8, 16, 160, 161])
    def test_equals_sequential_reference_and_O0_build(self, kernel_O0, queries, keys):
        # 63, 64 and 65 keys sit at the edges of the kernel's 64-key tile
        A, B, Z, g = attend_operands(queries, keys, 1000 * queries + keys)
        scores, b_grad = sequential_scores(A, B, Z), sequential_b_grad(A, B, Z, g)
        for build in (native.load(), kernel_O0):
            np.testing.assert_array_equal(build.attend_scores(A, B, Z), scores)
            np.testing.assert_array_equal(build.attend_b_grad(A, B, Z, g), b_grad)

    def test_rows_do_not_depend_on_the_other_queries(self):
        kernel = native.load()
        A, B, Z, g = attend_operands(160, 256, 3)
        np.testing.assert_array_equal(kernel.attend_scores(A, B[:5], Z[:5]),
                                      kernel.attend_scores(A, B, Z)[:5])
        np.testing.assert_array_equal(kernel.attend_b_grad(A, B[:5], Z[:5], g[:5]),
                                      kernel.attend_b_grad(A, B, Z, g)[:5])

    @pytest.mark.parametrize("queries,keys", [(1, 1), (16, 256), (161, 65)])
    def test_agrees_with_the_numpy_helpers(self, queries, keys):
        # the two sum the same terms in different orders
        kernel = native.load()
        A, B, Z, g = attend_operands(queries, keys, 7)
        for got, want in ((kernel.attend_scores(A, B, Z), ad.scores_forward(A, B, Z)),
                          (kernel.attend_b_grad(A, B, Z, g), ad.scores_b_grad(A, B, Z, g))):
            scale = np.max(np.abs(want), axis=1, keepdims=True)
            assert np.all(np.abs(got - want) <= 1e-12 * scale)

    def test_rejects_float32_fortran_and_misshaped_operands(self):
        kernel = native.load()
        A, B, Z, g = attend_operands(9, 40, 0)
        for bad in ({"A": A.astype(np.float32)}, {"B": B.astype(np.float32)},
                    {"Z": np.asfortranarray(Z)}, {"A": np.asfortranarray(A)},
                    {"B": B[:5]}, {"Z": Z[:, :-1]}):
            args = {"A": A, "B": B, "Z": Z, **bad}
            with pytest.raises(ValueError):
                kernel.attend_scores(**args)
            with pytest.raises(ValueError):
                kernel.attend_b_grad(**args, g=g)
        for bad_g in (g.astype(np.float32), np.asfortranarray(g), g[:, :-1]):
            with pytest.raises(ValueError):
                kernel.attend_b_grad(A, B, Z, bad_g)

    def test_queries_and_pose_gradients_run_the_kernels_where_the_library_loads(
            self, monkeypatch):
        # TestCompiledPoseLossEqualsTape cannot tell the kernels from the
        # numpy helpers: it swaps the helpers for references with the
        # kernels' bits
        field, rig, E = two_camera_setup(seed=12)
        batch = (field.centers[:4], field.normals[:4])
        calls = []

        def refuse(*args):
            raise AssertionError("numpy score helper called")

        def counting(name):
            real = getattr(native.Library, name)

            def kernel(self, *args):
                calls.append(name)
                return real(self, *args)
            return kernel

        monkeypatch.setattr(ad, "scores_forward", refuse)
        monkeypatch.setattr(ad, "scores_b_grad", refuse)
        for name in ("attend_scores", "attend_b_grad"):
            monkeypatch.setattr(native.Library, name, counting(name))
        query(field, *batch)
        assert calls == ["attend_scores"]
        pose_grads(field, rig, E)
        assert calls == ["attend_scores", "attend_scores", "attend_b_grad"]

    @pytest.mark.parametrize("queries", [16, 160])
    def test_kernels_are_faster_than_the_numpy_helpers(self, queries):
        # 16 queries is one resampling candidate's query, 160 a gradient
        # phase's ten cameras
        kernel = native.load()
        A, B, Z, g = attend_operands(queries, 256, queries)
        for compiled, numpy_helper in (
                (lambda: kernel.attend_scores(A, B, Z), lambda: ad.scores_forward(A, B, Z)),
                (lambda: kernel.attend_b_grad(A, B, Z, g), lambda: ad.scores_b_grad(A, B, Z, g))):
            kernel_s, numpy_s = best_of_5(compiled), best_of_5(numpy_helper)
            assert kernel_s < numpy_s, \
                f"kernel {kernel_s * 1e3:.3f} ms, numpy {numpy_s * 1e3:.3f} ms"


def largest_rise_per_fit_step(run):
    """Call run() under tracemalloc with a tracer on camopt's Python lines
    and return, for each fit step (a native.FitStep call) in turn, the
    largest rise of traced memory over the memory held when a line started,
    with that line. A block allocated while a line runs raises it by at
    least its size. The
    tracer itself makes no string: a new interned one can resize Python's
    table of them, which tracemalloc counts as a fresh block of its size."""
    camopt_dir = str(Path(field_module.__file__).parent)
    steps = []
    window = {"start": 0, "line": None}

    def next_line(frame):
        current, peak = tracemalloc.get_traced_memory()
        if steps and peak - window["start"] > steps[-1][0]:
            steps[-1] = (peak - window["start"], window["line"])
        tracemalloc.reset_peak()
        window["start"] = current
        window["line"] = (frame.f_code.co_filename, frame.f_lineno)

    def local(frame, event, arg):
        next_line(frame)
        return local

    def on_call(frame, event, arg):
        if frame.f_code is native.FitStep.__call__.__code__:
            steps.append((0, None))
        if frame.f_code.co_filename.startswith(camopt_dir):
            next_line(frame)
            return local
        return None

    previous = sys.gettrace()
    tracemalloc.start()
    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(previous)
        tracemalloc.stop()
    return steps


class TestFitAllocations:
    def test_steps_after_the_first_allocate_no_block_of_the_row_chains_size(self):
        # every (batch, keys) float64 array of the row chain lives in the
        # workspace lean_neof allocates before its first step; numpy makes a
        # temporary of 256 KB or more costly (it walks the C stack to decide
        # whether it may reuse it), and a fit step made 256 KB temporaries
        # in the score widening, err @ dV and g * att
        grid, attrs = real_snapshot("circle")
        block = TRAIN_BATCH * len(lean_neof(None, grid, attrs, budget=0).key_basis) * 8
        assert block == 256 * 1024
        steps = largest_rise_per_fit_step(lambda: lean_neof(None, grid, attrs, budget=20))
        assert len(steps) == 20
        for step, (rise, line) in enumerate(steps[1:], start=2):
            assert rise < block, f"step {step}: {rise} bytes at {line[0]}:{line[1]}"


# ---------------------------------------------------------------------------
# placement loss
# ---------------------------------------------------------------------------

def two_camera_setup(seed=0, m=20, K=3):
    rng = np.random.default_rng(seed)
    grid = scattered_grid(m, rng, scale=1.0)
    attrs = random_attrs(m, K, rng)
    field = lean_neof(None, grid, attrs, budget=5, seed=seed)
    poses = [
        pose_from_forward(np.array([0.0, 0.0, 4.0]), np.array([0.05, -0.02, -1.0])),
        pose_from_forward(np.array([3.5, 0.5, 0.3]), np.array([-1.0, -0.1, 0.02])),
    ]
    rig = CameraRig(tuple(poses), default_intrinsics())
    return field, rig, coverage_of(field, range(0, m, 2), range(1, m, 2))


def coverage_of(field, *rows):
    """Coverage matrix over the field's voxels whose row i marks rows[i]."""
    entries = np.zeros((len(rows), len(field.centers)), dtype=np.int8)
    for i, vis in enumerate(rows):
        entries[i, list(vis)] = 1
    return CoverageMatrix(entries)


def pose_arrays(rig):
    return (np.stack([p.position for p in rig.poses]),
            np.stack([p.rot6 for p in rig.poses]))


def pose_grads(field, rig, E):
    """(k, 3) position and (k, 6) rot6 gradients of the placement loss, taken
    as grad_phase takes them."""
    _, position_grads, rot6_grads = placement_loss_grads(
        field, *pose_arrays(rig), capture_visible(field, rig, E))
    return position_grads, rot6_grads


class TestPlacementLoss:
    def test_pose_gradients_match_finite_differences(self):
        field, rig, E = two_camera_setup(seed=12)
        position_grads, rot6_grads = pose_grads(field, rig, E)
        caps = capture_visible(field, rig, E)

        def eval_at(flat):
            poses = flat.reshape(len(rig.poses), 9)
            return placement_loss_grads(field, poses[:, :3], poses[:, 3:], caps)[0].total

        flat0 = np.concatenate([np.concatenate([p.position, p.rot6]) for p in rig.poses])
        h = 1e-5
        num = np.zeros_like(flat0)
        for i in range(len(flat0)):
            up, dn = flat0.copy(), flat0.copy()
            up[i] += h
            dn[i] -= h
            num[i] = (eval_at(up) - eval_at(dn)) / (2 * h)
        ana = np.concatenate([np.concatenate([g, r]) for g, r in
                              zip(position_grads, rot6_grads)])
        rel = np.abs(ana - num) / np.maximum(1.0, np.maximum(np.abs(ana), np.abs(num)))
        assert np.max(rel) < 1e-3

    def test_full_capture_of_max_need_gives_zero_loss(self):
        rng = np.random.default_rng(1)
        grid = scattered_grid(20, rng, scale=1.0)
        sup = sup_vector(3)
        attrs = constant_attrs(20, 3, sup)
        field = lean_neof(None, grid, attrs, budget=0)
        poses = [pose_from_forward(np.array([0.0, 0.0, 3.0]), np.array([0.0, 0.0, -1.0])),
                 pose_from_forward(np.array([3.0, 0.0, 0.0]), np.array([-1.0, 0.0, 0.0]))]
        res = placement_loss(field, CameraRig(tuple(poses), default_intrinsics()),
                             coverage_of(field, range(20), range(20)))
        assert abs(res.total) < 1e-12
        assert np.max(np.abs(res.components)) < 1e-12

    def test_empty_rig_sits_at_componentwise_maximum(self):
        field, rig, _ = two_camera_setup(seed=3)
        blind = coverage_of(field, [], [])
        res = placement_loss(field, rig, blind)
        assert np.allclose(res.components, field.sup)
        assert res.total == pytest.approx(float(np.dot(DEFAULT := (0.4, 0.3, 0.3), field.sup)))
        assert [cap.empty for cap in capture_visible(field, rig, blind)] == [True, True]
        position_grads, rot6_grads = pose_grads(field, rig, blind)
        assert np.all(position_grads == 0) and np.all(rot6_grads == 0)

    def test_empty_camera_flagged_and_gradient_free(self):
        field, rig, E = two_camera_setup(seed=6)
        one = replace_row(E, 1, [])
        assert [cap.empty for cap in capture_visible(field, rig, one)] == [False, True]
        position_grads, rot6_grads = pose_grads(field, rig, one)
        assert np.any(position_grads[0] != 0)
        assert np.all(position_grads[1] == 0)
        assert np.all(rot6_grads[1] == 0)

    def test_losing_a_camera_never_reduces_the_loss(self):
        field, rig, E = two_camera_setup(seed=8)
        both = placement_loss(field, rig, E).total
        one = placement_loss(field, rig, replace_row(E, 1, [])).total
        assert one >= both - 1e-12

    def test_component_weights_select_components(self):
        field, rig, E = two_camera_setup(seed=4)
        res = placement_loss(field, rig, E, weights=(1.0, 0.0, 0.0))
        assert res.total == pytest.approx(res.components[0], rel=1e-12)
        full = placement_loss(field, rig, E)
        assert full.total == pytest.approx(float(np.dot((0.4, 0.3, 0.3), full.components)))

    def test_sampling_cap_scales_to_full_set_on_constant_attributes(self, monkeypatch):
        # With identical attribute rows the strided query subsample is exact,
        # so capping at 16 queries must reproduce the uncapped loss.
        rng = np.random.default_rng(10)
        grid = scattered_grid(60, rng, scale=1.0)
        attrs = constant_attrs(60, 3, [1.0, 0.5, 0.3])
        field = lean_neof(None, grid, attrs, budget=0)
        pose = pose_from_forward(np.array([0.0, 0.0, 4.0]), np.array([0.0, 0.0, -1.0]))
        rig = CameraRig((pose,), default_intrinsics())
        monkeypatch.setattr(field_module, "LOSS_QUERY_CAP", 16)
        capped = placement_loss(field, rig, coverage_of(field, range(60)))
        monkeypatch.setattr(field_module, "LOSS_QUERY_CAP", 60)
        uncapped = placement_loss(field, rig, coverage_of(field, range(60)))
        assert capped.total == pytest.approx(uncapped.total, abs=1e-12)


# ---------------------------------------------------------------------------
# the numpy placement loss against the tape graph it replaced
# ---------------------------------------------------------------------------

def assert_equals_tape(field, positions, rot6, caps, weights=(0.4, 0.3, 0.3)):
    """Loss, components and pose gradients of placement_loss_grads equal the
    tape graph's (tests/pose_loss_reference.py) bit for bit."""
    loss, position_grads, rot6_grads = placement_loss_grads(field, positions, rot6, caps,
                                                            weights=weights)
    want = ref.tape_loss_and_grads(field, positions, rot6, caps, weights=weights)
    assert loss.total == want[0]
    for got, expect in zip((loss.components, position_grads, rot6_grads), want[1:]):
        np.testing.assert_array_equal(got, expect)
    return loss, position_grads, rot6_grads


def perturbed(rig, rng, scale=0.01):
    positions, rot6 = pose_arrays(rig)
    return (positions + rng.normal(scale=scale, size=positions.shape),
            rot6 + rng.normal(scale=scale, size=rot6.shape))


def rig_setup(scene, k, seed, resolution=None):
    """A field fitted to a random rig's attributes, the rig and its
    coverage matrix."""
    grid = voxelize(scene, resolution)
    rig = initialize(scene, k, seed)
    E, attrs = shape_analyze(rig, grid, 3)
    return lean_neof(None, grid, attrs, budget=20, seed=seed), rig, E


class TestPoseLossEqualsTape:
    """The placement loss's closed form with the tape's own score helpers,
    autodiff.scores_forward and scores_b_grad, in place of the compiled
    attention kernels."""

    @pytest.fixture(autouse=True)
    def score_path(self, monkeypatch):
        monkeypatch.setattr(field_module, "_scores", ad.scores_forward)
        monkeypatch.setattr(field_module, "_scores_b_grad", ad.scores_b_grad)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_rigs(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(800, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        scene = TargetScene(pts, pts.copy(), VOLUMETRIC3D,
                            np.stack([pts.min(axis=0), pts.max(axis=0)]))
        field, rig, E = rig_setup(scene, 8, seed)
        caps = capture_visible(field, rig, E)
        assert sum(not cap.empty for cap in caps) >= 2
        loss, position_grads, _ = assert_equals_tape(field, *perturbed(rig, rng), caps,
                                                     weights=(0.5, 0.2, 0.3))
        assert np.any(position_grads != 0)
        assert placement_loss(field, rig, E).total == \
            ref.tape_loss_and_grads(field, *pose_arrays(rig), caps)[0]

    def test_rig_with_one_empty_camera(self):
        field, rig, E = two_camera_setup(seed=6)
        caps = capture_visible(field, rig, replace_row(E, 1, []))
        _, position_grads, rot6_grads = assert_equals_tape(
            field, *perturbed(rig, np.random.default_rng(6)), caps)
        assert np.any(position_grads[0] != 0) and np.any(rot6_grads[0] != 0)
        assert np.all(position_grads[1] == 0) and np.all(rot6_grads[1] == 0)

    def test_all_empty_rig(self):
        field, rig, _ = two_camera_setup(seed=3)
        caps = capture_visible(field, rig, coverage_of(field, [], []))
        loss, position_grads, rot6_grads = assert_equals_tape(field, *pose_arrays(rig), caps)
        assert loss.total == float(np.dot((0.4, 0.3, 0.3), field.sup))
        assert np.all(position_grads == 0) and np.all(rot6_grads == 0)

    def test_planar_rig(self):
        scene = generate_planar_shape(ShapeSpec("circle", {"radius": 1.0}, 600, seed=1))
        field, rig, E = rig_setup(scene, 6, 1, resolution=0.02)
        caps = capture_visible(field, rig, E)
        assert sum(not cap.empty for cap in caps) >= 2
        rng = np.random.default_rng(1)
        positions, rot6 = pose_arrays(rig)
        positions[:, :2] += rng.normal(scale=0.01, size=(len(positions), 2))
        rot6[:, :2] += rng.normal(scale=0.01, size=(len(rot6), 2))
        assert_equals_tape(field, positions, rot6, caps)



class TestCompiledPoseLossEqualsTape(TestPoseLossEqualsTape):
    """With the compiled attention kernels, against the tape whose two score
    helpers sum in the kernels' order (sequential_scores and
    sequential_b_grad), so the two still agree bit for bit."""

    @pytest.fixture(autouse=True)
    def score_path(self, monkeypatch):
        monkeypatch.setattr(ad, "scores_forward", sequential_scores)
        monkeypatch.setattr(ad, "scores_b_grad", sequential_b_grad)
