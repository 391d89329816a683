"""Autodiff engine: forward values against independent numpy oracles,
gradients against central finite differences."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multidiac import inference, training
from multidiac import numerics as nm
from multidiac.data import desk_synth_spec, synthesize_sample
from multidiac.errors import ConfigError, NumericError, ShapeError
from multidiac.model import DiacritizerModel, desk_config
from multidiac.numerics import RngStream, Tensor, _splitmix64
from multidiac.textproc import Vocabulary, label_from_diacritized
from oracles import (
    attention_reference, conv1d_reference, dropout_masks_reference, gelu_reference,
    grad_check, keys_of, layer_norm_reference, softmax_reference,
)


def t64(data, requires_grad=True):
    return nm.tensor(np.asarray(data, dtype=np.float64), dtype=np.float64,
                     requires_grad=requires_grad)


def square_sum(t):
    """(t * t).sum(): the scalar the gradient checks differentiate."""
    return (t * t).sum()


# -- rng -----------------------------------------------------------------


def test_splitmix64_published_vector():
    # first three outputs of the reference splitmix64 sequence seeded at 0
    state = 0
    expect = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    outs = []
    for _ in range(3):
        state = (state + 0x9E3779B97F4A7C15) & ((1 << 64) - 1)
        outs.append(_splitmix64(state - 0x9E3779B97F4A7C15))
    # _splitmix64 applies the increment itself, so feed pre-increment states
    assert outs == expect


def test_rng_stream_deterministic():
    a = RngStream(42, 7).generator().random(16)
    b = RngStream(42, 7).generator().random(16)
    assert np.array_equal(a, b)


def test_rng_children_distinct_and_stable():
    root = RngStream(3)
    kids = [root.child(i) for i in range(32)]
    assert len({k.stream for k in kids}) == 32
    assert root.child(5) == root.child(5)
    assert root.child(5) != root.child(6)
    # grandchildren differ from children
    assert root.child(0).child(0) != root.child(0)


def test_rng_seed_separates_streams():
    a = RngStream(1).child(2).generator().random(8)
    b = RngStream(2).child(2).generator().random(8)
    assert not np.array_equal(a, b)


# -- basic ops, forward oracles ------------------------------------------


def test_arithmetic_forward():
    a = t64([[1.0, -2.0], [3.0, 4.0]])
    b = t64([[0.5, 2.0], [-1.0, 0.25]])
    assert np.allclose((a + b).data, a.data + b.data)
    assert np.allclose((a * b).data, a.data * b.data)
    assert np.allclose((a @ b).data, a.data @ b.data)


def test_reductions_forward():
    x = t64(np.arange(24, dtype=np.float64).reshape(2, 3, 4))
    assert np.allclose(x.sum().data, x.data.sum())
    assert np.allclose(x.sum(axis=1).data, x.data.sum(axis=1))
    assert np.allclose(x.mean(axis=2, keepdims=True).data,
                       x.data.mean(axis=2, keepdims=True))


def test_backward_requires_scalar():
    x = t64([1.0, 2.0])
    with pytest.raises(ShapeError):
        (x * 2.0).backward()


def test_detach_blocks_grad():
    x = t64([1.0, 2.0])
    y = (x.detach() * 3.0).sum()
    assert not y.requires_grad


def test_second_backward_through_shared_node_adds_only_its_own_gradient():
    w = t64([1.0])
    shared = w * 3.0
    (shared * 1.0).sum().backward()
    assert w.grad[0] == 3.0 and shared.grad is None
    (shared * 1.0).sum().backward()
    assert w.grad[0] == 6.0


# -- gradient checks vs central differences ------------------------------


def _check(f, shape, seed=0, tol=1e-6):
    gen = np.random.default_rng(seed)
    x = t64(gen.normal(0, 1, size=shape))
    assert grad_check(f, x, h=1e-4) < tol


@pytest.mark.parametrize("lead, k, n", [
    ((50, 13), 64, 64), ((50, 13), 64, 256), ((50, 21), 256, 64), ((50, 21), 64, 15),
    ((2, 11), 64, 64), ((4, 270), 512, 2048), ((8, 21), 64, 64),
    ((16, 21), 64, 64), ((16, 21), 64, 256), ((16, 21), 256, 64), ((16, 21), 64, 15)])
def test_stack_times_weight_is_one_gemm_with_per_slice_bits(lead, k, n):
    """(..., seq, k) @ (k, n) runs as one GEMM over the folded rows; on the
    model's shapes (desk stacks, a desk training bucket of 8 samples x 2
    passes, a full-width MLP) that gives the bits of numpy's per-slice
    products."""
    gen = np.random.default_rng(23)
    a = gen.normal(0, 1, size=lead + (k,)).astype(np.float32)
    w = gen.normal(0, 1, size=(k, n)).astype(np.float32)
    got = (Tensor(a) @ Tensor(w)).data
    assert got.shape == lead + (n,)
    assert got.tobytes() == np.stack([a[i] @ w for i in range(lead[0])]).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_linear_is_matmul_plus_bias(dtype):
    gen = np.random.default_rng(24)
    x0 = gen.normal(0, 1, size=(3, 7, 16)).astype(dtype)
    w0 = gen.normal(0, 1, size=(16, 12)).astype(dtype)
    b0 = gen.normal(0, 1, size=(12,)).astype(dtype)
    g = gen.normal(0, 1, size=(3, 7, 12)).astype(dtype)
    runs = []
    for op in (nm.linear, lambda x, w, b: x @ w + b):
        x, w, b = (Tensor(a, requires_grad=True) for a in (x0, w0, b0))
        y = op(x, w, b)
        (y * Tensor(g)).sum().backward()
        runs.append([y.data.tobytes(), x.grad.tobytes(), w.grad.tobytes(),
                     b.grad.tobytes()])
    assert runs[0] == runs[1]
    w, b = t64(w0), t64(b0)
    for arg in range(3):
        def f(t):
            xs = [t64(x0, requires_grad=False), w, b]
            xs[arg] = t
            return square_sum(nm.linear(*xs))
        start = (x0, w0, b0)[arg]
        assert grad_check(f, t64(start), h=1e-4) < 1e-6


def test_grad_add_mul():
    _check(lambda x: square_sum(x * 3.0 + 1.5), (4, 3))


def test_grad_matmul():
    w = np.random.default_rng(1).normal(0, 1, size=(3, 5))
    _check(lambda x: (x @ t64(w, requires_grad=False)).sum(), (4, 3))


def test_grad_batched_matmul():
    gen = np.random.default_rng(2)
    b = t64(gen.normal(0, 1, size=(2, 5, 3)), requires_grad=False)
    _check(lambda x: (x @ b).sum(), (2, 4, 5))


def test_grad_stack_times_matrix():
    # the weight gradient of a (passes, seq, d) stack times a (d, e) matrix
    # sums the per-pass products over the broadcast pass axis
    stack = t64(np.random.default_rng(2).normal(0, 1, size=(3, 4, 5)),
                requires_grad=False)
    _check(lambda w: square_sum(stack @ w), (5, 2))


def test_grad_broadcast_add():
    b = t64(np.random.default_rng(3).normal(0, 1, size=(5,)))
    _check(lambda x: square_sum(x + b), (4, 5))
    # and grads flow to the broadcast side too
    x = t64(np.random.default_rng(4).normal(0, 1, size=(4, 5)),
            requires_grad=False)
    assert grad_check(lambda bb: square_sum(x + bb), b, h=1e-4) < 1e-6


def test_grad_reductions_axes():
    _check(lambda x: square_sum(x.sum(axis=0)), (3, 4))
    _check(lambda x: (x.mean(axis=1, keepdims=True) * x).sum(), (3, 4))


def test_grad_reshape_transpose():
    _check(lambda x: square_sum(x.reshape(6, 2).transpose(1, 0)), (3, 4))


def test_grad_gelu():
    _check(lambda x: nm.gelu(x).sum(), (8,))


def _gelu_formula(x):
    return 0.5 * x * (1 + np.tanh(np.sqrt(2 / np.pi) * (x + 0.044715 * x ** 3)))


def test_gelu_matches_tanh_formula():
    x = np.linspace(-4, 4, 41)
    got = nm.gelu(t64(x)).data
    assert np.allclose(got, _gelu_formula(x), atol=1e-12)


def test_gelu_float32_matches_float64_formula():
    x = np.concatenate([np.linspace(-4, 4, 41),
                        np.random.default_rng(18).normal(0, 2, size=4000)])
    x = x.astype(np.float32)
    got = nm.gelu(nm.tensor(x)).data
    assert got.dtype == np.float32
    assert np.max(np.abs(got - _gelu_formula(x.astype(np.float64)))) <= 1e-6


def _rows_over_blocks(rows: str, n: int, itemsize: int) -> int:
    """A row count over two and a half row blocks of n items of itemsize,
    or one row."""
    return 5 * (nm.ROW_BLOCK_BYTES // (n * itemsize)) // 2 + 3 if rows == "blocks" else 1


@pytest.mark.parametrize("grad", [False, True], ids=["nograd", "grad"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rows", ["blocks", "one_row"])
def test_gelu_is_bitwise_the_whole_array_form(rows, dtype, grad):
    """The row-blocked kernel runs the whole-array form's steps row by row:
    output and gradient are its bits."""
    n = 2048
    gen = np.random.default_rng(25)
    shape = (_rows_over_blocks(rows, n, np.dtype(dtype).itemsize), n)
    x, w = (gen.normal(0, 3, size=shape).astype(dtype) for _ in range(2))
    results = []
    for act in (nm.gelu, gelu_reference):
        t = nm.tensor(x, dtype=dtype, requires_grad=grad)
        y = act(t)
        if grad:
            (y * nm.tensor(w, dtype=dtype)).sum().backward()
        results.append([y.data.tobytes()] + ([t.grad.tobytes()] if grad else []))
    assert y.dtype == dtype and results[0] == results[1]


def test_grad_softmax():
    _check(lambda x: (nm.softmax(x, axis=-1) * nm.softmax(x, axis=-1)).sum(),
           (3, 7))


def test_grad_layer_norm():
    d = 6
    g = t64(np.random.default_rng(6).normal(1, 0.1, size=(d,)))
    b = t64(np.random.default_rng(7).normal(0, 0.1, size=(d,)))
    _check(lambda x: square_sum(nm.layer_norm(x, g, b)), (4, d), tol=1e-5)
    x = t64(np.random.default_rng(8).normal(0, 1, size=(4, d)),
            requires_grad=False)
    assert grad_check(lambda gg: square_sum(nm.layer_norm(x, gg, b)),
                      g, h=1e-4) < 1e-6
    assert grad_check(lambda bb: square_sum(nm.layer_norm(x, g, bb)),
                      b, h=1e-4) < 1e-6


def test_grad_embedding():
    ids = np.array([0, 2, 2, 1])
    table = t64(np.random.default_rng(9).normal(0, 1, size=(4, 3)))
    assert grad_check(lambda t: square_sum(nm.embedding(t, ids)),
                      table, h=1e-4) < 1e-6
    # duplicate ids accumulate
    table.zero_grad()
    nm.embedding(table, ids).sum().backward()
    assert np.allclose(table.grad[2], 2.0)
    assert np.allclose(table.grad[3], 0.0)
    # a stack of tables is looked up along its rows, each table alike
    stack = t64(np.random.default_rng(9).normal(0, 1, size=(2, 4, 3)))
    assert np.array_equal(nm.embedding(stack, ids).data, stack.data[:, ids])
    assert grad_check(lambda t: square_sum(nm.embedding(t, ids)),
                      stack, h=1e-4) < 1e-6


@pytest.mark.parametrize("ids_shape", [(3, 3), (2, 5)])
@pytest.mark.parametrize("lead", [(), (2,)])
def test_grad_embedding_of_2d_ids(ids_shape, lead):
    """(a, b) ids look up (..., a, b, dim) rows; the backward scatters each
    row's gradient back to its id, for square and non-square ids alike."""
    gen = np.random.default_rng(12)
    ids = gen.integers(0, 6, size=ids_shape)
    ids[0, :2] = 4  # a duplicate id accumulates
    table = t64(gen.normal(0, 1, size=lead + (6, 4)))
    out = nm.embedding(table, ids)
    assert out.shape == lead + ids_shape + (4,)
    assert np.array_equal(out.data, table.data[..., ids, :])
    g = gen.normal(0, 1, size=out.shape)
    (out * Tensor(g)).sum().backward()
    want = np.zeros(table.shape)
    for i in np.ndindex(lead):
        np.add.at(want[i], ids, g[i])
    assert np.allclose(table.grad, want, rtol=0, atol=1e-12)
    assert grad_check(lambda t: square_sum(nm.embedding(t, ids)),
                      table, h=1e-4) < 1e-6


def test_grad_concat():
    b = t64(np.random.default_rng(10).normal(0, 1, size=(2, 3)))
    _check(lambda x: square_sum(nm.concat([x, b], axis=0)), (4, 3))


def _check_attention(lead):
    gen = np.random.default_rng(11)
    k = t64(gen.normal(0, 1, size=lead + (5, 8)), requires_grad=False)
    v = t64(gen.normal(0, 1, size=lead + (5, 8)), requires_grad=False)
    _check(lambda q: square_sum(nm.scaled_dot_attention(q, k, v, heads=2)),
           lead + (5, 8), tol=1e-5)


def test_grad_attention():
    _check_attention(())


def test_grad_attention_pass_stack():
    _check_attention((3,))


def test_grad_mean_pool_time():
    _check(lambda x: square_sum(nm.mean_pool_time(x, 3)), (6, 4))


def test_grad_conv1d():
    gen = np.random.default_rng(12)
    w = t64(gen.normal(0, 0.5, size=(5, 4, 3)))
    b = t64(gen.normal(0, 0.5, size=(5,)))
    for stride in (1, 2):
        _check(lambda x: square_sum(nm.conv1d(x, w, b, stride=stride, padding=1)),
               (8, 4), seed=13 + stride)
        x = t64(gen.normal(0, 1, size=(8, 4)), requires_grad=False)
        assert grad_check(
            lambda ww: square_sum(nm.conv1d(x, ww, b, stride=stride)),
            w, h=1e-4) < 1e-6


def test_grad_conv1d_stack():
    """A stack of (2, 3) inputs through one conv1d: x, w and b each pass a
    gradient check, so the folded im2col rows scatter and sum back right."""
    gen = np.random.default_rng(31)
    w = t64(gen.normal(0, 0.5, size=(5, 4, 3)))
    b = t64(gen.normal(0, 0.5, size=(5,)))
    x = t64(gen.normal(0, 1, size=(2, 3, 8, 4)), requires_grad=False)
    for stride in (1, 2):
        _check(lambda xx: square_sum(nm.conv1d(xx, w, b, stride=stride, padding=1)),
               (2, 3, 8, 4), seed=32 + stride)
        for param in (w, b):
            assert grad_check(lambda _: square_sum(nm.conv1d(x, w, b, stride=stride)),
                              param, h=1e-4) < 1e-6


# -- forward oracles for the structured ops ------------------------------


def test_conv1d_matches_direct_loop():
    gen = np.random.default_rng(14)
    x = gen.normal(0, 1, size=(10, 3))
    w = gen.normal(0, 1, size=(6, 3, 3))
    b = gen.normal(0, 1, size=(6,))
    for stride, padding in [(1, 1), (2, 1), (1, 0)]:
        got = nm.conv1d(t64(x), t64(w), t64(b), stride=stride,
                        padding=padding).data
        xp = np.pad(x, ((padding, padding), (0, 0)))
        t_out = (10 + 2 * padding - 3) // stride + 1
        want = np.zeros((t_out, 6))
        for t in range(t_out):
            for o in range(6):
                want[t, o] = b[o] + np.sum(
                    xp[t * stride:t * stride + 3] * w[o].T)
        assert np.allclose(got, want, atol=1e-10)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("t_in, c_in, c_out, padding", [
    (t, c_in, c_out, padding)
    for t, c_in, c_out in [(1, 3, 4), (7, 3, 4), (200, 80, 64), (200, 64, 64)]
    for padding in (0, 1, 2) if t + 2 * padding >= 3])
def test_conv1d_is_bitwise_the_gather_form(dtype, stride, t_in, c_in, c_out, padding):
    """The strided im2col gives the bits of the index-gather im2col, on the
    desk stems' shapes as well as small ones (a 1-frame input needs padding
    1 for an output frame)."""
    gen = np.random.default_rng(t_in + 10 * stride + padding)
    x = gen.normal(0, 1, size=(t_in, c_in)).astype(dtype)
    w = gen.normal(0, 0.1, size=(c_out, c_in, 3)).astype(dtype)
    b = gen.normal(0, 0.1, size=(c_out,)).astype(dtype)
    got = nm.conv1d(nm.tensor(x, dtype=dtype), nm.tensor(w, dtype=dtype),
                    nm.tensor(b, dtype=dtype), stride=stride, padding=padding).data
    want = conv1d_reference(x, w, b, stride, padding)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("lead, t_in, c_in, c_out, stride", [
    ((3,), 200, 80, 64, 1), ((3,), 200, 64, 64, 2), ((2, 2), 7, 3, 4, 2)],
    ids=["desk_conv1", "desk_conv2", "two_axes"])
def test_conv1d_with_leading_axes_is_each_slice(dtype, lead, t_in, c_in, c_out, stride):
    gen = np.random.default_rng(t_in + stride)
    x = gen.normal(0, 1, size=(*lead, t_in, c_in)).astype(dtype)
    w, b = (nm.tensor(gen.normal(0, 0.1, size=shape), dtype=dtype)
            for shape in ((c_out, c_in, 3), (c_out,)))
    got = nm.conv1d(nm.tensor(x, dtype=dtype), w, b, stride=stride).data
    for idx in np.ndindex(*lead):
        one = nm.conv1d(nm.tensor(x[idx], dtype=dtype), w, b, stride=stride).data
        assert got[idx].tobytes() == one.tobytes()


def _attention_oracle(q, k, v, heads):
    """Per-head loop over the scaled dot-product formula, scale on the scores."""
    s, d = q.shape
    dh = d // heads
    want = np.zeros((s, d))
    for h in range(heads):
        qs, ks, vs = (a[:, h * dh:(h + 1) * dh] for a in (q, k, v))
        scores = qs @ ks.T / np.sqrt(dh)
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        attn = e / e.sum(axis=-1, keepdims=True)
        want[:, h * dh:(h + 1) * dh] = attn @ vs
    return want


def test_attention_matches_direct_computation():
    gen = np.random.default_rng(15)
    s, d, heads = 4, 6, 2
    q, k, v = (gen.normal(0, 1, size=(s, d)) for _ in range(3))
    got = nm.scaled_dot_attention(t64(q), t64(k), t64(v), heads).data
    assert np.allclose(got, _attention_oracle(q, k, v, heads), atol=1e-10)


@pytest.mark.parametrize("dtype,rtol", [(np.float64, 1e-12), (np.float32, 1e-6)])
@pytest.mark.parametrize("s,d,heads", [(4, 6, 2), (40, 64, 4)])
def test_attention_folded_scale_matches_scaled_scores(dtype, rtol, s, d, heads):
    gen = np.random.default_rng(15)
    q, k, v = (gen.normal(0, 1, size=(s, d)).astype(dtype) for _ in range(3))
    got = nm.scaled_dot_attention(*(nm.tensor(a, dtype=dtype) for a in (q, k, v)),
                                  heads).data
    assert got.dtype == dtype
    want = _attention_oracle(*(a.astype(np.float64) for a in (q, k, v)), heads)
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_attention_stack_equals_each_pass(dtype):
    gen = np.random.default_rng(16)
    q, k, v = (gen.normal(0, 1, size=(4, 12, 16)).astype(dtype) for _ in range(3))
    got = nm.scaled_dot_attention(*(nm.tensor(a, dtype=dtype) for a in (q, k, v)),
                                  heads=4).data
    for i in range(4):
        one = nm.scaled_dot_attention(nm.tensor(q[i], dtype=dtype),
                                      nm.tensor(k[i], dtype=dtype),
                                      nm.tensor(v[i], dtype=dtype), heads=4).data
        assert np.array_equal(got[i], one)


def test_mean_pool_time_oracle():
    x = np.arange(24, dtype=np.float64).reshape(6, 4)
    got = nm.mean_pool_time(t64(x), 2).data
    assert np.allclose(got, x.reshape(3, 2, 4).mean(axis=1))
    with pytest.raises(ShapeError):
        nm.mean_pool_time(t64(x), 4)


def test_layer_norm_normalizes():
    x = t64(np.random.default_rng(16).normal(3, 5, size=(7, 32)))
    g = nm.tensor(np.ones(32), dtype=np.float64)
    b = nm.tensor(np.zeros(32), dtype=np.float64)
    y = nm.layer_norm(x, g, b).data
    assert np.allclose(y.mean(axis=-1), 0, atol=1e-6)
    assert np.allclose(y.var(axis=-1), 1, atol=1e-3)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(20, 64), (1500, 512), (2, 3, 16)])
def test_layer_norm_bitwise_matches_upcast_mean_var(dtype, shape):
    gen = np.random.default_rng(19)
    x = gen.normal(3, 5, size=shape).astype(dtype)
    g = gen.normal(1, 0.1, size=shape[-1]).astype(dtype)
    b = gen.normal(0, 0.1, size=shape[-1]).astype(dtype)
    x64 = x.astype(np.float64)
    mu = x64.mean(axis=-1, keepdims=True)
    var = x64.var(axis=-1, keepdims=True)
    xhat = ((x64 - mu) * (1.0 / np.sqrt(var + 1e-5))).astype(dtype)
    want = g * xhat + b
    # without a gradient the affine runs in place, with one it does not
    for requires_grad in (False, True):
        got = nm.layer_norm(*(nm.tensor(a, dtype=dtype, requires_grad=requires_grad)
                              for a in (x, g, b))).data
        assert got.dtype == want.dtype == dtype
        assert np.array_equal(got, want)


@pytest.mark.parametrize("grad", [False, True], ids=["nograd", "grad"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rows", ["blocks", "one_row"])
def test_layer_norm_is_bitwise_the_whole_array_form(rows, dtype, grad):
    """Moments, normalisation and affine per row block are the whole-array
    form's bits, as are the input, gamma and beta gradients."""
    n = 512
    gen = np.random.default_rng(26)
    shape = (_rows_over_blocks(rows, n, 8), n)  # the float64 copy sets the block
    x, w = (gen.normal(3, 5, size=shape).astype(dtype) for _ in range(2))
    x[1::9] = 1.5  # rows of one value: zero variance
    gb = [gen.normal(m, 0.1, size=n).astype(dtype) for m in (1, 0)]
    results = []
    for norm in (nm.layer_norm, layer_norm_reference):
        ts = [nm.tensor(a, dtype=dtype, requires_grad=grad) for a in (x, *gb)]
        y = norm(*ts)
        if grad:
            (y * nm.tensor(w, dtype=dtype)).sum().backward()
        results.append([y.data.tobytes()] + [t.grad.tobytes() for t in ts if grad])
    assert y.dtype == dtype and results[0] == results[1]


def test_layer_norm_validation():
    x = t64(np.zeros((2, 4)))
    g = t64(np.ones(3))
    b = t64(np.zeros(4))
    with pytest.raises(ShapeError):
        nm.layer_norm(x, g, t64(np.zeros(3)))
    with pytest.raises(ShapeError):
        nm.layer_norm(x, g, b)


def test_softmax_stable_and_validated():
    big = nm.softmax(t64([1000.0, 1000.0, 999.0])).data
    assert np.isfinite(big).all() and abs(big.sum() - 1) < 1e-12
    with pytest.raises(NumericError):
        nm.softmax(t64([np.inf, 0.0]))


def test_softmax_float32_matches_float64_reference():
    gen = np.random.default_rng(20)
    x = (gen.normal(0, 4, size=(8, 60, 60)) + gen.normal(0, 50, size=(8, 60, 1)))
    x = x.astype(np.float32)
    for axis in (-1, 0):
        got = nm.softmax(nm.tensor(x), axis=axis).data
        assert got.dtype == np.float32
        x64 = x.astype(np.float64)
        e = np.exp(x64 - x64.max(axis=axis, keepdims=True))
        want = e / e.sum(axis=axis, keepdims=True)
        assert np.max(np.abs(got - want)) <= 1e-6
        assert np.max(np.abs(got.sum(axis=axis, dtype=np.float64) - 1.0)) <= 1e-6


def _peak_alloc_ratio(f, x: np.ndarray) -> float:
    """Peak bytes numpy allocates during f(Tensor(x)), over x's own bytes."""
    inp = nm.tensor(x)
    tracemalloc.start()
    try:
        f(inp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / x.nbytes


def test_softmax_and_gelu_peak_allocation():
    gen = np.random.default_rng(21)
    scores = gen.normal(0, 3, size=(8, 300, 300)).astype(np.float32)
    assert _peak_alloc_ratio(nm.softmax, scores) <= 2.0
    hidden = gen.normal(0, 1, size=(1500, 2048)).astype(np.float32)
    assert _peak_alloc_ratio(nm.gelu, hidden) <= 3.0


def test_softmax_backward_keeps_its_gradient_without_a_copy():
    """The input's first gradient is the backward's own array, not a copy
    of it: the (8, 300, 300) backward holds one score-sized array at a time
    (a copy made it two)."""
    gen = np.random.default_rng(28)
    x = nm.tensor(gen.normal(0, 3, size=(8, 300, 300)).astype(np.float32), requires_grad=True)
    y = nm.softmax(x)
    g = gen.normal(0, 1, size=x.shape).astype(np.float32)
    tracemalloc.start()
    try:
        y._backward(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert x.grad.dtype == np.float32
    assert peak <= 1.3 * x.data.nbytes


def _rows_of_note(rows: int, n: int, dtype) -> np.ndarray:
    """(rows, n) scores with ties at the max, rows of one value, and rows
    mixing +0 and -0, spread over every block."""
    z = np.random.default_rng(n).normal(0, 4, size=(rows, n)).astype(dtype)
    z[::7] = 2.5
    z[1::7, : (n + 1) // 2] = z[1::7].max(axis=-1, keepdims=True)
    z[2::7] = 0.0
    z[2::7, ::2] = -0.0
    z[3::7, n // 2:] = -0.0
    return z


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [1, 2, 15, 31, 32, 33, 1500])
def test_softmax_array_is_bitwise_the_whole_array_form(n, dtype):
    block_rows = nm.ROW_BLOCK_BYTES // (n * np.dtype(dtype).itemsize)
    z = _rows_of_note(5 * block_rows // 2 + 3, n, dtype)  # two full blocks and a part
    before = z.copy()
    got, want = nm.softmax_array(z), softmax_reference(z)
    assert got.dtype == dtype and got.tobytes() == want.tobytes()
    assert z.tobytes() == before.tobytes()
    # a few rows (np.max even for short ones) and a stack of 40
    for part in (z[:3], z[:40 * (len(z) // 40)].reshape(40, -1, n)):
        assert nm.softmax_array(part).tobytes() == softmax_reference(part).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_softmax_array_along_a_leading_axis(dtype):
    z = _rows_of_note(600, 33, dtype).reshape(30, 20, 33)
    before = z.copy()
    got = nm.softmax_array(z, axis=0)
    want = np.moveaxis(softmax_reference(np.ascontiguousarray(np.moveaxis(z, 0, -1))), -1, 0)
    assert got.shape == z.shape and got.tobytes() == np.ascontiguousarray(want).tobytes()
    assert np.allclose(got, softmax_reference(z, axis=0), rtol=1e-6, atol=0)
    assert z.tobytes() == before.tobytes()


def test_softmax_overwrite_writes_into_its_input():
    z = _rows_of_note(300, 40, np.float32)
    x = nm.tensor(z.copy())
    y = nm.softmax(x, axis=-1, overwrite=True)
    assert y.data is x.data and y.data.tobytes() == softmax_reference(z).tobytes()


def test_softmax_overwrite_refuses_a_view_or_another_axis():
    z = np.zeros((6, 8), dtype=np.float32)
    for view in (z[:, ::2], z.T, z[::2]):
        with pytest.raises(ShapeError):
            nm.softmax(nm.tensor(view), axis=-1, overwrite=True)
    with pytest.raises(ShapeError):
        nm.softmax(nm.tensor(z), axis=0, overwrite=True)
    assert not z.any()


ATTENTION_SHAPES = {  # (..., seq, dim), heads
    "desk_text_stack": ((50, 25, 64), 2),
    "desk_speech": ((100, 64), 2),
    "full_width": ((1500, 512), 8),
}


@pytest.mark.parametrize("grad", [False, True], ids=["nograd", "grad"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", list(ATTENTION_SHAPES))
def test_attention_is_bitwise_the_whole_array_softmax_form(case, dtype, grad):
    """The in-place blocked softmax leaves the QK^T and AV products as they
    are, so output and gradients equal the reference's bit for bit on any
    BLAS thread count."""
    shape, heads = ATTENTION_SHAPES[case]
    gen = np.random.default_rng(22)
    arrays = [gen.normal(0, 1, size=shape).astype(dtype) for _ in range(4)]
    results = []
    for attend in (nm.scaled_dot_attention, attention_reference):
        q, k, v = (nm.tensor(a, dtype=dtype, requires_grad=grad) for a in arrays[:3])
        y = attend(q, k, v, heads)
        if grad:
            (y * nm.tensor(arrays[3], dtype=dtype)).sum().backward()
        results.append([y.data.tobytes()] + [t.grad.tobytes() for t in (q, k, v) if grad])
    assert results[0] == results[1]


NO_GRAPH_SHAPES = {**ATTENTION_SHAPES, "full_scale_mc_stack": ((4, 400, 512), 16)}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", list(NO_GRAPH_SHAPES))
def test_attention_without_a_graph_is_bitwise_the_reference(case, dtype, monkeypatch):
    """Groups of (leading index, head) slices in one reused buffer, AV
    written into the output: the reference's bits at the default budget and
    at budgets of one and seven score slices; seven leaves a partial last
    group of heads, or of passes (50 passes of 2 heads in groups of 3)."""
    shape, heads = NO_GRAPH_SHAPES[case]
    gen = np.random.default_rng(27)
    q, k, v = (nm.tensor(gen.normal(0, 1, size=shape).astype(dtype), dtype=dtype)
               for _ in range(3))
    want = attention_reference(q, k, v, heads).data.tobytes()
    slice_bytes = shape[-2] ** 2 * np.dtype(dtype).itemsize
    slices = math.prod(shape[:-2]) * heads
    for budget in (nm.ATTENTION_GROUP_BYTES, slice_bytes, 7 * slice_bytes):
        monkeypatch.setattr(nm, "ATTENTION_GROUP_BYTES", budget)
        if case == "full_width":  # several groups run at every budget
            assert slices * slice_bytes > budget
        assert nm.scaled_dot_attention(q, k, v, heads).data.tobytes() == want


def _multi_block_attention_inputs():
    """float32 q, k, v whose (8, 300, 300) scores span three softmax blocks."""
    gen = np.random.default_rng(23)
    q, k, v = (gen.normal(0, 1, size=(300, 512)).astype(np.float32) for _ in range(3))
    assert 8 * 300 * 300 * q.itemsize > 2 * nm.ROW_BLOCK_BYTES
    return q, k, v


@pytest.mark.parametrize("bad,operands", [
    (np.nan, (0,)), (np.nan, (1,)), (np.inf, (0,)), (np.inf, (1,)),
    (-np.inf, (0,)), (-np.inf, (1,)), (1e20, (0, 1)),
], ids=["nan-q", "nan-k", "inf-q", "inf-k", "-inf-q", "-inf-k", "overflow-qk"])
def test_attention_rejects_non_finite_scores_in_the_last_block(bad, operands):
    """The last column belongs to the last head, so the bad entry of the
    last row reaches only the last block's score rows; 1e20 in both q and k
    is finite but its score overflows float32."""
    inputs = list(_multi_block_attention_inputs())
    for i in operands:
        inputs[i][-1, -1] = bad
    with pytest.raises(NumericError):
        nm.scaled_dot_attention(*(nm.tensor(a) for a in inputs), heads=8)


@pytest.mark.parametrize("bad,operands", [
    (np.nan, (0,)), (np.nan, (1,)), (np.inf, (0,)), (np.inf, (1,)),
    (-np.inf, (0,)), (-np.inf, (1,)), (1e20, (0, 1)),
], ids=["nan-q", "nan-k", "inf-q", "inf-k", "-inf-q", "-inf-k", "overflow-qk"])
def test_attention_rejects_non_finite_scores_in_the_last_group(bad, operands, monkeypatch):
    """With one head per group, the bad entry of the last head's column
    reaches only the last of the eight groups."""
    monkeypatch.setattr(nm, "ATTENTION_GROUP_BYTES", 300 * 300 * 4)
    inputs = list(_multi_block_attention_inputs())
    for i in operands:
        inputs[i][-1, -1] = bad
    with pytest.raises(NumericError):
        nm.scaled_dot_attention(*(nm.tensor(a) for a in inputs), heads=8)


def test_attention_without_a_graph_peaks_at_one_group(monkeypatch):
    """With one head per group, a no-graph call holds one group's scores,
    the scaled q and the output: at most one group plus q, k, v and the
    output, less than the whole (8, 300, 300) score stack."""
    group = 300 * 300 * 4
    monkeypatch.setattr(nm, "ATTENTION_GROUP_BYTES", group)
    q, k, v = _multi_block_attention_inputs()
    tensors = [nm.tensor(a) for a in (q, k, v)]
    tracemalloc.start()
    try:
        nm.scaled_dot_attention(*tensors, heads=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= group + 4 * q.nbytes < 8 * group


def test_attention_peak_allocation_is_one_score_array():
    q, k, v = _multi_block_attention_inputs()
    tensors = [nm.tensor(a) for a in (q, k, v)]
    tracemalloc.start()
    try:
        nm.scaled_dot_attention(*tensors, heads=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * (8 * 300 * 300 * 4) + 3 * q.nbytes


# -- dropout -------------------------------------------------------------


def test_dropout_eval_is_identity_object():
    x = t64([[1.0, 2.0]])
    assert nm.dropout(x, 0.5, nm.NO_KEYS) is x
    # p = 0 keeps the stack shape: one all-ones row per key
    y = nm.dropout(x, 0.0, keys_of([RngStream(0), RngStream(1)]))
    assert y.shape == (2, 1, 2) and np.array_equal(y.data, np.stack([x.data] * 2))


def test_dropout_mask_and_scaling():
    x = nm.tensor(np.ones((100, 100)), dtype=np.float64)
    y = nm.dropout(x, 0.3, keys_of([RngStream(5)])).data
    kept = y != 0
    assert abs(kept.mean() - 0.7) < 0.02
    assert np.allclose(y[kept], 1.0 / 0.7)
    y2 = nm.dropout(x, 0.3, keys_of([RngStream(5)])).data
    assert np.array_equal(y, y2)


def test_dropout_stack_draws_each_pass_from_its_stream():
    gen = np.random.default_rng(6)
    shared = nm.tensor(gen.normal(0, 1, size=(5, 8)))
    stack = nm.tensor(gen.normal(0, 1, size=(3, 5, 8)))
    keys = RngStream(5).child_keys(range(3))
    from_shared = nm.dropout(shared, 0.3, keys).data
    from_stack = nm.dropout(stack, 0.3, keys).data
    assert from_shared.shape == from_stack.shape == (3, 5, 8)
    for i in range(3):
        one_key = keys[i:i + 1]
        assert np.array_equal(from_shared[i], nm.dropout(shared, 0.3, one_key).data[0])
        one = nm.tensor(stack.data[i])
        assert np.array_equal(from_stack[i], nm.dropout(one, 0.3, one_key).data[0])
    with pytest.raises(ShapeError):
        nm.dropout(stack, 0.3, keys[:2])
    # a shared input's gradient sums the passes' masks, all ones at p = 0
    for p in (0.3, 0.0):
        _check(lambda x: square_sum(nm.dropout(x, p, keys)), (5, 8))


def test_dropout_sample_grid_draws_pass_b_k_from_key_b_times_p_plus_k():
    gen = np.random.default_rng(7)
    samples = nm.tensor(gen.normal(0, 1, size=(3, 1, 5, 8)))
    keys = RngStream(5).child_keys(range(6))
    for p in (0.3, 0.0):
        grid = nm.dropout(samples, p, keys)
        assert grid.shape == (3, 2, 5, 8)
        # sample b's passes are its own stack, drawn from keys 2b and 2b + 1
        for b in range(3):
            one = nm.dropout(nm.tensor(samples.data[b, 0]), p, keys[2 * b:2 * b + 2])
            assert np.array_equal(grid.data[b], one.data)
        # a (3, 2) grid of inputs takes the same masks, pass by pass
        masks = nm.dropout(nm.tensor(np.ones((3, 2, 5, 8))), p, keys).data
        assert np.array_equal(nm.dropout(grid, p, keys).data, grid.data * masks)
    for bad in (keys[:5], keys[:3]):
        with pytest.raises(ShapeError):
            nm.dropout(nm.tensor(np.ones((3, 2, 5, 8))), 0.3, bad)
    _check(lambda x: square_sum(nm.dropout(x, 0.3, keys)), (3, 1, 5, 8))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
# the edges of the raw-word threshold: p = 0, the smallest nonzero threshold
# (1e-17), a p a few ulps past 0.1, and p near 1
@pytest.mark.parametrize("p", [0.0, 1e-17, 0.05, 0.1, 0.1 + 1e-16, 0.3, 0.5, 0.999])
def test_dropout_draws_match_a_fresh_generator_per_stream(p, dtype):
    gen = np.random.default_rng(8)
    streams = [RngStream(3).child(i) for i in range(4)]
    # a stream listed twice restarts its counter: its two rows are equal
    streams += [streams[1], RngStream(-1, (1 << 64) + 5)]
    mask = dropout_masks_reference(streams, p, (7, 24), dtype)
    assert np.array_equal(mask[1], mask[4])
    shared = gen.normal(0, 1, size=(7, 24)).astype(dtype)
    stack = gen.normal(0, 1, size=(len(streams), 7, 24)).astype(dtype)
    for data in (shared, stack):
        expect = data * mask
        for requires_grad in (False, True):
            x = Tensor(data, requires_grad=requires_grad)
            y = nm.dropout(x, p, keys_of(streams))
            assert y.dtype == dtype
            assert y.data.tobytes() == expect.tobytes()
        # the backward multiplies by the same mask
        y.sum().backward()
        grad = mask.sum(axis=0) if data is shared else mask
        assert x.grad.tobytes() == grad.tobytes()


def test_dropout_rejects_bad_p():
    x = t64([1.0])
    with pytest.raises(ConfigError):
        nm.dropout(x, 1.0, keys_of([RngStream(0)]))
    with pytest.raises(ConfigError):
        nm.dropout(x, -0.1, keys_of([RngStream(0)]))


# -- the keep-mask memo of dropout without a graph -----------------------


@pytest.fixture
def memo(monkeypatch):
    """An empty keep-mask memo for the test."""
    fresh = nm._MaskMemo()
    monkeypatch.setattr(nm, "_mask_memo", fresh)
    return fresh


def _masked(keys_from, p, seq, dim, dtype=np.float32, monkeypatch=None):
    """dropout of a random (seq, dim) input without a graph, checked bit for
    bit against the reference masks; with monkeypatch, Philox may not run."""
    streams = [RngStream(9).child(i) for i in keys_from]
    x = np.random.default_rng(seq * 100 + dim).normal(0, 1, size=(seq, dim)).astype(dtype)
    if monkeypatch is None:
        y = nm.dropout(Tensor(x), p, keys_of(streams)).data
    else:
        with monkeypatch.context() as m:
            m.setattr(np.random, "Philox", None)  # a draw would raise
            y = nm.dropout(Tensor(x), p, keys_of(streams)).data
    expect = x * dropout_masks_reference(streams, p, (seq, dim), dtype)
    assert y.tobytes() == expect.tobytes()
    return y


def _rows(memo):
    assert memo.nbytes == sum(a.nbytes for a in memo.values())
    return sorted((k[2], a.shape[:2]) for k, a in memo.items())


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_mask_memo_miss_hit_and_grow_each_give_the_reference_masks(memo, monkeypatch, dtype):
    _masked(range(5), 0.1, 12, 24, dtype)  # miss: 12 rows stored, packed
    assert _rows(memo) == [(24, (5, 12))]
    assert next(iter(memo.values())).shape == (5, 12, 3)
    _masked(range(5), 0.1, 5, 24, dtype, monkeypatch)  # hit: the first 5 rows
    _masked(range(5), 0.1, 20, 24, dtype)  # longer: drawn, replaces the entry
    assert _rows(memo) == [(24, (5, 20))]
    _masked(range(5), 0.1, 12, 24, dtype, monkeypatch)
    _masked(range(5), 0.1, 20, 24, dtype, monkeypatch)
    # the same keys at another width, or another p, are entries of their own
    _masked(range(5), 0.1, 7, 13, dtype)
    _masked(range(5), 0.3, 7, 13, dtype)
    assert _rows(memo) == [(13, (5, 7)), (13, (5, 7)), (24, (5, 20))]
    _masked(range(5), 0.1, 3, 13, dtype, monkeypatch)
    _masked(range(5), 0.3, 3, 13, dtype, monkeypatch)
    # another key array misses, even one that shares rows with an entry
    _masked(range(1, 5), 0.1, 3, 13, dtype)
    assert len(memo) == 4


def test_mask_memo_stays_within_its_byte_bound(memo, monkeypatch):
    monkeypatch.setattr(nm, "MASK_MEMO_BYTES", 4096)

    def held():
        assert memo.nbytes == sum(a.nbytes for a in memo.values())
        return memo.nbytes

    # 4 passes of 64 columns pack to 32 bytes per row
    _masked(range(4), 0.1, 100, 64)
    assert held() == 3200
    _masked(range(4, 8), 0.1, 20, 64)
    assert held() == 3840
    # growing the second entry to 40 rows would hold 4480 bytes: it keeps
    # its 20 rows, which still answer shorter calls
    _masked(range(4, 8), 0.1, 40, 64)
    assert _rows(memo) == [(64, (4, 20)), (64, (4, 100))]
    _masked(range(4, 8), 0.1, 20, 64, monkeypatch=monkeypatch)
    # a full memo takes no new entries and evicts nothing; an entry larger
    # than the bound is never stored, and what is not stored is not packed
    with monkeypatch.context() as m:
        m.setattr(np, "packbits", None)
        _masked(range(8, 12), 0.1, 10, 64)
        _masked(range(12, 16), 0.5, 200, 64)
    assert _rows(memo) == [(64, (4, 20)), (64, (4, 100))]
    assert held() == 3840
    for keys_from, seq in ((range(4), 100), (range(4, 8), 40), (range(12, 16), 200)):
        _masked(keys_from, 0.1, seq, 64)
        assert held() <= 4096


def test_the_mask_memo_holds_the_desk_recipe_whenever_its_passes_form_one_stack():
    cfg = desk_config()
    one_stack = [seq for seq in range(1, cfg.prefix_len + cfg.max_text_len + 1)
                 if nm.STACK_BUDGET_BYTES // inference.pass_bytes(cfg, seq, np.float32) >= 50]
    # 4 models x 50 passes, one entry per (model, dropout site)
    entries = 4 * 2 * cfg.text_layers
    assert max(one_stack) - cfg.prefix_len == 380
    assert entries * 50 * max(one_stack) * math.ceil(cfg.text_dim / 8) <= nm.MASK_MEMO_BYTES


def test_dropout_output_never_shares_memory_with_the_memo(memo, monkeypatch):
    first = _masked(range(3), 0.2, 9, 16)
    _masked(range(3), 0.2, 6, 16, monkeypatch=monkeypatch)
    stack = Tensor(np.ones((3, 9, 16), np.float32))
    outputs = [first, nm.dropout(stack, 0.2, RngStream(9).child_keys(range(3))).data]
    for y in outputs:
        assert not any(np.shares_memory(y, a) for a in memo.values())
        y[...] = 7.0  # what a caller may do with its output
    _masked(range(3), 0.2, 9, 16, monkeypatch=monkeypatch)


def test_dropout_with_a_graph_neither_reads_nor_writes_the_memo(memo, monkeypatch):
    keys = RngStream(9).child_keys(range(3))
    x = Tensor(np.ones((4, 8), np.float32), requires_grad=True)
    memo[(keys.tobytes(), 0.2, 8)] = np.zeros((3, 4, 1), np.uint8)  # all dropped
    y = nm.dropout(x, 0.2, keys)
    expect = dropout_masks_reference([RngStream(9).child(i) for i in range(3)], 0.2,
                                     (4, 8), np.float32)
    assert y.data.tobytes() == expect.tobytes()
    assert list(memo.values())[0].shape == (3, 4, 1)


def test_a_desk_fit_leaves_the_mask_memo_empty(memo):
    spec = desk_synth_spec(sample_count=4)
    corpus = []
    for i in range(4):
        gold, wav = synthesize_sample(spec, RngStream(2).child(i))
        lab = label_from_diacritized(gold)
        corpus.append(training.CorpusSample(f"s{i}", lab.raw, np.asarray(lab.labels), wav))
    vocab = Vocabulary.from_texts([c.raw for c in corpus])
    model = DiacritizerModel(desk_config(vocab_size=len(vocab) + 3), vocab, RngStream(1))
    cfg = replace(training.desk_recipe(seed=1), epochs=2, warmup_epochs=1, batch_size=2)
    scores = []

    def scorer(m):
        scores.append(inference.predict_greedy(m, corpus[0].raw, corpus[0].waveform))
        return 0.0

    history = training.fit(corpus, model, cfg, dev_scorer=scorer)
    assert len(history["loss"]) == 2 and len(scores) == 2
    assert memo == {} and memo.nbytes == 0


# -- grad_check interface ------------------------------------------------


def test_grad_check_rejects_bad_step():
    x = t64([1.0])
    with pytest.raises(ConfigError):
        grad_check(lambda t: t.sum(), x, h=1.0)


def test_grad_check_detects_wrong_gradient():
    def broken(x):
        out = Tensor(x.data ** 2, _parents=(x,))
        out._backward = lambda g: x._accumulate(g * 3.0 * x.data)
        return out.sum()

    x = t64([1.0, 2.0])
    assert grad_check(broken, x, h=1e-4) > 0.1


def test_grad_check_sampled_coords_deterministic():
    gen = np.random.default_rng(17)
    x = t64(gen.normal(0, 1, size=(50,)))

    def f(t):
        return square_sum(t)

    a = grad_check(f, x, h=1e-4, max_coords=10, rng=RngStream(1))
    b = grad_check(f, x, h=1e-4, max_coords=10, rng=RngStream(1))
    assert a == b < 1e-6


# -- properties ----------------------------------------------------------


@given(st.lists(st.floats(-50, 50), min_size=2, max_size=12))
@settings(max_examples=50, deadline=None)
def test_softmax_is_distribution(vals):
    p = nm.softmax(t64(vals)).data
    assert abs(p.sum() - 1.0) < 1e-9
    assert (p >= 0).all()


@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_sum_grad_is_ones(rows, cols, seed):
    x = t64(np.random.default_rng(seed).normal(0, 1, size=(rows, cols)))
    x.sum().backward()
    assert np.array_equal(x.grad, np.ones((rows, cols)))


BIG = 2 ** 64


@given(seed=st.one_of(st.integers(0, 2 ** 16), st.integers(2 ** 63, BIG - 1),
                      st.integers(-BIG, BIG * 4)),
       stream=st.one_of(st.integers(0, 2 ** 16), st.integers(BIG - 2 ** 16, BIG - 1),
                        st.integers(-BIG, BIG * 4)),
       index=st.one_of(st.integers(-3, 300), st.integers(-BIG * 2, BIG * 2)),
       more=st.lists(st.integers(-2 ** 70, 2 ** 70), max_size=5))
@settings(max_examples=200, deadline=None)
def test_array_children_equal_stream_children(seed, stream, index, more):
    """child_keys on (P, 2) keys, and RngStream.child_keys over a list of
    indices, give bit for bit the keys of RngStream.child, for negative
    indices, streams near 2**64 - 1 and seeds at or past 2**63 too."""
    root = RngStream(seed, stream)
    streams = [root] + [root.child(i) for i in more]
    got = nm.child_keys(keys_of(streams), index)
    assert got.dtype == np.uint64 and got.shape == (len(streams), 2)
    assert got.tolist() == [list(s.child(index).key) for s in streams]
    indices = [index] + more
    assert root.child_keys(indices).tolist() == [list(root.child(i).key) for i in indices]
    assert nm.child_keys(nm.NO_KEYS, index).shape == (0, 2)


@given(st.integers(0, 2 ** 16), st.integers(0, 64), st.integers(0, 64))
@settings(max_examples=50, deadline=None)
def test_child_streams_collision_free(seed, i, j):
    root = RngStream(seed)
    if i != j:
        assert root.child(i).stream != root.child(j).stream
