"""Tests for the reverse-mode autodiff engine.

Forward values are checked against plain numpy expressions; gradients are
checked against central finite differences in float64 (float32 rounding would
swamp the truncation error of the difference quotient).
"""

import itertools

import numpy as np
import pytest

from anchorinv import autodiff as ad
from anchorinv.autodiff import NonFiniteError, ShapeError, Tensor, backward
from anchorinv.model import BACKBONE_PRESETS
from oracles import col2im_loop, conv_windows, finite_difference_check, nll

FD_TOL = 1e-6  # worst relative error allowed for analytic-vs-numeric gradients


def _t(arr, requires_grad=True):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=requires_grad)


# ---------------------------------------------------------------------------
# construction / bookkeeping


def test_tensor_defaults_to_float32():
    t = Tensor([1, 2, 3])
    assert t.dtype == np.float32
    assert t.shape == (3,)
    assert not t.requires_grad


def test_tensor_preserves_float64():
    t = Tensor(np.zeros(4, dtype=np.float64))
    assert t.dtype == np.float64


def test_tensor_rejects_non_finite():
    with pytest.raises(NonFiniteError):
        Tensor([1.0, np.nan])
    with pytest.raises(NonFiniteError):
        Tensor([np.inf])


def test_item_requires_scalar():
    assert Tensor([3.5]).item() == pytest.approx(3.5)
    with pytest.raises(ShapeError):
        Tensor([1.0, 2.0]).item()


def test_detach_breaks_graph():
    # a Tensor built from a node's data starts a new graph
    a = _t([1.0, 2.0])
    d = Tensor(ad.mul_scalar(a, 2.0).data)
    assert not d.requires_grad
    np.testing.assert_allclose(d.data, [2.0, 4.0])


def test_node_without_a_parent_that_requires_grad_records_no_graph():
    a = _t([1.0, 2.0], requires_grad=False)
    out = ad.mul_scalar(a, 3.0)
    assert not out.requires_grad
    assert out._node is None
    a.requires_grad = True
    out2 = ad.mul_scalar(a, 3.0)
    # a leaf is its own gradient target
    assert out2.requires_grad and out2._node.parents == (a,)


# ---------------------------------------------------------------------------
# elementwise forward values


def test_elementwise_forward_oracles():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((3, 4))
    y = rng.standard_normal((3, 4))
    a, b = _t(x), _t(y)
    np.testing.assert_allclose(ad.add(a, b).data, x + y)
    np.testing.assert_allclose(ad.sub(a, b).data, x - y)
    np.testing.assert_allclose(ad.mul(a, b).data, x * y)
    np.testing.assert_allclose(ad.add_scalar(a, 1.5).data, x + 1.5)
    np.testing.assert_allclose(ad.mul_scalar(a, -2.0).data, -2.0 * x)
    np.testing.assert_allclose(ad.neg(a).data, -x)
    np.testing.assert_allclose(ad.relu(a).data, np.maximum(x, 0.0))
    np.testing.assert_allclose(ad.exp(a).data, np.exp(x))
    np.testing.assert_allclose(ad.absolute(a).data, np.abs(x))
    np.testing.assert_allclose(ad.log(Tensor(np.abs(x) + 1.0, requires_grad=True)).data,
                               np.log(np.abs(x) + 1.0))


def test_tensor_has_no_operator_sugar():
    # every graph is built by calling the primitives by name
    a, b = _t([1.0]), _t([2.0])
    for op in (lambda: a + b, lambda: a - 1.0, lambda: 3.0 * a, lambda: a / b,
               lambda: -a, lambda: a @ b):
        with pytest.raises(TypeError):
            op()
    for name in ("mean", "relu", "detach"):
        assert not hasattr(a, name), name


def test_elementwise_shape_mismatch_raises():
    a, b = _t(np.zeros((2, 3))), _t(np.zeros((3, 2)))
    for op in (ad.add, ad.sub, ad.mul):
        with pytest.raises(ShapeError):
            op(a, b)


def test_dtype_mismatch_raises():
    a = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
    b = Tensor(np.zeros(3, dtype=np.float64), requires_grad=True)
    with pytest.raises(ShapeError):
        ad.add(a, b)


# ---------------------------------------------------------------------------
# shape / reduction forward values


def test_reshape_transpose_forward():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((2, 6))
    a = _t(x)
    np.testing.assert_allclose(ad.reshape(a, (3, 4)).data, x.reshape(3, 4))
    np.testing.assert_allclose(ad.transpose(a).data, x.T)
    with pytest.raises(ShapeError):
        ad.reshape(a, (5, 5))
    with pytest.raises(ShapeError):
        ad.transpose(_t(np.zeros(3)))


def test_sum_mean_forward():
    rng = np.random.default_rng(14)
    x = rng.standard_normal((3, 5))
    a = _t(x)
    np.testing.assert_allclose(ad.tensor_sum(a).data, x.sum())
    np.testing.assert_allclose(ad.tensor_sum(a, axis=0).data, x.sum(axis=0))
    np.testing.assert_allclose(ad.tensor_sum(a, axis=1).data, x.sum(axis=1))
    np.testing.assert_allclose(ad.tensor_mean(a).data, x.mean())
    np.testing.assert_allclose(ad.tensor_mean(a, axis=1).data, x.mean(axis=1), rtol=1e-12)


def test_l2_norm_forward():
    x = np.array([3.0, 4.0])
    assert ad.l2_norm(_t(x)).item() == pytest.approx(5.0)


def test_matmul_forward_and_errors():
    rng = np.random.default_rng(15)
    x = rng.standard_normal((3, 4))
    y = rng.standard_normal((4, 2))
    v = rng.standard_normal(4)
    np.testing.assert_allclose(ad.matmul(_t(x), _t(y)).data, x @ y, rtol=1e-12)
    np.testing.assert_allclose(ad.matmul(_t(x), _t(v)).data, x @ v, rtol=1e-12)
    with pytest.raises(ShapeError):
        ad.matmul(_t(x), _t(rng.standard_normal((3, 2))))
    with pytest.raises(ShapeError):
        ad.matmul(_t(v), _t(v))


# ---------------------------------------------------------------------------
# conv / pool forward oracles (explicit loops)


def _conv2d_loops(x, w, b, stride):
    n, c, h, wd = x.shape
    k, _, kh, kw = w.shape
    sh, sw = stride
    ho = (h - kh) // sh + 1
    wo = (wd - kw) // sw + 1
    out = np.zeros((n, k, ho, wo), dtype=x.dtype)
    for ni in range(n):
        for ki in range(k):
            for i in range(ho):
                for j in range(wo):
                    patch = x[ni, :, i * sh:i * sh + kh, j * sw:j * sw + kw]
                    out[ni, ki, i, j] = np.sum(patch * w[ki])
            if b is not None:
                out[ni, ki] += b[ki]
    return out


def test_conv2d_matches_loop_oracle():
    rng = np.random.default_rng(16)
    for stride in [(1, 1), (1, 2), (2, 3)]:
        x = rng.standard_normal((2, 3, 6, 9))
        w = rng.standard_normal((4, 3, 2, 3))
        b = rng.standard_normal(4)
        out = ad.conv2d(_t(x), _t(w), _t(b), stride=stride)
        np.testing.assert_allclose(out.data, _conv2d_loops(x, w, b, stride), rtol=1e-10)


def test_conv2d_shape_errors():
    x = _t(np.zeros((1, 2, 4, 4)))
    with pytest.raises(ShapeError):
        ad.conv2d(x, _t(np.zeros((3, 5, 2, 2))))          # channel mismatch
    with pytest.raises(ShapeError):
        ad.conv2d(x, _t(np.zeros((3, 2, 5, 2))))          # kernel taller than input
    with pytest.raises(ShapeError):
        ad.conv2d(x, _t(np.zeros((3, 2, 2, 2))), stride=(0, 1))
    with pytest.raises(ShapeError):
        ad.conv2d(x, _t(np.zeros((3, 2, 2, 2))), _t(np.zeros(4)))  # bias length


def _conv2d_einsum_reference(x, w, b, g, stride):
    """Output and (dx, dW, db) of sum(conv2d(x, w, b) * g), from sliding windows."""
    windows = conv_windows(x, w.shape[2], w.shape[3], *stride)
    out = np.einsum("ncijpq,kcpq->nkij", windows, w)
    if b is not None:
        out = out + b[None, :, None, None]
    dw = np.einsum("nkij,ncijpq->kcpq", g, windows)
    dx = np.zeros_like(x)
    dwindows = np.einsum("nkij,kcpq->ncijpq", g, w)
    for i in range(out.shape[2]):
        for j in range(out.shape[3]):
            dx[:, :, i * stride[0]:i * stride[0] + w.shape[2],
               j * stride[1]:j * stride[1] + w.shape[3]] += dwindows[:, :, i, j]
    return out, (dx, dw, None if b is None else g.sum(axis=(0, 2, 3)))


# (x shape, weight shape) of full-height kernels: tiny, the desk spatial conv
# (8 filters over 4 channels, 56 columns) and a reduced bci-like one (22 channels)
_FULL_HEIGHT_CASES = [((2, 2, 3, 5), (3, 2, 3, 1)),
                      ((2, 8, 4, 56), (8, 8, 4, 1)),
                      ((1, 6, 22, 10), (6, 6, 22, 1))]

# (x shape, weight shape, stride, bias) of every kernel class conv2d serves
_CONV2D_CASES = {
    "2x3": ((2, 3, 6, 9), (4, 3, 2, 3), (1, 1), True),
    "2x3-tiling-stride": ((2, 3, 6, 9), (4, 3, 2, 3), (2, 3), True),
    "temporal": ((2, 1, 4, 64), (8, 1, 1, 9), (1, 1), True),
    "temporal-stride-4": ((2, 1, 4, 64), (8, 1, 1, 9), (1, 4), True),
    "total-variation": ((2, 1, 3, 7), (1, 1, 1, 2), (1, 1), False),
    **{f"full-height-{i}": (xs, ws, (1, 1), True) for i, (xs, ws) in enumerate(_FULL_HEIGHT_CASES)},
    "full-height-k5-stride-3": ((2, 1, 4, 23), (4, 1, 4, 5), (1, 3), True),
    "stride-over-kernel": ((2, 2, 7, 11), (3, 2, 2, 2), (3, 4), True),
    "empty-batch": ((0, 1, 4, 16), (8, 1, 1, 9), (1, 1), True),
}


@pytest.mark.parametrize("x_shape,w_shape,stride,with_bias", _CONV2D_CASES.values(),
                         ids=_CONV2D_CASES.keys())
def test_conv2d_matches_einsum_reference(x_shape, w_shape, stride, with_bias):
    rng = np.random.default_rng(19)
    x = rng.standard_normal(x_shape)
    w = rng.standard_normal(w_shape)
    b = rng.standard_normal(w_shape[0]) if with_bias else None
    ho = (x_shape[2] - w_shape[2]) // stride[0] + 1
    wo = (x_shape[3] - w_shape[3]) // stride[1] + 1
    g = rng.standard_normal((x_shape[0], w_shape[0], ho, wo))
    ts = [_t(x), _t(w)] + ([_t(b)] if with_bias else [])
    out = ad.conv2d(*ts, stride=stride)
    backward(ad.tensor_sum(ad.mul(out, _t(g, False))))
    ref, ref_grads = _conv2d_einsum_reference(x, w, b, g, stride)
    np.testing.assert_allclose(out.data, ref, rtol=1e-10, atol=1e-12)
    for t, want in zip(ts, ref_grads):
        np.testing.assert_allclose(t.grad, want, rtol=1e-10, atol=1e-12)


# (x shape, weight shape, stride): the temporal stride 1 and 4 of a (H, k)
# kernel over one channel, a 1-wide full-height kernel (its im2col is a view),
# and the empty batch
_BLOCKED_CONV2D_CASES = {
    "stride-1": ((5, 1, 3, 23), (4, 1, 3, 5), (1, 1)),
    "stride-4": ((5, 1, 3, 23), (4, 1, 3, 5), (1, 4)),
    "full-height-1-wide": ((5, 6, 4, 12), (3, 6, 4, 1), (1, 1)),
    "empty-batch": ((0, 1, 3, 23), (4, 1, 3, 5), (1, 1)),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("x_shape,w_shape,stride", _BLOCKED_CONV2D_CASES.values(),
                         ids=_BLOCKED_CONV2D_CASES.keys())
def test_conv2d_blocks_keep_every_bit(monkeypatch, dtype, x_shape, w_shape, stride):
    """The output, dW, db and dx of ``conv2d`` are the same bits in one block,
    in blocks of two samples and in one sample per block; an empty batch
    gives a zero dW of the weight's shape."""
    rng = np.random.default_rng(20)
    x = rng.standard_normal(x_shape).astype(dtype)
    w = rng.standard_normal(w_shape).astype(dtype)
    b = rng.standard_normal(w_shape[0]).astype(dtype)
    _, c, h, width = x_shape
    _, _, kh, kw = w_shape
    sample_bytes = (c * kh * kw * ((h - kh) // stride[0] + 1) * ((width - kw) // stride[1] + 1)
                    * x.itemsize)
    results = []
    for block_bytes in (ad._IM2COL_BLOCK_BYTES, 2 * sample_bytes, 1):
        monkeypatch.setattr(ad, "_IM2COL_BLOCK_BYTES", block_bytes)
        ts = [Tensor(a.copy(), requires_grad=True) for a in (x, w, b)]
        out = ad.conv2d(*ts, stride=stride)
        g = np.random.default_rng(21).standard_normal(out.shape).astype(dtype)
        backward(ad.tensor_sum(ad.mul(out, Tensor(g))))
        results.append([out.data] + [t.grad for t in ts])
    for name, one_block, *blocked in zip(["out", "dx", "dW", "db"], *results):
        assert one_block.dtype == dtype, name
        assert all(one_block.tobytes() == a.tobytes() for a in blocked), name
    assert results[-1][2].shape == w_shape
    if x_shape[0] == 0:
        assert not results[-1][2].any() and not results[-1][3].any()


@pytest.mark.parametrize("x_shape,w_shape", _FULL_HEIGHT_CASES)
def test_fd_conv2d_full_height(x_shape, w_shape):
    rng = np.random.default_rng(28)
    inputs = [_t(rng.standard_normal(x_shape)), _t(rng.standard_normal(w_shape)),
              _t(rng.standard_normal(w_shape[0]))]
    # the loss is quadratic in every coordinate, so central differences carry
    # no truncation error; a wider step keeps float64 rounding of the large
    # sums (thousands of squared outputs) below the tolerance
    err = finite_difference_check(
        lambda ts: ad.tensor_sum(ad.mul(ad.conv2d(*ts), ad.conv2d(*ts))), inputs, eps=1e-3)
    assert err < FD_TOL


# (size, kernel, stride) of one axis: windows that tile it (stride = kernel,
# or one window over the whole axis), overlap, leave gaps or leave the end out
_AXIS_CASES = [(6, 2, 2), (5, 1, 1), (4, 4, 1), (4, 4, 5),
               (7, 3, 1), (6, 3, 2),
               (11, 2, 4), (7, 2, 2), (5, 3, 4), (7, 1, 2)]


def test_col2im_is_adjoint_of_im2col():
    """<im2col(x), y> == <x, col2im(y)> for every pair of axis cases."""
    rng = np.random.default_rng(33)
    for (h, kh, sh), (w, kw, sw) in itertools.product(_AXIS_CASES, repeat=2):
        x = rng.standard_normal((2, 3, h, w))
        cols = ad._im2col(x, kh, kw, sh, sw)
        y = rng.standard_normal(cols.shape)
        back = ad._col2im(y, x.shape, kh, kw, sh, sw)
        assert back.shape == x.shape
        np.testing.assert_allclose(np.vdot(cols, y), np.vdot(x, back), rtol=1e-12,
                                   err_msg=f"h {(h, kh, sh)}, w {(w, kw, sw)}")


@pytest.mark.parametrize("name,n", [("desk", 30), ("bci", 1), ("nhie", 2)])
def test_col2im_has_the_bits_of_the_offset_loop(name, n):
    """``_col2im`` of the ``conv_pool`` VJP (a kernel of the full input
    height; column stride 1 at desk and bci, 4 at nhie) writes the bytes of
    adding one kernel offset at a time onto zeros (``oracles.col2im_loop``),
    for column gradients with +0.0 and -0.0 entries; so do the
    total-variation kernel and a multi-channel full-height kernel."""
    cfg = BACKBONE_PRESETS[name]
    h, w, kt, stride = cfg.channels, cfg.timesteps, cfg.temporal_kernel, cfg.temporal_stride
    rng = np.random.default_rng(35)
    for c, kh, kw, sw in [(1, h, kt, stride), (1, 1, 2, 1), (3, h, 5, 1)]:
        shape = (n, c, h, w)
        cols = rng.standard_normal(ad._im2col(np.zeros(shape, np.float32), kh, kw, 1, sw).shape)
        cols = cols.astype(np.float32)
        draw = rng.random(cols.shape)
        cols[draw < 0.2], cols[draw > 0.8] = 0.0, -0.0
        expect = col2im_loop(cols, shape, kh, kw, 1, sw)
        got = ad._col2im(cols, shape, kh, kw, 1, sw)
        assert got.dtype == expect.dtype and got.shape == expect.shape
        assert got.tobytes() == expect.tobytes(), (c, kh, kw, sw)


def test_im2col_and_col2im_need_no_copy_for_the_spatial_conv():
    """A full-height kernel one column wide at column stride 1 reads its
    columns in place and writes its input gradient in place."""
    rng = np.random.default_rng(34)
    x = rng.standard_normal((2, 3, 4, 5))
    assert np.shares_memory(ad._im2col(x, 4, 1, 1, 1), x)
    y = rng.standard_normal((2, 12, 5))
    assert np.shares_memory(ad._col2im(y, x.shape, 4, 1, 1, 1), y)


def test_compose_conv_shape_errors():
    tw, tb, sw, sb = _t(np.zeros((4, 1, 1, 3))), _t(np.zeros(4)), _t(np.zeros((5, 4, 2, 1))), \
        _t(np.zeros(5))
    assert [t.shape for t in ad.compose_conv(tw, tb, sw, sb)] == [(5, 6, 1, 1), (5,)]
    with pytest.raises(ShapeError):
        ad.compose_conv(tw, tb, _t(np.zeros((5, 3, 2, 1))), sb)   # filter count
    with pytest.raises(ShapeError):
        ad.compose_conv(tw, tb, sw, _t(np.zeros(4)))              # bias length
    with pytest.raises(ShapeError):
        ad.compose_conv(tw, tb, _t(np.zeros((5, 4, 2, 2))), sb)   # spatial kernel not (H, 1)
    with pytest.raises(ShapeError):
        ad.compose_conv(Tensor(np.zeros((4, 1, 1, 3), dtype=np.float32)), tb, sw, sb)


# the ``finite_difference_check`` of a large summed loss needs a wider step than
# its default: float64 rounding over 2 * eps reads as error on small gradients,
# and both losses are polynomials, so a wide step adds no truncation error
_FD_WIDE_EPS = 1e-3


def test_fd_compose_conv():
    rng = np.random.default_rng(37)
    params = [_t(rng.standard_normal(shape)) for shape in [(3, 1, 1, 4), (3,), (5, 3, 2, 1), (5,)]]
    gw = _t(rng.standard_normal((5, 8, 1, 1)), False)
    gb = _t(rng.standard_normal(5), False)

    def fn(ts):
        weight, bias = ad.compose_conv(*ts)
        return ad.add(ad.tensor_sum(ad.mul(ad.mul(weight, weight), gw)),
                      ad.tensor_sum(ad.mul(ad.mul(bias, bias), gb)))

    assert finite_difference_check(fn, params, eps=_FD_WIDE_EPS) < FD_TOL


def test_avg_pool2d_matches_loop_oracle():
    rng = np.random.default_rng(17)
    x = rng.standard_normal((2, 3, 6, 8))
    out = ad.avg_pool2d(_t(x), kernel=(2, 3), stride=(2, 2))
    n, c, h, w = x.shape
    ho = (h - 2) // 2 + 1
    wo = (w - 3) // 2 + 1
    expect = np.zeros((n, c, ho, wo))
    for i in range(ho):
        for j in range(wo):
            expect[:, :, i, j] = x[:, :, 2 * i:2 * i + 2, 2 * j:2 * j + 3].mean(axis=(2, 3))
    np.testing.assert_allclose(out.data, expect, rtol=1e-12)


def _avg_pool2d_loops(x, kernel, stride):
    n, c, h, w = x.shape
    (kh, kw), (sh, sw) = kernel, stride
    out = np.zeros((n, c, (h - kh) // sh + 1, (w - kw) // sw + 1))
    for i in range(out.shape[2]):
        for j in range(out.shape[3]):
            out[:, :, i, j] = x[:, :, i * sh:i * sh + kh, j * sw:j * sw + kw].mean(axis=(2, 3))
    return out


# (x shape, kernel, stride) of the pooling geometries avg_pool2d serves
_POOL_CASES = {
    "tiling": ((2, 3, 4, 8), (2, 2), (2, 2)),
    "desk-overlap-8-4": ((2, 3, 1, 56), (1, 8), (1, 4)),
    "bci-overlap-75-15": ((2, 2, 1, 120), (1, 75), (1, 15)),
    "gaps": ((2, 3, 7, 11), (2, 2), (3, 4)),
    "uncovered-tail": ((2, 3, 1, 23), (1, 5), (1, 4)),
    "kh-over-1": ((2, 3, 6, 8), (3, 2), (1, 2)),
    "full-width": ((2, 3, 1, 9), (1, 9), (1, 1)),
    "empty-batch": ((0, 3, 1, 16), (1, 4), (1, 2)),
}


@pytest.mark.parametrize("x_shape,kernel,stride", _POOL_CASES.values(), ids=_POOL_CASES.keys())
def test_avg_pool2d_matches_loop_oracle_and_its_vjp_is_the_adjoint(x_shape, kernel, stride):
    """Forward equals the loop oracle, and <pool(x), y> == <x, VJP(y)>."""
    rng = np.random.default_rng(35)
    x = _t(rng.standard_normal(x_shape))
    out = ad.avg_pool2d(x, kernel, stride)
    np.testing.assert_allclose(out.data, _avg_pool2d_loops(x.data, kernel, stride), rtol=1e-12)
    y = rng.standard_normal(out.shape)
    backward(ad.tensor_sum(ad.mul(out, _t(y, False))))
    assert x.grad.shape == x.shape
    np.testing.assert_allclose(np.vdot(out.data, y), np.vdot(x.data, x.grad), rtol=1e-12)


def test_avg_pool2d_runs_without_im2col(monkeypatch):
    """Pooling is two pooling-matrix products: no window copy, no scatter."""
    def forbidden(*args):
        raise AssertionError("avg_pool2d must not build or scatter im2col columns")

    monkeypatch.setattr(ad, "_im2col", forbidden)
    monkeypatch.setattr(ad, "_col2im", forbidden)
    x = _t(np.random.default_rng(36).standard_normal((3, 2, 1, 56)))
    backward(ad.tensor_sum(ad.avg_pool2d(x, (1, 8), (1, 4))))
    assert x.grad.shape == x.shape


@pytest.mark.parametrize("x_shape,kernel,stride", [((60, 8, 1, 56), 8, 4),
                                                   ((4, 40, 1, 976), 75, 15)])
def test_avg_pool2d_at_unit_height_has_the_bits_of_both_products(x_shape, kernel, stride):
    """At H = 1 the height product is a 1 x 1 identity and is skipped: the
    forward and the VJP keep the bits of ``ph.T @ (x @ pw)`` and
    ``ph @ g @ pw.T`` (desk and bci shapes, float32)."""
    rng = np.random.default_rng(38)
    x = Tensor(rng.standard_normal(x_shape).astype(np.float32), requires_grad=True)
    n, c, h, w = x_shape
    ph = ad._pool_matrix(1, 1, 1, x.dtype)
    pw = ad._pool_matrix(w, kernel, stride, x.dtype)
    wo = pw.shape[1]
    out = ad.avg_pool2d(x, (1, kernel), (1, stride))
    expect = ph.T @ (x.data.reshape(-1, w) @ pw).reshape(n, c, h, wo)
    assert out.data.tobytes() == expect.tobytes()
    g = rng.standard_normal(out.shape).astype(np.float32)
    backward(ad.tensor_sum(ad.mul(out, Tensor(g))))
    assert x.grad.tobytes() == ((ph @ g).reshape(-1, wo) @ pw.T).reshape(x_shape).tobytes()


def test_pool_matrix_is_cached_and_read_only():
    first = ad._pool_matrix(56, 8, 4, np.dtype(np.float32))
    assert ad._pool_matrix(56, 8, 4, np.dtype(np.float32)) is first
    assert ad._pool_matrix(56, 8, 4, np.dtype(np.float64)) is not first
    with pytest.raises(ValueError):
        first[0, 0] = 1.0


def _conv_pool_by_engine(x, w, b, stride, pool_kernel, pool_stride):
    """conv_pool written with the generic primitives: its reference."""
    n, h, width = x.shape
    k, _, kt = w.shape
    out = ad.conv2d(x.reshape((n, 1, h, width)), _t(w.reshape(k, 1, h, kt), False),
                    _t(b, False), stride=(1, stride))
    out = ad.avg_pool2d(ad.relu(out), kernel=(1, pool_kernel), stride=(1, pool_stride))
    return out.reshape((n, out.size // n))


def _conv_pool_operands(rng, x_shape, w_shape, cut):
    """x, w and b; without ``cut`` the bias lifts every conv output above
    zero, where the ReLU passes all and conv_pool is linear in x."""
    x = rng.standard_normal(x_shape)
    w = rng.standard_normal(w_shape)
    b = rng.standard_normal(w_shape[0])
    if not cut:
        b = np.abs(b) + np.abs(w).sum(axis=(1, 2)) * np.abs(x).max()
    return x, w, b


# (stride, pool kernel, pool stride, cut): stride 1 with tiling windows, a
# temporal stride, pooling windows that leave the last columns out, and no
# output cut by the ReLU
_CONV_POOL_CASES = [(1, 4, 2, True), (3, 3, 2, True), (1, 5, 4, True), (2, 4, 3, False)]


@pytest.mark.parametrize("stride,pool_kernel,pool_stride,cut", _CONV_POOL_CASES)
def test_conv_pool_matches_engine_primitives(monkeypatch, stride, pool_kernel, pool_stride,
                                             cut):
    rng = np.random.default_rng(18)
    x, w, b = _conv_pool_operands(rng, (5, 3, 23), (4, 3, 5), cut)
    xr = _t(x.copy())
    ref = _conv_pool_by_engine(xr, w, b, stride, pool_kernel, pool_stride)
    g = _t(rng.standard_normal(ref.shape), False)
    backward(ad.tensor_sum(ad.mul(ref, g)))
    for block_bytes in (ad._IM2COL_BLOCK_BYTES, 1):  # one block; one sample per block
        monkeypatch.setattr(ad, "_IM2COL_BLOCK_BYTES", block_bytes)
        xt = _t(x.copy())
        out = ad.conv_pool(xt, w, b, stride, pool_kernel, pool_stride)
        backward(ad.tensor_sum(ad.mul(out, g)))
        np.testing.assert_allclose(out.data, ref.data, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(xt.grad, xr.grad, rtol=1e-10, atol=1e-12)


def test_bci_convs_build_one_sample_of_columns_per_block(monkeypatch):
    """At the bci geometry (22 x 1000, k_t = 25: 2.05 MB of columns a sample)
    the default budget makes every ``_im2col`` of ``conv2d``'s forward and dW
    and of ``conv_pool``'s forward, and every ``_col2im`` of their dx, one
    sample's; the outputs, dW, db and both dx are the bits of a 16 MB budget,
    which holds all three samples in one block."""
    cfg = BACKBONE_PRESETS["bci"]
    n, h, width, kt, k = 3, cfg.channels, cfg.timesteps, cfg.temporal_kernel, cfg.filters
    rng = np.random.default_rng(23)
    x = rng.standard_normal((n, h, width)).astype(np.float32)
    w = (rng.standard_normal((k, h, kt)) / np.sqrt(h * kt)).astype(np.float32)
    b = (0.1 * rng.standard_normal(k)).astype(np.float32)
    im2col, col2im = ad._im2col, ad._col2im

    def run(budget):
        """(kernel, leading dimension) per call, and the conv results."""
        calls = []

        def im2col_spy(xd, *args):
            calls.append(("im2col", xd.shape[0]))
            return im2col(xd, *args)

        def col2im_spy(cols, shape, *args):
            calls.append(("col2im", shape[0]))
            return col2im(cols, shape, *args)

        monkeypatch.setattr(ad, "_IM2COL_BLOCK_BYTES", budget)
        monkeypatch.setattr(ad, "_im2col", im2col_spy)
        monkeypatch.setattr(ad, "_col2im", col2im_spy)
        ts = [Tensor(a.copy(), requires_grad=True)
              for a in (x.reshape(n, 1, h, width), w.reshape(k, 1, h, kt), b)]
        out = ad.conv2d(*ts, stride=(1, cfg.temporal_stride))
        backward(ad.tensor_sum(ad.mul(out, Tensor(np.sin(out.data)))))
        xp = Tensor(x.copy(), requires_grad=True)
        pooled = ad.conv_pool(xp, w, b, cfg.temporal_stride, cfg.pool_kernel, cfg.pool_stride)
        backward(ad.tensor_sum(ad.mul(pooled, Tensor(np.cos(pooled.data)))))
        return calls, [out.data] + [t.grad for t in ts] + [pooled.data, xp.grad]

    calls, got = run(ad._IM2COL_BLOCK_BYTES)
    # conv2d: forward and dW im2col, dx col2im; conv_pool: forward im2col, dx col2im
    assert calls == ([("im2col", 1)] * 2 * n + [("col2im", 1)] * n
                     + [("im2col", 1)] * n + [("col2im", 1)] * n)
    calls, want = run(16 << 20)
    assert calls == [("im2col", n)] * 2 + [("col2im", n), ("im2col", n), ("col2im", n)]
    for name, a, c in zip(["out", "dx", "dW", "db", "pooled", "pooled dx"], got, want):
        assert a.tobytes() == c.tobytes(), name


def test_conv_pool_shape_errors():
    x = _t(np.zeros((2, 3, 10)))
    w, b = np.zeros((4, 3, 5)), np.zeros(4)
    with pytest.raises(ShapeError):
        ad.conv_pool(x, np.zeros((4, 2, 5)), b, 1, 2, 1)  # channel mismatch
    with pytest.raises(ShapeError):
        ad.conv_pool(x, w, np.zeros(3), 1, 2, 1)          # bias length
    with pytest.raises(ShapeError):
        ad.conv_pool(x, w, b, 0, 2, 1)                    # stride
    with pytest.raises(ShapeError):
        ad.conv_pool(x, w, b, 1, 7, 1)                    # pool wider than conv
    with pytest.raises(ShapeError):
        ad.conv_pool(_t(np.zeros((2, 30))), w, b, 1, 2, 1)  # not (N, H, W)


# ---------------------------------------------------------------------------
# fused primitives: forward oracles


def test_softmax_forward_oracle():
    rng = np.random.default_rng(18)
    x = rng.standard_normal((4, 6))
    for temp in (1.0, 16.0):
        out = ad.softmax_with_temperature(_t(x), temp).data
        z = np.exp(x / temp)
        np.testing.assert_allclose(out, z / z.sum(axis=-1, keepdims=True), rtol=1e-12)
        np.testing.assert_allclose(out.sum(axis=-1), np.ones(4), rtol=1e-12)
    with pytest.raises(ValueError):
        ad.softmax_with_temperature(_t(x), 0.0)


def test_softmax_large_logits_stable():
    x = _t(np.array([[1000.0, 1000.0, -1000.0]]))
    out = ad.softmax_with_temperature(x, 1.0).data
    np.testing.assert_allclose(out, [[0.5, 0.5, 0.0]], atol=1e-12)


def test_cosine_similarity_matrix_oracle():
    rng = np.random.default_rng(19)
    a = rng.standard_normal((5, 7))
    b = rng.standard_normal((3, 7))
    out = ad.cosine_similarity_matrix(_t(a), _t(b)).data
    expect = np.zeros((5, 3))
    for i in range(5):
        for j in range(3):
            expect[i, j] = a[i] @ b[j] / (np.linalg.norm(a[i]) * np.linalg.norm(b[j]))
    np.testing.assert_allclose(out, expect, rtol=1e-10)
    with pytest.raises(ShapeError):
        ad.cosine_similarity_matrix(_t(a), _t(rng.standard_normal((3, 5))))


def test_cosine_similarity_vjp_drops_the_norm_term_of_clamped_rows():
    """The VJP with a row of each side below ``eps`` (``_NORM_EPS``) equals
    the masked formula, ``np.where`` over the live rows, and a clamped row's
    gradient is its direction term alone: (g @ v) / eps."""
    rng = np.random.default_rng(37)
    eps = ad._NORM_EPS
    a, b, g = rng.standard_normal((4, 6)), rng.standard_normal((3, 6)), rng.standard_normal((4, 3))
    a[2] *= 1e-14 / np.linalg.norm(a[2])
    b[1] *= 1e-14 / np.linalg.norm(b[1])
    at, bt = _t(a), _t(b)
    cos = ad.cosine_similarity_matrix(at, bt)
    backward(ad.tensor_sum(ad.mul(cos, _t(g, False))))
    na, nb = np.linalg.norm(a, axis=1), np.linalg.norm(b, axis=1)
    na_c, nb_c = np.maximum(na, eps)[:, None], np.maximum(nb, eps)[:, None]
    u, v = a / na_c, b / nb_c
    live_a, live_b = (na > eps)[:, None], (nb > eps)[:, None]
    da = (g @ v - np.where(live_a, (g * cos.data).sum(axis=1)[:, None] * u, 0.0)) / na_c
    db = (g.T @ u - np.where(live_b, (g * cos.data).sum(axis=0)[:, None] * v, 0.0)) / nb_c
    np.testing.assert_array_equal(at.grad, da)
    np.testing.assert_array_equal(bt.grad, db)
    np.testing.assert_array_equal(at.grad[2], (g @ v)[2] / eps)
    np.testing.assert_array_equal(bt.grad[1], (g.T @ u)[1] / eps)


def test_take_per_row_forward():
    x = _t(np.arange(12, dtype=np.float64).reshape(3, 4))
    out = ad.take_per_row(x, np.array([0, 3, 1]))
    np.testing.assert_allclose(out.data, [0.0, 7.0, 9.0])
    with pytest.raises(ShapeError):
        ad.take_per_row(x, np.array([0, 4, 1]))
    with pytest.raises(ShapeError):
        ad.take_per_row(x, np.array([0, 1]))


def _head_inputs(rng, n, k, d, dtype, zero_rows=False):
    """Features (N, D) and K class-weight rows (D,), all trainable; with
    ``zero_rows`` about a tenth of each side is exactly zero, which the
    cosine clamps."""
    feats, rows = rng.standard_normal((n, d)), rng.standard_normal((k, d))
    if zero_rows:
        feats[rng.random(n) < 0.1] = 0.0
        rows[rng.random(k) < 0.1] = 0.0
    return (Tensor(feats.astype(dtype), requires_grad=True),
            [Tensor(r.astype(dtype), requires_grad=True) for r in rows])


def _head_chain(feats, rows, temperature):
    """The classifier probabilities as the chain of primitives ``cosine_nll``
    fuses: stack, cosine, softmax."""
    return ad.softmax_with_temperature(ad.cosine_similarity_matrix(feats, ad.stack_rows(rows)),
                                       temperature)


def _head_bits(loss, feats, rows, downstream):
    backward(ad.mul_scalar(loss, downstream))
    assert loss.dtype == feats.dtype and feats.grad.dtype == feats.dtype
    return [np.asarray(loss.data).tobytes(), feats.grad.tobytes()] + [r.grad.tobytes()
                                                                       for r in rows]


# the fused loss and the chains it replaces, at desk shapes (60 base training
# samples of 6 classes, 70 finetune samples of 8, 8 label-space samples)
_NLL_CASES = {
    "mean": (60, 6, None, lambda p, c, w: ad.neg(ad.tensor_mean(ad.take_per_row(ad.log(p), c)))),
    "weighted": (70, 8, "weights",
                 lambda p, c, w: ad.tensor_sum(ad.mul(ad.take_per_row(ad.log(p), c), Tensor(w)))),
    "summed": (8, 8, "minus-ones",
               lambda p, c, w: ad.mul_scalar(ad.tensor_sum(ad.take_per_row(ad.log(p), c)), -1.0)),
}


@pytest.mark.parametrize("case", _NLL_CASES.values(), ids=_NLL_CASES.keys())
@pytest.mark.parametrize("downstream", [1.0, 0.37])
def test_nll_has_the_bits_of_the_chain(case, downstream):
    """Loss and gradients (to the features and to every class row) of
    ``cosine_nll`` equal those of the chain of primitives it replaces, bit
    for bit, in float32; ``downstream`` scales the loss afterwards, so the
    VJP also gets a gradient other than 1."""
    n, k, weighting, chain = case
    rng = np.random.default_rng(60)
    columns = rng.integers(0, k, n)
    weights = {None: None, "weights": rng.uniform(-0.1, 0.0, n).astype(np.float32),
               "minus-ones": np.full(n, -1.0, dtype=np.float32)}[weighting]
    results = []
    for fused in (True, False):
        feats, rows = _head_inputs(np.random.default_rng(61), n, k, 104, np.float32)
        loss = (ad.cosine_nll(feats, rows, columns, weights, 16.0) if fused
                else chain(_head_chain(feats, rows, 16.0), columns, weights))
        results.append(_head_bits(loss, feats, rows, downstream))
    assert results[0] == results[1]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_cosine_nll_has_the_bits_of_the_old_head(dtype):
    """On random batches (N <= 70, K <= 12, D of 7, 104 and 2440, some zero
    rows on each side, weights absent and given) the loss and every gradient
    of ``cosine_nll`` equal those of stack -> cosine -> softmax -> the
    one-node ``nll`` it replaced (``oracles.nll``), and a frozen side gets
    no gradient."""
    rng = np.random.default_rng(64)
    for trial in range(36):
        n, k = int(rng.integers(1, 71)), int(rng.integers(2, 13))
        d = (7, 104, 2440)[trial % 3]
        columns = rng.integers(0, k, n)
        weights = None if trial % 2 else rng.uniform(-1.0, 0.0, n)
        seed = int(rng.integers(1 << 30))
        results = []
        for fused in (True, False):
            feats, rows = _head_inputs(np.random.default_rng(seed), n, k, d, dtype, True)
            loss = (ad.cosine_nll(feats, rows, columns, weights, 16.0) if fused
                    else nll(_head_chain(feats, rows, 16.0), columns, weights))
            results.append(_head_bits(loss, feats, rows, 1.0))
        assert results[0] == results[1], (n, k, d, weights is None)
    feats, rows = _head_inputs(rng, 5, 3, 7, dtype)
    rows[1].requires_grad = False
    frozen_feats = Tensor(feats.data)
    backward(ad.cosine_nll(frozen_feats, rows, np.array([0, 1, 2, 1, 0]), None, 16.0))
    assert frozen_feats.grad is None and rows[1].grad is None
    assert rows[0].grad.shape == (7,) and rows[2].grad.shape == (7,)


def test_fd_nll_and_scaled_l1():
    """float64 central differences: ``cosine_nll`` in the features and the
    class rows, with and without weights, at the default eps (it is no
    polynomial); ``scaled_l1`` at eps 1e-3."""
    rng = np.random.default_rng(63)
    feats = rng.standard_normal((5, 4))
    rows = [rng.standard_normal(4) for _ in range(3)]
    columns = np.array([0, 2, 1, 1, 2])
    weights = rng.standard_normal(5)
    for w in (None, weights):
        assert finite_difference_check(
            lambda ts: ad.cosine_nll(ts[0], ts[1:], columns, w, 0.5),
            [_t(feats)] + [_t(r) for r in rows]) < FD_TOL
    a, b = rng.standard_normal((3, 7)), rng.standard_normal((3, 7))
    assert finite_difference_check(lambda ts: ad.scaled_l1(ts[0], ts[1], 0.25),
                                   [_t(a), _t(b)], eps=_FD_WIDE_EPS) < FD_TOL


def test_nll_of_a_zero_picked_probability_raises():
    # at temperature 1e-3 the other class's probability underflows to zero
    feats = _t(np.eye(2))
    rows = [_t([1.0, 0.0]), _t([0.0, 1.0])]
    with pytest.raises(NonFiniteError, match="cosine_nll"):
        ad.cosine_nll(feats, rows, np.array([1, 1]), None, 1e-3)
    with pytest.raises(NonFiniteError, match="cosine_nll"):
        ad.cosine_nll(feats, rows, np.array([1, 1]), np.array([0.0, 1.0]), 1e-3)
    # a zero the labels do not pick does not enter the loss
    assert ad.cosine_nll(feats, rows, np.array([0, 1]), None, 1e-3).item() == 0.0


def test_fused_loss_shape_errors():
    feats = _t(np.ones((3, 2)))
    rows = [_t([1.0, 0.0]), _t([0.0, 1.0])]
    for bad_feats, bad_rows in [(_t(np.ones(2)), rows), (feats, []),
                                (feats, [_t([1.0, 0.0]), _t([1.0, 0.0, 0.0])])]:
        with pytest.raises(ShapeError):
            ad.cosine_nll(bad_feats, bad_rows, np.array([0, 1, 0]), None, 1.0)
    with pytest.raises(ShapeError, match="dtypes"):
        ad.cosine_nll(feats, [rows[0], Tensor(np.ones(2, dtype=np.float32))],
                      np.array([0, 1, 0]), None, 1.0)
    for columns in ([0, 1], [0, 2, 1], [0, -1, 1]):
        with pytest.raises(ShapeError):
            ad.cosine_nll(feats, rows, np.array(columns), None, 1.0)
    with pytest.raises(ShapeError):
        ad.cosine_nll(feats, rows, np.array([0, 1, 1]), np.ones(2), 1.0)
    with pytest.raises(ValueError, match="temperature"):
        ad.cosine_nll(feats, rows, np.array([0, 1, 1]), None, 0.0)
    with pytest.raises(ShapeError):
        ad.scaled_l1(_t(np.zeros((2, 3))), _t(np.zeros((3, 2))), 1.0)
    with pytest.raises(ShapeError):
        ad.scaled_l1(_t(np.zeros(3)), Tensor(np.zeros(3, dtype=np.float32)), 1.0)


@pytest.mark.parametrize("downstream", [1.0, 0.37])
def test_scaled_l1_has_the_bits_of_the_chain(downstream):
    rng = np.random.default_rng(62)
    f0 = rng.standard_normal((24, 104)).astype(np.float32)
    target = Tensor(rng.standard_normal((24, 104)).astype(np.float32))
    results = []
    for fused in (True, False):
        f = Tensor(f0.copy(), requires_grad=True)
        loss = (ad.scaled_l1(f, target, 1.0 / 104) if fused
                else ad.mul_scalar(ad.tensor_sum(ad.absolute(ad.sub(f, target))), 1.0 / 104))
        backward(ad.mul_scalar(loss, downstream))
        results.append((np.asarray(loss.data).tobytes(), f.grad.tobytes()))
    assert results[0] == results[1]


def test_subtract_rowwise_forward():
    rng = np.random.default_rng(20)
    x = rng.standard_normal((4, 3))
    v = rng.standard_normal(3)
    out = ad.subtract_rowwise(_t(x), _t(v))
    np.testing.assert_allclose(out.data, x - v[None, :], rtol=1e-12)


def test_stack_rows_forward():
    rows = [_t([1.0, 2.0]), _t([3.0, 4.0]), _t([5.0, 6.0])]
    out = ad.stack_rows(rows)
    np.testing.assert_allclose(out.data, [[1, 2], [3, 4], [5, 6]])
    with pytest.raises(ShapeError):
        ad.stack_rows([])
    with pytest.raises(ShapeError):
        ad.stack_rows([_t([1.0]), _t([1.0, 2.0])])


# ---------------------------------------------------------------------------
# gradients: hand-derived cases


def test_backward_simple_chain():
    # d/dx sum((2x + 1)^2) = 4 * (2x + 1), elementwise via mul
    x = _t([0.5, -1.0, 2.0])
    y = ad.add_scalar(ad.mul_scalar(x, 2.0), 1.0)
    loss = ad.tensor_sum(ad.mul(y, y))
    backward(loss)
    np.testing.assert_allclose(x.grad, 4.0 * (2.0 * x.data + 1.0), rtol=1e-12)


def test_backward_fan_out_accumulates():
    # y = x * x uses x twice; gradient must accumulate both paths.
    x = _t([3.0])
    loss = ad.tensor_sum(ad.mul(x, x))
    backward(loss)
    np.testing.assert_allclose(x.grad, [6.0])


def test_backward_resets_previous_grads():
    x = _t([1.0, 2.0])
    loss = ad.tensor_sum(ad.mul(x, x))
    backward(loss)
    first = x.grad.copy()
    loss2 = ad.tensor_sum(ad.mul(x, x))
    backward(loss2)
    np.testing.assert_allclose(x.grad, first)  # not doubled


def test_backward_requires_scalar_and_graph():
    x = _t([1.0, 2.0])
    with pytest.raises(ShapeError):
        backward(ad.mul_scalar(x, 2.0))
    plain = Tensor([1.0])
    with pytest.raises(ValueError):
        backward(plain)


def test_backward_frees_every_node_gradient_and_sets_the_leaves():
    """After ``backward`` only the leaves hold a gradient: each node's is
    freed once its VJP has consumed it, fan-out included."""
    rng = np.random.default_rng(24)
    x = _t(rng.standard_normal((3, 4)))
    w = _t(rng.standard_normal((4, 2)))
    frozen = _t(rng.standard_normal((3, 2)), requires_grad=False)
    h = ad.relu(ad.matmul(x, w))
    loss = ad.tensor_sum(ad.mul(h, ad.add(h, frozen)))
    backward(loss)
    nodes, leaves, stack = [], [], [loss._node]
    while stack:
        target = stack.pop()
        if isinstance(target, ad._GradNode):
            nodes.append(target)
            stack += [p for p in target.parents if p is not None]
        else:
            leaves.append(target)
    assert len({id(n) for n in nodes}) == 5
    assert all(n.grad is None for n in nodes)
    assert {id(t) for t in leaves} == {id(x), id(w)}
    assert x.grad is not None and w.grad is not None and frozen.grad is None
    hd = np.maximum(x.data @ w.data, 0)
    np.testing.assert_allclose(w.grad, x.data.T @ ((2 * hd + frozen.data) * (hd > 0)),
                               rtol=1e-12)


def test_grad_does_not_flow_to_frozen_inputs():
    a = _t([1.0, 2.0])
    b = Tensor(np.array([3.0, 4.0]), requires_grad=False)
    loss = ad.tensor_sum(ad.mul(a, b))
    backward(loss)
    np.testing.assert_allclose(a.grad, b.data)
    assert b.grad is None


# ---------------------------------------------------------------------------
# gradients: finite-difference checks per primitive


def test_fd_elementwise_ops():
    rng = np.random.default_rng(21)
    x = rng.standard_normal((3, 4))
    y = rng.standard_normal((3, 4))

    cases = [
        lambda ts: ad.tensor_sum(ad.add(ts[0], ts[1])),
        lambda ts: ad.tensor_sum(ad.sub(ts[0], ts[1])),
        lambda ts: ad.tensor_sum(ad.mul(ts[0], ts[1])),
        lambda ts: ad.tensor_sum(ad.exp(ad.mul_scalar(ts[0], 0.3))),
        lambda ts: ad.tensor_sum(ad.mul(ts[0], ad.add_scalar(ts[1], 2.0))),
    ]
    for fn in cases:
        err = finite_difference_check(fn, [_t(x.copy()), _t(y.copy())])
        assert err < FD_TOL


def test_fd_relu_away_from_kink():
    rng = np.random.default_rng(22)
    x = rng.standard_normal((4, 4))
    x[np.abs(x) < 0.1] = 0.5  # keep clear of the nondifferentiable point
    err = finite_difference_check(lambda ts: ad.tensor_sum(ad.relu(ts[0])), [_t(x)])
    assert err < FD_TOL


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_relu_is_bit_identical_to_the_masked_select(dtype):
    """Output and gradient equal ``np.where(a > 0, ...)`` bit for bit: -0.0,
    tiny values of either sign and the kink all give +0.0."""
    x = np.array([-0.0, 0.0, 1e-30, -1e-30, 2.5, -3.5, 7.0, -0.0], dtype=dtype).reshape(2, 4)
    a = Tensor(x, requires_grad=True)
    out = ad.relu(a)
    backward(ad.tensor_sum(out))
    for got, want in ((out.data, np.where(x > 0, x, dtype(0))),
                      (a.grad, np.where(x > 0, dtype(1), dtype(0)))):
        assert got.dtype == dtype
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


def test_fd_abs_and_log():
    rng = np.random.default_rng(23)
    x = np.abs(rng.standard_normal((3, 3))) + 0.5
    err = finite_difference_check(lambda ts: ad.tensor_sum(ad.log(ts[0])), [_t(x.copy())])
    assert err < FD_TOL
    err = finite_difference_check(lambda ts: ad.tensor_sum(ad.absolute(ts[0])), [_t(x.copy())])
    assert err < FD_TOL


def test_fd_reductions_and_shapes():
    rng = np.random.default_rng(24)
    x = rng.standard_normal((3, 4))
    cases = [
        lambda ts: ad.tensor_sum(ad.mul(ts[0], ts[0])),
        lambda ts: ad.tensor_mean(ad.mul(ts[0], ts[0])),
        lambda ts: ad.tensor_sum(ad.tensor_sum(ad.mul(ts[0], ts[0]), axis=0)),
        lambda ts: ad.tensor_sum(ad.tensor_mean(ad.mul(ts[0], ts[0]), axis=1)),
        lambda ts: ad.tensor_sum(ad.mul(ad.reshape(ts[0], (4, 3)), ad.reshape(ts[0], (4, 3)))),
        lambda ts: ad.tensor_sum(ad.mul(ad.transpose(ts[0]), ad.transpose(ts[0]))),
        lambda ts: ad.l2_norm(ts[0]),
    ]
    for fn in cases:
        err = finite_difference_check(fn, [_t(x.copy())])
        assert err < FD_TOL


def test_fd_matmul():
    rng = np.random.default_rng(25)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 2))
    v = rng.standard_normal(4)
    err = finite_difference_check(
        lambda ts: ad.tensor_sum(ad.mul(ad.matmul(ts[0], ts[1]), ad.matmul(ts[0], ts[1]))),
        [_t(a.copy()), _t(b.copy())])
    assert err < FD_TOL
    err = finite_difference_check(
        lambda ts: ad.tensor_sum(ad.mul(ad.matmul(ts[0], ts[1]), ad.matmul(ts[0], ts[1]))),
        [_t(a.copy()), _t(v.copy())])
    assert err < FD_TOL


def test_fd_conv2d_all_inputs():
    rng = np.random.default_rng(26)
    x = rng.standard_normal((2, 2, 5, 6))
    w = rng.standard_normal((3, 2, 2, 3))
    b = rng.standard_normal(3)
    for stride in [(1, 1), (2, 2), (1, 3)]:
        err = finite_difference_check(
            lambda ts: ad.tensor_sum(ad.mul(ad.conv2d(ts[0], ts[1], ts[2], stride=stride),
                                            ad.conv2d(ts[0], ts[1], ts[2], stride=stride))),
            [_t(x.copy()), _t(w.copy()), _t(b.copy())])
        assert err < FD_TOL, f"stride {stride}: {err}"


def test_fd_avg_pool2d():
    rng = np.random.default_rng(27)
    x = rng.standard_normal((2, 2, 6, 6))
    err = finite_difference_check(
        lambda ts: ad.tensor_sum(ad.mul(ad.avg_pool2d(ts[0], (2, 2), (2, 2)),
                                        ad.avg_pool2d(ts[0], (2, 2), (2, 2)))),
        [_t(x.copy())])
    assert err < FD_TOL


def test_fd_softmax_temperature():
    rng = np.random.default_rng(28)
    x = rng.standard_normal((3, 5))
    w = rng.standard_normal((3, 5))
    for temp in (1.0, 16.0):
        err = finite_difference_check(
            lambda ts: ad.tensor_sum(ad.mul(
                ad.softmax_with_temperature(ts[0], temp), ts[1])),
            [_t(x.copy()), Tensor(w, requires_grad=False)])
        assert err < FD_TOL


def test_fd_cosine_similarity_both_sides():
    rng = np.random.default_rng(29)
    a = rng.standard_normal((4, 6))
    b = rng.standard_normal((3, 6))
    c = rng.standard_normal((4, 3))
    err = finite_difference_check(
        lambda ts: ad.tensor_sum(ad.mul(
            ad.cosine_similarity_matrix(ts[0], ts[1]), ts[2])),
        [_t(a.copy()), _t(b.copy()), Tensor(c, requires_grad=False)])
    assert err < FD_TOL


def test_fd_gather_and_broadcast_primitives():
    rng = np.random.default_rng(30)
    x = rng.standard_normal((4, 5))
    v = rng.standard_normal(5)
    idx = np.array([0, 2, 4, 1])
    err = finite_difference_check(
        lambda ts: ad.tensor_sum(ad.mul(ad.take_per_row(ts[0], idx),
                                        ad.take_per_row(ts[0], idx))),
        [_t(x.copy())])
    assert err < FD_TOL
    err = finite_difference_check(
        lambda ts: ad.tensor_sum(ad.mul(ad.subtract_rowwise(ts[0], ts[1]),
                                        ad.subtract_rowwise(ts[0], ts[1]))),
        [_t(x.copy()), _t(v.copy())])
    assert err < FD_TOL


def test_fd_stack_rows():
    rng = np.random.default_rng(31)
    rows = [rng.standard_normal(4) for _ in range(3)]
    err = finite_difference_check(
        lambda ts: ad.tensor_sum(ad.mul(ad.stack_rows(ts), ad.stack_rows(ts))),
        [_t(r.copy()) for r in rows])
    assert err < FD_TOL


@pytest.mark.parametrize("stride,pool_kernel,pool_stride,cut", _CONV_POOL_CASES)
def test_fd_conv_pool(stride, pool_kernel, pool_stride, cut):
    rng = np.random.default_rng(32)
    x, w, b = _conv_pool_operands(rng, (2, 3, 17), (4, 3, 4), cut)

    def fn(ts):
        out = ad.conv_pool(ts[0], w, b, stride, pool_kernel, pool_stride)
        return ad.tensor_sum(ad.mul(out, out))

    assert finite_difference_check(fn, [_t(x)]) < FD_TOL


# ---------------------------------------------------------------------------
# non-finite propagation


def test_exp_overflow_raises():
    x = _t(np.array([1000.0]))
    with pytest.raises(NonFiniteError):
        ad.exp(x)


def test_log_of_zero_raises():
    with pytest.raises(NonFiniteError):
        ad.log(_t(np.array([0.0])))
