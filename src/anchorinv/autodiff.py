"""Dense tensors with reverse-mode automatic differentiation.

Minimal define-by-run engine on top of numpy.  A primitive records a node
exactly when one of its parents has ``requires_grad``; that flag is the one
switch, and a primitive over tensors without it records no graph.  The node
is a ``_GradNode``: where the output's gradient accumulates, the gradient
targets of its parents (a leaf tensor is its own target) and a closure, the
VJP, that pushes the output gradient back to them.  A VJP keeps only what it
reads (a mask, a sign, an input the gradient multiplies, shapes), never a
parent tensor, so an intermediate output no VJP reads is freed once the
forward pass drops it.  ``backward`` topologically sorts the nodes from a
scalar output, runs the VJPs in reverse and frees each node's gradient once
its VJP has consumed it.

Conventions, chosen to keep failure modes loud rather than silent:

* float32 storage by default; build graphs in float64 when checking gradients
  against central differences.
* no implicit broadcasting between tensors.  Elementwise ops require equal
  shapes; mixing shapes goes through explicit primitives (``subtract_rowwise``,
  ``stack_rows``, ...).  Scalars (python numbers) are the only exception.
* any primitive that produces NaN or Inf raises ``NonFiniteError`` at the op
  that produced it.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "NonFiniteError",
    "backward",
    "conv2d",
    "avg_pool2d",
    "composed_weights",
    "compose_conv",
    "conv_pool",
    "softmax_with_temperature",
    "cosine_similarity_matrix",
    "take_per_row",
    "cosine_nll",
    "scaled_l1",
    "subtract_rowwise",
    "stack_rows",
]

DEFAULT_DTYPE = np.float32
# the floor of every norm a cosine divides by, here and in the package
_NORM_EPS = 1e-12
# bytes of one ``_im2col`` block: bounds the columns a conv holds at any batch
# size.  4 MB is the L2 cache of the two cores the BLAS threads run on (2 MB
# each), so a block stays cache-resident between the copy that builds it and
# the matmul that reads it: one sample per block at bci (2.05 MB of columns)
# and at grabmyo (8.3 MB, past any such budget), two at nhie (1.85 MB), and
# every desk batch up to 520 samples (8064 B each) in one block.  Read only
# through ``_block_samples``
_IM2COL_BLOCK_BYTES = 4 << 20


class ShapeError(ValueError):
    """Operands have shapes the primitive does not accept."""


class NonFiniteError(FloatingPointError):
    """A tensor primitive produced NaN or Inf."""


def _ensure_finite(arr: np.ndarray, op: str) -> None:
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"non-finite values produced by '{op}'")


class Tensor:
    """A numpy array plus the bookkeeping needed for reverse-mode autodiff."""

    __slots__ = ("data", "requires_grad", "grad", "_node")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is None and arr.dtype not in (np.float32, np.float64):
            dtype = DEFAULT_DTYPE
        # asarray, not ascontiguousarray, which turns a 0-d array into shape (1,)
        arr = np.asarray(arr, dtype=dtype, order="C")
        _ensure_finite(arr, "tensor")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._node: _GradNode | None = None

    # -- introspection ----------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}{flag})"

    def item(self) -> float:
        if self.size != 1:
            raise ShapeError("item() needs a single-element tensor")
        return float(self.data.reshape(()))

    # -- method-style primitives --------------------------------------------

    def reshape(self, shape) -> "Tensor":
        return reshape(self, shape)

    def sum(self, axis: int | None = None) -> "Tensor":
        return tensor_sum(self, axis)


class _GradNode:
    """Where the gradient of one computed tensor accumulates during
    ``backward``: ``parents`` are the gradient targets of the tensor's
    parents, None for a parent without ``requires_grad``, and
    ``backward_fn(g, *parents)`` adds the VJP of the output gradient ``g``
    to them."""

    __slots__ = ("grad", "parents", "backward_fn")

    def __init__(self, parents: tuple, backward_fn: Callable[..., None]):
        self.grad: np.ndarray | None = None
        self.parents = parents
        self.backward_fn = backward_fn


def _node(data: np.ndarray, parents: Sequence[Tensor],
          backward_fn: Callable[..., None], op: str) -> Tensor:
    """Wrap a freshly computed array, checked finite, as a graph node.

    The gradient target of a parent is its ``_GradNode``, or the parent
    itself when it is a leaf; the flags are read here, once."""
    _ensure_finite(data, op)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    targets = tuple([(p._node or p) if p.requires_grad else None for p in parents])
    grad = targets.count(None) < len(targets)
    out.requires_grad = grad
    out._node = _GradNode(targets, backward_fn) if grad else None
    return out


def _accumulate(target: _GradNode | Tensor | None, g: np.ndarray) -> None:
    if target is None:
        return
    target.grad = g if target.grad is None else target.grad + g


def _check_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"'{op}' needs equal shapes, got {a.shape} and {b.shape}")
    if a.dtype != b.dtype:
        raise ShapeError(f"'{op}' needs equal dtypes, got {a.dtype} and {b.dtype}")


# -- elementwise primitives ---------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "add")

    def backward_fn(g, ta, tb):
        _accumulate(ta, g)
        _accumulate(tb, g)

    return _node(a.data + b.data, (a, b), backward_fn, "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "sub")

    def backward_fn(g, ta, tb):
        _accumulate(ta, g)
        _accumulate(tb, -g)

    return _node(a.data - b.data, (a, b), backward_fn, "sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "mul")
    a_data, b_data = a.data, b.data

    def backward_fn(g, ta, tb):
        _accumulate(ta, g * b_data)
        _accumulate(tb, g * a_data)

    return _node(a_data * b_data, (a, b), backward_fn, "mul")


def add_scalar(a: Tensor, s: float) -> Tensor:
    def backward_fn(g, ta):
        _accumulate(ta, g)

    return _node(a.data + a.dtype.type(s), (a,), backward_fn, "add_scalar")


def mul_scalar(a: Tensor, s: float) -> Tensor:
    s = a.dtype.type(s)

    def backward_fn(g, ta):
        _accumulate(ta, g * s)

    return _node(a.data * s, (a,), backward_fn, "mul_scalar")


def neg(a: Tensor) -> Tensor:
    return mul_scalar(a, -1.0)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0

    def backward_fn(g, ta):
        _accumulate(ta, g * mask)

    return _node(np.maximum(a.data, 0), (a,), backward_fn, "relu")


def exp(a: Tensor) -> Tensor:
    with np.errstate(over="ignore"):
        out_data = np.exp(a.data)

    def backward_fn(g, ta):
        _accumulate(ta, g * out_data)

    return _node(out_data, (a,), backward_fn, "exp")


def log(a: Tensor) -> Tensor:
    a_data = a.data
    with np.errstate(divide="ignore", invalid="ignore"):
        out_data = np.log(a_data)

    def backward_fn(g, ta):
        _accumulate(ta, g / a_data)

    return _node(out_data, (a,), backward_fn, "log")


def absolute(a: Tensor) -> Tensor:
    sign = np.sign(a.data)

    def backward_fn(g, ta):
        _accumulate(ta, g * sign)

    return _node(np.abs(a.data), (a,), backward_fn, "abs")


# -- shape / reduction primitives ---------------------------------------------


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in (shape if isinstance(shape, (tuple, list)) else (shape,)))
    if math.prod(shape) != a.size:
        raise ShapeError(f"cannot reshape {a.shape} to {shape}")
    in_shape = a.shape

    def backward_fn(g, ta):
        _accumulate(ta, g.reshape(in_shape))

    return _node(a.data.reshape(shape), (a,), backward_fn, "reshape")


def transpose(a: Tensor) -> Tensor:
    if a.ndim != 2:
        raise ShapeError(f"transpose expects a matrix, got shape {a.shape}")

    def backward_fn(g, ta):
        _accumulate(ta, np.ascontiguousarray(g.T))

    return _node(np.ascontiguousarray(a.data.T), (a,), backward_fn, "transpose")


def tensor_sum(a: Tensor, axis: int | None = None) -> Tensor:
    shape, dtype = a.shape, a.dtype
    if axis is None:
        def backward_fn(g, ta):
            _accumulate(ta, np.full(shape, g.reshape(()), dtype=dtype))

        return _node(np.asarray(a.data.sum(), dtype=dtype), (a,), backward_fn, "sum")

    axis = int(axis)

    def backward_axis_fn(g, ta):
        _accumulate(ta, np.broadcast_to(np.expand_dims(g, axis), shape).copy())

    return _node(a.data.sum(axis=axis), (a,), backward_axis_fn, "sum")


def tensor_mean(a: Tensor, axis: int | None = None) -> Tensor:
    if axis is None:
        count = a.size
    else:
        count = a.shape[int(axis)]
    return mul_scalar(tensor_sum(a, axis), 1.0 / count)


def l2_norm(a: Tensor) -> Tensor:
    a_data = a.data
    norm = float(np.sqrt(np.sum(np.square(a_data, dtype=np.float64))))
    out_data = np.asarray(norm, dtype=a_data.dtype)

    def backward_fn(g, ta):
        scale = g.reshape(()) / max(norm, _NORM_EPS)
        _accumulate(ta, (scale * a_data).astype(a_data.dtype, copy=False))

    return _node(out_data, (a,), backward_fn, "l2_norm")


# -- linear algebra -----------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.dtype != b.dtype:
        raise ShapeError(f"matmul needs equal dtypes, got {a.dtype} and {b.dtype}")
    a_data, b_data = a.data, b.data
    if a.ndim == 2 and b.ndim == 2:
        if a.shape[1] != b.shape[0]:
            raise ShapeError(f"matmul inner dims differ: {a.shape} @ {b.shape}")

        def backward_fn(g, ta, tb):
            _accumulate(ta, g @ b_data.T)
            _accumulate(tb, a_data.T @ g)

        return _node(a_data @ b_data, (a, b), backward_fn, "matmul")

    if a.ndim == 2 and b.ndim == 1:
        if a.shape[1] != b.shape[0]:
            raise ShapeError(f"matmul inner dims differ: {a.shape} @ {b.shape}")

        def backward_vec_fn(g, ta, tb):
            _accumulate(ta, np.outer(g, b_data).astype(a_data.dtype, copy=False))
            _accumulate(tb, a_data.T @ g)

        return _node(a_data @ b_data, (a, b), backward_vec_fn, "matmul")

    raise ShapeError(f"matmul supports (m,k)@(k,n) or (m,k)@(k,), got {a.shape} @ {b.shape}")


# -- convolution / pooling ----------------------------------------------------


def _window_view(xd: np.ndarray, kh: int, kw: int, sh: int, sw: int) -> np.ndarray:
    """(N, C, kh, kw, Ho, Wo) view of the windows of ``xd`` (N, C, H, W):
    [n, c, p, q, i, j] = xd[n, c, i * sh + p, j * sw + q]."""
    xd = np.ascontiguousarray(xd)
    n, c, h, w = xd.shape
    s_n, s_c, s_h, s_w = xd.strides
    return np.ndarray((n, c, kh, kw, (h - kh) // sh + 1, (w - kw) // sw + 1), xd.dtype, xd, 0,
                      (s_n, s_c, s_h, s_w, s_h * sh, s_w * sw))


def _im2col(xd: np.ndarray, kh: int, kw: int, sh: int, sw: int) -> np.ndarray:
    """(N, C, H, W) -> (N, C * kh * kw, Ho * Wo) columns of the windows.

    The reshape of the window view copies only where the windows cannot be
    laid out as columns in place; a kernel of the full input height, one
    column wide, at column stride 1 gets a view."""
    view = _window_view(xd, kh, kw, sh, sw)
    n, c, _, _, ho, wo = view.shape
    return view.reshape(n, c * kh * kw, ho * wo)


def _block_samples(bytes_per_sample: int) -> int:
    """Samples per ``_im2col`` block: as many as fit ``_IM2COL_BLOCK_BYTES``
    at ``bytes_per_sample`` bytes of columns each, and at least one."""
    return max(1, _IM2COL_BLOCK_BYTES // max(1, bytes_per_sample))


def _tiles(size: int, kernel: int, stride: int) -> bool:
    """Whether the windows along one axis read each of its positions once."""
    out = (size - kernel) // stride + 1
    return out * kernel == size and (out == 1 or stride == kernel)


def _col2im(cols: np.ndarray, shape: tuple[int, int, int, int], kh: int, kw: int,
            sh: int, sw: int) -> np.ndarray:
    """Adjoint of ``_im2col``: adds each column entry back onto the position
    of the (N, C, H, W) ``shape`` input it was read from.

    For a kernel of the full input height at column stride 1 (the
    ``conv_pool`` VJP at every geometry but nhie's stride 4), one strided
    copy places column offset q of each window at input column j + q of a
    zeroed (N, C, H, kw, W) buffer, and one sum over its kw axis adds the
    offsets in order from a +0.0 start: the bits of adding them one at a
    time onto zeros."""
    n, c, h, w = shape
    wo = (w - kw) // sw + 1
    cols6 = cols.reshape(n, c, kh, kw, (h - kh) // sh + 1, wo)
    tile_h, tile_w = _tiles(h, kh, sh), _tiles(w, kw, sw)
    if tile_h and tile_w:  # the columns are a permutation of the input
        return cols6.transpose(0, 1, 4, 2, 5, 3).reshape(shape)
    if kh == h and sw == 1:
        spread = np.zeros((n, c, h, kw, w), dtype=cols.dtype)
        s_n, s_c, s_h, s_q, s_w = spread.strides
        np.ndarray((n, c, h, kw, wo), spread.dtype, spread, 0,
                   (s_n, s_c, s_h, s_q + s_w, s_w))[...] = cols6.reshape(n, c, h, kw, wo)
        return np.add.reduce(spread, axis=3, initial=0.0)
    dx = np.zeros(shape, dtype=cols.dtype)
    windows = _window_view(dx, kh, kw, sh, sw)
    # the windows of a tiling axis are disjoint: all its offsets add at once
    for p in [slice(None)] if tile_h else range(kh):
        for q in [slice(None)] if tile_w else range(kw):
            windows[:, :, p, q] += cols6[:, :, p, q]
    return dx


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
           stride: tuple[int, int] = (1, 1)) -> Tensor:
    """Cross-correlation of a batch ``x`` (N, C, H, W) with ``weight``
    (K, C, kh, kw), optional ``bias`` (K,), and positive strides.

    A matmul of the (K, C * kh * kw) weight with the ``_im2col`` columns of
    ``x``, for every kernel shape, built for blocks of samples of at most
    ``_IM2COL_BLOCK_BYTES`` of columns each (``_block_samples``), so that it
    holds one block of columns besides its (N, K, Ho, Wo) output at any
    batch size.  The VJP rebuilds each block's columns from ``x`` for dW
    instead of keeping them, and maps each block's column gradient back to dx
    with ``_col2im``.  Every sample runs the same matmuls in any blocking,
    and dW sums them over samples in the order of a whole-batch
    ``.sum(axis=0)``, so the block size changes no bit.  A 1 x 1 kernel over
    columns built already reads them in place (see ``_im2col``)."""
    if x.ndim != 4 or weight.ndim != 4:
        raise ShapeError(f"conv2d expects 4-d operands, got {x.shape} and {weight.shape}")
    n, c, h, w = x.shape
    k, c_w, kh, kw = weight.shape
    sh, sw = int(stride[0]), int(stride[1])
    if c != c_w:
        raise ShapeError(f"conv2d channel mismatch: input {c}, weight {c_w}")
    if kh > h or kw > w:
        raise ShapeError(f"conv2d kernel ({kh},{kw}) larger than input ({h},{w})")
    if sh < 1 or sw < 1:
        raise ShapeError("conv2d strides must be >= 1")
    if bias is not None and bias.shape != (k,):
        raise ShapeError(f"conv2d bias shape {bias.shape} != ({k},)")
    if x.dtype != weight.dtype or (bias is not None and bias.dtype != x.dtype):
        raise ShapeError("conv2d needs matching dtypes")
    parents = (x, weight) if bias is None else (x, weight, bias)
    ho, wo = (h - kh) // sh + 1, (w - kw) // sw + 1
    xd = x.data
    w2 = weight.data.reshape(k, c * kh * kw)
    block = _block_samples(c * kh * kw * ho * wo * xd.itemsize)

    def cols(s):
        return _im2col(xd[s:s + block], kh, kw, sh, sw)  # (nb, C * kh * kw, Ho * Wo)

    out_data = np.empty((n, k, ho * wo), dtype=xd.dtype)
    for s in range(0, n, block):
        np.matmul(w2, cols(s), out=out_data[s:s + block])
    if bias is not None:
        out_data += bias.data[:, None]

    def backward_fn(g, tx, tw, tb=None):
        g3 = g.reshape(n, k, ho * wo)
        if tw is not None:
            def dw_rows(s):
                return np.matmul(g3[s:s + block], cols(s).transpose(0, 2, 1))

            # the first block's sum, then one row at a time: the sequential
            # order of a whole-batch .sum(axis=0); a zero dW when N = 0
            dw = dw_rows(0).sum(axis=0)
            for s in range(block, n, block):
                for row in dw_rows(s):
                    dw += row
            _accumulate(tw, dw.reshape(k, c, kh, kw))
        if tb is not None:
            _accumulate(tb, g3.sum(axis=(0, 2)))
        if tx is not None:
            dx = np.empty((n, c, h, w), dtype=xd.dtype)
            for s in range(0, n, block):
                dx[s:s + block] = _col2im(np.matmul(w2.T, g3[s:s + block]),
                                          dx[s:s + block].shape, kh, kw, sh, sw)
            _accumulate(tx, dx)

    return _node(out_data.reshape(n, k, ho, wo), parents, backward_fn, "conv2d")


def composed_weights(temporal_w: np.ndarray, temporal_b: np.ndarray, spatial_w: np.ndarray,
                     spatial_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weight (K, H, k) and bias (K,) of the one (H, k) conv that a temporal
    conv ``temporal_w`` (F, 1, 1, k), ``temporal_b`` (F,) followed by a
    spatial conv ``spatial_w`` (K, F, H, 1), ``spatial_b`` (K,) make.

    With no nonlinearity between them, W[k, h, p] = sum_f spatial_w[k, f, h]
    * temporal_w[f, p] and b[k] = spatial_b[k] + sum_{f, h} spatial_w[k, f, h]
    * temporal_b[f].  Both are summed in float64, then cast to the
    parameters' dtype.  Plain arrays, no graph: ``compose_conv`` wraps them
    as nodes, and the frozen ``conv_pool`` path uses them as they are."""
    f, c_t, one, kt = temporal_w.shape
    k, f_s, h, width = spatial_w.shape
    if (c_t, one, width) != (1, 1, 1) or f_s != f or temporal_b.shape != (f,) \
            or spatial_b.shape != (k,):
        raise ShapeError(f"composed_weights needs (F,1,1,k), (F,), (K,F,H,1), (K,) parameters, "
                         f"got {temporal_w.shape}, {temporal_b.shape}, {spatial_w.shape}, "
                         f"{spatial_b.shape}")
    dtype = temporal_w.dtype
    if any(a.dtype != dtype for a in (temporal_b, spatial_w, spatial_b)):
        raise ShapeError("composed_weights needs matching dtypes")
    sw64 = spatial_w.reshape(k, f, h).astype(np.float64)
    weight = np.matmul(sw64.transpose(0, 2, 1), temporal_w.reshape(f, kt).astype(np.float64))
    bias = spatial_b + sw64.sum(axis=2) @ temporal_b  # float32 operands promote exactly
    return weight.astype(dtype), bias.astype(dtype)


def compose_conv(temporal_w: Tensor, temporal_b: Tensor, spatial_w: Tensor,
                 spatial_b: Tensor) -> tuple[Tensor, Tensor]:
    """``composed_weights`` as two graph nodes: the weight, reshaped to
    (K, H * k, 1, 1) for a 1 x 1 ``conv2d`` over the (N, H * k, 1, Wo)
    ``_im2col`` columns of the input (reshape it to (K, 1, H, k) for
    ``conv2d`` over the input itself), and the bias.

    The VJPs run in the parameters' dtype.  The weight's gradient reaches
    ``temporal_w`` and ``spatial_w``, the bias's reaches ``temporal_b``,
    ``spatial_w`` and ``spatial_b``."""
    weight, bias = composed_weights(temporal_w.data, temporal_b.data, spatial_w.data,
                                    spatial_b.data)
    f, kt = temporal_w.shape[0], temporal_w.shape[3]
    k, h = weight.shape[:2]
    tw = temporal_w.data.reshape(f, kt)
    tb = temporal_b.data
    sw = spatial_w.data.reshape(k, f, h)

    def weight_backward(g, t_tw, t_sw):
        gw = g.reshape(k, h, kt)
        if t_sw is not None:
            _accumulate(t_sw, np.matmul(tw, gw.transpose(0, 2, 1)).reshape(k, f, h, 1))
        if t_tw is not None:
            dt = sw.transpose(1, 0, 2).reshape(f, k * h) @ gw.reshape(k * h, kt)
            _accumulate(t_tw, dt.reshape(f, 1, 1, kt))

    def bias_backward(g, t_tb, t_sw, t_sb):
        _accumulate(t_sb, g)
        if t_sw is not None:
            ds = np.repeat(np.multiply.outer(g, tb), h, axis=1)  # (K, F * H)
            _accumulate(t_sw, ds.reshape(k, f, h, 1))
        if t_tb is not None:
            _accumulate(t_tb, g @ sw.sum(axis=2))

    return (_node(weight.reshape(k, h * kt, 1, 1), (temporal_w, spatial_w), weight_backward,
                  "compose_conv"),
            _node(bias, (temporal_b, spatial_w, spatial_b), bias_backward, "compose_conv"))


def avg_pool2d(x: Tensor, kernel: tuple[int, int], stride: tuple[int, int]) -> Tensor:
    """Average pooling over (N, C, H, W) with the given kernel and stride.

    Two products with the cached ``_pool_matrix`` of each axis, ``ph`` (H, Ho)
    and ``pw`` (W, Wo): the output is ``ph.T @ (x @ pw)`` and the VJP is
    ``ph @ g @ pw.T``, so overlapping windows are read in place, not copied.
    The width product runs on the (N * C * H, W) reshape: one matmul, where
    numpy's 4-d by 2-d matmul makes one BLAS call per plane.  At H = 1 (the
    model's pooling) ``ph`` is the 1 x 1 identity and its product is skipped."""
    if x.ndim != 4:
        raise ShapeError(f"avg_pool2d expects 4-d input, got {x.shape}")
    n, c, h, w = x.shape
    kh, kw = int(kernel[0]), int(kernel[1])
    sh, sw = int(stride[0]), int(stride[1])
    if kh > h or kw > w:
        raise ShapeError(f"avg_pool2d kernel ({kh},{kw}) larger than input ({h},{w})")
    if sh < 1 or sw < 1:
        raise ShapeError("avg_pool2d strides must be >= 1")
    ph = None if h == 1 else _pool_matrix(h, kh, sh, x.dtype)
    pw = _pool_matrix(w, kw, sw, x.dtype)
    wo = pw.shape[1]

    def backward_fn(g, tx):
        gh = g if ph is None else ph @ g
        _accumulate(tx, (gh.reshape(-1, wo) @ pw.T).reshape(n, c, h, w))

    out = (x.data.reshape(-1, w) @ pw).reshape(n, c, h, wo)
    return _node(out if ph is None else ph.T @ out, (x,), backward_fn, "avg_pool2d")


@functools.lru_cache(maxsize=64)
def _pool_matrix(width: int, kernel: int, stride: int, dtype) -> np.ndarray:
    """(width, pooled) matrix: a row times it averages each pooling window.

    Cached per geometry and dtype, and read-only, since every caller shares
    the one array."""
    pooled = (width - kernel) // stride + 1
    col = np.arange(width)[:, None]
    start = stride * np.arange(pooled)[None, :]
    matrix = (((col >= start) & (col < start + kernel)) / kernel).astype(dtype)
    matrix.flags.writeable = False
    return matrix


def conv_pool(x: Tensor, weight: np.ndarray, bias: np.ndarray, stride: int,
              pool_kernel: int, pool_stride: int) -> Tensor:
    """A frozen (H, k) conv over a batch ``x`` (N, H, W), then ReLU and
    average pooling along time, flattened per sample.

    ``weight`` (K, H, k) and ``bias`` (K,) are plain arrays, so they take no
    gradient: the VJP goes to ``x`` only.  Output is (N, K * P) in (filter,
    pooled column) order, the layout of ``conv2d`` -> ``relu`` ->
    ``avg_pool2d`` -> ``reshape``.  The conv is ``_im2col`` of a 1-channel
    (H, k) kernel, built for blocks of samples of at most
    ``_IM2COL_BLOCK_BYTES`` each; the VJP maps each block back with
    ``_col2im``.
    """
    if x.ndim != 3 or weight.ndim != 3:
        raise ShapeError(f"conv_pool expects (N,H,W) input and (K,H,k) weight, "
                         f"got {x.shape} and {weight.shape}")
    n, h, w = x.shape
    k, h_w, kt = weight.shape
    stride, pool_kernel, pool_stride = int(stride), int(pool_kernel), int(pool_stride)
    if h != h_w:
        raise ShapeError(f"conv_pool channel mismatch: input {h}, weight {h_w}")
    if bias.shape != (k,):
        raise ShapeError(f"conv_pool bias shape {bias.shape} != ({k},)")
    if min(stride, pool_kernel, pool_stride) < 1:
        raise ShapeError("conv_pool kernel and strides must be >= 1")
    if kt > w or pool_kernel > (w - kt) // stride + 1:
        raise ShapeError(f"conv_pool kernels ({kt}, {pool_kernel}) too wide for width {w}")

    dtype = x.dtype
    wo = (w - kt) // stride + 1
    pool = _pool_matrix(wo, pool_kernel, pool_stride, dtype)  # (Wo, P)
    po = pool.shape[1]
    w2 = weight.reshape(k, h * kt).astype(dtype, copy=False)
    b = bias.astype(dtype, copy=False)[:, None]
    block = _block_samples(h * kt * wo * dtype.itemsize)
    out = np.empty((n, k, po), dtype=dtype)
    mask = np.empty((n, k, wo), dtype=bool)
    x4 = x.data.reshape(n, 1, h, w)
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(0, n, block):
            z = np.matmul(w2, _im2col(x4[s:s + block], h, kt, 1, stride))  # (nb, K, Wo)
            z += b
            # checked before the ReLU, which would hide an overflow to -inf
            _ensure_finite(z, "conv_pool")
            mask[s:s + block] = z > 0
            np.maximum(z, 0, out=z)
            out[s:s + block] = (z.reshape(-1, wo) @ pool).reshape(-1, k, po)

    def backward_fn(g, tx):
        dx = np.empty((n, 1, h, w), dtype=dtype)
        g3 = g.reshape(n, k, po)
        for s in range(0, n, block):
            dz = (g3[s:s + block].reshape(-1, po) @ pool.T).reshape(-1, k, wo)
            dz *= mask[s:s + block]
            dx[s:s + block] = _col2im(np.matmul(w2.T, dz), dx[s:s + block].shape, h, kt, 1, stride)
        _accumulate(tx, dx.reshape(n, h, w))

    return _node(out.reshape(n, k * po), (x,), backward_fn, "conv_pool")


# -- classifier-facing fused primitives ----------------------------------------


def _softmax(x: np.ndarray, temperature) -> np.ndarray:
    """Softmax of ``x / temperature`` along the last axis, shifted by each
    row's maximum; ``temperature`` is of ``x``'s dtype."""
    z = x / temperature
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def _softmax_vjp(g: np.ndarray, out: np.ndarray, temperature) -> np.ndarray:
    """Gradient to the input of ``_softmax`` from the gradient ``g`` of its
    output ``out``."""
    dx = g - (g * out).sum(axis=-1, keepdims=True)
    dx *= out
    dx /= temperature
    return dx


def _unit_rows(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows of the matrix ``m`` over their norms clamped at
    ``_NORM_EPS``, the clamped norms, and which norms are above the clamp."""
    # np.linalg.norm(axis=1) computes this, with its own overhead on top
    norm = np.sqrt((m * m).sum(axis=1))
    clamped = np.maximum(norm, _NORM_EPS).astype(m.dtype, copy=False)
    return m / clamped[:, None], clamped, norm > _NORM_EPS


def _unit_rows_vjp(g_dot: np.ndarray, g_cos: np.ndarray, rows: tuple) -> np.ndarray:
    """Gradient to the matrix whose ``_unit_rows`` are ``rows``, from its
    unit rows' cosines with other unit rows: ``g_dot`` is the cosines'
    gradient times those other rows and ``g_cos`` the row sums of the
    gradient times the cosines.  The norm-direction term is dropped for
    clamped rows (the clamped norm is constant there)."""
    unit, clamped, live = rows
    grad = (g_dot - (g_cos * live)[:, None] * unit) / clamped[:, None]
    return grad.astype(unit.dtype, copy=False)


def _cosine_vjp(g: np.ndarray, cos: np.ndarray, rows_a: tuple, rows_b: tuple, need_a: bool,
                need_b: bool) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Gradients to ``a`` and ``b``, each None unless needed, from the
    gradient ``g`` of their cosines ``cos``, where ``rows_a`` and ``rows_b``
    are the ``_unit_rows`` of ``a`` and ``b``."""
    gc = g * cos
    da = _unit_rows_vjp(g @ rows_b[0], gc.sum(axis=1), rows_a) if need_a else None
    db = _unit_rows_vjp(g.T @ rows_a[0], gc.sum(axis=0), rows_b) if need_b else None
    return da, db


def softmax_with_temperature(x: Tensor, temperature: float) -> Tensor:
    """Numerically stable softmax of ``x / temperature`` along the last axis."""
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    temperature = x.dtype.type(temperature)
    out_data = _softmax(x.data, temperature)

    def backward_fn(g, tx):
        _accumulate(tx, _softmax_vjp(g, out_data, temperature))

    return _node(np.ascontiguousarray(out_data), (x,), backward_fn, "softmax")


def cosine_similarity_matrix(a: Tensor, b: Tensor) -> Tensor:
    """Pairwise cosine similarity between rows of ``a`` (N, D) and ``b`` (K, D).

    Fused primitive with a hand-derived adjoint so callers never need
    broadcasting.  Rows with norm below ``_NORM_EPS`` are clamped to it; the
    norm-direction term of the gradient is dropped for clamped rows (the
    clamped norm is constant there).
    """
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ShapeError(f"cosine_similarity_matrix needs (N,D),(K,D); got {a.shape}, {b.shape}")
    if a.dtype != b.dtype:
        raise ShapeError("cosine_similarity_matrix needs matching dtypes")
    rows_a, rows_b = _unit_rows(a.data), _unit_rows(b.data)
    cos = rows_a[0] @ rows_b[0].T  # (N, K)

    def backward_fn(g, ta, tb):
        da, db = _cosine_vjp(g, cos, rows_a, rows_b, ta is not None, tb is not None)
        _accumulate(ta, da)
        _accumulate(tb, db)

    return _node(np.ascontiguousarray(cos), (a, b), backward_fn, "cosine_similarity_matrix")


def _row_indices(shape: tuple[int, ...], indices: np.ndarray,
                 op: str) -> tuple[np.ndarray, np.ndarray]:
    """(rows, columns) of one in-range column per row of a matrix of ``shape``."""
    if len(shape) != 2:
        raise ShapeError(f"{op} expects a matrix, got {shape}")
    idx = np.asarray(indices, dtype=np.int64)
    if idx.shape != (shape[0],):
        raise ShapeError(f"{op} needs one index per row, got {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= shape[1]):
        raise ShapeError(f"{op} index out of range")
    return np.arange(shape[0]), idx


def cosine_nll(feats: Tensor, rows: Sequence[Tensor], columns: np.ndarray,
               weights: np.ndarray | None, temperature: float) -> Tensor:
    """The cosine classifier's negative log-likelihood of one class column
    per row of ``feats`` (N, D): ``-mean_n log p[n, columns[n]]``, where
    ``p`` (N, K) is the softmax over ``temperature`` of the cosines between
    the rows of ``feats`` and the K class weights ``rows``, each (D,).  With
    ``weights`` (N,) it is the weighted sum ``sum_n weights[n] * log p[n,
    columns[n]]``, so the weights carry the sign and the normalisation.

    One node for the chain ``stack_rows`` -> ``cosine_similarity_matrix`` ->
    ``softmax_with_temperature`` -> ``neg(mean(take_per_row(log(p),
    columns)))``, or ``sum(mul(take_per_row(log(p), columns), weights))``:
    the same float operations in the same order, so the loss and its
    gradients to ``feats`` and to each row have the chain's bits.  Only the
    picked probabilities are logged; a zero among them makes the loss
    non-finite, which raises ``NonFiniteError``."""
    if feats.ndim != 2 or not rows or any(r.shape != (feats.shape[1],) for r in rows):
        raise ShapeError(f"cosine_nll needs (N,D) features and (D,) rows, got {feats.shape} "
                         f"and {sorted({r.shape for r in rows})}")
    if any(r.dtype != feats.dtype for r in rows):
        raise ShapeError("cosine_nll needs matching dtypes")
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    picks = _row_indices((feats.shape[0], len(rows)), columns, "cosine_nll")
    dtype = feats.dtype.type
    temperature = dtype(temperature)
    rows_a = _unit_rows(feats.data)
    rows_b = _unit_rows(np.stack([r.data for r in rows]))
    cos = rows_a[0] @ rows_b[0].T
    probs = _softmax(cos, temperature)
    picked = probs[picks]
    if weights is None:
        scale = dtype(1.0 / picked.size)
    else:
        w = np.asarray(weights, dtype=feats.dtype)
        if w.shape != picked.shape:
            raise ShapeError(f"cosine_nll needs one weight per row, got {w.shape} "
                             f"for {picked.shape}")
    with np.errstate(divide="ignore", invalid="ignore"):
        logp = np.log(picked)
        if weights is None:
            out_data = np.asarray(logp.sum(), dtype=feats.dtype) * scale * dtype(-1.0)
        else:
            out_data = np.asarray((logp * w).sum(), dtype=feats.dtype)

    def backward_fn(g, t_feats, *t_rows):
        # the chain's sum VJP casts its scalar gradient to the operand dtype
        g = dtype(g * dtype(-1.0) * scale) if weights is None else dtype(g) * w
        dp = np.zeros(probs.shape, dtype=dtype)
        dp[picks] = g / picked
        need_rows = t_rows.count(None) < len(t_rows)
        da, db = _cosine_vjp(_softmax_vjp(dp, probs, temperature), cos, rows_a, rows_b,
                             t_feats is not None, need_rows)
        _accumulate(t_feats, da)
        if need_rows:
            for i, target in enumerate(t_rows):
                _accumulate(target, db[i])

    return _node(np.asarray(out_data), (feats, *rows), backward_fn, "cosine_nll")


def scaled_l1(a: Tensor, target: Tensor, scale: float) -> Tensor:
    """``scale * sum |a - target|`` as one node, for the chain
    ``mul_scalar(sum(absolute(sub(a, target))), scale)``: the same float
    operations in the same order, so the value and the gradients have the
    chain's bits."""
    _check_same_shape(a, target, "scaled_l1")
    diff = a.data - target.data
    cast = a.dtype.type
    s = cast(scale)

    def backward_fn(g, ta, t_target):
        da = cast(g * s) * np.sign(diff)
        _accumulate(ta, da)
        if t_target is not None:
            _accumulate(t_target, -da)

    return _node(np.asarray(np.abs(diff).sum(), dtype=a.dtype) * s, (a, target), backward_fn,
                 "scaled_l1")


def take_per_row(x: Tensor, indices: np.ndarray) -> Tensor:
    """Gather one element per row: out[n] = x[n, indices[n]]."""
    rows, idx = _row_indices(x.shape, indices, "take_per_row")
    shape, dtype = x.shape, x.dtype

    def backward_fn(g, tx):
        dx = np.zeros(shape, dtype=dtype)
        dx[rows, idx] = g
        _accumulate(tx, dx)

    return _node(np.ascontiguousarray(x.data[rows, idx]), (x,), backward_fn, "take_per_row")


def subtract_rowwise(x: Tensor, v: Tensor) -> Tensor:
    """out[n, :] = x[n, :] - v, the explicit row-broadcast subtraction."""
    if x.ndim != 2 or v.ndim != 1 or x.shape[1] != v.shape[0]:
        raise ShapeError(f"subtract_rowwise needs (N,D) and (D,); got {x.shape}, {v.shape}")
    if x.dtype != v.dtype:
        raise ShapeError("subtract_rowwise needs matching dtypes")

    def backward_fn(g, tx, tv):
        _accumulate(tx, g)
        _accumulate(tv, -g.sum(axis=0))

    return _node(x.data - v.data[None, :], (x, v), backward_fn, "subtract_rowwise")


def stack_rows(rows: Sequence[Tensor]) -> Tensor:
    """Stack 1-d tensors into a matrix; gradient splits back per row."""
    rows = list(rows)
    if not rows:
        raise ShapeError("stack_rows needs at least one row")
    dim = rows[0].shape
    if len(dim) != 1 or any(r.shape != dim for r in rows):
        raise ShapeError("stack_rows needs equal-length 1-d tensors")
    if any(r.dtype != rows[0].dtype for r in rows):
        raise ShapeError("stack_rows needs matching dtypes")

    def backward_fn(g, *targets):
        for i, t in enumerate(targets):
            _accumulate(t, g[i])

    return _node(np.stack([r.data for r in rows]), tuple(rows), backward_fn, "stack_rows")


# -- backward pass --------------------------------------------------------------


def _toposort(root: _GradNode | Tensor) -> list[_GradNode | Tensor]:
    """The gradient targets ``root`` depends on, each after its parents; a
    leaf tensor has none."""
    order: list[_GradNode | Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[_GradNode | Tensor, bool]] = [(root, False)]
    while stack:
        target, processed = stack.pop()
        if processed:
            order.append(target)
            continue
        if id(target) in visited:
            continue
        visited.add(id(target))
        stack.append((target, True))
        if type(target) is _GradNode:
            for parent in target.parents:
                if parent is not None and id(parent) not in visited:
                    stack.append((parent, False))
    return order


def backward(output: Tensor) -> None:
    """Populate ``.grad`` on every leaf tensor with ``requires_grad`` that
    the scalar ``output`` depends on.

    Each node's gradient is freed as soon as its VJP has consumed it, so
    afterwards only the leaves hold one.  Gradients from a previous backward
    pass through the same graph are discarded first, so each call yields
    fresh derivatives.
    """
    if output.size != 1:
        raise ShapeError(f"backward needs a scalar output, got shape {output.shape}")
    if not output.requires_grad:
        raise ValueError("output does not depend on any tensor with requires_grad=True")
    root = output._node or output
    order = _toposort(root)
    for target in order:
        target.grad = None
    root.grad = np.ones_like(output.data)
    for target in reversed(order):
        if type(target) is _GradNode and target.grad is not None:
            g, target.grad = target.grad, None
            target.backward_fn(g, *target.parents)
            del g
