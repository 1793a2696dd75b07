"""Dense tensors with reverse-mode automatic differentiation.

Minimal define-by-run engine on top of numpy.  Every primitive builds an
output tensor that remembers its parent tensors and a closure that pushes the
output gradient back to them; ``backward`` topologically sorts the graph from
a scalar output and runs the closures in reverse.

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
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "NonFiniteError",
    "no_grad",
    "is_grad_enabled",
    "backward",
    "conv2d",
    "avg_pool2d",
    "unfold",
    "composed_weights",
    "compose_conv",
    "conv_pool",
    "temporal_features",
    "softmax_with_temperature",
    "cosine_similarity_matrix",
    "take_per_row",
    "nll",
    "scaled_l1",
    "subtract_rowwise",
    "stack_rows",
    "finite_difference_check",
]

DEFAULT_DTYPE = np.float32
_NORM_EPS = 1e-12
# bytes of one ``_im2col`` block in ``conv_pool``: bounds its memory at any batch size
_IM2COL_BLOCK_BYTES = 16 << 20


class ShapeError(ValueError):
    """Operands have shapes the primitive does not accept."""


class NonFiniteError(FloatingPointError):
    """A tensor primitive produced NaN or Inf."""


_GRAD_ENABLED = True


class no_grad:
    """Context manager that disables graph construction inside its body."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._saved = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, exc_type, exc, tb):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._saved
        return False


def is_grad_enabled() -> bool:
    """False inside ``no_grad``: primitives then record no graph."""
    return _GRAD_ENABLED


def _ensure_finite(arr: np.ndarray, op: str) -> None:
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"non-finite values produced by '{op}'")


class Tensor:
    """A numpy array plus the bookkeeping needed for reverse-mode autodiff."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = np.ascontiguousarray(arr, dtype=dtype)
        elif arr.dtype not in (np.float32, np.float64):
            arr = np.ascontiguousarray(arr, dtype=DEFAULT_DTYPE)
        else:
            arr = np.ascontiguousarray(arr)
        _ensure_finite(arr, "tensor")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn: Callable[[np.ndarray], None] | None = None

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

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy())

    # -- operator sugar ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Tensor):
            return add(self, other)
        return add_scalar(self, float(other))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Tensor):
            return sub(self, other)
        return add_scalar(self, -float(other))

    def __rsub__(self, other):
        return add_scalar(neg(self), float(other))

    def __mul__(self, other):
        if isinstance(other, Tensor):
            return mul(self, other)
        return mul_scalar(self, float(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise ShapeError("tensor/tensor division is not a primitive; "
                             "multiply by a reciprocal explicitly")
        return mul_scalar(self, 1.0 / float(other))

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    # -- method-style primitives --------------------------------------------

    def reshape(self, shape) -> "Tensor":
        return reshape(self, shape)

    def transpose(self) -> "Tensor":
        return transpose(self)

    @property
    def T(self) -> "Tensor":
        return transpose(self)

    def sum(self, axis: int | None = None) -> "Tensor":
        return tensor_sum(self, axis)

    def mean(self, axis: int | None = None) -> "Tensor":
        return tensor_mean(self, axis)

    def relu(self) -> "Tensor":
        return relu(self)

    def exp(self) -> "Tensor":
        return exp(self)

    def log(self) -> "Tensor":
        return log(self)

    def abs(self) -> "Tensor":
        return absolute(self)

    def norm(self) -> "Tensor":
        return l2_norm(self)


def _node(data: np.ndarray, parents: Sequence[Tensor],
          backward_fn: Callable[[np.ndarray], None], op: str) -> Tensor:
    """Wrap a freshly computed array as a graph node."""
    _ensure_finite(data, op)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
    else:
        out.requires_grad = False
        out._parents = ()
        out._backward_fn = None
    return out


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    t.grad = g if t.grad is None else t.grad + g


def _check_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"'{op}' needs equal shapes, got {a.shape} and {b.shape}")
    if a.dtype != b.dtype:
        raise ShapeError(f"'{op}' needs equal dtypes, got {a.dtype} and {b.dtype}")


# -- elementwise primitives ---------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "add")

    def backward_fn(g):
        _accumulate(a, g)
        _accumulate(b, g)

    return _node(a.data + b.data, (a, b), backward_fn, "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "sub")

    def backward_fn(g):
        _accumulate(a, g)
        _accumulate(b, -g)

    return _node(a.data - b.data, (a, b), backward_fn, "sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "mul")

    def backward_fn(g):
        _accumulate(a, g * b.data)
        _accumulate(b, g * a.data)

    return _node(a.data * b.data, (a, b), backward_fn, "mul")


def add_scalar(a: Tensor, s: float) -> Tensor:
    def backward_fn(g):
        _accumulate(a, g)

    return _node(a.data + a.dtype.type(s), (a,), backward_fn, "add_scalar")


def mul_scalar(a: Tensor, s: float) -> Tensor:
    def backward_fn(g):
        _accumulate(a, g * a.dtype.type(s))

    return _node(a.data * a.dtype.type(s), (a,), backward_fn, "mul_scalar")


def neg(a: Tensor) -> Tensor:
    return mul_scalar(a, -1.0)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0

    def backward_fn(g):
        _accumulate(a, g * mask)

    return _node(np.maximum(a.data, 0), (a,), backward_fn, "relu")


def exp(a: Tensor) -> Tensor:
    with np.errstate(over="ignore"):
        out_data = np.exp(a.data)

    def backward_fn(g):
        _accumulate(a, g * out_data)

    return _node(out_data, (a,), backward_fn, "exp")


def log(a: Tensor) -> Tensor:
    with np.errstate(divide="ignore", invalid="ignore"):
        out_data = np.log(a.data)

    def backward_fn(g):
        _accumulate(a, g / a.data)

    return _node(out_data, (a,), backward_fn, "log")


def absolute(a: Tensor) -> Tensor:
    sign = np.sign(a.data)

    def backward_fn(g):
        _accumulate(a, g * sign)

    return _node(np.abs(a.data), (a,), backward_fn, "abs")


# -- shape / reduction primitives ---------------------------------------------


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in (shape if isinstance(shape, Iterable) else (shape,)))
    if int(np.prod(shape)) != a.size:
        raise ShapeError(f"cannot reshape {a.shape} to {shape}")

    def backward_fn(g):
        _accumulate(a, g.reshape(a.shape))

    return _node(a.data.reshape(shape), (a,), backward_fn, "reshape")


def transpose(a: Tensor) -> Tensor:
    if a.ndim != 2:
        raise ShapeError(f"transpose expects a matrix, got shape {a.shape}")

    def backward_fn(g):
        _accumulate(a, np.ascontiguousarray(g.T))

    return _node(np.ascontiguousarray(a.data.T), (a,), backward_fn, "transpose")


def tensor_sum(a: Tensor, axis: int | None = None) -> Tensor:
    if axis is None:
        def backward_fn(g):
            _accumulate(a, np.full_like(a.data, g.reshape(())))

        return _node(np.asarray(a.data.sum(), dtype=a.dtype), (a,), backward_fn, "sum")

    axis = int(axis)

    def backward_axis_fn(g):
        _accumulate(a, np.broadcast_to(np.expand_dims(g, axis), a.shape).copy())

    return _node(a.data.sum(axis=axis), (a,), backward_axis_fn, "sum")


def tensor_mean(a: Tensor, axis: int | None = None) -> Tensor:
    if axis is None:
        count = a.size
    else:
        count = a.shape[int(axis)]
    return mul_scalar(tensor_sum(a, axis), 1.0 / count)


def l2_norm(a: Tensor) -> Tensor:
    norm = float(np.sqrt(np.sum(np.square(a.data, dtype=np.float64))))
    out_data = np.asarray(norm, dtype=a.dtype)

    def backward_fn(g):
        scale = g.reshape(()) / max(norm, _NORM_EPS)
        _accumulate(a, (scale * a.data).astype(a.dtype, copy=False))

    return _node(out_data, (a,), backward_fn, "l2_norm")


# -- linear algebra -----------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.dtype != b.dtype:
        raise ShapeError(f"matmul needs equal dtypes, got {a.dtype} and {b.dtype}")
    if a.ndim == 2 and b.ndim == 2:
        if a.shape[1] != b.shape[0]:
            raise ShapeError(f"matmul inner dims differ: {a.shape} @ {b.shape}")

        def backward_fn(g):
            _accumulate(a, g @ b.data.T)
            _accumulate(b, a.data.T @ g)

        return _node(a.data @ b.data, (a, b), backward_fn, "matmul")

    if a.ndim == 2 and b.ndim == 1:
        if a.shape[1] != b.shape[0]:
            raise ShapeError(f"matmul inner dims differ: {a.shape} @ {b.shape}")

        def backward_vec_fn(g):
            _accumulate(a, np.outer(g, b.data).astype(a.dtype, copy=False))
            _accumulate(b, a.data.T @ g)

        return _node(a.data @ b.data, (a, b), backward_vec_fn, "matmul")

    raise ShapeError(f"matmul supports (m,k)@(k,n) or (m,k)@(k,), got {a.shape} @ {b.shape}")


# -- convolution / pooling ----------------------------------------------------


def _conv_windows(xd: np.ndarray, kh: int, kw: int, sh: int, sw: int) -> np.ndarray:
    """(N, C, Ho, Wo, kh, kw) sliding windows of ``xd``, which the tests build
    their reference convolution from, independently of ``_im2col``."""
    view = np.lib.stride_tricks.sliding_window_view(xd, (kh, kw), axis=(2, 3))
    return view[:, :, ::sh, ::sw, :, :]


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


def _tiles(size: int, kernel: int, stride: int) -> bool:
    """Whether the windows along one axis read each of its positions once."""
    out = (size - kernel) // stride + 1
    return out * kernel == size and (out == 1 or stride == kernel)


def _col2im(cols: np.ndarray, shape: tuple[int, int, int, int], kh: int, kw: int,
            sh: int, sw: int) -> np.ndarray:
    """Adjoint of ``_im2col``: adds each column entry back onto the position
    of the (N, C, H, W) ``shape`` input it was read from."""
    n, c, h, w = shape
    cols6 = cols.reshape(n, c, kh, kw, (h - kh) // sh + 1, (w - kw) // sw + 1)
    tile_h, tile_w = _tiles(h, kh, sh), _tiles(w, kw, sw)
    if tile_h and tile_w:  # the columns are a permutation of the input
        return cols6.transpose(0, 1, 4, 2, 5, 3).reshape(shape)
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

    One batched matmul of the (K, C * kh * kw) weight with the ``_im2col``
    columns of ``x``, for every kernel shape.  The VJP rebuilds the columns
    from ``x`` for dW instead of keeping them, and maps the column gradient
    back to dx with ``_col2im``."""
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
    w2 = weight.data.reshape(k, c * kh * kw)
    out_data = np.matmul(w2, _im2col(x.data, kh, kw, sh, sw))  # (N, K, Ho * Wo)
    if bias is not None:
        out_data += bias.data[:, None]

    def backward_fn(g):
        g3 = g.reshape(n, k, ho * wo)
        if weight.requires_grad:
            cols = _im2col(x.data, kh, kw, sh, sw)
            dw = np.matmul(g3, cols.transpose(0, 2, 1)).sum(axis=0)
            _accumulate(weight, dw.reshape(weight.shape))
        if bias is not None and bias.requires_grad:
            _accumulate(bias, g3.sum(axis=(0, 2)))
        if x.requires_grad:
            _accumulate(x, _col2im(np.matmul(w2.T, g3), x.shape, kh, kw, sh, sw))

    return _node(out_data.reshape(n, k, ho, wo), parents, backward_fn, "conv2d")


def unfold(x: Tensor, kernel: int, stride: int) -> Tensor:
    """Columns (N, H * kernel, 1, Wo) of the (H, kernel) windows of ``x``
    (N, H, W) at time stride ``stride``: [n, h * kernel + p, 0, j] =
    x[n, h, j * stride + p].

    A ``conv2d`` of a (K, H * kernel, 1, 1) weight over them is the
    (H, kernel) conv of ``x``, as one matmul, since a 1 x 1 kernel's
    ``_im2col`` of these columns is a view.  This is ``_im2col`` of a
    1-channel input, and the VJP is ``_col2im``."""
    if x.ndim != 3:
        raise ShapeError(f"unfold expects (N, H, W) input, got {x.shape}")
    n, h, w = x.shape
    kernel, stride = int(kernel), int(stride)
    if kernel < 1 or stride < 1 or kernel > w:
        raise ShapeError(f"unfold kernel {kernel} at stride {stride} does not fit width {w}")
    cols = _im2col(x.data.reshape(n, 1, h, w), h, kernel, 1, stride)  # (N, H * k, Wo)
    wo = cols.shape[2]

    def backward_fn(g):
        dx = _col2im(g.reshape(n, h * kernel, wo), (n, 1, h, w), h, kernel, 1, stride)
        _accumulate(x, dx.reshape(x.shape))

    return _node(cols.reshape(n, h * kernel, 1, wo), (x,), backward_fn, "unfold")


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
    (K, H * k, 1, 1) for ``conv2d`` over ``unfold`` columns, and the bias.

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

    def weight_backward(g):
        gw = g.reshape(k, h, kt)
        if spatial_w.requires_grad:
            _accumulate(spatial_w, np.matmul(tw, gw.transpose(0, 2, 1)).reshape(spatial_w.shape))
        if temporal_w.requires_grad:
            dt = sw.transpose(1, 0, 2).reshape(f, k * h) @ gw.reshape(k * h, kt)
            _accumulate(temporal_w, dt.reshape(temporal_w.shape))

    def bias_backward(g):
        _accumulate(spatial_b, g)
        if spatial_w.requires_grad:
            ds = np.repeat(np.multiply.outer(g, tb), h, axis=1)  # (K, F * H)
            _accumulate(spatial_w, ds.reshape(spatial_w.shape))
        if temporal_b.requires_grad:
            _accumulate(temporal_b, g @ sw.sum(axis=2))

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

    def backward_fn(g):
        gh = g if ph is None else ph @ g
        _accumulate(x, (gh.reshape(-1, wo) @ pw.T).reshape(x.shape))

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


def temporal_features(x: np.ndarray, weight: np.ndarray, bias: np.ndarray,
                      stride: int) -> np.ndarray:
    """Output (N, F, H, Wo) of a frozen temporal conv, ``weight`` (F, 1, 1, k)
    and ``bias`` (F,), over ``x`` (N, H, W) at time stride ``stride``.

    Plain arrays, no graph: the forward of ``conv2d`` with a 1-channel (1, k)
    kernel, its ``_im2col`` columns built for blocks of samples of at most
    ``_IM2COL_BLOCK_BYTES`` each, so that only the output is held whole."""
    if x.ndim != 3 or weight.ndim != 4 or weight.shape[1:3] != (1, 1):
        raise ShapeError(f"temporal_features expects (N,H,W) input and (F,1,1,k) weight, "
                         f"got {x.shape} and {weight.shape}")
    n, h, w = x.shape
    f, kt = weight.shape[0], weight.shape[3]
    stride = int(stride)
    if bias.shape != (f,):
        raise ShapeError(f"temporal_features bias shape {bias.shape} != ({f},)")
    if stride < 1 or kt > w:
        raise ShapeError(f"temporal_features kernel {kt} at stride {stride} does not fit "
                         f"width {w}")
    wo = (w - kt) // stride + 1
    block = max(1, _IM2COL_BLOCK_BYTES // (kt * h * wo * x.dtype.itemsize))
    out = np.empty((n, f, h * wo), dtype=x.dtype)
    w2 = weight.reshape(f, kt).astype(x.dtype, copy=False)
    x4 = x.reshape(n, 1, h, w)
    for s in range(0, n, block):
        np.matmul(w2, _im2col(x4[s:s + block], 1, kt, 1, stride), out=out[s:s + block])
    out += bias.astype(x.dtype, copy=False)[:, None]
    return out.reshape(n, f, h, wo)


def conv_pool(x: Tensor, weight: np.ndarray, bias: np.ndarray, stride: int,
              pool_kernel: int, pool_stride: int, relu: bool) -> Tensor:
    """A frozen (H, k) conv over a batch ``x`` (N, H, W), then ReLU (when
    ``relu``) and average pooling along time, flattened per sample.

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
    block = max(1, _IM2COL_BLOCK_BYTES // (h * kt * wo * dtype.itemsize))
    out = np.empty((n, k, po), dtype=dtype)
    mask = np.empty((n, k, wo), dtype=bool) if relu else None
    x4 = x.data.reshape(n, 1, h, w)
    for s in range(0, n, block):
        with np.errstate(over="ignore", invalid="ignore"):
            z = np.matmul(w2, _im2col(x4[s:s + block], h, kt, 1, stride))  # (nb, K, Wo)
            z += b
        # checked before the ReLU, which would hide an overflow to -inf
        _ensure_finite(z, "conv_pool")
        if relu:
            mask[s:s + block] = z > 0
            np.maximum(z, 0, out=z)
        out[s:s + block] = (z.reshape(-1, wo) @ pool).reshape(-1, k, po)

    def backward_fn(g):
        dx = np.empty_like(x4)
        g3 = g.reshape(n, k, po)
        for s in range(0, n, block):
            dz = (g3[s:s + block].reshape(-1, po) @ pool.T).reshape(-1, k, wo)
            if relu:
                dz *= mask[s:s + block]
            dx[s:s + block] = _col2im(np.matmul(w2.T, dz), dx[s:s + block].shape, h, kt, 1, stride)
        _accumulate(x, dx.reshape(x.shape))

    return _node(out.reshape(n, k * po), (x,), backward_fn, "conv_pool")


# -- classifier-facing fused primitives ----------------------------------------


def softmax_with_temperature(x: Tensor, temperature: float, axis: int = -1) -> Tensor:
    """Numerically stable softmax of ``x / temperature`` along ``axis``."""
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    z = x.data / x.dtype.type(temperature)
    z = z - z.max(axis=axis, keepdims=True)
    e = np.exp(z)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def backward_fn(g):
        inner = (g * out_data).sum(axis=axis, keepdims=True)
        _accumulate(x, ((g - inner) * out_data / x.dtype.type(temperature)))

    return _node(np.ascontiguousarray(out_data), (x,), backward_fn, "softmax")


def cosine_similarity_matrix(a: Tensor, b: Tensor, eps: float = _NORM_EPS) -> Tensor:
    """Pairwise cosine similarity between rows of ``a`` (N, D) and ``b`` (K, D).

    Fused primitive with a hand-derived adjoint so callers never need
    broadcasting.  Rows with norm below ``eps`` are clamped to ``eps``; the
    norm-direction term of the gradient is dropped for clamped rows (the
    clamped norm is constant there).
    """
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ShapeError(f"cosine_similarity_matrix needs (N,D),(K,D); got {a.shape}, {b.shape}")
    if a.dtype != b.dtype:
        raise ShapeError("cosine_similarity_matrix needs matching dtypes")

    # np.linalg.norm(axis=1) computes this, with its own overhead on top
    na = np.sqrt((a.data * a.data).sum(axis=1))
    nb = np.sqrt((b.data * b.data).sum(axis=1))
    na_c = np.maximum(na, eps).astype(a.dtype, copy=False)
    nb_c = np.maximum(nb, eps).astype(b.dtype, copy=False)
    u = a.data / na_c[:, None]
    v = b.data / nb_c[:, None]
    cos = u @ v.T  # (N, K)
    live_a = na > eps
    live_b = nb > eps

    def backward_fn(g):
        if a.requires_grad:
            da = (g @ v - ((g * cos).sum(axis=1) * live_a)[:, None] * u) / na_c[:, None]
            _accumulate(a, da.astype(a.dtype, copy=False))
        if b.requires_grad:
            db = (g.T @ u - ((g * cos).sum(axis=0) * live_b)[:, None] * v) / nb_c[:, None]
            _accumulate(b, db.astype(b.dtype, copy=False))

    return _node(np.ascontiguousarray(cos), (a, b), backward_fn, "cosine_similarity_matrix")


def _row_indices(x: Tensor, indices: np.ndarray, op: str) -> tuple[np.ndarray, np.ndarray]:
    """(rows, columns) of one in-range column per row of the matrix ``x``."""
    if x.ndim != 2:
        raise ShapeError(f"{op} expects a matrix, got {x.shape}")
    idx = np.asarray(indices, dtype=np.int64)
    if idx.shape != (x.shape[0],):
        raise ShapeError(f"{op} needs one index per row, got {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[1]):
        raise ShapeError(f"{op} index out of range")
    return np.arange(x.shape[0]), idx


def nll(probs: Tensor, columns: np.ndarray, weights: np.ndarray | None = None) -> Tensor:
    """Negative log-likelihood of one label column per row of ``probs`` (N, K):
    ``-mean_n log probs[n, columns[n]]``.  With ``weights`` (N,) it is the
    weighted sum ``sum_n weights[n] * log probs[n, columns[n]]``, so the
    weights carry the sign and the normalisation.

    One node for the chain ``neg(mean(take_per_row(log(probs), columns)))``,
    or ``sum(mul(take_per_row(log(probs), columns), weights))``: the same
    float operations in the same order, so the loss and its gradient have the
    chain's bits.  Only the picked probabilities are logged; a zero among
    them makes the loss non-finite, which raises ``NonFiniteError``."""
    rows, idx = _row_indices(probs, columns, "nll")
    dtype = probs.dtype.type
    picked = probs.data[rows, idx]
    if weights is None:
        scale = dtype(1.0 / picked.size)
    else:
        w = np.asarray(weights, dtype=probs.dtype)
        if w.shape != picked.shape:
            raise ShapeError(f"nll needs one weight per row, got {w.shape} for {picked.shape}")
    with np.errstate(divide="ignore", invalid="ignore"):
        logp = np.log(picked)
        if weights is None:
            out_data = np.asarray(logp.sum(), dtype=probs.dtype) * scale * dtype(-1.0)
        else:
            out_data = np.asarray((logp * w).sum(), dtype=probs.dtype)

    def backward_fn(g):
        # the chain's sum VJP casts its scalar gradient to the operand dtype
        g = dtype(g * dtype(-1.0) * scale) if weights is None else dtype(g) * w
        dp = np.zeros_like(probs.data)
        dp[rows, idx] = g / picked
        _accumulate(probs, dp)

    return _node(np.asarray(out_data), (probs,), backward_fn, "nll")


def scaled_l1(a: Tensor, target: Tensor, scale: float) -> Tensor:
    """``scale * sum |a - target|`` as one node, for the chain
    ``mul_scalar(sum(absolute(sub(a, target))), scale)``: the same float
    operations in the same order, so the value and the gradients have the
    chain's bits."""
    _check_same_shape(a, target, "scaled_l1")
    diff = a.data - target.data
    s = a.dtype.type(scale)

    def backward_fn(g):
        da = a.dtype.type(g * s) * np.sign(diff)
        _accumulate(a, da)
        if target.requires_grad:
            _accumulate(target, -da)

    return _node(np.asarray(np.abs(diff).sum(), dtype=a.dtype) * s, (a, target), backward_fn,
                 "scaled_l1")


def take_per_row(x: Tensor, indices: np.ndarray) -> Tensor:
    """Gather one element per row: out[n] = x[n, indices[n]]."""
    rows, idx = _row_indices(x, indices, "take_per_row")

    def backward_fn(g):
        dx = np.zeros_like(x.data)
        dx[rows, idx] = g
        _accumulate(x, dx)

    return _node(np.ascontiguousarray(x.data[rows, idx]), (x,), backward_fn, "take_per_row")


def subtract_rowwise(x: Tensor, v: Tensor) -> Tensor:
    """out[n, :] = x[n, :] - v, the explicit row-broadcast subtraction."""
    if x.ndim != 2 or v.ndim != 1 or x.shape[1] != v.shape[0]:
        raise ShapeError(f"subtract_rowwise needs (N,D) and (D,); got {x.shape}, {v.shape}")
    if x.dtype != v.dtype:
        raise ShapeError("subtract_rowwise needs matching dtypes")

    def backward_fn(g):
        _accumulate(x, g)
        _accumulate(v, -g.sum(axis=0))

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

    def backward_fn(g):
        for i, r in enumerate(rows):
            _accumulate(r, g[i])

    return _node(np.stack([r.data for r in rows]), tuple(rows), backward_fn, "stack_rows")


# -- backward pass --------------------------------------------------------------


def _toposort(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in visited:
                stack.append((parent, False))
    return order


def backward(output: Tensor) -> None:
    """Populate ``.grad`` on every tensor the scalar ``output`` depends on.

    Gradients from a previous backward pass through the same graph are
    discarded first, so each call yields fresh derivatives.
    """
    if output.size != 1:
        raise ShapeError(f"backward needs a scalar output, got shape {output.shape}")
    if not output.requires_grad:
        raise ValueError("output does not depend on any tensor with requires_grad=True")
    order = _toposort(output)
    for node in order:
        node.grad = None
    output.grad = np.ones_like(output.data)
    for node in reversed(order):
        if node._backward_fn is not None and node.grad is not None:
            node._backward_fn(node.grad)


# -- gradient checking -----------------------------------------------------------


def finite_difference_check(fn: Callable[[Sequence[Tensor]], Tensor],
                            inputs: Sequence[Tensor], eps: float = 1e-5) -> float:
    """Worst relative error between reverse-mode and central-difference gradients.

    ``fn`` must map ``inputs`` to a scalar tensor and be re-evaluable (the
    graph is rebuilt on every call).  Relative error for one coordinate is
    ``|analytic - numeric| / (|numeric| + 1e-12)``.  Run with float64 inputs;
    float32 rounding swamps the ``eps**2`` truncation term otherwise.
    """
    inputs = list(inputs)
    out = fn(inputs)
    if out.size != 1:
        raise ShapeError("finite_difference_check needs a scalar-valued fn")
    backward(out)
    analytic = [None if t.grad is None else t.grad.copy() for t in inputs]

    worst = 0.0
    for t, grad in zip(inputs, analytic):
        if not t.requires_grad:
            continue
        g = np.zeros_like(t.data) if grad is None else grad
        flat = t.data.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = fn(inputs).item()
            flat[i] = orig - eps
            f_minus = fn(inputs).item()
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            rel = abs(float(gflat[i]) - numeric) / (abs(numeric) + 1e-12)
            worst = max(worst, rel)
    return worst
