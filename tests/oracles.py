"""Reference implementations the tests check the package against.

The package's one backbone is the conv of ``anchorinv.model``; the two test
backbones here make the feature map analytically invertible, so inversion
and classifier tests get exact oracles:

* ``IdentityBackbone`` flattens the input (the embedding space is the input
  space, so every target is attainable);
* ``LinearBackbone`` multiplies the flattened input by one weight matrix
  (least squares gives reachability and a quality bound).

Both quack like ``ConvBackbone`` where ``ModelState``, inversion and
finetuning touch a backbone.  Beside them: central-difference gradient
checking, the cosine classifier's softmax in plain float64 numpy, the
sliding windows the reference convolution is built from, the chance-level
macro-F1 and the inverse of the z-score standardization.

The engine's earlier forms of three kernels stay here as byte-equality
references for the rewritten ones: ``nll``, the one-node loss over given
probabilities that ``ad.cosine_nll`` folded into the classifier head,
``col2im_loop``, ``_col2im`` adding one kernel offset at a time, and
``adam_step``, ``Adam.step`` as plain expressions over concatenated
gradients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from anchorinv import autodiff as ad
from anchorinv import optim
from anchorinv.autodiff import ShapeError, Tensor
from anchorinv.data import StandardizationStats


@dataclass(frozen=True)
class _PlainShapeConfig:
    channels: int
    timesteps: int
    feature_dim: int
    name: str = "plain"

    @property
    def sample_shape(self) -> tuple[int, int]:
        return (self.channels, self.timesteps)


class IdentityBackbone:
    """Flattens the input; embedding space is the input space."""

    FINETUNED = ()  # finetuning trains only the new class weights

    def __init__(self, channels: int, timesteps: int):
        self.config = _PlainShapeConfig(channels, timesteps, channels * timesteps)
        self.params: dict[str, Tensor] = {}

    def param_names(self) -> list[str]:
        return []

    def clone(self) -> "IdentityBackbone":
        return IdentityBackbone(self.config.channels, self.config.timesteps)

    def conv_input(self, x: Tensor, trained) -> Tensor:
        return x  # no conv: the batch itself

    def embed(self, x: Tensor) -> Tensor:
        cfg = self.config
        if x.ndim != 3 or x.shape[1:] != cfg.sample_shape:
            raise ShapeError(f"expected batch of shape (N, {cfg.channels}, {cfg.timesteps}), "
                             f"got {x.shape}")
        return x.reshape((x.shape[0], cfg.feature_dim))


class LinearBackbone:
    """Single linear map: flatten then multiply by a (H*W, D) weight."""

    FINETUNED = ("weight",)

    def __init__(self, channels: int, timesteps: int, weight: Tensor):
        if weight.ndim != 2 or weight.shape[0] != channels * timesteps:
            raise ShapeError(f"linear weight must be ({channels * timesteps}, D), "
                             f"got {weight.shape}")
        self.config = _PlainShapeConfig(channels, timesteps, weight.shape[1])
        self.params = {"weight": weight}

    def param_names(self) -> list[str]:
        return ["weight"]

    def clone(self) -> "LinearBackbone":
        weight = self.params["weight"]
        return LinearBackbone(self.config.channels, self.config.timesteps,
                              Tensor(weight.data.copy(), requires_grad=weight.requires_grad))

    def conv_input(self, x: Tensor, trained) -> Tensor:
        return x  # no conv: the batch itself

    def embed(self, x: Tensor) -> Tensor:
        cfg = self.config
        if x.ndim != 3 or x.shape[1:] != cfg.sample_shape:
            raise ShapeError(f"expected batch of shape (N, {cfg.channels}, {cfg.timesteps}), "
                             f"got {x.shape}")
        flat = x.reshape((x.shape[0], cfg.channels * cfg.timesteps))
        return ad.matmul(flat, self.params["weight"])


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
    ad.backward(out)
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


def cosine_softmax(feats: np.ndarray, weights: np.ndarray, temperature: float) -> np.ndarray:
    """Softmax of ``feats`` (N, D) against ``weights`` (K, D) by cosine over
    ``temperature``, in float64 numpy: rows normalised by ``np.linalg.norm``
    clamped at ``_NORM_EPS``, then the max-shifted softmax, as the package's
    scorer was written before it ran the engine's nodes."""
    def unit_rows(mat):
        mat = np.asarray(mat, dtype=np.float64)
        return mat / np.maximum(np.linalg.norm(mat, axis=1), ad._NORM_EPS)[:, None]

    z = (unit_rows(feats) @ unit_rows(weights).T) / temperature
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def conv_windows(xd: np.ndarray, kh: int, kw: int, sh: int, sw: int) -> np.ndarray:
    """(N, C, Ho, Wo, kh, kw) sliding windows of ``xd``, independently of the
    engine's ``_im2col``."""
    view = np.lib.stride_tricks.sliding_window_view(xd, (kh, kw), axis=(2, 3))
    return view[:, :, ::sh, ::sw, :, :]


def random_chance_f1(num_classes: int) -> float:
    """Expected macro-F1 of a uniform random guesser on a balanced set."""
    if num_classes < 1:
        raise ValueError(f"need at least one class, got {num_classes}")
    return 100.0 / num_classes


def zscore_invert(x: np.ndarray, stats: StandardizationStats) -> np.ndarray:
    """The inverse of ``zscore_apply``: x * std + mean per channel."""
    x = np.asarray(x)
    h = stats.mean.shape[0]
    if x.shape[-2] != h:
        raise ValueError(f"channel mismatch: sample has {x.shape[-2]}, stats have {h}")
    return (x * stats.std[..., :, None] + stats.mean[..., :, None]).astype(np.float32)


def nll(probs: Tensor, columns: np.ndarray, weights: np.ndarray | None = None) -> Tensor:
    """Negative log-likelihood of one label column per row of ``probs`` (N, K):
    ``-mean_n log probs[n, columns[n]]``, or with ``weights`` (N,) the
    weighted sum ``sum_n weights[n] * log probs[n, columns[n]]``.  One node,
    the engine's loss before the classifier head became one node, with the
    bits of the chain ``neg(mean(take_per_row(log(probs), columns)))``."""
    rows, idx = ad._row_indices(probs.shape, columns, "nll")
    shape, dtype = probs.shape, probs.dtype.type
    picked = probs.data[rows, idx]
    if weights is None:
        scale = dtype(1.0 / picked.size)
    else:
        w = np.asarray(weights, dtype=probs.dtype)
    with np.errstate(divide="ignore", invalid="ignore"):
        logp = np.log(picked)
        if weights is None:
            out_data = np.asarray(logp.sum(), dtype=probs.dtype) * scale * dtype(-1.0)
        else:
            out_data = np.asarray((logp * w).sum(), dtype=probs.dtype)

    def backward_fn(g, tp):
        g = dtype(g * dtype(-1.0) * scale) if weights is None else dtype(g) * w
        dp = np.zeros(shape, dtype=dtype)
        dp[rows, idx] = g / picked
        ad._accumulate(tp, dp)

    return ad._node(np.asarray(out_data), (probs,), backward_fn, "nll")


def col2im_loop(cols: np.ndarray, shape: tuple[int, int, int, int], kh: int, kw: int,
                sh: int, sw: int) -> np.ndarray:
    """The adjoint of ``ad._im2col`` that adds the kernel offsets of every
    non-tiling axis onto a zeroed input one at a time."""
    n, c, h, w = shape
    cols6 = cols.reshape(n, c, kh, kw, (h - kh) // sh + 1, (w - kw) // sw + 1)
    tile_h, tile_w = ad._tiles(h, kh, sh), ad._tiles(w, kw, sw)
    if tile_h and tile_w:
        return cols6.transpose(0, 1, 4, 2, 5, 3).reshape(shape)
    dx = np.zeros(shape, dtype=cols.dtype)
    windows = ad._window_view(dx, kh, kw, sh, sw)
    for p in [slice(None)] if tile_h else range(kh):
        for q in [slice(None)] if tile_w else range(kw):
            windows[:, :, p, q] += cols6[:, :, p, q]
    return dx


def adam_step(opt: optim.Adam) -> None:
    """One update of ``opt`` (its moments, step count and parameters) as
    plain numpy expressions over the concatenated gradients, a missing
    ``.grad`` counting as zeros."""
    g = np.concatenate([np.zeros(p.size, dtype=p.dtype) if p.grad is None
                        else np.reshape(p.grad, -1) for p in opt.params])
    opt.step_count += 1
    t = opt.step_count
    beta1, beta2, eps = optim._BETA1, optim._BETA2, optim._EPS
    bias1, bias2 = 1.0 - beta1 ** t, 1.0 - beta2 ** t
    opt._m *= beta1
    opt._m += (1.0 - beta1) * g
    opt._v *= beta2
    opt._v += (1.0 - beta2) * np.square(g)
    opt._flat -= (opt.learning_rate / bias1) * opt._m / (np.sqrt(opt._v / bias2) + eps)
