"""Adam optimizer over autodiff tensors, and the one loop that drives it.

Standard bias-corrected Adam (Kingma & Ba).  The update is elementwise, so
the optimizer holds the parameters, the first and the second moments as three
flat vectors over all of its parameters, and a step is one pass over them;
``step`` consumes the ``.grad`` populated by ``backward`` (or an explicit
gradient list) and updates parameter data in place.

``minimize`` is the only optimisation loop of the package: base training,
anchor inversion, label-space inversion and finetuning all run through it,
so the freezing contract (frozen tensors come out bit-identical, checked by
an explicit raise) is enforced in one place.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import NonFiniteError, ShapeError, Tensor

__all__ = ["Adam", "FreezingViolation", "minimize"]


class FreezingViolation(RuntimeError):
    """A tensor held frozen during ``minimize`` changed while it ran."""


class Adam:
    """Adam over ``params``, which must share one dtype.

    On construction each parameter's ``data`` becomes a view of one flat
    vector the optimizer owns, so a step updates every parameter in place at
    once; replace a parameter's values in place, not by rebinding ``data``.
    """

    def __init__(self, params: Sequence[Tensor], learning_rate: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        params = list(params)
        if not params:
            raise ValueError("Adam needs at least one parameter")
        if not all(isinstance(p, Tensor) for p in params):
            raise TypeError("Adam parameters must be Tensors")
        if len({p.dtype for p in params}) != 1:
            raise TypeError("Adam parameters must share one dtype")
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError(f"betas must lie in [0, 1), got {beta1}, {beta2}")
        if learning_rate < 0:
            raise ValueError(f"learning rate must be non-negative, got {learning_rate}")
        self.params = params
        self.learning_rate = float(learning_rate)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.step_count = 0
        self._flat = np.concatenate([p.data.reshape(-1) for p in params])
        end = 0
        for p in params:
            start, end = end, end + p.size
            p.data = self._flat[start:end].reshape(p.shape)
        self._m = np.zeros_like(self._flat)
        self._v = np.zeros_like(self._flat)

    def step(self, grads: Sequence[np.ndarray | None] | None = None) -> None:
        """Apply one Adam update.

        ``grads[i] is None`` (or a missing ``.grad``) counts as a zero
        gradient: the moments decay but fresh state leaves the parameter
        bit-identical.  The gradients are concatenated in numpy's promoted
        dtype, so float64 gradients into float32 parameters are accumulated
        in float64 and cast into the float32 moments, as a per-parameter
        in-place update does.  In a step that mixes float32 and float64
        gradients the float32 ones are promoted too.
        """
        if grads is None:
            grads = [p.grad for p in self.params]
        else:
            grads = list(grads)
            if len(grads) != len(self.params):
                raise ShapeError(f"got {len(grads)} gradients for {len(self.params)} parameters")
        flat = []
        for p, g in zip(self.params, grads):
            if g is None:
                g = np.zeros(p.size, dtype=p.dtype)
            elif np.shape(g) != p.shape:
                raise ShapeError(f"gradient shape {np.shape(g)} != parameter shape {p.shape}")
            flat.append(np.reshape(g, -1))
        g = np.concatenate(flat)
        if not np.isfinite(g).all():
            raise NonFiniteError("non-finite gradient passed to Adam.step")

        self.step_count += 1
        t = self.step_count
        bias1 = 1.0 - self.beta1 ** t
        bias2 = 1.0 - self.beta2 ** t
        m, v = self._m, self._v
        m *= self.beta1
        m += (1.0 - self.beta1) * g
        v *= self.beta2
        v += (1.0 - self.beta2) * np.square(g)
        self._flat -= (self.learning_rate / bias1) * m / (np.sqrt(v / bias2) + self.eps)
        if not np.isfinite(self._flat).all():
            raise NonFiniteError("parameter diverged to non-finite values in Adam.step")


def minimize(params: Sequence[Tensor], loss_fn: Callable[[int], Tensor], iterations: int,
             learning_rate: float, frozen: Sequence[Tensor] = ()) -> list[float]:
    """Run ``iterations`` steps of Adam on ``loss_fn(i)`` over ``params``.

    ``params`` get ``requires_grad`` and ``frozen`` lose it for the duration
    of the loop; every flag is restored afterwards.  The bytes of ``frozen``
    are snapshotted first, and any change raises ``FreezingViolation``.
    Returns the loss of every iteration.
    """
    params, frozen = list(params), list(frozen)
    flags = [(t, t.requires_grad) for t in params + frozen]
    before = [t.data.tobytes() for t in frozen]
    losses: list[float] = []
    try:
        for t in frozen:
            t.requires_grad = False
        for t in params:
            t.requires_grad = True
        optimizer = Adam(params, learning_rate=learning_rate)
        for i in range(iterations):
            loss = loss_fn(i)
            ad.backward(loss)
            optimizer.step()
            losses.append(loss.item())
    finally:
        for t, flag in flags:
            t.requires_grad = flag
    if [t.data.tobytes() for t in frozen] != before:
        raise FreezingViolation("freezing contract violated: a frozen tensor changed")
    return losses
