"""Adam optimizer over autodiff tensors, and the one loop that drives it.

Standard bias-corrected Adam (Kingma & Ba).  The optimizer owns first/second
moment buffers per parameter and a shared step counter; ``step`` consumes the
``.grad`` populated by ``backward`` (or an explicit gradient list) and updates
parameter data in place.

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
    def __init__(self, params: Sequence[Tensor], learning_rate: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        params = list(params)
        if not params:
            raise ValueError("Adam needs at least one parameter")
        if not all(isinstance(p, Tensor) for p in params):
            raise TypeError("Adam parameters must be Tensors")
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
        self._m = [np.zeros_like(p.data) for p in params]
        self._v = [np.zeros_like(p.data) for p in params]

    def step(self, grads: Sequence[np.ndarray | None] | None = None) -> None:
        """Apply one Adam update.

        ``grads[i] is None`` (or a missing ``.grad``) counts as a zero
        gradient: the moments decay but fresh state leaves the parameter
        bit-identical.
        """
        if grads is None:
            grads = [p.grad for p in self.params]
        else:
            grads = list(grads)
            if len(grads) != len(self.params):
                raise ShapeError(f"got {len(grads)} gradients for {len(self.params)} parameters")

        self.step_count += 1
        t = self.step_count
        bias1 = 1.0 - self.beta1 ** t
        bias2 = 1.0 - self.beta2 ** t
        for p, g, m, v in zip(self.params, grads, self._m, self._v):
            if g is None:
                g = np.zeros_like(p.data)
            g = np.asarray(g)
            if g.shape != p.data.shape:
                raise ShapeError(f"gradient shape {g.shape} != parameter shape {p.data.shape}")
            if not np.all(np.isfinite(g)):
                raise NonFiniteError("non-finite gradient passed to Adam.step")
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * np.square(g)
            update = (self.learning_rate / bias1) * m / (np.sqrt(v / bias2) + self.eps)
            p.data -= update.astype(p.data.dtype, copy=False)
            if not np.all(np.isfinite(p.data)):
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
