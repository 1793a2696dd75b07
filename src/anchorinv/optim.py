"""Adam optimizer over autodiff tensors, and the one loop that drives it.

Standard bias-corrected Adam (Kingma & Ba).  The update is elementwise, so
the optimizer holds the parameters, the first and the second moments as three
flat vectors over all of its parameters, and a step is one pass over them;
``step`` consumes the ``.grad`` populated by ``backward`` and updates
parameter data in place.  The betas and epsilon are the paper's defaults.

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

_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


class FreezingViolation(RuntimeError):
    """A tensor held frozen during ``minimize`` changed while it ran."""


class Adam:
    """Adam over ``params``, which must share one dtype.

    On construction each parameter's ``data`` becomes a view of one flat
    vector the optimizer owns, so a step updates every parameter in place at
    once; replace a parameter's values in place, not by rebinding ``data``.
    """

    def __init__(self, params: Sequence[Tensor], learning_rate: float = 1e-3):
        params = list(params)
        if not params:
            raise ValueError("Adam needs at least one parameter")
        if not all(isinstance(p, Tensor) for p in params):
            raise TypeError("Adam parameters must be Tensors")
        if len({p.dtype for p in params}) != 1:
            raise TypeError("Adam parameters must share one dtype")
        if learning_rate < 0:
            raise ValueError(f"learning rate must be non-negative, got {learning_rate}")
        self.params = params
        self.learning_rate = float(learning_rate)
        self.step_count = 0
        self._flat = np.concatenate([p.data.reshape(-1) for p in params])
        end = 0
        for p in params:
            start, end = end, end + p.size
            p.data = self._flat[start:end].reshape(p.shape)
        self._m = np.zeros_like(self._flat)
        self._v = np.zeros_like(self._flat)
        # scratch for step: the gradient terms (in the gradient's dtype, made
        # at the first step), the update and its denominator, the finite checks
        self._term: np.ndarray | None = None
        self._update = np.empty_like(self._flat)
        self._denom = np.empty_like(self._flat)
        self._finite = np.empty(self._flat.shape, dtype=bool)

    def step(self) -> None:
        """Apply one Adam update from each parameter's ``.grad``.

        A missing ``.grad`` counts as a zero gradient: the moments decay but
        fresh state leaves the parameter bit-identical.  The gradients are
        concatenated in numpy's promoted dtype (a single parameter's is used
        as it is), so float64 gradients into float32 parameters are
        accumulated in float64 and cast into the float32 moments, as a
        per-parameter in-place update does.  In a step that mixes float32 and
        float64 gradients the float32 ones are promoted too.  The moment and
        update terms are written into scratch arrays the optimizer keeps, in
        the operation order and dtypes of the plain expressions.
        """
        grads = []
        for p in self.params:
            g = p.grad
            if g is None:
                g = np.zeros(p.size, dtype=p.dtype)
            elif g.shape != p.shape:
                raise ShapeError(f"gradient shape {g.shape} != parameter shape {p.shape}")
            grads.append(g.reshape(-1))
        g = grads[0] if len(grads) == 1 else np.concatenate(grads)
        finite = self._finite
        if not np.isfinite(g, out=finite).all():
            raise NonFiniteError("non-finite gradient passed to Adam.step")

        self.step_count += 1
        t = self.step_count
        bias1 = 1.0 - _BETA1 ** t
        bias2 = 1.0 - _BETA2 ** t
        m, v, update, denom = self._m, self._v, self._update, self._denom
        if self._term is None or self._term.dtype != g.dtype:
            self._term = np.empty_like(g)
        term = self._term
        m *= _BETA1
        np.multiply(g, 1.0 - _BETA1, out=term)
        m += term
        v *= _BETA2
        np.square(g, out=term)
        term *= 1.0 - _BETA2
        v += term
        np.multiply(m, self.learning_rate / bias1, out=update)
        np.divide(v, bias2, out=denom)
        np.sqrt(denom, out=denom)
        denom += _EPS
        update /= denom
        self._flat -= update
        if not np.isfinite(self._flat, out=finite).all():
            raise NonFiniteError("parameter diverged to non-finite values in Adam.step")


def minimize(params: Sequence[Tensor], loss_fn: Callable[[int], Tensor], iterations: int,
             learning_rate: float, frozen: Sequence[Tensor] = ()) -> list[float]:
    """Run ``iterations`` steps of Adam on ``loss_fn(i)`` over ``params``.

    ``params`` get ``requires_grad`` and ``frozen`` lose it for the duration
    of the loop; every flag is restored afterwards.  This is the one place
    the package turns the flag on: its parameters rest without it.  The
    bytes of ``frozen`` are snapshotted first, and any change raises
    ``FreezingViolation``.
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
            del loss  # free this step's graph before loss_fn builds the next
    finally:
        for t, flag in flags:
            t.requires_grad = flag
    if [t.data.tobytes() for t in frozen] != before:
        raise FreezingViolation("freezing contract violated: a frozen tensor changed")
    return losses
