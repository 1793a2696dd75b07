"""Tests for the Adam optimizer.

The update rule is checked against a literal transcription of the
bias-corrected equations computed step by step with plain numpy.
"""

import numpy as np
import pytest

from anchorinv import autodiff as ad
from anchorinv.autodiff import NonFiniteError, ShapeError, Tensor
from anchorinv.optim import Adam, FreezingViolation, minimize


def _adam_reference(x0, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Independent Adam transcript: returns the parameter after each step."""
    x = np.array(x0, dtype=np.float64)
    m = np.zeros_like(x)
    v = np.zeros_like(x)
    out = []
    for t, g in enumerate(grads, start=1):
        g = np.asarray(g, dtype=np.float64)
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        x = x - lr * m_hat / (np.sqrt(v_hat) + eps)
        out.append(x.copy())
    return out


def test_single_step_matches_reference():
    # first step: m_hat = g, v_hat = g^2, so the update is lr * sign(g)
    p = Tensor(np.array([1.0, -2.0, 0.5], dtype=np.float64), requires_grad=True)
    opt = Adam([p], learning_rate=0.1)
    g = np.array([0.3, -0.7, 2.0])
    opt.step([g])
    expect = np.array([1.0, -2.0, 0.5]) - 0.1 * g / (np.abs(g) + 1e-8)
    np.testing.assert_allclose(p.data, expect, rtol=1e-12)


def test_multi_step_matches_reference():
    rng = np.random.default_rng(40)
    x0 = rng.standard_normal(5)
    grads = [rng.standard_normal(5) for _ in range(7)]
    p = Tensor(x0.copy(), requires_grad=True)
    opt = Adam([p], learning_rate=0.05)
    reference = _adam_reference(x0, grads, lr=0.05)
    for g, expect in zip(grads, reference):
        opt.step([g])
        np.testing.assert_allclose(p.data, expect, rtol=1e-10)


def test_multiple_parameters_independent_moments():
    rng = np.random.default_rng(41)
    a0 = rng.standard_normal(3)
    b0 = rng.standard_normal((2, 2))
    a = Tensor(a0.copy(), requires_grad=True)
    b = Tensor(b0.copy(), requires_grad=True)
    opt = Adam([a, b], learning_rate=0.01)
    ga = [rng.standard_normal(3) for _ in range(4)]
    gb = [rng.standard_normal((2, 2)) for _ in range(4)]
    for t in range(4):
        opt.step([ga[t], gb[t]])
    np.testing.assert_allclose(a.data, _adam_reference(a0, ga, lr=0.01)[-1], rtol=1e-10)
    np.testing.assert_allclose(b.data, _adam_reference(b0, gb, lr=0.01)[-1], rtol=1e-10)


def test_step_consumes_backward_grads():
    p = Tensor(np.array([2.0], dtype=np.float64), requires_grad=True)
    opt = Adam([p], learning_rate=0.1)
    loss = ad.tensor_sum(ad.mul(p, p))  # grad = 2p = 4
    ad.backward(loss)
    opt.step()
    expect = _adam_reference([2.0], [[4.0]], lr=0.1)[-1]
    np.testing.assert_allclose(p.data, expect, rtol=1e-12)


def test_none_gradient_keeps_fresh_parameter_identical():
    p = Tensor(np.array([1.5, -0.5], dtype=np.float32), requires_grad=True)
    before = p.data.tobytes()
    opt = Adam([p], learning_rate=1.0)
    opt.step([None])
    assert p.data.tobytes() == before
    assert opt.step_count == 1


def test_none_gradient_decays_existing_moments():
    # after a real step, a None step still moves the parameter via momentum
    p = Tensor(np.array([0.0], dtype=np.float64), requires_grad=True)
    opt = Adam([p], learning_rate=0.1)
    opt.step([np.array([1.0])])
    after_first = p.data.copy()
    opt.step([None])
    assert not np.array_equal(p.data, after_first)


def test_zero_learning_rate_never_moves():
    rng = np.random.default_rng(42)
    p = Tensor(rng.standard_normal(4), requires_grad=True)
    before = p.data.copy()
    opt = Adam([p], learning_rate=0.0)
    for _ in range(5):
        opt.step([rng.standard_normal(4)])
    np.testing.assert_array_equal(p.data, before)


def test_descends_simple_quadratic():
    p = Tensor(np.array([5.0, -3.0], dtype=np.float64), requires_grad=True)
    opt = Adam([p], learning_rate=0.1)
    for _ in range(500):
        loss = ad.tensor_sum(ad.mul(p, p))
        ad.backward(loss)
        opt.step()
    np.testing.assert_allclose(p.data, [0.0, 0.0], atol=1e-3)


def test_constructor_validation():
    p = Tensor(np.zeros(2), requires_grad=True)
    with pytest.raises(ValueError):
        Adam([])
    with pytest.raises(TypeError):
        Adam([np.zeros(2)])
    with pytest.raises(ValueError):
        Adam([p], beta1=1.0)
    with pytest.raises(ValueError):
        Adam([p], learning_rate=-0.1)


def test_step_validation():
    p = Tensor(np.zeros(3), requires_grad=True)
    opt = Adam([p])
    with pytest.raises(ShapeError):
        opt.step([np.zeros(4)])
    with pytest.raises(ShapeError):
        opt.step([np.zeros(3), np.zeros(3)])
    with pytest.raises(NonFiniteError):
        opt.step([np.array([1.0, np.nan, 0.0])])


def test_float32_parameters_stay_float32():
    p = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    opt = Adam([p], learning_rate=0.01)
    opt.step([np.ones(3)])
    assert p.data.dtype == np.float32


# ---------------------------------------------------------------------------
# minimize: the shared loop and its freezing contract


def test_minimize_matches_hand_written_adam_loop():
    def quadratic(p, q):
        return ad.tensor_sum(ad.add(ad.mul(p, p), ad.mul(p, q)))

    p0, q0 = np.array([1.5, -2.0]), np.array([0.5, 0.25])
    p, q = Tensor(p0.copy()), Tensor(q0.copy())
    losses = minimize([p], lambda i: quadratic(p, q), 7, 0.1, frozen=[q])

    ref_p = Tensor(p0.copy(), requires_grad=True)
    ref_q = Tensor(q0.copy())
    opt = Adam([ref_p], learning_rate=0.1)
    ref_losses = []
    for _ in range(7):
        loss = quadratic(ref_p, ref_q)
        ad.backward(loss)
        opt.step()
        ref_losses.append(loss.item())
    assert p.data.tobytes() == ref_p.data.tobytes()
    assert losses == ref_losses
    assert q.data.tobytes() == q0.tobytes()


def test_minimize_sets_and_restores_flags():
    p = Tensor(np.ones(2))
    q = Tensor(np.ones(2), requires_grad=True)
    seen = []

    def loss_fn(i):
        seen.append((i, p.requires_grad, q.requires_grad))
        return ad.tensor_sum(ad.mul(p, q))

    minimize([p], loss_fn, 2, 0.1, frozen=[q])
    assert seen == [(0, True, False), (1, True, False)]
    assert not p.requires_grad and q.requires_grad


def test_minimize_detects_frozen_drift():
    p = Tensor(np.ones(2))
    q = Tensor(np.ones(2), requires_grad=True)

    def drifting(i):
        q.data += 1.0
        return ad.tensor_sum(ad.mul(p, q))

    with pytest.raises(FreezingViolation):
        minimize([p], drifting, 1, 0.1, frozen=[q])
    assert q.requires_grad and not p.requires_grad


def test_minimize_restores_flags_when_the_loss_fails():
    p = Tensor(np.ones(2))
    q = Tensor(np.ones(2), requires_grad=True)

    def failing(i):
        raise NonFiniteError("boom")

    with pytest.raises(NonFiniteError):
        minimize([p], failing, 3, 0.1, frozen=[q])
    assert q.requires_grad and not p.requires_grad
