"""Tests for the Adam optimizer.

The update rule is checked against a literal transcription of the
bias-corrected equations computed step by step with plain numpy.
"""

import numpy as np
import pytest

from anchorinv import autodiff as ad
from anchorinv.autodiff import NonFiniteError, ShapeError, Tensor
from anchorinv.optim import Adam, FreezingViolation, minimize
from oracles import adam_step


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


def _step(opt, grads):
    """One ``opt.step`` on ``grads``, handed over as each parameter's ``.grad``."""
    for p, g in zip(opt.params, grads, strict=True):
        p.grad = None if g is None else np.asarray(g)
    opt.step()


def test_single_step_matches_reference():
    # first step: m_hat = g, v_hat = g^2, so the update is lr * sign(g)
    p = Tensor(np.array([1.0, -2.0, 0.5], dtype=np.float64), requires_grad=True)
    opt = Adam([p], learning_rate=0.1)
    g = np.array([0.3, -0.7, 2.0])
    _step(opt, [g])
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
        _step(opt, [g])
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
        _step(opt, [ga[t], gb[t]])
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
    _step(opt, [None])
    assert p.data.tobytes() == before
    assert opt.step_count == 1


def test_none_gradient_decays_existing_moments():
    # after a real step, a None step still moves the parameter via momentum
    p = Tensor(np.array([0.0], dtype=np.float64), requires_grad=True)
    opt = Adam([p], learning_rate=0.1)
    _step(opt, [np.array([1.0])])
    after_first = p.data.copy()
    _step(opt, [None])
    assert not np.array_equal(p.data, after_first)


def test_zero_learning_rate_never_moves():
    rng = np.random.default_rng(42)
    p = Tensor(rng.standard_normal(4), requires_grad=True)
    before = p.data.copy()
    opt = Adam([p], learning_rate=0.0)
    for _ in range(5):
        _step(opt, [rng.standard_normal(4)])
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
    for name in ("beta1", "beta2", "eps"):  # the paper's 0.9, 0.999 and 1e-8
        with pytest.raises(TypeError):
            Adam([p], **{name: 0.5})
    with pytest.raises(ValueError):
        Adam([p], learning_rate=-0.1)


def test_step_validation():
    p = Tensor(np.zeros(3), requires_grad=True)
    opt = Adam([p])
    with pytest.raises(ShapeError):
        _step(opt, [np.zeros(4)])
    with pytest.raises(NonFiniteError):
        _step(opt, [np.array([1.0, np.nan, 0.0])])
    with pytest.raises(TypeError):  # gradients come only from .grad
        opt.step([np.zeros(3)])


def test_float32_parameters_stay_float32():
    p = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    opt = Adam([p], learning_rate=0.01)
    _step(opt, [np.ones(3)])
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


def test_minimize_steps_a_0d_parameter():
    p = Tensor(np.float32(2.0))
    losses = minimize([p], lambda i: ad.mul(p, p), 3, 0.1)
    assert p.shape == () and losses[0] == 4.0 and losses[2] < losses[1] < losses[0]


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


# ---------------------------------------------------------------------------
# one flat pass over all parameters


def _per_parameter_step(params, moments, grads, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """The per-parameter Adam update the flat step replaces, in the same numpy
    operations: in place on each parameter's data and moments."""
    bias1, bias2 = 1.0 - beta1 ** t, 1.0 - beta2 ** t
    for p, (m, v), g in zip(params, moments, grads):
        g = np.zeros_like(p) if g is None else np.asarray(g)
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * np.square(g)
        update = (lr / bias1) * m / (np.sqrt(v / bias2) + eps)
        p -= update.astype(p.dtype, copy=False)


def test_flat_step_keeps_the_bits_of_the_per_parameter_update():
    """20 steps over float32 parameters of mixed shapes, with None gradients
    and steps of float64 gradients: parameters and moments equal the
    per-parameter update bit for bit after every step."""
    rng = np.random.default_rng(43)
    shapes = [(3,), (2, 4), (4, 1, 1, 3), (1,)]
    start = [rng.standard_normal(s).astype(np.float32) for s in shapes]
    params = [Tensor(a.copy(), requires_grad=True) for a in start]
    opt = Adam(params, learning_rate=0.05)
    ref = [a.copy() for a in start]
    moments = [(np.zeros_like(a), np.zeros_like(a)) for a in start]
    for t in range(1, 21):
        dtype = np.float64 if t % 5 == 0 else np.float32
        grads = [rng.standard_normal(s).astype(dtype) for s in shapes]
        if t in (1, 3, 10):
            grads[t % 4] = None
        _step(opt, grads)
        _per_parameter_step(ref, moments, grads, t, lr=0.05)
        for p, r in zip(params, ref):
            assert p.data.dtype == np.float32 and p.data.shape == r.shape
            assert p.data.tobytes() == r.tobytes()
        assert opt._m.tobytes() == np.concatenate([m.reshape(-1) for m, _ in moments]).tobytes()
        assert opt._v.tobytes() == np.concatenate([v.reshape(-1) for _, v in moments]).tobytes()


@pytest.mark.parametrize("shapes", [[(7680,)], [(3,), (2, 4), (4, 1, 1, 3)]],
                         ids=["one", "several"])
def test_step_has_the_bits_of_the_concatenating_step(shapes):
    """``Adam.step`` (one parameter's gradient used as it is, terms written
    into scratch arrays) leaves parameters, moments and step count with the
    bytes of ``oracles.adam_step``, the plain expressions over concatenated
    gradients: over float32 and float64 gradients into float32 parameters,
    and missing gradients."""
    rng = np.random.default_rng(44)
    start = [rng.standard_normal(s).astype(np.float32) for s in shapes]
    opts = [Adam([Tensor(a.copy()) for a in start], learning_rate=0.05) for _ in range(2)]
    for t in range(1, 13):
        dtype = np.float64 if t % 4 == 0 else np.float32
        grads = [rng.standard_normal(s).astype(dtype) for s in shapes]
        if t in (2, 7):
            grads[t % len(shapes)] = None
        for opt in opts:
            for p, g in zip(opt.params, grads):
                p.grad = g
        opts[0].step()
        adam_step(opts[1])
        for name in ("_flat", "_m", "_v"):
            assert getattr(opts[0], name).tobytes() == getattr(opts[1], name).tobytes(), (t, name)
        assert opts[0].step_count == opts[1].step_count == t


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("position", [0, 1, 2])
def test_non_finite_gradient_raises_before_any_parameter_moves(bad, position):
    params = [Tensor(np.ones(s, dtype=np.float32), requires_grad=True)
              for s in [(2,), (3, 2), (4,)]]
    opt = Adam(params, learning_rate=0.1)
    grads = [np.ones(p.shape, dtype=np.float32) for p in params]
    grads[position].reshape(-1)[-1] = bad
    with pytest.raises(NonFiniteError, match="non-finite gradient"):
        _step(opt, grads)
    assert all((p.data == 1.0).all() for p in params)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("position", [0, 1])
def test_diverged_parameter_raises(position):
    # the first step moves each coordinate by the learning rate, against the gradient
    params = [Tensor(np.full(2, 1.0, dtype=np.float32), requires_grad=True) for _ in range(2)]
    params[position].data[0] = 3.4e38
    opt = Adam(params, learning_rate=1e37)
    with pytest.raises(NonFiniteError, match="diverged"):
        _step(opt, [np.full(2, -1.0, dtype=np.float32)] * 2)
    opt = Adam([Tensor(np.full(2, 3.3e38, dtype=np.float32))], learning_rate=1e37)
    _step(opt, [np.full(2, -1.0, dtype=np.float32)])  # 3.4e38 is finite: no raise


def test_parameters_become_views_of_one_flat_vector():
    a = Tensor(np.arange(3, dtype=np.float32), requires_grad=True)
    b = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
    opt = Adam([a, b], learning_rate=0.1)
    assert np.shares_memory(a.data, opt._flat) and np.shares_memory(b.data, opt._flat)
    np.testing.assert_array_equal(a.data, [0.0, 1.0, 2.0])
    b.data[0, 0] = 5.0  # an in-place edit between steps is what the next step updates
    _step(opt, [None, np.ones((2, 2))])
    assert b.data[0, 0] == pytest.approx(4.9)
    with pytest.raises(TypeError, match="one dtype"):
        Adam([a, Tensor(np.ones(2, dtype=np.float64))])
