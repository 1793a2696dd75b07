import pytest

from anchorinv import autodiff as ad


@pytest.fixture
def spy_engine(monkeypatch):
    """``spy_engine(*names, module=autodiff)`` wraps those functions of ``module``
    and returns a list that gets the function's name at each call from then on."""
    def spy_on(*names, module=ad):
        calls = []
        for name in names:
            original = getattr(module, name)

            def spy(*args, _original=original, _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, spy)
        return calls

    return spy_on


@pytest.fixture
def spy_convs(spy_engine, monkeypatch):
    """``spy_convs(*names)`` is ``spy_engine("conv2d", "conv_pool", *names)``
    whose list also gets "im2col" at each ``_im2col`` over a one-channel
    (N, 1, H, W) input: columns built from a batch's raw input, where the
    ``_im2col`` of columns or features built already is a view."""
    def spy_on(*names):
        calls = spy_engine("conv2d", "conv_pool", *names)
        real = ad._im2col

        def im2col(xd, *args):
            if xd.shape[1] == 1:
                calls.append("im2col")
            return real(xd, *args)

        monkeypatch.setattr(ad, "_im2col", im2col)
        return calls

    return spy_on
