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
