import pytest

from anchorinv import autodiff as ad


@pytest.fixture
def spy_engine(monkeypatch):
    """``spy_engine(*names)`` wraps those ``anchorinv.autodiff`` functions and
    returns a list that gets the function's name at each call from then on."""
    def spy_on(*names):
        calls = []
        for name in names:
            original = getattr(ad, name)

            def spy(*args, _original=original, _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(ad, name, spy)
        return calls

    return spy_on
