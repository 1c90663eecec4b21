import signal
import sys
from contextlib import contextmanager

import pytest

from prationality import numberfield, ring


def _record_calls(monkeypatch, original, entry):
    """Record entry(*args) for every call of original, including calls
    through a name that a prationality module imported."""
    calls = []

    def counted(*args):
        calls.append(entry(*args))
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name == "prationality" or name.startswith("prationality."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.fixture
def factor_mod_p_calls(monkeypatch):
    """(f, p) of every ring.factor_mod_p call."""
    return _record_calls(monkeypatch, ring.factor_mod_p,
                         lambda f, p: (tuple(f), p))


@pytest.fixture
def ideal_calls(monkeypatch):
    """p of every numberfield.ideal_from_two_generators call."""
    return _record_calls(monkeypatch, numberfield.ideal_from_two_generators,
                         lambda K, p, g: p)


@pytest.fixture
def distinct_degree_calls(monkeypatch):
    """(f, p) of every ring._distinct_degree call."""
    return _record_calls(monkeypatch, ring._distinct_degree,
                         lambda f, p: (tuple(f), p))


@pytest.fixture
def pow_mod_calls(monkeypatch):
    """(exponent, modulus) of every NumberField.pow_mod call."""
    calls = []
    original = numberfield.NumberField.pow_mod

    def counted(K, a, exponent, modulus):
        calls.append((exponent, modulus))
        return original(K, a, exponent, modulus)

    monkeypatch.setattr(numberfield.NumberField, "pow_mod", counted)
    return calls


@pytest.fixture
def deadline():
    """deadline(seconds) is a context manager that fails the test when its
    body runs longer than that (SIGALRM, so main thread only)."""
    def expire(signum, frame):
        raise TimeoutError("deadline passed")

    @contextmanager
    def within(seconds):
        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(seconds)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    return within
