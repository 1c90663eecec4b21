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

    _patch_everywhere(monkeypatch, original, counted)
    return calls


def _patch_everywhere(monkeypatch, original, replacement):
    """Replace original by replacement in every prationality module that
    holds it, under any name."""
    for name, module in list(sys.modules.items()):
        if name == "prationality" or name.startswith("prationality."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


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
def squarefree_parts_calls(monkeypatch):
    """p of every numberfield.squarefree_parts call."""
    return _record_calls(monkeypatch, numberfield.squarefree_parts,
                         lambda K, p: p)


@pytest.fixture
def dedekind_calls(monkeypatch):
    """(f, p) of every numberfield.dedekind_p_maximal call."""
    return _record_calls(monkeypatch, numberfield.dedekind_p_maximal,
                         lambda f, p, factors: (tuple(f), p))


@pytest.fixture
def discriminant_calls(monkeypatch):
    """f of every ring.discriminant call."""
    return _record_calls(monkeypatch, ring.discriminant, lambda f: tuple(f))


@pytest.fixture
def make_field_calls(monkeypatch):
    """f of every numberfield.make_field call."""
    return _record_calls(monkeypatch, numberfield.make_field,
                         lambda f, *rest: tuple(f))


@pytest.fixture
def unit_min_poly_calls(monkeypatch):
    """The unit's coordinates at every NumberField.unit_min_poly call."""
    calls = []
    original = numberfield.NumberField.unit_min_poly

    def counted(K, unit):
        calls.append(unit.coords)
        return original(K, unit)

    monkeypatch.setattr(numberfield.NumberField, "unit_min_poly", counted)
    return calls


@pytest.fixture
def kernel_builds(monkeypatch):
    """(f, m) of every ring.kernel call."""
    return _record_calls(monkeypatch, ring.kernel, lambda f, m: (tuple(f), m))


@pytest.fixture
def kernel_pows(monkeypatch):
    """(f, m, e) of every pow v^e on a ring.kernel(f, m)."""
    pows = []
    original = ring.kernel

    def spy(f, m):
        k = original(f, m)

        def power(v, e):
            pows.append((tuple(f), m, e))
            return k.pow(v, e)

        return k._replace(pow=power)

    _patch_everywhere(monkeypatch, original, spy)
    return pows


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
