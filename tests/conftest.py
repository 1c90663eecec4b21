import sys

import pytest

from prationality import ring


@pytest.fixture
def factor_mod_p_calls(monkeypatch):
    """Record every ring.factor_mod_p call, including calls through a name
    that a prationality module imported from ring."""
    calls = []
    original = ring.factor_mod_p

    def counted(f, p):
        calls.append((tuple(f), p))
        return original(f, p)

    for name, module in list(sys.modules.items()):
        if name == "prationality" or name.startswith("prationality."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls
