"""Every name a package, test or tool module imports is read somewhere in
that module (an __all__ entry is not a read, so nothing re-exports), every
private function or method is read somewhere in the package, and every
engine name the benchmark tracer patches or the fixture generator imports
exists, and importing the engine loads none of the standard modules that
are slow to import."""

import ast
import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "prationality"


def _unread_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in read]


@pytest.mark.parametrize("path", [path for folder in (SRC, ROOT / "tests", ROOT / "tools")
                                  for path in sorted(folder.glob("*.py"))],
                         ids=lambda p: p.name)
def test_no_unread_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert _unread_imports(tree) == []


def _private_defs(tree: ast.Module):
    """Module-level functions and methods named _x (dunders excepted)."""
    scopes = [tree.body] + [node.body for node in tree.body
                            if isinstance(node, ast.ClassDef)]
    return [node for body in scopes for node in body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name.startswith("_") and not node.name.endswith("__")]


def test_no_unread_private_defs():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = [f"{name}: {node.name} (line {node.lineno})"
              for name, tree in trees.items() for node in _private_defs(tree)
              if node.name not in read]
    assert unread == []


def test_traced_layers_resolve():
    # perfbench/tracing.py imports only the standard library; a traced name
    # deleted from the engine should fail here, not crash a traced bench run
    spec = importlib.util.spec_from_file_location(
        "tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for module, qualname, _ in tracing.TARGETS:
        obj = importlib.import_module(f"prationality.{module}")
        for attr in qualname.split("."):
            obj = getattr(obj, attr, None)
        if not callable(obj):
            missing.append(f"{module}.{qualname}")
    assert missing == []


def test_fixture_generator_imports_resolve():
    # tools/generate_fixtures.py needs mpmath and is not run by the tests;
    # an engine name it imports that was deleted should fail here
    path = ROOT / "tools" / "generate_fixtures.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module
                and node.module.split(".")[0] == "prationality"
                for alias in node.names]
    assert imported
    missing = [f"{module}.{name}" for module, name in imported
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []


def test_import_loads_no_heavy_standard_modules():
    # each costs milliseconds at start-up, which every one-shot prat call
    # pays; -S keeps site-packages' .pth files from preloading them
    code = (f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); "
            "import prationality.cli, prationality.harness, "
            "prationality.families, prationality.recurrence, prationality.selftest; "
            "print(sorted(m for m in ('dataclasses', 'inspect', 'logging', "
            "'typing', 'importlib.resources') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
