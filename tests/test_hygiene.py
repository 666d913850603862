"""Import hygiene of the package, the tests and the demos, read from their syntax trees."""
from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(p for d in ("src/kuls", "tests", "demos") for p in (ROOT / d).glob("*.py"))
MODULES = sorted(f"kuls.{p.stem}" for p in (ROOT / "src/kuls").glob("*.py"))


def _all(tree: ast.Module) -> list[str]:
    """The literal __all__ of a module, or [] if it has none."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return ast.literal_eval(node.value)
    return []


def _imported(tree: ast.Module):
    """(name, line) of every name an import statement binds, anywhere in the file."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_used_or_exported(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | set(_all(tree))
    unused = [f"{name} (line {line})" for name, line in _imported(tree) if name not in used]
    assert not unused, f"{path.name} imports but never uses: {', '.join(unused)}"


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", []) if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names what it does not define: {missing}"


PACKAGE = sorted((ROOT / "src/kuls").glob("*.py"))


def _kuls_module(node: ast.ImportFrom) -> bool:
    return node.level > 0 or (node.module or "").partition(".")[0] == "kuls"


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_package_imports_at_module_level_and_only_public_names(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    local = [node.lineno for fn in ast.walk(tree)
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not local, f"{path.name} imports inside a function at lines {local}"
    private = [f"{alias.name} (line {node.lineno})" for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and _kuls_module(node)
               for alias in node.names
               if alias.name.startswith("_") and not alias.name.endswith("__")]
    assert not private, f"{path.name} imports private kuls names: {', '.join(private)}"


def _package_uses() -> tuple[set[str], set[str]]:
    """Names the package reads (loaded names, attributes and imported names),
    and the attribute names it calls as methods."""
    read, called = set(), set()
    for path in PACKAGE:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                called.add(node.func.attr)
    return read, called


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_exported_name_is_used_in_the_package(path):
    """A name in __all__ that nothing in src/kuls reads, imports or re-exports
    is a helper of the tests; it belongs in tests/oracles.py."""
    read, _ = _package_uses()
    unused = [name for name in _all(ast.parse(path.read_text(encoding="utf-8")))
              if name not in read]
    assert not unused, f"{path.name} exports names the package never uses: {unused}"


def test_every_public_field_method_is_called_in_the_package():
    tree = ast.parse((ROOT / "src/kuls/gf.py").read_text(encoding="utf-8"))
    gf = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "GF")
    _, called = _package_uses()
    uncalled = [f.name for f in gf.body if isinstance(f, ast.FunctionDef)
                and not f.name.startswith("_") and f.name not in called]
    assert not uncalled, f"GF methods the package never calls: {uncalled}"


def test_float64_appears_only_in_the_product_kernel():
    """Every matrix product, GF.matmul's included, is one sparse.contract, the
    only code that casts to float64; a float64 anywhere else in the package
    could be a second (BLAS) product path."""
    stray = []
    for path in PACKAGE:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        kernel = set()
        if path.name == "sparse.py":
            contract = next(n for n in tree.body
                            if isinstance(n, ast.FunctionDef) and n.name == "contract")
            kernel = {id(n) for n in ast.walk(contract)}
        stray += [f"{path.name}:{n.lineno}" for n in ast.walk(tree) if id(n) not in kernel
                  and ((isinstance(n, ast.Attribute) and n.attr == "float64")
                       or (isinstance(n, ast.Constant) and n.value == "float64"))]
    assert not stray, f"float64 outside sparse.contract: {stray}"


NO_MA = """import sys
from kuls.cli import main
rc = main(sys.argv[1:])
print(sorted(m for m in sys.modules if m == "numpy.ma" or m.startswith("numpy.ma.")), file=sys.stderr)
sys.exit(rc)
"""


@pytest.mark.parametrize("argv", [
    ["--family", "Omega", "--params", "n=8", "--char", "2"],
    ["--family", "N", "--params", "n=3,m=3", "--field", "GF(3,2)"],
    ["--family", "D", "--params", "m=4", "--char", "2"],
    ["--family", "Omega", "--params", "n=40", "--char", "2", "--degree-bound", "100"],
], ids=["Omega8-GF2", "N33-GF9", "D4-GF2", "Omega40-GF2"])
def test_invariants_never_imports_numpy_ma(argv):
    """numpy.ma costs the process its import (about 0.6 MB of RSS and, at
    Omega(40), 20 ms); numpy pulls it in from helpers such as a bare
    np.unique, np.setdiff1d, or np.isin once its second operand is sparse
    in its range."""
    result = subprocess.run([sys.executable, "-c", NO_MA, "invariants", *argv],
                            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stderr.splitlines()[-1] == "[]"
