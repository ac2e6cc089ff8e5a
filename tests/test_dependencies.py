"""Import hygiene under src/besovlab: the declared runtime dependencies are
exactly the packages the code imports, every name in a module's __all__ is
bound there, and no module imports a name it never uses."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _optional(tree: ast.AST) -> set[int]:
    """ids of import nodes inside a ``try`` that handles ImportError."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Try) and any(
            isinstance(h.type, ast.Name) and h.type.id in ("ImportError", "ModuleNotFoundError")
            for h in node.handlers
        ):
            out |= {id(n) for stmt in node.body for n in ast.walk(stmt)}
    return out


def third_party_imports() -> set[str]:
    """Top-level names of the non-stdlib, non-package modules imported under
    src/besovlab, at module level or inside functions; optional imports
    guarded by ``except ImportError`` are left out."""
    found = set()
    for path in sorted((ROOT / "src" / "besovlab").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        optional = _optional(tree)
        for node in ast.walk(tree):
            if id(node) in optional:
                continue
            if isinstance(node, ast.Import):
                found |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    return found - set(sys.stdlib_module_names) - {"__future__", "besovlab"}


def test_declared_dependencies_match_imports():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.split(r"[\s<>=!~;\[]", dep, maxsplit=1)[0].lower()
                for dep in project["dependencies"]}
    assert third_party_imports() == declared


def test_optional_import_is_left_out():
    # the CLI imports threadpoolctl under ``except ImportError``
    assert "from threadpoolctl import" in (ROOT / "src" / "besovlab" / "cli.py").read_text()
    assert "threadpoolctl" not in third_party_imports()


def _modules():
    for path in sorted((ROOT / "src" / "besovlab").rglob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def _imported(tree: ast.AST) -> set[str]:
    """Names bound by import statements anywhere in the module."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out |= {alias.asname or alias.name for alias in node.names}
    return out


def _module_level(stmts) -> set[str]:
    """Names bound by module-level statements (``if``/``try`` bodies included)."""
    out = set()
    for node in stmts:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out |= _imported(node)
        elif isinstance(node, (ast.If, ast.Try)):
            out |= _module_level(node.body + node.orelse + getattr(node, "finalbody", []))
            out |= _module_level([s for h in getattr(node, "handlers", []) for s in h.body])
    return out


def _exports(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def test_every_exported_name_is_bound():
    unbound = {path.name: sorted(set(_exports(tree)) - _module_level(tree.body))
               for path, tree in _modules()}
    assert {k: v for k, v in unbound.items() if v} == {}


def test_no_module_imports_a_name_it_never_uses():
    # __init__ imports only to re-export
    unused = {}
    for path, tree in _modules():
        if path.name == "__init__.py":
            continue
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused[path.name] = sorted(_imported(tree) - used)
    assert {k: v for k, v in unused.items() if v} == {}
