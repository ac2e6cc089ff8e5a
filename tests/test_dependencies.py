"""The declared runtime dependencies are exactly the packages the code imports."""

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
