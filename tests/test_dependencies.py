"""Every module the package imports is the standard library's, its own, or a
declared dependency in pyproject.toml."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OWN = {"biorth", "biorth_launcher"}


def imported_modules(path):
    """The top-level names of every absolute import in the file, function-level ones included."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def declared_dependencies():
    with open(ROOT / "pyproject.toml", "rb") as f:
        project = tomllib.load(f)["project"]
    return {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower().replace("-", "_")
            for dep in project["dependencies"]}


def test_every_third_party_import_is_a_declared_dependency():
    files = sorted(SRC.rglob("*.py"))
    assert SRC / "biorth" / "matio.py" in files
    third_party = {
        name for path in files for name in imported_modules(path)
        if name not in sys.stdlib_module_names and name not in OWN
    }
    assert {"numpy", "orjson"} <= third_party
    assert third_party - declared_dependencies() == set()
