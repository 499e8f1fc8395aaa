"""pyproject.toml declares every third-party module the package imports."""

from __future__ import annotations

import ast
import re
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "infogame"


def _imported_top_levels(path: Path) -> set[str]:
    """Top-level names of every absolute import in a module, including
    those made inside functions."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def test_every_third_party_import_is_a_declared_dependency():
    with open(ROOT / "pyproject.toml", "rb") as handle:
        project = tomllib.load(handle)["project"]
    # a requirement's name, as an import name: "scipy>=1.10" -> scipy
    declared = {
        re.match(r"[A-Za-z0-9._-]+", dep).group().lower().replace("-", "_")
        for dep in project["dependencies"]
    }
    used = set().union(*map(_imported_top_levels, sorted(PACKAGE.glob("*.py"))))
    third_party = used - set(sys.stdlib_module_names) - {"infogame"}
    assert {"numpy", "scipy", "orjson"} <= third_party  # the walk sees the lazy imports
    assert third_party <= declared, sorted(third_party - declared)
