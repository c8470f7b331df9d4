"""Every package module imports only the standard library, the project's
declared dependencies and the package itself.

`pyproject.toml` declares numpy and pyyaml (imported as `yaml`). scipy is a
test-only dependency and threadpoolctl is not one at all, so a module
importing either would pass the tests and fail on a plain install. No
linter ships with the project, so this walks each module's syntax tree.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "vaxnet"
MODULES = sorted(PACKAGE.glob("*.py"))
ALLOWED = frozenset(sys.stdlib_module_names) | {"numpy", "yaml", "vaxnet"}


def imported_packages(source: str) -> set[str]:
    """Top-level names of the packages an absolute import statement loads."""
    tree = ast.parse(source)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_checker_finds_packages_outside_the_dependencies():
    source = ("from __future__ import annotations\nimport os.path, json as js\n"
              "import numpy as np\nimport scipy.sparse\nfrom . import graph\n"
              "from .spectral import lambda_max\n"
              "def f():\n    from threadpoolctl import threadpool_limits\n")
    assert imported_packages(source) == {"__future__", "os", "json", "numpy", "scipy",
                                         "threadpoolctl"}
    assert imported_packages(source) - ALLOWED == {"scipy", "threadpoolctl"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_only_declared_dependencies(path):
    assert imported_packages(path.read_text(encoding="utf-8")) - ALLOWED == set()
