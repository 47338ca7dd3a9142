"""Every name a package module imports is used in that module.

Deleting code leaves dead imports behind, and the package has no linter. A
name imported only for others to reach (a re-export, or a name a tracer
wraps) says so with ``# noqa: F401`` on its own line, so each name is judged
alone: the comment on a parenthesised group's first line exempts no name
below it. ``__init__.py`` imports to re-export and is not checked.
"""

import ast

import pytest

from conftest import SRC_DIR

MODULES = sorted(
    path.name for path in (SRC_DIR / "relatime").glob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """``line N: name`` for each imported name the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__":
            continue
        for alias in node.names:
            if "# noqa: F401" not in lines[alias.lineno - 1]:
                imported[(alias.asname or alias.name).split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in used]


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    assert unused_imports((SRC_DIR / "relatime" / module).read_text()) == []


def test_an_unused_import_is_found():
    source = "from .errors import (\n    A,  # noqa: F401\n)\nimport numpy as np\n"
    assert unused_imports(source) == ["line 4: np"]
    assert unused_imports(source + "np.eye(2)\n") == []
    # a comment on a group's first line exempts no name below it
    grouped = "from .errors import (  # noqa: F401\n    A,\n    B,\n)\nB\n"
    assert unused_imports(grouped) == ["line 2: A"]
