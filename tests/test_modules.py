"""The package's module structure."""

import ast
from pathlib import Path

import ontoforge

PACKAGE = Path(ontoforge.__file__).parent


def test_no_module_imports_inside_a_function():
    # A function-level import hides a cycle between modules. A module that
    # needs a name from a module above it only for annotations imports it
    # under a module-level `if TYPE_CHECKING:`.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                found += [
                    f"{path.name}:{node.lineno}"
                    for node in ast.walk(function)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
    assert found == []
