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


def test_no_module_reads_the_text_off_an_iri():
    # An IRI is a str and is its own text, so `<x>.iri.value` and
    # `<x>.subject.value` are hops through an alias kept for callers outside
    # the package. A kind is its text too, and a str has no `.value`.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr == "value"
            and (node.value.attr if isinstance(node.value, ast.Attribute)
                 else getattr(node.value, "id", None)) in ("iri", "subject", "kind")
        ]
    assert found == []


def test_no_module_imports_enum():
    # IRIs, kinds and arrivals are each their text; an Enum member would be
    # one more representation, and hashes and reads in Python.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for m in modules if m.split(".")[0] == "enum"]
    assert found == []
