"""The package and the CLI load each library module on first use.

`ontoforge` and `ontoforge.cli` name their library names in one table each,
and a module `__getattr__` imports a name's module when it is first looked
up. So a fresh process loads only the modules its command runs, and a wrapper
set on `cli` (as bench/spans.py sets one) is what the command calls.
"""

import contextlib
import importlib
import io
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import ontoforge
from ontoforge import cli
from support import BUNDLED

SRC = Path(ontoforge.__file__).resolve().parent.parent

# what every command that reads a tree loads: the evaluator and its imports
CHAIN = {"errors", "evaluator", "importer", "model", "patterns", "sexpr"}

LOADED = """\
import contextlib, io, sys
from ontoforge import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(code, *sorted(m for m in sys.modules if m.partition(".")[0] == "ontoforge"))
"""


@pytest.mark.parametrize(
    "argv, modules",
    [
        (["--help"], set()),
        (["check"], CHAIN),
        (["compile", "--out", "OUT"], CHAIN | {"serializer"}),
        (["classify"], CHAIN | {"reasoner", "serializer"}),
        (["test"], CHAIN | {"reasoner", "serializer", "testkit"}),
    ],
    ids=["help", "check", "compile", "classify", "test"],
)
def test_each_command_loads_only_the_modules_it_runs(tmp_path, argv, modules):
    argv = [str(tmp_path) if arg == "OUT" else arg for arg in argv]
    if argv != ["--help"]:
        argv += ["--src", str(BUNDLED)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", LOADED, *argv], capture_output=True, text=True, env=env, check=True
    )
    code, *loaded = done.stdout.split()
    assert code == "0"
    assert set(loaded) == {"ontoforge", "ontoforge.cli"} | {f"ontoforge.{m}" for m in modules}


def test_importing_the_package_loads_no_module_until_one_is_used():
    script = (
        "import sys, ontoforge\n"
        "print(*sorted(m for m in sys.modules if m.startswith('ontoforge')))\n"
        "print(ontoforge.model.IRI.__module__)"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(SRC)), check=True,
    )
    assert done.stdout.splitlines() == ["ontoforge", "ontoforge.model"]


def test_every_public_name_is_its_defining_modules_object():
    for module, names in ontoforge._EXPORTS.items():
        home = importlib.import_module(f"ontoforge.{module}")
        for name in names:
            value = getattr(ontoforge, name)
            assert value is getattr(home, name), name
            if isinstance(value, (type, types.FunctionType)):
                assert value.__module__ == home.__name__, name
    assert sorted(ontoforge.__all__) == sorted(n for ns in ontoforge._EXPORTS.values() for n in ns)


def test_star_import_and_dir_list_every_public_name():
    namespace: dict = {}
    exec("from ontoforge import *", namespace)
    assert set(ontoforge.__all__) <= set(namespace)
    assert namespace["classify"] is ontoforge.reasoner.classify
    assert set(ontoforge.__all__) <= set(dir(ontoforge))
    assert "__version__" in dir(ontoforge)


def test_an_unknown_name_raises_attribute_error():
    for module in (ontoforge, cli):
        with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
            module.no_such_name
        assert not hasattr(module, "no_such_name")
    # a module of the package is its own attribute, as when the package
    # imported every module
    assert ontoforge.polyglot is importlib.import_module("ontoforge.polyglot")


@pytest.mark.parametrize(
    "name, command",
    [
        ("classify", "classify"),
        ("direct_superclasses", "classify"),
        ("run_tests", "test"),
        ("render_omn", "compile"),
        ("render_functional", "compile"),
    ],
)
def test_a_wrapper_set_on_cli_is_what_the_command_calls(tmp_path, monkeypatch, name, command):
    original = getattr(cli, name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, name, wrapper)
    argv = [command, "--src", str(BUNDLED)] + (["--out", str(tmp_path)] if command == "compile" else [])
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 0
    assert calls
