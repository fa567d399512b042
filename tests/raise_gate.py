"""A pytest plugin that fails the run when a `raise` in the package never runs.

    PYTHONPATH=src:tests python -m pytest -q -p raise_gate

It needs Python 3.12 or later. Through `sys.monitoring` (PEP 669) it records
which lines of `src/ontoforge` run during the session. It imports every
module of the package first and sets line events on the package's own code
objects only, so no other code is instrumented, and each line reports once
and is then disabled. At the end it finds every `raise` statement of the
package by its syntax tree and fails the run when one never ran and
`unreached_raises.EXCUSED` gives no reason for it. An excuse whose `raise`
ran or no longer exists fails the run too, so the list holds only what no
test reaches. Code made at run time from text (`exec`) is not watched, so
a `raise` in it would count as never run.
"""

from __future__ import annotations

import ast
import gc
import importlib
import sys
from collections import Counter
from pathlib import Path
from types import CodeType, FunctionType

import pytest

from unreached_raises import EXCUSED

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ontoforge"
TOOL = "raise_gate"


def raise_sites(root: Path = PACKAGE) -> dict[tuple[str, int], str]:
    """Each `raise` statement of the package: (file, line) -> "file:function: statement".

    The n-th statement of the same text in one function gets " #n" from n = 2 on.
    """
    sites: dict[tuple[str, int], str] = {}
    seen: Counter[str] = Counter()
    for path in sorted(root.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()

        def walk(node: ast.AST, scope: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    walk(child, f"{scope}.{child.name}" if scope else child.name)
                    continue
                if isinstance(child, ast.Raise):
                    site = f"{path.name}:{scope or '<module>'}: {lines[child.lineno - 1].strip()}"
                    seen[site] += 1
                    if seen[site] > 1:
                        site += f" #{seen[site]}"
                    sites[str(path), child.lineno] = site
                walk(child, scope)

        walk(ast.parse(text, str(path)), "")
    return sites


class RaiseGate:
    def __init__(self) -> None:
        self.sites = raise_sites()
        self.ran: set[tuple[str, int]] = set()
        self.failures: list[str] = []

    def start(self) -> None:
        """Watch the lines of the package's code objects, and no other code."""
        monitoring = sys.monitoring
        for file, _ in self.sites:
            module = Path(file).stem
            importlib.import_module("ontoforge" if module == "__init__" else f"ontoforge.{module}")
        # a module's file name as its code objects hold it -> as `raise_sites` names it
        files = {module.__file__: str(Path(module.__file__).resolve())
                 for name, module in list(sys.modules.items())
                 if name.partition(".")[0] == "ontoforge"}
        watched: dict[CodeType, str] = {}  # each code object of the package -> its file
        todo = [f.__code__ for f in gc.get_objects()
                if isinstance(f, FunctionType) and f.__code__.co_filename in files]
        while todo:
            code = todo.pop()
            if code not in watched:
                watched[code] = files[code.co_filename]
                todo.extend(c for c in code.co_consts if isinstance(c, CodeType))
        lines, ran, disable = set(self.sites), self.ran, monitoring.DISABLE

        def line(code, lineno):
            key = (watched[code], lineno)
            if key in lines:
                ran.add(key)
            return disable

        monitoring.use_tool_id(monitoring.COVERAGE_ID, TOOL)
        monitoring.register_callback(monitoring.COVERAGE_ID, monitoring.events.LINE, line)
        for code in watched:
            monitoring.set_local_events(monitoring.COVERAGE_ID, code, monitoring.events.LINE)

    def stop(self) -> None:
        monitoring = sys.monitoring
        monitoring.register_callback(monitoring.COVERAGE_ID, monitoring.events.LINE, None)
        monitoring.free_tool_id(monitoring.COVERAGE_ID)

    def verdict(self) -> list[str]:
        """What fails the gate: unexcused raises that never ran, and stale excuses."""
        never = {site for key, site in self.sites.items() if key not in self.ran}
        failures = [f"never raised, and not excused: {site}"
                    for site in sorted(never - EXCUSED.keys())]
        known = set(self.sites.values())
        failures += [f"excused, but {'it ran' if site in known else 'no such raise'}: {site}"
                     for site in sorted(EXCUSED.keys() - never)]
        return failures


def pytest_configure(config) -> None:
    if not hasattr(sys, "monitoring"):
        raise pytest.UsageError("raise_gate needs sys.monitoring (Python 3.12 or later)")
    gate = RaiseGate()
    gate.start()
    config.stash[_KEY] = gate


def pytest_sessionfinish(session, exitstatus) -> None:
    gate = session.config.stash[_KEY]
    gate.stop()
    gate.failures = gate.verdict()
    if gate.failures and session.exitstatus == pytest.ExitCode.OK:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter, config) -> None:
    gate = config.stash[_KEY]
    total, ran = len(gate.sites), len(gate.ran)
    terminalreporter.section("raise gate")
    terminalreporter.write_line(
        f"{ran} of {total} raise statements ran; {len(EXCUSED)} excused in unreached_raises.py"
    )
    for failure in gate.failures:
        terminalreporter.write_line(failure, red=True)


_KEY = pytest.StashKey[RaiseGate]()
