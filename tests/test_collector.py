"""The CLI runs each command with the cyclic garbage collector paused.

That is safe only while the pipeline builds no reference cycles, so that
reference counting frees everything a command made. These tests keep it so,
and check that `main` hands the collector back in the state it found it.
"""

import gc
import shutil

import pytest

from ontoforge.cli import main
from support import BUNDLED

EXT_OFN = """\
Prefix(e:=<https://example.org/ext#>)
Ontology(<https://example.org/ext>
Declaration(Class(e:Part))
Declaration(Class(e:Whole))
SubClassOf(e:Part e:Whole)
)
"""

FAILING_TEST_ONT = """\
(defontology menu :iri "https://example.org/menu#")
(defclass Pizza)
(defclass Margherita)
(deftest Broken (is (isuperclass? Margherita Pizza)))
"""


@pytest.fixture()
def pizza_tree(tmp_path):
    src = tmp_path / "pizza"
    shutil.copytree(BUNDLED, src)
    return src


@pytest.fixture()
def external_tree(tmp_path):
    src = tmp_path / "ext"
    src.mkdir()
    (src / "ext.ofn").write_text(EXT_OFN, encoding="utf-8")
    (src / "host.ont").write_text(
        '(defontology host :iri "https://example.org/host#")\n'
        '(read-external "ext.ofn")\n'
        "(defclass Thing2 :subclass Part)\n",
        encoding="utf-8",
    )
    return src


@pytest.fixture()
def broken_tree(tmp_path):
    src = tmp_path / "broken"
    src.mkdir()
    (src / "menu.ont").write_text(
        '(defontology menu :iri "https://example.org/menu#")\n(defclass Pizza :subclass Ghost)\n',
        encoding="utf-8",
    )
    return src


@pytest.fixture()
def failing_tree(tmp_path):
    src = tmp_path / "failing"
    src.mkdir()
    (src / "menu.ont").write_text(FAILING_TEST_ONT, encoding="utf-8")
    return src


def _ontoforge_garbage(argv) -> tuple[int, list[str]]:
    """Run main with the collector off; the ontoforge objects only a collection frees."""
    was_enabled = gc.isenabled()
    flags = gc.get_debug()
    gc.disable()
    gc.collect()
    gc.garbage.clear()
    try:
        gc.set_debug(gc.DEBUG_SAVEALL)
        code = main(argv)
        gc.collect()
        found = sorted(
            {
                f"{type(obj).__module__}.{type(obj).__qualname__}"
                for obj in gc.garbage
                if (getattr(type(obj), "__module__", None) or "").startswith("ontoforge")
            }
        )
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
    return code, found


def test_pizza_commands_leave_no_cyclic_garbage(pizza_tree, tmp_path, capsys):
    src = ["--src", str(pizza_tree)]
    for argv, want in (
        (["check", *src], 0),
        (["classify", *src], 0),
        (["compile", *src, "--out", str(tmp_path / "out")], 0),
        (["test", *src], 0),
        (["doc", *src, "--name", "Pizza"], 0),
        (["labels", "skeleton", *src, "--lang", "de", "--out", str(tmp_path / "de")], 0),
        (["memorise", "save", *src, "--file", str(tmp_path / "pizza.memo")], 2),
    ):
        assert _ontoforge_garbage(argv) == (want, []), argv
    capsys.readouterr()


def test_external_commands_leave_no_cyclic_garbage(external_tree, tmp_path, capsys):
    src = ["--src", str(external_tree)]
    memo = str(tmp_path / "names.memo")
    for argv in (
        ["check", *src],
        ["classify", *src],
        ["test", *src],
        ["compile", *src, "--out", str(tmp_path / "out")],
        ["memorise", "save", *src, "--file", memo],
    ):
        assert _ontoforge_garbage(argv) == (0, []), argv
    capsys.readouterr()


def test_a_source_error_leaves_no_cyclic_garbage(broken_tree, capsys):
    assert _ontoforge_garbage(["check", "--src", str(broken_tree)]) == (2, [])
    assert "unbound identifier 'Ghost'" in capsys.readouterr().err


@pytest.mark.parametrize("enabled", [True, False])
def test_main_hands_the_collector_back_as_it_found_it(
    enabled, failing_tree, broken_tree, tmp_path, capsys
):
    missing = str(tmp_path / "nowhere.properties")
    calls = (
        (["check", "--src", str(failing_tree)], 0),
        (["test", "--src", str(failing_tree)], 1),
        (["check", "--src", str(broken_tree)], 2),
        (["labels", "apply", "--src", str(failing_tree), "--lang", "it", "--file", missing], 3),
        (["no-such-command"], 2),
        (["check", "--no-such-option"], 2),
    )
    was_enabled = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        for argv, want in calls:
            assert main(argv) == want, argv
            assert gc.isenabled() is enabled, argv
    finally:
        (gc.enable if was_enabled else gc.disable)()
    capsys.readouterr()
