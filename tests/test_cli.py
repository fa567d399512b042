"""Tests for the command line driver: commands, exit codes, diagnostics."""

import pytest

from ontoforge.cli import main
from support import BUNDLED

MENU_ONT = """\
(defontology menu :iri "https://example.org/menu#" :prefix "menu")
(defclass Pizza)
(defclass Margherita :subclass Pizza)
(defclass IceCream :disjoint Pizza)
(deftest Hierarchy
  (is (isuperclass? Margherita Pizza))
  (is (coherent?)))
"""

EXT_OFN = """\
Prefix(e:=<https://example.org/ext#>)
Ontology(<https://example.org/ext>
Declaration(Class(e:Part))
Declaration(Class(e:Whole))
)
"""


@pytest.fixture(autouse=True)
def plain_output(monkeypatch):
    monkeypatch.delenv("ONTOFORGE_COLOR", raising=False)


@pytest.fixture()
def menu_tree(tmp_path):
    (tmp_path / "menu.ont").write_text(MENU_ONT, encoding="utf-8")
    return tmp_path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- compile -------------------------------------------------------------------


def test_compile_writes_both_formats_by_default(menu_tree, tmp_path, capsys):
    out = tmp_path / "build"
    code, stdout, _ = run_cli(capsys, "compile", "--src", str(menu_tree), "--out", str(out))
    assert code == 0
    omn = out / "menu.omn"
    ofn = out / "menu.ofn"
    assert omn.is_file() and ofn.is_file()
    assert str(omn) in stdout and str(ofn) in stdout
    assert omn.read_text().startswith("Prefix: menu: <https://example.org/menu#>")
    assert ofn.read_text().startswith("Prefix(menu:=<https://example.org/menu#>)")


def test_compile_single_format(menu_tree, tmp_path, capsys):
    out = tmp_path / "only"
    code, stdout, _ = run_cli(
        capsys, "compile", "--src", str(menu_tree), "--out", str(out), "--format", "omn"
    )
    assert code == 0
    assert (out / "menu.omn").is_file()
    assert not (out / "menu.ofn").exists()


def test_compile_is_deterministic(menu_tree, tmp_path, capsys):
    out1, out2 = tmp_path / "b1", tmp_path / "b2"
    run_cli(capsys, "compile", "--src", str(menu_tree), "--out", str(out1))
    run_cli(capsys, "compile", "--src", str(menu_tree), "--out", str(out2))
    assert (out1 / "menu.omn").read_bytes() == (out2 / "menu.omn").read_bytes()
    assert (out1 / "menu.ofn").read_bytes() == (out2 / "menu.ofn").read_bytes()


def test_compile_output_stem_is_the_last_namespace_segment(tmp_path, capsys):
    nested = tmp_path / "shop" / "menus"
    nested.mkdir(parents=True)
    (nested / "lunch.ont").write_text(
        '(defontology lunch :iri "https://example.org/lunch#")\n', encoding="utf-8"
    )
    out = tmp_path / "build"
    code, stdout, _ = run_cli(
        capsys, "compile", "--src", str(tmp_path), "--ns", "shop.menus.lunch", "--out", str(out)
    )
    assert code == 0
    assert (out / "lunch.omn").is_file()


# --- check / namespace discovery --------------------------------------------------


def test_check_reports_counts(menu_tree, capsys):
    code, stdout, _ = run_cli(capsys, "check", "--src", str(menu_tree))
    assert code == 0
    assert stdout.strip() == "menu: 5 axioms, 1 tests"


def test_sole_namespace_is_found_recursively(tmp_path, capsys):
    deep = tmp_path / "a" / "b"
    deep.mkdir(parents=True)
    (deep / "c.ont").write_text(
        '(defontology c :iri "https://example.org/c#")\n', encoding="utf-8"
    )
    code, stdout, _ = run_cli(capsys, "check", "--src", str(tmp_path))
    assert code == 0
    assert stdout.startswith("a.b.c:")


def test_multiple_namespaces_require_ns(tmp_path, capsys):
    for name in ("one", "two"):
        (tmp_path / f"{name}.ont").write_text(
            f'(defontology {name} :iri "https://example.org/{name}#")\n', encoding="utf-8"
        )
    code, _, stderr = run_cli(capsys, "check", "--src", str(tmp_path))
    assert code == 2
    assert "--ns" in stderr
    assert "one" in stderr and "two" in stderr
    code, stdout, _ = run_cli(capsys, "check", "--src", str(tmp_path), "--ns", "two")
    assert code == 0
    assert stdout.startswith("two:")


def test_empty_source_tree_is_an_error(tmp_path, capsys):
    code, _, stderr = run_cli(capsys, "check", "--src", str(tmp_path))
    assert code == 2
    assert "no .ont files" in stderr


# --- test ------------------------------------------------------------------------


def test_test_green_suite_exits_zero(menu_tree, capsys):
    code, stdout, stderr = run_cli(capsys, "test", "--src", str(menu_tree))
    assert code == 0
    lines = stdout.splitlines()
    assert lines[0] == "ok 1 Hierarchy"
    assert lines[-1] == "# 1 tests, 2 assertions, 0 failures"
    assert stderr == ""


def test_test_failing_assertion_exits_one(tmp_path, capsys):
    (tmp_path / "menu.ont").write_text(
        MENU_ONT + "(deftest Wrong (is (isuperclass? Pizza Margherita)))\n",
        encoding="utf-8",
    )
    code, stdout, _ = run_cli(capsys, "test", "--src", str(tmp_path))
    assert code == 1
    assert "not ok 2 Wrong (assertion 1 at " in stdout
    assert "# 2 tests, 3 assertions, 1 failures" in stdout


def test_test_incoherence_exits_one_with_warning(tmp_path, capsys):
    (tmp_path / "menu.ont").write_text(
        '(defontology menu :iri "https://example.org/menu#" :prefix "menu")\n'
        "(defclass Pizza)\n"
        "(defclass IceCream :disjoint Pizza)\n"
        "(defclass Broken :subclass Pizza IceCream)\n"
        "(deftest Hierarchy (is (isuperclass? Broken Pizza)))\n",
        encoding="utf-8",
    )
    code, stdout, stderr = run_cli(capsys, "test", "--src", str(tmp_path))
    assert code == 1
    assert "warning: unsatisfiable class menu:Broken" in stderr
    assert "# 1 tests, 1 assertions, 0 failures" in stdout


def test_bundled_sample_suite_passes(capsys):
    code, stdout, _ = run_cli(capsys, "test", "--src", str(BUNDLED))
    assert code == 0
    assert "# 2 tests, 5 assertions, 0 failures" in stdout


# --- classify ----------------------------------------------------------------------


def test_classify_prints_direct_superclasses(menu_tree, capsys):
    code, stdout, _ = run_cli(capsys, "classify", "--src", str(menu_tree))
    assert code == 0
    lines = stdout.splitlines()
    assert lines == sorted(lines)
    table = dict(line.split("\t") for line in lines)
    assert table["menu:Margherita"] == "menu:Pizza"
    assert table["menu:Pizza"] == "owl:Thing"
    assert table["menu:IceCream"] == "owl:Thing"


def test_classify_marks_unsatisfiable_classes(tmp_path, capsys):
    (tmp_path / "menu.ont").write_text(
        MENU_ONT + "(defclass Broken :subclass Pizza IceCream)\n", encoding="utf-8"
    )
    code, stdout, _ = run_cli(capsys, "classify", "--src", str(tmp_path))
    assert code == 0
    table = dict(line.split("\t") for line in stdout.splitlines())
    assert table["menu:Broken"] == "owl:Nothing"


# --- labels ---------------------------------------------------------------------------


def test_labels_skeleton_writes_the_conventional_path(menu_tree, capsys):
    code, stdout, _ = run_cli(
        capsys, "labels", "skeleton", "--src", str(menu_tree), "--lang", "it"
    )
    assert code == 0
    path = menu_tree / "menulabel_it.properties"
    assert str(path) in stdout
    text = path.read_text(encoding="utf-8")
    assert text.splitlines()[0] == "# label skeleton for namespace menu, lang it"
    assert "Margherita=\n" in text


def test_labels_apply_reports_counts_and_unknowns(menu_tree, capsys):
    labels = menu_tree / "menulabel_it.properties"
    labels.write_text("Pizza=La Pizza\nMargherita=\nGhost=Fantasma\n", encoding="utf-8")
    code, stdout, stderr = run_cli(
        capsys, "labels", "apply", "--src", str(menu_tree), "--lang", "it"
    )
    assert code == 0
    assert stdout.strip().endswith("added 1, missing 2, unknown 1")
    assert "unknown class name 'Ghost'" in stderr


def test_labels_apply_explicit_file(menu_tree, tmp_path, capsys):
    labels = tmp_path / "anywhere.properties"
    labels.write_text("Pizza=La Pizza\n", encoding="utf-8")
    code, stdout, _ = run_cli(
        capsys,
        "labels", "apply", "--src", str(menu_tree), "--lang", "it", "--file", str(labels),
    )
    assert code == 0
    assert "added 1" in stdout


def test_labels_skeleton_round_trip_covers_all_classes(menu_tree, capsys):
    run_cli(capsys, "labels", "skeleton", "--src", str(menu_tree), "--lang", "pt")
    path = menu_tree / "menulabel_pt.properties"
    filled = path.read_text(encoding="utf-8").replace("=", "=algo ", 1)
    lines = [
        line if not line.startswith("#") and line.endswith("=") and "=" in line else line
        for line in filled.splitlines()
    ]
    path.write_text(
        "\n".join(
            line if line.startswith("#") or not line.endswith("=") else line + "preenchido"
            for line in lines
        )
        + "\n",
        encoding="utf-8",
    )
    code, stdout, _ = run_cli(
        capsys, "labels", "apply", "--src", str(menu_tree), "--lang", "pt"
    )
    assert code == 0
    assert "missing 0, unknown 0" in stdout


# --- memorise ----------------------------------------------------------------------


@pytest.fixture()
def interning_tree(tmp_path):
    (tmp_path / "ext.ofn").write_text(EXT_OFN, encoding="utf-8")
    (tmp_path / "menu.ont").write_text(
        '(defontology menu :iri "https://example.org/menu#" :prefix "menu")\n'
        '(read-external "ext.ofn")\n',
        encoding="utf-8",
    )
    return tmp_path


def test_memorise_save_then_check_stable(interning_tree, tmp_path, capsys):
    memo = tmp_path / "names.memo"
    code, stdout, _ = run_cli(
        capsys, "memorise", "save", "--src", str(interning_tree), "--file", str(memo)
    )
    assert code == 0
    assert memo.read_text().startswith("#memo https://example.org/ext")
    code, stdout, _ = run_cli(
        capsys, "memorise", "check", "--src", str(interning_tree), "--file", str(memo)
    )
    assert code == 0
    assert stdout.strip() == "stable"


def test_memorise_check_lists_renames_and_vanishings(interning_tree, tmp_path, capsys):
    memo = tmp_path / "names.memo"
    memo.write_text(
        "#memo https://example.org/ext\n"
        "OldPart\thttps://example.org/ext#Part\n"
        "Gone\thttps://example.org/ext#Vanished\n",
        encoding="utf-8",
    )
    code, stdout, _ = run_cli(
        capsys, "memorise", "check", "--src", str(interning_tree), "--file", str(memo)
    )
    assert code == 0
    assert "deprecated: OldPart -> Part (<https://example.org/ext#Part>)" in stdout
    assert "vanished: <https://example.org/ext#Vanished>" in stdout
    assert "stable" not in stdout


def test_memorise_save_needs_an_interned_source(menu_tree, tmp_path, capsys):
    code, _, stderr = run_cli(
        capsys, "memorise", "save", "--src", str(menu_tree), "--file", str(tmp_path / "x.memo")
    )
    assert code == 2
    assert "interns no external ontology" in stderr


# --- doc --------------------------------------------------------------------------


def test_doc_prints_labels_and_comments(tmp_path, capsys):
    (tmp_path / "menu.ont").write_text(
        '(defontology menu :iri "https://example.org/menu#" :prefix "menu")\n'
        '(defclass Pizza :label "Pizza" :comment "flat bread" '
        ':annotation (label "La Pizza" "it"))\n',
        encoding="utf-8",
    )
    code, stdout, _ = run_cli(capsys, "doc", "--src", str(tmp_path), "--name", "Pizza")
    assert code == 0
    lines = stdout.splitlines()
    assert lines[0] == "Pizza <https://example.org/menu#Pizza>"
    assert "label: Pizza @en" in lines
    assert "label: La Pizza @it" in lines
    assert "comment: flat bread @en" in lines


def test_doc_unknown_name_is_a_semantic_error(menu_tree, capsys):
    code, _, stderr = run_cli(capsys, "doc", "--src", str(menu_tree), "--name", "Ghost")
    assert code == 2
    assert "error: unbound identifier 'Ghost'" in stderr


# --- exit codes and diagnostics -----------------------------------------------------


def test_syntax_errors_exit_two_with_position(tmp_path, capsys):
    (tmp_path / "bad.ont").write_text(
        '(defontology bad :iri "https://example.org/bad#")\n(defclass Broken :subclass Ghost)\n',
        encoding="utf-8",
    )
    code, _, stderr = run_cli(capsys, "check", "--src", str(tmp_path))
    assert code == 2
    expected = f"{tmp_path / 'bad.ont'}:2:28: error: unbound identifier 'Ghost'"
    assert stderr.strip() == expected


def assert_one_located_error(stderr: str, path, line: int, column: int) -> None:
    lines = stderr.splitlines()
    assert len(lines) == 1, stderr
    assert lines[0].startswith(f"{path}:{line}:{column}: error: "), stderr


def test_non_utf8_source_exits_two_at_the_bad_byte(tmp_path, capsys):
    (tmp_path / "bad.ont").write_bytes(
        b'(defontology bad :iri "https://example.org/bad#")\n(defclass Caf\xc3\xa9\xff)\n'
    )
    code, stdout, stderr = run_cli(capsys, "check", "--src", str(tmp_path))
    assert code == 2
    assert stdout == ""
    assert_one_located_error(stderr, tmp_path / "bad.ont", 2, 15)
    assert "not valid UTF-8" in stderr


def test_non_utf8_external_file_exits_two_at_the_bad_byte(interning_tree, capsys):
    (interning_tree / "ext.ofn").write_bytes(EXT_OFN.encode("utf-8") + b"\xff\n")
    code, _, stderr = run_cli(capsys, "check", "--src", str(interning_tree))
    assert code == 2
    assert_one_located_error(stderr, interning_tree / "ext.ofn", 6, 1)
    assert "not valid UTF-8" in stderr


def test_relative_iri_in_external_file_exits_two(interning_tree, capsys):
    (interning_tree / "ext.ofn").write_text(
        EXT_OFN.replace("Declaration(Class(e:Whole))", "Declaration(Class(<foo>))"),
        encoding="utf-8",
    )
    code, _, stderr = run_cli(capsys, "check", "--src", str(interning_tree))
    assert code == 2
    assert_one_located_error(stderr, interning_tree / "ext.ofn", 4, 19)
    assert "not an absolute IRI: 'foo'" in stderr


def test_invalid_axiom_in_external_file_exits_two(interning_tree, capsys):
    (interning_tree / "ext.ofn").write_text(
        EXT_OFN.replace("\n)\n", "\nDisjointClasses(e:Part e:Part)\n)\n"), encoding="utf-8"
    )
    code, _, stderr = run_cli(capsys, "check", "--src", str(interning_tree))
    assert code == 2
    assert_one_located_error(stderr, interning_tree / "ext.ofn", 5, 1)
    assert "disjoint classes must be pairwise distinct" in stderr


def test_non_utf8_label_file_exits_two_at_the_bad_byte(menu_tree, tmp_path, capsys):
    labels = tmp_path / "bad.properties"
    labels.write_bytes(b"Pizza=La Pizza\n\xff\n")
    code, stdout, stderr = run_cli(
        capsys,
        "labels", "apply", "--src", str(menu_tree), "--lang", "it", "--file", str(labels),
    )
    assert code == 2
    assert stdout == ""
    assert_one_located_error(stderr, labels, 2, 1)
    assert "not valid UTF-8" in stderr


def test_non_utf8_memo_file_exits_two_at_the_bad_byte(interning_tree, tmp_path, capsys):
    memo = tmp_path / "bad.memo"
    memo.write_bytes(b"#memo https://example.org/ext\nPart\thttps://example.org/ext#P\xffart\n")
    code, stdout, stderr = run_cli(
        capsys, "memorise", "check", "--src", str(interning_tree), "--file", str(memo)
    )
    assert code == 2
    assert stdout == ""
    assert_one_located_error(stderr, memo, 2, 31)
    assert "not valid UTF-8" in stderr


def test_usage_errors_exit_two(capsys):
    assert run_cli(capsys, "no-such-command")[0] == 2
    assert run_cli(capsys)[0] == 2


def test_missing_files_exit_three(menu_tree, capsys):
    code, _, stderr = run_cli(
        capsys,
        "labels", "apply", "--src", str(menu_tree), "--lang", "it",
        "--file", str(menu_tree / "nowhere.properties"),
    )
    assert code == 3
    assert "error:" in stderr


def test_color_wraps_the_severity_word(tmp_path, capsys, monkeypatch):
    (tmp_path / "bad.ont").write_text("(defclass NoOntology)\n", encoding="utf-8")
    monkeypatch.setenv("ONTOFORGE_COLOR", "1")
    code, _, stderr = run_cli(capsys, "check", "--src", str(tmp_path))
    assert code == 2
    assert "\x1b[31merror\x1b[0m:" in stderr
    monkeypatch.delenv("ONTOFORGE_COLOR")
    code, _, stderr = run_cli(capsys, "check", "--src", str(tmp_path))
    assert "\x1b[" not in stderr
