"""Tests for the command line driver: commands, exit codes, diagnostics."""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ontoforge
from ontoforge.cli import main
from ontoforge.importer import parse_functional
from ontoforge.patterns import MAX_INSTANTIATIONS
from ontoforge.reasoner import classify
from ontoforge.serializer import render_functional, render_omn
from ontoforge.sexpr import MAX_NESTING
from support import BUNDLED, pizza_env

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


def test_compile_shares_one_table_and_writes_what_each_render_writes(tmp_path, capsys):
    # compile names both formats through one CURIE table; each render on its
    # own builds a table of its own
    out = tmp_path / "build"
    code, _, _ = run_cli(capsys, "compile", "--src", str(BUNDLED), "--out", str(out))
    assert code == 0
    ontology = pizza_env().ontology
    assert (out / "pizza.omn").read_text(encoding="utf-8") == render_omn(ontology)
    assert (out / "pizza.ofn").read_text(encoding="utf-8") == render_functional(ontology)


CODES_OFN = """\
Ontology(<https://example.org/codes>
Declaration(Class(<http://snomed.info/id/22298006>))
Declaration(Class(<urn:example:Foo>))
)
"""


def test_compile_names_an_iri_no_prefix_covers_as_classify_does(tmp_path, capsys):
    # a numeric local name and a URN have no CURIE: every writer prints <IRI>
    src = tmp_path / "src"
    src.mkdir()
    (src / "ext.ofn").write_text(CODES_OFN, encoding="utf-8")
    (src / "a.ont").write_text(
        '(defontology a :iri "https://x.org/a#")\n(read-external "ext.ofn")\n'
        "(defclass Fever :subclass _22298006)\n(defclass Bar :subclass example_Foo)\n",
        encoding="utf-8",
    )
    code, stdout, stderr = run_cli(capsys, "classify", "--src", str(src))
    assert (code, stderr) == (0, "")
    assert stdout == "a:Bar\t<urn:example:Foo>\na:Fever\t<http://snomed.info/id/22298006>\n"
    out = tmp_path / "out"
    code, _, stderr = run_cli(capsys, "compile", "--src", str(src), "--out", str(out))
    assert (code, stderr) == (0, "")
    omn = (out / "a.omn").read_text(encoding="utf-8")
    assert "Class: a:Fever\n    SubClassOf: \n        <http://snomed.info/id/22298006>\n" in omn
    assert omn.endswith("Class: a:Bar\n    SubClassOf: \n        <urn:example:Foo>\n")
    ofn = (out / "a.ofn").read_text(encoding="utf-8")
    assert "SubClassOf(a:Fever <http://snomed.info/id/22298006>)\n" in ofn
    assert "SubClassOf(a:Bar <urn:example:Foo>)\n" in ofn
    assert render_functional(parse_functional(ofn)) == ofn
    # neither base holds a name with a CURIE, so neither output declares it
    for label in ("id", "ext"):
        assert f"Prefix: {label}: " not in omn
        assert f"Prefix({label}:=" not in ofn


def test_compile_refuses_a_language_tag_its_own_reader_refuses(tmp_path, capsys):
    (tmp_path / "m.ont").write_text(
        '(defontology m :iri "https://example.org/m#")\n'
        '(defclass A :annotation (label "x" "a b"))\n',
        encoding="utf-8",
    )
    out = tmp_path / "out"
    code, stdout, stderr = run_cli(capsys, "compile", "--src", str(tmp_path), "--out", str(out))
    assert (code, stdout) == (2, "")
    assert stderr == f"{tmp_path / 'm.ont'}:2:25: error: not a language tag: 'a b'\n"
    assert not out.exists()


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


@pytest.mark.parametrize("ns", [".", "..", "menu.", "ABSOLUTE"])
def test_ns_must_be_a_namespace_name(menu_tree, tmp_path, capsys, ns):
    if ns == "ABSOLUTE":
        ns = str(menu_tree / "menu")  # outside --src, which is empty
    src = tmp_path / "empty"
    src.mkdir()
    code, stdout, stderr = run_cli(capsys, "check", "--src", str(src), "--ns", ns)
    assert (code, stdout, stderr) == (2, "", f"error: invalid namespace name '{ns}'\n")


def test_an_empty_ns_is_not_a_namespace_name(menu_tree, capsys):
    code, stdout, stderr = run_cli(capsys, "check", "--src", str(menu_tree), "--ns", "")
    assert (code, stdout, stderr) == (2, "", "error: invalid namespace name ''\n")


def test_empty_source_tree_is_an_error(tmp_path, capsys):
    code, _, stderr = run_cli(capsys, "check", "--src", str(tmp_path))
    assert code == 2
    assert "no .ont files" in stderr


def test_namespace_errors_name_the_directory_an_empty_src_means(tmp_path, monkeypatch, capsys):
    # `--src ''` is the working directory, and both messages say so
    monkeypatch.chdir(tmp_path)
    code, stdout, stderr = run_cli(capsys, "check", "--src", "")
    assert (code, stdout, stderr) == (2, "", "error: no .ont files under .\n")
    for name in ("a", "b"):
        (tmp_path / f"{name}.ont").write_text(f'(defontology {name} :iri "https://x.org/{name}#")\n')
    code, stdout, stderr = run_cli(capsys, "check", "--src", "")
    assert (code, stdout) == (2, "")
    assert stderr == "error: 2 namespaces under .; pick one with --ns (a, b)\n"


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


EXT_PART_UNDER_B_OFN = EXT_OFN.replace(
    "\n)\n", "\nDeclaration(Class(e:B))\nSubClassOf(e:Part e:B)\n)\n"
)


@pytest.mark.parametrize(
    "body, column",
    [
        ("(is (isuperclass? C B))", 16),
        ('(is (with-probe-entities [(x (owlclass "X" :subclass C))] (isuperclass? x B)))', 70),
    ],
)
def test_an_unclassified_class_in_isuperclass_is_located_at_the_assertion(
    tmp_path, capsys, body, column
):
    # e:B comes only from the external file's axioms, which are not classified
    (tmp_path / "ext.ofn").write_text(EXT_PART_UNDER_B_OFN, encoding="utf-8")
    (tmp_path / "menu.ont").write_text(
        '(defontology menu :iri "https://example.org/menu#")\n(read-external "ext.ofn")\n'
        f"(defclass C :subclass Part)\n(deftest T {body})\n",
        encoding="utf-8",
    )
    code, stdout, stderr = run_cli(capsys, "test", "--src", str(tmp_path))
    assert (code, stdout) == (2, "")
    assert stderr == (
        f"{tmp_path / 'menu.ont'}:4:{column}: error: <https://example.org/ext#B> "
        "is not a named class of the classified ontology\n"
    )


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


def test_classify_lists_no_builtin_class(tmp_path, capsys):
    (tmp_path / "w.ont").write_text(
        '(defontology w :iri "http://www.w3.org/2002/07/owl#")\n'
        "(defclass Nothing)\n(defclass Thing)\n(defclass A :subclass Thing)\n",
        encoding="utf-8",
    )
    assert run_cli(capsys, "classify", "--src", str(tmp_path)) == (0, "owl:A\towl:Thing\n", "")


SKIPPING_ONT = """\
(defontology menu :iri "https://example.org/menu#" :prefix "menu")
(defclass Pizza)
(defclass Topping)
(defoproperty hasTopping :domain Pizza :characteristic :transitive)
(defclass Plain :subclass Pizza (owlonly hasTopping Topping))
(deftest Probed
  (is (with-probe-entities [(p (owlclass "P" :subclass (owlonly hasTopping Topping)))]
        (coherent?))))
"""


def test_skipped_axioms_are_counted_in_one_warning(tmp_path, capsys):
    (tmp_path / "menu.ont").write_text(SKIPPING_ONT, encoding="utf-8")
    # the probe's own universal restriction is undone with the probe, so not counted
    summary = (
        "warning: the classifier skipped 3 axioms outside its fragment: "
        "1 ObjectPropertyDomain, 1 TransitiveObjectProperty, 1 universal restriction\n"
    )
    code, stdout, stderr = run_cli(capsys, "classify", "--src", str(tmp_path))
    assert (code, stderr) == (0, summary)
    assert stdout == (
        "menu:Pizza\towl:Thing\nmenu:Plain\tmenu:Pizza\nmenu:Topping\towl:Thing\n"
    )
    code, stdout, stderr = run_cli(capsys, "test", "--src", str(tmp_path))
    assert (code, stderr) == (0, summary)
    assert stdout == "ok 1 Probed\n# 1 tests, 1 assertions, 0 failures\n"
    for argv in (["check"], ["compile", "--out", str(tmp_path / "out")]):
        code, _, stderr = run_cli(capsys, *argv, "--src", str(tmp_path))
        assert (code, stderr) == (0, ""), argv


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


def test_labels_skeleton_skips_the_names_a_use_brings_in(tmp_path, capsys):
    (tmp_path / "base.ont").write_text(
        '(defontology base :iri "https://example.org/base#")\n(defclass Pizza)\n',
        encoding="utf-8",
    )
    (tmp_path / "menu.ont").write_text(
        '(defontology menu :iri "https://example.org/menu#")\n(use base)\n'
        "(defclass Thin :subclass base/Pizza)\n",
        encoding="utf-8",
    )
    code, _, _ = run_cli(
        capsys, "labels", "skeleton", "--src", str(tmp_path), "--ns", "menu", "--lang", "it"
    )
    assert code == 0
    text = (tmp_path / "menulabel_it.properties").read_text(encoding="utf-8")
    assert text == "# label skeleton for namespace menu, lang it\nThin=\n"


def test_labels_skeleton_folds_the_language_as_labels_hold_it(tmp_path, capsys):
    (tmp_path / "menu.ont").write_text(
        '(defontology menu :iri "https://example.org/menu#")\n'
        '(defclass Pizza :annotation (label "Pizza" "en"))\n(defclass Margherita)\n',
        encoding="utf-8",
    )
    code, stdout, _ = run_cli(capsys, "labels", "skeleton", "--src", str(tmp_path), "--lang", "EN")
    path = tmp_path / "menulabel_en.properties"
    assert (code, stdout) == (0, f"{path}\n")
    assert path.read_text(encoding="utf-8") == (
        "# label skeleton for namespace menu, lang en\nMargherita=\nPizza=Pizza\n"
    )


@pytest.mark.parametrize(
    "tag, message",
    [("", "language tag must not be empty"), ("a b", "not a language tag: 'a b'")],
)
@pytest.mark.parametrize("command", ["skeleton", "apply"])
def test_labels_commands_refuse_a_bad_language_tag(menu_tree, capsys, command, tag, message):
    code, stdout, stderr = run_cli(capsys, "labels", command, "--src", str(menu_tree), "--lang", tag)
    assert (code, stdout, stderr) == (2, "", f"error: {message}\n")
    assert sorted(p.name for p in menu_tree.iterdir()) == ["menu.ont"]


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


def test_labels_apply_keeps_unicode_line_separators_in_values(menu_tree, tmp_path, capsys):
    labels = tmp_path / "odd.properties"
    labels.write_text("Pizza=La\u2028Pizza\nMargherita=La\fMargherita\n", encoding="utf-8")
    code, stdout, stderr = run_cli(
        capsys,
        "labels", "apply", "--src", str(menu_tree), "--lang", "it", "--file", str(labels),
    )
    assert code == 0, stderr
    assert "added 2" in stdout


def test_a_warning_quoting_a_line_break_is_one_line(menu_tree, tmp_path, capsys):
    labels = tmp_path / "odd.properties"
    labels.write_text("Piz\\nza=La Pizza\n", encoding="utf-8")
    code, _, stderr = run_cli(
        capsys,
        "labels", "apply", "--src", str(menu_tree), "--lang", "it", "--file", str(labels),
    )
    assert code == 0
    assert stderr == f"warning: unknown class name 'Piz\\nza' in {labels}\n"


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


def test_check_prints_the_label_fallback_warnings_and_exits_zero(interning_tree, capsys):
    (interning_tree / "menu.ont").write_text(
        '(defontology menu :iri "https://example.org/menu#")\n'
        '(read-external "ext.ofn" :naming :label)\n',
        encoding="utf-8",
    )
    code, stdout, stderr = run_cli(capsys, "check", "--src", str(interning_tree))
    assert (code, stdout) == (0, "menu: 0 axioms, 0 tests\n")
    assert stderr == "".join(
        f"warning: <https://example.org/ext#{name}> has no rdfs:label; "
        f"falling back to fragment '{name}'\n"
        for name in ("Part", "Whole")
    )


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


def test_memorise_save_names_every_source_when_a_namespace_interns_two(tmp_path, capsys):
    for name, source in (("zoo.ofn", "zoo"), ("ext.ofn", "ext")):
        (tmp_path / name).write_text(
            f"Prefix(e:=<https://example.org/{source}#>)\n"
            f"Ontology(<https://example.org/{source}>\n"
            f"Declaration(Class(e:{source.title()}))\n)\n",
            encoding="utf-8",
        )
    (tmp_path / "menu.ont").write_text(
        '(defontology menu :iri "https://example.org/menu#")\n'
        '(read-external "zoo.ofn")\n(read-external "ext.ofn")\n',
        encoding="utf-8",
    )
    memo = tmp_path / "x.memo"
    code, stdout, stderr = run_cli(
        capsys, "memorise", "save", "--src", str(tmp_path), "--file", str(memo)
    )
    assert (code, stdout) == (2, "")
    assert stderr == (
        "error: namespace menu interns 2 sources; "
        "https://example.org/ext, https://example.org/zoo\n"
    )
    assert not memo.exists()


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


def _column_of_paren(line: str, n: int) -> int:
    """The 1-based column of the n-th '(' in line."""
    at = -1
    for _ in range(n):
        at = line.index("(", at + 1)
    return at + 1


def _nested_owland(levels: int) -> str:
    expr = "B"
    for _ in range(levels):
        expr = f"(owland B {expr})"
    return expr


DEEP_HEAD = '(defontology deep :iri "https://example.org/deep#")\n(defclass B)\n'


def test_deep_nesting_in_source_exits_two_at_the_parenthesis(tmp_path, capsys):
    form = f"(defclass A :subclass {_nested_owland(3000)})"
    (tmp_path / "deep.ont").write_text(DEEP_HEAD + form + "\n", encoding="utf-8")
    code, stdout, stderr = run_cli(capsys, "check", "--src", str(tmp_path))
    assert code == 2
    assert stdout == ""
    column = _column_of_paren(form, MAX_NESTING + 1)
    assert_one_located_error(stderr, tmp_path / "deep.ont", 3, column)
    assert f"nesting deeper than {MAX_NESTING} levels" in stderr


def test_nesting_at_the_limit_runs_every_command(tmp_path, capsys):
    form = f"(defclass A :subclass {_nested_owland(MAX_NESTING - 1)})"
    (tmp_path / "deep.ont").write_text(
        DEEP_HEAD + form + "\n(deftest Deep (is (isuperclass? A B)))\n", encoding="utf-8"
    )
    for argv in (["check"], ["classify"], ["test"], ["compile", "--out", str(tmp_path)]):
        code, _, stderr = run_cli(capsys, *argv, "--src", str(tmp_path))
        assert (code, stderr) == (0, ""), argv


def test_recursive_template_exits_two_at_the_use(tmp_path, capsys):
    (tmp_path / "deep.ont").write_text(
        DEEP_HEAD + "(deftemplate loop [?a] (loop [?a]))\n(loop [A])\n", encoding="utf-8"
    )
    code, stdout, stderr = run_cli(capsys, "check", "--src", str(tmp_path))
    assert (code, stdout) == (2, "")
    assert_one_located_error(stderr, tmp_path / "deep.ont", 3, 24)
    assert f"template expansion deeper than {MAX_NESTING} levels" in stderr


def test_doubling_templates_exit_two_within_the_expansion_budget(tmp_path, capsys):
    # t<i> applies t<i-1> twice: 2**20 expansions without the budget
    lines = ["(deftemplate t0 [?a] (defclass A :subclass ?a))"]
    lines += [f"(deftemplate t{i} [?a] (t{i - 1} [?a]) (t{i - 1} [?a]))" for i in range(1, 21)]
    lines.append("(t20 [B])")
    (tmp_path / "deep.ont").write_text(DEEP_HEAD + "\n".join(lines) + "\n", encoding="utf-8")
    start = time.perf_counter()
    code, stdout, stderr = run_cli(capsys, "check", "--src", str(tmp_path))
    assert time.perf_counter() - start < 5.0
    assert (code, stdout) == (2, "")
    assert_one_located_error(stderr, tmp_path / "deep.ont", 4, 22)
    assert f"more than {MAX_INSTANTIATIONS} template expansions" in stderr


def test_template_nested_at_the_limit_runs_every_command(tmp_path, capsys):
    # MAX_NESTING template uses, the innermost body at the reader's nesting limit
    lines = [f"(deftemplate t1 [?a] (defclass ?a :subclass {_nested_owland(MAX_NESTING - 2)}))"]
    lines += [f"(deftemplate t{i} [?a] (t{i - 1} [?a]))" for i in range(2, MAX_NESTING + 1)]
    lines += [f"(t{MAX_NESTING} [A])", "(deftest Deep (is (isuperclass? A B)))"]
    (tmp_path / "deep.ont").write_text(DEEP_HEAD + "\n".join(lines) + "\n", encoding="utf-8")
    for argv in (["check"], ["classify"], ["test"], ["compile", "--out", str(tmp_path)]):
        code, _, stderr = run_cli(capsys, *argv, "--src", str(tmp_path))
        assert (code, stderr) == (0, ""), argv


def test_deep_nesting_in_external_file_exits_two_at_the_parenthesis(interning_tree, capsys):
    expr = "e:Whole"
    for _ in range(3000):
        expr = f"ObjectIntersectionOf(e:Part {expr})"
    axiom = f"SubClassOf(e:Part {expr})"
    (interning_tree / "ext.ofn").write_text(
        EXT_OFN.replace("\n)\n", f"\n{axiom}\n)\n"), encoding="utf-8"
    )
    code, _, stderr = run_cli(capsys, "check", "--src", str(interning_tree))
    assert code == 2
    # Ontology( and SubClassOf( are the first two levels.
    column = _column_of_paren(axiom, MAX_NESTING)
    assert_one_located_error(stderr, interning_tree / "ext.ofn", 5, column)
    assert f"nesting deeper than {MAX_NESTING} levels" in stderr


@pytest.mark.parametrize(
    "axioms, line, message",
    [
        (
            ["SubObjectPropertyOf(e:Part e:Whole)"],
            5,
            "<https://example.org/ext#Part> declared as Class but used as ObjectProperty",
        ),
        (
            ["Declaration(ObjectProperty(e:hasPart))", "SubClassOf(e:hasPart e:Whole)"],
            6,
            "<https://example.org/ext#hasPart> declared as ObjectProperty but used as Class",
        ),
        (
            ["Declaration(ObjectProperty(e:Part))"],
            5,
            "<https://example.org/ext#Part> declared as both Class and ObjectProperty",
        ),
    ],
    ids=["class-as-property", "property-as-class", "two-declared-kinds"],
)
def test_kind_conflicts_in_external_file_are_located_at_the_axiom(
    interning_tree, capsys, axioms, line, message
):
    body = "".join(axiom + "\n" for axiom in axioms)
    (interning_tree / "ext.ofn").write_text(
        EXT_OFN.replace("\n)\n", f"\n{body})\n"), encoding="utf-8"
    )
    code, stdout, stderr = run_cli(capsys, "check", "--src", str(interning_tree))
    assert code == 2
    assert stdout == ""
    assert stderr == f"{interning_tree / 'ext.ofn'}:{line}:1: error: {message}\n"


@pytest.mark.parametrize(
    "body, line, column, message",
    [
        (
            "(value-partition V [X Y\n  X])\n",
            3,
            3,
            "'X' is listed twice; partition values must be distinct",
        ),
        (
            "(defclass P)\n(as-disjoint-subclasses P (defclass A)\n  (defclass A))\n",
            4,
            3,
            "'A' is listed twice; disjoint subclasses must be distinct",
        ),
    ],
    ids=["value-partition", "as-disjoint-subclasses"],
)
def test_repeated_pattern_members_exit_two_at_the_repeat(
    tmp_path, capsys, body, line, column, message
):
    (tmp_path / "rep.ont").write_text(
        '(defontology rep :iri "https://example.org/rep#")\n' + body, encoding="utf-8"
    )
    code, stdout, stderr = run_cli(capsys, "check", "--src", str(tmp_path))
    assert code == 2
    assert stdout == ""
    assert stderr == f"{tmp_path / 'rep.ont'}:{line}:{column}: error: {message}\n"


def test_kind_conflict_through_use_is_located_at_the_namespace(tmp_path, capsys):
    (tmp_path / "a.ont").write_text(
        '(defontology a :iri "https://example.org/x#")\n(defoproperty P)\n', encoding="utf-8"
    )
    (tmp_path / "b.ont").write_text(
        '(defontology b :iri "https://example.org/x#")\n(defclass P)\n(use a)\n',
        encoding="utf-8",
    )
    code, _, stderr = run_cli(capsys, "check", "--src", str(tmp_path), "--ns", "b")
    assert code == 2
    assert_one_located_error(stderr, tmp_path / "b.ont", 3, 6)
    assert "already declared as Class, now imported as ObjectProperty" in stderr


LABELLED_FOO_OFN = """\
Prefix(a:=<https://x.org/a#>)
Prefix(rdfs:=<http://www.w3.org/2000/01/rdf-schema#>)
Ontology(<https://x.org/ext>
Declaration(Class(a:Foo))
AnnotationAssertion(rdfs:label a:Foo "Foo")
)
"""


def imported_foo_tree(root, form: str) -> None:
    """A class a:Foo read from ext.ofn by label, then `form` in the same namespace."""
    (root / "ext.ofn").write_text(LABELLED_FOO_OFN, encoding="utf-8")
    (root / "a.ont").write_text(
        '(defontology a :iri "https://x.org/a#")\n'
        '(read-external "ext.ofn" :naming :label)\n' + form + "\n",
        encoding="utf-8",
    )


@pytest.mark.parametrize("command", ["check", "compile"])
def test_declaring_an_imported_class_as_a_property_exits_two(tmp_path, capsys, command):
    src = tmp_path / "src"
    src.mkdir()
    imported_foo_tree(src, "(defoproperty Foo)")
    out = tmp_path / "out"
    extra = ["--out", str(out)] if command == "compile" else []
    code, stdout, stderr = run_cli(capsys, command, "--src", str(src), *extra)
    assert (code, stdout) == (2, "")
    assert stderr == (
        f"{src / 'a.ont'}:3:15: error: <https://x.org/a#Foo> already imported as Class, "
        "redeclared as ObjectProperty\n"
    )
    assert not out.exists()


def test_declaring_an_imported_class_again_as_a_class_is_allowed(tmp_path, capsys):
    imported_foo_tree(tmp_path, "(defclass Foo)")
    code, stdout, stderr = run_cli(capsys, "check", "--src", str(tmp_path))
    assert (code, stdout, stderr) == (0, "a: 1 axioms, 0 tests\n", "")


EXTERNAL_HEAD = "Prefix(b:=<https://y.org/b#>)\nOntology(<https://y.org/ext>\n"


def run_with_external(tmp_path, capsys, command, declarations, host_body):
    """Run command on a.ont, which reads ext.ofn: the declarations in <https://y.org/ext>."""
    src = tmp_path / "src"
    src.mkdir()
    (src / "ext.ofn").write_text(EXTERNAL_HEAD + declarations + ")\n", encoding="utf-8")
    (src / "a.ont").write_text(
        '(defontology a :iri "https://x.org/a#")\n(read-external "ext.ofn")\n' + host_body,
        encoding="utf-8",
    )
    out = tmp_path / "out"
    extra = ["--out", str(out), "--format", "ofn"] if command == "compile" else []
    code, stdout, stderr = run_cli(capsys, command, "--src", str(src), *extra)
    return src, out, code, stdout, stderr


@pytest.mark.parametrize("command", ["check", "compile"])
def test_an_external_class_declaration_of_a_builtin_exits_two(tmp_path, capsys, command):
    src, out, code, stdout, stderr = run_with_external(
        tmp_path, capsys, command, "Declaration(Class(rdfs:label))",
        "(defclass Bar :subclass label)\n",
    )
    assert (code, stdout) == (2, "")
    assert stderr == (
        f"{src / 'ext.ofn'}:3:1: error: <http://www.w3.org/2000/01/rdf-schema#label> "
        "already built in as AnnotationProperty, redeclared as Class\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("command", ["check", "compile"])
def test_defining_a_name_bound_to_an_external_entity_exits_two(tmp_path, capsys, command):
    src, out, code, stdout, stderr = run_with_external(
        tmp_path, capsys, command, "Declaration(Class(b:Foo))",
        "(defclass Bar :subclass Foo)\n(defclass Foo)\n(defclass Baz :subclass Foo)\n",
    )
    assert (code, stdout) == (2, "")
    assert stderr == (
        f"{src / 'a.ont'}:4:11: error: 'Foo' is already bound to <https://y.org/b#Foo>\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("command", ["classify", "test", "compile"])
def test_an_external_owl_nothing_is_the_built_in_one(tmp_path, capsys, command):
    _, out, code, stdout, stderr = run_with_external(
        tmp_path, capsys, command, "Declaration(Class(owl:Nothing))",
        "(defclass A :subclass Nothing)\n(defclass B :subclass A)\n"
        "(deftest T (is (coherent?)))\n",
    )
    if command == "classify":
        assert (code, stdout, stderr) == (0, "a:A\towl:Nothing\na:B\towl:Nothing\n", "")
    elif command == "test":
        assert code == 1
        assert stdout.startswith("not ok 1 T (assertion 1 at ")
        assert stderr == "warning: unsatisfiable class a:A\nwarning: unsatisfiable class a:B\n"
    else:
        assert code == 0
        tax = classify(parse_functional((out / "a.ofn").read_text(encoding="utf-8")).axioms)
        assert tax.unsatisfiable == {"https://x.org/a#A", "https://x.org/a#B"}


def test_an_interned_rdfs_property_adds_no_second_rdfs_prefix(tmp_path, capsys):
    _, out, code, _, stderr = run_with_external(
        tmp_path, capsys, "compile", "Declaration(AnnotationProperty(rdfs:seeAlso))",
        "(defclass Bar)\n",
    )
    assert (code, stderr) == (0, "")
    assert (out / "a.ofn").read_text(encoding="utf-8") == (
        "Prefix(a:=<https://x.org/a#>)\n"
        "Prefix(owl:=<http://www.w3.org/2002/07/owl#>)\n"
        "Prefix(rdfs:=<http://www.w3.org/2000/01/rdf-schema#>)\n"
        "Ontology(<https://x.org/a#>\n"
        "Declaration(Class(a:Bar))\n"
        ")\n"
    )


def test_unmappable_label_is_located_at_the_read_external_path(interning_tree, capsys):
    (interning_tree / "ext.ofn").write_text(
        EXT_OFN.replace("\n)\n", '\nAnnotationAssertion(rdfs:label e:Part "!!!")\n)\n'),
        encoding="utf-8",
    )
    (interning_tree / "menu.ont").write_text(
        '(defontology menu :iri "https://example.org/menu#")\n'
        '(read-external "ext.ofn" :naming :label)\n',
        encoding="utf-8",
    )
    code, _, stderr = run_cli(capsys, "check", "--src", str(interning_tree))
    assert code == 2
    assert_one_located_error(stderr, interning_tree / "menu.ont", 2, 16)
    assert "label '!!!' maps to an empty identifier" in stderr


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


def test_python_dash_m_runs_the_cli_from_the_source_tree(tmp_path):
    src = Path(ontoforge.__file__).parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run(
        [sys.executable, "-m", "ontoforge", "check", "--src", str(BUNDLED)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert (result.returncode, result.stdout, result.stderr) == (
        0, "pizza: 97 axioms, 2 tests\n", ""
    )


OWL_PREFIX = "Prefix(owl:=<http://www.w3.org/2002/07/owl#>)\n"
RDFS_PREFIX = "Prefix(rdfs:=<http://www.w3.org/2000/01/rdf-schema#>)\n"


@pytest.mark.parametrize(
    "base, option, ofn",
    [
        (
            "https://example.org/owl#",
            "",
            OWL_PREFIX
            + "Prefix(owl2:=<https://example.org/owl#>)\n"
            + RDFS_PREFIX
            + "Ontology(<https://example.org/owl#>\n"
            "Declaration(Class(owl2:A))\n"
            ")\n",
        ),
        (
            "https://example.org/rdfs/",
            ' :label "a"',
            OWL_PREFIX
            + RDFS_PREFIX
            + "Prefix(rdfs2:=<https://example.org/rdfs/>)\n"
            "Ontology(<https://example.org/rdfs/>\n"
            "Declaration(Class(rdfs2:A))\n"
            'AnnotationAssertion(rdfs:label rdfs2:A "a"@en)\n'
            ")\n",
        ),
    ],
    ids=["owl", "rdfs"],
)
def test_a_base_named_owl_or_rdfs_takes_a_numbered_label(tmp_path, capsys, base, option, ofn):
    src = tmp_path / "src"
    src.mkdir()
    (src / "w.ont").write_text(
        f'(defontology w :iri "{base}")\n(defclass A{option})\n', encoding="utf-8"
    )
    out = tmp_path / "out"
    code, _, stderr = run_cli(
        capsys, "compile", "--src", str(src), "--out", str(out), "--format", "ofn"
    )
    assert (code, stderr) == (0, "")
    assert (out / "w.ofn").read_text(encoding="utf-8") == ofn


@pytest.mark.parametrize("command", ["check", "compile"])
@pytest.mark.parametrize("prefix", ["owl", "rdfs"])
def test_a_reserved_prefix_label_exits_two(tmp_path, capsys, command, prefix):
    src = tmp_path / "src"
    src.mkdir()
    (src / "w.ont").write_text(
        f'(defontology w :iri "https://example.org/w#" :prefix "{prefix}")\n'
        '(defclass A :label "a")\n',
        encoding="utf-8",
    )
    out = tmp_path / "out"
    extra = ["--out", str(out)] if command == "compile" else []
    code, stdout, stderr = run_cli(capsys, command, "--src", str(src), *extra)
    assert (code, stdout) == (2, "")
    assert stderr == f"{src / 'w.ont'}:1:1: error: prefix label '{prefix}' is reserved\n"
    assert not out.exists()


def test_an_affixed_name_that_is_no_identifier_is_refused_before_use_can_rebind_it(
    tmp_path, capsys
):
    # base/Pizza, the affixed name, is what `use base` binds to base's Pizza
    (tmp_path / "base.ont").write_text(
        '(defontology base :iri "http://ex.org/base#")\n(defclass Pizza)\n', encoding="utf-8"
    )
    (tmp_path / "menu.ont").write_text(
        '(defontology menu :iri "http://ex.org/menu#")\n'
        "(with-suffix /Pizza (defclass base))\n"
        "(use base)\n",
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, "check", "--src", str(tmp_path), "--ns", "menu")
    assert (code, out) == (2, "")
    menu = tmp_path / "menu.ont"
    assert err == f"{menu}:2:31: error: affixed name 'base/Pizza' is not an identifier\n"


def test_a_text_name_that_makes_no_iri_is_a_located_error(tmp_path, capsys):
    # the identifier rule matches the whole name, so "A\n" is no identifier
    # and the name is refused before an IRI is made of it
    (tmp_path / "w.ont").write_text(
        '(defontology w :iri "http://ex.org/w#")\n(defclass C :subclass (owlclass "A\\n"))\n',
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, "check", "--src", str(tmp_path), "--ns", "w")
    assert (code, out) == (2, "")
    assert err == f"{tmp_path / 'w.ont'}:2:33: error: invalid identifier 'A\\n'\n"


def test_a_prefix_label_ending_in_a_newline_is_refused_and_nothing_is_written(tmp_path, capsys):
    # `$` would match before the last newline; the label rule matches the
    # whole label, so the functional syntax never gets a broken Prefix line
    src = tmp_path / "src"
    src.mkdir()
    (src / "w.ont").write_text(
        '(defontology w :iri "http://ex.org/w#" :prefix "p\\n")\n(defclass A)\n',
        encoding="utf-8",
    )
    out = tmp_path / "out"
    code, stdout, err = run_cli(capsys, "compile", "--src", str(src), "--out", str(out))
    assert (code, stdout) == (2, "")
    assert err == f"{src / 'w.ont'}:1:1: error: invalid prefix label 'p\\n'\n"
    assert not out.exists() or list(out.iterdir()) == []


def test_an_ns_ending_in_a_newline_is_not_a_namespace_name(menu_tree, capsys):
    code, stdout, stderr = run_cli(capsys, "check", "--src", str(menu_tree), "--ns", "menu\n")
    assert (code, stdout, stderr) == (2, "", "error: invalid namespace name 'menu\\n'\n")


@pytest.mark.parametrize(
    "deftest, where, message",
    [
        ("(deftest T (foo A))", "3:12", "test bodies are (is assertion) forms"),
        ("(deftest T (is (coherent?) A))", "3:12", "test bodies are (is assertion) forms"),
        ("(deftest T\n  A)", "4:3", "expected an assertion form"),
    ],
    ids=["not-is", "is-with-two", "not-a-list"],
)
def test_check_refuses_a_malformed_test_body_as_test_does(tmp_path, capsys, deftest, where,
                                                           message):
    (tmp_path / "w.ont").write_text(
        f'(defontology w :iri "http://ex.org/w#")\n(defclass A)\n{deftest}\n', encoding="utf-8"
    )
    expected = f"{tmp_path / 'w.ont'}:{where}: error: {message}\n"
    for command in ("check", "test"):
        code, out, err = run_cli(capsys, command, "--src", str(tmp_path), "--ns", "w")
        assert (code, out, err) == (2, "", expected), command
