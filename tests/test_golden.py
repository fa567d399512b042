"""Golden outputs, recorded before the evaluator's definition path was merged.

The first test pins what `check`, `classify`, `compile` and `test` print for
the bundled pizza, and the bytes `compile` writes. The second pins the exit
code and stderr of `check` on a table of small erroneous sources, one per
diagnostic the evaluator can raise, so that a refactor which changes any text,
error class (exit code) or location fails here.
"""

import hashlib

import pytest

from ontoforge.cli import main
from support import BUNDLED


@pytest.fixture(autouse=True)
def plain_output(monkeypatch):
    monkeypatch.delenv("ONTOFORGE_COLOR", raising=False)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


PIZZA_SKIPS = (
    "warning: the classifier skipped 10 axioms outside its fragment: "
    "2 FunctionalObjectProperty, 2 ObjectPropertyDomain, 3 ObjectPropertyRange, "
    "1 union, 2 universal restriction\n"
)


def test_bundled_pizza_outputs_are_unchanged(tmp_path, capsys):
    src = str(BUNDLED)
    assert run_cli(capsys, "check", "--src", src) == (0, "pizza: 97 axioms, 2 tests\n", "")
    assert run_cli(capsys, "test", "--src", src) == (
        0,
        "ok 1 CheesyShort\nok 2 VegetarianPizza\n# 2 tests, 5 assertions, 0 failures\n",
        PIZZA_SKIPS,
    )
    code, stdout, stderr = run_cli(capsys, "classify", "--src", src)
    assert (code, stderr) == (0, PIZZA_SKIPS)
    assert sha256(stdout.encode("utf-8")) == (
        "b46a7db70b59414ac36bfd17a92faa1eb3ed1b8f96f776e7de830d5df1dcd457"
    )
    out = tmp_path / "out"
    assert run_cli(capsys, "compile", "--src", src, "--out", str(out)) == (
        0,
        f"{out / 'pizza.omn'}\n{out / 'pizza.ofn'}\n",
        "",
    )
    assert sha256((out / "pizza.omn").read_bytes()) == (
        "37eef738f5fbb966a2c5731437230c27470b66fa1c558072876ff9e70eac22ac"
    )
    assert sha256((out / "pizza.ofn").read_bytes()) == (
        "fbec50c699a58825e70b7f3fe901b754a829f38e2e022a0c62db7d04d5b22ace"
    )


H = '(defontology t :iri "https://example.org/t#")\n'
EXT_T = (
    "Prefix(e:=<https://example.org/t#>)\n"
    "Ontology(<https://example.org/ext>\n"
    "Declaration(Class(e:Part))\n"
    ")\n"
)

# (case, source of t.ont or {file: text}, exit code, stderr with {src} for the tree)
ERRONEOUS_SOURCES = [
    (
        'no-ontology',
        '',
        2,
        '{src}/t.ont:1:1: error: namespace defines no ontology; the first form must be (defontology ...)\n',
    ),
    (
        'first-form-not-defontology',
        '(defclass A)\n',
        2,
        '{src}/t.ont:1:2: error: the first form must be (defontology ...)\n',
    ),
    (
        'top-level-not-a-list',
        H + 'A\n',
        2,
        '{src}/t.ont:2:1: error: top-level form must be a list\n',
    ),
    (
        'top-level-without-head',
        H + '("A")\n',
        2,
        '{src}/t.ont:2:1: error: form needs an identifier head\n',
    ),
    (
        'unknown-top-level-form',
        H + '(frobnicate A)\n',
        2,
        "{src}/t.ont:2:2: error: unbound identifier 'frobnicate'\n",
    ),
    (
        'duplicate-ontology',
        H + '(defontology t :iri "https://example.org/t#")\n',
        2,
        '{src}/t.ont:2:1: error: namespace already defines an ontology\n',
    ),
    (
        'defontology-needs-a-name',
        '(defontology :iri "https://example.org/t#")\n',
        2,
        '{src}/t.ont:1:1: error: defontology needs a name\n',
    ),
    (
        'defontology-invalid-name',
        '(defontology ?t :iri "https://example.org/t#")\n',
        2,
        "{src}/t.ont:1:14: error: invalid identifier '?t'\n",
    ),
    (
        'defontology-needs-iri',
        '(defontology t)\n',
        2,
        '{src}/t.ont:1:1: error: defontology needs :iri\n',
    ),
    (
        'defontology-relative-iri',
        '(defontology t :iri "t#")\n',
        2,
        "{src}/t.ont:1:1: error: not an absolute IRI: 't#'\n",
    ),
    (
        'defontology-iri-not-text',
        '(defontology t :iri t)\n',
        2,
        "{src}/t.ont:1:16: error: option ':iri' needs exactly one text value\n",
    ),
    (
        'defontology-unknown-option',
        '(defontology t :iri "https://example.org/t#" :label "t")\n',
        2,
        "{src}/t.ont:1:46: error: unknown option ':label'\n",
    ),
    (
        'defontology-invalid-prefix',
        '(defontology t :iri "https://example.org/t#" :prefix "1t")\n',
        2,
        "{src}/t.ont:1:1: error: invalid prefix label '1t'\n",
    ),
    (
        'defclass-needs-a-name',
        H + '(defclass "A")\n',
        2,
        '{src}/t.ont:2:1: error: defclass needs a name\n',
    ),
    (
        'defclass-invalid-name',
        H + '(defclass ?A)\n',
        2,
        "{src}/t.ont:2:11: error: invalid identifier '?A'\n",
    ),
    (
        'defoproperty-needs-a-name',
        H + '(defoproperty)\n',
        2,
        '{src}/t.ont:2:1: error: defoproperty needs a name\n',
    ),
    (
        'defoproperty-invalid-name',
        H + '(defoproperty ?p)\n',
        2,
        "{src}/t.ont:2:15: error: invalid identifier '?p'\n",
    ),
    (
        'class-redeclared-as-property',
        H + '(defclass A)\n(defoproperty A)\n',
        2,
        '{src}/t.ont:3:15: error: <https://example.org/t#A> already declared as Class, redeclared as ObjectProperty\n',
    ),
    (
        'property-redeclared-as-class',
        H + '(defoproperty p)\n(defclass p)\n',
        2,
        '{src}/t.ont:3:11: error: <https://example.org/t#p> already declared as ObjectProperty, redeclared as Class\n',
    ),
    (
        'unbound-identifier',
        H + '(defclass A :subclass B)\n',
        2,
        "{src}/t.ont:2:23: error: unbound identifier 'B'\n",
    ),
    (
        'expected-an-identifier',
        H + '(defclass A)\n(defclass B :disjoint "A")\n',
        2,
        '{src}/t.ont:3:23: error: expected an identifier\n',
    ),
    (
        'not-a-class',
        H + '(defoproperty p)\n(defclass A :subclass p)\n',
        2,
        "{src}/t.ont:3:23: error: 'p' is not a class\n",
    ),
    (
        'not-a-property-in-owlsome',
        H + '(defclass A)\n(defclass B :subclass (owlsome A A))\n',
        2,
        "{src}/t.ont:3:32: error: 'A' is not an object property\n",
    ),
    (
        'not-a-property-in-subproperty',
        H + '(defclass A)\n(defoproperty p :subproperty A)\n',
        2,
        "{src}/t.ont:3:30: error: 'A' is not an object property\n",
    ),
    (
        'class-option-on-defoproperty',
        H + '(defclass A)\n(defoproperty p :subclass A)\n',
        2,
        "{src}/t.ont:3:17: error: unknown option ':subclass'\n",
    ),
    (
        'property-option-on-defclass',
        H + '(defclass A :domain A)\n',
        2,
        "{src}/t.ont:2:13: error: unknown option ':domain'\n",
    ),
    (
        'unknown-option',
        H + '(defclass A :colour A)\n',
        2,
        "{src}/t.ont:2:13: error: unknown option ':colour'\n",
    ),
    (
        'expected-an-option-keyword',
        H + '(defclass A B)\n',
        2,
        '{src}/t.ont:2:13: error: expected an option keyword\n',
    ),
    (
        'option-needs-a-value',
        H + '(defclass A :label)\n',
        2,
        "{src}/t.ont:2:13: error: option ':label' needs at least one value\n",
    ),
    (
        'option-needs-one-text',
        H + '(defclass A :label "a" "b")\n',
        2,
        "{src}/t.ont:2:13: error: option ':label' needs exactly one text value\n",
    ),
    (
        'comment-needs-text',
        H + '(defoproperty p :comment p)\n',
        2,
        "{src}/t.ont:2:17: error: option ':comment' needs exactly one text value\n",
    ),
    (
        'annotation-shape',
        H + '(defclass A :annotation "a")\n',
        2,
        '{src}/t.ont:2:25: error: annotation values look like (label "text" "lang")\n',
    ),
    (
        'annotation-unknown-property',
        H + '(defclass A :annotation (seeAlso "a"))\n',
        2,
        '{src}/t.ont:2:25: error: annotation values look like (label "text" "lang")\n',
    ),
    (
        'annotation-empty-language',
        H + '(defclass A :annotation (label "a" ""))\n',
        2,
        '{src}/t.ont:2:25: error: language tag must not be empty\n',
    ),
    (
        'disjoint-with-itself',
        H + '(defclass A :disjoint A)\n',
        2,
        '{src}/t.ont:2:13: error: disjoint classes must be pairwise distinct\n',
    ),
    (
        'unknown-characteristic',
        H + '(defoproperty p :characteristic :reflexive)\n',
        2,
        '{src}/t.ont:2:33: error: characteristics are :functional or :transitive\n',
    ),
    (
        'characteristic-not-a-keyword',
        H + '(defoproperty p :characteristic p)\n',
        2,
        '{src}/t.ont:2:33: error: characteristics are :functional or :transitive\n',
    ),
    (
        'class-expression-not-a-list',
        H + '(defclass A :subclass "B")\n',
        2,
        '{src}/t.ont:2:23: error: expected a class expression\n',
    ),
    (
        'class-expression-empty',
        H + '(defclass A :subclass ())\n',
        2,
        '{src}/t.ont:2:23: error: expected a class expression\n',
    ),
    (
        'class-expression-without-head',
        H + '(defclass A :subclass ("B"))\n',
        2,
        '{src}/t.ont:2:23: error: expected a class expression\n',
    ),
    (
        'owland-without-operands',
        H + '(defclass A :subclass (owland))\n',
        2,
        '{src}/t.ont:2:23: error: owland needs at least one operand\n',
    ),
    (
        'owlnot-arity',
        H + '(defclass A)\n(defclass B :subclass (owlnot A A))\n',
        2,
        '{src}/t.ont:3:23: error: owlnot takes exactly one operand\n',
    ),
    (
        'owlsome-arity',
        H + '(defoproperty p)\n(defclass B :subclass (owlsome p))\n',
        2,
        '{src}/t.ont:3:23: error: owlsome takes a property and a filler\n',
    ),
    (
        'unknown-class-constructor',
        H + '(defclass A)\n(defclass B :subclass (owlxor A A))\n',
        2,
        "{src}/t.ont:3:24: error: unbound identifier 'owlxor'\n",
    ),
    (
        'owlclass-needs-text',
        H + '(defclass A)\n(defclass B :subclass (owlclass A))\n',
        2,
        '{src}/t.ont:3:23: error: owlclass needs a text name\n',
    ),
    (
        'owlclass-invalid-name',
        H + '(defclass B :subclass (owlclass "a b"))\n',
        2,
        "{src}/t.ont:2:33: error: invalid identifier 'a b'\n",
    ),
    (
        'owlclass-kind-conflict',
        H + '(defoproperty p)\n(defclass B :subclass (owlclass "p"))\n',
        2,
        '{src}/t.ont:3:33: error: <https://example.org/t#p> already declared as ObjectProperty, redeclared as Class\n',
    ),
    (
        'owlclass-property-option',
        H + '(defclass B :subclass (owlclass "C" :range B))\n',
        2,
        "{src}/t.ont:2:37: error: unknown option ':range'\n",
    ),
    (
        'affixed-name-already-bound',
        H + '(defclass AB)\n(with-suffix B (defclass A))\n',
        2,
        "{src}/t.ont:3:26: error: affixed name 'AB' is already bound\n",
    ),
    (
        'use-needs-a-name',
        H + '(use "u")\n',
        2,
        '{src}/t.ont:2:1: error: use needs a namespace name\n',
    ),
    (
        'use-invalid-namespace',
        H + '(use u..v)\n',
        2,
        "{src}/t.ont:2:6: error: invalid namespace name 'u..v'\n",
    ),
    (
        'use-missing-namespace',
        H + '(use u)\n',
        2,
        "{src}/t.ont:2:6: error: no source file for namespace 'u' at {src}/u.ont\n",
    ),
    (
        'use-cycle',
        {"t.ont": H + '(use u)\n', "u.ont": '(defontology u :iri "https://example.org/u#")\n(use t)\n'},
        2,
        '{src}/u.ont:2:6: error: cyclic use: t -> u -> t\n',
    ),
    (
        'use-kind-conflict',
        {"t.ont": H + '(defclass B :subclass (owlclass "A"))\n(use u)\n', "u.ont": '(defontology u :iri "https://example.org/t#")\n(defoproperty A)\n'},
        2,
        '{src}/t.ont:3:6: error: <https://example.org/t#A> already declared as Class, now imported as ObjectProperty\n',
    ),
    (
        'read-external-needs-a-path',
        H + '(read-external e)\n',
        2,
        '{src}/t.ont:2:1: error: read-external needs a file path\n',
    ),
    (
        'read-external-bad-naming',
        H + '(read-external "e.ofn" :naming :id)\n',
        2,
        '{src}/t.ont:2:24: error: :naming is :fragment or :label\n',
    ),
    (
        'read-external-unknown-option',
        H + '(read-external "e.ofn" :iri "x")\n',
        2,
        "{src}/t.ont:2:24: error: unknown option ':iri'\n",
    ),
    (
        'read-external-missing-file',
        H + '(read-external "missing.ofn")\n',
        3,
        "error: [Errno 2] No such file or directory: '{src}/missing.ofn'\n",
    ),
    (
        'read-external-kind-conflict',
        {"t.ont": H + '(defoproperty Part)\n(read-external "e.ofn")\n', "e.ofn": EXT_T},
        2,
        '{src}/t.ont:3:16: error: <https://example.org/t#Part> already declared as ObjectProperty, now imported as Class\n',
    ),
    (
        'deftest-needs-a-name',
        H + '(deftest "T")\n',
        2,
        '{src}/t.ont:2:1: error: deftest needs a name\n',
    ),
    (
        'deftest-invalid-name',
        H + '(deftest ?T)\n',
        2,
        "{src}/t.ont:2:10: error: invalid identifier '?T'\n",
    ),
    (
        'deftest-duplicate-name',
        H + '(deftest T)\n(deftest T)\n',
        2,
        "{src}/t.ont:3:10: error: duplicate test name 'T'\n",
    ),
    (
        'disjoint-subclasses-member-needs-a-name',
        H + '(defclass P)\n(as-disjoint-subclasses P (defclass))\n',
        2,
        '{src}/t.ont:3:27: error: defclass needs a name\n',
    ),
    (
        'disjoint-subclasses-member-option',
        H + '(defclass P)\n(as-disjoint-subclasses P (defclass A :domain P))\n',
        2,
        "{src}/t.ont:3:39: error: unknown option ':domain'\n",
    ),
    (
        'value-partition-property-kind-conflict',
        H + '(defclass hasX)\n(value-partition X [a b])\n',
        2,
        '{src}/t.ont:3:18: error: <https://example.org/t#hasX> already declared as Class, redeclared as ObjectProperty\n',
    ),
]


@pytest.mark.parametrize(
    "files, code, stderr", [case[1:] for case in ERRONEOUS_SOURCES],
    ids=[case[0] for case in ERRONEOUS_SOURCES],
)
def test_evaluator_diagnostics_are_unchanged(tmp_path, capsys, files, code, stderr):
    if isinstance(files, str):
        files = {"t.ont": files}
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    assert run_cli(capsys, "check", "--src", str(tmp_path), "--ns", "t") == (
        code,
        "",
        stderr.replace("{src}", str(tmp_path)),
    )
