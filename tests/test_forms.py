"""The tables of `.ont` forms: every row's valid use evaluates, its bad shape gives its error.

Each use is built from the row alone: one sample operand per kind, and one
sample value per option of the row. A shape error drops the operands, or
adds one past the most a row takes, or puts an operand of a wrong type where
the row fixes the type; it must raise the row's error class with the row's
message at the form. The README's table of forms is rendered from the same
rows.
"""

from pathlib import Path

import pytest

from ontoforge import patterns
from ontoforge.errors import OntoforgeError
from ontoforge.evaluator import ASSERTIONS, CLASS_EXPRESSIONS, IS, TOP_FORMS, Loader
from ontoforge.sexpr import KIND_TYPES
from ontoforge.testkit import run_tests

README = Path(__file__).resolve().parent.parent / "README.md"

PRELUDE = """\
(defontology host :iri "http://ex.org/host#")
(defclass Base)
(defclass Other)
(defoproperty rel)
"""

# One operand of each kind. The identifier names a namespace and the text a
# functional-syntax file, both written next to the host, so `use` and
# `read-external` take them too.
SAMPLES = {
    "identifier": "Fresh",
    "text": '"Fresh"',
    "class": "Base",
    "property": "rel",
    "class-expression": "Base",
    "assertion": "(coherent?)",
    "form": "(defclass Inner)",
    "(defclass)": "(defclass Fresh)",
    ":cover": ":cover",
    "(is)": "(is (coherent?))",
}
# A bracket holds what its form reads from it.
BRACKETS = {
    "deftemplate": "[?x]",
    "value-partition": "[Low High]",
    "with-probe-entities": '[(p (owlclass "Probe" :subclass Base))]',
}
OPTION_SAMPLES = {
    "label": '"l"',
    "comment": '"c"',
    "annotation": '(label "a" "it")',
    "subclass": "Base",
    "equivalent": "(owland Base Other)",
    "disjoint": "Other",
    "domain": "Base",
    "range": "Base",
    "subproperty": "rel",
    "characteristic": ":functional :transitive",
    "iri": '"http://ex.org/fresh#"',
    "prefix": '"fr"',
    "naming": ":label",
}
# An operand of another type than each fixed type allows.
WRONG = {"identifier": '"wrong"', "text": "wrong", "bracket": "wrong", "list": "wrong"}

ROWS = (
    [("top", head, row) for head, row in TOP_FORMS.items()]
    + [("class expression", head, row) for head, row in CLASS_EXPRESSIONS.items()]
    + [("assertion", head, row) for head, row in ASSERTIONS.items()]
    + [("test body", "is", IS)]
)
IDS = [f"{place}:{head}" for place, head, _ in ROWS]


def _operand(head, kind):
    return BRACKETS[head] if kind == "bracket" else SAMPLES[kind.rstrip("?*+")]


def valid_use(head, row) -> str:
    """The row's operands, one of a repeated kind, and each of its options."""
    words = [_operand(head, kind) for kind in row.kinds if kind != "option*"]
    for option in sorted(row.options):
        words += [f":{option}", OPTION_SAMPLES[option]]
    return f"({' '.join([head, *words])})"


def shape_errors(head, row) -> list[str]:
    """Uses whose count or fixed operand types the row refuses."""
    uses = [f"({head})"] if row.fewest else [f"({head} {' '.join(['Base'] * (row.most + 1))})"]
    fixed = row.kinds[:-1] if row.kinds and row.kinds[-1][-1] in "*+" else row.kinds
    words = [_operand(head, kind) for kind in fixed]
    for i, kind in enumerate(fixed):
        if kind.rstrip("?") in WRONG:
            wrong = words[:i] + [WRONG[kind.rstrip("?")]] + words[i + 1:]
            uses.append(f"({' '.join([head, *wrong])})")
    return uses


def embed(place, use) -> str:
    """A namespace text whose last form holds use where a form of its place goes."""
    if place == "top":
        return use + "\n" if use.startswith("(defontology") else PRELUDE + use + "\n"
    if place == "class expression":
        return PRELUDE + f"(defclass Host :subclass {use})\n"
    if place == "assertion":
        return PRELUDE + f"(deftest T (is {use}))\n"
    return PRELUDE + f"(deftest T {use})\n"


def evaluate(tmp_path, text):
    (tmp_path / "Fresh.ont").write_text('(defontology Fresh :iri "http://ex.org/f#")\n')
    (tmp_path / "Fresh").write_text("Ontology(<http://ex.org/x>\n)\n")
    (tmp_path / "host.ont").write_text(text, encoding="utf-8")
    run_tests(Loader(tmp_path).load("host"))


@pytest.mark.parametrize("place, head, row", ROWS, ids=IDS)
def test_each_rows_valid_use_evaluates(tmp_path, place, head, row):
    evaluate(tmp_path, embed(place, valid_use(head, row)))


@pytest.mark.parametrize("place, head, row", ROWS, ids=IDS)
def test_each_rows_shape_errors_raise_its_error_at_the_form(tmp_path, place, head, row):
    for use in shape_errors(head, row):
        text = embed(place, use)
        with pytest.raises(OntoforgeError) as err:
            evaluate(tmp_path, text)
        assert type(err.value) is row.error, use
        assert err.value.message == row.message, use
        last = text.splitlines()[-1]
        assert (err.value.location.line, err.value.location.column) == (
            text.count("\n"),
            last.index(use) + 1,
        ), use


@pytest.mark.parametrize(
    "row, text, stray",
    [
        (patterns.SUBCLASSES, "(as-disjoint-subclasses Base (defclass A) Stray)", "Stray"),
        (patterns.VALUES, '(value-partition Fresh [Low "High"])', '"High"'),
        (
            patterns.TemplateDef("t", ("x",), None, ()),
            "(deftemplate t [?x])\n(t [A] Stray)",
            "Stray",
        ),
    ],
    ids=["subclasses", "partition-values", "template-groups"],
)
def test_a_repeated_operand_of_the_wrong_kind_raises_the_rows_each_error_at_it(
    tmp_path, row, text, stray
):
    text = PRELUDE + text + "\n"
    with pytest.raises(OntoforgeError) as err:
        evaluate(tmp_path, text)
    assert type(err.value) is row.error
    assert err.value.message == row.each_message
    last = text.splitlines()[-1]
    location = err.value.location
    assert (location.line, location.column) == (text.count("\n"), last.index(stray) + 1)


def test_every_kind_and_every_option_has_a_sample():
    for _, head, row in ROWS:
        for kind in row.kinds:
            name = kind.rstrip("?*+")
            assert name in SAMPLES or name in KIND_TYPES or name == "option", (head, kind)
        assert row.options <= OPTION_SAMPLES.keys(), head


def forms_table() -> str:
    lines = ["| form | operands | options |", "| --- | --- | --- |"]
    for _, head, row in ROWS:
        options = " ".join(f"`:{name}`" for name in sorted(row.options))
        operands = f"`{' '.join(row.kinds)}`" if row.kinds else "none"
        lines.append(f"| `{head}` | {operands} | {options} |")
    return "\n".join(lines) + "\n"


def test_the_readme_table_of_forms_is_the_code_table():
    assert forms_table() in README.read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "use, message, at",
    [
        ("(defclass C :subclass Missing :label)", "unbound identifier 'Missing'", "Missing"),
        ('(read-external "x.ofn" :naming :bogus :prefix)', ":naming is :fragment or :label",
         ":naming"),
    ],
    ids=["class-options", "read-external-options"],
)
def test_an_options_values_are_read_before_a_later_options_are_checked(
    tmp_path, use, message, at
):
    text = PRELUDE + use + "\n"
    with pytest.raises(OntoforgeError) as err:
        evaluate(tmp_path, text)
    assert err.value.message == message
    location = err.value.location
    assert (location.line, location.column) == (text.count("\n"), use.index(at) + 1)
