"""Tests for the s-expression reader and printer."""

import random

import pytest

from ontoforge.errors import Location
from ontoforge.sexpr import (
    MAX_NESTING,
    BracketForm,
    Identifier,
    Keyword,
    ListForm,
    ParseError,
    Text,
    is_valid_identifier,
    is_valid_namespace,
    print_forms,
    read_forms,
    split_qualified,
    strip_locations,
)


def read_one(text: str):
    forms = read_forms(text)
    assert len(forms) == 1
    return forms[0]


def shapes(text: str):
    return [strip_locations(f) for f in read_forms(text)]


# --- atoms ------------------------------------------------------------------


def test_reads_identifiers_keywords_and_strings():
    assert shapes("defclass :label \"Pizza\"") == [
        ("id", "defclass"),
        ("kw", "label"),
        ("text", "Pizza"),
    ]


def test_atoms_may_carry_punctuation():
    # dotted namespaces, qualified names, and URL-ish payloads all scan as
    # one identifier; meaning is the evaluator's problem
    got = shapes("take.away pizza/Margherita http://example.com/x?a=1&b=2")
    assert got == [
        ("id", "take.away"),
        ("id", "pizza/Margherita"),
        ("id", "http://example.com/x?a=1&b=2"),
    ]


def test_string_escapes_round_trip():
    assert read_one(r'"a\\b\"c\nd\te"').value == 'a\\b"c\nd\te'
    with pytest.raises(ParseError):
        read_forms(r'"bad \q escape"')
    with pytest.raises(ParseError):
        read_forms('"unterminated')
    with pytest.raises(ParseError):
        read_forms('"dangling backslash \\')


def test_bare_colon_is_an_error():
    with pytest.raises(ParseError):
        read_forms("( : )")


# --- nesting ----------------------------------------------------------------


def test_lists_and_brackets_nest():
    got = read_one("(deftemplate spicy [?p] (owlsome ?p Hot))")
    assert isinstance(got, ListForm)
    assert isinstance(got.children[2], BracketForm)
    assert strip_locations(got) == (
        "list",
        (
            ("id", "deftemplate"),
            ("id", "spicy"),
            ("bracket", (("id", "?p"),)),
            ("list", (("id", "owlsome"), ("id", "?p"), ("id", "Hot"))),
        ),
    )


def test_mismatched_and_unclosed_delimiters():
    for text in ("(a b]", "[a b)", "(a (b)", "[", ")", "]"):
        with pytest.raises(ParseError):
            read_forms(text)


def test_nesting_is_capped_at_the_opening_bracket():
    deepest = "(" * (MAX_NESTING - 1) + "[]" + ")" * (MAX_NESTING - 1)
    assert len(read_forms(deepest)) == 1
    text = "x\n" + "(" * MAX_NESTING + "[" + "]" + ")" * MAX_NESTING
    with pytest.raises(ParseError) as err:
        read_forms(text, "deep.ont")
    assert err.value.message == f"nesting deeper than {MAX_NESTING} levels"
    assert err.value.location == Location("deep.ont", 2, MAX_NESTING + 1)


def test_comments_run_to_end_of_line():
    got = shapes("(a ; ignore me (even parens)\n b) ; trailing")
    assert got == [("list", (("id", "a"), ("id", "b")))]


def test_empty_input_and_blank_lines():
    assert read_forms("") == []
    assert read_forms("  \n\t ; just a comment\n") == []


# --- locations --------------------------------------------------------------


def test_locations_point_at_first_character():
    forms = read_forms("(a\n  bee)", file="x.ont")
    outer = forms[0]
    assert outer.location == Location("x.ont", 1, 1)
    assert outer.children[0].location == Location("x.ont", 1, 2)
    assert outer.children[1].location == Location("x.ont", 2, 3)


def test_string_location_is_the_open_quote():
    form = read_one('  "pizza"')
    assert (form.location.line, form.location.column) == (1, 3)


def test_parse_error_carries_location():
    with pytest.raises(ParseError) as err:
        read_forms("(a\n  (b c", file="y.ont")
    assert err.value.location == Location("y.ont", 2, 3)


# --- printing ---------------------------------------------------------------


def _random_form(rng: random.Random, depth: int):
    pick = rng.random()
    if depth <= 0 or pick < 0.35:
        kind = rng.randrange(3)
        if kind == 0:
            return Identifier(rng.choice(["a", "b-c", "x_1", "ns/q", "p.q.r"]), None)
        if kind == 1:
            return Keyword(rng.choice(["label", "subclass", "cover"]), None)
        return Text(rng.choice(["plain", 'quo"te', "new\nline", "tab\t", "back\\slash", "émenthal"]), None)
    children = tuple(_random_form(rng, depth - 1) for _ in range(rng.randrange(4)))
    ctor = ListForm if pick < 0.85 else BracketForm
    return ctor(children, None)


def test_print_then_read_is_identity_on_random_forms():
    rng = random.Random(2024)
    for _ in range(200):
        form = _random_form(rng, 4)
        if not isinstance(form, (ListForm, BracketForm)):
            continue
        text = print_forms([form])
        back = read_forms(text)
        assert [strip_locations(f) for f in back] == [strip_locations(form)]


def test_print_forms_is_one_form_per_line():
    text = print_forms(read_forms("(a b) (c)"))
    assert text == "(a b)\n(c)\n"


# --- name helpers -----------------------------------------------------------


def test_identifier_validity():
    for good in ("a", "Pizza", "_x", "Deep-Pan", "a1_b2"):
        assert is_valid_identifier(good)
    for bad in ("", "1a", "a.b", "a/b", "a b", "ä", "-a"):
        assert not is_valid_identifier(bad)


def test_namespace_validity():
    for good in ("pizza", "take.away", "a.b.c_d"):
        assert is_valid_namespace(good)
    for bad in ("", ".a", "a.", "a..b", "a/b", "1a.b"):
        assert not is_valid_namespace(bad)


def test_split_qualified():
    assert split_qualified("pizza/Margherita") == ("pizza", "Margherita")
    assert split_qualified("take.away/Box") == ("take.away", "Box")
    assert split_qualified("Margherita") == (None, "Margherita")
