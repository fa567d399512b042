"""Tests for the s-expression reader and printer."""

import gc
import hashlib
import json
import random
import time
from pathlib import Path

import pytest

import ontoforge
from ontoforge.errors import Location, Source
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


@pytest.mark.parametrize(
    "text, message, line, column",
    [
        ('(a\n  "abc', "unterminated string literal", 2, 3),
        ('(a "x\\n\ny\\', "unterminated string literal", 1, 4),
        ('(a "x\\q y', "unknown escape '\\q' in string", 1, 4),
        ('(a "x\\\\q y', "unterminated string literal", 1, 4),
        ('x\n "a\\qb"', "unknown escape '\\q' in string", 2, 2),
        ('"a\\\nb"', "unknown escape '\\\n' in string", 1, 1),
        ("(a\n :)", "':' is not a keyword", 2, 2),
        ("(a)\n  )", "unexpected ')'", 2, 3),
        ("x ]", "unexpected ']'", 1, 3),
        ("(a\n b]", "mismatched ']', expected ')'", 2, 3),
        ("[a )", "mismatched ')', expected ']'", 1, 4),
        ("(a (b)", "unclosed '('", 1, 1),
        ("(a\n  [b (c)", "unclosed '['", 2, 3),
        ("(a ; )\n", "unclosed '('", 1, 1),
        ("\n " + "[" * MAX_NESTING + "(", f"nesting deeper than {MAX_NESTING} levels", 2, MAX_NESTING + 2),
    ],
)
def test_errors_are_pinned_to_message_and_position(text, message, line, column):
    with pytest.raises(ParseError) as err:
        read_forms(text, "e.ont")
    assert (err.value.message, err.value.location) == (message, Location("e.ont", line, column))


def test_locations_count_lines_through_strings_and_comments():
    # a lone \r ends a line as \n and \r\n do
    forms = read_forms('"a\nb" c ; "d\n\te\r f ;x\r\ng', "l.ont")
    assert [(strip_locations(f), f.location.line, f.location.column) for f in forms] == [
        (("text", "a\nb"), 1, 1),
        (("id", "c"), 2, 4),
        (("id", "e"), 3, 2),
        (("id", "f"), 4, 2),
        (("id", "g"), 5, 1),
    ]


def test_escapes_pair_up_left_to_right():
    assert read_one('"a\\\\q"').value == "a\\q"
    assert read_one('"\\\\\\""').value == '\\"'


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


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_a_comment_ends_at_every_line_end(newline):
    text = newline.join(["(a) ; c", "(b) ;", "; only a comment", "(c)"])
    assert shapes(text) == [("list", (("id", name),)) for name in "abc"]
    assert [f.location.line for f in read_forms(text)] == [1, 2, 4]


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


def test_resolving_every_offset_of_a_long_text_is_not_quadratic():
    def text_of(n_lines: int) -> str:
        return "".join("x" * (i % 7) + "\n" for i in range(n_lines))

    def every_location(text: str) -> tuple[float, list]:
        source = Source("long.ont", text)
        collecting = gc.isenabled()
        gc.disable()  # a full collection inside one run would swamp its time
        try:
            start = time.perf_counter()
            locations = [source.location(offset) for offset in range(len(text) + 1)]
            return time.perf_counter() - start, locations
        finally:
            if collecting:
                gc.enable()

    small, large = text_of(2_500), text_of(10_000)
    _, locations = every_location(large)
    expected, line, column = [], 1, 1
    for ch in large + " ":
        expected.append(Location("long.ont", line, column))
        line, column = (line + 1, 1) if ch == "\n" else (line, column + 1)
    assert locations == expected
    # four times the text: about four times the time when linear, sixteen when quadratic
    ratio = min(every_location(large)[0] for _ in range(5)) / min(
        every_location(small)[0] for _ in range(5)
    )
    assert ratio < 8, ratio


# --- printing ---------------------------------------------------------------


# Random forms are built, not read, so they point at offset 0 of an empty text.
_NOWHERE = Source("<random>", "")


def _random_form(rng: random.Random, depth: int):
    pick = rng.random()
    if depth <= 0 or pick < 0.35:
        kind = rng.randrange(3)
        if kind == 0:
            return Identifier(rng.choice(["a", "b-c", "x_1", "ns/q", "p.q.r"]), 0, _NOWHERE)
        if kind == 1:
            return Keyword(rng.choice(["label", "subclass", "cover"]), 0, _NOWHERE)
        value = rng.choice(["plain", 'quo"te', "new\nline", "tab\t", "back\\slash", "émenthal"])
        return Text(value, 0, _NOWHERE)
    children = tuple(_random_form(rng, depth - 1) for _ in range(rng.randrange(4)))
    ctor = ListForm if pick < 0.85 else BracketForm
    return ctor(children, 0, _NOWHERE)


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


def test_forms_are_slot_values_compared_by_class_and_fields():
    source = Source("<string>", "x")
    forms = [
        Identifier("x", 0, source),
        Keyword("x", 0, source),
        Text("x", 0, source),
        ListForm((), 0, source),
        BracketForm((), 0, source),
    ]
    for form in forms:
        assert not hasattr(form, "__dict__")
        with pytest.raises(TypeError):
            hash(form)
    assert Identifier("x", 0, source) == forms[0]
    assert forms[0] != forms[1]
    assert forms[3] != forms[4]


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


# --- golden file: the reader's output on seeded mutants ---------------------

GOLDEN = Path(__file__).parent / "data" / "sexpr_mutants.json"
PIZZA = (Path(ontoforge.__file__).parent / "bundled" / "pizza.ont").read_text(encoding="utf-8")

# Characters a byte flip writes: every delimiter, the escape letters, blanks
# that are and are not line or token breaks, and a non-ASCII letter.
_FLIP_CHARS = '()[]";\\: \t\n\rantqx1-?\u00e9\f'


def _mutate(text: str, rng: random.Random) -> str:
    for _ in range(rng.randint(1, 3)):
        pos = rng.randrange(len(text) + 1)
        op = rng.randrange(7)
        if op == 0:  # byte flip
            text = text[:pos] + rng.choice(_FLIP_CHARS) + text[pos + 1:]
        elif op == 1:
            text = text[:pos] + rng.choice("()[]") + text[pos:]
        elif op == 2:
            text = text[:pos] + '"' + text[pos:]
        elif op == 3:
            text = text[:pos] + "\\" + text[pos:]
        elif op == 4:
            text = text[:pos]
        elif op == 5:  # delete a character
            text = text[:pos] + text[pos + 1:]
        else:  # duplicate a short span
            span = text[pos:pos + rng.randint(1, 12)]
            text = text[:pos] + span + text[pos:]
    return text


def mutant_texts() -> list[str]:
    """Seeded inputs: 2400 pizza.ont mutants, 1200 short random texts, 60 deep nests."""
    texts = [PIZZA]
    for seed in range(2400):
        texts.append(_mutate(PIZZA, random.Random(seed)))
    for seed in range(1200):
        rng = random.Random(100_000 + seed)
        texts.append("".join(rng.choice(_FLIP_CHARS + "ab") for _ in range(rng.randrange(25))))
    for seed in range(60):
        rng = random.Random(200_000 + seed)
        depth = MAX_NESTING - 3 + rng.randrange(6)
        opens = "".join(rng.choice("([") for _ in range(depth))
        closes = "".join(")" if c == "(" else "]" for c in reversed(opens))
        texts.append(_mutate(opens + "x" + closes, rng))
    return texts


def _located_shape(form):
    loc = (form.location.line, form.location.column)
    if isinstance(form, (ListForm, BracketForm)):
        return (type(form).__name__, loc, tuple(_located_shape(c) for c in form.children))
    return (strip_locations(form), loc)


def mutant_record(text: str) -> list:
    """[input digest, "ok", form count, digest of every form's shape and line:col]
    or [input digest, "error", message, line, column]."""
    key = hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]
    try:
        forms = read_forms(text, "m.ont")
    except ParseError as err:
        assert err.location.file == "m.ont"
        return [key, "error", err.message, err.location.line, err.location.column]
    shape = repr(tuple(_located_shape(f) for f in forms))
    return [key, "ok", len(forms), hashlib.sha256(shape.encode("utf-8")).hexdigest()[:16]]


def test_reader_matches_the_golden_file_on_seeded_mutants():
    """A change meant to alter the reader's output rewrites the file, and says why:

    PYTHONPATH=src python tests/test_sexpr.py > tests/data/sexpr_mutants.json
    """
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    texts = mutant_texts()
    assert len(golden) == len(texts)
    for i, text in enumerate(texts):
        assert mutant_record(text) == golden[i], (i, text[:200])


if __name__ == "__main__":
    print("[\n" + ",\n".join(json.dumps(mutant_record(text)) for text in mutant_texts()) + "\n]")
