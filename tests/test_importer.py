"""Tests for functional-syntax parsing, interning, and memo snapshots."""

import dataclasses
import random
import re

import pytest

from ontoforge import model
from ontoforge.errors import Location
from ontoforge.evaluator import Environment, eval_text, resolve
from ontoforge.importer import (
    GRAMMAR,
    MemoReport,
    MemoTable,
    UnmappableLabel,
    UnsupportedConstruct,
    WrongOntology,
    intern_external,
    label_to_identifier,
    memorise_check,
    memorise_save,
    parse_functional,
)
from ontoforge.model import (
    AnnotationAssertion,
    AnnotationValue,
    Declaration,
    DuplicateEntityKind,
    Entity,
    IRI,
    Kind,
    Named,
    NOTHING,
    Ontology,
    RDFS_LABEL,
    SubClassOf,
    THING,
)
from ontoforge.serializer import render_functional
from ontoforge.sexpr import MAX_NESTING, ParseError
from support import pizza_env, random_full_ontology

EXT = "https://example.org/ext#"


def functional(*axiom_lines: str) -> str:
    head = [
        f"Prefix(e:=<{EXT}>)",
        f"Ontology(<{EXT[:-1]}>",
    ]
    return "\n".join(head + list(axiom_lines) + [")"]) + "\n"


def fresh_env() -> Environment:
    return eval_text('(defontology menu :iri "https://example.org/menu#" :prefix "menu")', "menu")


# --- functional parsing -------------------------------------------------------


def test_parse_functional_builds_the_ontology():
    text = functional(
        "Declaration(Class(e:Pizza))",
        "Declaration(Class(e:Margherita))",
        "Declaration(ObjectProperty(e:hasTopping))",
        "SubClassOf(e:Margherita e:Pizza)",
        "SubClassOf(e:Margherita ObjectSomeValuesFrom(e:hasTopping owl:Thing))",
    )
    onto = parse_functional(text)
    assert onto.iri == IRI(EXT[:-1])
    assert onto.prefixes == {"e": EXT}
    assert EXT + "Pizza" in onto.entities
    assert SubClassOf(
        Named(onto.entities[EXT + "Margherita"]),
        Named(onto.entities[EXT + "Pizza"]),
    ) in onto


def test_parse_functional_registers_undeclared_mentions_as_imported():
    text = functional("SubClassOf(e:A <https://elsewhere.org/x#B>)")
    onto = parse_functional(text)
    assert EXT + "A" in onto.imported
    assert "https://elsewhere.org/x#B" in onto.imported
    assert onto.entities == {}


def test_parse_functional_thing_and_nothing_are_singletons():
    text = functional("SubClassOf(owl:Nothing owl:Thing)")
    onto = parse_functional(text)
    assert SubClassOf(NOTHING, THING) in onto


def test_parse_functional_literals():
    text = functional(
        "Declaration(Class(e:A))",
        'AnnotationAssertion(rdfs:label e:A "pizza \\"pie\\"\\n\\t\\\\"@en-GB)',
        'AnnotationAssertion(rdfs:comment e:A "no language")',
    )
    onto = parse_functional(text)
    values = [a.value for a in onto.axioms if isinstance(a, AnnotationAssertion)]
    assert AnnotationValue('pizza "pie"\n\t\\', "en-gb") in values
    assert AnnotationValue("no language", None) in values


def test_parse_functional_rejects_conflicting_declarations():
    text = functional(
        "Declaration(Class(e:A))",
        "Declaration(ObjectProperty(e:A))",
    )
    with pytest.raises(DuplicateEntityKind):
        parse_functional(text)


def test_parse_functional_flags_unsupported_axioms_with_line():
    text = functional(
        "Declaration(Class(e:A))",
        'DataPropertyAssertion(e:age e:A "4")',
    )
    with pytest.raises(UnsupportedConstruct) as err:
        parse_functional(text, file="ext.ofn")
    assert "DataPropertyAssertion" in str(err.value)
    assert "line 4" in str(err.value)
    assert err.value.location == Location("ext.ofn", 4, 1)


def test_parse_functional_flags_unsupported_declaration_kinds():
    text = functional("Declaration(NamedIndividual(e:bob))")
    with pytest.raises(UnsupportedConstruct) as err:
        parse_functional(text)
    assert "NamedIndividual" in str(err.value)


def test_parse_functional_flags_an_ontology_declaration():
    text = functional("Declaration(Ontology(e:other))")
    with pytest.raises(UnsupportedConstruct) as err:
        parse_functional(text)
    assert "Ontology" in str(err.value)


def test_parse_functional_flags_unsupported_expressions():
    text = functional("SubClassOf(e:A DataSomeValuesFrom(e:age e:Int))")
    with pytest.raises(UnsupportedConstruct) as err:
        parse_functional(text)
    assert "DataSomeValuesFrom" in str(err.value)


def test_parse_functional_syntax_errors():
    with pytest.raises(ParseError):
        parse_functional("Ontology(<https://x.org/a>")  # unterminated
    with pytest.raises(ParseError):
        parse_functional(functional() + "leftover")
    with pytest.raises(ParseError):
        parse_functional(functional("SubClassOf(u:A u:B)"))  # unknown prefix
    with pytest.raises(ParseError):
        parse_functional("~nonsense~")
    with pytest.raises(ParseError):
        parse_functional(functional('AnnotationAssertion(rdfs:label e:A "bad \\q")'))


def test_parse_functional_error_locations_point_at_tokens():
    text = "Prefix(e:=<https://example.org/ext#>)\nOntology(<https://example.org/ext>\n  SubClassOf(u:A e:B)\n)\n"
    with pytest.raises(ParseError) as err:
        parse_functional(text, file="dep.ofn")
    assert err.value.location == Location("dep.ofn", 3, 14)


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_parse_functional_error_lines_break_at_every_line_end(newline):
    # a lone \r ends a line, as \n and \r\n do
    text = newline.join([
        "Prefix(e:=<https://example.org/ext#>)",
        "Ontology(<https://example.org/ext>",
        "  Declaration(Class(e:A)) $",
        ")",
    ])
    with pytest.raises(ParseError) as err:
        parse_functional(text, file="cr.ofn")
    assert err.value.location == Location("cr.ofn", 3, 27)


def test_relative_iris_are_located_parse_errors():
    cases = {
        "Ontology(<ext>\n)\n": (1, 10),
        functional("Declaration(Class(<foo>))"): (3, 19),
        functional("Import(<other.ofn>)"): (3, 8),
        "Prefix(p:=<rel/>)\nOntology(<https://x.org/a>\nDeclaration(Class(p:A)))\n": (3, 19),
    }
    for text, (line, column) in cases.items():
        with pytest.raises(ParseError) as err:
            parse_functional(text, file="dep.ofn")
        assert "not an absolute IRI" in err.value.message
        assert err.value.location == Location("dep.ofn", line, column), text


def test_model_constructor_errors_are_located_at_the_axiom():
    cases = {
        "DisjointClasses(e:A e:A)": "disjoint classes must be pairwise distinct",
        "DisjointClasses(e:A)": "disjointness needs at least two classes",
        "EquivalentClasses(e:A)": "need at least two operands",
    }
    for line, message in cases.items():
        with pytest.raises(ParseError) as err:
            parse_functional(functional("Declaration(Class(e:A))", line), file="dep.ofn")
        assert message in err.value.message
        assert err.value.location == Location("dep.ofn", 4, 1), line


def test_class_expressions_nest_up_to_the_shared_limit():
    def nested(levels: int) -> str:
        expr = "e:A"
        for _ in range(levels):
            expr = f"ObjectComplementOf({expr})"
        return functional(f"SubClassOf(e:A {expr})")

    # Ontology( and SubClassOf( are the first two levels.
    parse_functional(nested(MAX_NESTING - 2))
    text = nested(MAX_NESTING - 1)
    with pytest.raises(ParseError) as err:
        parse_functional(text, file="dep.ofn")
    assert err.value.message == f"nesting deeper than {MAX_NESTING} levels"
    assert err.value.location == Location("dep.ofn", 3, text.splitlines()[2].rindex("(") + 1)


def test_the_grammar_covers_every_axiom_and_class_expression():
    written_by_hand = {model.Declaration, model.Named}
    concrete = {
        cls
        for cls in vars(model).values()
        if isinstance(cls, type)
        and issubclass(cls, (model.Axiom, model.ClassExpression))
        and cls not in (model.Axiom, model.ClassExpression)
    }
    assert concrete == set(GRAMMAR) | written_by_hand
    assert not set(GRAMMAR) & written_by_hand
    for cls, (head, operands) in GRAMMAR.items():
        fields = [f.name for f in dataclasses.fields(cls)]
        assert sorted(name for name, _kind in operands) == sorted(fields), head
    heads = [head for head, _operands in GRAMMAR.values()]
    assert len(set(heads)) == len(heads)


def _rendered_texts() -> list[tuple[str, str]]:
    texts = [("pizza", render_functional(pizza_env().ontology))]
    for seed in range(100):
        onto = random_full_ontology(random.Random(seed))
        texts.append((f"random-{seed}", render_functional(onto)))
    return texts


def test_parsing_preserves_the_order_of_the_text():
    for name, text in _rendered_texts():
        assert render_functional(parse_functional(text)) == text, name


def _scan(text: str) -> tuple[list[int], list[tuple[int, int]]]:
    """Offsets between two tokens, and (open, close) quote offsets of literals.

    Found by a character scan that only tracks whether it is inside a
    literal, so it shares nothing with the tokenizer under test.
    """
    gaps: list[int] = []
    literals: list[tuple[int, int]] = []
    opened = None
    escaped = False
    for i, ch in enumerate(text):
        if opened is not None:
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == '"':
                literals.append((opened, i))
                opened = None
            continue
        if ch == '"':
            opened = i
        if ch in " \n()" or (i > 0 and text[i - 1] in " \n()"):
            gaps.append(i)
    return gaps, literals


def _line_col(text: str, offset: int) -> tuple[int, int]:
    lines = text[:offset].split("\n")
    return len(lines), len(lines[-1]) + 1


def _error_at(text: str) -> tuple[str, tuple[int, int]]:
    with pytest.raises(ParseError) as err:
        parse_functional(text, file="in.ofn")
    location = err.value.location
    assert location.file == "in.ofn"
    return err.value.message, (location.line, location.column)


def test_tokenizer_errors_are_located_at_the_offending_offset():
    for name, text in _rendered_texts():
        rng = random.Random(name)
        gaps, literals = _scan(text)
        for at in rng.sample(gaps, 4):
            char = rng.choice("$%&*!~^|?`")
            bad = text[:at] + char + text[at:]
            assert _error_at(bad) == (f"unexpected character {char!r}", _line_col(bad, at)), name
        ends = [at for at in gaps if text[at - 1] in "()" and text[at:].strip()]
        ontology_iri = text.index("Ontology(") + len("Ontology(")
        for at in rng.sample(ends, 4):
            cut = text[:at]
            message, where = _error_at(cut)
            if message == "unterminated Ontology(...)":
                assert where == _line_col(cut, ontology_iri), name
            else:
                # the last token is the parenthesis the text now ends with
                assert (message, where) == ("unexpected end of input", _line_col(cut, at - 1)), name
        for opened, closed in rng.sample(literals, min(2, len(literals))):
            bad = text[: opened + 1] + "\\q" + text[opened + 1 :]
            assert _error_at(bad) == ("unknown escape '\\q' in literal", _line_col(bad, opened)), name
            cut = text[: rng.randrange(opened + 1, closed)]
            assert _error_at(cut) == ("unexpected character '\"'", _line_col(cut, opened)), name


def test_end_of_input_points_at_the_last_token():
    text = functional("Declaration(Class(e:A))", "SubClassOf(e:A\n  e:B")[: -len(")\n")]
    assert _error_at(text) == ("unexpected end of input", _line_col(text, text.rindex("e:B")))
    assert _error_at("") == ("unexpected end of input", (1, 1))


# --- label derivation ----------------------------------------------------------


def test_label_to_identifier_spaces_become_underscores():
    assert label_to_identifier("has part") == "has_part"
    assert label_to_identifier("provides service consumer with") == "provides_service_consumer_with"


def test_label_to_identifier_cleans_odd_characters():
    assert label_to_identifier("2nd class!") == "_2nd_class"
    assert label_to_identifier("  padded   out  ") == "padded_out"
    assert label_to_identifier("deep-pan (thin)") == "deep-pan_thin"
    assert label_to_identifier("a***b") == "a_b"
    assert label_to_identifier("trailing???") == "trailing"


def test_label_to_identifier_rejects_empty_results():
    for label in ("", "   ", "???", "###"):
        with pytest.raises(UnmappableLabel):
            label_to_identifier(label)


@pytest.mark.parametrize(
    "label, expected",
    [
        ("a_b", "a_b"),
        ("a__b", "a_b"),
        ("a _ b", "a_b"),
        ("_private", "_private"),
        ("__dunder__", "_dunder"),
        ("-dash", "_-dash"),
        ("a--b-", "a--b-"),
        ("layer-1 / 2", "layer-1_2"),
        ("9", "_9"),
        ("café au lait", "caf_au_lait"),
        ("no\u00a0break", "no_break"),
        ("\u3000ideographic\u3000space\u3000", "ideographic_space"),
        ("\u0663 arabic digit", "_arabic_digit"),
        ("tab\tand\nnewline", "tab_and_newline"),
        ("zero\u200bwidth", "zero_width"),
        ("", UnmappableLabel),
        ("\u3000\t", UnmappableLabel),
        ("___", UnmappableLabel),
        ("_ ! _", UnmappableLabel),
        ("\u0663", UnmappableLabel),
    ],
)
def test_label_to_identifier_table(label, expected):
    if expected is UnmappableLabel:
        with pytest.raises(UnmappableLabel):
            label_to_identifier(label)
    else:
        assert label_to_identifier(label) == expected


def _four_pass_label_to_identifier(label: str) -> str | None:
    """The reference: blanks, then other characters, then '_' runs, one pass each."""
    s = re.sub(r"\s+", "_", label.strip())
    s = re.sub(r"[^A-Za-z0-9_-]", "_", s)
    s = re.sub(r"_{2,}", "_", s).rstrip("_")
    if not s:
        return None
    return s if re.match(r"[A-Za-z_]", s) else "_" + s


def test_label_to_identifier_matches_the_four_pass_reference():
    alphabet = list("aZ09-_ !?.()/\t\n\x1c\x85\u00a0\u2003\u3000\u200b\u0663\u00e9\u0416")
    rng = random.Random(5)
    for _ in range(20000):
        label = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 10)))
        try:
            got = label_to_identifier(label)
        except UnmappableLabel:
            got = None
        assert got == _four_pass_label_to_identifier(label), repr(label)


# --- interning -------------------------------------------------------------------


def external_ontology(part_label: str = "spare part") -> Ontology:
    onto = Ontology(IRI(EXT[:-1]))
    onto.prefixes["e"] = EXT
    part = onto.declare(Kind.CLASS, IRI(EXT + "Part"))
    onto.declare(Kind.CLASS, IRI(EXT + "Whole"))
    prop = onto.declare(Kind.OBJECT_PROPERTY, IRI(EXT + "hasPart"))
    onto.add_axiom(AnnotationAssertion(part.iri, RDFS_LABEL, AnnotationValue(part_label, "en")))
    onto.add_axiom(AnnotationAssertion(prop.iri, RDFS_LABEL, AnnotationValue("has part", "en")))
    return onto


def test_intern_by_fragment_binds_every_entity():
    env = fresh_env()
    added = intern_external(env, external_ontology())
    assert added == 3
    assert resolve(env, "Part").iri == IRI(EXT + "Part")
    assert resolve(env, "Whole").kind is Kind.CLASS
    assert resolve(env, "hasPart").kind is Kind.OBJECT_PROPERTY
    assert EXT + "Part" in env.ontology.imported


def test_intern_by_label_prefers_labels_and_falls_back():
    env = fresh_env()
    added = intern_external(env, external_ontology(), naming="label")
    assert added == 3
    assert resolve(env, "spare_part").iri == IRI(EXT + "Part")
    assert resolve(env, "has_part").iri == IRI(EXT + "hasPart")
    # Whole has no label: fragment fallback plus a warning
    assert resolve(env, "Whole").iri == IRI(EXT + "Whole")
    assert any("no rdfs:label" in d.message for d in env.warnings)


def test_intern_collisions_get_numeric_suffixes_in_iri_order():
    ext = Ontology(IRI("https://example.org/dup"))
    for base in ("https://example.org/dup/a#", "https://example.org/dup/b#", "https://example.org/dup/c#"):
        ext.declare(Kind.CLASS, IRI(base + "Pizza"))
    env = fresh_env()
    added = intern_external(env, ext)
    assert added == 3
    assert resolve(env, "Pizza").iri == IRI("https://example.org/dup/a#Pizza")
    assert resolve(env, "Pizza_2").iri == IRI("https://example.org/dup/b#Pizza")
    assert resolve(env, "Pizza_3").iri == IRI("https://example.org/dup/c#Pizza")
    warnings = [d.message for d in env.warnings]
    assert any("'Pizza' already bound" in m and "Pizza_2" in m for m in warnings)


def test_intern_is_idempotent():
    env = fresh_env()
    ext = external_ontology()
    assert intern_external(env, ext) == 3
    warnings_before = len(env.warnings)
    assert intern_external(env, ext) == 0
    assert len(env.warnings) == warnings_before


def test_intern_prefix_filter():
    ext = Ontology(IRI("https://example.org/mixed"))
    ext.declare(Kind.CLASS, IRI("https://example.org/mixed/keep#A"))
    ext.declare(Kind.CLASS, IRI("https://example.org/mixed/drop#B"))
    env = fresh_env()
    added = intern_external(env, ext, prefix="https://example.org/mixed/keep#")
    assert added == 1
    assert "A" in env.bindings
    assert "B" not in env.bindings


def test_intern_registers_a_prefix_for_external_iris():
    env = fresh_env()
    intern_external(env, external_ontology())
    assert EXT in env.ontology.prefixes.values()


def test_intern_registers_no_base_under_which_no_interned_iri_has_a_curie():
    # `22298006` and `example:Foo` are no local names, so both IRIs print as
    # <IRI> and a prefix for either base would go unused
    ext = Ontology(IRI("https://example.org/codes"))
    ext.declare(Kind.CLASS, IRI("http://snomed.info/id/22298006"))
    ext.declare(Kind.CLASS, IRI("urn:example:Foo"))
    env = fresh_env()
    assert intern_external(env, ext) == 2
    assert resolve(env, "_22298006").iri == IRI("http://snomed.info/id/22298006")
    assert resolve(env, "example_Foo").iri == IRI("urn:example:Foo")
    assert env.ontology.prefixes == {"menu": "https://example.org/menu#"}


def test_intern_validates_naming():
    with pytest.raises(ValueError):
        intern_external(fresh_env(), external_ontology(), naming="guess")


# --- memo snapshots ----------------------------------------------------------------


def test_memo_table_round_trips_through_text():
    table = MemoTable("https://example.org/ext", (("Part", EXT + "Part"), ("Whole", EXT + "Whole")))
    text = table.to_text()
    assert text.splitlines()[0] == "#memo https://example.org/ext"
    assert MemoTable.from_text(text) == table


def test_memo_table_from_text_rejects_malformed_input():
    with pytest.raises(ParseError):
        MemoTable.from_text("no header\n")
    with pytest.raises(ParseError):
        MemoTable.from_text("#memo https://x.org/a\nrow-without-tab\n")
    with pytest.raises(ParseError):
        MemoTable.from_text("#memo https://x.org/a\nA\thttps://x.org/a#1\nA\thttps://x.org/a#2\n")
    with pytest.raises(ParseError):
        MemoTable.from_text("#memo https://x.org/a\nA\thttps://x.org/a#1\nB\thttps://x.org/a#1\n")


def test_memo_table_errors_are_at_the_line_an_editor_shows():
    # U+0085 and a form feed end no line; only \r\n, \r and \n do.
    text = "#memo https://x.org/a\nA\thttps://x.org/a#1\x85\fx\r\nno-tab\n"
    with pytest.raises(ParseError) as err:
        MemoTable.from_text(text, file="n.memo")
    assert err.value.location == Location("n.memo", 3, 1)
    table = MemoTable.from_text(text.replace("no-tab", "B\thttps://x.org/a#2"))
    assert table.rows == (("A", "https://x.org/a#1\x85\fx"), ("B", "https://x.org/a#2"))


def test_memorise_save_snapshots_sorted_rows():
    env = fresh_env()
    intern_external(env, external_ontology())
    table = memorise_save(env, EXT[:-1])
    assert table.source_iri == EXT[:-1]
    assert table.rows == (
        ("Part", EXT + "Part"),
        ("Whole", EXT + "Whole"),
        ("hasPart", EXT + "hasPart"),
    )


def test_memorise_save_requires_an_interned_source():
    with pytest.raises(WrongOntology):
        memorise_save(fresh_env(), "https://example.org/never")


def test_memorise_check_stable_when_nothing_moved():
    env = fresh_env()
    intern_external(env, external_ontology())
    table = memorise_save(env, EXT[:-1])
    report = memorise_check(env, table)
    assert report == MemoReport(True, (), ())


def test_memorise_check_turns_renames_into_deprecated_aliases():
    old_env = fresh_env()
    intern_external(old_env, external_ontology(), naming="label")
    table = memorise_save(old_env, EXT[:-1])

    # same source, but Part's label changed upstream
    changed = external_ontology(part_label="replacement part")
    env = fresh_env()
    intern_external(env, changed, naming="label")
    report = memorise_check(env, table)
    assert not report.stable
    assert report.deprecated == (("spare_part", "replacement_part", EXT + "Part"),)
    assert report.vanished == ()

    # the old name keeps resolving, with exactly one warning naming the successor
    before = len(env.warnings)
    entity = resolve(env, "spare_part")
    assert entity.iri == IRI(EXT + "Part")
    new_warnings = env.warnings[before:]
    assert len(new_warnings) == 1
    assert "'spare_part' is deprecated" in new_warnings[0].message
    assert "replacement_part" in new_warnings[0].message


def test_memorise_check_reports_vanished_iris():
    env_before = fresh_env()
    intern_external(env_before, external_ontology())
    table = memorise_save(env_before, EXT[:-1])

    shrunk = Ontology(IRI(EXT[:-1]))
    shrunk.declare(Kind.CLASS, IRI(EXT + "Part"))
    env = fresh_env()
    intern_external(env, shrunk)
    report = memorise_check(env, table)
    assert not report.stable
    assert report.vanished == (EXT + "Whole", EXT + "hasPart")


def test_memorise_check_leaves_live_bindings_alone():
    # a name that is still bound must not become a deprecated alias
    env = fresh_env()
    ext = external_ontology()
    intern_external(env, ext)
    table = MemoTable(EXT[:-1], (("Part", EXT + "Whole"),))  # Part now points elsewhere
    report = memorise_check(env, table)
    assert report.deprecated == (("Part", "Whole", EXT + "Whole"),)
    assert "Part" not in env.deprecated
    assert resolve(env, "Part").iri == IRI(EXT + "Part")


def test_memorise_check_requires_the_same_source():
    env = fresh_env()
    intern_external(env, external_ontology())
    with pytest.raises(WrongOntology):
        memorise_check(env, MemoTable("https://example.org/other", ()))
