"""Tests for functional-syntax parsing, interning, and memo snapshots."""

import pytest

from ontoforge.errors import Location
from ontoforge.evaluator import Environment, eval_text, resolve
from ontoforge.importer import (
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
from ontoforge.sexpr import ParseError

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
    assert IRI(EXT + "Pizza") in onto.entities
    assert SubClassOf(
        Named(onto.entities[IRI(EXT + "Margherita")]),
        Named(onto.entities[IRI(EXT + "Pizza")]),
    ) in onto


def test_parse_functional_registers_undeclared_mentions_as_imported():
    text = functional("SubClassOf(e:A <https://elsewhere.org/x#B>)")
    onto = parse_functional(text)
    assert IRI(EXT + "A") in onto.imported
    assert IRI("https://elsewhere.org/x#B") in onto.imported
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
    assert IRI(EXT + "Part") in env.ontology.imported


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
