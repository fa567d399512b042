"""The functional-syntax reader's load step against the rule it replaced.

`parse_functional` hands its whole document to `Ontology.load`, which admits
each entity the parse built once, in order of first mention. The reference
below is the rule that came before: register every declaration, then load
the axioms in text order, admitting every mention of each axiom not yet in
the store. A repeated mention can neither fail nor change the store, so both
rules must leave the same axioms, entities, imports and prefixes, orders
included, or raise the same error with the same message at the same place.
"""

import random
import re

import pytest

from ontoforge.errors import OntoforgeError
from ontoforge.importer import _FunctionalParser, parse_functional
from ontoforge.model import Arrival, Declaration, DuplicateEntityKind, axiom_mentions
from ontoforge.serializer import render_functional
from support import random_full_ontology
from test_golden_functional import DIAGNOSTICS, E, ofn

SEEDS = range(300)


def _reference_parse(text: str, file: str):
    """The text loaded by the rule that came before `Ontology.load`."""
    parser = _FunctionalParser(text, file)
    ontology, axioms, heads = parser.read()
    head = None
    try:
        for axiom, head in zip(axioms, heads):
            if isinstance(axiom, Declaration):
                ontology.admit(axiom.entity, Arrival.REGISTRATION)
        for axiom, head in zip(axioms, heads):
            if axiom in ontology:
                continue
            how = Arrival.DECLARATION if isinstance(axiom, Declaration) else Arrival.LOAD
            for entity in axiom_mentions(axiom):
                ontology.admit(entity, how)
            ontology.load_axiom(axiom)
    except DuplicateEntityKind as err:
        raise DuplicateEntityKind(err.message, parser._loc(head)) from None
    return ontology


def _outcome(parse, text: str):
    try:
        onto = parse(text, "in.ofn")
    except OntoforgeError as err:
        return type(err), err.message, err.location
    return (
        list(onto.axioms),
        list(onto.entities.items()),
        list(onto.imported.items()),
        list(onto.prefixes.items()),
    )


def _undeclared(text: str) -> str:
    """text without its Declaration lines: every entity is imported by use."""
    return "".join(line for line in text.splitlines(True) if not line.startswith("Declaration("))


def _spelled_both_ways(text: str, base: str) -> str:
    """text with every other `rt:` CURIE written as a full IRI."""
    count = 0

    def respell(match: re.Match) -> str:
        nonlocal count
        count += 1
        return f"<{base}{match.group(1)}>" if count % 2 else match.group()

    return re.sub(r"\brt:([A-Za-z0-9_]+)", respell, text)


def _variants(seed: int) -> list[tuple[str, str]]:
    """The rendering of one random ontology, and four rewrites of it.

    Without declarations, the imports follow the order of first mention;
    with the first class declared as a property, or with the property p0
    renamed to the class C0, loading meets a kind conflict.
    """
    onto = random_full_ontology(random.Random(seed))
    text = render_functional(onto)
    base = onto.iri.value
    undeclared = _undeclared(text)
    return [
        ("rendered", text),
        ("undeclared", undeclared),
        ("both-spellings", _spelled_both_ways(undeclared, base)),
        ("class-declared-as-property",
         text.replace("Declaration(Class(rt:C0))", "Declaration(ObjectProperty(rt:C0))")),
        ("property-punned-as-class", re.sub(r"\brt:p0\b", "rt:C0", undeclared)),
    ]


_HANDMADE = [
    ("mention-before-declaration-of-another-kind",
     ofn("SubClassOf(e:A e:B)", "Declaration(ObjectProperty(e:A))")),
    ("use-before-the-declaration-refused",
     ofn("Declaration(ObjectProperty(e:A))", "SubClassOf(e:A e:B)", "Declaration(Class(e:A))")),
    ("curie-and-iri-declared-two-kinds",
     ofn("Declaration(Class(e:A))", f"Declaration(ObjectProperty(<{E}A>))")),
    ("curie-and-iri-used-as-two-kinds",
     ofn("SubClassOf(e:B e:A)", f"SubClassOf(e:B ObjectSomeValuesFrom(<{E}A> e:C))")),
    ("iri-declared-curie-used-as-another-kind",
     ofn(f"Declaration(Class(<{E}A>))", "SubObjectPropertyOf(e:p e:A)")),
    ("duplicated-axiom",
     ofn("SubClassOf(e:A e:B)", f"SubClassOf(<{E}A> e:B)", "SubClassOf(e:A e:B)",
         "Declaration(Class(e:B))", f"Declaration(Class(<{E}B>))")),
    ("duplicated-axiom-then-conflict",
     ofn("SubClassOf(e:A e:B)", f"SubClassOf(<{E}A> e:B)", "TransitiveObjectProperty(e:B)")),
    ("label-as-class", ofn("SubClassOf(e:A e:B)", "SubClassOf(e:C rdfs:label)")),
    ("label-used-then-declared-as-class",
     ofn("SubClassOf(e:C rdfs:label)", "Declaration(Class(rdfs:label))")),
    ("thing-as-property", ofn("SubClassOf(e:A ObjectAllValuesFrom(owl:Thing e:B))")),
    ("thing-as-annotation-property", ofn('AnnotationAssertion(owl:Thing e:A "x")')),
    ("nothing-declared-as-property", ofn("SubClassOf(e:A owl:Nothing)",
                                         "Declaration(ObjectProperty(owl:Nothing))")),
    ("nothing-and-thing-declared", ofn("Declaration(Class(owl:Nothing))",
                                       "SubClassOf(owl:Thing e:A)",
                                       "Declaration(Class(owl:Thing))")),
    *((f"golden-{case[0]}", case[1]) for case in DIAGNOSTICS),
]


def test_loading_agrees_with_the_reference_rule_on_random_ontologies():
    outcomes = {"loaded": 0, "conflicts": 0}
    for seed in SEEDS:
        for name, text in _variants(seed):
            got = _outcome(parse_functional, text)
            assert got == _outcome(_reference_parse, text), (seed, name)
            outcomes["conflicts" if got[0] is DuplicateEntityKind else "loaded"] += 1
    # Both kinds of outcome are well represented.
    assert min(outcomes.values()) >= len(SEEDS) // 2, outcomes


@pytest.mark.parametrize("text", [text for _, text in _HANDMADE], ids=[n for n, _ in _HANDMADE])
def test_loading_agrees_with_the_reference_rule_on_handmade_texts(text):
    assert _outcome(parse_functional, text) == _outcome(_reference_parse, text)
