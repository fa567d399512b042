"""The functional-syntax token stream and the terms the parser shares.

The tokenizer keeps only token texts: a kind is derived from a text, and an
offset is found again only for a diagnostic. The oracle below tokenizes the
same grammar another way: one match per token with a named group per kind,
leading whitespace included, so the matches tile the text up to its trailing
whitespace. Both must give the same kinds, texts and offsets.
"""

import random
import re

import pytest

from ontoforge import model
from ontoforge.importer import (
    _TOKEN_RE,
    _kind,
    _labels_by_subject,
    _token_start,
    parse_functional,
)
from ontoforge.model import (
    And,
    AnnotationAssertion,
    AnnotationValue,
    Declaration,
    DisjointClasses,
    Entity,
    EquivalentClasses,
    IRI,
    Kind,
    Named,
    Not,
    Ontology,
    RDFS_LABEL,
    Some,
    SubClassOf,
    THING,
)

from ontoforge.sexpr import ParseError
from support import forest_functional_text
from test_golden_functional import DIAGNOSTICS
from test_importer import _rendered_texts

_ORACLE_RE = re.compile(
    r"""[ \t\r\n]*
      (?: (?P<open>\()
        | (?P<close>\))
        | (?P<bind>:=)
        | (?P<iriref><[^<>\s]+>)
        | (?P<literal>"[^"\\]*(?:\\.[^"\\]*)*")
        | (?P<lang>@[A-Za-z0-9][A-Za-z0-9-]*)
        | (?P<name>[A-Za-z_][A-Za-z0-9_.-]*(?::[A-Za-z_][A-Za-z0-9_.-]*)?)
        | (?P<bad>.)
      )""",
    re.VERBOSE,
)


def _oracle(text: str) -> list[tuple[str, str, int]]:
    end = len(text.rstrip(" \t\r\n"))
    return [
        (m.lastgroup, m.group(m.lastindex), m.start(m.lastindex))
        for m in _ORACLE_RE.finditer(text, 0, end)
    ]


def _stream(text: str) -> list[tuple[str, str, int]]:
    """The oracle's triples from the token texts and the regex's own offsets."""
    starts = [m.start() for m in _TOKEN_RE.finditer(text)]
    return [(_kind(token), token, starts[i]) for i, token in enumerate(_TOKEN_RE.findall(text))]


def _check_token_starts(name: str, text: str, expected, rng: random.Random) -> None:
    """`_token_start`, which a diagnostic calls, at the edges and at random indices."""
    n = len(expected)
    indices = {0, max(n - 1, 0), n} | {rng.randrange(n + 1) for _ in range(8)}
    for index in indices:
        want = expected[index][2] if 0 <= index < n else 0
        assert _token_start(text, index) == want, (name, index)


# Characters that start no token, or that start a longer token only when
# what follows fits it; whitespace outside " \t\r\n" is among them.
_STRAY = ["<", '"', "@", ":", "\f", "\v", "\x85", "\u00a0", "\u2028", "é", "λ", "€", "=", "$"]


def _mutants(name: str, text: str, count: int) -> list[str]:
    rng = random.Random(name)
    out = []
    for _ in range(count):
        at = rng.randrange(len(text) + 1)
        choice = rng.randrange(4)
        if choice == 0:
            out.append(text[:at] + rng.choice(_STRAY) + text[at:])
        elif choice == 1:
            out.append(text[:at] + rng.choice(_STRAY) * 2 + rng.choice(_STRAY) + text[at:])
        elif choice == 2:
            out.append(text[:at])
        else:
            out.append(text[:at] + rng.choice(_STRAY) + rng.choice([" ", "\n", "\t"]))
    # cut inside each of the first few literals, just past its opening quote
    # and just before its closing one
    for m in list(re.finditer(r'"[^"\\]*(?:\\.[^"\\]*)*"', text))[:3]:
        out.append(text[: m.start() + 1])
        out.append(text[: m.end() - 1])
    return out


def test_token_stream_matches_the_tiling_tokenizer():
    texts = _rendered_texts()
    texts += [(case[0], case[1]) for case in DIAGNOSTICS]
    texts += [("blank", ""), ("spaces", " \t\r\n "), ("formfeed", "\f"), ("lone", '< " @ :')]
    for name, text in list(texts):
        texts += [(f"{name}/{i}", m) for i, m in enumerate(_mutants(name, text, 6))]
    kinds = set()
    bad = set()
    rng = random.Random(12)
    for name, text in texts:
        expected = _oracle(text)
        assert _stream(text) == expected, name
        _check_token_starts(name, text, expected, rng)
        kinds.update(kind for kind, _, _ in expected)
        bad.update(token for kind, token, _ in expected if kind == "bad")
    assert kinds == {"open", "close", "bind", "iriref", "literal", "lang", "name", "bad"}
    # lone span openers, a form feed, non-ASCII characters and the quote of a
    # literal cut short all came out as bad tokens somewhere
    assert set(_STRAY) <= bad


def test_each_lone_span_opener_is_a_bad_token():
    for char in '<"@:':
        assert _oracle(f"a {char} b") == _stream(f"a {char} b")
        assert _stream(f"a {char} b")[1] == ("bad", char, 2)


# --- one Named per class text ----------------------------------------------------

E = "https://example.org/e#"


def _ingest_text(n_subclasses: int) -> str:
    lines = [
        f"Prefix(e:=<{E}>)",
        "Ontology(<https://example.org/o>",
        "Declaration(Class(e:A))",
        "Declaration(ObjectProperty(e:p))",
        "SubClassOf(e:B ObjectSomeValuesFrom(e:p e:A))",
        "EquivalentClasses(e:C ObjectIntersectionOf(e:A ObjectComplementOf(e:A)))",
        f"SubClassOf(<{E}A> owl:Thing)",
        "DisjointClasses(e:A e:C)",
        'AnnotationAssertion(rdfs:label e:A "a"@en)',
    ]
    lines += [f"SubClassOf(e:X{i} e:A)" for i in range(n_subclasses)]
    return "\n".join(lines + [")"]) + "\n"


def test_a_class_text_is_one_named_in_a_parse():
    n = 200
    ontology = parse_functional(_ingest_text(n))

    def cls(name):
        return Entity(Kind.CLASS, IRI(E + name))

    a, b, c, p = cls("A"), cls("B"), cls("C"), Entity(Kind.OBJECT_PROPERTY, IRI(E + "p"))
    expected = [
        Declaration(a),
        Declaration(p),
        SubClassOf(Named(b), Some(p, Named(a))),
        EquivalentClasses((Named(c), And((Named(a), Not(Named(a)))))),
        SubClassOf(Named(a), THING),
        DisjointClasses((a, c)),
        AnnotationAssertion(a.iri, RDFS_LABEL, AnnotationValue("a", "en")),
    ] + [SubClassOf(Named(cls(f"X{i}")), Named(a)) for i in range(n)]
    assert ontology.axioms == expected
    assert set(ontology.axioms) == set(expected)

    axioms = ontology.axioms
    mentions = [axioms[2].sup.filler, *axioms[3].operands[1].operands]
    mentions[-1] = mentions[-1].operand
    mentions += [axiom.sup for axiom in axioms[7:]]
    assert len(mentions) == n + 3
    assert all(named is mentions[0] for named in mentions)
    # another text for the same class is another term, equal to the first
    assert axioms[4].sub == mentions[0]

    # the table lives for one parse only
    again = parse_functional(_ingest_text(1))
    assert again.axioms[2].sup.filler == mentions[0]
    assert again.axioms[2].sup.filler is not mentions[0]


# --- what loading a forest hashes and builds ---------------------------------------


def test_an_iri_hashes_as_its_text_in_c():
    # An IRI is a str with no hash of its own, so every table keyed by IRIs
    # hashes in C, and an IRI's text finds the IRI's entry.
    assert IRI.__hash__ is str.__hash__
    ontology = parse_functional(forest_functional_text(300))
    labels = _labels_by_subject(ontology)
    assert len(ontology.entities) == len(labels) == 300
    for iri, entity in ontology.entities.items():
        assert iri is entity.iri and labels[str(iri)] is labels[iri]


def test_loading_a_forest_admits_each_parsed_entity_once(monkeypatch):
    # Declarations are registered, then each entity the parse built is
    # admitted once; no axiom's signature is walked.
    admissions = walks = 0
    admit, mentions = Ontology.admit, model.axiom_mentions

    def counting_admit(self, entity, how):
        nonlocal admissions
        admissions += 1
        return admit(self, entity, how)

    def counting_mentions(axiom):
        nonlocal walks
        walks += 1
        return mentions(axiom)

    monkeypatch.setattr(Ontology, "admit", counting_admit)
    monkeypatch.setattr(model, "axiom_mentions", counting_mentions)
    ontology = parse_functional(forest_functional_text(300))
    declarations = sum(isinstance(axiom, Declaration) for axiom in ontology.axioms)
    entities = {id(e) for ax in ontology.axioms for e in mentions(ax)}
    assert declarations == 300 and len(entities) == 301  # rdfs:label is the 301st
    assert admissions <= declarations + len(entities)
    assert walks == 0


def test_an_entity_text_is_one_entity_in_a_parse():
    ontology = parse_functional(forest_functional_text(300))
    properties = [
        axiom.property for axiom in ontology.axioms if isinstance(axiom, AnnotationAssertion)
    ]
    assert len(properties) == 300
    assert properties[0] == RDFS_LABEL
    assert all(prop is properties[0] for prop in properties)
    # a declared class and its mentions share one entity too
    declared = {
        axiom.entity.iri.value: axiom.entity
        for axiom in ontology.axioms
        if isinstance(axiom, Declaration)
    }
    subs = [axiom for axiom in ontology.axioms if isinstance(axiom, SubClassOf)]
    assert all(declared[ax.sub.entity.iri.value] is ax.sub.entity for ax in subs)

    again = parse_functional(forest_functional_text(1))
    label = next(axiom for axiom in again.axioms if isinstance(axiom, AnnotationAssertion))
    assert label.property == properties[0]
    assert label.property is not properties[0]


def test_a_missing_bind_keeps_its_diagnostic():
    with pytest.raises(ParseError) as err:
        parse_functional("Prefix(e <https://example.org/e#>)", "x.ofn")
    assert str(err.value) == "x.ofn:1:10: expected 'bind', found '<https://example.org/e#>'"
