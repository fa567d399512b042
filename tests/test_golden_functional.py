"""Golden diagnostics of the functional-syntax parser, recorded before its
heads and operands moved into one grammar table.

Each case is a small malformed text. The test pins the exception class, the
message and the line and column that `parse_functional` reports for it, so
that a refactor which reads operands in another order, checks them at
another time or words an error differently fails here.
"""

import pytest

from ontoforge.importer import parse_functional

E = "https://example.org/e#"


def ofn(*axiom_lines: str) -> str:
    """A functional text whose axioms start on line 3."""
    head = [f"Prefix(e:=<{E}>)", "Ontology(<https://example.org/o>"]
    return "\n".join(head + list(axiom_lines) + [")"]) + "\n"


def nested_complements(levels: int) -> str:
    expr = "e:A"
    for _ in range(levels):
        expr = f"ObjectComplementOf({expr})"
    return expr


ONTOLOGY_ONLY = "Ontology(<https://example.org/o>\n)\n"

# (case, text, exception class, message, line, column)
DIAGNOSTICS = [
    # --- tokens ---
    ("unexpected-character", ofn("SubClassOf(e:A $ e:B)"),
     "ParseError", "unexpected character '$'", 3, 16),
    ("end-of-input", ofn("Declaration(Class(e:A))", "SubClassOf(e:A")[:-2],
     "ParseError", "unexpected end of input", 4, 12),
    ("empty-text", "",
     "ParseError", "unexpected end of input", 1, 1),
    ("bad-escape", ofn('AnnotationAssertion(rdfs:label e:A "bad \\q")'),
     "ParseError", "unknown escape '\\q' in literal", 3, 36),
    ("bad-lang-tag", ofn('AnnotationAssertion(rdfs:label e:A "x"@-en)'),
     "ParseError", "unexpected character '@'", 3, 39),
    ("unterminated-text", ofn('AnnotationAssertion(rdfs:label e:A "abc)'),
     "ParseError", "unexpected character '\"'", 3, 36),
    # --- prefixes and the ontology frame ---
    ("no-ontology-keyword", f"Prefix(e:=<{E}>)\nOntolgy(<https://example.org/o>\n)\n",
     "ParseError", "expected 'Ontology', found 'Ontolgy'", 2, 1),
    ("ontology-iri-not-iriref", "Ontology(e:A\n)\n",
     "ParseError", "expected 'iriref', found 'e:A'", 1, 10),
    ("ontology-iri-relative", "Ontology(<o>\n)\n",
     "ParseError", "not an absolute IRI: 'o'", 1, 10),
    ("bad-prefix-label", "Prefix(a:b:=<https://example.org/a#>)\n" + ONTOLOGY_ONLY,
     "ParseError", "bad prefix label 'a:b'", 1, 8),
    ("prefix-without-bind", f"Prefix(e=<{E}>)\n" + ONTOLOGY_ONLY,
     "ParseError", "unexpected character '='", 1, 9),
    ("unterminated-ontology", ofn("Declaration(Class(e:A))")[:-2],
     "ParseError", "unterminated Ontology(...)", 2, 10),
    ("trailing-tokens", ofn("Declaration(Class(e:A))") + "Declaration(Class(e:B))\n",
     "ParseError", "unexpected 'Declaration' after ontology", 5, 1),
    # --- axiom heads ---
    ("axiom-head-not-a-name", ofn("(e:A e:B)"),
     "ParseError", "expected an axiom, found '('", 3, 1),
    ("axiom-without-open", ofn("SubClassOf e:A e:B)"),
     "ParseError", "expected 'open', found 'e:A'", 3, 12),
    ("unknown-axiom-head", ofn("Declaration(Class(e:A))", 'DataPropertyAssertion(e:age e:A "4")'),
     "UnsupportedConstruct", "unsupported construct 'DataPropertyAssertion' at line 4", 4, 1),
    ("ce-head-in-axiom-position", ofn("ObjectIntersectionOf(e:A e:B)"),
     "UnsupportedConstruct", "unsupported construct 'ObjectIntersectionOf' at line 3", 3, 1),
    # --- declarations ---
    ("declaration-bad-keyword", ofn("Declaration(NamedIndividual(e:bob))"),
     "UnsupportedConstruct", "unsupported construct 'NamedIndividual' at line 3", 3, 13),
    ("declaration-keyword-not-a-name", ofn(f"Declaration(<{E}A>)"),
     "ParseError", f"expected 'name', found '<{E}A>'", 3, 13),
    ("declaration-unclosed", ofn("Declaration(Class(e:A) SubClassOf(e:A e:B)"),
     "ParseError", "expected 'close', found 'SubClassOf'", 3, 24),
    # --- IRIs and CURIEs ---
    ("unknown-prefix", ofn("SubClassOf(u:A e:B)"),
     "ParseError", "unknown prefix 'u'", 3, 12),
    ("iri-expected-for-property", ofn("SubObjectPropertyOf(e:p part)"),
     "ParseError", "expected an IRI or CURIE, found 'part'", 3, 25),
    ("relative-iri-in-declaration", ofn("Declaration(Class(<foo>))"),
     "ParseError", "not an absolute IRI: 'foo'", 3, 19),
    ("import-curie", ofn("Import(e:A)"),
     "ParseError", "expected 'iriref', found 'e:A'", 3, 8),
    ("import-relative", ofn("Import(<other.ofn>)"),
     "ParseError", "not an absolute IRI: 'other.ofn'", 3, 8),
    # --- class expressions ---
    ("unknown-ce-head", ofn("SubClassOf(e:A DataSomeValuesFrom(e:age e:Int))"),
     "UnsupportedConstruct", "unsupported construct 'DataSomeValuesFrom' at line 3", 3, 16),
    ("ce-expected", ofn('SubClassOf(e:A "lit")'),
     "ParseError", "expected a class expression, found '\"lit\"'", 3, 16),
    ("lang-tag-as-operand", ofn("SubClassOf(@en e:A)"),
     "ParseError", "expected a class expression, found '@en'", 3, 12),
    ("restriction-without-filler", ofn("SubClassOf(e:A ObjectSomeValuesFrom(e:p))"),
     "ParseError", "expected a class expression, found ')'", 3, 40),
    ("nesting-cap", ofn(f"SubClassOf(e:A {nested_complements(99)})"),
     "ParseError", "nesting deeper than 100 levels", 3, 1896),
    # --- operand counts ---
    ("too-many-operands", ofn("SubClassOf(e:A e:B e:C)"),
     "ParseError", "expected 'close', found 'e:C'", 3, 20),
    ("characteristic-two-operands", ofn("TransitiveObjectProperty(e:p e:q)"),
     "ParseError", "expected 'close', found 'e:q'", 3, 30),
    ("intersection-one-operand", ofn("SubClassOf(e:A ObjectIntersectionOf(e:B) part)"),
     "ParseError", "ObjectIntersectionOf needs at least two operands", 3, 16),
    ("union-no-operand", ofn("SubClassOf(ObjectUnionOf() e:A)"),
     "ParseError", "ObjectUnionOf needs at least two operands", 3, 12),
    ("intersection-bad-prefix-before-count", ofn("SubClassOf(e:A ObjectIntersectionOf(u:B))"),
     "ParseError", "unknown prefix 'u'", 3, 37),
    ("equivalent-one-operand", ofn("Declaration(Class(e:A))", "EquivalentClasses(e:A)"),
     "ParseError", "intersection and union need at least two operands", 4, 1),
    ("equivalent-unknown-head", ofn("EquivalentClasses(e:A Foo(e:B))"),
     "UnsupportedConstruct", "unsupported construct 'Foo' at line 3", 3, 23),
    # --- disjointness members ---
    ("disjoint-one-member", ofn("DisjointClasses(e:A)"),
     "ParseError", "disjointness needs at least two classes", 3, 1),
    ("disjoint-repeated-member", ofn("DisjointClasses(e:A e:A)"),
     "ParseError", "disjoint classes must be pairwise distinct", 3, 1),
    ("disjoint-complement-then-unknown-head",
     ofn("DisjointClasses(ObjectComplementOf(e:A) Foo(e:B))"),
     "ParseError", "disjointness members must be named classes", 3, 1),
    ("disjoint-thing-member", ofn("DisjointClasses(e:A owl:Thing)"),
     "ParseError", "disjointness members must be named classes", 3, 1),
    ("disjoint-bad-prefix-inside-member", ofn("DisjointClasses(e:A ObjectComplementOf(u:B))"),
     "ParseError", "unknown prefix 'u'", 3, 40),
    # --- annotations ---
    ("annotation-value-not-literal", ofn("AnnotationAssertion(rdfs:label e:A e:B)"),
     "ParseError", "expected 'literal', found 'e:B'", 3, 36),
    ("annotation-subject-literal", ofn('AnnotationAssertion(rdfs:label "x" "y")'),
     "ParseError", "expected an IRI or CURIE, found '\"x\"'", 3, 32),
    # --- kind conflicts, found after the whole text parsed ---
    ("kind-conflict-declarations",
     ofn("Declaration(Class(e:A))", "Declaration(ObjectProperty(e:A))"),
     "DuplicateEntityKind", f"<{E}A> declared as both Class and ObjectProperty", 4, 1),
    ("kind-conflict-by-use", ofn("SubClassOf(e:A e:B)", "  SubObjectPropertyOf(e:p e:A)"),
     "DuplicateEntityKind", f"<{E}A> already imported as Class, now ObjectProperty", 4, 3),
    ("kind-conflict-in-restriction",
     ofn("Declaration(Class(e:A))", "SubClassOf(e:B ObjectSomeValuesFrom(e:A e:C))"),
     "DuplicateEntityKind", f"<{E}A> declared as Class but used as ObjectProperty", 4, 1),
    ("kind-conflict-builtin", ofn("SubClassOf(rdfs:label e:A)"),
     "DuplicateEntityKind",
     "<http://www.w3.org/2000/01/rdf-schema#label> declared as AnnotationProperty but used as Class",
     3, 1),
    ("kind-conflict-builtin-declared", ofn("SubClassOf(e:A e:B)", "Declaration(Class(rdfs:label))"),
     "DuplicateEntityKind",
     "<http://www.w3.org/2000/01/rdf-schema#label> already built in as AnnotationProperty, "
     "redeclared as Class",
     4, 1),
    ("kind-conflict-builtin-class-declared", ofn("Declaration(ObjectProperty(owl:Thing))"),
     "DuplicateEntityKind",
     "<http://www.w3.org/2002/07/owl#Thing> already built in as Class, redeclared as ObjectProperty",
     3, 1),
    ("kind-conflict-builtin-class-as-property",
     ofn("SubClassOf(e:A ObjectSomeValuesFrom(owl:Nothing e:A))"),
     "DuplicateEntityKind",
     "<http://www.w3.org/2002/07/owl#Nothing> declared as Class but used as ObjectProperty",
     3, 1),
    ("parse-error-beats-kind-conflict",
     ofn("Declaration(Class(e:A))", "Declaration(ObjectProperty(e:A))", "SubClassOf(e:A $)"),
     "ParseError", "unexpected character '$'", 5, 16),
]


@pytest.mark.parametrize(
    "text, error, message, line, column",
    [case[1:] for case in DIAGNOSTICS],
    ids=[case[0] for case in DIAGNOSTICS],
)
def test_functional_diagnostics_are_unchanged(text, error, message, line, column):
    with pytest.raises(Exception) as raised:
        parse_functional(text, file="in.ofn")
    err = raised.value
    assert type(err).__name__ == error
    assert err.message == message
    assert (err.location.file, err.location.line, err.location.column) == ("in.ofn", line, column)
