"""Tests for the Manchester-style and functional-style renderers."""

import hashlib
import random
import time
from pathlib import Path

import pytest

from ontoforge.importer import _TOKEN_RE, _kind, parse_functional
from ontoforge.model import (
    And,
    AnnotationAssertion,
    AnnotationValue,
    Declaration,
    DisjointClasses,
    Entity,
    EquivalentClasses,
    FunctionalObjectProperty,
    Import,
    IRI,
    Kind,
    KINDS,
    Named,
    Not,
    NOTHING,
    ObjectPropertyDomain,
    ObjectPropertyRange,
    Only,
    Ontology,
    Or,
    OWL_NS,
    RDFS_COMMENT,
    RDFS_LABEL,
    Some,
    SubClassOf,
    SubObjectPropertyOf,
    THING,
    TransitiveObjectProperty,
    axiom_mentions,
)
from ontoforge.serializer import (
    _FRAMES,
    CurieTable,
    prefix_map,
    render_functional,
    render_omn,
    shorten,
)
from support import pizza_env, random_full_ontology

BASE = "https://example.org/menu#"


def menu() -> Ontology:
    onto = Ontology(IRI("https://example.org/menu"))
    onto.prefixes["m"] = BASE
    return onto


# --- prefixes ----------------------------------------------------------------


def test_prefix_map_adds_builtins():
    onto = menu()
    got = prefix_map(onto)
    assert got["m"] == BASE
    assert got["owl"] == OWL_NS
    assert "rdfs" in got


def test_shorten_picks_longest_base():
    prefixes = {"a": "https://x.org/", "b": "https://x.org/deep#"}
    assert shorten(IRI("https://x.org/deep#Pizza"), prefixes) == "b:Pizza"
    assert shorten(IRI("https://x.org/Top"), prefixes) == "a:Top"


def test_shorten_requires_clean_local_name():
    prefixes = {"a": "https://x.org/"}
    assert shorten(IRI("https://x.org/has/slash"), prefixes) is None
    assert shorten(IRI("https://x.org/1digit"), prefixes) is None
    assert shorten(IRI("https://y.org/elsewhere"), prefixes) is None
    assert shorten(IRI("https://x.org/ok.name-1_x"), prefixes) == "a:ok.name-1_x"


def test_every_curie_shorten_writes_is_one_name_token():
    # the round trip needs the tokenizer to read each written CURIE back whole
    alphabet = list("aZz_09.-:#/?%~éЖ٣") + ["", "", ""]
    rng = random.Random(11)
    written = 0
    for _ in range(5000):
        label = rng.choice(["p", "a.b", "x-1", "_q"])
        local = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 6)))
        curie = shorten(IRI("https://x.org/v/" + local), {label: "https://x.org/v/"})
        one_name = _TOKEN_RE.findall(f"{label}:{local}") == [f"{label}:{local}"]
        if curie is None:
            assert not one_name, local
        else:
            assert curie == f"{label}:{local}" and one_name and _kind(curie) == "name", local
            written += 1
    assert 250 < written < 4750  # both branches run often


def test_curie_table_falls_back_to_the_bracketed_iri():
    table = CurieTable({"a": "https://x.org/"})
    assert table[IRI("https://x.org/Top")] == "a:Top"
    assert table[IRI("https://x.org/has/slash")] == "<https://x.org/has/slash>"


def _mentioned_iris(onto: Ontology) -> list[str]:
    """Every IRI text a render of onto looks up, in axiom order, repeats included."""
    texts = list(onto.entities)
    for axiom in onto.axioms:
        texts += [e.iri.value for e in axiom_mentions(axiom)]
        if isinstance(axiom, AnnotationAssertion):
            texts.append(axiom.subject.value)
        elif isinstance(axiom, Import):
            texts.append(axiom.iri.value)
    return texts


def _table_cases():
    pizza = pizza_env().ontology
    prefixes = prefix_map(pizza)
    base = pizza.prefixes["piz"]
    # a longer base inside the pizza namespace wins where its local name is
    # clean ("Pizza" + "Topping"), and loses where it is empty or rejected;
    # a bare scheme base covers everything with a rejected local name
    prefixes.update({"pz": base + "Pizza", "any": "https://"})
    extra = [base + "Pizza", base + "PizzaTopping", base + "Pizza1", base + "Pizza/x",
             base + "1st", base + "a%20b", "https://nowhere.org/x#A", "urn:isbn:0451450523"]
    yield prefixes, _mentioned_iris(pizza) + extra
    for seed in range(40):
        onto = random_full_ontology(random.Random(seed))
        prefixes = prefix_map(onto)
        rt = onto.prefixes["rt"]
        prefixes["deep"] = rt + "C"
        extra = [rt + "C", rt + "Cx", rt + "-x", "https://example.org/C1"]
        yield prefixes, _mentioned_iris(onto) + extra


def test_curie_table_gives_what_the_rule_gives():
    for prefixes, texts in _table_cases():
        table = CurieTable(prefixes)
        for text in texts:
            assert table[text] == (shorten(text, prefixes) or f"<{text}>"), text
            assert table[IRI(text)] is table[text], text  # an IRI is its text's key
        assert set(table) == set(texts)
        assert table.prefixes is prefixes


# --- Manchester-style golden text ---------------------------------------------


def test_omn_class_frame_layout():
    onto = menu()
    pizza = onto.declare(Kind.CLASS, IRI(BASE + "Pizza"))
    veg = onto.declare(Kind.CLASS, IRI(BASE + "VegetarianPizza"))
    meat = onto.declare(Kind.CLASS, IRI(BASE + "MeatyPizza"))
    onto.add_axiom(AnnotationAssertion(veg.iri, RDFS_LABEL, AnnotationValue("Vegetariana", "pt")))
    onto.add_axiom(SubClassOf(Named(veg), Named(pizza)))
    onto.add_axiom(SubClassOf(Named(veg), Some(onto.declare(Kind.OBJECT_PROPERTY, IRI(BASE + "hasBase")), THING)))
    onto.add_axiom(DisjointClasses((veg, meat)))

    text = render_omn(onto)
    frame = (
        "Class: m:VegetarianPizza\n"
        "    Annotations: \n"
        '        rdfs:label "Vegetariana"@pt\n'
        "    SubClassOf: \n"
        "        m:Pizza,\n"
        "        m:hasBase some owl:Thing\n"
        "    DisjointWith: \n"
        "        m:MeatyPizza"
    )
    assert frame in text
    # section keywords always carry the trailing space
    assert "    SubClassOf: \n" in text
    assert "    Annotations: \n" in text


def test_omn_entries_use_trailing_commas_except_last():
    onto = menu()
    a = onto.declare(Kind.CLASS, IRI(BASE + "A"))
    for name in ("B", "C", "D"):
        sup = onto.declare(Kind.CLASS, IRI(BASE + name))
        onto.add_axiom(SubClassOf(Named(a), Named(sup)))
    text = render_omn(onto)
    assert "    SubClassOf: \n        m:B,\n        m:C,\n        m:D\n" in text + "\n"


def test_omn_header_prefixes_are_sorted_and_imports_follow():
    onto = menu()
    onto.prefixes["zz"] = "https://example.org/zz#"
    onto.add_axiom(Import(IRI("https://example.org/dep")))
    text = render_omn(onto)
    lines = text.splitlines()
    assert lines[0] == "Prefix: m: <https://example.org/menu#>"
    assert lines[1] == f"Prefix: owl: <{OWL_NS}>"
    assert lines[2].startswith("Prefix: rdfs: ")
    assert lines[3] == "Prefix: zz: <https://example.org/zz#>"
    assert lines[4] == ""
    assert lines[5] == "Ontology: <https://example.org/menu>"
    assert lines[6] == "Import: <https://example.org/dep>"


def test_omn_frames_follow_declaration_order():
    onto = menu()
    for name in ("Zebra", "Apple", "Mango"):
        onto.declare(Kind.CLASS, IRI(BASE + name))
    text = render_omn(onto)
    assert text.index("Class: m:Zebra") < text.index("Class: m:Apple") < text.index("Class: m:Mango")


def test_omn_disjointness_projected_into_each_frame():
    onto = menu()
    a = onto.declare(Kind.CLASS, IRI(BASE + "A"))
    b = onto.declare(Kind.CLASS, IRI(BASE + "B"))
    c = onto.declare(Kind.CLASS, IRI(BASE + "C"))
    onto.add_axiom(DisjointClasses((a, b, c)))
    text = render_omn(onto)
    assert "Class: m:A\n    DisjointWith: \n        m:B,\n        m:C" in text
    assert "Class: m:B\n    DisjointWith: \n        m:A,\n        m:C" in text
    assert "Class: m:C\n    DisjointWith: \n        m:A,\n        m:B" in text


def test_omn_property_frame_sections():
    onto = menu()
    onto.declare(Kind.CLASS, IRI(BASE + "Pizza"))
    top = onto.declare(Kind.OBJECT_PROPERTY, IRI(BASE + "hasIngredient"))
    p = onto.declare(Kind.OBJECT_PROPERTY, IRI(BASE + "hasTopping"))
    onto.add_axiom(FunctionalObjectProperty(p))
    onto.add_axiom(TransitiveObjectProperty(p))
    onto.add_axiom(SubObjectPropertyOf(p, top))
    onto.add_axiom(ObjectPropertyDomain(p, Named(onto.entities[BASE + "Pizza"])))
    onto.add_axiom(ObjectPropertyRange(p, THING))
    text = render_omn(onto)
    frame = (
        "ObjectProperty: m:hasTopping\n"
        "    Characteristics: \n"
        "        Functional,\n"
        "        Transitive\n"
        "    SubPropertyOf: \n"
        "        m:hasIngredient\n"
        "    Domain: \n"
        "        m:Pizza\n"
        "    Range: \n"
        "        owl:Thing"
    )
    assert frame in text


NOTES_OFN = """\
Prefix(ex:=<https://example.org/notes#>)
Ontology(<https://example.org/notes>
Declaration(AnnotationProperty(ex:note))
Declaration(Class(ex:A))
AnnotationAssertion(rdfs:comment ex:note "a remark on a class"@en)
AnnotationAssertion(rdfs:label ex:note "note")
AnnotationAssertion(ex:note ex:A "see the menu")
)
"""


def test_omn_annotation_property_frame():
    assert render_omn(parse_functional(NOTES_OFN, "notes.ofn")) == (
        "Prefix: ex: <https://example.org/notes#>\n"
        "Prefix: owl: <http://www.w3.org/2002/07/owl#>\n"
        "Prefix: rdfs: <http://www.w3.org/2000/01/rdf-schema#>\n"
        "\n"
        "Ontology: <https://example.org/notes>\n"
        "\n"
        "AnnotationProperty: ex:note\n"
        "    Annotations: \n"
        '        rdfs:comment "a remark on a class"@en,\n'
        '        rdfs:label "note"\n'
        "\n"
        "Class: ex:A\n"
        "    Annotations: \n"
        '        ex:note "see the menu"\n'
    )


def test_omn_frames_cover_every_kind():
    assert set(_FRAMES) == set(KINDS)


def test_omn_annotations_sort_within_the_section():
    onto = menu()
    a = onto.declare(Kind.CLASS, IRI(BASE + "A"))
    onto.add_axiom(AnnotationAssertion(a.iri, RDFS_LABEL, AnnotationValue("zeta", "pt")))
    onto.add_axiom(AnnotationAssertion(a.iri, RDFS_COMMENT, AnnotationValue("a note", "en")))
    onto.add_axiom(AnnotationAssertion(a.iri, RDFS_LABEL, AnnotationValue("alpha", "en")))
    text = render_omn(onto)
    section = (
        "    Annotations: \n"
        '        rdfs:comment "a note"@en,\n'
        '        rdfs:label "alpha"@en,\n'
        '        rdfs:label "zeta"@pt'
    )
    assert section in text


def test_omn_nests_complex_fillers_in_parens():
    onto = menu()
    a = onto.declare(Kind.CLASS, IRI(BASE + "A"))
    b = onto.declare(Kind.CLASS, IRI(BASE + "B"))
    p = onto.declare(Kind.OBJECT_PROPERTY, IRI(BASE + "p"))
    onto.add_axiom(
        SubClassOf(Named(a), Some(p, And((Named(b), Not(Or((Named(a), NOTHING)))))))
    )
    text = render_omn(onto)
    assert "m:p some (m:B and (not (m:A or owl:Nothing)))" in text


def test_omn_writes_the_full_iri_no_prefix_covers():
    onto = menu()
    a = onto.declare(Kind.CLASS, IRI(BASE + "A"))
    stranger = onto.declare(Kind.CLASS, IRI("https://elsewhere.org/x#B"))
    onto.add_axiom(SubClassOf(Named(a), Named(stranger)))
    text = render_omn(onto)
    assert "Class: m:A\n    SubClassOf: \n        <https://elsewhere.org/x#B>\n" in text
    assert "Class: <https://elsewhere.org/x#B>\n" in text


def test_omn_writes_the_full_iri_through_a_shared_table():
    onto = menu()
    a = onto.declare(Kind.CLASS, IRI(BASE + "A"))
    stranger = onto.declare(Kind.CLASS, IRI("https://elsewhere.org/x#B"))
    onto.add_axiom(SubClassOf(Named(a), Named(stranger)))
    curies = CurieTable(prefix_map(onto))
    assert "SubClassOf(m:A <https://elsewhere.org/x#B>)" in render_functional(onto, curies)
    assert curies["https://elsewhere.org/x#B"] == "<https://elsewhere.org/x#B>"
    assert render_omn(onto, curies) == render_omn(onto)
    assert "        <https://elsewhere.org/x#B>\n" in render_omn(onto, curies)


def test_one_shared_table_renders_the_same_bytes_as_a_table_each():
    ontologies = [pizza_env().ontology]
    ontologies += [random_full_ontology(random.Random(seed)) for seed in range(30)]
    for onto in ontologies:
        curies = CurieTable(prefix_map(onto))
        assert render_omn(onto, curies) == render_omn(onto)
        assert render_functional(onto, curies) == render_functional(onto)


def _disjoint_with_by_the_list_scan(onto: Ontology) -> dict[str, list[str]]:
    """The reference rule: each member's others, appended unless already listed."""
    buckets: dict = {}
    for axiom in onto.axioms:
        if isinstance(axiom, DisjointClasses):
            for member in axiom.operands:
                bucket = buckets.setdefault(member, [])
                for other in axiom.operands:
                    if other != member and other not in bucket:
                        bucket.append(other)

    curies = CurieTable(onto.prefixes)
    return {
        curies[member.iri]: [curies[e.iri] for e in bucket] for member, bucket in buckets.items()
    }


def _disjoint_with_sections(text: str) -> dict[str, list[str]]:
    """Each class frame's DisjointWith entries, by the frame's class name."""
    sections = {}
    for block in text.split("\n\n"):
        head = block.partition("\n")[0]
        if head.startswith("Class: ") and "    DisjointWith: \n" in block:
            entries = block.split("    DisjointWith: \n")[1].splitlines()
            sections[head[len("Class: "):]] = [e.strip().rstrip(",") for e in entries]
    return sections


def test_omn_disjoint_with_order_follows_the_list_scan_rule():
    for seed in range(200):
        rng = random.Random(seed)
        onto = menu()
        classes = [onto.declare(Kind.CLASS, IRI(f"{BASE}C{i}")) for i in range(rng.randint(2, 9))]
        # several axioms over a few classes, so members share axioms
        for _ in range(rng.randint(1, 7)):
            members = rng.sample(classes, k=rng.randint(2, min(5, len(classes))))
            onto.add_axiom(DisjointClasses(tuple(members)))
        assert _disjoint_with_sections(render_omn(onto)) == _disjoint_with_by_the_list_scan(onto)


def test_omn_renders_a_400_member_disjointness_quickly():
    onto = menu()
    classes = [onto.declare(Kind.CLASS, IRI(f"{BASE}C{i}")) for i in range(400)]
    onto.add_axiom(DisjointClasses(tuple(classes)))
    start = time.perf_counter()
    text = render_omn(onto)
    elapsed = time.perf_counter() - start
    sections = _disjoint_with_sections(text)
    assert sections["m:C0"] == [f"m:C{i}" for i in range(1, 400)]
    assert sections["m:C399"] == [f"m:C{i}" for i in range(399)]
    assert elapsed < 0.5, f"render_omn took {elapsed:.2f} s"


def test_omn_escapes_literal_text():
    onto = menu()
    a = onto.declare(Kind.CLASS, IRI(BASE + "A"))
    onto.add_axiom(
        AnnotationAssertion(a.iri, RDFS_LABEL, AnnotationValue('say "hi"\nnow\t\\done', "en"))
    )
    text = render_omn(onto)
    assert '        rdfs:label "say \\"hi\\"\\nnow\\t\\\\done"@en' in text


def test_omn_is_deterministic():
    for seed in (5, 6, 7):
        onto = random_full_ontology(random.Random(seed))
        assert render_omn(onto) == render_omn(onto)


# "seed sha256" per line: the digest of render_omn for random_full_ontology at
# that seed. A digest that changes is a change to the Manchester-style output.
OMN_DIGESTS = Path(__file__).parent / "data" / "random_full_omn.sha256"


def test_omn_bytes_of_random_ontologies_are_pinned():
    pinned = dict(line.split() for line in OMN_DIGESTS.read_text().splitlines())
    assert len(pinned) == 100

    def digest(seed: str) -> str:
        text = render_omn(random_full_ontology(random.Random(int(seed))))
        return hashlib.sha256(text.encode()).hexdigest()

    assert [seed for seed, want in pinned.items() if digest(seed) != want] == []


# --- functional-style ----------------------------------------------------------


def test_functional_layout_and_axiom_order():
    onto = menu()
    a = onto.declare(Kind.CLASS, IRI(BASE + "A"))
    b = onto.declare(Kind.CLASS, IRI(BASE + "B"))
    onto.add_axiom(SubClassOf(Named(a), Named(b)))
    text = render_functional(onto)
    lines = text.splitlines()
    assert lines[0] == "Prefix(m:=<https://example.org/menu#>)"
    assert lines[1].startswith("Prefix(owl:=")
    assert lines[2].startswith("Prefix(rdfs:=")
    assert lines[3] == "Ontology(<https://example.org/menu>"
    assert lines[4] == "Declaration(Class(m:A))"
    assert lines[5] == "Declaration(Class(m:B))"
    assert lines[6] == "SubClassOf(m:A m:B)"
    assert lines[7] == ")"
    assert text.endswith(")\n")


def test_functional_falls_back_to_full_iris():
    onto = menu()
    stranger = onto.declare(Kind.CLASS, IRI("https://elsewhere.org/x#B"))
    a = onto.declare(Kind.CLASS, IRI(BASE + "A"))
    onto.add_axiom(SubClassOf(Named(a), Named(stranger)))
    text = render_functional(onto)
    assert "Declaration(Class(<https://elsewhere.org/x#B>))" in text
    assert "SubClassOf(m:A <https://elsewhere.org/x#B>)" in text


def test_functional_covers_every_construct():
    onto = menu()
    a = onto.declare(Kind.CLASS, IRI(BASE + "A"))
    b = onto.declare(Kind.CLASS, IRI(BASE + "B"))
    p = onto.declare(Kind.OBJECT_PROPERTY, IRI(BASE + "p"))
    q = onto.declare(Kind.OBJECT_PROPERTY, IRI(BASE + "q"))
    onto.add_axiom(Import(IRI("https://example.org/dep")))
    onto.add_axiom(SubClassOf(And((Named(a), Named(b))), Or((THING, NOTHING))))
    onto.add_axiom(EquivalentClasses((Named(a), Not(Some(p, Named(b))))))
    onto.add_axiom(SubClassOf(Named(a), Only(p, Named(b))))
    onto.add_axiom(DisjointClasses((a, b)))
    onto.add_axiom(SubObjectPropertyOf(p, q))
    onto.add_axiom(ObjectPropertyDomain(p, Named(a)))
    onto.add_axiom(ObjectPropertyRange(p, Named(b)))
    onto.add_axiom(FunctionalObjectProperty(p))
    onto.add_axiom(TransitiveObjectProperty(q))
    onto.add_axiom(AnnotationAssertion(a.iri, RDFS_LABEL, AnnotationValue("a label")))
    text = render_functional(onto)
    assert "Import(<https://example.org/dep>)" in text
    assert "SubClassOf(ObjectIntersectionOf(m:A m:B) ObjectUnionOf(owl:Thing owl:Nothing))" in text
    assert "EquivalentClasses(m:A ObjectComplementOf(ObjectSomeValuesFrom(m:p m:B)))" in text
    assert "SubClassOf(m:A ObjectAllValuesFrom(m:p m:B))" in text
    assert "DisjointClasses(m:A m:B)" in text
    assert "SubObjectPropertyOf(m:p m:q)" in text
    assert "ObjectPropertyDomain(m:p m:A)" in text
    assert "ObjectPropertyRange(m:p m:B)" in text
    assert "FunctionalObjectProperty(m:p)" in text
    assert "TransitiveObjectProperty(m:q)" in text
    assert 'AnnotationAssertion(rdfs:label m:A "a label")' in text


def test_functional_literals_keep_lang_and_escapes():
    onto = menu()
    a = onto.declare(Kind.CLASS, IRI(BASE + "A"))
    onto.add_axiom(AnnotationAssertion(a.iri, RDFS_LABEL, AnnotationValue('x"y\\z\n\t', "en-gb")))
    text = render_functional(onto)
    assert 'AnnotationAssertion(rdfs:label m:A "x\\"y\\\\z\\n\\t"@en-gb)' in text


def test_functional_render_parse_render_is_byte_stable():
    for seed in range(30):
        onto = random_full_ontology(random.Random(seed))
        first = render_functional(onto)
        back = parse_functional(first)
        assert render_functional(back) == first
        assert set(back.axioms) == set(onto.axioms)


def test_render_omn_refuses_a_foreign_class_expression():
    # `load` takes a document's axioms as they are, so a foreign object can
    # reach the writer only through it
    onto = Ontology(IRI(BASE))
    a = Entity(Kind.CLASS, IRI(BASE + "A"))
    onto.load([Declaration(a), SubClassOf(Named(a), object())], [a])
    with pytest.raises(TypeError, match="not a class expression"):
        render_omn(onto)
