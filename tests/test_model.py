"""Tests for the axiom model and the ontology store."""

import copy
import dataclasses
import pickle
import random

import pytest

from ontoforge import model
from ontoforge.model import (
    And,
    AnnotationAssertion,
    AnnotationValue,
    Arrival,
    Declaration,
    DisjointClasses,
    DuplicateEntityKind,
    Entity,
    EquivalentClasses,
    FunctionalObjectProperty,
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
    OWL_NOTHING,
    OWL_NS,
    OWL_THING,
    Or,
    RDFS_LABEL,
    RDFS_NS,
    Some,
    SubClassOf,
    THING,
    TransitiveObjectProperty,
    UndeclaredEntity,
    axiom_mentions,
)
from support import random_full_ontology

NS = "http://example.com/test#"


def make_ontology() -> Ontology:
    return Ontology(IRI("http://example.com/test"))


def cls(onto: Ontology, name: str) -> Entity:
    return onto.declare(Kind.CLASS, IRI(NS + name))


def prop(onto: Ontology, name: str) -> Entity:
    return onto.declare(Kind.OBJECT_PROPERTY, IRI(NS + name))


# --- IRIs -------------------------------------------------------------------


def test_iri_accepts_absolute_forms():
    for text in (
        "http://example.com/a",
        "https://example.com/onto#Pizza",
        "urn:uuid:1234",
        "file:///tmp/x.ont",
        "tag+v1.0:thing",
    ):
        assert IRI(text).value == text


def test_iri_rejects_relative_and_malformed():
    for text in ("", "noscheme", "/rooted/path", "1http://x.com/a", "http://a b", " http://x.com/a", "http://x.com/a "):
        with pytest.raises(ValueError):
            IRI(text)


def test_iri_fragment_prefers_hash_then_slash_then_scheme():
    assert IRI("http://example.com/onto#Pizza").fragment() == "Pizza"
    assert IRI("http://example.com/onto/Pizza").fragment() == "Pizza"
    assert IRI("urn:isbn:123").fragment() == "isbn:123"
    # a hash wins even when a slash follows in the fragment-less prefix
    assert IRI("http://example.com/a/b#c").fragment() == "c"


def test_iri_equality_is_structural():
    assert IRI("http://x.com/a") == IRI("http://x.com/a")
    assert len({IRI("http://x.com/a"), IRI("http://x.com/a")}) == 1


# --- kinds ------------------------------------------------------------------


def test_a_kind_is_its_owl_keyword():
    assert KINDS == ("Class", "ObjectProperty", "AnnotationProperty")
    iri = IRI(NS + "A")
    assert Entity("Class", iri) == Entity(Kind.CLASS, iri)
    assert Named(Entity("Class", iri)) == Named(Entity(Kind.CLASS, iri))
    with pytest.raises(ValueError, match="^named class expression needs a class entity, "
                                         "got ObjectProperty$"):
        Named(Entity("ObjectProperty", iri))


# --- class expressions ------------------------------------------------------


def test_named_requires_class_entity():
    p = Entity(Kind.OBJECT_PROPERTY, IRI(NS + "hasPart"))
    with pytest.raises(ValueError):
        Named(p)


def test_and_or_require_two_operands():
    a = Named(Entity(Kind.CLASS, IRI(NS + "A")))
    for ctor in (And, Or):
        with pytest.raises(ValueError):
            ctor((a,))
        with pytest.raises(ValueError):
            ctor(())


def test_restrictions_require_object_property():
    a = Named(Entity(Kind.CLASS, IRI(NS + "A")))
    with pytest.raises(ValueError):
        Some(Entity(Kind.CLASS, IRI(NS + "NotAProp")), a)


def test_expressions_are_hashable_values():
    p = Entity(Kind.OBJECT_PROPERTY, IRI(NS + "hasPart"))
    a = Named(Entity(Kind.CLASS, IRI(NS + "A")))
    b = Named(Entity(Kind.CLASS, IRI(NS + "B")))
    one = And((a, Some(p, b)))
    two = And((a, Some(p, b)))
    assert one == two
    assert len({one, two}) == 1
    assert And((a, b)) != And((b, a))  # operand order matters structurally


def test_expression_signature_walks_the_tree():
    p = Entity(Kind.OBJECT_PROPERTY, IRI(NS + "hasPart"))
    a = Entity(Kind.CLASS, IRI(NS + "A"))
    b = Entity(Kind.CLASS, IRI(NS + "B"))
    ce = And((Named(a), Not(Some(p, Or((Named(b), THING))))))
    assert set(axiom_mentions(SubClassOf(ce, THING))) == {a, b, p, OWL_THING}
    assert set(axiom_mentions(SubClassOf(THING, NOTHING))) == {OWL_THING, OWL_NOTHING}


# --- annotations ------------------------------------------------------------


def test_annotation_value_lowercases_lang():
    assert AnnotationValue("Pizza", "EN").lang == "en"
    assert AnnotationValue("Pizza", "pt-BR").lang == "pt-br"
    assert AnnotationValue("Pizza").lang is None


def test_annotation_value_rejects_empty_lang():
    with pytest.raises(ValueError):
        AnnotationValue("Pizza", "")


def test_annotation_assertion_needs_annotation_property():
    p = Entity(Kind.OBJECT_PROPERTY, IRI(NS + "hasPart"))
    with pytest.raises(ValueError):
        AnnotationAssertion(IRI(NS + "A"), p, AnnotationValue("x"))


# --- axiom constructors -----------------------------------------------------


def test_disjoint_classes_rejects_duplicates_and_non_classes():
    a = Entity(Kind.CLASS, IRI(NS + "A"))
    b = Entity(Kind.CLASS, IRI(NS + "B"))
    p = Entity(Kind.OBJECT_PROPERTY, IRI(NS + "hasPart"))
    with pytest.raises(ValueError):
        DisjointClasses((a,))
    with pytest.raises(ValueError):
        DisjointClasses((a, a))
    with pytest.raises(ValueError):
        DisjointClasses((a, p))
    assert DisjointClasses((a, b)).operands == (a, b)


def test_equivalent_classes_needs_two_operands():
    a = Named(Entity(Kind.CLASS, IRI(NS + "A")))
    with pytest.raises(ValueError):
        EquivalentClasses((a,))


def test_the_operand_and_property_rules_hold_for_every_term_that_shares_them():
    a, b = Named(Entity(Kind.CLASS, IRI(NS + "A"))), Named(Entity(Kind.CLASS, IRI(NS + "B")))
    for ctor in (And, Or, EquivalentClasses):
        assert ctor([a, b]).operands == (a, b)  # any iterable, held as a tuple
        with pytest.raises(ValueError) as err:
            ctor([a])
        assert str(err.value) == "intersection and union need at least two operands"
    not_a_property = Entity(Kind.CLASS, IRI(NS + "C"))
    for make in (
        lambda p: Some(p, a),
        lambda p: Only(p, a),
        lambda p: ObjectPropertyDomain(p, a),
        lambda p: ObjectPropertyRange(p, a),
        FunctionalObjectProperty,
        TransitiveObjectProperty,
    ):
        with pytest.raises(ValueError) as err:
            make(not_a_property)
        assert str(err.value) == "restriction needs an object property, got Class"
        term = make(Entity(Kind.OBJECT_PROPERTY, IRI(NS + "p")))
        assert not hasattr(term, "__dict__")


def test_axiom_mentions_refuses_a_foreign_object():
    with pytest.raises(TypeError, match="not an axiom"):
        axiom_mentions(object())
    with pytest.raises(TypeError, match="not a class expression"):
        axiom_mentions(SubClassOf(object(), THING))


def test_axiom_signature_covers_annotation_property_only():
    # The annotation subject is an IRI, not an entity, so only the property
    # shows up in the signature.
    ax = AnnotationAssertion(IRI(NS + "A"), RDFS_LABEL, AnnotationValue("a", "en"))
    assert set(axiom_mentions(ax)) == {RDFS_LABEL}


# --- the ontology store -----------------------------------------------------


def test_declare_is_idempotent_per_kind():
    onto = make_ontology()
    first = cls(onto, "A")
    second = cls(onto, "A")
    assert first is second
    assert onto.axioms.count(Declaration(first)) == 1


def test_declare_same_iri_other_kind_fails():
    onto = make_ontology()
    cls(onto, "A")
    with pytest.raises(DuplicateEntityKind):
        onto.declare(Kind.OBJECT_PROPERTY, IRI(NS + "A"))


def test_add_axiom_rejects_undeclared_mentions():
    onto = make_ontology()
    a = cls(onto, "A")
    ghost = Named(Entity(Kind.CLASS, IRI(NS + "Ghost")))
    with pytest.raises(UndeclaredEntity):
        onto.add_axiom(SubClassOf(Named(a), ghost))


def test_add_axiom_rejects_kind_mismatch():
    onto = make_ontology()
    a = cls(onto, "A")
    cls(onto, "B")
    bad = Entity(Kind.OBJECT_PROPERTY, IRI(NS + "B"))
    with pytest.raises(DuplicateEntityKind):
        onto.add_axiom(SubClassOf(Named(a), Some(bad, THING)))


def test_add_axiom_reports_structural_duplicates():
    onto = make_ontology()
    a, b = cls(onto, "A"), cls(onto, "B")
    ax = SubClassOf(Named(a), Named(b))
    assert onto.add_axiom(ax) is True
    assert onto.add_axiom(SubClassOf(Named(a), Named(b))) is False
    assert onto.axioms.count(ax) == 1
    assert ax in onto


def test_refused_axioms_leave_the_store_unchanged():
    onto = make_ontology()
    a, b = cls(onto, "A"), cls(onto, "B")
    ghost = Entity(Kind.CLASS, IRI(NS + "Ghost"))
    refused = [
        (SubClassOf(Named(a), Named(ghost)), UndeclaredEntity),
        (SubClassOf(Named(a), Some(Entity(Kind.OBJECT_PROPERTY, b.iri), THING)), DuplicateEntityKind),
        (Declaration(Entity(Kind.OBJECT_PROPERTY, a.iri)), DuplicateEntityKind),
    ]
    before = list(onto.axioms)
    for axiom, error in refused:
        with pytest.raises(error):
            onto.add_axiom(axiom)
        assert axiom not in onto
        assert onto.axioms == before
    cls(onto, "Ghost")
    assert onto.add_axiom(refused[0][0]) is True


def test_a_new_axiom_is_hashed_once():
    hashes = []

    class CountedDeclaration(Declaration):
        def __hash__(self):
            hashes.append(self)
            return super().__hash__()

    onto = make_ontology()
    assert onto.add_axiom(CountedDeclaration(Entity(Kind.CLASS, IRI(NS + "A")))) is True
    assert len(hashes) == 1


def test_builtin_annotation_properties_need_no_declaration():
    onto = make_ontology()
    cls(onto, "A")
    assert onto.add_axiom(AnnotationAssertion(IRI(NS + "A"), RDFS_LABEL, AnnotationValue("a", "en")))


def test_imported_entities_are_mentionable_but_not_owned():
    onto = make_ontology()
    a = cls(onto, "A")
    ext = Entity(Kind.CLASS, IRI("http://other.org/x#B"))
    onto.admit(ext, Arrival.IMPORT)
    assert onto.add_axiom(SubClassOf(Named(a), Named(ext)))
    assert ext.iri.value not in onto.entities
    with pytest.raises(DuplicateEntityKind):
        onto.admit(Entity(Kind.OBJECT_PROPERTY, ext.iri), Arrival.IMPORT)


def test_axiom_mentions_follow_the_text_with_repeats():
    onto = make_ontology()
    a, b, p = cls(onto, "A"), cls(onto, "B"), prop(onto, "p")
    ax = SubClassOf(Named(b), And((Some(p, Named(a)), Not(Named(b)), THING)))
    assert axiom_mentions(ax) == [b, p, a, b, OWL_THING]
    assert set(axiom_mentions(ax)) == {a, b, p, OWL_THING}


def test_load_axiom_imports_unknown_mentions_in_text_order():
    onto = make_ontology()
    a = Entity(Kind.CLASS, IRI(NS + "A"))
    onto.admit(a, Arrival.REGISTRATION)
    z, b = (Entity(Kind.CLASS, IRI(f"http://other.org/x#{n}")) for n in "ZB")
    ax = SubClassOf(Named(z), And((Named(a), Named(b))))
    label = AnnotationAssertion(z.iri, RDFS_LABEL, AnnotationValue("z"))
    assert onto.load_axiom(ax)
    assert not onto.load_axiom(ax)
    assert onto.load_axiom(label)
    assert list(onto.imported) == [z.iri.value, b.iri.value]
    assert list(onto.entities) == [a.iri.value]
    assert onto.axioms == [ax, label]


def test_axioms_keep_insertion_order():
    onto = make_ontology()
    rng = random.Random(7)
    names = [f"C{i}" for i in range(30)]
    rng.shuffle(names)
    for name in names:
        cls(onto, name)
    declared = [ax.entity.iri.fragment() for ax in onto.axioms if isinstance(ax, Declaration)]
    assert declared == names


def test_rollback_restores_the_store_to_its_mark():
    onto = make_ontology()
    a, b = cls(onto, "A"), cls(onto, "B")
    kept = SubClassOf(Named(a), Named(b))
    onto.add_axiom(kept)
    ext = onto.admit(Entity(Kind.CLASS, IRI("http://other.org/x#E")), Arrival.IMPORT)
    before = (list(onto.axioms), dict(onto.entities), dict(onto.imported))
    mark = onto.mark()

    c = cls(onto, "C")
    onto.admit(Entity(Kind.CLASS, IRI("http://other.org/x#F")), Arrival.IMPORT)
    added = [
        SubClassOf(Named(c), Named(ext)),
        AnnotationAssertion(c.iri, RDFS_LABEL, AnnotationValue("c", "en")),
        AnnotationAssertion(a.iri, RDFS_LABEL, AnnotationValue("a", "en")),
    ]
    assert onto.add_axioms(added + [kept]) == 3  # kept is already present
    onto.rollback(mark)

    assert (onto.axioms, onto.entities, onto.imported) == before
    assert kept in onto
    assert all(ax not in onto for ax in added + [Declaration(c)])
    assert onto.mark() == mark
    with pytest.raises(UndeclaredEntity):
        onto.add_axiom(SubClassOf(Named(c), Named(a)))


def test_nested_marks_unwind_innermost_first():
    onto = make_ontology()
    a = cls(onto, "A")
    outer = onto.mark()
    b = cls(onto, "B")
    onto.add_axiom(SubClassOf(Named(b), Named(a)))
    middle = onto.mark()
    middle_axioms = list(onto.axioms)
    c = cls(onto, "C")
    onto.add_axiom(SubClassOf(Named(c), Named(b)))
    onto.rollback(middle)
    assert onto.axioms == middle_axioms
    assert c.iri.value not in onto.entities and b.iri.value in onto.entities
    onto.rollback(outer)
    assert onto.axioms == [Declaration(a)]
    assert list(onto.entities) == [a.iri.value]


def test_add_axioms_counts_new_ones():
    onto = make_ontology()
    a, b = cls(onto, "A"), cls(onto, "B")
    ax = SubClassOf(Named(a), Named(b))
    assert onto.add_axioms([ax, ax, SubClassOf(Named(b), Named(a))]) == 2


def _counting_admit(onto: Ontology, monkeypatch) -> list:
    """Record every (entity, arrival) that reaches onto's `admit` from here on."""
    calls = []
    admit = onto.admit

    def counted(entity, how):
        calls.append((entity, how))
        return admit(entity, how)

    monkeypatch.setattr(onto, "admit", counted)
    return calls


def test_a_stated_mention_of_a_filed_entity_is_not_admitted_again(monkeypatch):
    onto = make_ontology()
    a, b, p = cls(onto, "A"), cls(onto, "B"), prop(onto, "p")
    calls = _counting_admit(onto, monkeypatch)
    assert onto.add_axiom(SubClassOf(Named(a), And((Some(p, Named(b)), THING))))
    assert calls == []
    fresh = Entity(Kind.CLASS, IRI(NS + "A"))
    assert onto.add_axiom(SubClassOf(Named(fresh), Named(b)))
    assert calls == [(fresh, Arrival.MENTION)]
    assert onto.lookup(fresh.iri) is a


def test_a_fresh_entity_equal_to_a_filed_one_is_accepted_and_the_filed_one_kept():
    onto = make_ontology()
    a, b = cls(onto, "A"), cls(onto, "B")
    ext = Entity(Kind.CLASS, IRI("http://other.org/x#E"))
    assert onto.load_axiom(SubClassOf(Named(ext), THING))
    twins = [Entity(e.kind, IRI(e.iri.value)) for e in (a, b, ext, OWL_THING)]
    assert all(t == e and t is not e for t, e in zip(twins, (a, b, ext, OWL_THING)))
    assert onto.add_axiom(SubClassOf(Named(twins[0]), And(tuple(map(Named, twins[1:])))))
    assert onto.load_axiom(SubClassOf(Named(twins[2]), Named(twins[0])))
    assert onto.lookup(a.iri) is a and onto.lookup(b.iri) is b
    assert onto.lookup(ext.iri) is ext and onto.lookup(OWL_THING.iri) is OWL_THING
    assert list(onto.entities) == [a.iri, b.iri] and list(onto.imported) == [ext.iri]


def test_load_still_refuses_a_declared_kind_that_a_mention_contradicts(monkeypatch):
    onto = make_ontology()
    declared = Entity(Kind.CLASS, IRI(NS + "X"))
    used = Entity(Kind.OBJECT_PROPERTY, declared.iri)
    axioms = [Declaration(declared), SubClassOf(Some(used, THING), THING)]
    calls = _counting_admit(onto, monkeypatch)
    with pytest.raises(DuplicateEntityKind, match="declared as Class but used as ObjectProperty"):
        onto.load(axioms, [declared, used, OWL_THING])
    # the declaration was registered, and only the mention that is not it was admitted
    assert calls == [(declared, Arrival.REGISTRATION), (used, Arrival.LOAD)]
    assert onto.axioms == []


def _rebuilt(value):
    """value rebuilt field by field into new objects, down to its texts."""
    if isinstance(value, str):
        copy_ = "".join(list(value))
        return IRI(copy_) if isinstance(value, IRI) else copy_
    if isinstance(value, tuple):
        return tuple(_rebuilt(v) for v in value)
    if value is None:
        return None
    names = [f.name for f in dataclasses.fields(value)]
    return type(value)(*(_rebuilt(getattr(value, n)) for n in names))


def test_rebuilt_terms_compare_and_hash_equal():
    for seed in range(20):
        for axiom in random_full_ontology(random.Random(seed)).axioms:
            twin = _rebuilt(axiom)
            assert twin is not axiom
            assert twin == axiom and hash(twin) == hash(axiom), (seed, axiom)


def test_hashing_a_term_calls_no_entity_hash(monkeypatch):
    calls = []
    entity_hash = Entity.__hash__

    def counted(self):
        calls.append(self)
        return entity_hash(self)

    a, b = Entity(Kind.CLASS, IRI(NS + "A")), Entity(Kind.CLASS, IRI(NS + "B"))
    r = Entity(Kind.OBJECT_PROPERTY, IRI(NS + "r"))
    axiom = SubClassOf(Named(a), Some(r, Named(b)))
    monkeypatch.setattr(Entity, "__hash__", counted)
    assert hash(a) == hash(a.iri) and len(calls) == 1
    calls.clear()
    assert hash(axiom) == hash(SubClassOf(Named(a), Some(r, Named(b))))
    assert calls == []


def test_add_prefix_keeps_a_registered_base_and_numbers_taken_labels():
    onto = Ontology(IRI("https://example.org/main#"))
    onto.add_prefix("https://example.org/main#")
    assert onto.prefixes == {"main": "https://example.org/main#"}
    onto.add_prefix("https://example.org/main#", "other")  # already registered
    onto.add_prefix("https://example.org/other/main/", "main")
    onto.add_prefix("https://example.org/third/main#")
    onto.add_prefix("urn:x-2:", "x")
    onto.add_prefix("urn:7")
    assert onto.prefixes == {
        "main": "https://example.org/main#",
        "main2": "https://example.org/other/main/",
        "main3": "https://example.org/third/main#",
        "x": "urn:x-2:",
        "ext7": "urn:7",
    }


# Every (where an IRI is known, how an entity arrives) pair. The known entity
# is the class ex:K, or rdfs:label when built in; the entity that arrives has
# the other kind, and is refused with these words.
_REFUSALS = {
    ("declared", Arrival.DECLARATION): "already declared as Class, redeclared as ObjectProperty",
    ("declared", Arrival.REGISTRATION): "declared as both Class and ObjectProperty",
    ("declared", Arrival.IMPORT): "already declared as Class, now imported as ObjectProperty",
    ("declared", Arrival.MENTION): "declared as Class but used as ObjectProperty",
    ("declared", Arrival.LOAD): "declared as Class but used as ObjectProperty",
    ("imported", Arrival.DECLARATION): "already imported as Class, redeclared as ObjectProperty",
    ("imported", Arrival.REGISTRATION): "already imported as Class, redeclared as ObjectProperty",
    ("imported", Arrival.IMPORT): "already imported as Class, now ObjectProperty",
    ("imported", Arrival.MENTION): "declared as Class but used as ObjectProperty",
    ("imported", Arrival.LOAD): "already imported as Class, now ObjectProperty",
    ("built in", Arrival.DECLARATION): "already built in as AnnotationProperty, redeclared as Class",
    ("built in", Arrival.REGISTRATION): "already built in as AnnotationProperty, redeclared as Class",
    ("built in", Arrival.IMPORT): "already built in as AnnotationProperty, now imported as Class",
    ("built in", Arrival.MENTION): "declared as AnnotationProperty but used as Class",
    ("built in", Arrival.LOAD): "declared as AnnotationProperty but used as Class",
}
_OTHER_KIND = {Kind.CLASS: Kind.OBJECT_PROPERTY, Kind.ANNOTATION_PROPERTY: Kind.CLASS}


def _known(onto: Ontology, where: str | None) -> Entity:
    """An entity whose IRI onto knows where; None: not known at all."""
    if where == "built in":
        return RDFS_LABEL
    entity = Entity(Kind.CLASS, IRI(NS + "K"))
    if where == "declared":
        onto.add_axiom(Declaration(entity))
    elif where == "imported":
        onto.load_axiom(SubClassOf(Named(entity), THING))
    return entity


def _arrive(onto: Ontology, entity: Entity, how: str) -> None:
    """Bring entity into onto the way how names, as the package's callers do."""
    if how is Arrival.DECLARATION:
        onto.add_axiom(Declaration(entity))
    elif how is Arrival.REGISTRATION or how is Arrival.IMPORT:
        onto.admit(entity, how)
    else:
        if entity.kind is Kind.CLASS:
            axiom = SubClassOf(Named(entity), THING)
        elif entity.kind is Kind.OBJECT_PROPERTY:
            axiom = SubClassOf(Some(entity, THING), THING)
        else:
            axiom = AnnotationAssertion(IRI(NS + "s"), entity, AnnotationValue("s"))
        (onto.add_axiom if how is Arrival.MENTION else onto.load_axiom)(axiom)


def _state(onto: Ontology):
    return list(onto.axioms), dict(onto.entities), dict(onto.imported)


@pytest.mark.parametrize("probe", [False, True], ids=["", "after-rollback"])
@pytest.mark.parametrize(
    "how",
    [Arrival.DECLARATION, Arrival.REGISTRATION, Arrival.IMPORT, Arrival.MENTION, Arrival.LOAD],
)
@pytest.mark.parametrize("where", [None, "declared", "imported", "built in"], ids=str)
def test_every_arrival_keeps_the_kind_its_iri_is_known_by(where, how, probe):
    """Refused with the table's words, or accepted and filed; rollback undoes both.

    With probe, the entity was made known inside a mark that was rolled back,
    as a probe block does, so only a built-in IRI still has a kind.
    """
    onto = make_ontology()
    if probe:
        mark = onto.mark()
        known = _known(onto, where)
        onto.rollback(mark)
        where = "built in" if where == "built in" else None
    else:
        known = _known(onto, where)
    key = known.iri.value
    other = Entity(_OTHER_KIND[known.kind], known.iri)
    before = _state(onto)
    if where is not None:
        with pytest.raises(DuplicateEntityKind) as refused:
            _arrive(onto, other, how)
        assert refused.value.message == f"<{key}> {_REFUSALS[where, how]}"
        assert _state(onto) == before
    # An unknown IRI takes any kind: the one a rolled-back probe did not have.
    arriving = known if where is not None else other
    mark = onto.mark()
    if where is None and how is Arrival.MENTION:
        with pytest.raises(UndeclaredEntity, match=f"undeclared entity <{key}>"):
            _arrive(onto, arriving, how)
    else:
        _arrive(onto, arriving, how)
        declares = how is Arrival.DECLARATION or how is Arrival.REGISTRATION
        assert onto.lookup(key) == arriving
        assert (key in onto.entities) is (where == "declared" or declares)
        assert (key in onto.imported) is (
            where == "imported" or (where is None and not declares)
        )
    onto.rollback(mark)
    assert _state(onto) == before
    assert onto.lookup(key) == (known if where is not None else None)


def test_add_prefix_leaves_the_owl_and_rdfs_bases_to_their_own_labels():
    onto = make_ontology()
    onto.add_prefix(RDFS_NS)
    onto.add_prefix(OWL_NS, "web")
    assert onto.prefixes == {}


def test_add_prefix_never_gives_away_the_owl_and_rdfs_labels():
    onto = make_ontology()
    onto.add_prefix("https://example.org/owl#")
    onto.add_prefix("https://example.org/rdfs/")
    onto.add_prefix("https://example.org/other#", "owl")
    assert onto.prefixes == {
        "owl2": "https://example.org/owl#",
        "rdfs2": "https://example.org/rdfs/",
        "owl3": "https://example.org/other#",
    }


# --- the value classes -----------------------------------------------------------

_A = Entity(Kind.CLASS, IRI(NS + "A"))
_B = Entity(Kind.CLASS, IRI(NS + "B"))
_P = Entity(Kind.OBJECT_PROPERTY, IRI(NS + "p"))
_Q = Entity(Kind.OBJECT_PROPERTY, IRI(NS + "q"))

# One positional argument tuple per value class of `model`.
_SAMPLE_ARGS = {
    model.Entity: (Kind.CLASS, IRI(NS + "A")),
    model.AnnotationValue: ("text", "EN"),
    model.Named: (_A,),
    model.And: ((Named(_A), Named(_B)),),
    model.Or: ([Named(_A), Named(_B)],),
    model.Not: (Named(_A),),
    model.Some: (_P, Named(_A)),
    model.Only: (_P, Named(_B)),
    model.Declaration: (_A,),
    model.SubClassOf: (Named(_A), Named(_B)),
    model.EquivalentClasses: ((Named(_A), Named(_B)),),
    model.DisjointClasses: ([_A, _B],),
    model.SubObjectPropertyOf: (_P, _Q),
    model.ObjectPropertyDomain: (_P, Named(_A)),
    model.ObjectPropertyRange: (_P, Named(_B)),
    model.FunctionalObjectProperty: (_P,),
    model.TransitiveObjectProperty: (_Q,),
    model.AnnotationAssertion: (IRI(NS + "A"), RDFS_LABEL, AnnotationValue("a", "en")),
    model.Import: (IRI("http://example.com/other"),),
}

VALUE_CLASSES = sorted(
    (
        value
        for value in vars(model).values()
        if isinstance(value, type)
        and dataclasses.is_dataclass(value)
        and value.__module__ == model.__name__
    ),
    key=lambda value: value.__name__,
)


def test_every_value_class_has_sample_arguments():
    assert set(_SAMPLE_ARGS) == set(VALUE_CLASSES)


@pytest.mark.parametrize("value_class", VALUE_CLASSES, ids=lambda c: c.__name__)
def test_every_value_class_is_a_slotted_frozen_value(value_class):
    args = _SAMPLE_ARGS[value_class]
    names = [f.name for f in dataclasses.fields(value_class)]
    term = value_class(*args)
    keyword = value_class(**dict(zip(names, args)))
    assert term == keyword and hash(term) == hash(keyword)
    assert repr(term).startswith(f"{value_class.__name__}({names[0]}=")
    assert not hasattr(term, "__dict__")
    for name in [*names, "extra"]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(term, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(term, name)
    assert [getattr(term, name) for name in names] == [getattr(keyword, name) for name in names]
    for twin in (copy.copy(term), copy.deepcopy(term), pickle.loads(pickle.dumps(term))):
        assert type(twin) is value_class and twin == term and hash(twin) == hash(term)
    for field in dataclasses.fields(value_class):
        if field.default is not dataclasses.MISSING:
            required = args[: names.index(field.name)]
            assert getattr(value_class(*required), field.name) == field.default


def test_an_iri_is_its_text_checked_and_frozen():
    text = NS + "A"
    iri = IRI(text)
    assert isinstance(iri, str) and iri == text and hash(iri) == hash(text)
    assert {text: 1}[iri] == 1 and {iri: 1}[text] == 1
    assert type(iri.value) is str and iri.value == text
    with pytest.raises(ValueError, match="not an absolute IRI: 'noscheme'"):
        IRI("noscheme")
    assert not hasattr(iri, "__dict__")
    for name in ("value", "extra"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(iri, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(iri, name)
    for twin in (copy.copy(iri), copy.deepcopy(iri), pickle.loads(pickle.dumps(iri))):
        assert type(twin) is IRI and twin == iri
