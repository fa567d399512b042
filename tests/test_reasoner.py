"""Tests for normalization, saturation, and the classified view."""

import random

import pytest

from el_oracle import el_subsumers
from ontoforge.model import (
    And,
    DisjointClasses,
    Entity,
    EquivalentClasses,
    FunctionalObjectProperty,
    IRI,
    Kind,
    Named,
    Not,
    NOTHING,
    Only,
    Ontology,
    Or,
    Some,
    SubClassOf,
    SubObjectPropertyOf,
    THING,
    TransitiveObjectProperty,
)
from ontoforge.reasoner import (
    AtomAtom,
    AtomExists,
    BOT,
    ConjAtom,
    ExistsAtom,
    Saturation,
    TOP,
    Taxonomy,
    UnknownEntity,
    classify,
    coherence_report,
    direct_superclasses,
    inferred_superclass,
    normalize,
    saturate,
)
from support import random_el_ontology

NS = "https://example.org/r#"


def build(axiom_maker):
    """An ontology over classes A..F and roles r, s, filled by the callback."""
    onto = Ontology(IRI("https://example.org/r"))
    names = {}
    for n in "ABCDEF":
        names[n] = onto.declare(Kind.CLASS, IRI(NS + n))
    for n in "rs":
        names[n] = onto.declare(Kind.OBJECT_PROPERTY, IRI(NS + n))
    axiom_maker(onto, names)
    return onto, names


def iri(name: str) -> str:
    return NS + name


# --- normalization ----------------------------------------------------------


def test_normalize_emits_the_four_shapes():
    def fill(onto, n):
        onto.add_axiom(SubClassOf(Named(n["A"]), Named(n["B"])))
        onto.add_axiom(SubClassOf(And((Named(n["A"]), Named(n["B"]))), Named(n["C"])))
        onto.add_axiom(SubClassOf(Named(n["A"]), Some(n["r"], Named(n["B"]))))
        onto.add_axiom(SubClassOf(Some(n["r"], Named(n["A"])), Named(n["C"])))

    onto, _ = build(fill)
    res = normalize(onto.axioms)
    assert res.skipped == []
    assert set(res.normal) == {
        AtomAtom(iri("A"), iri("B")),
        ConjAtom(iri("A"), iri("B"), iri("C")),
        AtomExists(iri("A"), iri("r"), iri("B")),
        ExistsAtom(iri("r"), iri("A"), iri("C")),
    }


def test_normalize_names_nested_expressions_with_aux_atoms():
    # ∃r.(A ⊓ B) ⊑ C needs one aux for the filler
    def fill(onto, n):
        onto.add_axiom(SubClassOf(Some(n["r"], And((Named(n["A"]), Named(n["B"])))), Named(n["C"])))

    onto, _ = build(fill)
    res = normalize(onto.axioms)
    assert set(res.normal) == {
        ConjAtom(iri("A"), iri("B"), "_aux1"),
        ExistsAtom(iri("r"), "_aux1", iri("C")),
    }


def test_normalize_splits_conjunction_on_the_right():
    def fill(onto, n):
        onto.add_axiom(SubClassOf(Named(n["A"]), And((Named(n["B"]), Some(n["r"], Named(n["C"]))))))

    onto, _ = build(fill)
    res = normalize(onto.axioms)
    assert set(res.normal) == {
        AtomAtom(iri("A"), iri("B")),
        AtomExists(iri("A"), iri("r"), iri("C")),
    }


def test_normalize_chains_wide_conjunctions():
    def fill(onto, n):
        onto.add_axiom(
            SubClassOf(And((Named(n["A"]), Named(n["B"]), Named(n["C"]))), Named(n["D"]))
        )

    onto, _ = build(fill)
    res = normalize(onto.axioms)
    assert set(res.normal) == {
        ConjAtom(iri("A"), iri("B"), "_aux1"),
        ConjAtom("_aux1", iri("C"), iri("D")),
    }


def test_normalize_unfolds_equivalence_into_a_cycle():
    def fill(onto, n):
        onto.add_axiom(EquivalentClasses((Named(n["A"]), Named(n["B"]), Named(n["C"]))))

    onto, _ = build(fill)
    res = normalize(onto.axioms)
    assert set(res.normal) == {
        AtomAtom(iri("A"), iri("B")),
        AtomAtom(iri("B"), iri("C")),
        AtomAtom(iri("C"), iri("A")),
    }


def test_normalize_expands_disjointness_pairwise():
    def fill(onto, n):
        onto.add_axiom(DisjointClasses((n["A"], n["B"], n["C"])))

    onto, _ = build(fill)
    res = normalize(onto.axioms)
    assert set(res.normal) == {
        ConjAtom(iri("A"), iri("B"), BOT),
        ConjAtom(iri("A"), iri("C"), BOT),
        ConjAtom(iri("B"), iri("C"), BOT),
    }


def test_normalize_splits_union_on_the_left():
    def fill(onto, n):
        onto.add_axiom(SubClassOf(Or((Named(n["A"]), Named(n["B"]))), Named(n["C"])))

    onto, _ = build(fill)
    res = normalize(onto.axioms)
    assert res.skipped == []
    assert set(res.normal) == {AtomAtom(iri("A"), iri("C")), AtomAtom(iri("B"), iri("C"))}


def test_normalize_skips_whats_outside_the_fragment():
    def fill(onto, n):
        onto.add_axiom(SubClassOf(Named(n["A"]), Only(n["r"], Named(n["B"]))))
        onto.add_axiom(SubClassOf(Named(n["B"]), Not(Named(n["A"]))))
        onto.add_axiom(SubClassOf(Named(n["C"]), Or((Named(n["A"]), Named(n["B"])))))
        onto.add_axiom(SubObjectPropertyOf(n["r"], n["s"]))
        onto.add_axiom(FunctionalObjectProperty(n["r"]))
        onto.add_axiom(TransitiveObjectProperty(n["s"]))

    onto, _ = build(fill)
    res = normalize(onto.axioms)
    assert res.normal == []
    reasons = [s.reason for s in res.skipped]
    assert "universal restriction is outside the fragment" in reasons
    assert "complement is outside the fragment" in reasons
    assert "union is outside the fragment" in reasons
    assert "SubObjectPropertyOf is outside the fragment" in reasons
    assert "FunctionalObjectProperty is outside the fragment" in reasons
    assert "TransitiveObjectProperty is outside the fragment" in reasons
    # declared signature still registers even when axioms are skipped
    assert iri("A") in res.classes and iri("r") in res.roles


# --- saturation -------------------------------------------------------------


def test_saturation_closes_a_chain():
    normal = [AtomAtom("A", "B"), AtomAtom("B", "C")]
    S, _ = saturate(normal, {"A", "B", "C"})
    assert S["A"] == {"A", "B", "C", TOP}
    assert S["B"] == {"B", "C", TOP}
    assert S["C"] == {"C", TOP}


def test_saturation_fires_conjunction_rule():
    normal = [AtomAtom("A", "B"), AtomAtom("A", "C"), ConjAtom("B", "C", "D")]
    S, _ = saturate(normal, {"A", "B", "C", "D"})
    assert "D" in S["A"]
    assert "D" not in S["B"]


def test_saturation_pushes_through_existentials():
    # A ⊑ ∃r.B, B ⊑ C, ∃r.C ⊑ D entails A ⊑ D
    normal = [AtomExists("A", "r", "B"), AtomAtom("B", "C"), ExistsAtom("r", "C", "D")]
    S, R = saturate(normal, {"A", "B", "C", "D"})
    assert "D" in S["A"]
    assert ("A", "B") in R["r"]


def test_saturation_propagates_bottom_over_edges():
    # A points into an unsatisfiable filler, so A collapses too
    normal = [AtomExists("A", "r", "B"), AtomAtom("B", BOT)]
    S, _ = saturate(normal, {"A", "B"})
    assert BOT in S["A"]
    assert BOT in S["B"]


def test_saturation_extends_to_the_fixpoint_from_scratch_and_undoes_exactly():
    atoms = {"A", "B", "C", "D"}
    base = [AtomAtom("A", "B"), AtomExists("A", "r", "C"), AtomAtom("C", "D")]
    # each new axiom fires only through an old atom's existing subsumers
    delta = [
        ExistsAtom("r", "D", "P"),
        ConjAtom("B", "P", "Q"),
        AtomExists("Q", "s", "E"),
        AtomAtom("E", BOT),
    ]
    engine = Saturation()
    engine.extend(base, atoms)
    before = ({c: set(s) for c, s in engine.S.items()}, {r: set(e) for r, e in engine.R.items()})
    mark = engine.mark()
    engine.extend(delta, {"P", "Q"})
    assert (engine.S, engine.R) == saturate(base + delta, atoms | {"P", "Q"})
    assert {"P", "Q", BOT} <= engine.S["A"]
    engine.undo(mark)
    assert (engine.S, engine.R) == before


# --- classify ---------------------------------------------------------------


def test_classify_finds_the_textbook_parent():
    # Parent ≡ A ⊓ ∃r.A ; D ⊑ A ; D ⊑ ∃r.E ; E ⊑ A ⟹ D ⊑ Parent
    def fill(onto, n):
        onto.add_axiom(
            EquivalentClasses((Named(n["B"]), And((Named(n["A"]), Some(n["r"], Named(n["A"]))))))
        )
        onto.add_axiom(SubClassOf(Named(n["D"]), Named(n["A"])))
        onto.add_axiom(SubClassOf(Named(n["D"]), Some(n["r"], Named(n["E"]))))
        onto.add_axiom(SubClassOf(Named(n["E"]), Named(n["A"])))

    onto, n = build(fill)
    tax = classify(onto.axioms)
    assert iri("B") in tax.subsumers[iri("D")]
    assert inferred_superclass(tax, n["D"], n["B"])
    assert not inferred_superclass(tax, n["B"], n["D"])


def test_classify_reports_unsatisfiable_classes():
    def fill(onto, n):
        onto.add_axiom(SubClassOf(Named(n["A"]), Named(n["B"])))
        onto.add_axiom(SubClassOf(Named(n["A"]), Named(n["C"])))
        onto.add_axiom(DisjointClasses((n["B"], n["C"])))
        onto.add_axiom(SubClassOf(Named(n["D"]), Some(n["r"], Named(n["A"]))))

    onto, _ = build(fill)
    tax = classify(onto.axioms)
    assert tax.unsatisfiable == frozenset({iri("A"), iri("D")})
    report = coherence_report(tax)
    assert not report.coherent
    assert report.unsatisfiable == (iri("A"), iri("D"))


def test_classify_keeps_aux_atoms_out_of_the_view():
    def fill(onto, n):
        onto.add_axiom(SubClassOf(Some(n["r"], And((Named(n["A"]), Named(n["B"])))), Named(n["C"])))
        onto.add_axiom(SubClassOf(Named(n["D"]), Some(n["r"], And((Named(n["A"]), Named(n["B"]))))))

    onto, _ = build(fill)
    tax = classify(onto.axioms)
    assert iri("C") in tax.subsumers[iri("D")]
    for sub, sups in tax.subsumers.items():
        assert not sub.startswith("_aux")
        assert not any(x.startswith("_aux") for x in sups)
    for pairs in tax.role_edges.values():
        for a, b in pairs:
            assert not a.startswith("_aux") and not b.startswith("_aux")


def test_classify_covers_every_declared_class():
    def fill(onto, n):
        onto.add_axiom(SubClassOf(Named(n["A"]), Named(n["B"])))

    onto, _ = build(fill)
    tax = classify(onto.axioms)
    # F never occurs in an axiom but is still classified
    assert tax.subsumers[iri("F")] == frozenset({iri("F"), TOP})
    assert set(tax.subsumers) == {iri(c) for c in "ABCDEF"}


def test_classify_records_skips():
    def fill(onto, n):
        onto.add_axiom(SubClassOf(Named(n["A"]), Only(n["r"], Named(n["B"]))))

    onto, _ = build(fill)
    tax = classify(onto.axioms)
    assert tax.skipped_count == 1
    assert "universal restriction" in tax.skipped[0].reason


def test_classify_is_order_independent():
    rng = random.Random(99)
    for seed in range(25):
        onto = random_el_ontology(random.Random(seed))
        baseline = classify(onto.axioms)
        shuffled = onto.axioms[:]
        rng.shuffle(shuffled)
        again = classify(shuffled)
        assert again.subsumers == baseline.subsumers
        assert again.unsatisfiable == baseline.unsatisfiable


def test_classify_agrees_with_the_brute_force_oracle():
    for seed in range(60):
        onto = random_el_ontology(random.Random(seed))
        assert classify(onto.axioms).subsumers == el_subsumers(onto.axioms)


# --- queries ----------------------------------------------------------------


def test_inferred_superclass_reflexive_flag():
    def fill(onto, n):
        onto.add_axiom(SubClassOf(Named(n["A"]), Named(n["B"])))

    onto, n = build(fill)
    tax = classify(onto.axioms)
    assert inferred_superclass(tax, n["A"], n["B"])
    assert not inferred_superclass(tax, n["A"], n["A"])
    assert inferred_superclass(tax, n["A"], n["A"], reflexive=True)


def test_inferred_superclass_rejects_unknown_entities():
    onto, n = build(lambda o, _: None)
    tax = classify(onto.axioms)
    ghost = Entity(Kind.CLASS, IRI(NS + "Ghost"))
    with pytest.raises(UnknownEntity):
        inferred_superclass(tax, ghost, n["A"])
    with pytest.raises(UnknownEntity):
        inferred_superclass(tax, n["A"], ghost)


def test_direct_superclasses_reduces_transitively():
    def fill(onto, n):
        onto.add_axiom(SubClassOf(Named(n["A"]), Named(n["B"])))
        onto.add_axiom(SubClassOf(Named(n["B"]), Named(n["C"])))
        onto.add_axiom(SubClassOf(Named(n["A"]), Named(n["C"])))  # redundant
        onto.add_axiom(SubClassOf(Named(n["A"]), Named(n["D"])))

    onto, _ = build(fill)
    tax = classify(onto.axioms)
    assert direct_superclasses(tax, iri("A")) == [iri("B"), iri("D")]
    assert direct_superclasses(tax, iri("B")) == [iri("C")]
    assert direct_superclasses(tax, iri("C")) == []


def test_direct_superclasses_keeps_equivalents_side_by_side():
    def fill(onto, n):
        onto.add_axiom(SubClassOf(Named(n["A"]), Named(n["B"])))
        onto.add_axiom(EquivalentClasses((Named(n["B"]), Named(n["C"]))))

    onto, _ = build(fill)
    tax = classify(onto.axioms)
    # B and C subsume each other, so neither hides the other
    assert direct_superclasses(tax, iri("A")) == [iri("B"), iri("C")]


def test_direct_superclasses_rejects_unknown_names():
    onto, _ = build(lambda o, _: None)
    tax = classify(onto.axioms)
    with pytest.raises(UnknownEntity):
        direct_superclasses(tax, NS + "Ghost")


def test_coherent_taxonomy_report():
    onto, _ = build(lambda o, _: None)
    report = coherence_report(classify(onto.axioms))
    assert report.coherent
    assert report.unsatisfiable == ()
