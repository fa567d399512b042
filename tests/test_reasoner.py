"""Tests for normalization, saturation, and the classified view."""

import copy
import random
from collections.abc import Mapping
from pathlib import Path

import pytest

from el_oracle import el_subsumers
from ontoforge.evaluator import Loader
from ontoforge.model import (
    And,
    Declaration,
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
    OWL_NOTHING,
    OWL_THING,
    Some,
    SubClassOf,
    SubObjectPropertyOf,
    THING,
    TransitiveObjectProperty,
)
from ontoforge import reasoner
from ontoforge.reasoner import (
    AtomAtom,
    AtomExists,
    BOT,
    Classifier,
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
)
from support import pizza_env, random_el_ontology, random_full_ontology

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


def test_normalize_names_a_repeated_left_side_once():
    # the ∃r.B of A ⊓ ∃r.B ⊑ C and A ⊓ ∃r.B ⊑ D: one name, one ∃r.B ⊑ _aux1
    def fill(onto, n):
        lhs = And((Named(n["A"]), Some(n["r"], Named(n["B"]))))
        for sup in "CD":
            onto.add_axiom(SubClassOf(lhs, Named(n[sup])))

    onto, _ = build(fill)
    res = normalize(onto.axioms)
    assert res.normal == [
        ExistsAtom(iri("r"), iri("B"), "_aux1"),
        ConjAtom(iri("A"), "_aux1", iri("C")),
        ConjAtom(iri("A"), "_aux1", iri("D")),
    ]
    assert res.next_aux == 2


def test_normalize_names_a_repeated_right_side_once():
    # the filler A ⊓ ∃s.B of C ⊑ ∃r.(A ⊓ ∃s.B) and D ⊑ ∃r.(A ⊓ ∃s.B)
    def fill(onto, n):
        filler = And((Named(n["A"]), Some(n["s"], Named(n["B"]))))
        for sub in "CD":
            onto.add_axiom(SubClassOf(Named(n[sub]), Some(n["r"], filler)))

    onto, _ = build(fill)
    res = normalize(onto.axioms)
    assert res.normal == [
        AtomAtom("_aux1", iri("A")),
        AtomExists("_aux1", iri("s"), iri("B")),
        AtomExists(iri("C"), iri("r"), "_aux1"),
        AtomExists(iri("D"), iri("r"), "_aux1"),
    ]
    assert res.next_aux == 2


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
    assert iri("A") in res.classes


def test_normalize_records_one_skip_per_axiom():
    told = []

    def fill(onto, n):
        # both directions of the equivalence, and both disjuncts, fall outside
        told.append(EquivalentClasses((Named(n["A"]), Only(n["r"], Named(n["B"])))))
        told.append(SubClassOf(Or((Not(Named(n["A"])), Only(n["r"], Named(n["B"])))), Named(n["C"])))
        for axiom in told:
            onto.add_axiom(axiom)

    onto, _ = build(fill)
    res = normalize(onto.axioms)
    assert [(s.axiom, s.construct) for s in res.skipped] == [
        (told[0], "universal restriction"),
        (told[1], "complement"),
    ]


def _signature(ce, out: set) -> None:
    if isinstance(ce, Named):
        out.add(ce.entity.iri.value)
    elif isinstance(ce, (And, Or)):
        for op in ce.operands:
            _signature(op, out)
    elif isinstance(ce, Not):
        _signature(ce.operand, out)
    elif isinstance(ce, (Some, Only)):
        _signature(ce.filler, out)


def _offending(ce):
    if isinstance(ce, Only):
        return "universal restriction"
    if isinstance(ce, Not):
        return "complement"
    if isinstance(ce, Or):
        return "union"
    if isinstance(ce, And):
        for op in ce.operands:
            bad = _offending(op)
            if bad:
                return bad
        return None
    if isinstance(ce, Some):
        return _offending(ce.filler)
    return None


class _TwoWalkNormalizer(reasoner._Normalizer):
    """The reference: one walk collects each operand's classes, and another
    finds what falls outside the fragment, pair by pair, left side first."""

    def _axiom(self, axiom):
        if isinstance(axiom, SubClassOf):
            pairs = [(axiom.sub, axiom.sup)]
        elif isinstance(axiom, EquivalentClasses):
            ops = axiom.operands
            pairs = [(op, ops[(i + 1) % len(ops)]) for i, op in enumerate(ops)]
        else:
            return super()._axiom(axiom)
        for sub, sup in pairs:
            _signature(sub, self.result.classes)
            _signature(sup, self.result.classes)
        for sub, sup in pairs:
            self._pair(sub, sup, axiom)

    def _pair(self, sub, sup, origin):
        if isinstance(sub, Or):
            for disjunct in sub.operands:
                self._pair(disjunct, sup, origin)
            return
        bad = _offending(sub) or _offending(sup)
        if bad:
            skipped = self.result.skipped
            if not skipped or skipped[-1].axiom is not origin:
                skipped.append(reasoner.SkippedAxiom(origin, bad))
            return
        self._emit(sub, sup)


def _normalized(res):
    return (res.normal, [(s.axiom, s.construct) for s in res.skipped],
            sorted(res.classes), res.next_aux)


@pytest.mark.parametrize("generate", [random_full_ontology, random_el_ontology])
def test_normalize_matches_the_two_walk_reference(generate):
    skips = 0
    for seed in range(600):
        axioms = generate(random.Random(seed)).axioms
        got = normalize(axioms, 3)
        assert _normalized(got) == _normalized(_TwoWalkNormalizer(3).run(axioms)), seed
        skips += len(got.skipped)
    assert skips or generate is random_el_ontology  # the full ontologies do leave the fragment


# --- saturation -------------------------------------------------------------


def saturated(normal, atoms) -> Saturation:
    engine = Saturation()
    engine.extend(normal, atoms)
    return engine


def test_saturation_closes_a_chain():
    normal = [AtomAtom("A", "B"), AtomAtom("B", "C")]
    S = saturated(normal, {"A", "B", "C"}).S
    assert S["A"] == {"A", "B", "C", TOP}
    assert S["B"] == {"B", "C", TOP}
    assert S["C"] == {"C", TOP}


def test_saturation_fires_conjunction_rule():
    normal = [AtomAtom("A", "B"), AtomAtom("A", "C"), ConjAtom("B", "C", "D")]
    S = saturated(normal, {"A", "B", "C", "D"}).S
    assert "D" in S["A"]
    assert "D" not in S["B"]


def test_saturation_pushes_through_existentials():
    # A ⊑ ∃r.B, B ⊑ C, ∃r.C ⊑ D entails A ⊑ D
    normal = [AtomExists("A", "r", "B"), AtomAtom("B", "C"), ExistsAtom("r", "C", "D")]
    engine = saturated(normal, {"A", "B", "C", "D"})
    assert "D" in engine.S["A"]
    assert engine.edges_by_target["B"] == {("r", "A")}


def test_saturation_propagates_bottom_over_edges():
    # A points into an unsatisfiable filler, so A collapses too
    normal = [AtomExists("A", "r", "B"), AtomAtom("B", BOT)]
    S = saturated(normal, {"A", "B"}).S
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
    edges = engine.edges_by_target
    before = ({c: set(s) for c, s in engine.S.items()}, {d: set(e) for d, e in edges.items()})
    mark = engine.mark()
    engine.extend(delta, {"P", "Q"})
    scratch = saturated(base + delta, atoms | {"P", "Q"})
    assert (engine.S, edges) == (scratch.S, scratch.edges_by_target)
    assert {"P", "Q", BOT} <= engine.S["A"]
    engine.undo(mark)
    assert (engine.S, edges) == before


def bottom_filler_axioms(n):
    """∃r.⊥ ⊑ B, then A ⊑ ∃r.C and C ⊑ ⊥: A is unsatisfiable, and so below B."""
    return [
        SubClassOf(Some(n["r"], NOTHING), Named(n["B"])),
        SubClassOf(Named(n["A"]), Some(n["r"], Named(n["C"]))),
        SubClassOf(Named(n["C"]), NOTHING),
    ]


def assert_classifies_as_from_scratch(tax: Taxonomy, axioms) -> None:
    scratch = classify(axioms)
    assert dict(tax.subsumers) == dict(scratch.subsumers) == el_subsumers(axioms)
    assert tax.unsatisfiable == scratch.unsatisfiable


def tables(engine: Saturation) -> dict:
    return copy.deepcopy({k: v for k, v in vars(engine).items() if k != "_trail"})


@pytest.mark.parametrize("bottom_first", [True, False])
def test_bottom_filler_on_the_left_keeps_bottom_propagating(bottom_first):
    # ∃r.⊥ ⊑ B indexed before the role's first A ⊑ ∃r.C must not stand in
    # for ∃r.⊥ ⊑ ⊥
    onto, n = build(lambda o, _: None)
    axioms = bottom_filler_axioms(n)
    if not bottom_first:
        axioms = axioms[1:] + axioms[:1]
    tax = classify(onto.axioms + axioms)
    assert {iri("A"), iri("C")} <= tax.unsatisfiable
    assert iri("B") in tax.subsumers[iri("A")]
    assert dict(tax.subsumers) == el_subsumers(onto.axioms + axioms)


@pytest.mark.parametrize("split", [1, 2])
@pytest.mark.parametrize("bottom_first", [True, False])
def test_bottom_filler_split_between_base_and_extension(bottom_first, split):
    onto, n = build(lambda o, _: None)
    axioms = bottom_filler_axioms(n)
    if not bottom_first:
        axioms = axioms[1:] + axioms[:1]
    base, delta = onto.axioms + axioms[:split], axioms[split:]
    classifier = Classifier(base)
    mark = classifier.mark()
    before = tables(classifier.saturation)
    classifier.add(delta)
    assert iri("A") in classifier.taxonomy().unsatisfiable
    assert_classifies_as_from_scratch(classifier.taxonomy(), base + delta)
    classifier.undo(mark)
    assert tables(classifier.saturation) == before
    assert_classifies_as_from_scratch(classifier.taxonomy(), base)


def test_bottom_reaches_a_target_after_its_edge():
    # the edge A -r-> C exists before C becomes unsatisfiable: owl:Nothing runs in context C
    onto, n = build(lambda o, _: None)
    base = onto.axioms + [SubClassOf(Named(n["A"]), Some(n["r"], Named(n["C"])))]
    classifier = Classifier(base)
    assert classifier.saturation.edges_by_target[iri("C")] == {(iri("r"), iri("A"))}
    assert not classifier.taxonomy().unsatisfiable
    delta = [SubClassOf(Named(n["C"]), Named(n["D"])), DisjointClasses((n["C"], n["D"]))]
    classifier.add(delta)
    assert classifier.taxonomy().unsatisfiable == frozenset({iri("A"), iri("C")})
    assert_classifies_as_from_scratch(classifier.taxonomy(), base + delta)


def test_bottom_crosses_an_edge_built_into_an_unsatisfiable_target():
    # C is unsatisfiable before the edge A -r-> C is built: the new edge meets S(C)
    onto, n = build(lambda o, _: None)
    base = onto.axioms + [
        SubClassOf(Named(n["C"]), NOTHING),
        SubClassOf(Named(n["E"]), Some(n["r"], Named(n["F"]))),
    ]
    classifier = Classifier(base)
    assert classifier.taxonomy().unsatisfiable == frozenset({iri("C")})
    delta = [SubClassOf(Named(n["A"]), Some(n["r"], Named(n["C"])))]
    classifier.add(delta)
    assert classifier.taxonomy().unsatisfiable == frozenset({iri("A"), iri("C")})
    assert_classifies_as_from_scratch(classifier.taxonomy(), base + delta)


@pytest.mark.parametrize("role", ["r", "s"])
def test_an_existential_on_the_left_extends_and_undoes_with_its_filler_index(role):
    # r has an edge A -r-> C before the extension; s has none until it
    onto, n = build(lambda o, _: None)
    base = onto.axioms + [
        SubClassOf(Named(n["A"]), Some(n["r"], Named(n["C"]))),
        SubClassOf(Named(n["C"]), Named(n["D"])),
    ]
    delta = [SubClassOf(Some(n[role], Named(n["D"])), Named(n["B"]))]
    if role == "s":
        delta.append(SubClassOf(Named(n["E"]), Some(n["s"], Named(n["C"]))))
    classifier = Classifier(base)
    mark = classifier.mark()
    before = tables(classifier.saturation)
    classifier.add(delta)
    assert iri("B") in classifier.taxonomy().subsumers[iri("A" if role == "r" else "E")]
    assert tables(classifier.saturation)["fillers_by_role"] != before["fillers_by_role"]
    assert_classifies_as_from_scratch(classifier.taxonomy(), base + delta)
    classifier.undo(mark)
    assert tables(classifier.saturation) == before
    assert_classifies_as_from_scratch(classifier.taxonomy(), base)


def test_auxiliary_names_belong_to_one_batch():
    # the extension reuses the base's A ⊓ ∃r.B and names a new A ⊓ ∃s.B; added
    # again after an undo, it must name that afresh with its normal forms
    onto, n = build(lambda o, _: None)
    A, B = Named(n["A"]), Named(n["B"])
    base = onto.axioms + [SubClassOf(And((A, Some(n["r"], B))), Named(n["C"]))]
    delta = [
        SubClassOf(And((A, Some(n["r"], B))), Named(n["D"])),
        SubClassOf(And((A, Some(n["s"], B))), Named(n["F"])),
        SubClassOf(Named(n["E"]), And((A, Some(n["r"], B), Some(n["s"], B)))),
    ]
    classifier = Classifier(base)
    mark = classifier.mark()
    before = tables(classifier.saturation)
    for _ in range(2):
        classifier.add(delta)
        assert {iri("C"), iri("D"), iri("F")} <= classifier.taxonomy().subsumers[iri("E")]
        assert_classifies_as_from_scratch(classifier.taxonomy(), base + delta)
        classifier.undo(mark)
        assert tables(classifier.saturation) == before
        assert_classifies_as_from_scratch(classifier.taxonomy(), base)


def test_saturation_does_not_depend_on_the_order_of_the_normal_forms():
    rng = random.Random(7)
    for seed in range(50):
        norm = normalize(random_el_ontology(random.Random(seed)).axioms)
        shuffled = norm.normal[:]
        rng.shuffle(shuffled)
        one, other = saturated(norm.normal, norm.classes), saturated(shuffled, norm.classes)
        assert one.S == other.S, seed
        assert one.edges_by_target == other.edges_by_target, seed


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


def test_a_class_at_the_iri_owl_nothing_is_an_ordinary_class():
    # "owl:Nothing" read as an IRI (scheme owl) is not the built-in owl:Nothing
    def fill(onto, n):
        lookalike = onto.declare(Kind.CLASS, IRI("owl:Nothing"))
        onto.add_axiom(SubClassOf(Named(n["A"]), Named(lookalike)))

    onto, _ = build(fill)
    tax = classify(onto.axioms)
    assert tax.unsatisfiable == frozenset()
    assert "owl:Nothing" in tax.subsumers[iri("A")]


def test_thing_and_nothing_are_classes_of_no_taxonomy():
    def fill(onto, n):
        onto.add_axiom(SubClassOf(Named(n["A"]), NOTHING))
        onto.add_axiom(SubClassOf(Named(n["B"]), THING))

    onto, n = build(fill)
    tax = classify([*onto.axioms, Declaration(OWL_THING), Declaration(OWL_NOTHING)])
    assert set(tax.subsumers) == {iri(c) for c in "ABCDEF"}
    assert tax.unsatisfiable == frozenset({iri("A")})  # a declared owl:Nothing is not listed
    # the queries accept both, mentioned or not
    empty = classify(build(lambda o, _: None)[0].axioms)
    for view in (tax, empty):
        assert inferred_superclass(view, n["C"], OWL_THING)
        assert not inferred_superclass(view, n["C"], OWL_NOTHING)
    assert inferred_superclass(tax, n["A"], OWL_NOTHING)


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
    assert len(tax.skipped) == 1
    assert "universal restriction" in tax.skipped[0].reason


def test_taxonomy_is_a_view_of_the_classifiers_saturation():
    def fill(onto, n):
        onto.add_axiom(SubClassOf(Named(n["A"]), Named(n["B"])))
        onto.add_axiom(DisjointClasses((n["B"], n["C"])))

    onto, n = build(fill)
    classifier = Classifier(onto.axioms)
    tax = classifier.taxonomy()
    assert tax.S is classifier.saturation.S
    assert isinstance(tax, Taxonomy) and isinstance(tax.subsumers, Mapping)
    assert tax.subsumers[iri("A")] == frozenset({iri("A"), iri("B"), TOP})
    assert iri("A") in tax.subsumers and NS + "Ghost" not in tax.subsumers
    assert tax.unsatisfiable is tax.unsatisfiable  # one scan per view
    mark = classifier.mark()
    classifier.add([SubClassOf(Named(n["A"]), Named(n["C"]))])
    assert classifier.taxonomy().unsatisfiable == frozenset({iri("A")})
    classifier.undo(mark)
    assert dict(classifier.taxonomy().subsumers) == dict(classify(onto.axioms).subsumers)
    assert not classifier.taxonomy().unsatisfiable


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


def _nested_complex(ce, out: set) -> None:
    """Add every complex expression nested in ce to out."""
    inner = (ce.filler,) if isinstance(ce, Some) else ce.operands if isinstance(ce, And) else ()
    for op in inner:
        if not isinstance(op, Named):
            out.add(op)
        _nested_complex(op, out)


def test_a_dense_tree_names_each_distinct_complex_expression_once(tmp_path, monkeypatch):
    # Counts, not times: naming each occurrence afresh gives 28 names and 4972 S entries.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    import gen

    tree = gen.dense_tree(7, n_classes=400)
    tree.write(tmp_path)
    axioms = Loader(tmp_path).load(tree.ns).axiom_closure()
    distinct: set = set()
    for axiom in axioms:
        if isinstance(axiom, SubClassOf):
            _nested_complex(axiom.sub, distinct)
            _nested_complex(axiom.sup, distinct)
        elif isinstance(axiom, EquivalentClasses):
            for op in axiom.operands:
                _nested_complex(op, distinct)
    # each is some D ≡ A ⊓ ∃r.B's ∃r.B, named on the left side only
    assert normalize(axioms).next_aux - 1 == len(distinct) == 17
    S = Classifier(axioms).saturation.S
    assert sum(map(len, S.values())) == 4465


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


def pairwise_direct_superclasses(subsumers, name):
    """Reference: drop each strict subsumer that lies strictly above another."""
    strict = {
        d
        for d in subsumers[name]
        if d not in (name, TOP, BOT) and name not in subsumers.get(d, frozenset())
    }
    direct = [
        d
        for d in strict
        if not any(
            e != d and d in subsumers.get(e, frozenset()) and e not in subsumers.get(d, frozenset())
            for e in strict
        )
    ]
    return sorted(direct)


def test_direct_superclasses_match_the_pairwise_reference():
    axiom_sets = (
        [pizza_env().axiom_closure()]
        + [random_el_ontology(random.Random(seed)).axioms for seed in range(500)]
    )
    checked = with_equivalent = 0
    for axioms in axiom_sets:
        tax = classify(axioms)
        subsumers = dict(tax.subsumers)
        for name, sups in subsumers.items():
            want = pairwise_direct_superclasses(subsumers, name)
            assert direct_superclasses(tax, name) == want, name
            checked += 1
            with_equivalent += any(d != name and name in subsumers.get(d, ()) for d in sups)
    # the seeds hold thousands of classes, many in equivalence cycles
    assert checked > 3000 and with_equivalent > 1000


def assert_direct_superclasses(tax: Taxonomy, name: str, want: list[str]) -> None:
    assert direct_superclasses(tax, name) == want
    assert pairwise_direct_superclasses(dict(tax.subsumers), name) == want


def test_direct_superclasses_keep_the_equivalent_of_the_largest_subsumer():
    # S(B) = S(D) is the largest strict S above A and holds E, so the
    # largest covers the rest, yet D ties B and is direct too
    def fill(onto, n):
        onto.add_axiom(SubClassOf(Named(n["A"]), Named(n["B"])))
        onto.add_axiom(EquivalentClasses((Named(n["B"]), Named(n["D"]))))
        onto.add_axiom(SubClassOf(Named(n["B"]), Named(n["E"])))

    onto, _ = build(fill)
    tax = classify(onto.axioms)
    assert_direct_superclasses(tax, iri("A"), [iri("B"), iri("D")])
    assert_direct_superclasses(tax, iri("B"), [iri("E")])
    assert_direct_superclasses(tax, iri("D"), [iri("E")])


def test_direct_superclasses_of_an_unsatisfiable_class():
    # A points into C ⊑ ⊥, so S(A) holds owl:Nothing beside B ≡ D ⊑ E
    def fill(onto, n):
        onto.add_axiom(SubClassOf(Named(n["A"]), Named(n["B"])))
        onto.add_axiom(EquivalentClasses((Named(n["B"]), Named(n["D"]))))
        onto.add_axiom(SubClassOf(Named(n["B"]), Named(n["E"])))
        onto.add_axiom(SubClassOf(Named(n["A"]), Some(n["r"], Named(n["C"]))))
        onto.add_axiom(SubClassOf(Named(n["C"]), NOTHING))

    onto, _ = build(fill)
    tax = classify(onto.axioms)
    assert tax.unsatisfiable == frozenset({iri("A"), iri("C")})
    assert_direct_superclasses(tax, iri("A"), [iri("B"), iri("D")])
    assert_direct_superclasses(tax, iri("C"), [])


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


def test_normalize_and_extend_refuse_a_foreign_object():
    with pytest.raises(TypeError, match="not an axiom"):
        normalize([object()])
    with pytest.raises(TypeError, match="not a normal axiom"):
        Saturation().extend([object()])
