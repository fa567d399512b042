"""Tests for pattern forms: disjoint groups, affix blocks, partitions, templates."""

import pytest

from ontoforge.errors import Location
from ontoforge.evaluator import (
    DuplicateBinding,
    Environment,
    Evaluator,
    Loader,
    UnboundIdentifier,
    eval_forms,
    eval_text,
)
from ontoforge.model import (
    AnnotationAssertion,
    AnnotationValue,
    Declaration,
    DisjointClasses,
    Entity,
    EquivalentClasses,
    FunctionalObjectProperty,
    IRI,
    Named,
    ObjectPropertyRange,
    Or,
    RDFS_LABEL,
    SubClassOf,
)
from ontoforge.patterns import (
    MAX_INSTANTIATIONS,
    PatternArity,
    PatternError,
    TemplateArity,
    TemplateError,
)
from ontoforge.sexpr import MAX_NESTING, BracketForm, ListForm, read_forms, strip_locations
from ontoforge.testkit import run_tests

BASE = "https://example.org/piz#"
HEADER = f'(defontology piz :iri "{BASE}" :prefix "piz")\n'


def run(text: str):
    return eval_text(HEADER + text, "piz")


def entity(env, name):
    return env.bindings[name]


def named(env, name):
    return Named(entity(env, name))


# --- as-disjoint-subclasses ------------------------------------------------------


def test_disjoint_subclasses_emits_subclass_and_disjointness():
    env = run(
        """
        (defclass PizzaBase)
        (as-disjoint-subclasses PizzaBase
          (defclass ThinBase)
          (defclass ThickBase))
        """
    )
    onto = env.ontology
    assert SubClassOf(named(env, "ThinBase"), named(env, "PizzaBase")) in onto
    assert SubClassOf(named(env, "ThickBase"), named(env, "PizzaBase")) in onto
    assert DisjointClasses((entity(env, "ThinBase"), entity(env, "ThickBase"))) in onto
    assert not any(isinstance(a, EquivalentClasses) for a in onto.axioms)


def test_disjoint_subclasses_single_child_skips_disjointness():
    env = run("(defclass P)\n(as-disjoint-subclasses P (defclass OnlyChild))")
    onto = env.ontology
    assert SubClassOf(named(env, "OnlyChild"), named(env, "P")) in onto
    assert not any(isinstance(a, DisjointClasses) for a in onto.axioms)


def test_disjoint_subclasses_cover_adds_the_covering_axiom():
    env = run(
        """
        (defclass P)
        (as-disjoint-subclasses P :cover
          (defclass A)
          (defclass B)
          (defclass C))
        """
    )
    covering = EquivalentClasses(
        (named(env, "P"), Or((named(env, "A"), named(env, "B"), named(env, "C"))))
    )
    assert covering in env.ontology


def test_disjoint_subclasses_cover_of_one_collapses_the_union():
    env = run("(defclass P)\n(as-disjoint-subclasses P :cover (defclass A))")
    assert EquivalentClasses((named(env, "P"), named(env, "A"))) in env.ontology


def test_disjoint_subclasses_children_support_options():
    env = run(
        """
        (defclass P)
        (as-disjoint-subclasses P
          (defclass A :label "The A")
          (defclass B))
        """
    )
    assert AnnotationAssertion(
        entity(env, "A").iri, RDFS_LABEL, AnnotationValue("The A", "en")
    ) in env.ontology


def test_disjoint_subclasses_argument_errors():
    with pytest.raises(PatternArity):
        run("(as-disjoint-subclasses)")
    with pytest.raises(PatternArity):
        run("(defclass P)\n(as-disjoint-subclasses P)")
    with pytest.raises(PatternArity):
        run("(defclass P)\n(as-disjoint-subclasses P :fill (defclass A))")
    with pytest.raises(PatternArity):
        run("(defclass P)\n(defclass Q)\n(as-disjoint-subclasses P Q)")
    with pytest.raises(UnboundIdentifier):
        run("(as-disjoint-subclasses Ghost (defclass A))")


def test_a_2000_member_disjoint_block_checks_members_without_comparing_them(monkeypatch):
    n = 2000
    block = "(defclass P)\n(as-disjoint-subclasses P\n" + "".join(
        f"  (defclass C{i})\n" for i in range(n)
    )
    comparisons = 0
    compare = Entity.__eq__

    def counting(self, other):
        nonlocal comparisons
        comparisons += 1
        return compare(self, other)

    monkeypatch.setattr(Entity, "__eq__", counting)
    env = run(block + ")")
    # a scan of the members so far compares n(n-1)/2 pairs
    assert comparisons < n
    monkeypatch.undo()
    members = tuple(entity(env, f"C{i}") for i in range(n))
    assert DisjointClasses(members) in env.ontology
    with pytest.raises(PatternError) as err:
        run(block + "  (defclass C7))")
    assert err.value.message == "'C7' is listed twice; disjoint subclasses must be distinct"
    assert err.value.location == Location("<string>", n + 4, 3)


# --- affix blocks -------------------------------------------------------------------


def test_with_suffix_affixes_bound_names():
    env = run(
        """
        (defclass Pizza)
        (with-suffix Pizza
          (defclass Margherita :subclass Pizza)
          (defclass Cajun :subclass Margherita))
        """
    )
    assert "MargheritaPizza" in env.bindings
    assert "CajunPizza" in env.bindings
    assert entity(env, "MargheritaPizza").iri == IRI(BASE + "MargheritaPizza")
    # inside the block, the short name reaches the affixed class
    assert SubClassOf(named(env, "CajunPizza"), named(env, "MargheritaPizza")) in env.ontology


def test_with_prefix_prepends():
    env = run("(with-prefix Named (defclass Pizza))")
    assert "NamedPizza" in env.bindings
    assert "Pizza" not in env.bindings


def test_affix_blocks_nest_innermost_first():
    env = run(
        """
        (with-suffix Pizza
          (with-prefix Interesting
            (defclass Cajun)))
        """
    )
    assert "InterestingCajunPizza" in env.bindings


def test_affix_aliases_are_block_local():
    with pytest.raises(UnboundIdentifier):
        run(
            """
            (with-suffix Pizza (defclass Margherita))
            (defclass After :subclass Margherita)
            """
        )


def test_affix_collision_is_an_error():
    with pytest.raises(DuplicateBinding):
        run(
            """
            (defclass MargheritaPizza)
            (with-suffix Pizza (defclass Margherita))
            """
        )


def test_affix_block_needs_an_identifier():
    with pytest.raises(PatternArity):
        run('(with-suffix "Pizza" (defclass A))')
    with pytest.raises(PatternArity):
        run("(with-suffix)")


# --- value partitions ------------------------------------------------------------------


def test_value_partition_builds_the_whole_pattern():
    env = run("(value-partition Spiciness [Mild Medium Hot])")
    onto = env.ontology
    parent = entity(env, "Spiciness")
    values = [entity(env, v) for v in ("Mild", "Medium", "Hot")]
    prop = entity(env, "hasSpiciness")
    for v in values:
        assert SubClassOf(Named(v), Named(parent)) in onto
    assert DisjointClasses(tuple(values)) in onto
    assert EquivalentClasses((Named(parent), Or(tuple(Named(v) for v in values)))) in onto
    assert FunctionalObjectProperty(prop) in onto
    assert ObjectPropertyRange(prop, Named(parent)) in onto


def test_value_partition_respects_affixes():
    env = run("(with-suffix Level (value-partition Spiciness [Mild Hot]))")
    assert "SpicinessLevel" in env.bindings
    assert "MildLevel" in env.bindings
    assert "hasSpicinessLevel" in env.bindings


def test_value_partition_argument_errors():
    with pytest.raises(PatternArity):
        run("(value-partition Spiciness [OnlyOne])")
    with pytest.raises(PatternArity):
        run("(value-partition Spiciness)")
    with pytest.raises(PatternArity):
        run('(value-partition Spiciness [Mild "Hot"])')
    with pytest.raises(PatternArity):
        run("(value-partition [Mild Hot])")


# --- templates ----------------------------------------------------------------------


def test_template_substitutes_single_parameters():
    env = run(
        """
        (defclass Pizza)
        (defclass Hot)
        (defoproperty hasSpiciness)
        (deftemplate spicy [?name ?level]
          (defclass ?name :subclass Pizza (owlsome hasSpiciness ?level)))
        (spicy [Diavola Hot])
        """
    )
    assert "Diavola" in env.bindings
    subs = [a for a in env.ontology.axioms if isinstance(a, SubClassOf)]
    assert SubClassOf(named(env, "Diavola"), named(env, "Pizza")) in subs


def test_template_runs_once_per_group():
    env = run(
        """
        (defclass Pizza)
        (deftemplate simple [?name] (defclass ?name :subclass Pizza))
        (simple [A] [B] [C])
        """
    )
    assert {"A", "B", "C"} <= set(env.bindings)


def test_template_rest_splices_into_list_positions():
    env = run(
        """
        (defclass Pizza)
        (defoproperty hasTopping)
        (defclass Ham)
        (defclass Mushroom)
        (deftemplate topped [?name & ?toppings]
          (defclass ?name :subclass Pizza
            (each ?toppings ?t (owlsome hasTopping ?t))))
        (topped [Regina Ham Mushroom])
        """
    )
    p = entity(env, "hasTopping")
    sups = [
        a.sup
        for a in env.ontology.axioms
        if isinstance(a, SubClassOf) and a.sub == named(env, "Regina")
    ]
    from ontoforge.model import Some

    assert Some(p, named(env, "Ham")) in sups
    assert Some(p, named(env, "Mushroom")) in sups


def test_template_rest_can_splice_directly():
    env = run(
        """
        (defclass P)
        (deftemplate group [?parent & ?kids]
          (as-disjoint-subclasses ?parent (each ?kids ?k (defclass ?k))))
        (group [P A B])
        """
    )
    assert DisjointClasses((entity(env, "A"), entity(env, "B"))) in env.ontology


def test_template_definition_errors():
    with pytest.raises(TemplateError):
        run("(deftemplate broken [name] (defclass ?name))")  # parameter without marker
    with pytest.raises(TemplateError):
        run("(deftemplate broken [?a ?a] (defclass ?a))")  # duplicate parameter
    with pytest.raises(TemplateError):
        run("(deftemplate broken [?a] (defclass ?b))")  # unknown body variable
    with pytest.raises(TemplateError):
        run("(deftemplate broken [?a & ?r ?x] (defclass ?a))")  # rest not last
    with pytest.raises(TemplateError):
        run("(deftemplate broken [& rest] (defclass ?rest))")  # rest without marker
    with pytest.raises(TemplateError):
        run(
            "(deftemplate one [?a] (defclass ?a))\n"
            "(deftemplate one [?b] (defclass ?b))"
        )  # duplicate template name
    with pytest.raises(TemplateError):
        run("(deftemplate broken)")


def test_template_each_must_iterate_the_rest_parameter():
    with pytest.raises(TemplateError):
        run(
            """
            (deftemplate broken [?a & ?rest]
              (defclass ?a (each ?a ?x (owlsome p ?x))))
            """
        )
    with pytest.raises(TemplateError):
        run("(deftemplate broken [?a] (defclass ?a (each ?a ?x ?x)))")


def test_a_malformed_each_is_an_error_at_template_definition():
    with pytest.raises(TemplateError) as err:
        run("(deftemplate broken [?a & ?rest]\n  (defclass ?a (each ?rest ?x)))")
    assert err.value.message == "each needs (each ?rest ?var form)"
    assert err.value.location == Location("<string>", 3, 16)
    with pytest.raises(TemplateError) as err:
        run("(deftemplate broken [?a & ?rest]\n  (defclass ?a (each ?rest x (owlsome p x))))")
    assert err.value.message == "each needs ?-markers for its variables"
    assert err.value.location == Location("<string>", 3, 16)


def test_template_rest_cannot_stand_alone():
    # a bare rest marker has no list to splice into
    with pytest.raises(TemplateError):
        run(
            """
            (deftemplate broken [& ?rest] ?rest)
            (broken [A])
            """
        )


def test_template_invocation_arity():
    text = "(deftemplate fixed [?a ?b] (defclass ?a :subclass ?b))\n(defclass P)\n"
    with pytest.raises(TemplateArity):
        run(text + "(fixed [OnlyOne])")
    with pytest.raises(TemplateArity):
        run(text + "(fixed [A P Extra])")
    with pytest.raises(TemplateArity):
        run(text + "(fixed)")
    with pytest.raises(TemplateArity):
        run(text + "(fixed A P)")  # groups must be brackets
    # a rest template accepts any count at or above the fixed params
    rest_text = "(deftemplate loose [?a & ?r] (defclass ?a))\n"
    run(rest_text + "(loose [X])")
    with pytest.raises(TemplateArity):
        run(rest_text + "(loose [])")


def test_template_names_resolve_after_definition_only():
    with pytest.raises(UnboundIdentifier):
        run("(undefined-template [A])")


def test_template_emits_existentials_plus_closure():
    env = run(
        """
        (defclass NamedPizza)
        (defoproperty hasTopping)
        (defclass Ham)
        (defclass Mushroom)
        (deftemplate generate-named-pizza [?name & ?toppings]
          (defclass ?name
            :subclass NamedPizza
                      (each ?toppings ?topping (owlsome hasTopping ?topping))
                      (owlonly hasTopping (owlor ?toppings))))
        (generate-named-pizza [Regina Ham Mushroom])
        """
    )
    from ontoforge.model import Only, Some

    prop = entity(env, "hasTopping")
    sups = {
        a.sup
        for a in env.ontology.axioms
        if isinstance(a, SubClassOf) and a.sub == named(env, "Regina")
    }
    assert sups == {
        named(env, "NamedPizza"),
        Some(prop, named(env, "Ham")),
        Some(prop, named(env, "Mushroom")),
        Only(prop, Or((named(env, "Ham"), named(env, "Mushroom")))),
    }


def test_a_template_that_applies_itself_stops_at_the_expansion_limit():
    with pytest.raises(TemplateError) as err:
        run("(deftemplate loop [?a] (loop [?a]))\n(loop [A])")
    assert err.value.message == f"template expansion deeper than {MAX_NESTING} levels"
    assert err.value.location == Location("<string>", 2, 24)


def template_chain(levels: int) -> str:
    """Templates t1..t<levels>, each applying the one before; t1 defines a class."""
    lines = ["(defclass B)", "(deftemplate t1 [?a] (defclass ?a :subclass B))"]
    lines += [f"(deftemplate t{i} [?a] (t{i - 1} [?a]))" for i in range(2, levels + 1)]
    lines.append(f"(t{levels} [A])")
    return "\n".join(lines)


def test_template_uses_nest_up_to_the_expansion_limit():
    env = run(template_chain(MAX_NESTING))
    assert SubClassOf(named(env, "A"), named(env, "B")) in env.ontology
    with pytest.raises(TemplateError) as err:
        run(template_chain(MAX_NESTING + 1))
    assert err.value.message == f"template expansion deeper than {MAX_NESTING} levels"


def test_template_instantiations_stop_at_the_budget():
    def source(groups: int) -> str:
        return "(deftemplate nop [?a])\n(nop" + " [A]" * groups + ")"

    run(source(MAX_INSTANTIATIONS))
    with pytest.raises(TemplateError) as err:
        run(source(MAX_INSTANTIATIONS + 1))
    assert err.value.message == f"more than {MAX_INSTANTIATIONS} template expansions"
    assert err.value.location == Location("<string>", 3, 1)


def test_spliced_arguments_nest_no_deeper_than_the_reader_allows():
    def source(levels: int) -> str:
        arg = "B"
        for _ in range(levels):
            arg = f"(owland B {arg})"
        return (
            "(defclass B)\n"
            "(deftemplate wrap [?a ?b] (defclass ?a :subclass (owland B (owland B ?b))))\n"
            f"(wrap [A {arg}])"
        )

    # defclass and the two owland forms of the body hold the argument 3 deep
    run(source(MAX_NESTING - 3))
    with pytest.raises(TemplateError) as err:
        run(source(MAX_NESTING - 2))
    assert err.value.message == f"expansion nests deeper than {MAX_NESTING} levels"
    assert err.value.location == Location("<string>", 4, 1)


def test_evaluation_leaves_every_read_form_as_read():
    # Template bodies are shared between expansions and forms are not frozen,
    # so nothing on the way from reading to running tests may assign to one.
    text = HEADER + """
    (defclass Pizza)
    (defoproperty hasTopping)
    (deftemplate topped [?name & ?toppings]
      (defclass ?name :subclass Pizza (each ?toppings ?t (owlsome hasTopping ?t))))
    (with-suffix Topping
      (as-disjoint-subclasses Pizza (defclass Ham) (defclass Mushroom)))
    (topped [Regina HamTopping MushroomTopping] [Funghi MushroomTopping])
    (deftest Toppings
      (is (isuperclass? Regina Pizza))
      (is (with-probe-entities [(p (owlclass "Probe" :subclass Funghi))] (isuperclass? p Pizza))))
    """
    forms = read_forms(text)
    every = []
    stack = list(forms)
    while stack:
        form = stack.pop()
        every.append(form)
        if isinstance(form, (ListForm, BracketForm)):
            stack.extend(form.children)

    def views():
        return [(strip_locations(f), f.offset, f.source) for f in every]

    before = views()
    env = eval_forms(Environment("piz"), forms)
    report = run_tests(env)
    assert (report.assertions, report.failures) == (2, [])
    assert "Regina" in env.bindings and "HamTopping" in env.bindings
    assert views() == before


def test_every_stated_axiom_comes_in_through_the_evaluator(monkeypatch, tmp_path):
    # Pattern forms drive evaluator primitives and never touch the ontology
    # themselves: every axiom but a declaration passes Evaluator.add_axioms.
    stated = set()
    add_axioms = Evaluator.add_axioms

    def recording(self, axioms, form):
        axioms = list(axioms)
        stated.update(axioms)
        return add_axioms(self, axioms, form)

    monkeypatch.setattr(Evaluator, "add_axioms", recording)
    (tmp_path / "base.ont").write_text(
        '(defontology base :iri "https://example.org/base#")\n(defclass Food)\n'
    )
    (tmp_path / "piz.ont").write_text(
        HEADER
        + """
        (use base)
        (defclass Pizza :subclass base/Food :label "pizza")
        (defoproperty hasTopping :characteristic :transitive)
        (deftemplate topped [?name & ?toppings]
          (defclass ?name :subclass Pizza (each ?toppings ?t (owlsome hasTopping ?t))))
        (with-suffix Topping
          (as-disjoint-subclasses Pizza :cover (defclass Ham) (defclass Mushroom)))
        (with-prefix Thin
          (defclass Crust :equivalent (owlclass "Dough" :comment "raw" :subclass Pizza)))
        (value-partition Spiciness [Mild Hot])
        (topped [Regina HamTopping MushroomTopping])
        """
    )
    env = Loader(tmp_path).load("piz")
    own = [axiom for axiom in env.ontology.axioms if not isinstance(axiom, Declaration)]
    assert {type(axiom).__name__ for axiom in own} == {
        "AnnotationAssertion",
        "DisjointClasses",
        "EquivalentClasses",
        "FunctionalObjectProperty",
        "Import",
        "ObjectPropertyRange",
        "SubClassOf",
        "TransitiveObjectProperty",
    }
    assert [axiom for axiom in own if axiom not in stated] == []


@pytest.mark.parametrize(
    "template, marker",
    [
        ("(deftemplate stray [?a] ?b)", "?b"),
        ("(deftemplate stray [?a] (defclass ?a :subclass ?b))", "?b"),
        ("(deftemplate stray [?a & ?r] (defclass ?a :subclass (each ?r ?x (owlsome ?y ?x))))", "?y"),
        ("(deftemplate stray [?a & ?r] (defclass ?a :subclass (each ?r ?x ?x) ?x))", "?x"),
    ],
    ids=["top-level", "in-a-list", "in-an-each-body", "each-variable-outside-its-each"],
)
def test_a_marker_no_parameter_binds_is_refused_when_the_template_is_defined(template, marker):
    # so no expansion meets a marker it cannot bind: substituted arguments are
    # not scanned again
    with pytest.raises(TemplateError) as err:
        run(template)
    assert err.value.message == f"unknown template variable '{marker}'"
    assert err.value.location == Location("<string>", 2, template.rindex(marker) + 1)
