"""Tests for assertions, probe blocks, per-state taxonomies, and TAP output."""

import random

import pytest

from ontoforge import cli, reasoner, testkit
from ontoforge.evaluator import Evaluator, eval_text
from ontoforge.model import Kind
from ontoforge.reasoner import Classifier, classify
from ontoforge.serializer import render_functional
from ontoforge.sexpr import read_forms
from ontoforge.testkit import (
    TestSyntax,
    eval_assertion,
    run_probe_block,
    run_tests,
    tap_lines,
)
from support import pizza_env, random_el_ontology, random_probe_text

BASE = "https://example.org/piz#"
HEADER = f'(defontology piz :iri "{BASE}" :prefix "piz")\n'


def run(text: str):
    return eval_text(HEADER + text, "piz")


def one_form(text: str):
    forms = read_forms(text)
    assert len(forms) == 1
    return forms[0]


def check(env, text: str, classifier=None) -> bool:
    classifier = classifier or Classifier(env.axiom_closure())
    return eval_assertion(Evaluator(env), classifier, one_form(text))


SMALL = """
(defclass Pizza)
(defclass Margherita :subclass Pizza)
(defclass IceCream :disjoint Pizza)
"""


# --- assertions --------------------------------------------------------------


def test_isuperclass_queries_the_inferred_hierarchy():
    env = run(SMALL + "(defclass Extra :subclass Margherita)")
    assert check(env, "(isuperclass? Extra Pizza)")
    assert check(env, "(isuperclass? Margherita Pizza)")
    assert not check(env, "(isuperclass? Pizza Margherita)")
    # the strict reading: a class is not its own superclass here
    assert not check(env, "(isuperclass? Pizza Pizza)")


def test_coherent_reflects_unsatisfiable_classes():
    env = run(SMALL)
    assert check(env, "(coherent?)")
    env2 = run(SMALL + "(defclass Impossible :subclass Pizza IceCream)")
    assert not check(env2, "(coherent?)")


def test_not_negates():
    env = run(SMALL)
    assert check(env, "(not (isuperclass? Pizza Margherita))")
    assert not check(env, "(not (coherent?))")


def test_assertion_syntax_errors():
    env = run(SMALL)
    for text in (
        "(isuperclass? Pizza)",
        "(coherent? Pizza)",
        "(not)",
        "(not (coherent?) (coherent?))",
        "(mystery?)",
        "(with-probe-entities (coherent?))",
    ):
        with pytest.raises(TestSyntax):
            check(env, text)


def test_assertions_resolve_identifiers_strictly():
    from ontoforge.evaluator import UnboundIdentifier

    env = run(SMALL)
    with pytest.raises(UnboundIdentifier):
        check(env, "(isuperclass? Ghost Pizza)")


# --- probe blocks ------------------------------------------------------------


def test_probe_block_sees_probe_subsumptions():
    env = run(SMALL)
    assert check(
        env,
        '(with-probe-entities [(p (owlclass "Probe" :subclass Margherita))]'
        " (isuperclass? p Pizza))",
    )


def test_probe_block_detects_incoherence_without_keeping_it():
    env = run(SMALL)
    before = render_functional(env.ontology)
    assert check(
        env,
        '(not (with-probe-entities [(p (owlclass "Probe" :subclass Pizza IceCream))]'
        " (coherent?)))",
    )
    assert render_functional(env.ontology) == before
    assert check(env, "(coherent?)")


def test_probe_block_restores_ontology_bytes_and_revision():
    env = run(SMALL)
    before_text = render_functional(env.ontology)
    before_mark = env.ontology.mark()
    check(
        env,
        '(with-probe-entities [(a (owlclass "ProbeA" :subclass Pizza))'
        ' (b (owlclass "ProbeB" :subclass Margherita (owlclass "Inner" :subclass Pizza)))]'
        " (isuperclass? b Pizza))",
    )
    # classes declared inside a binding's own expression are dropped too
    assert render_functional(env.ontology) == before_text
    assert env.ontology.mark() == before_mark


def test_probe_block_restores_on_body_errors():
    env = run(SMALL)
    before = render_functional(env.ontology)
    with pytest.raises(TestSyntax):
        check(
            env,
            '(with-probe-entities [(p (owlclass "Probe" :subclass Pizza))] (broken?))',
        )
    assert render_functional(env.ontology) == before


def test_probe_names_are_block_scoped():
    from ontoforge.evaluator import UnboundIdentifier

    env = run(SMALL)
    check(
        env,
        '(with-probe-entities [(p (owlclass "Probe" :subclass Pizza))] (coherent?))',
    )
    with pytest.raises(UnboundIdentifier):
        check(env, "(isuperclass? p Pizza)")


def test_nested_probe_blocks_restore_in_order():
    env = run(SMALL)
    before = render_functional(env.ontology)
    assert check(
        env,
        '(with-probe-entities [(outer (owlclass "Outer" :subclass Pizza))]'
        ' (with-probe-entities [(inner (owlclass "Inner" :subclass outer))]'
        "  (isuperclass? inner Pizza)))",
    )
    assert render_functional(env.ontology) == before


def test_probe_collision_with_declared_entities_is_rejected():
    env = run(SMALL)
    with pytest.raises(TestSyntax) as err:
        check(
            env,
            '(with-probe-entities [(p (owlclass "Pizza" :subclass Margherita))] (coherent?))',
        )
    assert "collides" in str(err.value)


def test_probe_binding_shape_is_checked():
    env = run(SMALL)
    for text in (
        "(with-probe-entities [(p)] (coherent?))",
        "(with-probe-entities [p] (coherent?))",
        '(with-probe-entities [(p (defclass "X"))] (coherent?))',
        "(with-probe-entities [(p (owlclass))] (coherent?))",
        "(with-probe-entities [(p (owlclass Unquoted))] (coherent?))",
    ):
        with pytest.raises(TestSyntax):
            check(env, text)


def test_probe_blocks_leave_no_trace_on_random_inputs():
    env = pizza_env()
    rng = random.Random(321)
    classifier = Classifier(env.axiom_closure())
    before = render_functional(env.ontology)
    for _ in range(25):
        text = random_probe_text(rng, env)
        eval_assertion(Evaluator(env), classifier, one_form(text))
        assert render_functional(env.ontology) == before


def test_run_probe_block_function_directly():
    env = run(SMALL)
    bracket = one_form('[(p (owlclass "Probe" :subclass Margherita))]')
    body = one_form("(isuperclass? p Pizza)")
    classifier = Classifier(env.axiom_closure())
    assert run_probe_block(Evaluator(env), classifier, bracket.children, body) is True


# --- incremental probe blocks against classification from scratch --------------


def el_env(seed: int):
    """An env holding support.random_el_ontology(seed), its names bound."""
    onto = random_el_ontology(random.Random(seed))
    env = eval_text('(defontology gen :iri "https://example.org/gen#" :prefix "g")', "gen")
    env.ontology.add_axioms(onto.axioms)
    env.bindings.update({iri.rpartition("#")[2]: e for iri, e in onto.entities.items()})
    return env


def random_nested_probe(rng: random.Random, env, depth: int = 0, outer=()) -> str:
    """A probe block whose bindings use :subclass, :equivalent or :disjoint
    with owlsome/owland operands, whose body may be another block."""
    names = [n for n, e in sorted(env.bindings.items()) if e.kind is Kind.CLASS]
    roles = [n for n, e in sorted(env.bindings.items()) if e.kind is Kind.OBJECT_PROPERTY]
    local = [f"p{depth}_{i}" for i in range(rng.randint(1, 2))]

    def ce(scope):
        roll = rng.random()
        if roll < 0.5:
            return rng.choice(scope)
        if roll < 0.8:
            return f"(owlsome {rng.choice(roles)} {ce(scope)})"
        return f"(owland {ce(scope)} {ce(scope)})"

    bindings = []
    for i, name in enumerate(local):
        scope = names + list(outer) + local[:i]
        option = rng.choice([":subclass", ":equivalent", ":equivalent", ":disjoint"])
        if option == ":disjoint":
            operands = f"{rng.choice(names)} :subclass {ce(scope)}"
        else:
            operands = " ".join(ce(scope) for _ in range(rng.randint(1, 2)))
        bindings.append(f'({name} (owlclass "Probe{depth}_{i}" {option} {operands}))')
    scope = names + list(outer) + local
    if depth < 1 and rng.random() < 0.6:
        body = random_nested_probe(rng, env, depth + 1, (*outer, *local))
    elif rng.random() < 0.3:
        body = "(coherent?)"
    else:
        body = f"(isuperclass? {rng.choice(scope)} {rng.choice(scope)})"
    return f"(with-probe-entities [{' '.join(bindings)}] {body})"


def snapshot(saturation):
    return {
        name: {key: tuple(v) if isinstance(v, list) else frozenset(v) for key, v in table.items()}
        for name, table in vars(saturation).items()
        if name != "_trail"
    }


@pytest.mark.parametrize("source", ["pizza", "random-el"])
def test_incremental_probe_taxonomies_equal_classification_from_scratch(source, monkeypatch):
    plain_eval, plain_block = testkit.eval_assertion, testkit.run_probe_block
    checked = []

    def checking_eval(ev, classifier, form):
        scratch = classify(ev.env.axiom_closure())
        incremental = classifier.taxonomy()
        assert incremental.subsumers == scratch.subsumers
        assert incremental.unsatisfiable == scratch.unsatisfiable
        checked.append(1)
        return plain_eval(ev, classifier, form)

    def checking_block(ev, classifier, bindings, body):
        before = snapshot(classifier.saturation)
        try:
            return plain_block(ev, classifier, bindings, body)
        finally:
            assert snapshot(classifier.saturation) == before

    monkeypatch.setattr(testkit, "eval_assertion", checking_eval)
    monkeypatch.setattr(testkit, "run_probe_block", checking_block)
    for seed in range(30 if source == "pizza" else 100):
        env = pizza_env() if source == "pizza" else el_env(seed)
        classifier = Classifier(env.axiom_closure())
        rng = random.Random(seed)
        for _ in range(4):
            checking_eval(Evaluator(env), classifier, one_form(random_nested_probe(rng, env)))
    assert len(checked) > 300


OLD_CONTEXTS = """
(defoproperty hasBase)
(defoproperty hasTopping)
(defclass Base)
(defclass Pizza :subclass (owlsome hasBase Base))
(defclass Margherita :subclass Pizza)
(defclass IceCream :disjoint Pizza)
(defclass Impossible :subclass Pizza IceCream)
"""


@pytest.mark.parametrize("block, holds, unsatisfiable", [
    # fresh classes only: no old context runs again
    ('[(p (owlclass "P" :subclass Margherita))'
     ' (q (owlclass "Q" :subclass p (owlsome hasBase Base)))] (isuperclass? q Pizza)',
     True, {"Impossible"}),
    # old triggers Pizza and Base send the old contexts back
    ('[(p (owlclass "P" :equivalent (owland Pizza (owlsome hasBase Base))))]'
     " (isuperclass? Margherita p)", True, {"Impossible"}),
    # an edge into an old unsatisfiable class over a role no axiom used before
    ('[(p (owlclass "P" :subclass (owlsome hasTopping Impossible)))] (coherent?)',
     False, {"Impossible", "P"}),
])
def test_probes_on_old_contexts_equal_classification_from_scratch(
    block, holds, unsatisfiable, monkeypatch
):
    plain_eval = testkit.eval_assertion
    probed = []

    def checking_eval(ev, classifier, form):
        scratch = classify(ev.env.axiom_closure())
        incremental = classifier.taxonomy()
        assert incremental.subsumers == scratch.subsumers
        assert incremental.unsatisfiable == scratch.unsatisfiable
        probed.append(incremental.unsatisfiable)
        return plain_eval(ev, classifier, form)

    monkeypatch.setattr(testkit, "eval_assertion", checking_eval)
    env = run(OLD_CONTEXTS)
    classifier = Classifier(env.axiom_closure())
    before = snapshot(classifier.saturation)
    form = one_form(f"(with-probe-entities {block})")
    assert checking_eval(Evaluator(env), classifier, form) is holds
    assert probed[-1] == {BASE + name for name in unsatisfiable}
    assert snapshot(classifier.saturation) == before


# --- one taxonomy per ontology state -------------------------------------------


def test_probe_results_never_leak_through_the_cache():
    env = run(SMALL)
    classifier = Classifier(env.axiom_closure())
    base = classifier.taxonomy()
    check(env, "(coherent?)", classifier)
    assert check(
        env,
        '(not (with-probe-entities [(p (owlclass "Probe" :subclass Pizza IceCream))]'
        " (coherent?)))",
        classifier,
    )
    # undoing the block restores the base taxonomy, which stays clean
    scratch = classify(env.axiom_closure())
    assert classifier.taxonomy().subsumers == scratch.subsumers
    assert classifier.taxonomy().unsatisfiable == scratch.unsatisfiable
    assert base.subsumers == scratch.subsumers
    assert not base.unsatisfiable
    assert BASE + "Probe" not in base.subsumers


PROBED_SUITE = SMALL + """
(deftest Plain
  (is (isuperclass? Margherita Pizza))
  (is (coherent?))
  (is (not (isuperclass? Pizza Margherita))))
(deftest Probed
  (is (with-probe-entities [(p (owlclass "P1" :subclass Margherita))] (isuperclass? p Pizza)))
  (is (coherent?))
  (is (not (with-probe-entities [(p (owlclass "P2" :subclass Pizza IceCream))] (coherent?))))
  (is (with-probe-entities [(p (owlclass "P3"))] (not (isuperclass? p Pizza)))))
"""


def test_one_full_classification_per_run_tests_none_per_probe_block(
    monkeypatch, tmp_path, capsys
):
    classified, built = [], []

    def counted(axioms):
        classified.append(1)
        return classify(axioms)

    class CountedSaturation(reasoner.Saturation):
        def __init__(self):
            built.append(1)
            super().__init__()

    monkeypatch.setattr(reasoner, "classify", counted)
    monkeypatch.setattr(cli, "classify", counted)
    monkeypatch.setattr(reasoner, "Saturation", CountedSaturation)
    report = run_tests(run(PROBED_SUITE))
    assert report.ok and report.assertions == 7
    assert (len(classified), len(built)) == (0, 1)

    classified.clear()
    built.clear()
    (tmp_path / "piz.ont").write_text(HEADER + PROBED_SUITE, encoding="utf-8")
    assert cli.main(["test", "--src", str(tmp_path)]) == 0
    assert capsys.readouterr().out.endswith("# 2 tests, 7 assertions, 0 failures\n")
    assert (len(classified), len(built)) == (0, 1)


# --- run_tests and TAP -------------------------------------------------------------


def test_run_tests_counts_tests_and_assertions():
    env = run(
        SMALL
        + """
        (deftest Hierarchy
          (is (isuperclass? Margherita Pizza))
          (is (coherent?)))
        (deftest Separation
          (is (not (isuperclass? IceCream Pizza))))
        """
    )
    report = run_tests(env)
    assert report.tests == 2
    assert report.assertions == 3
    assert report.ok
    assert tap_lines(env, report) == ["ok 1 Hierarchy", "ok 2 Separation"]


def test_run_tests_reports_failures_with_position():
    env = run(
        SMALL
        + """
        (deftest Mixed
          (is (coherent?))
          (is (isuperclass? Pizza Margherita))
          (is (isuperclass? Margherita Pizza)))
        """
    )
    report = run_tests(env)
    assert report.tests == 1
    assert report.assertions == 3
    assert not report.ok
    assert len(report.failures) == 1
    failure = report.failures[0]
    assert failure.test == "Mixed"
    assert failure.assertion == 2
    lines = tap_lines(env, report)
    assert len(lines) == 1
    assert lines[0].startswith("not ok 1 Mixed (assertion 2 at ")
    assert lines[0].endswith(f":{failure.location.line})")


def test_tap_reports_only_the_first_failure_per_test():
    env = run(
        SMALL
        + """
        (deftest DoubleTrouble
          (is (isuperclass? Pizza Margherita))
          (is (isuperclass? Pizza IceCream)))
        """
    )
    report = run_tests(env)
    assert len(report.failures) == 2
    lines = tap_lines(env, report)
    assert len(lines) == 1
    assert "(assertion 1 at" in lines[0]


def test_test_bodies_must_be_is_forms():
    env = run(SMALL + "(deftest Wrong (coherent?))")
    with pytest.raises(TestSyntax):
        run_tests(env)
    env2 = run(SMALL + "(deftest Wrong (is (coherent?) (coherent?)))")
    with pytest.raises(TestSyntax):
        run_tests(env2)


def test_a_test_body_element_that_is_not_a_list_is_an_error():
    env = run(SMALL + "(deftest Wrong\n  Pizza)")
    with pytest.raises(TestSyntax) as err:
        run_tests(env)
    assert err.value.message == "expected an assertion form"
    assert (err.value.location.line, err.value.location.column) == (7, 3)


def test_bundled_suite_is_green():
    env = pizza_env()
    report = run_tests(env)
    assert report.tests == 2
    assert report.assertions == 5
    assert report.ok
    lines = tap_lines(env, report)
    assert len(lines) == 2
    assert all(line.startswith("ok ") for line in lines)
