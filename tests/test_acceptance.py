"""End-to-end gate over the whole toolkit.

Each test covers one acceptance criterion and records a PASS/FAIL line
that conftest prints as a scorecard after the run.
"""

import random
import time
from contextlib import contextmanager

import support
from el_oracle import el_subsumers
from support import (
    BUNDLED,
    forest_functional_text,
    pizza_env,
    random_el_ontology,
    random_full_ontology,
    random_probe_text,
)

from ontoforge.cli import main as cli_main
from ontoforge.evaluator import Evaluator, eval_text, resolve
from ontoforge.importer import (
    intern_external,
    label_to_identifier,
    memorise_check,
    memorise_save,
    parse_functional,
)
from ontoforge.model import Kind
from ontoforge.polyglot import apply_labels, emit_skeleton, parse_properties
from ontoforge.reasoner import Classifier, classify
from ontoforge.serializer import render_functional, render_omn
from ontoforge.sexpr import read_forms
from ontoforge.testkit import eval_assertion, run_tests


@contextmanager
def criterion(number, title, budget=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        support.ACCEPTANCE_RESULTS.append(f"FAIL {number:>2}. {title}")
        raise
    elapsed = time.perf_counter() - start
    if budget is not None and elapsed >= budget:
        support.ACCEPTANCE_RESULTS.append(
            f"FAIL {number:>2}. {title} ({elapsed:.2f}s, budget {budget:.0f}s)"
        )
        raise AssertionError(f"{title}: {elapsed:.2f}s exceeds the {budget:.0f}s budget")
    support.ACCEPTANCE_RESULTS.append(f"PASS {number:>2}. {title} ({elapsed:.2f}s)")


THIN_FRAME = (
    "Class: piz:ThinAndCrispyBase\n"
    "    Annotations: \n"
    '        rdfs:label "BaseFinaEQuebradica"@pt\n'
    "    SubClassOf: \n"
    "        piz:PizzaBase\n"
    "    DisjointWith: \n"
    "        piz:DeepPanBase"
)

DEEP_FRAME = (
    "Class: piz:DeepPanBase\n"
    "    Annotations: \n"
    '        rdfs:label "BaseEspessa"@pt\n'
    "    SubClassOf: \n"
    "        piz:PizzaBase\n"
    "    DisjointWith: \n"
    "        piz:ThinAndCrispyBase"
)


def test_criterion_01_base_block_renders_the_reference_frames():
    with criterion(1, "disjoint base block renders the two reference OMN frames", budget=1.0):
        frames = render_omn(pizza_env().ontology).split("\n\n")
        thin = frames.index(THIN_FRAME)
        assert frames[thin + 1] == DEEP_FRAME


def test_criterion_02_bundled_suite_passes():
    with criterion(2, "bundled test suite: 2 tests, 5 assertions, 0 failures", budget=2.0):
        report = run_tests(pizza_env())
        assert report.tests == 2
        assert report.assertions == 5
        assert report.failures == []


def test_criterion_03_reasoner_matches_the_oracle():
    with criterion(3, "classifier equals the brute-force oracle on 500 ontologies", budget=60.0):
        for seed in range(500):
            onto = random_el_ontology(random.Random(seed))
            assert classify(onto.axioms).subsumers == el_subsumers(onto.axioms), seed


def test_criterion_04_probe_blocks_restore_the_ontology():
    with criterion(4, "100 random probe blocks leave the ontology byte-identical"):
        env = pizza_env()
        classifier = Classifier(env.axiom_closure())
        before = render_functional(env.ontology)
        for seed in range(100):
            text = random_probe_text(random.Random(seed), env)
            (form,) = read_forms(text)
            eval_assertion(Evaluator(env), classifier, form)
            assert render_functional(env.ontology) == before, seed


def test_criterion_05_functional_round_trip():
    with criterion(5, "functional round trip is axiom-set-equal (bundled + 100 random)"):
        bundled = pizza_env().ontology
        assert set(parse_functional(render_functional(bundled)).axioms) == set(
            bundled.axioms
        )
        for seed in range(100):
            onto = random_full_ontology(random.Random(seed))
            assert set(parse_functional(render_functional(onto)).axioms) == set(
                onto.axioms
            ), seed


def test_criterion_06_label_identifier_mapping():
    with criterion(6, "label-to-identifier maps the documented examples"):
        assert label_to_identifier("has part") == "has_part"
        assert (
            label_to_identifier("provides service consumer with")
            == "provides_service_consumer_with"
        )


EXTERNAL_V1 = """\
Prefix(e:=<https://example.org/parts#>)
Ontology(<https://example.org/parts>
Declaration(Class(e:P1))
AnnotationAssertion(rdfs:label e:P1 "spare part"@en)
)
"""


def test_criterion_07_rename_produces_exactly_one_deprecated_alias():
    with criterion(7, "a label rename yields one deprecated alias and one warning"):
        env = eval_text('(defontology shop :iri "https://example.org/shop#")', "shop")
        intern_external(env, parse_functional(EXTERNAL_V1), naming="label")
        saved = memorise_save(env, "https://example.org/parts")

        env = eval_text('(defontology shop :iri "https://example.org/shop#")', "shop")
        renamed = EXTERNAL_V1.replace("spare part", "replacement part")
        intern_external(env, parse_functional(renamed), naming="label")
        report = memorise_check(env, saved)
        assert report.deprecated == (
            ("spare_part", "replacement_part", "https://example.org/parts#P1"),
        )
        assert not report.vanished

        entity = resolve(env, "spare_part")
        assert entity.iri.value == "https://example.org/parts#P1"
        mentions = [w for w in env.warnings if "'spare_part' is deprecated" in w.message]
        assert len(mentions) == 1
        assert "replacement_part" in mentions[0].message


def test_criterion_08_label_skeleton_loop_closes():
    with criterion(8, "skeleton -> fill -> apply covers every class, twice adds none"):
        env = pizza_env()
        own_classes = sum(
            1 for e in env.ontology.entities.values() if e.kind is Kind.CLASS
        )
        table = parse_properties(emit_skeleton(env, "eo"))
        filled = {key: f"nomo {i}" for i, key in enumerate(sorted(table))}
        report = apply_labels(env, filled, "eo")
        assert report.missing == ()
        assert report.unknown == ()
        assert report.added == own_classes
        again = apply_labels(env, filled, "eo")
        assert again.added == 0


def test_criterion_09_fifty_thousand_class_forest_under_a_minute():
    with criterion(9, "50k-class forest parses, interns by label, classifies", budget=60.0):
        text = forest_functional_text(50_000)
        external = parse_functional(text, "forest.ofn")
        env = eval_text('(defontology host :iri "https://example.org/host#")', "host")
        added = intern_external(env, external, naming="label")
        assert added == 50_000
        taxonomy = classify(external.axioms)
        assert len(taxonomy.subsumers) == 50_000
        assert not taxonomy.unsatisfiable
        deepest = max(len(v) for v in taxonomy.subsumers.values())
        assert deepest == 12  # self + ten ancestors + owl:Thing


def test_criterion_10_compile_is_byte_deterministic(tmp_path, capsys):
    with criterion(10, "two compile runs produce byte-identical outputs"):
        out1, out2 = tmp_path / "one", tmp_path / "two"
        for out in (out1, out2):
            code = cli_main(["compile", "--src", str(BUNDLED), "--out", str(out)])
            assert code == 0
        capsys.readouterr()
        for suffix in (".omn", ".ofn"):
            first = (out1 / "pizza").with_suffix(suffix).read_bytes()
            second = (out2 / "pizza").with_suffix(suffix).read_bytes()
            assert first == second
