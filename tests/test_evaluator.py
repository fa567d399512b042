"""Tests for the form evaluator, namespace loading, and the use/read-external forms."""

from pathlib import Path

import pytest

import ontoforge
from ontoforge.errors import Diagnostic, Location, Source
from ontoforge.evaluator import (
    CycleError,
    DuplicateOntology,
    EvalError,
    Loader,
    NamespaceNotFound,
    UnboundIdentifier,
    UnknownOption,
    _CLASS_OPTIONS,
    _PROPERTY_OPTIONS,
    eval_text,
    resolve,
)
from ontoforge.model import (
    AnnotationAssertion,
    AnnotationValue,
    And,
    Declaration,
    DisjointClasses,
    EquivalentClasses,
    FunctionalObjectProperty,
    Import,
    IRI,
    Kind,
    Named,
    Not,
    ObjectPropertyDomain,
    ObjectPropertyRange,
    Only,
    Or,
    RDFS_COMMENT,
    RDFS_LABEL,
    Some,
    SubClassOf,
    SubObjectPropertyOf,
    TransitiveObjectProperty,
)

BASE = "https://example.org/piz#"
HEADER = f'(defontology piz :iri "{BASE}" :prefix "piz")\n'


def run(text: str):
    return eval_text(HEADER + text, "piz")


# --- defontology -------------------------------------------------------------


def test_defontology_sets_iri_prefix_and_name():
    env = run("")
    assert env.ontology.iri == IRI(BASE)
    assert env.ontology.prefixes == {"piz": BASE}
    # the name is the namespace of a text evaluated without one
    assert eval_text(HEADER).namespace == "piz"


def test_defontology_must_come_first():
    with pytest.raises(EvalError) as err:
        eval_text("(defclass Pizza)", "piz")
    assert "first form must be (defontology" in str(err.value)


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_eval_text_error_lines_break_at_every_line_end(newline):
    # a lone \r ends a line, as \n and \r\n do
    text = newline.join([HEADER.rstrip(), "(defclass Pizza)", "  (defclass Calzone :subclass Nope)"])
    with pytest.raises(UnboundIdentifier) as err:
        eval_text(text, "piz", "cr.ont")
    assert err.value.location == Location("cr.ont", 3, 31)


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_eval_text_reads_every_form_after_a_comment(newline):
    text = newline.join([HEADER.rstrip() + " ; head", "(defclass Pizza) ;", "(defclass Calzone)"])
    env = eval_text(text, "piz")
    assert [iri for iri in env.ontology.entities if iri.startswith(BASE)] == [
        BASE + "Pizza", BASE + "Calzone"
    ]


def test_namespace_without_ontology_is_an_error():
    with pytest.raises(EvalError):
        eval_text("", "piz")


def test_defontology_appears_once():
    with pytest.raises(DuplicateOntology):
        run('(defontology again :iri "https://example.org/x#")')


def test_defontology_requires_iri():
    with pytest.raises(EvalError) as err:
        eval_text('(defontology piz :prefix "piz")', "piz")
    assert ":iri" in str(err.value)
    with pytest.raises(EvalError):
        eval_text('(defontology piz :iri "not absolute")', "piz")


def test_defontology_derives_a_prefix_when_missing():
    env = eval_text('(defontology pizza :iri "https://example.org/pizza#")', "pizza")
    assert env.ontology.prefixes == {"pizza": "https://example.org/pizza#"}


def test_defontology_validates_the_prefix_label():
    with pytest.raises(EvalError):
        eval_text('(defontology piz :iri "https://x.org/a#" :prefix "a b")', "piz")


# --- binding and definition ---------------------------------------------------


def test_defclass_builds_the_iri_from_ontology_iri_plus_name():
    env = run("(defclass DeepPanBase)")
    entity = env.bindings["DeepPanBase"]
    assert entity.iri == IRI(BASE + "DeepPanBase")
    assert entity.kind is Kind.CLASS
    assert Declaration(entity) in env.ontology


def test_define_before_use_is_enforced():
    with pytest.raises(UnboundIdentifier):
        run("(defclass Margherita :subclass Pizza)")
    env = run("(defclass Pizza)\n(defclass Margherita :subclass Pizza)")
    assert SubClassOf(
        Named(env.bindings["Margherita"]), Named(env.bindings["Pizza"])
    ) in env.ontology


def test_references_check_entity_kind():
    with pytest.raises(EvalError) as err:
        run("(defoproperty hasBase)\n(defclass A :subclass hasBase)")
    assert "not a class" in str(err.value)
    with pytest.raises(EvalError) as err:
        run("(defclass B)\n(defclass A :subclass (owlsome B B))")
    assert "not an object property" in str(err.value)


def test_class_options_produce_axioms():
    env = run(
        """
        (defclass Pizza)
        (defclass Base)
        (defoproperty hasBase)
        (defclass Margherita
          :label "Margherita"
          :comment "the classic"
          :annotation (label "BaseIsima" "pt") (comment "plain note")
          :subclass Pizza (owlsome hasBase Base)
          :disjoint Base)
        """
    )
    m = env.bindings["Margherita"]
    onto = env.ontology
    assert AnnotationAssertion(m.iri, RDFS_LABEL, AnnotationValue("Margherita", "en")) in onto
    assert AnnotationAssertion(m.iri, RDFS_COMMENT, AnnotationValue("the classic", "en")) in onto
    assert AnnotationAssertion(m.iri, RDFS_LABEL, AnnotationValue("BaseIsima", "pt")) in onto
    assert AnnotationAssertion(m.iri, RDFS_COMMENT, AnnotationValue("plain note", None)) in onto
    assert SubClassOf(Named(m), Named(env.bindings["Pizza"])) in onto
    assert SubClassOf(Named(m), Some(env.bindings["hasBase"], Named(env.bindings["Base"]))) in onto
    assert DisjointClasses((m, env.bindings["Base"])) in onto


def test_equivalent_option_wraps_entity_and_values():
    env = run(
        """
        (defclass Pizza)
        (defoproperty hasTopping)
        (defclass Cheesy :equivalent (owland Pizza (owlsome hasTopping Pizza)))
        """
    )
    cheesy = env.bindings["Cheesy"]
    expected = EquivalentClasses(
        (
            Named(cheesy),
            And(
                (
                    Named(env.bindings["Pizza"]),
                    Some(env.bindings["hasTopping"], Named(env.bindings["Pizza"])),
                )
            ),
        )
    )
    assert expected in env.ontology


def test_unknown_options_are_rejected():
    with pytest.raises(UnknownOption):
        run('(defclass A :lable "typo")')
    with pytest.raises(UnknownOption):
        run("(defclass B)\n(defclass A :subclass :oops B)")
    with pytest.raises(UnknownOption):
        run('(defoproperty p :cover "x")')


@pytest.mark.parametrize(
    "form, keywords",
    [
        ("(defclass C :{} A)", _PROPERTY_OPTIONS - _CLASS_OPTIONS),
        ('(defclass C :subclass (owlclass "D" :{} A))', _PROPERTY_OPTIONS - _CLASS_OPTIONS),
        ("(defoproperty p :{} A)", _CLASS_OPTIONS - _PROPERTY_OPTIONS),
    ],
    ids=["defclass", "owlclass", "defoproperty"],
)
def test_each_form_refuses_the_options_of_the_other_kind(form, keywords):
    assert keywords
    for keyword in sorted(keywords):
        line = form.format(keyword)
        with pytest.raises(UnknownOption) as err:
            run("(defclass A)\n" + line)
        assert err.value.message == f"unknown option ':{keyword}'"
        assert err.value.location.line == 3
        assert err.value.location.column == line.index(f":{keyword}") + 1


def test_option_values_are_required():
    with pytest.raises(EvalError):
        run("(defclass A :subclass)")
    with pytest.raises(EvalError):
        run('(defclass A "stray value")')


def test_property_options_produce_axioms():
    env = run(
        """
        (defclass Pizza)
        (defclass Topping)
        (defoproperty hasIngredient :characteristic :transitive)
        (defoproperty hasTopping
          :label "has topping"
          :domain Pizza
          :range Topping
          :subproperty hasIngredient
          :characteristic :functional)
        """
    )
    p = env.bindings["hasTopping"]
    onto = env.ontology
    assert ObjectPropertyDomain(p, Named(env.bindings["Pizza"])) in onto
    assert ObjectPropertyRange(p, Named(env.bindings["Topping"])) in onto
    assert SubObjectPropertyOf(p, env.bindings["hasIngredient"]) in onto
    assert FunctionalObjectProperty(p) in onto
    assert TransitiveObjectProperty(env.bindings["hasIngredient"]) in onto


def test_characteristic_values_are_checked():
    with pytest.raises(EvalError) as err:
        run("(defoproperty p :characteristic :reflexive)")
    assert ":functional or :transitive" in str(err.value)


# --- class expressions ----------------------------------------------------------


def test_owland_owlor_collapse_single_operands():
    env = run(
        """
        (defclass A)
        (defclass B)
        (defclass One :subclass (owland A))
        (defclass Two :subclass (owlor A))
        (defclass Three :subclass (owlor A B))
        """
    )
    onto = env.ontology
    a = Named(env.bindings["A"])
    b = Named(env.bindings["B"])
    assert SubClassOf(Named(env.bindings["One"]), a) in onto
    assert SubClassOf(Named(env.bindings["Two"]), a) in onto
    assert SubClassOf(Named(env.bindings["Three"]), Or((a, b))) in onto


def test_owlnot_and_owlonly():
    env = run(
        """
        (defclass A)
        (defoproperty p)
        (defclass B :subclass (owlnot A) (owlonly p A))
        """
    )
    onto = env.ontology
    b = Named(env.bindings["B"])
    a = Named(env.bindings["A"])
    assert SubClassOf(b, Not(a)) in onto
    assert SubClassOf(b, Only(env.bindings["p"], a)) in onto


def test_ce_arity_errors():
    for text in (
        "(defclass A :subclass (owland))",
        "(defclass A :subclass (owlnot))",
        "(defclass B)\n(defclass A :subclass (owlnot B B))",
        "(defoproperty p)\n(defclass A :subclass (owlsome p))",
        "(defclass A :subclass (unknownform A))",
    ):
        with pytest.raises(EvalError):
            run(text)


def test_owlclass_declares_without_binding():
    env = run(
        """
        (defclass Pizza)
        (defclass A :subclass (owlclass "Fresh" :subclass Pizza))
        """
    )
    fresh = env.ontology.entities[BASE + "Fresh"]
    assert "Fresh" not in env.bindings
    assert SubClassOf(Named(fresh), Named(env.bindings["Pizza"])) in env.ontology
    assert SubClassOf(Named(env.bindings["A"]), Named(fresh)) in env.ontology


def test_owlclass_requires_a_clean_text_name():
    with pytest.raises(EvalError):
        run('(defclass A :subclass (owlclass "not a name"))')
    with pytest.raises(EvalError):
        run("(defclass B)\n(defclass A :subclass (owlclass B))")


# --- deftest ----------------------------------------------------------------------


def test_deftest_stores_the_body_without_evaluating():
    env = run(
        """
        (defclass Pizza)
        (deftest Unrun
          (is (isuperclass? NeverDefined Pizza))
          (is (coherent?)))
        """
    )
    assert [t.name for t in env.tests] == ["Unrun"]
    assert len(env.tests[0].body) == 2


def test_deftest_names_are_unique():
    with pytest.raises(EvalError) as err:
        run("(deftest T (is (coherent?)))\n(deftest T (is (coherent?)))")
    assert "duplicate test name" in str(err.value)


# --- top-level shape ------------------------------------------------------------------


def test_top_level_forms_must_be_lists_with_identifier_heads():
    with pytest.raises(EvalError):
        eval_text("just-an-atom", "x")
    with pytest.raises(EvalError):
        eval_text('("text head")', "x")
    with pytest.raises(UnboundIdentifier):
        run("(mystery-form A)")


# --- use and the loader -----------------------------------------------------------


def write_tree(root, files: dict[str, str]) -> None:
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


BASE_ONT = (
    '(defontology base :iri "https://example.org/base#" :prefix "base")\n'
    "(defclass Food)\n"
    "(defoproperty hasPart)\n"
)


def test_use_brings_in_qualified_bindings(tmp_path):
    write_tree(
        tmp_path,
        {
            "base.ont": BASE_ONT,
            "menu.ont": (
                '(defontology menu :iri "https://example.org/menu#" :prefix "menu")\n'
                "(use base)\n"
                "(defclass Pizza :subclass base/Food (owlsome base/hasPart base/Food))\n"
            ),
        },
    )
    env = Loader(tmp_path).load("menu")
    assert env.bindings["base/Food"].iri == IRI("https://example.org/base#Food")
    assert Import(IRI("https://example.org/base#")) in env.ontology
    assert "https://example.org/base#Food" in env.ontology.imported
    assert env.ontology.prefixes["base"] == "https://example.org/base#"
    # used entities stay foreign: no local declaration
    assert "https://example.org/base#Food" not in env.ontology.entities


def test_use_does_not_reexport_transitive_names(tmp_path):
    write_tree(
        tmp_path,
        {
            "a.ont": BASE_ONT.replace("base", "a"),
            "b.ont": (
                '(defontology b :iri "https://example.org/b#" :prefix "b")\n'
                "(use a)\n"
                "(defclass Bread :subclass a/Food)\n"
            ),
            "c.ont": (
                '(defontology c :iri "https://example.org/c#" :prefix "c")\n'
                "(use b)\n"
            ),
        },
    )
    env = Loader(tmp_path).load("c")
    assert "b/Bread" in env.bindings
    assert "a/Food" not in env.bindings
    assert "b/a/Food" not in env.bindings


def test_use_merges_prefixes_with_suffixes_on_collision(tmp_path):
    write_tree(
        tmp_path,
        {
            "dep.ont": '(defontology dep :iri "https://example.org/dep#" :prefix "piz")\n',
            "main.ont": (
                '(defontology main :iri "https://example.org/main#" :prefix "piz")\n'
                "(use dep)\n"
            ),
        },
    )
    env = Loader(tmp_path).load("main")
    assert env.ontology.prefixes["piz"] == "https://example.org/main#"
    assert env.ontology.prefixes["piz2"] == "https://example.org/dep#"


def test_use_axiom_closure_spans_dependencies(tmp_path):
    write_tree(
        tmp_path,
        {
            "base.ont": BASE_ONT,
            "menu.ont": (
                '(defontology menu :iri "https://example.org/menu#" :prefix "menu")\n'
                "(use base)\n"
                "(defclass Pizza :subclass base/Food)\n"
            ),
        },
    )
    env = Loader(tmp_path).load("menu")
    closure = env.axiom_closure()
    assert Declaration(env.bindings["base/Food"]) in closure
    assert any(isinstance(a, SubClassOf) for a in closure)


def test_loader_resolves_dotted_namespaces(tmp_path):
    write_tree(
        tmp_path,
        {
            "take/away.ont": '(defontology away :iri "https://example.org/ta#")\n',
        },
    )
    env = Loader(tmp_path).load("take.away")
    assert env.namespace == "take.away"


def test_loader_caches_by_namespace(tmp_path):
    write_tree(tmp_path, {"base.ont": BASE_ONT})
    loader = Loader(tmp_path)
    assert loader.load("base") is loader.load("base")


PATTERNS_ONT = """\
(defontology shop :iri "https://example.org/shop#" :prefix "shop")
(defoproperty hasPart)
(defclass Part)
(as-disjoint-subclasses Part :cover
  (defclass Wheel)
  (defclass Frame))
(value-partition Size [Small Medium Large])
(with-suffix Bike
  (defclass Road :subclass (owlsome hasPart Wheel) :disjoint Part)
  (with-prefix Hill
    (defclass Mountain :subclass Road)))
(deftemplate kit [?name & ?parts]
  (defclass ?name :subclass (owland (each ?parts ?p (owlsome hasPart ?p)))))
(kit [Repair Wheel Frame] [Spare Wheel])
(deftest Sizes
  (is (isuperclass? Small Size))
  (is (isuperclass? HillMountainBike RoadBike)))
"""


def test_a_successful_load_resolves_almost_no_locations(monkeypatch, tmp_path):
    resolved = 0
    locate = Source.location

    def counting(self, offset):
        nonlocal resolved
        resolved += 1
        return locate(self, offset)

    monkeypatch.setattr(Source, "location", counting)
    pizza = Loader(Path(ontoforge.__file__).parent / "bundled").load("pizza")
    assert len(pizza.ontology.axioms) == 97 and resolved <= 5
    resolved = 0
    write_tree(tmp_path, {"shop.ont": PATTERNS_ONT})
    shop = Loader(tmp_path).load("shop")
    assert {"RoadBike", "HillMountainBike", "hasSize", "Repair", "Spare"} <= set(shop.bindings)
    assert shop.templates and shop.tests
    assert resolved <= 5


def test_loader_missing_namespace(tmp_path):
    with pytest.raises(NamespaceNotFound) as err:
        Loader(tmp_path).load("nowhere")
    assert "nowhere" in str(err.value)


def test_loader_reports_cycles(tmp_path):
    write_tree(
        tmp_path,
        {
            "a.ont": '(defontology a :iri "https://example.org/a#")\n(use b)\n',
            "b.ont": '(defontology b :iri "https://example.org/b#")\n(use a)\n',
        },
    )
    with pytest.raises(CycleError) as err:
        Loader(tmp_path).load("a")
    assert "cyclic use: a -> b -> a" in str(err.value)


def test_use_requires_a_loader():
    with pytest.raises(EvalError) as err:
        run("(use base)")
    assert "loader" in str(err.value)


# --- read-external ------------------------------------------------------------------


EXTERNAL_OFN = (
    "Prefix(e:=<https://example.org/ext#>)\n"
    "Ontology(<https://example.org/ext>\n"
    "Declaration(Class(e:Part))\n"
    "Declaration(Class(e:Whole))\n"
    'AnnotationAssertion(rdfs:label e:Part "spare part"@en)\n'
    ")\n"
)


def test_read_external_defaults_to_fragment_naming(tmp_path):
    write_tree(
        tmp_path,
        {
            "ext.ofn": EXTERNAL_OFN,
            "menu.ont": (
                '(defontology menu :iri "https://example.org/menu#" :prefix "menu")\n'
                '(read-external "ext.ofn")\n'
                "(defclass Pizza :subclass Part)\n"
            ),
        },
    )
    env = Loader(tmp_path).load("menu")
    assert env.bindings["Part"].iri == IRI("https://example.org/ext#Part")
    assert "https://example.org/ext" in env.interned


def test_read_external_label_naming(tmp_path):
    write_tree(
        tmp_path,
        {
            "ext.ofn": EXTERNAL_OFN,
            "menu.ont": (
                '(defontology menu :iri "https://example.org/menu#" :prefix "menu")\n'
                '(read-external "ext.ofn" :naming :label)\n'
            ),
        },
    )
    env = Loader(tmp_path).load("menu")
    assert env.bindings["spare_part"].iri == IRI("https://example.org/ext#Part")


def test_read_external_prefix_filter(tmp_path):
    write_tree(
        tmp_path,
        {
            "ext.ofn": EXTERNAL_OFN,
            "menu.ont": (
                '(defontology menu :iri "https://example.org/menu#" :prefix "menu")\n'
                '(read-external "ext.ofn" :prefix "https://example.org/ext#P")\n'
            ),
        },
    )
    env = Loader(tmp_path).load("menu")
    assert "Part" in env.bindings
    assert "Whole" not in env.bindings


def test_read_external_paths_resolve_against_the_source_file(tmp_path):
    write_tree(
        tmp_path,
        {
            "sub/ext.ofn": EXTERNAL_OFN,
            "sub/menu.ont": (
                '(defontology menu :iri "https://example.org/menu#" :prefix "menu")\n'
                '(read-external "ext.ofn")\n'
            ),
        },
    )
    env = Loader(tmp_path).load("sub.menu")
    assert "Part" in env.bindings


def test_read_external_option_validation():
    with pytest.raises(EvalError):
        run('(read-external "x.ofn" :naming :guess)')
    with pytest.raises(EvalError):
        run("(read-external)")


# --- deprecation ---------------------------------------------------------------------


def test_resolve_prefers_live_bindings_over_aliases():
    from ontoforge.evaluator import DeprecatedAlias

    env = run("(defclass Pizza)")
    env.deprecated["Pizza"] = DeprecatedAlias("Pizza", "Elsewhere", env.bindings["Pizza"])
    before = len(env.warnings)
    resolve(env, "Pizza")
    assert len(env.warnings) == before


def test_resolve_warns_once_per_deprecated_lookup():
    from ontoforge.evaluator import DeprecatedAlias

    env = run("(defclass NewName)")
    env.deprecated["OldName"] = DeprecatedAlias("OldName", "NewName", env.bindings["NewName"])
    entity = resolve(env, "OldName")
    assert entity == env.bindings["NewName"]
    assert len(env.warnings) == 1
    message = env.warnings[0].message
    assert "label has changed" in message
    assert "'OldName' is deprecated" in message
    assert "use 'NewName'" in message
