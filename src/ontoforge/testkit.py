"""Running the unit tests an ontology declares about itself.

`deftest` bodies are lists of `(is ...)` assertions over the classified
ontology. Probe blocks add throwaway entities, evaluate one assertion against
the probed ontology, and then roll the ontology back to its mark from before
the block, so it is structurally identical before and after, even on error.

`run_tests` classifies the base ontology once. A probe block extends that
classification with its own axioms and undoes the extension on the way out.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import Location, OntoforgeError
from .evaluator import Environment, Evaluator
from .model import Kind
from .reasoner import Classifier, SkippedAxiom, UnknownEntity, coherence_report, inferred_superclass
from .sexpr import BracketForm, Form, Identifier, ListForm, Text, is_valid_identifier


class TestSyntax(OntoforgeError):
    pass


@dataclass(frozen=True)
class TestFailure:
    test: str
    assertion: int
    location: Location


@dataclass
class TestReport:
    tests: int = 0
    assertions: int = 0
    failures: list[TestFailure] = field(default_factory=list)
    # sorted IRIs of the unprobed ontology's unsatisfiable classes
    unsatisfiable: tuple[str, ...] = ()
    # the unprobed ontology's axioms that the classifier skipped
    skipped: tuple[SkippedAxiom, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.failures


def _assertion_head(form: Form) -> tuple[Identifier, tuple[Form, ...]]:
    if (
        not isinstance(form, ListForm)
        or not form.children
        or not isinstance(form.children[0], Identifier)
    ):
        raise TestSyntax("expected an assertion form", form.location)
    return form.children[0], form.children[1:]


def eval_assertion(ev: Evaluator, classifier: Classifier, form: Form) -> bool:
    """Evaluate one assertion; classifier holds the current state of ev's ontology."""
    head, args = _assertion_head(form)
    if head.name == "isuperclass?":
        if len(args) != 2:
            raise TestSyntax("isuperclass? takes a subclass and a superclass", form.location)
        sub = ev.resolve_ref(args[0], Kind.CLASS)
        sup = ev.resolve_ref(args[1], Kind.CLASS)
        try:
            return inferred_superclass(classifier.taxonomy(), sub, sup)
        except UnknownEntity as err:
            err.location = form.location
            raise
    if head.name == "coherent?":
        if args:
            raise TestSyntax("coherent? takes no arguments", form.location)
        return not classifier.taxonomy().unsatisfiable
    if head.name == "not":
        if len(args) != 1:
            raise TestSyntax("not takes exactly one assertion", form.location)
        return not eval_assertion(ev, classifier, args[0])
    if head.name == "with-probe-entities":
        if len(args) != 2 or not isinstance(args[0], BracketForm):
            raise TestSyntax(
                "with-probe-entities takes a bracket of bindings and one assertion",
                form.location,
            )
        return run_probe_block(ev, classifier, args[0].children, args[1])
    raise TestSyntax(f"unknown assertion '{head.name}'", head.location)


def _probe_binding(binding: Form) -> tuple[Identifier, ListForm, Text]:
    if (
        not isinstance(binding, ListForm)
        or len(binding.children) != 2
        or not isinstance(binding.children[0], Identifier)
        or not isinstance(binding.children[1], ListForm)
    ):
        raise TestSyntax('probe bindings look like (name (owlclass "Name" ...))', binding.location)
    name, maker = binding.children
    if (
        not maker.children
        or not isinstance(maker.children[0], Identifier)
        or maker.children[0].name != "owlclass"
        or len(maker.children) < 2
        or not isinstance(maker.children[1], Text)
    ):
        raise TestSyntax("probe entities are created with (owlclass ...)", maker.location)
    return name, maker, maker.children[1]


def run_probe_block(ev: Evaluator, classifier: Classifier, bindings, body: Form) -> bool:
    """Evaluate body with probe entities present, then undo them in both stores."""
    ontology = ev.env.ontology
    mark, classifier_mark = ontology.mark(), classifier.mark()
    saved_locals = dict(ev.locals)
    try:
        for binding in bindings:
            name, maker, text = _probe_binding(binding)
            if is_valid_identifier(text.value) and ontology.lookup(ontology.iri + text.value):
                message = f"probe '{text.value}' collides with a declared entity"
                raise TestSyntax(message, text.location)
            entity = ev.eval_owlclass(maker)
            assert entity.kind is Kind.CLASS
            ev.locals[name.name] = entity
        classifier.add(ontology.axioms[mark[0]:])
        return eval_assertion(ev, classifier, body)
    finally:
        classifier.undo(classifier_mark)
        ontology.rollback(mark)
        ev.locals = saved_locals


def run_tests(env: Environment) -> TestReport:
    """Run every deftest of the namespace in source order."""
    classifier = Classifier(env.axiom_closure())
    ev = Evaluator(env)
    report = TestReport(tests=len(env.tests))
    for test in env.tests:
        for index, form in enumerate(test.body, start=1):
            head, args = _assertion_head(form)
            if head.name != "is" or len(args) != 1:
                raise TestSyntax("test bodies are (is assertion) forms", form.location)
            report.assertions += 1
            if not eval_assertion(ev, classifier, args[0]):
                report.failures.append(TestFailure(test.name, index, form.location))
    base = classifier.taxonomy()
    report.unsatisfiable = coherence_report(base).unsatisfiable
    report.skipped = base.skipped
    return report


def tap_lines(env: Environment, report: TestReport) -> list[str]:
    """One line per test: `ok N Name`, or the first failing assertion."""
    failed: dict[str, TestFailure] = {}
    for failure in report.failures:
        failed.setdefault(failure.test, failure)
    lines = []
    for number, test in enumerate(env.tests, start=1):
        failure = failed.get(test.name)
        if failure is None:
            lines.append(f"ok {number} {test.name}")
        else:
            where = f"{failure.location.file}:{failure.location.line}"
            lines.append(
                f"not ok {number} {test.name} (assertion {failure.assertion} at {where})"
            )
    return lines
