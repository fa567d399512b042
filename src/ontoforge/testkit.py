"""Running the unit tests an ontology declares about itself.

`deftest` bodies are lists of `(is ...)` assertions over the classified
ontology, which the evaluator checks against `IS` and `ASSERTIONS` as it
reads them. Assertions are rows of the evaluator's kind (`sexpr.Row`) in
that one table, kept in the evaluator so `check` loads no test runner; a
row's handler names one of the functions below. `eval_assertion` looks a
head up and checks its operands (and a probe block's bindings) through
`evaluator.assertion_row`, then calls the handler. Probe blocks add
throwaway entities, evaluate one assertion against the probed ontology, and
then roll the ontology back to its mark from before the block, so it is
structurally identical before and after, even on error.

`run_tests` classifies the base ontology once. A probe block extends that
classification with its own axioms and undoes the extension on the way out.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import Location
from .evaluator import (
    CLASS_EXPRESSIONS,
    Environment,
    Evaluator,
    TestSyntax,
    assertion_row,
)
from .model import Kind
from .reasoner import Classifier, SkippedAxiom, UnknownEntity, coherence_report, inferred_superclass
from .sexpr import Form, ListForm, is_valid_identifier


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


def eval_assertion(ev: Evaluator, classifier: Classifier, form: Form) -> bool:
    """Evaluate one assertion; classifier holds the current state of ev's ontology."""
    row, args = assertion_row(form)
    return globals()[row.handler](ev, classifier, form, args)


# The handlers the rows of `ASSERTIONS` name, each called with the evaluator,
# the classifier, the form and its checked operands. Each is looked up by
# name when it is called, as are eval_assertion and run_probe_block in the
# handlers that call them, so a wrapper set on that name later sees every call.


def superclass(ev: Evaluator, classifier: Classifier, form: ListForm, args) -> bool:
    sub = ev.resolve_ref(args[0], Kind.CLASS)
    sup = ev.resolve_ref(args[1], Kind.CLASS)
    try:
        return inferred_superclass(classifier.taxonomy(), sub, sup)
    except UnknownEntity as err:
        err.location = form.location
        raise


def coherent(ev: Evaluator, classifier: Classifier, form: ListForm, args) -> bool:
    return not classifier.taxonomy().unsatisfiable


def negation(ev: Evaluator, classifier: Classifier, form: ListForm, args) -> bool:
    return not eval_assertion(ev, classifier, args[0])


def probe(ev: Evaluator, classifier: Classifier, form: ListForm, args) -> bool:
    return run_probe_block(ev, classifier, args[0].children, args[1])


def run_probe_block(ev: Evaluator, classifier: Classifier, bindings, body: Form) -> bool:
    """Evaluate body with probe entities present, then undo them in both stores."""
    ontology = ev.env.ontology
    mark, classifier_mark = ontology.mark(), classifier.mark()
    saved_locals = dict(ev.locals)
    try:
        # `assertion_row` checked each binding's shape
        for binding in bindings:
            name, maker = binding.children
            args = maker.children[1:]
            text = args[0]
            if is_valid_identifier(text.value) and ontology.lookup(ontology.iri + text.value):
                message = f"probe '{text.value}' collides with a declared entity"
                raise TestSyntax(message, text.location)
            entity = ev.eval_owlclass(CLASS_EXPRESSIONS["owlclass"], maker, args)
            assert entity.kind == Kind.CLASS
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
            report.assertions += 1
            if not eval_assertion(ev, classifier, form.children[1]):
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
