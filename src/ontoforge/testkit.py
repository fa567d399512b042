"""Running the unit tests an ontology declares about itself.

`deftest` bodies are lists of `(is ...)` assertions over the classified
ontology, which the evaluator checks against `IS` as it reads them.
Assertions are rows of the evaluator's kind (`sexpr.Row`) in one table,
`ASSERTIONS`, kept here so `check` loads no test runner: `eval_assertion`
looks a head up, checks the operands against its row and calls the row's
handler. Probe blocks add throwaway entities, evaluate one
assertion against the probed ontology, and then roll the ontology back to
its mark from before the block, so it is structurally identical before and
after, even on error.

`run_tests` classifies the base ontology once. A probe block extends that
classification with its own axioms and undoes the extension on the way out.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import Location
from .evaluator import CLASS_EXPRESSIONS, IS, Environment, Evaluator, TestSyntax, assertion_name
from .model import Kind
from .reasoner import Classifier, SkippedAxiom, UnknownEntity, coherence_report, inferred_superclass
from .sexpr import Form, ListForm, Row, head_name, is_valid_identifier


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
    name = assertion_name(form)
    row = ASSERTIONS.get(name)
    if row is None:
        raise TestSyntax(f"unknown assertion '{name}'", form.children[0].location)
    return row.handler(ev, classifier, form, row.check(form, form.children[1:]))


def _superclass(ev: Evaluator, classifier: Classifier, form: ListForm, args) -> bool:
    sub = ev.resolve_ref(args[0], Kind.CLASS)
    sup = ev.resolve_ref(args[1], Kind.CLASS)
    try:
        return inferred_superclass(classifier.taxonomy(), sub, sup)
    except UnknownEntity as err:
        err.location = form.location
        raise


# The table of assertions, rows of the evaluator's kind. A handler is called
# with the evaluator, the classifier, the form and its checked operands; one
# that calls run_probe_block looks it up when it is called, so a wrapper set
# on that name later sees every probe block.
ASSERTIONS = {
    "isuperclass?": Row(_superclass, "class class", TestSyntax,
                        "isuperclass? takes a subclass and a superclass"),
    "coherent?": Row(lambda ev, classifier, form, args: not classifier.taxonomy().unsatisfiable,
                     "", TestSyntax, "coherent? takes no arguments"),
    "not": Row(lambda ev, classifier, form, args: not eval_assertion(ev, classifier, args[0]),
               "assertion", TestSyntax, "not takes exactly one assertion"),
    "with-probe-entities": Row(
        lambda ev, classifier, form, args: run_probe_block(
            ev, classifier, args[0].children, args[1]),
        "bracket assertion", TestSyntax,
        "with-probe-entities takes a bracket of bindings and one assertion"),
}
# A probe binding, (name (owlclass "Name" options...)), and its owlclass form.
_BINDING = Row(None, "identifier list", TestSyntax,
               'probe bindings look like (name (owlclass "Name" ...))')
_PROBE = Row(None, "text option*", TestSyntax, "probe entities are created with (owlclass ...)")


def run_probe_block(ev: Evaluator, classifier: Classifier, bindings, body: Form) -> bool:
    """Evaluate body with probe entities present, then undo them in both stores."""
    ontology = ev.env.ontology
    mark, classifier_mark = ontology.mark(), classifier.mark()
    saved_locals = dict(ev.locals)
    try:
        for binding in bindings:
            operands = binding.children if isinstance(binding, ListForm) else ()
            name, maker = _BINDING.check(binding, operands)
            args = _PROBE.check(maker, maker.children[1:] if head_name(maker) == "owlclass" else ())
            text = args[0]
            if is_valid_identifier(text.value) and ontology.lookup(ontology.iri + text.value):
                message = f"probe '{text.value}' collides with a declared entity"
                raise TestSyntax(message, text.location)
            entity = ev.eval_owlclass(CLASS_EXPRESSIONS["owlclass"], maker, args)
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
