"""A brute-force EL subsumption oracle, independent of the engine.

Instead of normalizing into the engine's four normal forms and saturating a
queue, this computes subsumer sets for every *subexpression* of the ontology
by applying rules to everything, everywhere, until nothing changes:

  reflexivity    X in S(X), Thing in S(X)
  gci            D in S(X) and D <= E an axiom       -> E in S(X)
  and-elim       And(..., D, ...) in S(X)            -> D in S(X)
  and-intro      every operand of a known And in S(X)-> that And in S(X)
  some-mono      Some(r, Y) in S(X), D in S(Y),
                 Some(r, D) a known subexpression    -> Some(r, D) in S(X)
  bottom         Some(r, Y) in S(X), Nothing in S(Y) -> Nothing in S(X)

No auxiliary atoms, no worklist, no index: quadratic passes over tiny inputs.
The result is projected onto named classes (plus owl:Thing / owl:Nothing),
which is the same view the engine's taxonomy exposes.
"""

from __future__ import annotations

from ontoforge.model import (
    And,
    ClassExpression,
    Declaration,
    DisjointClasses,
    EquivalentClasses,
    Kind,
    Named,
    NOTHING,
    Some,
    SubClassOf,
    THING,
)

TOP = THING.entity.iri.value
BOT = NOTHING.entity.iri.value


def _subexpressions(ce: ClassExpression, into: set) -> None:
    into.add(ce)
    if isinstance(ce, And):
        for op in ce.operands:
            _subexpressions(op, into)
    elif isinstance(ce, Some):
        _subexpressions(ce.filler, into)


def _gcis(axioms) -> tuple[list[tuple[ClassExpression, ClassExpression]], set]:
    gcis: list[tuple[ClassExpression, ClassExpression]] = []
    classes = set()
    for axiom in axioms:
        if isinstance(axiom, Declaration):
            if axiom.entity.kind is Kind.CLASS:
                classes.add(axiom.entity)
        elif isinstance(axiom, SubClassOf):
            gcis.append((axiom.sub, axiom.sup))
        elif isinstance(axiom, EquivalentClasses):
            for a in axiom.operands:
                for b in axiom.operands:
                    if a is not b:
                        gcis.append((a, b))
        elif isinstance(axiom, DisjointClasses):
            members = axiom.operands
            for i, a in enumerate(members):
                for b in members[i + 1:]:
                    gcis.append((And((Named(a), Named(b))), NOTHING))
        else:
            raise ValueError(f"oracle does not handle {type(axiom).__name__}")
    return gcis, classes


def el_subsumers(axioms) -> dict[str, frozenset[str]]:
    """Named-class subsumer sets, for comparison with Taxonomy.subsumers."""
    gcis, classes = _gcis(axioms)
    tracked: set = {THING, NOTHING}
    for entity in classes:
        tracked.add(Named(entity))
    for lhs, rhs in gcis:
        _subexpressions(lhs, tracked)
        _subexpressions(rhs, tracked)

    S: dict[ClassExpression, set] = {x: {x, THING} for x in tracked}
    ands = [x for x in tracked if isinstance(x, And)]
    somes = [x for x in tracked if isinstance(x, Some)]

    changed = True
    while changed:
        changed = False
        for x in tracked:
            sx = S[x]
            before = len(sx)
            for lhs, rhs in gcis:
                if lhs in sx:
                    sx.add(rhs)
            for d in list(sx):
                if isinstance(d, And):
                    sx.update(d.operands)
            for e in ands:
                if e not in sx and all(op in sx for op in e.operands):
                    sx.add(e)
            for e in somes:
                if e in sx:
                    continue
                if any(
                    isinstance(d, Some) and d.property == e.property and e.filler in S[d.filler]
                    for d in list(sx)
                ):
                    sx.add(e)
            if any(isinstance(d, Some) and NOTHING in S[d.filler] for d in list(sx)):
                sx.add(NOTHING)
            if len(sx) != before:
                changed = True

    named_iris = {entity.iri.value for entity in classes} | {TOP, BOT}
    out: dict[str, frozenset[str]] = {}
    for entity in classes:
        subs = set()
        for d in S[Named(entity)]:
            if isinstance(d, Named) and d.entity.iri.value in named_iris:
                subs.add(d.entity.iri.value)
        out[entity.iri.value] = frozenset(subs)
    return out
