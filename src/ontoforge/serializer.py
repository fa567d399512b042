"""Deterministic text renderers for ontologies.

Two formats come out of here. The Manchester-style text is the human-facing
one: one frame per declared entity in declaration order, fixed section order
inside each frame, eight-space entry indentation, and a trailing comma on
every entry except the last. The frames come from one table, `_FRAMES`,
which gives each entity kind its sections in writing order: one pass files
every axiom's items by entity and section, and one loop writes each frame's
sections from the table. The functional-style text is the interchange
format: one axiom per line in axiom order, designed to survive a parse and
re-render byte for byte. It is written by `importer.GRAMMAR`, the table the
parser reads by, and literals are escaped by `sexpr.escape`, the inverse of
the readers' `sexpr.unescape`.

Every writer names an IRI by one rule: its CURIE under the longest covering
prefix (`shorten`), else the full <IRI>, which both syntaxes allow, so no
writer refuses an IRI. One `CurieTable` per command holds each IRI's printed
name, so `compile`'s two renders, and the `classify` and `test` printers,
apply the rule once per IRI however often it is mentioned.

Equal ontologies (same axioms in the same order, same prefixes) always render
to identical bytes, with a shared table or without; there is no hidden state.
"""

from __future__ import annotations

from .importer import CE, CES, CLASSES, GRAMMAR, IRI_OR_CURIE, IRIREF, LITERAL, LOCAL_RE
from .model import (
    And,
    AnnotationAssertion,
    BUILTIN_PREFIXES,
    ClassExpression,
    Declaration,
    DisjointClasses,
    Entity,
    EquivalentClasses,
    FunctionalObjectProperty,
    Import,
    IRI,
    Kind,
    Named,
    Not,
    Only,
    ObjectPropertyDomain,
    ObjectPropertyRange,
    Ontology,
    Or,
    Some,
    SubClassOf,
    SubObjectPropertyOf,
    TransitiveObjectProperty,
)
from .sexpr import escape


def prefix_map(ontology: Ontology) -> dict[str, str]:
    """Registered prefixes plus the reserved ones, `BUILTIN_PREFIXES`."""
    merged = dict(BUILTIN_PREFIXES)
    merged.update(ontology.prefixes)
    return merged


def shorten(iri: IRI | str, prefixes: dict[str, str]) -> str | None:
    """The CURIE under the longest matching prefix base, or None."""
    text = str(iri)
    best: tuple[int, str] | None = None
    for label, base in prefixes.items():
        if text.startswith(base):
            local = text[len(base):]
            if LOCAL_RE.fullmatch(local) and (best is None or len(base) > best[0]):
                best = (len(base), f"{label}:{local}")
    return best[1] if best else None


class CurieTable(dict):
    """IRI text -> the name every writer prints: its CURIE, else <IRI>.

    The first lookup of an IRI applies `shorten`; later lookups are dict hits.
    """

    def __init__(self, prefixes: dict[str, str]):
        super().__init__()
        self.prefixes = prefixes

    def __missing__(self, text: str) -> str:
        name = self[text] = shorten(text, self.prefixes) or f"<{text}>"
        return name


def curie_or_iri(iri: IRI | str, curies: CurieTable | dict[str, str]) -> str:
    """The name iri prints as, by a table or a one-off prefix map."""
    curies = curies if isinstance(curies, CurieTable) else CurieTable(curies)
    return curies[str(iri)]


def _literal(value) -> str:
    body = f'"{escape(value.text)}"'
    if value.lang is not None:
        return f"{body}@{value.lang}"
    return body


# --- Manchester-style ------------------------------------------------------


def _omn_ce(ce: ClassExpression, curies: CurieTable) -> str:
    if isinstance(ce, Named):
        return curies[ce.entity.iri.value]
    if isinstance(ce, And):
        return " and ".join(_omn_wrap(op, curies) for op in ce.operands)
    if isinstance(ce, Or):
        return " or ".join(_omn_wrap(op, curies) for op in ce.operands)
    if isinstance(ce, Not):
        return "not " + _omn_wrap(ce.operand, curies)
    if isinstance(ce, Some):
        return f"{curies[ce.property.iri.value]} some {_omn_wrap(ce.filler, curies)}"
    if isinstance(ce, Only):
        return f"{curies[ce.property.iri.value]} only {_omn_wrap(ce.filler, curies)}"
    raise TypeError(f"not a class expression: {ce!r}")


def _omn_wrap(ce: ClassExpression, curies: CurieTable) -> str:
    if isinstance(ce, Named):
        return _omn_ce(ce, curies)
    return "(" + _omn_ce(ce, curies) + ")"


# Each kind's frame sections in writing order, as the OWL 2 Manchester Syntax
# frames name them; a frame's keyword is its kind's value.
_FRAMES: dict[Kind, tuple[str, ...]] = {
    Kind.CLASS: ("Annotations", "EquivalentTo", "SubClassOf", "DisjointWith"),
    Kind.OBJECT_PROPERTY: ("Annotations", "Characteristics", "SubPropertyOf", "Domain", "Range"),
    Kind.ANNOTATION_PROPERTY: ("Annotations",),
}


def _frame_items(ontology: Ontology) -> dict[str, dict[str, list]]:
    """What each frame lists, in axiom order, as items[IRI text][section].

    Keys are IRI text, not `IRI`, so every lookup hashes a str in C.
    """
    items: dict[str, dict[str, list]] = {}

    def file(iri: str, section: str, found) -> None:
        items.setdefault(iri, {}).setdefault(section, []).extend(found)

    for axiom in ontology.axioms:
        if isinstance(axiom, AnnotationAssertion):
            file(axiom.subject.value, "Annotations", (axiom,))
        elif isinstance(axiom, SubClassOf) and isinstance(axiom.sub, Named):
            file(axiom.sub.entity.iri.value, "SubClassOf", (axiom.sup,))
        elif isinstance(axiom, EquivalentClasses):
            ops = axiom.operands
            for i, op in enumerate(ops):
                if isinstance(op, Named):
                    file(op.entity.iri.value, "EquivalentTo", ops[:i] + ops[i + 1:])
        elif isinstance(axiom, DisjointClasses):
            ops = axiom.operands
            for i, op in enumerate(ops):
                file(op.iri.value, "DisjointWith", ops[:i] + ops[i + 1:])
        elif isinstance(axiom, SubObjectPropertyOf):
            file(axiom.sub.iri.value, "SubPropertyOf", (axiom.sup,))
        elif isinstance(axiom, ObjectPropertyDomain):
            file(axiom.property.iri.value, "Domain", (axiom.ce,))
        elif isinstance(axiom, ObjectPropertyRange):
            file(axiom.property.iri.value, "Range", (axiom.ce,))
        elif isinstance(axiom, FunctionalObjectProperty):
            file(axiom.property.iri.value, "Characteristics", ("Functional",))
        elif isinstance(axiom, TransitiveObjectProperty):
            file(axiom.property.iri.value, "Characteristics", ("Transitive",))
    return items


def _entries(section: str, found: list, curies: CurieTable) -> list[str]:
    """One section's items as text, in the order the section's rule gives."""
    if section == "Annotations":
        entries = sorted(
            (curies[a.property.iri.value], a.value.lang or "", a.value.text, _literal(a.value))
            for a in found
        )
        return [f"{prop} {literal}" for prop, _lang, _text, literal in entries]
    if section == "Characteristics":
        return [trait for trait in ("Functional", "Transitive") if trait in found]
    if section == "DisjointWith":
        # each other member once, in first-seen order across axioms
        found = {member.iri.value: member for member in found}.values()
    return [
        curies[item.iri.value] if isinstance(item, Entity) else _omn_ce(item, curies)
        for item in found
    ]


def render_omn(ontology: Ontology, curies: CurieTable | None = None) -> str:
    """Manchester-style text for the whole ontology, named through curies."""
    curies = CurieTable(prefix_map(ontology)) if curies is None else curies
    items = _frame_items(ontology)

    header = [f"Prefix: {label}: <{base}>" for label, base in sorted(curies.prefixes.items())]
    header.append("")
    header.append(f"Ontology: <{ontology.iri}>")
    for axiom in ontology.axioms:
        if isinstance(axiom, Import):
            header.append(f"Import: <{axiom.iri}>")
    blocks = [header]

    for entity in ontology.entities.values():
        lines = [f"{entity.kind.value}: {curies[entity.iri.value]}"]
        sections = items.get(entity.iri.value, {})
        for section in _FRAMES[entity.kind]:
            found = sections.get(section)
            if found:
                *entries, last = _entries(section, found, curies)
                lines.append(f"    {section}: ")
                lines += [f"        {entry}," for entry in entries]
                lines.append(f"        {last}")
        blocks.append(lines)

    return "\n\n".join("\n".join(block) for block in blocks) + "\n"


# --- functional-style -------------------------------------------------------


def _fun_term(term, curies: CurieTable) -> str:
    """An axiom or class expression as functional-style text, by the grammar."""
    if isinstance(term, Named):
        return curies[term.entity.iri.value]
    if isinstance(term, Declaration):
        return f"Declaration({term.entity.kind.value}({curies[term.entity.iri.value]}))"
    head, operands = GRAMMAR[type(term)]
    parts = []
    for name, kind in operands:
        value = getattr(term, name)
        if kind is CE:
            parts.append(_fun_term(value, curies))
        elif kind is CES:
            parts += [_fun_term(op, curies) for op in value]
        elif kind is CLASSES:
            parts += [curies[e.iri.value] for e in value]
        elif kind is LITERAL:
            parts.append(_literal(value))
        elif kind is IRIREF:
            parts.append(f"<{value}>")
        elif kind is IRI_OR_CURIE:
            parts.append(curies[value.value])
        else:
            parts.append(curies[value.iri.value])
    return f"{head}({' '.join(parts)})"


def render_functional(ontology: Ontology, curies: CurieTable | None = None) -> str:
    """Functional-style text: prefixes, then one axiom per line in order."""
    curies = CurieTable(prefix_map(ontology)) if curies is None else curies
    lines = [f"Prefix({label}:=<{base}>)" for label, base in sorted(curies.prefixes.items())]
    lines.append(f"Ontology(<{ontology.iri}>")
    for axiom in ontology.axioms:
        lines.append(_fun_term(axiom, curies))
    lines.append(")")
    return "\n".join(lines) + "\n"
