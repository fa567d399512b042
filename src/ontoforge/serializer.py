"""Deterministic text renderers for ontologies.

Two formats come out of here. The Manchester-style text is the human-facing
one: one frame per declared entity in declaration order, fixed section order
inside each frame, eight-space entry indentation, and a trailing comma on
every entry except the last. The functional-style text is the interchange
format: one axiom per line in axiom order, designed to survive a parse and
re-render byte for byte. It is written by `importer.GRAMMAR`, the table the
parser reads by, with one CURIE-or-<IRI> rule for every name, and literals
are escaped by `sexpr.escape`, the inverse of the readers' `sexpr.unescape`.

Every name is shortened by one rule, `shorten`. One `CurieTable` per command
holds each IRI's CURIE, so `compile`'s two renders, and the `classify` and
`test` printers, apply the rule once per IRI however often it is mentioned.

Equal ontologies (same axioms in the same order, same prefixes) always render
to identical bytes, with a shared table or without; there is no hidden state.
"""

from __future__ import annotations

import re

from .errors import OntoforgeError
from .importer import CE, CES, CLASSES, GRAMMAR, IRI_OR_CURIE, IRIREF, LITERAL
from .model import (
    And,
    AnnotationAssertion,
    Axiom,
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
    Nothing,
    Only,
    ObjectPropertyDomain,
    ObjectPropertyRange,
    Ontology,
    Or,
    OWL_NS,
    RDFS_NS,
    Some,
    SubClassOf,
    SubObjectPropertyOf,
    Thing,
    TransitiveObjectProperty,
)
from .sexpr import escape


class NoPrefix(OntoforgeError):
    """An IRI cannot be shortened with the registered prefixes."""


_LOCAL_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.-]*$")

_BUILTIN_PREFIXES = {"owl": OWL_NS, "rdfs": RDFS_NS}


def prefix_map(ontology: Ontology) -> dict[str, str]:
    """Registered prefixes plus the always-available owl/rdfs pair."""
    merged = dict(_BUILTIN_PREFIXES)
    merged.update(ontology.prefixes)
    return merged


def shorten(iri: IRI | str, prefixes: dict[str, str]) -> str | None:
    """The CURIE under the longest matching prefix base, or None."""
    text = str(iri)
    best: tuple[int, str] | None = None
    for label, base in prefixes.items():
        if text.startswith(base):
            local = text[len(base):]
            if _LOCAL_RE.match(local) and (best is None or len(base) > best[0]):
                best = (len(base), f"{label}:{local}")
    return best[1] if best else None


class CurieTable(dict):
    """IRI text -> its CURIE under prefixes, or None when no prefix covers it.

    The first lookup of an IRI applies `shorten`; later lookups are dict hits.
    """

    def __init__(self, prefixes: dict[str, str]):
        super().__init__()
        self.prefixes = prefixes

    def __missing__(self, text: str) -> str | None:
        curie = self[text] = shorten(text, self.prefixes)
        return curie


def _literal(value) -> str:
    body = f'"{escape(value.text)}"'
    if value.lang is not None:
        return f"{body}@{value.lang}"
    return body


# --- Manchester-style ------------------------------------------------------


def _omn_name(entity: Entity, curies: CurieTable) -> str:
    curie = curies[entity.iri.value]
    if curie is None:
        raise NoPrefix(f"no prefix covers <{entity.iri}>")
    return curie


def _omn_ce(ce: ClassExpression, curies: CurieTable) -> str:
    if isinstance(ce, Named):
        return _omn_name(ce.entity, curies)
    if isinstance(ce, Thing):
        return "owl:Thing"
    if isinstance(ce, Nothing):
        return "owl:Nothing"
    if isinstance(ce, And):
        return " and ".join(_omn_wrap(op, curies) for op in ce.operands)
    if isinstance(ce, Or):
        return " or ".join(_omn_wrap(op, curies) for op in ce.operands)
    if isinstance(ce, Not):
        return "not " + _omn_wrap(ce.operand, curies)
    if isinstance(ce, Some):
        return f"{_omn_name(ce.property, curies)} some {_omn_wrap(ce.filler, curies)}"
    if isinstance(ce, Only):
        return f"{_omn_name(ce.property, curies)} only {_omn_wrap(ce.filler, curies)}"
    raise TypeError(f"not a class expression: {ce!r}")


def _omn_wrap(ce: ClassExpression, curies: CurieTable) -> str:
    if isinstance(ce, (Named, Thing, Nothing)):
        return _omn_ce(ce, curies)
    return "(" + _omn_ce(ce, curies) + ")"


def _section(lines: list[str], keyword: str, entries: list[str]) -> None:
    if not entries:
        return
    lines.append(f"    {keyword}: ")
    for i, entry in enumerate(entries):
        comma = "," if i < len(entries) - 1 else ""
        lines.append(f"        {entry}{comma}")


class _FrameIndex:
    """What each frame lists, by the IRI text of the frame's entity.

    Keys are IRI text, not `IRI`, so every lookup hashes a str in C.
    """

    def __init__(self, ontology: Ontology, curies: CurieTable):
        self.curies = curies
        self.annotations: dict[str, list[AnnotationAssertion]] = {}
        self.superclasses: dict[str, list[ClassExpression]] = {}
        self.equivalents: dict[str, list[ClassExpression]] = {}
        self.disjoints: dict[str, dict[str, Entity]] = {}
        self.subproperties: dict[str, list[Entity]] = {}
        self.domains: dict[str, list[ClassExpression]] = {}
        self.ranges: dict[str, list[ClassExpression]] = {}
        self.characteristics: dict[str, set[str]] = {}
        for axiom in ontology.axioms:
            self._index(axiom)

    def _index(self, axiom: Axiom) -> None:
        if isinstance(axiom, AnnotationAssertion):
            self.annotations.setdefault(axiom.subject.value, []).append(axiom)
        elif isinstance(axiom, SubClassOf) and isinstance(axiom.sub, Named):
            self.superclasses.setdefault(axiom.sub.entity.iri.value, []).append(axiom.sup)
        elif isinstance(axiom, EquivalentClasses):
            for i, op in enumerate(axiom.operands):
                if isinstance(op, Named):
                    others = [o for j, o in enumerate(axiom.operands) if j != i]
                    self.equivalents.setdefault(op.entity.iri.value, []).extend(others)
        elif isinstance(axiom, DisjointClasses):
            # Each bucket keeps the others in first-seen order across axioms;
            # members are distinct classes, so none is in its own bucket yet.
            members = {member.iri.value: member for member in axiom.operands}
            for key in members:
                bucket = self.disjoints.setdefault(key, {})
                bucket.update(members)
                del bucket[key]
        elif isinstance(axiom, SubObjectPropertyOf):
            self.subproperties.setdefault(axiom.sub.iri.value, []).append(axiom.sup)
        elif isinstance(axiom, ObjectPropertyDomain):
            self.domains.setdefault(axiom.property.iri.value, []).append(axiom.ce)
        elif isinstance(axiom, ObjectPropertyRange):
            self.ranges.setdefault(axiom.property.iri.value, []).append(axiom.ce)
        elif isinstance(axiom, FunctionalObjectProperty):
            self.characteristics.setdefault(axiom.property.iri.value, set()).add("Functional")
        elif isinstance(axiom, TransitiveObjectProperty):
            self.characteristics.setdefault(axiom.property.iri.value, set()).add("Transitive")

    def annotation_entries(self, iri: str) -> list[str]:
        entries = sorted(
            (_omn_name(a.property, self.curies), a.value.lang or "", a.value.text, _literal(a.value))
            for a in self.annotations.get(iri, [])
        )
        return [f"{prop} {literal}" for prop, _lang, _text, literal in entries]


def _class_frame(entity: Entity, index: _FrameIndex) -> list[str]:
    curies, key = index.curies, entity.iri.value
    lines = [f"Class: {_omn_name(entity, curies)}"]
    _section(lines, "Annotations", index.annotation_entries(key))
    _section(
        lines,
        "EquivalentTo",
        [_omn_ce(ce, curies) for ce in index.equivalents.get(key, [])],
    )
    _section(
        lines,
        "SubClassOf",
        [_omn_ce(ce, curies) for ce in index.superclasses.get(key, [])],
    )
    _section(
        lines,
        "DisjointWith",
        [_omn_name(e, curies) for e in index.disjoints.get(key, {}).values()],
    )
    return lines


def _property_frame(entity: Entity, index: _FrameIndex) -> list[str]:
    curies, key = index.curies, entity.iri.value
    lines = [f"ObjectProperty: {_omn_name(entity, curies)}"]
    _section(lines, "Annotations", index.annotation_entries(key))
    traits = index.characteristics.get(key, set())
    _section(lines, "Characteristics", [t for t in ("Functional", "Transitive") if t in traits])
    _section(
        lines,
        "SubPropertyOf",
        [_omn_name(p, curies) for p in index.subproperties.get(key, [])],
    )
    _section(lines, "Domain", [_omn_ce(ce, curies) for ce in index.domains.get(key, [])])
    _section(lines, "Range", [_omn_ce(ce, curies) for ce in index.ranges.get(key, [])])
    return lines


def _annotation_property_frame(entity: Entity, index: _FrameIndex) -> list[str]:
    lines = [f"AnnotationProperty: {_omn_name(entity, index.curies)}"]
    _section(lines, "Annotations", index.annotation_entries(entity.iri.value))
    return lines


def render_omn(ontology: Ontology, curies: CurieTable | None = None) -> str:
    """Manchester-style text for the whole ontology, named through curies."""
    curies = CurieTable(prefix_map(ontology)) if curies is None else curies
    index = _FrameIndex(ontology, curies)
    blocks: list[list[str]] = []

    header = [f"Prefix: {label}: <{base}>" for label, base in sorted(curies.prefixes.items())]
    header.append("")
    header.append(f"Ontology: <{ontology.iri}>")
    for axiom in ontology.axioms:
        if isinstance(axiom, Import):
            header.append(f"Import: <{axiom.iri}>")
    blocks.append(header)

    for entity in ontology.entities.values():
        if entity.kind is Kind.CLASS:
            blocks.append(_class_frame(entity, index))
        elif entity.kind is Kind.OBJECT_PROPERTY:
            blocks.append(_property_frame(entity, index))
        elif entity.kind is Kind.ANNOTATION_PROPERTY:
            blocks.append(_annotation_property_frame(entity, index))

    return "\n\n".join("\n".join(block) for block in blocks) + "\n"


# --- functional-style -------------------------------------------------------


def curie_or_iri(iri: IRI | str, curies: CurieTable | dict[str, str]) -> str:
    """The CURIE for iri by a table (or a one-off prefix map), else <iri>."""
    curies = curies if isinstance(curies, CurieTable) else CurieTable(curies)
    return curies[str(iri)] or f"<{iri}>"


def _fun_term(term, curies: CurieTable) -> str:
    """An axiom or class expression as functional-style text, by the grammar."""
    if isinstance(term, Named):
        return curie_or_iri(term.entity.iri, curies)
    if isinstance(term, Declaration):
        return f"Declaration({term.entity.kind.value}({curie_or_iri(term.entity.iri, curies)}))"
    if isinstance(term, Thing):
        return "owl:Thing"
    if isinstance(term, Nothing):
        return "owl:Nothing"
    head, operands = GRAMMAR[type(term)]
    parts = []
    for name, kind in operands:
        value = getattr(term, name)
        if kind is CE:
            parts.append(_fun_term(value, curies))
        elif kind is CES:
            parts += [_fun_term(op, curies) for op in value]
        elif kind is CLASSES:
            parts += [curie_or_iri(e.iri, curies) for e in value]
        elif kind is LITERAL:
            parts.append(_literal(value))
        elif kind is IRIREF:
            parts.append(f"<{value}>")
        elif kind is IRI_OR_CURIE:
            parts.append(curie_or_iri(value, curies))
        else:
            parts.append(curie_or_iri(value.iri, curies))
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
