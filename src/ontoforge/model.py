"""The axiom model: IRIs, entities, class expressions, axioms, and the ontology store.

Everything except Ontology is an immutable value with structural equality, so
axioms can live in sets and duplicate assertions collapse to no-ops. An
Ontology keeps its axioms in insertion order next to a set index, which is
what makes serialization deterministic. The store only grows; `mark` and
`rollback` undo everything added since a mark, most recent first.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

from .errors import OntoforgeError


class DuplicateEntityKind(OntoforgeError):
    """One IRI used as two different entity kinds."""


class UndeclaredEntity(OntoforgeError):
    """An axiom mentions an entity the ontology never declared or imported."""


_SCHEME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9+.-]*:\S+$")


@dataclass(frozen=True)
class IRI:
    value: str

    def __post_init__(self) -> None:
        if not self.value or self.value != self.value.strip() or not _SCHEME_RE.match(self.value):
            raise ValueError(f"not an absolute IRI: {self.value!r}")

    def fragment(self) -> str:
        """The part after the last '#', or after the last '/' when no '#' exists."""
        v = self.value
        if "#" in v:
            return v.rsplit("#", 1)[1]
        if "/" in v:
            return v.rsplit("/", 1)[1]
        return v.split(":", 1)[1]

    def __str__(self) -> str:
        return self.value


class Kind(Enum):
    CLASS = "Class"
    OBJECT_PROPERTY = "ObjectProperty"
    ANNOTATION_PROPERTY = "AnnotationProperty"
    ONTOLOGY = "Ontology"


@dataclass(frozen=True)
class Entity:
    kind: Kind
    iri: IRI


OWL_NS = "http://www.w3.org/2002/07/owl#"
RDFS_NS = "http://www.w3.org/2000/01/rdf-schema#"

RDFS_LABEL = Entity(Kind.ANNOTATION_PROPERTY, IRI(RDFS_NS + "label"))
RDFS_COMMENT = Entity(Kind.ANNOTATION_PROPERTY, IRI(RDFS_NS + "comment"))

# Built-in annotation properties are usable without a declaration.
BUILTIN_ENTITIES = {RDFS_LABEL.iri: RDFS_LABEL, RDFS_COMMENT.iri: RDFS_COMMENT}


# --- class expressions -----------------------------------------------------


class ClassExpression:
    __slots__ = ()


@dataclass(frozen=True)
class Named(ClassExpression):
    entity: Entity

    def __post_init__(self) -> None:
        if self.entity.kind is not Kind.CLASS:
            raise ValueError(f"named class expression needs a class entity, got {self.entity.kind.value}")


@dataclass(frozen=True)
class Thing(ClassExpression):
    pass


@dataclass(frozen=True)
class Nothing(ClassExpression):
    pass


THING = Thing()
NOTHING = Nothing()


def _as_operand_tuple(operands) -> tuple[ClassExpression, ...]:
    ops = tuple(operands)
    if len(ops) < 2:
        raise ValueError("intersection and union need at least two operands")
    return ops


@dataclass(frozen=True)
class And(ClassExpression):
    operands: tuple[ClassExpression, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "operands", _as_operand_tuple(self.operands))


@dataclass(frozen=True)
class Or(ClassExpression):
    operands: tuple[ClassExpression, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "operands", _as_operand_tuple(self.operands))


@dataclass(frozen=True)
class Not(ClassExpression):
    operand: ClassExpression


def _check_object_property(entity: Entity) -> None:
    if entity.kind is not Kind.OBJECT_PROPERTY:
        raise ValueError(f"restriction needs an object property, got {entity.kind.value}")


@dataclass(frozen=True)
class Some(ClassExpression):
    property: Entity
    filler: ClassExpression

    def __post_init__(self) -> None:
        _check_object_property(self.property)


@dataclass(frozen=True)
class Only(ClassExpression):
    property: Entity
    filler: ClassExpression

    def __post_init__(self) -> None:
        _check_object_property(self.property)


# --- annotations -----------------------------------------------------------


@dataclass(frozen=True)
class AnnotationValue:
    """A text literal with an optional BCP 47 language tag, held lowercase."""

    text: str
    lang: str | None = None

    def __post_init__(self) -> None:
        if self.lang is not None:
            if not self.lang:
                raise ValueError("language tag must not be empty")
            object.__setattr__(self, "lang", self.lang.lower())


# --- axioms ----------------------------------------------------------------


class Axiom:
    __slots__ = ()


@dataclass(frozen=True)
class Declaration(Axiom):
    entity: Entity


@dataclass(frozen=True)
class SubClassOf(Axiom):
    sub: ClassExpression
    sup: ClassExpression


@dataclass(frozen=True)
class EquivalentClasses(Axiom):
    operands: tuple[ClassExpression, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "operands", _as_operand_tuple(self.operands))


@dataclass(frozen=True)
class DisjointClasses(Axiom):
    operands: tuple[Entity, ...]

    def __post_init__(self) -> None:
        ops = tuple(self.operands)
        if len(ops) < 2:
            raise ValueError("disjointness needs at least two classes")
        if len(set(ops)) != len(ops):
            raise ValueError("disjoint classes must be pairwise distinct")
        for e in ops:
            if e.kind is not Kind.CLASS:
                raise ValueError("disjointness members must be named classes")
        object.__setattr__(self, "operands", ops)


@dataclass(frozen=True)
class SubObjectPropertyOf(Axiom):
    sub: Entity
    sup: Entity

    def __post_init__(self) -> None:
        _check_object_property(self.sub)
        _check_object_property(self.sup)


@dataclass(frozen=True)
class ObjectPropertyDomain(Axiom):
    property: Entity
    ce: ClassExpression

    def __post_init__(self) -> None:
        _check_object_property(self.property)


@dataclass(frozen=True)
class ObjectPropertyRange(Axiom):
    property: Entity
    ce: ClassExpression

    def __post_init__(self) -> None:
        _check_object_property(self.property)


@dataclass(frozen=True)
class FunctionalObjectProperty(Axiom):
    property: Entity

    def __post_init__(self) -> None:
        _check_object_property(self.property)


@dataclass(frozen=True)
class TransitiveObjectProperty(Axiom):
    property: Entity

    def __post_init__(self) -> None:
        _check_object_property(self.property)


@dataclass(frozen=True)
class AnnotationAssertion(Axiom):
    subject: IRI
    property: Entity
    value: AnnotationValue

    def __post_init__(self) -> None:
        if self.property.kind is not Kind.ANNOTATION_PROPERTY:
            raise ValueError("annotation assertions need an annotation property")


@dataclass(frozen=True)
class Import(Axiom):
    iri: IRI


# --- signatures ------------------------------------------------------------


def expression_signature(ce: ClassExpression) -> set[Entity]:
    """Every entity mentioned inside a class expression."""
    if isinstance(ce, Named):
        return {ce.entity}
    if isinstance(ce, (Thing, Nothing)):
        return set()
    if isinstance(ce, (And, Or)):
        out: set[Entity] = set()
        for op in ce.operands:
            out |= expression_signature(op)
        return out
    if isinstance(ce, Not):
        return expression_signature(ce.operand)
    if isinstance(ce, (Some, Only)):
        return {ce.property} | expression_signature(ce.filler)
    raise TypeError(f"not a class expression: {ce!r}")


def axiom_signature(axiom: Axiom) -> set[Entity]:
    """Every entity mentioned by an axiom."""
    if isinstance(axiom, Declaration):
        return {axiom.entity}
    if isinstance(axiom, SubClassOf):
        return expression_signature(axiom.sub) | expression_signature(axiom.sup)
    if isinstance(axiom, EquivalentClasses):
        out: set[Entity] = set()
        for op in axiom.operands:
            out |= expression_signature(op)
        return out
    if isinstance(axiom, DisjointClasses):
        return set(axiom.operands)
    if isinstance(axiom, SubObjectPropertyOf):
        return {axiom.sub, axiom.sup}
    if isinstance(axiom, (ObjectPropertyDomain, ObjectPropertyRange)):
        return {axiom.property} | expression_signature(axiom.ce)
    if isinstance(axiom, (FunctionalObjectProperty, TransitiveObjectProperty)):
        return {axiom.property}
    if isinstance(axiom, AnnotationAssertion):
        return {axiom.property}
    if isinstance(axiom, Import):
        return set()
    raise TypeError(f"not an axiom: {axiom!r}")


# --- the ontology store ----------------------------------------------------


class Ontology:
    """An ordered, duplicate-free axiom store with a declaration registry.

    `entities` holds this ontology's own declarations in declaration order;
    `imported` holds entities brought in from elsewhere, which axioms may
    mention but which are not serialized as declarations here. All three only
    grow at their ends, so a `mark` of their lengths is a complete snapshot and
    `rollback` to it is exact.
    """

    def __init__(self, iri: IRI):
        self.iri = iri
        self.axioms: list[Axiom] = []
        self._axiom_set: set[Axiom] = set()
        self.entities: dict[IRI, Entity] = {}
        self.imported: dict[IRI, Entity] = {}
        self.prefixes: dict[str, str] = {}

    def __contains__(self, axiom: Axiom) -> bool:
        return axiom in self._axiom_set

    def declare(self, kind: Kind, iri: IRI) -> Entity:
        """Register an entity, yielding the canonical one. Idempotent per kind."""
        self.add_axiom(Declaration(Entity(kind, iri)))
        return self.entities[iri]

    def register_imported(self, entity: Entity) -> Entity:
        known = self.imported.get(entity.iri)
        if known is not None:
            if known.kind is not entity.kind:
                raise DuplicateEntityKind(
                    f"<{entity.iri}> already imported as {known.kind.value}, now {entity.kind.value}"
                )
            return known
        own = self.entities.get(entity.iri)
        if own is not None and own.kind is not entity.kind:
            raise DuplicateEntityKind(
                f"<{entity.iri}> already declared as {own.kind.value}, now imported as {entity.kind.value}"
            )
        self.imported[entity.iri] = entity
        return entity

    def _check_mentioned(self, entity: Entity) -> None:
        known = (
            self.entities.get(entity.iri)
            or self.imported.get(entity.iri)
            or BUILTIN_ENTITIES.get(entity.iri)
        )
        if known is None:
            raise UndeclaredEntity(f"axiom mentions undeclared entity <{entity.iri}>")
        if known.kind is not entity.kind:
            raise DuplicateEntityKind(
                f"<{entity.iri}> declared as {known.kind.value} but used as {entity.kind.value}"
            )

    def add_axiom(self, axiom: Axiom) -> bool:
        """Add one axiom; False when it is already present (structurally)."""
        if axiom in self._axiom_set:
            return False
        if isinstance(axiom, Declaration):
            known = self.entities.get(axiom.entity.iri)
            if known is not None and known.kind is not axiom.entity.kind:
                raise DuplicateEntityKind(
                    f"<{axiom.entity.iri}> already declared as {known.kind.value}, "
                    f"redeclared as {axiom.entity.kind.value}"
                )
            if known is None:
                self.entities[axiom.entity.iri] = axiom.entity
        else:
            for entity in axiom_signature(axiom):
                self._check_mentioned(entity)
        self.axioms.append(axiom)
        self._axiom_set.add(axiom)
        return True

    def add_axioms(self, axioms) -> int:
        return sum(1 for a in axioms if self.add_axiom(a))

    def mark(self) -> tuple[int, int, int]:
        """The current lengths of axioms, entities and imported, for `rollback`."""
        return len(self.axioms), len(self.entities), len(self.imported)

    def rollback(self, mark: tuple[int, int, int]) -> None:
        """Drop every axiom, declaration and import registered since mark."""
        n_axioms, n_entities, n_imported = mark
        self._axiom_set.difference_update(self.axioms[n_axioms:])
        del self.axioms[n_axioms:]
        while len(self.entities) > n_entities:
            self.entities.popitem()
        while len(self.imported) > n_imported:
            self.imported.popitem()
