"""The axiom model: IRIs, entities, class expressions, axioms, and the ontology store.

The reserved vocabulary lives here and nowhere else: the owl and rdfs
prefixes (`BUILTIN_PREFIXES`), and the built-in entities (`BUILTIN_ENTITIES`):
the classes owl:Thing and owl:Nothing, which are plain `Named` classes
(`THING`, `NOTHING`), and the annotation properties rdfs:label and
rdfs:comment.

An IRI is its text: `IRI` is a str checked when it is made, so `IRI(t) == t`,
and every table keyed by IRIs hashes them as text, in C.

Everything except Ontology is an immutable value with structural equality, so
axioms can live in sets and duplicate assertions collapse to no-ops. Every
value class but `IRI` is made by `_value`: a frozen dataclass with slots, so
a term carries no `__dict__`, and with a generated `__init__` that writes each
field through its slot descriptor. Every command builds thousands of terms,
and a frozen dataclass's own `__init__` spends about half of each
construction in `object.__setattr__`.

An Ontology keeps its axioms in insertion order next to a set index, which is
what makes serialization deterministic. Its `entities` and `imported` tables
map IRIs to entities. `Ontology.lookup` is the one lookup order
(`entities`, then `imported`, then `BUILTIN_ENTITIES`) and `Ontology.admit`
the one admission method: an entity, however it arrives (`Arrival`), keeps
the kind its IRI is known by. Stated axioms come in one at a time
(`add_axiom`); a document's axioms come in together (`load`): its
declarations, then the entities they mention, then the axioms. The store
only grows; `mark` and `rollback` undo everything added since a mark, most
recent first.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Sequence
from dataclasses import FrozenInstanceError, dataclass
from enum import Enum

from .errors import Location, OntoforgeError


class DuplicateEntityKind(OntoforgeError):
    """One IRI used as two different entity kinds; `entity` is the one refused."""

    def __init__(
        self, message: str, location: Location | None = None, entity: Entity | None = None
    ):
        super().__init__(message, location)
        self.entity = entity


class UndeclaredEntity(OntoforgeError):
    """An axiom mentions an entity the ontology never declared or imported."""


_SCHEME_RE = re.compile(r"[A-Za-z][A-Za-z0-9+.-]*:\S+")


def _value(cls):
    """Make cls a frozen dataclass with slots and a descriptor-writing `__init__`.

    The `__init__` takes the fields positionally or by keyword, calls each
    field's slot descriptor (bound once the slots exist), then
    `__post_init__` if cls has one. It is made before the dataclass, so the
    dataclass's signature docstring reads it. Instances refuse assignment
    and `del` of any attribute with `FrozenInstanceError`: once the slots
    have replaced the class, the dataclass's own refusal raises TypeError
    for a name that is not a field.
    """
    names = cls.__annotations__  # the fields, in order
    env = {f"_default_{n}": vars(cls)[n] for n in names if n in vars(cls)}
    params = "".join(f", {n}=_default_{n}" if f"_default_{n}" in env else f", {n}" for n in names)
    body = "".join(f"\n    _set_{n}(self, {n})" for n in names)
    if hasattr(cls, "__post_init__"):
        body += "\n    self.__post_init__()"
    exec(f"def __init__(self{params}):{body}", env)
    init = cls.__init__ = env["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__annotations__ = {**names, "return": None}
    cls = dataclass(frozen=True, slots=True, init=False)(cls)
    for n in names:
        env[f"_set_{n}"] = getattr(cls, n).__set__
    cls.__setattr__ = _refuse_assignment
    cls.__delattr__ = _refuse_deletion
    return cls


def _refuse_assignment(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_deletion(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


class IRI(str):
    """An absolute IRI: its text, checked when it is made, frozen as every model value is."""

    __slots__ = ()

    def __new__(cls, value: str) -> IRI:
        if not value or not _SCHEME_RE.fullmatch(value):
            raise ValueError(f"not an absolute IRI: {value!r}")
        return str.__new__(cls, value)

    __setattr__ = _refuse_assignment
    __delattr__ = _refuse_deletion

    value = property(str, doc="The text as a plain str, for callers outside the package.")

    def fragment(self) -> str:
        """The part after the last '#', or after the last '/' when no '#' exists."""
        if "#" in self:
            return self.rsplit("#", 1)[1]
        if "/" in self:
            return self.rsplit("/", 1)[1]
        return self.split(":", 1)[1]


class Kind(Enum):
    CLASS = "Class"
    OBJECT_PROPERTY = "ObjectProperty"
    ANNOTATION_PROPERTY = "AnnotationProperty"

    # Members are singletons compared by identity, so their identity is their
    # hash; it is computed in C, where Enum's own hashes the name in Python.
    __hash__ = object.__hash__


# The kind checks of the constructors below read these aliases: reading a
# member off the Enum class costs about ten times as much as a global.
_CLASS = Kind.CLASS
_OBJECT_PROPERTY = Kind.OBJECT_PROPERTY
_ANNOTATION_PROPERTY = Kind.ANNOTATION_PROPERTY


@_value
class Entity:
    kind: Kind
    iri: IRI

    def __hash__(self) -> int:
        return hash(self.iri)  # an IRI rarely names two kinds; a str caches its hash


OWL_NS = "http://www.w3.org/2002/07/owl#"
RDFS_NS = "http://www.w3.org/2000/01/rdf-schema#"

# The reserved prefixes: every rendering declares them, and `Ontology.add_prefix`
# gives their bases no other label.
BUILTIN_PREFIXES = {"owl": OWL_NS, "rdfs": RDFS_NS}

OWL_THING = Entity(Kind.CLASS, IRI(OWL_NS + "Thing"))
OWL_NOTHING = Entity(Kind.CLASS, IRI(OWL_NS + "Nothing"))
RDFS_LABEL = Entity(Kind.ANNOTATION_PROPERTY, IRI(RDFS_NS + "label"))
RDFS_COMMENT = Entity(Kind.ANNOTATION_PROPERTY, IRI(RDFS_NS + "comment"))

# The reserved vocabulary: usable without a declaration, and always of its kind.
BUILTIN_ENTITIES = {e.iri: e for e in (OWL_THING, OWL_NOTHING, RDFS_LABEL, RDFS_COMMENT)}


# --- class expressions -----------------------------------------------------


class ClassExpression:
    __slots__ = ()


@_value
class Named(ClassExpression):
    entity: Entity

    def __post_init__(self) -> None:
        if self.entity.kind is not _CLASS:
            raise ValueError(f"named class expression needs a class entity, got {self.entity.kind.value}")


THING = Named(OWL_THING)
NOTHING = Named(OWL_NOTHING)


class _Operands:
    """A term of two or more `operands`, which its `__post_init__` makes a tuple."""

    __slots__ = ()

    def __post_init__(self) -> None:
        ops = tuple(self.operands)
        if len(ops) < 2:
            raise ValueError("intersection and union need at least two operands")
        object.__setattr__(self, "operands", ops)


@_value
class And(_Operands, ClassExpression):
    operands: tuple[ClassExpression, ...]


@_value
class Or(_Operands, ClassExpression):
    operands: tuple[ClassExpression, ...]


@_value
class Not(ClassExpression):
    operand: ClassExpression


def _check_object_property(entity: Entity) -> None:
    if entity.kind is not _OBJECT_PROPERTY:
        raise ValueError(f"restriction needs an object property, got {entity.kind.value}")


class _OnProperty:
    """A term about one object `property`, which its `__post_init__` checks."""

    __slots__ = ()

    def __post_init__(self) -> None:
        _check_object_property(self.property)


@_value
class Some(_OnProperty, ClassExpression):
    property: Entity
    filler: ClassExpression


@_value
class Only(_OnProperty, ClassExpression):
    property: Entity
    filler: ClassExpression


# --- annotations -----------------------------------------------------------


# A language tag as the functional-syntax reader takes it after '@'.
LANG_TAG = r"[A-Za-z0-9][A-Za-z0-9-]*"
_LANG_TAG_RE = re.compile(LANG_TAG)


def language_tag(text: str) -> str:
    """text as a language tag, checked by `LANG_TAG` and folded to lowercase."""
    if not _LANG_TAG_RE.fullmatch(text):
        message = f"not a language tag: {text!r}" if text else "language tag must not be empty"
        raise ValueError(message)
    return text.lower()


@_value
class AnnotationValue:
    """A text literal with an optional language tag, held lowercase."""

    text: str
    lang: str | None = None

    def __post_init__(self) -> None:
        if self.lang is not None:
            object.__setattr__(self, "lang", language_tag(self.lang))


# --- axioms ----------------------------------------------------------------


class Axiom:
    __slots__ = ()


@_value
class Declaration(Axiom):
    entity: Entity


@_value
class SubClassOf(Axiom):
    sub: ClassExpression
    sup: ClassExpression


@_value
class EquivalentClasses(_Operands, Axiom):
    operands: tuple[ClassExpression, ...]


@_value
class DisjointClasses(Axiom):
    operands: tuple[Entity, ...]

    def __post_init__(self) -> None:
        ops = tuple(self.operands)
        if len(ops) < 2:
            raise ValueError("disjointness needs at least two classes")
        if len(set(ops)) != len(ops):
            raise ValueError("disjoint classes must be pairwise distinct")
        thing_or_nothing = (OWL_THING.iri, OWL_NOTHING.iri)
        for e in ops:
            if e.kind is not _CLASS or e.iri in thing_or_nothing:
                raise ValueError("disjointness members must be named classes")
        object.__setattr__(self, "operands", ops)


@_value
class SubObjectPropertyOf(Axiom):
    sub: Entity
    sup: Entity

    def __post_init__(self) -> None:
        _check_object_property(self.sub)
        _check_object_property(self.sup)


@_value
class ObjectPropertyDomain(_OnProperty, Axiom):
    property: Entity
    ce: ClassExpression


@_value
class ObjectPropertyRange(_OnProperty, Axiom):
    property: Entity
    ce: ClassExpression


@_value
class FunctionalObjectProperty(_OnProperty, Axiom):
    property: Entity


@_value
class TransitiveObjectProperty(_OnProperty, Axiom):
    property: Entity


@_value
class AnnotationAssertion(Axiom):
    subject: IRI
    property: Entity
    value: AnnotationValue

    def __post_init__(self) -> None:
        if self.property.kind is not _ANNOTATION_PROPERTY:
            raise ValueError("annotation assertions need an annotation property")


@_value
class Import(Axiom):
    iri: IRI


# --- signatures ------------------------------------------------------------


def _collect(ce: ClassExpression, out: list[Entity]) -> None:
    """Append every entity inside a class expression to out, left to right."""
    if isinstance(ce, Named):
        out.append(ce.entity)
    elif isinstance(ce, (And, Or)):
        for op in ce.operands:
            _collect(op, out)
    elif isinstance(ce, Not):
        _collect(ce.operand, out)
    elif isinstance(ce, (Some, Only)):
        out.append(ce.property)
        _collect(ce.filler, out)
    else:
        raise TypeError(f"not a class expression: {ce!r}")


def axiom_mentions(axiom: Axiom) -> list[Entity]:
    """Every entity mentioned by an axiom, in textual order, repeats included."""
    out: list[Entity] = []
    if isinstance(axiom, Declaration):
        out.append(axiom.entity)
    elif isinstance(axiom, SubClassOf):
        _collect(axiom.sub, out)
        _collect(axiom.sup, out)
    elif isinstance(axiom, EquivalentClasses):
        for op in axiom.operands:
            _collect(op, out)
    elif isinstance(axiom, DisjointClasses):
        out.extend(axiom.operands)
    elif isinstance(axiom, SubObjectPropertyOf):
        out.extend((axiom.sub, axiom.sup))
    elif isinstance(axiom, (ObjectPropertyDomain, ObjectPropertyRange)):
        out.append(axiom.property)
        _collect(axiom.ce, out)
    elif isinstance(
        axiom, (FunctionalObjectProperty, TransitiveObjectProperty, AnnotationAssertion)
    ):
        out.append(axiom.property)
    elif not isinstance(axiom, Import):
        raise TypeError(f"not an axiom: {axiom!r}")
    return out


# --- the ontology store ----------------------------------------------------


def _prefix_stem(base: str) -> str:
    stem = re.sub(r"[#/]+$", "", base)
    stem = stem.rsplit("/", 1)[-1] if "/" in stem else stem.split(":", 1)[-1]
    stem = re.sub(r"[^A-Za-z0-9]", "", stem).lower() or "ext"
    return stem if stem[0].isalpha() else "ext" + stem


class Arrival:
    """How an entity comes into an ontology, for `Ontology.admit`.

    Plain strings: an Enum member reads several times slower, once per axiom.
    """

    DECLARATION = "declaration"  # a stated Declaration
    REGISTRATION = "registration"  # a document's declaration, ahead of its axioms
    IMPORT = "import"  # a binding brought in by use or read-external
    MENTION = "mention"  # a mention in a stated axiom
    LOAD = "load"  # a mention in an axiom read from a document


_DECLARING = {Arrival.DECLARATION, Arrival.REGISTRATION}

# The refusal of an entity whose IRI is known with another kind, by (where the
# IRI is known, how the entity arrives); where None stands for every place
# without an entry of its own. {0} is the known kind, {1} the arriving one.
_REFUSALS = {
    (None, Arrival.DECLARATION): "already {where} as {0}, redeclared as {1}",
    (None, Arrival.REGISTRATION): "already {where} as {0}, redeclared as {1}",
    ("declared", Arrival.REGISTRATION): "declared as both {0} and {1}",
    (None, Arrival.IMPORT): "already {where} as {0}, now imported as {1}",
    ("imported", Arrival.IMPORT): "already imported as {0}, now {1}",
    (None, Arrival.MENTION): "declared as {0} but used as {1}",
    (None, Arrival.LOAD): "declared as {0} but used as {1}",
    ("imported", Arrival.LOAD): "already imported as {0}, now {1}",
}


class Ontology:
    """An ordered, duplicate-free axiom store with a declaration registry.

    `entities` holds this ontology's own declarations in declaration order;
    `imported` holds entities brought in from elsewhere, which axioms may
    mention but which are not serialized as declarations here. Both map an
    entity's IRI to the entity. Every entity comes in through `admit`,
    which finds its IRI by the one `lookup` and refuses a second kind. A
    stated axiom comes in through `add_axiom`, and a document's axioms
    through `load`, the one load path: the functional-syntax reader loads a
    whole document with it, and `load_axiom` one axiom. All three stores
    only grow at their ends, so a `mark` of their lengths is a complete
    snapshot and `rollback` to it is exact.
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

    def add_prefix(self, base: str, label: str | None = None) -> None:
        """Register base under a prefix label, unless it already has one.

        base takes the first free label of `label`, `label2`, `label3`, ...;
        label defaults to base's last path segment, lowercased and cut down to
        letters and digits. A base of `BUILTIN_PREFIXES` always has its own,
        and their labels are never free.
        """
        if base in self.prefixes.values() or base in BUILTIN_PREFIXES.values():
            return
        stem = label or _prefix_stem(base)
        label, counter = stem, 2
        while label in self.prefixes or label in BUILTIN_PREFIXES:
            label = f"{stem}{counter}"
            counter += 1
        self.prefixes[label] = base

    def lookup(self, key: str) -> Entity | None:
        """The entity IRI key names: declared here, else imported, else built in."""
        return self.entities.get(key) or self.imported.get(key) or BUILTIN_ENTITIES.get(key)

    def admit(self, entity: Entity, how: str) -> Entity:
        """Accept entity arriving how (an `Arrival`), file it, or refuse it.

        A known IRI keeps its kind. A declaration files an IRI not declared
        yet as declared; any other arrival files an unknown one as imported,
        except a stated mention, which refuses it. Returns the entity kept.
        """
        key = entity.iri
        # `lookup`, written out: this runs once per mention of every axiom.
        known = self.entities.get(key) or self.imported.get(key) or BUILTIN_ENTITIES.get(key)
        if known is None:
            if how == Arrival.MENTION:
                raise UndeclaredEntity(f"axiom mentions undeclared entity <{entity.iri}>")
        elif known.kind is not entity.kind:
            where = "declared" if key in self.entities else (
                "imported" if key in self.imported else "built in")
            message = _REFUSALS.get((where, how)) or _REFUSALS[None, how]
            message = message.format(known.kind.value, entity.kind.value, where=where)
            raise DuplicateEntityKind(f"<{entity.iri}> {message}", entity=entity)
        elif how not in _DECLARING or key in self.entities:
            return known
        (self.entities if how in _DECLARING else self.imported)[key] = entity
        return entity

    def add_axiom(self, axiom: Axiom) -> bool:
        """Add one stated axiom; False when it is already present (structurally).

        `admit` accepts every entity the axiom mentions first; a Declaration
        arrives as one. The axiom is hashed once: it joins the set index
        first and leaves it again if it is refused.
        """
        index = self._axiom_set
        size = len(index)
        index.add(axiom)
        if len(index) == size:
            return False
        admit = self.admit
        try:
            if isinstance(axiom, Declaration):
                admit(axiom.entity, Arrival.DECLARATION)
            else:
                for entity in axiom_mentions(axiom):
                    admit(entity, Arrival.MENTION)
        except BaseException:
            index.discard(axiom)
            raise
        self.axioms.append(axiom)
        return True

    def load_axiom(self, axiom: Axiom) -> bool:
        """Add one axiom read from a document; False when already present.

        `load` of the one axiom: unlike `add_axiom`, a mentioned entity that
        is not known is admitted as imported instead of refused.
        """
        return self.load((axiom,), axiom_mentions(axiom)) == 1

    def load(self, axioms: Sequence[Axiom], entities: Iterable[Entity]) -> int:
        """Add one document's axioms in order; returns how many were new.

        entities lists every entity the axioms mention, in order of first
        mention, repeats allowed: a repeat can neither fail nor change what
        the store knows. Declarations are registered first, so an axiom may
        mention an entity declared below it; then each entity is admitted as
        loaded (an unknown one is imported); then each axiom not yet present
        joins the store, hashed once. A refusal adds no axiom.
        """
        admit = self.admit
        for axiom in axioms:
            if isinstance(axiom, Declaration):
                admit(axiom.entity, Arrival.REGISTRATION)
        for entity in entities:
            admit(entity, Arrival.LOAD)
        index, stored = self._axiom_set, self.axioms
        before = size = len(index)
        for axiom in axioms:
            index.add(axiom)
            if len(index) != size:
                size += 1
                stored.append(axiom)
        return size - before

    def add_axioms(self, axioms) -> int:
        return sum(map(self.add_axiom, axioms))

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
