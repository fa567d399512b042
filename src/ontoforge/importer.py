"""Bringing external ontologies into an environment.

Covers three jobs: parsing the functional-style interchange format back into
an Ontology, deriving DSL identifiers from IRI fragments or rdfs:labels, and
keeping memorised identifier-to-IRI snapshots so upstream renames surface as
deprecated aliases instead of silent breakage.

The module also holds the functional-style grammar that both directions
use: `GRAMMAR` gives each axiom and complex class expression its head and
its operands in text order, and `serializer.render_functional` writes by the
same table that the parser reads by. Declarations and named classes are the
only terms spelled out by hand on each side.

The parser tokenizes with one group-free regex whose `findall` gives the
token texts alone: a token's kind follows from its text, and its offset is
found again, by the same regex, only when a diagnostic needs a line and a
column. The punctuation kinds (`(`, `)`, `:=`) have one text each, which
`expect` compares as text before it asks for a token's kind. Each distinct
IRI or CURIE text is validated and built once per parse, each kind and text
of an entity becomes one `Entity`, and each distinct class text becomes one
`Named` that every mention of it shares; the tables live as long as one
parse. Parenthesis nesting is capped at `sexpr.MAX_NESTING`, as in `.ont`
sources. The whole document is then loaded at once by `Ontology.load`: it
registers every declaration, admits each entity object of the parse once, in
order of first mention, which imports the undeclared ones and checks every
kind, then adds the axioms in text order. No axiom's signature is walked
unless a kind conflict needs locating: it is reported at the head of the
entity's refused declaration, or else of the first axiom that mentions it.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass, field
from itertools import islice
from typing import TYPE_CHECKING

from .errors import Diagnostic, Location, OntoforgeError, Source, split_lines
from .model import (
    And,
    AnnotationAssertion,
    AnnotationValue,
    Arrival,
    Axiom,
    BUILTIN_PREFIXES,
    ClassExpression,
    Declaration,
    DisjointClasses,
    DuplicateEntityKind,
    Entity,
    EquivalentClasses,
    FunctionalObjectProperty,
    Import,
    IRI,
    Kind,
    LANG_TAG,
    Named,
    Not,
    ObjectPropertyDomain,
    ObjectPropertyRange,
    Only,
    Ontology,
    Or,
    RDFS_LABEL,
    Some,
    SubClassOf,
    SubObjectPropertyOf,
    TransitiveObjectProperty,
    axiom_mentions,
)
from .sexpr import IDENTIFIER_RE, MAX_NESTING, ParseError, unescape

if TYPE_CHECKING:
    from .evaluator import Environment


class UnsupportedConstruct(OntoforgeError):
    """The functional text uses a construct outside the supported subset."""


class UnmappableLabel(OntoforgeError):
    """A label reduces to an empty identifier."""


class WrongOntology(OntoforgeError):
    """A memo table refers to a different source ontology."""


# --- functional-style parsing -----------------------------------------------

# A name token, and each side of a CURIE: a prefix label or a local name.
# `serializer.shorten` writes a CURIE only when its local name is one whole,
# and `intern_external` registers a base only for such a local name.
LOCAL_NAME = r"[A-Za-z_][A-Za-z0-9_.-]*"
LOCAL_RE = re.compile(LOCAL_NAME)

# One match per token, in text order; the spaces, tabs and line breaks
# between tokens match nothing. Any other character that starts no token is
# a bad token of its own, so every character outside that whitespace lies in
# exactly one token. A language tag is `LANG_TAG`, the rule `AnnotationValue`
# checks, so every tag the model holds reads back.
_TOKEN_RE = re.compile(
    rf"""\(
      | \)
      | :=
      | <[^<>\s]+>
      | "[^"\\]*(?:\\.[^"\\]*)*"
      | @{LANG_TAG}
      | {LOCAL_NAME}(?::{LOCAL_NAME})?
      | [^ \t\r\n]""",
    re.VERBOSE,
)

# A token's kind by its first character; any other first character makes a
# bad token. Alone, the four characters of `_LONE_BAD` are bad tokens too:
# the longer token each one begins did not match there.
_KINDS = {"(": "open", ")": "close", ":": "bind", "<": "iriref", '"': "literal", "@": "lang"}
_KINDS.update(dict.fromkeys(string.ascii_letters + "_", "name"))
_LONE_BAD = frozenset(':<"@')
# The one text of each punctuation kind, which `expect` compares directly.
_PUNCTUATION = {"open": "(", "close": ")", "bind": ":="}


def _kind(token: str) -> str:
    """open, close, bind, iriref, literal, lang, name or bad."""
    if len(token) == 1 and token in _LONE_BAD:
        return "bad"
    return _KINDS.get(token[0], "bad")


def _token_start(text: str, index: int) -> int:
    """Where token index of text starts (0 when text has no such token).

    The tokens keep no offsets; the scan runs again up to the token asked for.
    """
    match = next(islice(_TOKEN_RE.finditer(text), index, None), None)
    return match.start() if match else 0


# --- the grammar -----------------------------------------------------------

# Operand kinds. An entity operand is given by its Kind instead.
CE = "class expression"
CES = "class expressions"
CLASSES = "named classes"
IRI_OR_CURIE = "IRI or CURIE"
IRIREF = "<IRI>"
LITERAL = "literal"

# The functional-style syntax of every axiom and complex class expression:
# model class -> (head, (field, operand kind) in text order). The parser and
# `serializer.render_functional` both read it. Declarations and named classes
# are written out by hand on each side.
GRAMMAR: dict[type, tuple[str, tuple[tuple[str, object], ...]]] = {
    And: ("ObjectIntersectionOf", (("operands", CES),)),
    Or: ("ObjectUnionOf", (("operands", CES),)),
    Not: ("ObjectComplementOf", (("operand", CE),)),
    Some: ("ObjectSomeValuesFrom", (("property", Kind.OBJECT_PROPERTY), ("filler", CE))),
    Only: ("ObjectAllValuesFrom", (("property", Kind.OBJECT_PROPERTY), ("filler", CE))),
    SubClassOf: ("SubClassOf", (("sub", CE), ("sup", CE))),
    EquivalentClasses: ("EquivalentClasses", (("operands", CES),)),
    DisjointClasses: ("DisjointClasses", (("operands", CLASSES),)),
    SubObjectPropertyOf: (
        "SubObjectPropertyOf",
        (("sub", Kind.OBJECT_PROPERTY), ("sup", Kind.OBJECT_PROPERTY)),
    ),
    ObjectPropertyDomain: (
        "ObjectPropertyDomain",
        (("property", Kind.OBJECT_PROPERTY), ("ce", CE)),
    ),
    ObjectPropertyRange: ("ObjectPropertyRange", (("property", Kind.OBJECT_PROPERTY), ("ce", CE))),
    FunctionalObjectProperty: ("FunctionalObjectProperty", (("property", Kind.OBJECT_PROPERTY),)),
    TransitiveObjectProperty: ("TransitiveObjectProperty", (("property", Kind.OBJECT_PROPERTY),)),
    AnnotationAssertion: (
        "AnnotationAssertion",
        (("property", Kind.ANNOTATION_PROPERTY), ("subject", IRI_OR_CURIE), ("value", LITERAL)),
    ),
    Import: ("Import", (("iri", IRIREF),)),
}

# The entity kinds a Declaration names, by the keyword that is the Kind's value.
_DECLARATION_KINDS = {kind.value: kind for kind in Kind}

_CE_ROWS = {
    head: (cls, ops) for cls, (head, ops) in GRAMMAR.items() if issubclass(cls, ClassExpression)
}
_AXIOM_ROWS = {
    head: (cls, ops) for cls, (head, ops) in GRAMMAR.items() if issubclass(cls, Axiom)
}


class _FunctionalParser:
    """Reads one text. A token is its text; `pos` indexes the next one."""

    def __init__(self, text: str, file: str):
        self.source = Source(file, text)
        self.tokens: list[str] = _TOKEN_RE.findall(text)
        self.pos = 0
        self.prefixes: dict[str, str] = dict(BUILTIN_PREFIXES)
        # Each IRI by the IRI or CURIE text it was built from, each entity by
        # its kind and text, and each class expression by the class token it
        # was read from. Every Prefix comes before the first IRI, so one text
        # always means one IRI.
        self.iris: dict[str, IRI] = {}
        self.entities: dict[tuple[Kind, str], Entity] = {}
        self.classes: dict[str, Named] = {}
        # A bad character anywhere wins over any grammar error. Each distinct
        # text is classified once, and only a one-character text can be bad.
        bad = {token for token in set(self.tokens) if len(token) == 1 and _kind(token) == "bad"}
        if bad:
            index = next(i for i, token in enumerate(self.tokens) if token in bad)
            raise ParseError(f"unexpected character {self.tokens[index]!r}", self._loc(index))

    def _loc(self, index: int) -> Location:
        return self.source.location(_token_start(self.source.text, index))

    def _here(self) -> Location:
        """Where the token that `next` or `expect` returned last starts."""
        return self._loc(self.pos - 1)

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> str:
        try:
            token = self.tokens[self.pos]
        except IndexError:
            last = max(len(self.tokens) - 1, 0)
            raise ParseError("unexpected end of input", self._loc(last)) from None
        self.pos += 1
        return token

    def expect(self, kind: str, text: str | None = None) -> str:
        """The next token, which must be of kind, and be text when text is given."""
        token = self.next()
        fixed = text or _PUNCTUATION.get(kind)
        if token != fixed and (fixed is not None or _kind(token) != kind):
            raise ParseError(f"expected {text or kind!r}, found {token!r}", self._here())
        return token

    def _unsupported(self, index: int) -> UnsupportedConstruct:
        loc = self._loc(index)
        return UnsupportedConstruct(
            f"unsupported construct '{self.tokens[index]}' at line {loc.line}", loc
        )

    def parse(self) -> Ontology:
        """The whole text as an Ontology, loaded by `Ontology.load`.

        Each entity this parse built is admitted once, in order of first
        mention; only a refusal walks the axioms, to locate it.
        """
        ontology, axioms, heads = self.read()
        try:
            ontology.load(axioms, self.entities.values())
        except DuplicateEntityKind as err:
            at = _first_use(axioms, err.entity)
            raise DuplicateEntityKind(err.message, self._loc(heads[at]), err.entity) from None
        return ontology

    def read(self) -> tuple[Ontology, list[Axiom], list[int]]:
        """The header's Ontology, its axioms in text order, and each head's token index."""
        while self.peek() == "Prefix":
            self.next()
            self.expect("open")
            label = self.expect("name")
            if ":" in label:
                raise ParseError(f"bad prefix label {label!r}", self._here())
            self.expect("bind")
            base = self.expect("iriref")[1:-1]
            self.expect("close")
            self.prefixes[label] = base

        self.expect("name", "Ontology")
        self.expect("open")
        ontology = Ontology(self._iri(self.expect("iriref")))
        ontology_iri = self.pos - 1
        ontology.prefixes = {
            label: base
            for label, base in self.prefixes.items()
            if label not in BUILTIN_PREFIXES
        }

        axioms: list[Axiom] = []
        heads: list[int] = []
        while True:
            token = self.peek()
            if token is None:
                raise ParseError("unterminated Ontology(...)", self._loc(ontology_iri))
            if token == ")":
                self.next()
                break
            heads.append(self.pos)
            axioms.append(self._axiom())

        trailing = self.peek()
        if trailing is not None:
            raise ParseError(f"unexpected {trailing!r} after ontology", self._loc(self.pos))
        return ontology, axioms, heads

    def _iri(self, token: str) -> IRI:
        """The IRI of the token just read."""
        iri = self.iris.get(token)
        if iri is not None:
            return iri
        kind = _kind(token)
        if kind == "iriref":
            value = token[1:-1]
        elif kind == "name" and ":" in token:
            label, local = token.split(":", 1)
            base = self.prefixes.get(label)
            if base is None:
                raise ParseError(f"unknown prefix '{label}'", self._here())
            value = base + local
        else:
            raise ParseError(f"expected an IRI or CURIE, found {token!r}", self._here())
        try:
            iri = self.iris[token] = IRI(value)
        except ValueError as err:
            raise ParseError(str(err), self._here()) from None
        return iri

    def _entity(self, kind: Kind, token: str) -> Entity:
        """The entity of kind that the token just read names."""
        key = (kind, token)
        entity = self.entities.get(key)
        if entity is None:
            entity = self.entities[key] = Entity(kind, self._iri(token))
        return entity

    def _operands(self, operands: tuple[tuple[str, object], ...], depth: int) -> dict:
        """A term's field values, read from its "(" at nesting depth to its ")"."""
        self.expect("open")
        if depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", self._here())
        values = {}
        for name, kind in operands:
            if kind is CE:
                value = self._class_expression(depth)
            elif kind is CES or kind is CLASSES:
                items = []
                while (token := self.peek()) is not None and token != ")":
                    item = self._class_expression(depth)
                    if kind is CLASSES:
                        if not isinstance(item, Named):
                            raise ValueError("disjointness members must be named classes")
                        item = item.entity
                    items.append(item)
                value = tuple(items)
            elif kind is LITERAL:
                value = self._literal()
            elif kind is IRIREF:
                value = self._iri(self.expect("iriref"))
            elif kind is IRI_OR_CURIE:
                value = self._iri(self.next())
            else:
                value = self._entity(kind, self.next())
            values[name] = value
        self.expect("close")
        return values

    def _class_expression(self, depth: int) -> ClassExpression:
        """One class expression inside depth levels of parentheses."""
        token = self.next()
        ce = self.classes.get(token)
        if ce is not None:
            return ce
        kind = _kind(token)
        if kind == "iriref" or (kind == "name" and ":" in token):
            ce = self.classes[token] = Named(self._entity(Kind.CLASS, token))
            return ce
        head = self.pos - 1
        if kind != "name":
            raise ParseError(f"expected a class expression, found {token!r}", self._loc(head))
        row = _CE_ROWS.get(token)
        if row is None:
            raise self._unsupported(head)
        cls, operands = row
        values = self._operands(operands, depth + 1)
        # An axiom's model class checks its operand count, located at the
        # axiom; a class expression's count is checked here, at its head.
        if any(kind is CES and len(values[key]) < 2 for key, kind in operands):
            raise ParseError(f"{token} needs at least two operands", self._loc(head))
        return cls(**values)

    def _literal(self) -> AnnotationValue:
        text = self.expect("literal")[1:-1]
        try:
            text = unescape(text, "literal") if "\\" in text else text
        except ValueError as err:
            raise ParseError(str(err), self._here()) from None
        lang = None
        nxt = self.peek()
        if nxt is not None and _kind(nxt) == "lang":
            lang = self.next()[1:]
        return AnnotationValue(text, lang)

    def _axiom(self) -> Axiom:
        token = self.next()
        head = self.pos - 1
        if _kind(token) != "name":
            raise ParseError(f"expected an axiom, found {token!r}", self._loc(head))
        if token == "Declaration":
            self.expect("open")
            kind = _DECLARATION_KINDS.get(self.expect("name"))
            if kind is None:
                raise self._unsupported(self.pos - 1)
            self.expect("open")
            entity = self._entity(kind, self.next())
            self.expect("close")
            self.expect("close")
            return Declaration(entity)
        row = _AXIOM_ROWS.get(token)
        if row is None:
            raise self._unsupported(head)
        cls, operands = row
        try:
            # The ontology's and the axiom's parentheses enclose every operand.
            return cls(**self._operands(operands, 2))
        except ValueError as err:  # the operands broke a model constraint
            raise ParseError(str(err), self._loc(head)) from None


def _first_use(axioms: list[Axiom], entity: Entity) -> int:
    """The index of the axiom at which loading refuses entity.

    Declarations are registered before any other axiom is loaded, so a
    refused declaration is the entity's first one; an entity the text never
    declares is refused where it is first mentioned.
    """
    for i, axiom in enumerate(axioms):
        if isinstance(axiom, Declaration) and axiom.entity == entity:
            return i
    return next(i for i, axiom in enumerate(axioms) if entity in axiom_mentions(axiom))


def parse_functional(text: str, file: str = "<functional>") -> Ontology:
    """Parse functional-style text into an Ontology.

    Entities referenced without a declaration are registered as imported, so
    any output of render-functional parses back even when it mentions
    entities declared elsewhere. Axioms, declarations and imports keep the
    order of the text.
    """
    return _FunctionalParser(text, file).parse()


# --- identifier derivation ---------------------------------------------------


# One maximal run of characters an identifier cannot hold, '_' included.
_NON_IDENTIFIER_RUN_RE = re.compile(r"[^A-Za-z0-9-]+")
_IDENTIFIER_START = frozenset(string.ascii_letters + "_")


def label_to_identifier(label: str) -> str:
    """Derive a DSL identifier from free label text.

    Each run of whitespace, '_' and charset-breaking characters in the
    stripped label becomes one '_', a trailing '_' is trimmed, and a leading
    digit or '-' gets an '_' prefix.
    """
    s = _NON_IDENTIFIER_RUN_RE.sub("_", label.strip()).rstrip("_")
    if not s:
        raise UnmappableLabel(f"label {label!r} maps to an empty identifier")
    if s[0] not in _IDENTIFIER_START:
        s = "_" + s
    assert IDENTIFIER_RE.match(s), s
    return s


# --- interning ----------------------------------------------------------------


@dataclass
class InternRecord:
    """What was interned from one external ontology: identifier → entity."""

    source_iri: str
    bindings: dict[str, Entity] = field(default_factory=dict)


def _labels_by_subject(ontology: Ontology) -> dict[IRI, str]:
    """Each labelled subject's IRI to its least (text, language) label text."""
    found: dict[IRI, tuple[str, str]] = {}
    for axiom in ontology.axioms:
        if isinstance(axiom, AnnotationAssertion) and axiom.property == RDFS_LABEL:
            subject = axiom.subject
            key = (axiom.value.text, axiom.value.lang or "")
            if subject not in found or key < found[subject]:
                found[subject] = key
    return {subject: text for subject, (text, _lang) in found.items()}


def intern_external(
    env: "Environment",
    external: Ontology,
    naming: str = "fragment",
    prefix: str | None = None,
) -> int:
    """Bind the external ontology's entities in env under derived identifiers.

    naming is "fragment" or "label"; prefix, when given, keeps only entities
    whose IRI starts with it. Collisions get _2, _3 suffixes in ascending IRI
    order, with a warning each. Returns the number of bindings added.
    """
    if naming not in ("fragment", "label"):
        raise ValueError(f"naming must be 'fragment' or 'label', got {naming!r}")
    labels = _labels_by_subject(external) if naming == "label" else {}
    record = env.interned.setdefault(external.iri, InternRecord(external.iri))
    selected = [
        e for e in external.entities.values() if prefix is None or e.iri.startswith(prefix)
    ]
    added = 0
    bases: set[str] = set()
    for entity in sorted(selected, key=lambda e: e.iri):
        if naming == "label":
            label = labels.get(entity.iri)
            if label is None:
                base = label_to_identifier(entity.iri.fragment())
                env.warnings.append(
                    Diagnostic(
                        "warning",
                        f"<{entity.iri}> has no rdfs:label; falling back to fragment '{base}'",
                    )
                )
            else:
                base = label_to_identifier(label)
        else:
            base = label_to_identifier(entity.iri.fragment())
        name = base
        counter = 2
        bound = env.bindings.get(name)
        while bound is not None and bound != entity:
            name = f"{base}_{counter}"
            counter += 1
            bound = env.bindings.get(name)
        if bound is not None:  # name is already bound to entity
            record.bindings.setdefault(name, entity)
            continue
        if name != base:
            env.warnings.append(
                Diagnostic(
                    "warning",
                    f"identifier '{base}' already bound; interned <{entity.iri}> as '{name}'",
                )
            )
        env.bindings[name] = entity
        env.ontology.admit(entity, Arrival.IMPORT)
        record.bindings[name] = entity
        added += 1
        # a base whose local name is no CURIE's would be a prefix no name uses
        fragment = entity.iri.fragment()
        entity_base = entity.iri[: len(entity.iri) - len(fragment)]
        if entity_base not in bases and LOCAL_RE.fullmatch(fragment):
            bases.add(entity_base)
            env.ontology.add_prefix(entity_base)
    return added


# --- memorised snapshots -------------------------------------------------------


@dataclass(frozen=True)
class MemoTable:
    """A snapshot of identifier-to-IRI rows for one source ontology."""

    source_iri: str
    rows: tuple[tuple[str, str], ...]

    def to_text(self) -> str:
        lines = [f"#memo {self.source_iri}"]
        lines.extend(f"{name}\t{iri}" for name, iri in self.rows)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str, file: str = "<memo>") -> "MemoTable":
        lines = split_lines(text)
        if not lines or not lines[0].startswith("#memo "):
            raise ParseError("memo file must start with '#memo <source-iri>'", Location(file, 1, 1))
        source = lines[0][len("#memo "):].strip()
        rows: list[tuple[str, str]] = []
        names: set[str] = set()
        iris: set[str] = set()
        for i, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            if "\t" not in line:
                raise ParseError("memo row needs identifier<TAB>iri", Location(file, i, 1))
            name, iri = line.split("\t", 1)
            if name in names or iri in iris:
                raise ParseError(f"duplicate memo row at line {i}", Location(file, i, 1))
            names.add(name)
            iris.add(iri)
            rows.append((name, iri))
        return cls(source, tuple(rows))


@dataclass(frozen=True)
class MemoReport:
    stable: bool
    deprecated: tuple[tuple[str, str, str], ...]
    vanished: tuple[str, ...]


@dataclass
class DeprecatedAlias:
    """An identifier a snapshot held that the source now names `current`."""

    old: str
    current: str
    entity: Entity


def memorise_save(env: "Environment", source_iri: str) -> MemoTable:
    """Snapshot the current identifier-to-IRI table for one interned source."""
    record = env.interned.get(source_iri)
    if record is None:
        raise WrongOntology(f"nothing interned from <{source_iri}>")
    rows = sorted((name, entity.iri) for name, entity in record.bindings.items())
    return MemoTable(source_iri, tuple(rows))


def memorise_check(env: "Environment", saved: MemoTable) -> MemoReport:
    """Compare a saved snapshot against current bindings.

    Renamed identifiers become deprecated aliases (resolve keeps working,
    with a warning); IRIs gone from the source are listed as vanished.
    """
    record = env.interned.get(saved.source_iri)
    if record is None:
        raise WrongOntology(f"nothing interned from <{saved.source_iri}>")
    current_by_iri = {entity.iri: name for name, entity in record.bindings.items()}
    deprecated: list[tuple[str, str, str]] = []
    vanished: list[str] = []
    for old_name, iri in saved.rows:
        current = current_by_iri.get(iri)
        if current is None:
            vanished.append(iri)
        elif current != old_name:
            deprecated.append((old_name, current, iri))
            if old_name not in env.bindings:
                env.deprecated[old_name] = DeprecatedAlias(
                    old_name, current, record.bindings[current]
                )
    deprecated.sort()
    vanished.sort()
    return MemoReport(not deprecated and not vanished, tuple(deprecated), tuple(vanished))
