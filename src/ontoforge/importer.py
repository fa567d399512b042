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
token texts alone; a token's offset is found again, by the same regex, only
when a diagnostic needs a line and a column. A text with a bad token is
refused first, so the reader tells every other kind by a token's first
character. It walks the token list by index, reading `tokens[i]` with no
call per token; each step returns the index after its last token, and
reading past the last token is the end of the input. Each row of `GRAMMAR`
builds its term positionally, in a field order worked out at import. Each
distinct IRI or CURIE text is validated and built once per parse, each
entity text once per kind, and each distinct class text becomes one `Named`
that every mention of it shares; the tables live as long as one parse.
Parenthesis nesting is capped at `sexpr.MAX_NESTING`, as in `.ont` sources.
The whole document is then loaded at once by `Ontology.load`: it registers
every declaration, admits each entity object of the parse once, in order of
first mention, which imports the undeclared ones and checks every kind, then
adds the axioms in text order. No axiom's signature is walked unless a kind
conflict needs locating: it is reported at the head of the entity's refused
declaration, or else of the first axiom that mentions it.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass, field, fields
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
    KINDS,
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
# checks, so every tag the model holds reads back. The branches begin with
# disjoint characters, so their order, the commonest first, changes no token.
_TOKEN_RE = re.compile(
    rf"""{LOCAL_NAME}(?::{LOCAL_NAME})?
      | \(
      | \)
      | :=
      | <[^<>\s]+>
      | "[^"\\]*(?:\\.[^"\\]*)*"
      | @{LANG_TAG}
      | [^ \t\r\n]""",
    re.VERBOSE,
)

# A token's kind by its first character; any other first character makes a
# bad token. Alone, the four characters of `_LONE_BAD` are bad tokens too:
# the longer token each one begins did not match there. A text with a bad
# token is refused before it is read, so the reader tells every other kind
# by its first character, and each punctuation kind by its one text.
_KINDS = {"(": "open", ")": "close", ":": "bind", "<": "iriref", '"': "literal", "@": "lang"}
_KINDS.update(dict.fromkeys(string.ascii_letters + "_", "name"))
_LONE_BAD = frozenset(':<"@')


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

# Operand kinds. An entity operand is given by its entity kind instead.
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

# Each Declaration keyword's kind, as the one str of `KINDS` its entities hold.
_DECLARATION_KINDS = {kind: kind for kind in KINDS}


def _row(cls: type) -> tuple:
    """cls, its operand kinds in text order, and the operand that fills each
    of its fields, or None when they are in text order."""
    operands = GRAMMAR[cls][1]
    order = tuple([name for name, _ in operands].index(f.name) for f in fields(cls))
    in_text_order = order == tuple(range(len(order)))
    return cls, tuple(kind for _, kind in operands), None if in_text_order else order


_CE_ROWS = {GRAMMAR[cls][0]: _row(cls) for cls in GRAMMAR if issubclass(cls, ClassExpression)}
_AXIOM_ROWS = {GRAMMAR[cls][0]: _row(cls) for cls in GRAMMAR if issubclass(cls, Axiom)}


class _FunctionalParser:
    """Reads one text. A token is its text, and a step reads `tokens` from an index."""

    def __init__(self, text: str, file: str):
        self.source = Source(file, text)
        self.tokens: list[str] = _TOKEN_RE.findall(text)
        self.prefixes: dict[str, str] = dict(BUILTIN_PREFIXES)
        # Each IRI by the IRI or CURIE text it was built from, each entity by
        # its text in its kind's table, and each class expression by the
        # class token it was read from. Every Prefix comes before the first
        # IRI, so one text always means one IRI. `entities` lists each entity
        # the tables hold, in order of first mention.
        self.iris: dict[str, IRI] = {}
        self.tables: dict[str, dict[str, Entity]] = {kind: {} for kind in KINDS}
        self.entities: list[Entity] = []
        self.classes: dict[str, Named] = {}
        # A bad character anywhere wins over any grammar error. Each distinct
        # text is classified once, and only a one-character text can be bad.
        bad = {token for token in set(self.tokens) if len(token) == 1 and _kind(token) == "bad"}
        if bad:
            index = next(i for i, token in enumerate(self.tokens) if token in bad)
            raise ParseError(f"unexpected character {self.tokens[index]!r}", self._loc(index))

    def _loc(self, index: int) -> Location:
        return self.source.location(_token_start(self.source.text, index))

    def _expected(self, what: str, index: int) -> ParseError:
        return ParseError(f"expected {what!r}, found {self.tokens[index]!r}", self._loc(index))

    def _unsupported(self, index: int, what: str) -> OntoforgeError:
        """The error for tokens[index], which heads no term read here, where what is expected."""
        token, loc = self.tokens[index], self._loc(index)
        if _kind(token) != "name":
            return ParseError(f"expected {what}, found {token!r}", loc)
        return UnsupportedConstruct(f"unsupported construct '{token}' at line {loc.line}", loc)

    def parse(self) -> Ontology:
        """The whole text as an Ontology, loaded by `Ontology.load`.

        Each entity this parse built is admitted once, in order of first
        mention; only a refusal walks the axioms, to locate it.
        """
        ontology, axioms, heads = self.read()
        try:
            ontology.load(axioms, self.entities)
        except DuplicateEntityKind as err:
            at = _first_use(axioms, err.entity)
            raise DuplicateEntityKind(err.message, self._loc(heads[at]), err.entity) from None
        return ontology

    def read(self) -> tuple[Ontology, list[Axiom], list[int]]:
        """The header's Ontology, its axioms in text order, and each head's token index."""
        tokens = self.tokens
        axioms: list[Axiom] = []
        heads: list[int] = []
        try:
            i = 0
            while tokens[i] == "Prefix":
                for j, kind in enumerate(("open", "name", "bind", "iriref", "close"), i + 1):
                    if _kind(tokens[j]) != kind:
                        raise self._expected(kind, j)
                    if kind == "name" and ":" in tokens[j]:
                        raise ParseError(f"bad prefix label {tokens[j]!r}", self._loc(j))
                self.prefixes[tokens[i + 2]] = tokens[i + 4][1:-1]
                i += 6

            if tokens[i] != "Ontology":
                raise self._expected("Ontology", i)
            if tokens[i + 1] != "(":
                raise self._expected("open", i + 1)
            ontology_iri = i = i + 2
            if tokens[i][0] != "<":
                raise self._expected("iriref", i)
            ontology = Ontology(self._iri(tokens[i], i))
            ontology.prefixes = {
                label: base
                for label, base in self.prefixes.items()
                if label not in BUILTIN_PREFIXES
            }

            i += 1
            n = len(tokens)
            while True:
                if i == n:
                    raise ParseError("unterminated Ontology(...)", self._loc(ontology_iri))
                token = tokens[i]
                if token == ")":
                    i += 1
                    break
                heads.append(i)
                if token == "Declaration":
                    if tokens[i + 1] != "(":
                        raise self._expected("open", i + 1)
                    kind = _DECLARATION_KINDS.get(tokens[i + 2])
                    if kind is None:
                        raise self._unsupported(i + 2, "'name'")
                    if tokens[i + 3] != "(":
                        raise self._expected("open", i + 3)
                    token = tokens[i + 4]
                    entity = self.tables[kind].get(token) or self._entity(kind, token, i + 4)
                    if tokens[i + 5] != ")" or tokens[i + 6] != ")":
                        raise self._expected("close", i + 5 if tokens[i + 5] != ")" else i + 6)
                    axiom = Declaration(entity)
                    i += 7
                else:
                    row = _AXIOM_ROWS.get(token)
                    if row is None:
                        raise self._unsupported(i, "an axiom")
                    try:
                        # The ontology's and the axiom's parentheses enclose every operand.
                        axiom, i = self._term(row, i + 1, 2)
                    except ValueError as err:  # the operands broke a model constraint
                        raise ParseError(str(err), self._loc(heads[-1])) from None
                axioms.append(axiom)
        except IndexError:
            last = max(len(tokens) - 1, 0)
            raise ParseError("unexpected end of input", self._loc(last)) from None

        if i < n:
            raise ParseError(f"unexpected {tokens[i]!r} after ontology", self._loc(i))
        return ontology, axioms, heads

    def _iri(self, token: str, index: int) -> IRI:
        """The IRI of token, which is tokens[index]."""
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
                raise ParseError(f"unknown prefix '{label}'", self._loc(index))
            value = base + local
        else:
            raise ParseError(f"expected an IRI or CURIE, found {token!r}", self._loc(index))
        try:
            iri = self.iris[token] = IRI(value)
        except ValueError as err:
            raise ParseError(str(err), self._loc(index)) from None
        return iri

    def _entity(self, kind: str, token: str, index: int) -> Entity:
        """A new entity of kind, named by token, which is tokens[index]."""
        entity = self.tables[kind][token] = Entity(kind, self._iri(token, index))
        self.entities.append(entity)
        return entity

    def _term(self, row: tuple, i: int, depth: int) -> tuple:
        """The term of row whose "(", at nesting depth, is tokens[i], and the
        index after its ")". Its head is tokens[i - 1]."""
        cls, kinds, order = row
        tokens = self.tokens
        head = i - 1
        if tokens[i] != "(":
            raise self._expected("open", i)
        if depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", self._loc(i))
        i += 1
        classes = self.classes
        values = []
        for kind in kinds:
            token = tokens[i]
            if kind is CE:
                value = classes.get(token)
                if value is None:
                    value, i = self._class_expression(i, depth)
                else:
                    i += 1
            elif kind is CES or kind is CLASSES:
                items = []
                while token != ")":
                    item = classes.get(token)
                    if item is None:
                        item, i = self._class_expression(i, depth)
                    else:
                        i += 1
                    if kind is CLASSES:
                        if not isinstance(item, Named):
                            raise ValueError("disjointness members must be named classes")
                        item = item.entity
                    items.append(item)
                    token = tokens[i]
                # An axiom's model class checks its operand count, located at
                # the axiom; a class expression's is checked at its head.
                if len(items) < 2 and kind is CES and issubclass(cls, ClassExpression):
                    raise ParseError(f"{tokens[head]} needs at least two operands", self._loc(head))
                value = tuple(items)
            elif kind is LITERAL:
                if token[0] != '"':
                    raise self._expected("literal", i)
                text = token[1:-1]
                if "\\" in text:
                    try:
                        text = unescape(text, "literal")
                    except ValueError as err:
                        raise ParseError(str(err), self._loc(i)) from None
                i += 1
                lang = None
                if i < len(tokens) and tokens[i][0] == "@":
                    lang = tokens[i][1:]
                    i += 1
                value = AnnotationValue(text, lang)
            elif kind is IRIREF or kind is IRI_OR_CURIE:
                if kind is IRIREF and token[0] != "<":
                    raise self._expected("iriref", i)
                value = self.iris.get(token) or self._iri(token, i)
                i += 1
            else:
                value = self.tables[kind].get(token) or self._entity(kind, token, i)
                i += 1
            values.append(value)
        if tokens[i] != ")":
            raise self._expected("close", i)
        return cls(*values) if order is None else cls(*[values[k] for k in order]), i + 1

    def _class_expression(self, i: int, depth: int) -> tuple:
        """The class expression at tokens[i], inside depth levels of
        parentheses, that `classes` does not hold, and the index after it."""
        token = self.tokens[i]
        kind = _kind(token)
        if kind == "iriref" or (kind == "name" and ":" in token):
            entity = self.tables[Kind.CLASS].get(token) or self._entity(Kind.CLASS, token, i)
            ce = self.classes[token] = Named(entity)
            return ce, i + 1
        row = _CE_ROWS.get(token)
        if row is None:
            raise self._unsupported(i, "a class expression")
        return self._term(row, i + 1, depth + 1)


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
    assert IDENTIFIER_RE.fullmatch(s), s
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
    label = RDFS_LABEL.iri  # an assertion's property is always an annotation property
    for axiom in ontology.axioms:
        if isinstance(axiom, AnnotationAssertion) and axiom.property.iri == label:
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
