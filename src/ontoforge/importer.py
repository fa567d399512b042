"""Bringing external ontologies into an environment.

Covers three jobs: parsing the functional-style interchange format back into
an Ontology, deriving DSL identifiers from IRI fragments or rdfs:labels, and
keeping memorised identifier-to-IRI snapshots so upstream renames surface as
deprecated aliases instead of silent breakage.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .errors import Diagnostic, Location, OntoforgeError
from .model import (
    And,
    AnnotationAssertion,
    AnnotationValue,
    Axiom,
    BUILTIN_ENTITIES,
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
    Named,
    NOTHING,
    Not,
    ObjectPropertyDomain,
    ObjectPropertyRange,
    Only,
    Ontology,
    Or,
    OWL_NS,
    RDFS_LABEL,
    RDFS_NS,
    Some,
    SubClassOf,
    SubObjectPropertyOf,
    THING,
    TransitiveObjectProperty,
    axiom_signature,
)
from .sexpr import IDENTIFIER_RE, ParseError

if TYPE_CHECKING:
    from .evaluator import Environment


class UnsupportedConstruct(OntoforgeError):
    """The functional text uses a construct outside the supported subset."""


class UnmappableLabel(OntoforgeError):
    """A label reduces to an empty identifier."""


class WrongOntology(OntoforgeError):
    """A memo table refers to a different source ontology."""


# --- functional-style parsing -----------------------------------------------

_TOKEN_RE = re.compile(
    r"""(?P<ws>[ \t\r\n]+)
      | (?P<open>\()
      | (?P<close>\))
      | (?P<bind>:=)
      | (?P<iriref><[^<>\s]+>)
      | (?P<literal>"(?:[^"\\]|\\.)*")
      | (?P<lang>@[A-Za-z0-9][A-Za-z0-9-]*)
      | (?P<name>[A-Za-z_][A-Za-z0-9_.-]*(?::[A-Za-z_][A-Za-z0-9_.-]*)?)
    """,
    re.VERBOSE,
)

_UNESCAPE = {"\\": "\\", '"': '"', "n": "\n", "t": "\t"}


@dataclass(frozen=True)
class _Token:
    type: str
    text: str
    line: int
    column: int


def _tokenize(text: str, file: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            col = pos - line_start + 1
            raise ParseError(f"unexpected character {text[pos]!r}", Location(file, line, col))
        kind = m.lastgroup
        value = m.group()
        if kind != "ws":
            tokens.append(_Token(kind, value, line, m.start() - line_start + 1))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            line_start = m.start() + value.rfind("\n") + 1
        pos = m.end()
    return tokens


def _unescape_literal(body: str, loc: Location) -> str:
    out: list[str] = []
    i = 0
    while i < len(body):
        ch = body[i]
        if ch == "\\":
            esc = body[i + 1]
            if esc not in _UNESCAPE:
                raise ParseError(f"unknown escape '\\{esc}' in literal", loc)
            out.append(_UNESCAPE[esc])
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


_CE_HEADS = {
    "ObjectIntersectionOf",
    "ObjectUnionOf",
    "ObjectComplementOf",
    "ObjectSomeValuesFrom",
    "ObjectAllValuesFrom",
}

_AXIOM_HEADS = {
    "Declaration",
    "SubClassOf",
    "EquivalentClasses",
    "DisjointClasses",
    "SubObjectPropertyOf",
    "ObjectPropertyDomain",
    "ObjectPropertyRange",
    "FunctionalObjectProperty",
    "TransitiveObjectProperty",
    "AnnotationAssertion",
    "Import",
}

_KIND_BY_KEYWORD = {
    "Class": Kind.CLASS,
    "ObjectProperty": Kind.OBJECT_PROPERTY,
    "AnnotationProperty": Kind.ANNOTATION_PROPERTY,
}


class _FunctionalParser:
    def __init__(self, text: str, file: str):
        self.tokens = _tokenize(text, file)
        self.file = file
        self.pos = 0
        self.prefixes: dict[str, str] = {"owl": OWL_NS, "rdfs": RDFS_NS}

    def _loc(self, token: _Token) -> Location:
        return Location(self.file, token.line, token.column)

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> _Token:
        token = self.peek()
        if token is None:
            last = self.tokens[-1] if self.tokens else _Token("ws", "", 1, 1)
            raise ParseError("unexpected end of input", self._loc(last))
        self.pos += 1
        return token

    def expect(self, type_: str, text: str | None = None) -> _Token:
        token = self.next()
        if token.type != type_ or (text is not None and token.text != text):
            want = text or type_
            raise ParseError(f"expected {want!r}, found {token.text!r}", self._loc(token))
        return token

    def parse(self) -> Ontology:
        while True:
            token = self.peek()
            if token is not None and token.type == "name" and token.text == "Prefix":
                self.next()
                self.expect("open")
                label = self.expect("name")
                if ":" in label.text:
                    raise ParseError(f"bad prefix label {label.text!r}", self._loc(label))
                self.expect("bind")
                base = self.expect("iriref").text[1:-1]
                self.expect("close")
                self.prefixes[label.text] = base
            else:
                break

        self.expect("name", "Ontology")
        self.expect("open")
        iri_token = self.expect("iriref")
        ontology = Ontology(self._iri(iri_token))
        ontology.prefixes = {
            label: base
            for label, base in self.prefixes.items()
            if label not in ("owl", "rdfs")
        }

        axioms: list[Axiom] = []
        while True:
            token = self.peek()
            if token is None:
                raise ParseError("unterminated Ontology(...)", self._loc(iri_token))
            if token.type == "close":
                self.next()
                break
            axioms.append(self._axiom())

        trailing = self.peek()
        if trailing is not None:
            raise ParseError(f"unexpected {trailing.text!r} after ontology", self._loc(trailing))

        for axiom in axioms:
            if isinstance(axiom, Declaration):
                known = ontology.entities.get(axiom.entity.iri)
                if known is not None and known.kind is not axiom.entity.kind:
                    raise DuplicateEntityKind(
                        f"<{axiom.entity.iri}> declared as both {known.kind.value} "
                        f"and {axiom.entity.kind.value}"
                    )
                ontology.entities.setdefault(axiom.entity.iri, axiom.entity)
        for axiom in axioms:
            for entity in axiom_signature(axiom):
                if (
                    entity.iri not in ontology.entities
                    and entity.iri not in BUILTIN_ENTITIES
                ):
                    ontology.register_imported(entity)
            ontology.add_axiom(axiom)
        return ontology

    def _iri(self, token: _Token) -> IRI:
        if token.type == "iriref":
            text = token.text[1:-1]
        elif token.type == "name" and ":" in token.text:
            label, local = token.text.split(":", 1)
            base = self.prefixes.get(label)
            if base is None:
                raise ParseError(f"unknown prefix '{label}'", self._loc(token))
            text = base + local
        else:
            raise ParseError(f"expected an IRI or CURIE, found {token.text!r}", self._loc(token))
        try:
            return IRI(text)
        except ValueError as err:
            raise ParseError(str(err), self._loc(token)) from None

    def _entity(self, kind: Kind) -> Entity:
        return Entity(kind, self._iri(self.next()))

    def _class_expression(self) -> ClassExpression:
        token = self.next()
        if token.type == "iriref" or (token.type == "name" and ":" in token.text):
            iri = self._iri(token)
            if iri.value == OWL_NS + "Thing":
                return THING
            if iri.value == OWL_NS + "Nothing":
                return NOTHING
            return Named(Entity(Kind.CLASS, iri))
        if token.type != "name":
            raise ParseError(f"expected a class expression, found {token.text!r}", self._loc(token))
        head = token
        if head.text not in _CE_HEADS:
            raise UnsupportedConstruct(
                f"unsupported construct '{head.text}' at line {head.line}", self._loc(head)
            )
        self.expect("open")
        name = head.text
        if name == "ObjectIntersectionOf" or name == "ObjectUnionOf":
            operands: list[ClassExpression] = []
            while self.peek() is not None and self.peek().type != "close":
                operands.append(self._class_expression())
            self.expect("close")
            cls = And if name == "ObjectIntersectionOf" else Or
            if len(operands) < 2:
                raise ParseError(f"{name} needs at least two operands", self._loc(head))
            return cls(tuple(operands))
        if name == "ObjectComplementOf":
            inner = self._class_expression()
            self.expect("close")
            return Not(inner)
        prop = self._entity(Kind.OBJECT_PROPERTY)
        filler = self._class_expression()
        self.expect("close")
        cls = Some if name == "ObjectSomeValuesFrom" else Only
        return cls(prop, filler)

    def _literal(self) -> AnnotationValue:
        token = self.expect("literal")
        text = _unescape_literal(token.text[1:-1], self._loc(token))
        lang = None
        nxt = self.peek()
        if nxt is not None and nxt.type == "lang":
            lang = self.next().text[1:]
        return AnnotationValue(text, lang)

    def _axiom(self) -> Axiom:
        head = self.next()
        if head.type != "name":
            raise ParseError(f"expected an axiom, found {head.text!r}", self._loc(head))
        name = head.text
        if name not in _AXIOM_HEADS:
            raise UnsupportedConstruct(
                f"unsupported construct '{name}' at line {head.line}", self._loc(head)
            )
        self.expect("open")
        try:
            return self._axiom_body(head)
        except ValueError as err:  # a model constructor rejected the operands
            raise ParseError(str(err), self._loc(head)) from None

    def _axiom_body(self, head: _Token) -> Axiom:
        name = head.text
        if name == "Declaration":
            kind_token = self.expect("name")
            kind = _KIND_BY_KEYWORD.get(kind_token.text)
            if kind is None:
                raise UnsupportedConstruct(
                    f"unsupported construct '{kind_token.text}' at line {kind_token.line}",
                    self._loc(kind_token),
                )
            self.expect("open")
            entity = Entity(kind, self._iri(self.next()))
            self.expect("close")
            self.expect("close")
            return Declaration(entity)
        if name == "SubClassOf":
            sub = self._class_expression()
            sup = self._class_expression()
            self.expect("close")
            return SubClassOf(sub, sup)
        if name == "EquivalentClasses":
            operands = []
            while self.peek() is not None and self.peek().type != "close":
                operands.append(self._class_expression())
            self.expect("close")
            return EquivalentClasses(tuple(operands))
        if name == "DisjointClasses":
            members = []
            while self.peek() is not None and self.peek().type != "close":
                ce = self._class_expression()
                if not isinstance(ce, Named):
                    raise ParseError(
                        "disjointness members must be named classes", self._loc(head)
                    )
                members.append(ce.entity)
            self.expect("close")
            return DisjointClasses(tuple(members))
        if name == "SubObjectPropertyOf":
            sub = self._entity(Kind.OBJECT_PROPERTY)
            sup = self._entity(Kind.OBJECT_PROPERTY)
            self.expect("close")
            return SubObjectPropertyOf(sub, sup)
        if name == "ObjectPropertyDomain":
            prop = self._entity(Kind.OBJECT_PROPERTY)
            ce = self._class_expression()
            self.expect("close")
            return ObjectPropertyDomain(prop, ce)
        if name == "ObjectPropertyRange":
            prop = self._entity(Kind.OBJECT_PROPERTY)
            ce = self._class_expression()
            self.expect("close")
            return ObjectPropertyRange(prop, ce)
        if name == "FunctionalObjectProperty":
            prop = self._entity(Kind.OBJECT_PROPERTY)
            self.expect("close")
            return FunctionalObjectProperty(prop)
        if name == "TransitiveObjectProperty":
            prop = self._entity(Kind.OBJECT_PROPERTY)
            self.expect("close")
            return TransitiveObjectProperty(prop)
        if name == "AnnotationAssertion":
            prop = self._entity(Kind.ANNOTATION_PROPERTY)
            subject = self._iri(self.next())
            value = self._literal()
            self.expect("close")
            return AnnotationAssertion(subject, prop, value)
        assert name == "Import"
        iri = self._iri(self.expect("iriref"))
        self.expect("close")
        return Import(iri)


def parse_functional(text: str, file: str = "<functional>") -> Ontology:
    """Parse functional-style text into an Ontology.

    Entities referenced without a declaration are registered as imported, so
    any output of render-functional parses back even when it mentions
    entities declared elsewhere.
    """
    return _FunctionalParser(text, file).parse()


# --- identifier derivation ---------------------------------------------------


def label_to_identifier(label: str) -> str:
    """Derive a DSL identifier from free label text.

    Whitespace runs and charset-breaking characters become '_', consecutive
    '_' collapse, trailing '_' is trimmed, and a leading digit gets an
    '_' prefix.
    """
    s = re.sub(r"\s+", "_", label.strip())
    s = re.sub(r"[^A-Za-z0-9_-]", "_", s)
    s = re.sub(r"_{2,}", "_", s)
    s = s.rstrip("_")
    if not s:
        raise UnmappableLabel(f"label {label!r} maps to an empty identifier")
    if not re.match(r"[A-Za-z_]", s[0]):
        s = "_" + s
    assert IDENTIFIER_RE.match(s), s
    return s


# --- interning ----------------------------------------------------------------


@dataclass
class InternRecord:
    """What was interned from one external ontology: identifier → entity."""

    source_iri: str
    bindings: dict[str, Entity] = field(default_factory=dict)


_INTERNABLE = (Kind.CLASS, Kind.OBJECT_PROPERTY, Kind.ANNOTATION_PROPERTY)


def _labels_by_subject(ontology: Ontology) -> dict[IRI, str]:
    found: dict[IRI, tuple[str, str]] = {}
    for axiom in ontology.axioms:
        if isinstance(axiom, AnnotationAssertion) and axiom.property == RDFS_LABEL:
            key = (axiom.value.text, axiom.value.lang or "")
            if axiom.subject not in found or key < found[axiom.subject]:
                found[axiom.subject] = key
    return {subject: text for subject, (text, _lang) in found.items()}


def _derive_prefix_label(base: str, taken: dict[str, str]) -> str:
    stem = re.sub(r"[#/]+$", "", base)
    stem = stem.rsplit("/", 1)[-1] if "/" in stem else stem.split(":", 1)[-1]
    stem = re.sub(r"[^A-Za-z0-9]", "", stem).lower() or "ext"
    if not stem[0].isalpha():
        stem = "ext" + stem
    label = stem
    counter = 2
    while label in taken and taken[label] != base:
        label = f"{stem}{counter}"
        counter += 1
    return label


def _entity_base(iri: IRI) -> str:
    v = iri.value
    if "#" in v:
        return v[: v.rindex("#") + 1]
    if "/" in v:
        return v[: v.rindex("/") + 1]
    return v[: v.index(":") + 1]


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
    record = env.interned.setdefault(
        external.iri.value, InternRecord(external.iri.value)
    )
    selected = [
        e
        for e in external.entities.values()
        if e.kind in _INTERNABLE and (prefix is None or e.iri.value.startswith(prefix))
    ]
    added = 0
    for entity in sorted(selected, key=lambda e: e.iri.value):
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
        while name in env.bindings and env.bindings[name] != entity:
            name = f"{base}_{counter}"
            counter += 1
        if env.bindings.get(name) == entity:
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
        env.ontology.register_imported(entity)
        record.bindings[name] = entity
        added += 1
        base_iri = _entity_base(entity.iri)
        if base_iri not in env.ontology.prefixes.values():
            label = _derive_prefix_label(base_iri, env.ontology.prefixes)
            env.ontology.prefixes.setdefault(label, base_iri)
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
        lines = text.splitlines()
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


def memorise_save(env: "Environment", source_iri: str) -> MemoTable:
    """Snapshot the current identifier-to-IRI table for one interned source."""
    record = env.interned.get(source_iri)
    if record is None:
        raise WrongOntology(f"nothing interned from <{source_iri}>")
    rows = sorted((name, entity.iri.value) for name, entity in record.bindings.items())
    return MemoTable(source_iri, tuple(rows))


def memorise_check(env: "Environment", saved: MemoTable) -> MemoReport:
    """Compare a saved snapshot against current bindings.

    Renamed identifiers become deprecated aliases (resolve keeps working,
    with a warning); IRIs gone from the source are listed as vanished.
    """
    from .evaluator import DeprecatedAlias

    record = env.interned.get(saved.source_iri)
    if record is None:
        raise WrongOntology(f"nothing interned from <{saved.source_iri}>")
    current_by_iri = {entity.iri.value: name for name, entity in record.bindings.items()}
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
