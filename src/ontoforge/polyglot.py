"""Multilingual labels via properties files.

Translators edit flat `identifier=label text` files, one per language, so
they never touch ontology sources. Parsing follows the familiar
key=value shape: lines end only at \\n, \\r or \\r\\n, '#' or '!' lines are
comments, the first unescaped '=' splits key from value, and the escapes
\\\\, \\=, \\n, \\t are honored.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import Location, OntoforgeError, split_lines
from .model import AnnotationAssertion, AnnotationValue, Entity, Kind, RDFS_LABEL, language_tag

if TYPE_CHECKING:
    from .evaluator import Environment


class MalformedLine(OntoforgeError):
    pass


class DuplicateKey(OntoforgeError):
    pass


_UNESCAPE = {"\\": "\\", "=": "=", "n": "\n", "t": "\t"}


def parse_properties(text: str, file: str = "<properties>") -> dict[str, str]:
    """Key/value pairs in file order; a repeated key is an error.

    Keys are trimmed on both sides; values keep trailing whitespace and lose
    only leading whitespace, as in Java properties files.
    """
    table: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(split_lines(text), start=1):
        if not line.strip() or line[0] in "#!":
            continue
        loc = Location(file, lineno, 1)
        key_parts: list[str] = []
        value_parts: list[str] | None = None
        i = 0
        while i < len(line):
            ch = line[i]
            if ch == "\\":
                if i + 1 >= len(line):
                    raise MalformedLine("dangling escape at end of line", loc)
                esc = line[i + 1]
                if esc not in _UNESCAPE:
                    raise MalformedLine(f"unknown escape '\\{esc}'", loc)
                (key_parts if value_parts is None else value_parts).append(_UNESCAPE[esc])
                i += 2
                continue
            if ch == "=" and value_parts is None:
                value_parts = []
            else:
                (key_parts if value_parts is None else value_parts).append(ch)
            i += 1
        if value_parts is None:
            raise MalformedLine("line has no '=' separator", loc)
        key = "".join(key_parts).strip()
        if not key:
            raise MalformedLine("empty key", loc)
        if key in table:
            raise DuplicateKey(
                f"key '{key}' on lines {first_line[key]} and {lineno}", loc
            )
        table[key] = "".join(value_parts).lstrip()
        first_line[key] = lineno
    return table


def _escape(text: str, escape_eq: bool) -> str:
    out = text.replace("\\", "\\\\")
    if escape_eq:
        out = out.replace("=", "\\=")
    return out.replace("\n", "\\n").replace("\t", "\\t")


def render_properties(table: dict[str, str], header: str | None = None) -> str:
    lines = [f"# {header}"] if header else []
    lines.extend(f"{_escape(k, True)}={_escape(v, False)}" for k, v in table.items())
    return "\n".join(lines) + "\n"


def _own_classes(env: "Environment") -> dict[str, Entity]:
    """Unqualified binding names for classes declared in env's own ontology."""
    own = {}
    declared = env.ontology.entities
    for name, entity in env.bindings.items():
        if "/" in name:
            continue
        if entity.kind is Kind.CLASS and declared.get(entity.iri) == entity:
            own[name] = entity
    return own


@dataclass(frozen=True)
class LabelReport:
    added: int
    missing: tuple[str, ...]
    unknown: tuple[str, ...]


def apply_labels(env: "Environment", table: dict[str, str], lang: str) -> LabelReport:
    """Turn table entries into rdfs:label assertions for bound classes.

    Empty values are skipped and the class counted missing; unknown keys are
    reported, not fatal. `added` excludes assertions already present.
    """
    classes = _own_classes(env)
    added = 0
    covered: set[str] = set()
    unknown: list[str] = []
    for key, value in table.items():
        entity = classes.get(key)
        if entity is None:
            unknown.append(key)
            continue
        if not value:
            continue
        covered.add(key)
        axiom = AnnotationAssertion(entity.iri, RDFS_LABEL, AnnotationValue(value, lang))
        if env.ontology.add_axiom(axiom):
            added += 1
    missing = tuple(sorted(set(classes) - covered))
    return LabelReport(added, missing, tuple(sorted(unknown)))


def emit_skeleton(env: "Environment", lang: str) -> str:
    """A fill-in properties file: one row per class, existing labels kept.

    lang is folded as labels hold their tags, so "EN" keeps the @en labels.
    """
    lang = language_tag(lang)
    classes = _own_classes(env)
    name_by_iri = {}
    for name in sorted(classes):
        name_by_iri.setdefault(classes[name].iri, name)
    existing: dict[str, str] = {}
    for axiom in env.ontology.axioms:
        if (
            isinstance(axiom, AnnotationAssertion)
            and axiom.property == RDFS_LABEL
            and axiom.value.lang == lang
        ):
            name = name_by_iri.get(axiom.subject)
            if name is not None and name not in existing:
                existing[name] = axiom.value.text
    table = {name: existing.get(name, "") for name in sorted(classes)}
    header = f"label skeleton for namespace {env.namespace}, lang {lang}"
    return render_properties(table, header)
