"""Multilingual labels via properties files.

Translators edit flat `identifier=label text` files, one per language, so
they never touch ontology sources. Parsing follows the familiar
key=value shape: lines end only at \\n, \\r or \\r\\n, '#' or '!' lines are
comments, the first unescaped '=' splits key from value, and the escapes
\\\\, \\=, \\n, \\t are honored: one table, `_UNESCAPE`, read both ways.
"""

from __future__ import annotations

import re
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


# The escapes by the character after the backslash; `render_properties` reads
# the table the other way, escaping `=` in keys only.
_UNESCAPE = {"\\": "\\", "=": "=", "n": "\n", "t": "\t"}
_ESCAPE_RE = re.compile(r"\\(.?)")
_ESCAPING_KEY = str.maketrans({char: "\\" + esc for esc, char in _UNESCAPE.items()})
_ESCAPING_VALUE = str.maketrans({char: "\\" + esc for esc, char in _UNESCAPE.items()
                                 if esc != "="})
# A line's key: everything before the first '=' that no backslash escapes.
_KEY_RE = re.compile(r"(?:[^\\=]|\\.?)*")


def _unescape(text: str, loc: Location) -> str:
    """text with its escapes replaced; they pair up left to right."""

    def one(m: re.Match) -> str:
        value = _UNESCAPE.get(m[1])
        if value is None:
            message = f"unknown escape '\\{m[1]}'" if m[1] else "dangling escape at end of line"
            raise MalformedLine(message, loc)
        return value

    return _ESCAPE_RE.sub(one, text)


def parse_properties(text: str, file: str = "<properties>") -> dict[str, str]:
    """Key/value pairs in file order; a repeated key is an error.

    Keys are trimmed on both sides; values keep trailing whitespace and lose
    only leading whitespace, as in Java properties files. An escape error
    is raised before a missing '=', as the key holds the whole line then.
    """
    table: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(split_lines(text), start=1):
        if not line.strip() or line[0] in "#!":
            continue
        loc = Location(file, lineno, 1)
        split = _KEY_RE.match(line).end()
        key = _unescape(line[:split], loc).strip()
        if split == len(line):
            raise MalformedLine("line has no '=' separator", loc)
        value = _unescape(line[split + 1:], loc).lstrip()
        if not key:
            raise MalformedLine("empty key", loc)
        if key in table:
            raise DuplicateKey(
                f"key '{key}' on lines {first_line[key]} and {lineno}", loc
            )
        table[key] = value
        first_line[key] = lineno
    return table


def render_properties(table: dict[str, str], header: str | None = None) -> str:
    lines = [f"# {header}"] if header else []
    lines.extend(
        f"{k.translate(_ESCAPING_KEY)}={v.translate(_ESCAPING_VALUE)}" for k, v in table.items()
    )
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
