"""Reading and printing the s-expression surface syntax.

Forms are plain value dataclasses carrying the location of their first token.
`read_forms` and `print_forms` are inverse enough that reading printed output
reproduces the same forms (modulo locations and whitespace).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import Location, OntoforgeError


class ParseError(OntoforgeError):
    pass


@dataclass(frozen=True)
class Identifier:
    name: str
    location: Location


@dataclass(frozen=True)
class Keyword:
    name: str
    location: Location


@dataclass(frozen=True)
class Text:
    value: str
    location: Location


@dataclass(frozen=True)
class ListForm:
    children: tuple
    location: Location


@dataclass(frozen=True)
class BracketForm:
    children: tuple
    location: Location


Form = Identifier | Keyword | Text | ListForm | BracketForm

IDENTIFIER_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_-]*$")
_NS_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_-]*(\.[A-Za-z_][A-Za-z0-9_-]*)*$")

# The deepest parenthesis nesting the .ont and functional-syntax readers
# accept. The evaluator, normalizer and renderers recurse over what is read,
# so a limit at read time keeps all of them clear of Python's recursion limit.
MAX_NESTING = 100

_DELIMS = set(" \t\r\n()[];\"")
_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t"}


def is_valid_identifier(name: str) -> bool:
    return bool(IDENTIFIER_RE.match(name))


def is_valid_namespace(name: str) -> bool:
    return bool(_NS_RE.match(name))


def split_qualified(name: str) -> tuple[str | None, str]:
    """Split 'ns/ident' into (ns, ident); plain names give (None, name)."""
    if "/" in name:
        ns, _, local = name.rpartition("/")
        return ns, local
    return None, name


class _Scanner:
    def __init__(self, text: str, file: str):
        self.text = text
        self.file = file
        self.pos = 0
        self.line = 1
        self.col = 1

    def location(self) -> Location:
        return Location(self.file, self.line, self.col)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def advance(self) -> str:
        ch = self.text[self.pos]
        self.pos += 1
        if ch == "\n":
            self.line += 1
            self.col = 1
        else:
            self.col += 1
        return ch

    def skip_blank(self) -> None:
        while self.pos < len(self.text):
            ch = self.peek()
            if ch in " \t\r\n":
                self.advance()
            elif ch == ";":
                while self.pos < len(self.text) and self.peek() != "\n":
                    self.advance()
            else:
                return


def _read_string(sc: _Scanner) -> Text:
    loc = sc.location()
    sc.advance()
    out: list[str] = []
    while True:
        if sc.pos >= len(sc.text):
            raise ParseError("unterminated string literal", loc)
        ch = sc.advance()
        if ch == '"':
            return Text("".join(out), loc)
        if ch == "\\":
            if sc.pos >= len(sc.text):
                raise ParseError("unterminated string literal", loc)
            esc = sc.advance()
            if esc not in _ESCAPES:
                raise ParseError(f"unknown escape '\\{esc}' in string", loc)
            out.append(_ESCAPES[esc])
        else:
            out.append(ch)


def _read_atom(sc: _Scanner) -> Identifier | Keyword:
    loc = sc.location()
    chars: list[str] = []
    while sc.pos < len(sc.text) and sc.peek() not in _DELIMS:
        chars.append(sc.advance())
    atom = "".join(chars)
    if atom.startswith(":"):
        if len(atom) == 1:
            raise ParseError("':' is not a keyword", loc)
        return Keyword(atom[1:], loc)
    return Identifier(atom, loc)


def _read_form(sc: _Scanner, depth: int = 0) -> Form:
    """One form inside depth levels of brackets."""
    sc.skip_blank()
    if sc.pos >= len(sc.text):
        raise ParseError("unexpected end of input", sc.location())
    ch = sc.peek()
    if ch in "([":
        open_loc = sc.location()
        depth += 1
        if depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", open_loc)
        closing = ")" if ch == "(" else "]"
        sc.advance()
        children: list[Form] = []
        while True:
            sc.skip_blank()
            if sc.pos >= len(sc.text):
                raise ParseError(f"unclosed '{ch}'", open_loc)
            nxt = sc.peek()
            if nxt in ")]":
                close_loc = sc.location()
                sc.advance()
                if nxt != closing:
                    raise ParseError(f"mismatched '{nxt}', expected '{closing}'", close_loc)
                cls = ListForm if ch == "(" else BracketForm
                return cls(tuple(children), open_loc)
            children.append(_read_form(sc, depth))
    if ch in ")]":
        raise ParseError(f"unexpected '{ch}'", sc.location())
    if ch == '"':
        return _read_string(sc)
    return _read_atom(sc)


def read_forms(text: str, file: str = "<string>") -> list[Form]:
    """Parse a whole document into its top-level forms."""
    sc = _Scanner(text, file)
    forms: list[Form] = []
    while True:
        sc.skip_blank()
        if sc.pos >= len(sc.text):
            return forms
        forms.append(_read_form(sc))


def _escape(value: str) -> str:
    out = value.replace("\\", "\\\\").replace('"', '\\"')
    return out.replace("\n", "\\n").replace("\t", "\\t")


def print_form(form: Form) -> str:
    if isinstance(form, Identifier):
        return form.name
    if isinstance(form, Keyword):
        return ":" + form.name
    if isinstance(form, Text):
        return f'"{_escape(form.value)}"'
    if isinstance(form, ListForm):
        return "(" + " ".join(print_form(c) for c in form.children) + ")"
    if isinstance(form, BracketForm):
        return "[" + " ".join(print_form(c) for c in form.children) + "]"
    raise TypeError(f"not a form: {form!r}")


def print_forms(forms) -> str:
    """Render forms one per line; reading the result yields the same forms."""
    return "".join(print_form(f) + "\n" for f in forms)


def strip_locations(form: Form):
    """A location-free tuple view, handy for structural comparison in tests."""
    if isinstance(form, Identifier):
        return ("id", form.name)
    if isinstance(form, Keyword):
        return ("kw", form.name)
    if isinstance(form, Text):
        return ("text", form.value)
    if isinstance(form, ListForm):
        return ("list", tuple(strip_locations(c) for c in form.children))
    if isinstance(form, BracketForm):
        return ("bracket", tuple(strip_locations(c) for c in form.children))
    raise TypeError(f"not a form: {form!r}")
