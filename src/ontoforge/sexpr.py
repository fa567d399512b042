"""Reading and printing the s-expression surface syntax.

Forms are plain value dataclasses carrying the location of their first token.
`read_forms` and `print_forms` are inverse enough that reading printed output
reproduces the same forms (modulo locations and whitespace).

`read_forms` makes one `re.finditer` pass over the text. Each match is one
token with the blanks and `;` comments before it: an atom, an open or a close
bracket, a complete string, a lone `"` (an unterminated string) or the end
of the text. Lists are built on an explicit stack of open brackets, so
nesting costs no recursion; `MAX_NESTING` caps it. A token's line and column
come from the newlines between it and the previous located token
(`str.count` and `str.rfind`), so no character is visited in Python. A close
bracket needs no location unless it is an error. Errors are raised in text
order, each at the position the message names: a string error at its open
quote, `unclosed` at the innermost open bracket.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import Location, OntoforgeError, location_at


class ParseError(OntoforgeError):
    pass


@dataclass(frozen=True, slots=True)
class Identifier:
    name: str
    location: Location


@dataclass(frozen=True, slots=True)
class Keyword:
    name: str
    location: Location


@dataclass(frozen=True, slots=True)
class Text:
    value: str
    location: Location


@dataclass(frozen=True, slots=True)
class ListForm:
    children: tuple
    location: Location


@dataclass(frozen=True, slots=True)
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


# One match per token. Blanks and `;` comments before a token are folded into
# its match, so the matches tile the text; every position that is not blank
# starts one of the groups, and the `end` group takes the blanks and comment
# at the end of the text, so a comment is never read as an atom. A `quote` is
# a `"` that opens no complete string: an unterminated string literal.
_TOKEN_RE = re.compile(
    r"""[ \t\r\n]*(?:;[^\n]*[ \t\r\n]*)*
      (?: (?P<atom>[^ \t\r\n()\[\];"]+)
        | (?P<open>[(\[])
        | (?P<close>[)\]])
        | (?P<text>"[^"\\]*(?:\\.[^"\\]*)*")
        | (?P<quote>")
        | (?P<end>\Z)
      )""",
    re.VERBOSE | re.DOTALL,
)
_ATOM, _OPEN, _CLOSE, _TEXT, _QUOTE = 1, 2, 3, 4, 5
_CLOSING = {"(": (")", ListForm), "[": ("]", BracketForm)}
_ESCAPE_RE = re.compile(r"\\(.)", re.DOTALL)
_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t"}


def _unescape(body: str, location: Location) -> str:
    """A string's value from the text after its open quote; escapes pair up left to right."""

    def one(m: re.Match) -> str:
        value = _ESCAPES.get(m[1])
        if value is None:
            raise ParseError(f"unknown escape '\\{m[1]}' in string", location)
        return value

    return _ESCAPE_RE.sub(one, body)


def read_forms(text: str, file: str = "<string>") -> list[Form]:
    """Parse a whole document into its top-level forms."""
    forms: list[Form] = []
    children = forms  # of the innermost open bracket, or the top level
    stack: list[tuple[list, str, Location]] = []  # (enclosing children, bracket, location)
    count, rfind = text.count, text.rfind
    line, line_start, last = 1, 0, 0  # at the last located token, which starts at last
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastindex
        pos = m.start(kind)
        if kind == _CLOSE:
            close = m[kind]
            if not stack:
                raise ParseError(f"unexpected '{close}'", location_at(file, text, pos))
            parent, bracket, open_loc = stack.pop()
            closing, cls = _CLOSING[bracket]
            if close != closing:
                raise ParseError(
                    f"mismatched '{close}', expected '{closing}'", location_at(file, text, pos)
                )
            parent.append(cls(tuple(children), open_loc))
            children = parent
            continue
        newlines = count("\n", last, pos)
        if newlines:
            line += newlines
            line_start = rfind("\n", last, pos) + 1
        last = pos
        loc = Location(file, line, pos - line_start + 1)
        if kind == _ATOM:
            atom = m[kind]
            if atom[0] != ":":
                children.append(Identifier(atom, loc))
            elif len(atom) > 1:
                children.append(Keyword(atom[1:], loc))
            else:
                raise ParseError("':' is not a keyword", loc)
        elif kind == _OPEN:
            if len(stack) == MAX_NESTING:
                raise ParseError(f"nesting deeper than {MAX_NESTING} levels", loc)
            stack.append((children, m[kind], loc))
            children = []
        elif kind == _TEXT:
            body = m[kind][1:-1]
            children.append(Text(_unescape(body, loc) if "\\" in body else body, loc))
        elif kind == _QUOTE:
            _unescape(text[pos + 1:], loc)
            raise ParseError("unterminated string literal", loc)
        else:
            break
    if stack:
        _, bracket, open_loc = stack[-1]
        raise ParseError(f"unclosed '{bracket}'", open_loc)
    return forms


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
