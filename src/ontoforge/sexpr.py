"""Reading and printing the s-expression surface syntax.

Forms are slot dataclasses compared by value (class and fields); they are
not hashable. Nothing assigns to a form after the reader or
`patterns._substitute` builds it, so template bodies share their forms
between expansions. They are not frozen: a frozen dataclass's `__init__`
sets each field through `object.__setattr__`, and building forms is most of
what `read_forms` costs. Each form keeps the character offset of its first
token and the `Source` it was read from, which every form of one text
shares; `form.location` turns the offset into `file:line:col` when it is
read, so only a diagnostic pays for counting lines. `read_forms` and
`print_forms` are inverse enough that reading printed output reproduces the
same forms (modulo locations and whitespace).

`read_forms` makes one `re.finditer` pass over the text. Each match is one
token with the blanks and `;` comments before it: an atom, an open or a close
bracket, a complete string, a lone `"` (an unterminated string) or the end
of the text. Lists are built on an explicit stack of open brackets, so
nesting costs no recursion; `MAX_NESTING` caps it. Errors are raised in text
order, each at the position the message names: a string error at its open
quote, `unclosed` at the innermost open bracket.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass

from .errors import Located, OntoforgeError, Source


class ParseError(OntoforgeError):
    pass


@dataclass(slots=True)
class Identifier(Located):
    name: str
    offset: int
    source: Source


@dataclass(slots=True)
class Keyword(Located):
    name: str
    offset: int
    source: Source


@dataclass(slots=True)
class Text(Located):
    value: str
    offset: int
    source: Source


@dataclass(slots=True)
class ListForm(Located):
    children: tuple
    offset: int
    source: Source


@dataclass(slots=True)
class BracketForm(Located):
    children: tuple
    offset: int
    source: Source


Form = Identifier | Keyword | Text | ListForm | BracketForm

# The name rules match a whole name; a namespace name is identifiers joined by dots.
_IDENTIFIER = r"[A-Za-z_][A-Za-z0-9_-]*"
IDENTIFIER_RE = re.compile(_IDENTIFIER)
_NS_RE = re.compile(rf"{_IDENTIFIER}(?:\.{_IDENTIFIER})*")

# The deepest parenthesis nesting the .ont and functional-syntax readers
# accept. The evaluator, normalizer and renderers recurse over what is read,
# so a limit at read time keeps all of them clear of Python's recursion limit.
MAX_NESTING = 100


def is_valid_identifier(name: str) -> bool:
    return IDENTIFIER_RE.fullmatch(name) is not None


def is_valid_namespace(name: str) -> bool:
    return _NS_RE.fullmatch(name) is not None


def head_name(form: Form) -> str | None:
    """The name of the identifier that heads form, a list; else None."""
    if isinstance(form, ListForm) and form.children and isinstance(form.children[0], Identifier):
        return form.children[0].name
    return None


# The form type each operand kind requires. A kind "(head)" is a list headed by
# head; any other (a class, a class expression, an option, an assertion, a
# top-level form) is checked when it is evaluated.
KIND_TYPES = {"identifier": Identifier, "text": Text, "bracket": BracketForm, "list": ListForm}


class Row:
    """One row of a form table: a head's handler, its operand shape and shape error.

    `kinds` names what each operand holds, in order. A kind ending in `?` is
    optional (a flag such as `:cover?` is found by the handler); the last may
    end in `*` (repeated) or `+` (repeated, at least once). `fewest` raises
    the count a repeated kind needs (a partition's two values). `check`
    refuses a wrong count, or a fixed operand of a wrong type, with
    `error(message)` at the form; a repeated operand is checked by `each`
    where its handler reaches it, with `error(each_message)` at the operand.
    `options` are the keywords an `option*` tail admits.
    """

    __slots__ = ("handler", "kinds", "error", "message", "each_message", "options", "fewest",
                 "most", "_fixed", "_tail", "_tail_head")

    def __init__(self, handler, kinds: str, error, message: str, *, each="",
                 options=frozenset(), fewest=None):
        self.handler, self.kinds, self.error, self.message = handler, kinds.split(), error, message
        self.each_message, self.options = each, options
        names = [kind.rstrip("?*+") for kind in self.kinds]
        tail = names.pop() if kinds.endswith(("*", "+")) else ""
        self.most = sys.maxsize if tail else len(names)
        required = sum(not kind.endswith(("?", "*")) for kind in self.kinds)
        self.fewest = required if fewest is None else fewest
        # (position, type) of each fixed operand whose kind is a form type;
        # what the others hold is checked when they are evaluated
        self._fixed = tuple((i, KIND_TYPES[k]) for i, k in enumerate(names) if k in KIND_TYPES)
        self._tail_head = tail[1:-1] if tail.startswith("(") else None
        self._tail = KIND_TYPES.get(tail, object)

    def check(self, where: Located, operands: tuple) -> tuple:
        """operands, when their count and fixed types fit the row."""
        count = len(operands)
        if self.fewest <= count <= self.most:
            for i, kind in self._fixed:
                if i < count and not isinstance(operands[i], kind):
                    break
            else:
                return operands
        raise self.error(self.message, where.location)

    def each(self, operand: Form) -> Form:
        """operand, a repeated one, when it is of the repeated kind."""
        tail_head = self._tail_head
        if head_name(operand) != tail_head if tail_head else not isinstance(operand, self._tail):
            raise self.error(self.each_message, operand.location)
        return operand


# One match per token. Blanks and `;` comments before a token are folded into
# its match, so the matches tile the text; a comment ends at `\r` or `\n`, the
# line ends `errors.Source` counts. Every position that is not blank starts one
# of the groups, and the `end` group takes the blanks and comment at the end of
# the text, so a comment is never read as an atom. A `quote` is a `"` that
# opens no complete string: an unterminated string literal.
_TOKEN_RE = re.compile(
    r"""[ \t\r\n]*(?:;[^\r\n]*[ \t\r\n]*)*
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
# The escapes a `.ont` string or a functional-syntax literal may hold, by the
# character after the backslash; `escape` and `unescape` read the one table
# in opposite directions.
ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t"}
_ESCAPE_RE = re.compile(r"\\(.)", re.DOTALL)
_ESCAPING = str.maketrans({char: "\\" + esc for esc, char in ESCAPES.items()})


def escape(value: str) -> str:
    return value.translate(_ESCAPING)


def unescape(body: str, what: str) -> str:
    """The value of a what ("string", "literal") from its body between the quotes.

    Escapes pair up left to right. Raises ValueError naming the first
    unknown escape.
    """

    def one(m: re.Match) -> str:
        value = ESCAPES.get(m[1])
        if value is None:
            raise ValueError(f"unknown escape '\\{m[1]}' in {what}")
        return value

    return _ESCAPE_RE.sub(one, body)


def _string(body: str, source: Source, offset: int) -> str:
    """The value of the string whose open quote is at offset, from the text after it."""
    try:
        return unescape(body, "string")
    except ValueError as err:
        raise ParseError(str(err), source.location(offset)) from None


def read_forms(text: str, file: str = "<string>") -> list[Form]:
    """Parse a whole document into its top-level forms."""
    source = Source(file, text)
    forms: list[Form] = []
    children = forms  # of the innermost open bracket, or the top level
    stack: list[tuple[list, str, int]] = []  # (enclosing children, bracket, offset)
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastindex
        pos = m.start(kind)
        if kind == _ATOM:
            atom = m[kind]
            if atom[0] != ":":
                children.append(Identifier(atom, pos, source))
            elif len(atom) > 1:
                children.append(Keyword(atom[1:], pos, source))
            else:
                raise ParseError("':' is not a keyword", source.location(pos))
        elif kind == _OPEN:
            if len(stack) == MAX_NESTING:
                raise ParseError(f"nesting deeper than {MAX_NESTING} levels", source.location(pos))
            stack.append((children, m[kind], pos))
            children = []
        elif kind == _CLOSE:
            close = m[kind]
            if not stack:
                raise ParseError(f"unexpected '{close}'", source.location(pos))
            parent, bracket, open_pos = stack.pop()
            closing, cls = _CLOSING[bracket]
            if close != closing:
                raise ParseError(
                    f"mismatched '{close}', expected '{closing}'", source.location(pos)
                )
            parent.append(cls(tuple(children), open_pos, source))
            children = parent
        elif kind == _TEXT:
            body = m[kind][1:-1]
            value = _string(body, source, pos) if "\\" in body else body
            children.append(Text(value, pos, source))
        elif kind == _QUOTE:
            _string(text[pos + 1:], source, pos)
            raise ParseError("unterminated string literal", source.location(pos))
        else:
            break
    if stack:
        _, bracket, open_pos = stack[-1]
        raise ParseError(f"unclosed '{bracket}'", source.location(open_pos))
    return forms


def print_form(form: Form) -> str:
    if isinstance(form, Identifier):
        return form.name
    if isinstance(form, Keyword):
        return ":" + form.name
    if isinstance(form, Text):
        return f'"{escape(form.value)}"'
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
