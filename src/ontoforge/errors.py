"""Shared diagnostic types: source locations, the error hierarchy root, warnings.

A reader keeps each token's character offset into a `Source`, and
`Source.location` is the one rule that turns an offset into a `Location`.
It counts lines only when first asked, so a run that reports nothing never
does; the `.ont` reader's forms and the functional-syntax parser both use it.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Location:
    """A point in a source file, 1-based."""

    file: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.column}"


# Every reader's line ends: \r\n, \r and \n, as in Java properties files.
_LINE_END_RE = re.compile(r"\r\n|[\r\n]")


class Source:
    """A text and the file it came from; offsets into it resolve to Locations."""

    __slots__ = ("file", "text", "_line_starts")

    def __init__(self, file: str, text: str):
        self.file = file
        self.text = text
        self._line_starts: list[int] | None = None

    def location(self, offset: int) -> Location:
        """The line and column of text[offset]; the first call finds the line starts."""
        starts = self._line_starts
        if starts is None:
            starts = [0]
            starts.extend(m.end() for m in _LINE_END_RE.finditer(self.text))
            self._line_starts = starts
        line = bisect_right(starts, offset)
        return Location(self.file, line, offset - starts[line - 1] + 1)


def split_lines(text: str) -> list[str]:
    """The lines of text, broken only at \\r\\n, \\r and \\n, as in Java properties files.

    Unlike `str.splitlines`, a form feed, U+0085, U+2028 or U+2029 stays
    inside its line, so line numbers agree with an editor's.
    """
    return _LINE_END_RE.split(text)


class Located:
    """A value read at an offset of a Source; its location is resolved when read."""

    __slots__ = ()

    @property
    def location(self) -> Location:
        return self.source.location(self.offset)


class OntoforgeError(Exception):
    """Base of every toolkit error; optionally anchored to a source location."""

    def __init__(self, message: str, location: Location | None = None):
        super().__init__(message)
        self.message = message
        self.location = location

    def __str__(self) -> str:
        if self.location is not None:
            return f"{self.location}: {self.message}"
        return self.message


@dataclass(frozen=True)
class Diagnostic:
    """A non-fatal finding collected during evaluation, e.g. a deprecation."""

    severity: str
    message: str
    location: Location | None = None

    def render(self) -> str:
        """One line, `file:line:col: severity: message`, its line breaks escaped."""
        where = f"{self.location}: " if self.location is not None else ""
        return _LINE_BREAK_RE.sub(_escaped, f"{where}{self.severity}: {self.message}")


# Every character `str.splitlines` breaks at, so a message quoting input
# (a label file's key, say) cannot start a line that is not a diagnostic.
_LINE_BREAK_RE = re.compile("[\n\r\v\f\x1c-\x1e\x85\u2028\u2029]")


def _escaped(match: re.Match) -> str:
    return repr(match.group())[1:-1]
