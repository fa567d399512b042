"""Shared diagnostic types: source locations, the error hierarchy root, warnings."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Location:
    """A point in a source file, 1-based."""

    file: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.column}"


def location_at(file: str, text: str, offset: int) -> Location:
    """The line and column of text[offset]."""
    line_start = text.rfind("\n", 0, offset) + 1
    return Location(file, text.count("\n", 0, line_start) + 1, offset - line_start + 1)


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
        if self.location is not None:
            return f"{self.location}: {self.severity}: {self.message}"
        return f"{self.severity}: {self.message}"
