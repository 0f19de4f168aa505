"""Exception types shared across the package.

The CLI maps these onto exit codes: NotationError family -> 2,
InputError (LexError, ParseError) -> 3, WeaveFailure (and the
ConflictError items inside it) -> 1.
"""

from __future__ import annotations


class GramweaveError(Exception):
    """Base class for all errors raised by this package."""


class NotationError(GramweaveError):
    """Syntax or well-formedness error in one of the textual notations
    (grammar, pattern, annotation, aspect, lexer spec, palette)."""

    def __init__(self, message: str, source: str = "<string>", line: int = 0, col: int = 0):
        super().__init__(message)
        self.message = message
        self.source = source
        self.line = line
        self.col = col

    def __str__(self) -> str:
        if self.line:
            return f"{self.source}:{self.line}:{self.col}: {self.message}"
        return f"{self.source}: {self.message}"


class InputError(GramweaveError):
    """The input text does not fit the lexer spec or the grammar at a
    character offset.  Messages name the place as `where`, or as the
    offset while no caller that knows the file has set it."""

    where: str | None = None  # e.g. "path:line:col"

    def __init__(self, message: str, position: int):
        super().__init__(message)
        self.message = message
        self.position = position

    def __str__(self) -> str:
        return f"{self.where or f'offset {self.position}'}: {self.message}"


class LexError(InputError):
    """No token candidate matches at some input position."""


class ParseError(InputError):
    """Input token stream is not derivable from the start symbol."""

    def __init__(self, message: str, position: int, expected: tuple[str, ...] = ()):
        super().__init__(message, position)
        self.expected = expected

    def __str__(self) -> str:
        s = super().__str__()
        if self.expected:
            s += " (expected " + ", ".join(self.expected) + ")"
        return s


class ConflictError(GramweaveError):
    """Two different values attached under the same (namespace, name) on one node."""

    def __init__(self, node_id: int, span: tuple[int, int], namespace: str | None, name: str,
                 existing_value, existing_prov, new_value, new_prov):
        self.node_id = node_id
        self.span = span
        self.namespace = namespace
        self.name = name
        self.existing_value = existing_value
        self.existing_prov = existing_prov
        self.new_value = new_value
        self.new_prov = new_prov
        super().__init__(str(self))

    def __str__(self) -> str:
        qual = f"{self.namespace}:{self.name}" if self.namespace else self.name
        return (
            f"conflicting values for '{qual}' on node {self.node_id} at {self.span[0]}..{self.span[1]}: "
            f"{_prov_text(self.existing_prov)} sets {self.existing_value!r}, "
            f"{_prov_text(self.new_prov)} sets {self.new_value!r}"
        )


def _prov_text(prov) -> str:
    if prov is None:
        return "a direct attachment"
    aspect, rule = prov
    if rule is None:
        return f"aspect {aspect} (grammar annotation)"
    return f"aspect {aspect} rule {rule}"


class WeaveFailure(GramweaveError):
    """Raised by weave() after processing everything; carries all collected errors."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(str(e) for e in self.errors))


class WhitespaceError(GramweaveError):
    """A before/after attribute value does not decode to a whitespace program."""
