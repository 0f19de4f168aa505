"""Character cursor shared by the textual notations.

Grammars, rule patterns, annotations and aspect files all use the same
lexical ground rules: names, unsigned integers, single-quoted strings
with \\n \\t \\\\ \\' escapes, '//' line comments, and free whitespace.
Patterns, annotations and aspects are parsed by recursive descent straight
over characters, so each notation can resolve its own punctuation (e.g.
'..' vs '...' vs '.') in context.  Grammars, whose punctuation is all
single characters, are lexed in one pass by grammar._lex.
"""

from __future__ import annotations

import string

from .errors import NotationError

_NAME_START = set(string.ascii_letters + "_")
_NAME_CONT = set(string.ascii_letters + string.digits + "_")
_ESCAPES = {"n": "\n", "t": "\t", "\\": "\\", "'": "'"}
_UNESCAPES = {"\n": "\\n", "\t": "\\t", "\\": "\\\\", "'": "\\'"}


def line_col(text: str, pos: int) -> tuple[int, int]:
    """1-based (line, column) of a character offset into text."""
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def escape_string(text: str) -> str:
    """Render text as a single-quoted literal for any of the notations."""
    return "'" + "".join(_UNESCAPES.get(c, c) for c in text) + "'"


class Cursor:
    def __init__(self, text: str, source: str = "<string>"):
        self.text = text
        self.pos = 0
        self.source = source

    # -- location and errors ------------------------------------------------

    def location(self, pos: int | None = None) -> tuple[int, int]:
        """1-based (line, column) of pos, by default the cursor's."""
        return line_col(self.text, self.pos if pos is None else pos)

    def error(self, message: str, pos: int | None = None):
        line, col = self.location(pos)
        raise NotationError(message, self.source, line, col)

    # -- whitespace and lookahead -------------------------------------------

    def skip_ws(self) -> None:
        t, n = self.text, len(self.text)
        i = self.pos
        while i < n:
            c = t[i]
            if c in " \t\r\n":
                i += 1
            elif c == "/" and i + 1 < n and t[i + 1] == "/":
                while i < n and t[i] != "\n":
                    i += 1
            else:
                break
        self.pos = i

    def eof(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def mark(self) -> int:
        return self.pos

    def restore(self, mark: int) -> None:
        self.pos = mark

    def peek_char(self) -> str:
        """First character of the next lexeme ('' at end of input)."""
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    # -- acceptors ------------------------------------------------------------

    def accept(self, lexeme: str) -> bool:
        """Consume an exact punctuation lexeme. Not for names or dot runs."""
        self.skip_ws()
        if self.text.startswith(lexeme, self.pos):
            self.pos += len(lexeme)
            return True
        return False

    def expect(self, lexeme: str, context: str = "") -> None:
        if not self.accept(lexeme):
            where = f" in {context}" if context else ""
            self.error(f"expected '{lexeme}'{where}")

    def accept_dots(self, count: int) -> bool:
        """Consume a run of exactly `count` dots."""
        self.skip_ws()
        i = self.pos
        t, n = self.text, len(self.text)
        run = 0
        while i + run < n and t[i + run] == ".":
            run += 1
        if run == count:
            self.pos += count
            return True
        return False

    def dot_run(self) -> int:
        self.skip_ws()
        i, t, n = self.pos, self.text, len(self.text)
        run = 0
        while i + run < n and t[i + run] == ".":
            run += 1
        return run

    def accept_word(self, word: str) -> bool:
        """Consume a keyword-ish lexeme that must not run into a name."""
        self.skip_ws()
        end = self.pos + len(word)
        if self.text.startswith(word, self.pos):
            if end >= len(self.text) or self.text[end] not in _NAME_CONT:
                self.pos = end
                return True
        return False

    def accept_name(self) -> str | None:
        self.skip_ws()
        t, n = self.text, len(self.text)
        i = self.pos
        if i < n and t[i] in _NAME_START:
            j = i + 1
            while j < n and t[j] in _NAME_CONT:
                j += 1
            self.pos = j
            return t[i:j]
        return None

    def expect_name(self, what: str = "name") -> str:
        name = self.accept_name()
        if name is None:
            self.error(f"expected {what}")
        return name

    def accept_int(self) -> int | None:
        self.skip_ws()
        t, n = self.text, len(self.text)
        i = self.pos
        j = i
        while j < n and t[j].isdigit():
            j += 1
        if j > i:
            self.pos = j
            return int(t[i:j])
        return None

    def accept_string(self) -> str | None:
        """Consume a single-quoted string and return its decoded text."""
        self.skip_ws()
        t, n = self.text, len(self.text)
        if self.pos >= n or t[self.pos] != "'":
            return None
        start = self.pos
        i = self.pos + 1
        out = []
        while True:
            if i >= n or t[i] == "\n":
                self.error("unterminated string", start)
            c = t[i]
            if c == "'":
                self.pos = i + 1
                return "".join(out)
            if c == "\\":
                if i + 1 >= n:
                    self.error("unterminated string", start)
                esc = t[i + 1]
                if esc not in _ESCAPES:
                    self.error(f"unknown escape '\\{esc}'", i)
                out.append(_ESCAPES[esc])
                i += 2
            else:
                out.append(c)
                i += 1
