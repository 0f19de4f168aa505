"""One lexer shared by the textual notations.

Grammars, rule patterns, annotations and aspect files all use the same
lexical ground rules: ASCII names, unsigned ASCII integers, single-quoted
strings with \\n \\t \\\\ \\' escapes, '//' line comments, and free
whitespace.  lex() reads any of them in one regex pass, and each notation's
parser walks the lexeme list with an explicit stack, so nesting depth costs
no Python recursion.  Parsers resolve punctuation in context: a run of dots
is one lexeme, so '..' vs '...' vs '.' is told apart by the run's length,
and '{{' / '}}' are two single braces with no gap between them.
"""

from __future__ import annotations

import re

from .errors import NotationError

_STRING_BODY = r"(?:[^'\\\n]|\\[nt\\'])*"  # what may stand between the quotes
# Whitespace and comments match no group.  "p" is a run of dots, '#lex',
# '#empty' or any other ASCII punctuation character but the quote; "bad" is
# a character no lexeme starts with.
_LEXEME = re.compile(r"""
    [ \t\r\n]+ | //[^\n]*
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<p>\.+|\#(?:lex|empty)(?![A-Za-z0-9_])|[!-&(-/:-~])
  | '(?P<str>%s)'
  | (?P<int>[0-9]+)
  | (?P<bad>.)
""" % _STRING_BODY, re.VERBOSE | re.DOTALL)
_STRING_START = re.compile("'" + _STRING_BODY)
_ESCAPE = re.compile(r"\\(.)")
_ESCAPES = {"n": "\n", "t": "\t", "\\": "\\", "'": "'"}
_UNESCAPES = {"\n": "\\n", "\t": "\\t", "\\": "\\\\", "'": "\\'"}


def lex(text: str) -> list[tuple]:
    """(kind, value, start, end) per lexeme, then ("eof", None, n, n).

    kind is "name", "int" (value an int), "str" (value the decoded text),
    "." for a run of dots, the text itself for '#lex', '#empty' and any
    other punctuation character, or "bad".  A bad lexeme ends the list: no
    parser consumes it, so each stops there with its own error, and a
    quote that opens no well-formed string is reported by bad_string.
    """
    out = []
    for m in _LEXEME.finditer(text):
        kind = m.lastgroup
        if kind is None:
            continue
        value = m.group(kind)
        if kind == "p":
            kind = "." if value[0] == "." else value
        elif kind != "name":
            if kind == "str":
                if "\\" in value:
                    value = _ESCAPE.sub(lambda e: _ESCAPES[e.group(1)], value)
            elif kind == "int":
                value = int(value)
            else:
                out.append((kind, value, m.start(), m.end()))
                return out
        out.append((kind, value, m.start(), m.end()))
    out.append(("eof", None, len(text), len(text)))
    return out


def line_col(text: str, pos: int) -> tuple[int, int]:
    """1-based (line, column) of a character offset into text."""
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def escape_string(text: str) -> str:
    """Render text as a single-quoted literal for any of the notations."""
    return "'" + "".join(_UNESCAPES.get(c, c) for c in text) + "'"


class Lexed:
    """A notation text, its lexemes, and its source name for errors."""

    __slots__ = ("text", "source", "lexemes")

    def __init__(self, text: str, source: str):
        self.text = text
        self.source = source
        self.lexemes = lex(text)

    def loc(self, pos: int) -> tuple[int, int]:
        return line_col(self.text, pos)

    def fail(self, message: str, pos: int):
        raise NotationError(message, self.source, *line_col(self.text, pos))

    def bad_string(self, start: int):
        """Raise the error for the quote at start, which opens no
        well-formed string: the first unknown escape, or no closing quote
        before the end of the line."""
        i = _STRING_START.match(self.text, start).end()
        if self.text.startswith("\\", i) and i + 1 < len(self.text):
            self.fail(f"unknown escape '\\{self.text[i + 1]}'", i)
        self.fail("unterminated string", start)
