"""Tokenizer driven by a grammar plus a small lexer sidecar file.

The grammar notation never defines what IDENTIFIER or INT look like, so
terminals get their shapes from a sidecar spec:

    # one terminal per line
    IDENTIFIER = /[A-Za-z_][A-Za-z0-9_]*/
    INT        = /[0-9]+/
    skip       = /[ \\t\\r\\n]+/

At each input position the longest match wins, with ties broken in favor
of literals (keywords beat IDENTIFIER) and then earlier spec entries.  All
grammar literals are compiled into one alternation, longest first, so a
single match finds the longest literal; each terminal regex then runs
once and wins only if it matches strictly more than the best literal and
every earlier terminal (maximal munch: Reps, TOPLAS 1998).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple

from .errors import LexError, NotationError
from .grammar import GrammarTree, literal_texts
from .scan import escape_string

_LINE = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*=\s*/(.*)/\s*(?:#.*)?$")


@dataclass(frozen=True)
class LexerSpec:
    terminals: Tuple[Tuple[str, str], ...]  # (name, regex text), in file order
    skip: Optional[str] = None


class Token(NamedTuple):
    """One token; a tuple, so making one sets no attributes one by one."""

    text: str
    terminal: Optional[str]  # None for literal tokens
    span: Tuple[int, int]

    @property
    def display(self) -> str:
        return self.terminal if self.terminal else escape_string(self.text)


def parse_lexer_spec(text: str, source: str = "<lexer>") -> LexerSpec:
    terminals = []
    skip = None
    seen = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        m = _LINE.match(line)
        if m is None:
            raise NotationError("expected 'NAME = /regex/'", source, lineno, 1)
        name, regex = m.group(1), m.group(2)
        try:
            re.compile(regex)
        except re.error as exc:
            raise NotationError(f"bad regex for {name}: {exc}", source, lineno, 1)
        if name == "skip":
            if skip is not None:
                raise NotationError("duplicate skip pattern", source, lineno, 1)
            skip = regex
            continue
        if not name[0].isupper():
            raise NotationError(f"terminal name '{name}' must start uppercase",
                                source, lineno, 1)
        if name in seen:
            raise NotationError(f"duplicate terminal '{name}'", source, lineno, 1)
        seen.add(name)
        terminals.append((name, regex))
    return LexerSpec(tuple(terminals), skip)


def tokenize(spec: LexerSpec, grammar: GrammarTree, text: str) -> List[Token]:
    # sorted by (-len, text) so the pattern does not depend on set order
    literals = sorted(set(literal_texts(grammar)), key=lambda lit: (-len(lit), lit))
    literal_re = re.compile("|".join(map(re.escape, literals))) if literals else None
    compiled = [(name, re.compile(rx)) for name, rx in spec.terminals]
    skip_re = re.compile(spec.skip) if spec.skip is not None else None
    tokens: List[Token] = []
    pos = 0
    while True:
        if skip_re is not None:
            while True:
                m = skip_re.match(text, pos)
                if m is None or m.end() == pos:
                    break
                pos = m.end()
        if pos >= len(text):
            return tokens
        # length first, then a literal beats a terminal, then file order
        m = literal_re.match(text, pos) if literal_re is not None else None
        end = m.end() if m is not None else pos
        terminal = None
        for name, rx in compiled:
            m = rx.match(text, pos)
            if m is not None and m.end() > end:
                end, terminal = m.end(), name
        if end == pos:
            raise LexError(f"no token matches {escape_string(text[pos:pos + 10])}", pos)
        tokens.append(Token(text[pos:end], terminal, (pos, end)))
        pos = end
