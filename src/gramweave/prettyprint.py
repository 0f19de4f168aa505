"""Pretty-printing driven by woven `before`/`after` attributes.

Whitespace programs are sequence values mixing literal strings with the
name literals increaseIndent/decreaseIndent. Between two tokens the
previous token's after-program runs, then the next token's
before-program. Indentation is materialized lazily: the indent string
for the current level is emitted when the first non-whitespace
character of a line appears.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .annotations import (AnnotationStore, Attribute, NameValue, NodeMemo,
                          SeqValue, StrValue)
from .earley import ParseTree, TokenContexts, token_contexts
from .errors import WhitespaceError

DEFAULT_INDENT_UNIT = "    "


@dataclass(frozen=True)
class Text:
    text: str


class _Directive:
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:
        return self.name


INC_INDENT = _Directive("IncIndent")
DEC_INDENT = _Directive("DecIndent")

WhitespaceProgram = Tuple[object, ...]


def decode_whitespace(value, where: str = "whitespace attribute") -> WhitespaceProgram:
    """Decode an attribute value into a whitespace program.

    A plain string becomes a single Text item; a sequence may mix
    strings with the name literals increaseIndent and decreaseIndent.
    Anything else is a decode error.
    """
    if isinstance(value, StrValue):
        return (Text(value.text),)
    if isinstance(value, SeqValue):
        items = []
        for member in value.items:
            if isinstance(member, StrValue):
                items.append(Text(member.text))
            elif isinstance(member, NameValue):
                if member.name == "increaseIndent":
                    items.append(INC_INDENT)
                elif member.name == "decreaseIndent":
                    items.append(DEC_INDENT)
                else:
                    raise WhitespaceError(
                        f"{where}: unknown name literal '{member.name}' in "
                        "whitespace sequence (expected increaseIndent or "
                        "decreaseIndent)")
            else:
                raise WhitespaceError(
                    f"{where}: whitespace sequences may only contain strings "
                    "and indent directives")
        return tuple(items)
    raise WhitespaceError(
        f"{where}: expected a string or a sequence value")


def _describe(attr: Attribute) -> str:
    line, col = attr.loc
    if (line, col) != (0, 0):
        return f"attribute '{attr.name}' at line {line}, column {col}"
    return f"attribute '{attr.name}'"


def _decode_attr(attr: Optional[Attribute]) -> Optional[WhitespaceProgram]:
    if attr is None:
        return None
    return decode_whitespace(attr.value, _describe(attr))


class _Whitespace:
    """The whitespace programs format_tree runs around each token.

    The defaults are decoded up front; a node's `before` and `after`
    programs are looked up and decoded the first time a token reaches the
    node, and kept, so a malformed program on a node no token reaches
    raises nothing.
    """

    def __init__(self, store: AnnotationStore):
        root = store.root_id
        before = _decode_attr(store.attribute(root, "defaultBefore"))
        after = _decode_attr(store.attribute(root, "defaultAfter"))
        self.default_before: WhitespaceProgram = before if before is not None else ()
        self.default_after: WhitespaceProgram = after if after is not None else ()
        unit_attr = store.attribute(root, "indentUnit")
        if unit_attr is None:
            self.indent_unit = DEFAULT_INDENT_UNIT
        elif isinstance(unit_attr.value, StrValue):
            self.indent_unit = unit_attr.value.text
        else:
            raise WhitespaceError(
                f"{_describe(unit_attr)}: indentUnit must be a string")
        self.before = NodeMemo(lambda gid: _decode_attr(store.attribute(gid, "before")))
        self.after = NodeMemo(lambda gid: _decode_attr(store.attribute(gid, "after")))

    def around(self, contexts: TokenContexts,
               index: int) -> Tuple[WhitespaceProgram, WhitespaceProgram]:
        """(before, after) for token `index` of token_contexts: the before
        programs of the nodes whose range starts at it, outermost to
        innermost, and the after programs of those whose range ends at it,
        innermost to outermost; each falls back to its default if no node
        has one."""
        opened, open_at, closed, _closed_lo, close_at = contexts
        before = opened[open_at[index]:open_at[index + 1]]
        after = closed[close_at[index]:close_at[index + 1]]
        return (_joined(map(self.before.__getitem__, before), self.default_before),
                _joined(map(self.after.__getitem__, after), self.default_after))


def _joined(progs, default: WhitespaceProgram) -> WhitespaceProgram:
    """The programs that are not None, run in order; default if none is."""
    progs = [prog for prog in progs if prog is not None]
    return tuple(item for prog in progs for item in prog) if progs else default


class FormatterState:
    """Output accumulator with lazy indentation."""

    def __init__(self, indent_unit: str = DEFAULT_INDENT_UNIT):
        self.indent_unit = indent_unit
        self.indent_level = 0
        self.lines: List[str] = []
        self.current: List[str] = []
        self.pending_indent = True

    def emit_text(self, text: str) -> None:
        for ch in text:
            if ch == "\n":
                self._newline()
            elif self.pending_indent and ch not in " \t":
                self.current.append(self.indent_unit * self.indent_level)
                self.current.append(ch)
                self.pending_indent = False
            else:
                self.current.append(ch)

    def _newline(self) -> None:
        # trailing spaces before a newline are trimmed
        line = "".join(self.current).rstrip(" \t")
        self.lines.append(line)
        self.current = []
        self.pending_indent = True

    def run(self, program: WhitespaceProgram) -> None:
        for item in program:
            if isinstance(item, Text):
                self.emit_text(item.text)
            elif item is INC_INDENT:
                self.indent_level += 1
            elif item is DEC_INDENT:
                if self.indent_level == 0:
                    warnings.warn("indent level underflow; clamping to 0")
                else:
                    self.indent_level -= 1
            else:
                raise WhitespaceError(f"unknown whitespace item {item!r}")

    def finish(self) -> str:
        out = "".join(line + "\n" for line in self.lines) + "".join(self.current)
        stripped = out.rstrip(" \t\n")
        if stripped != out:
            tail = out[len(stripped):]
            # at most one trailing newline survives
            out = stripped + ("\n" if "\n" in tail else "")
        return out


def format_tree(tree: ParseTree, store: AnnotationStore) -> str:
    """Re-emit the parsed token stream with woven whitespace applied."""
    whitespace = _Whitespace(store)
    state = FormatterState(whitespace.indent_unit)
    contexts = token_contexts(tree)
    pending: Optional[WhitespaceProgram] = None
    for index, token in enumerate(tree.tokens):
        before, after = whitespace.around(contexts, index)
        if pending is not None:
            state.run(pending)
        state.run(before)
        state.emit_text(token.text)
        pending = after
    if pending is not None:
        state.run(pending)
    return state.finish()
