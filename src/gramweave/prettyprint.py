"""Pretty-printing driven by woven `before`/`after` attributes.

Whitespace programs are sequence values mixing literal strings with the
name literals increaseIndent/decreaseIndent. They decode to tuples of
plain items: a str is a text run (adjacent strings are joined) and an
int is an indent step, 1 or -1. Each token's before-program runs just
before its text and its after-program just after it, so between two
tokens the previous token's after-program runs, then the next token's
before-program. Output is written in runs between newlines; indentation
is materialized lazily: the indent string for the current level is
written before the first character of a line that is not a space or a
tab.
"""

from __future__ import annotations

import warnings
from typing import List, Optional, Tuple, Union

from .annotations import (AnnotationStore, Attribute, NameValue, NodeMemo,
                          SeqValue, StrValue)
from .earley import ParseTree, token_contexts
from .errors import WhitespaceError

DEFAULT_INDENT_UNIT = "    "

WhitespaceProgram = Tuple[Union[str, int], ...]
_STEPS = {"increaseIndent": 1, "decreaseIndent": -1}


def decode_whitespace(value, where: str = "whitespace attribute") -> WhitespaceProgram:
    """Decode an attribute value into a whitespace program.

    A plain string becomes a single text run; a sequence may mix strings
    with the name literals increaseIndent (1) and decreaseIndent (-1),
    and adjacent strings are joined into one run. Anything else is a
    decode error.
    """
    if isinstance(value, StrValue):
        return (value.text,)
    if not isinstance(value, SeqValue):
        raise WhitespaceError(
            f"{where}: expected a string or a sequence value")
    items: List[Union[str, int]] = []
    for member in value.items:
        if isinstance(member, StrValue):
            if items and isinstance(items[-1], str):
                items[-1] += member.text
            else:
                items.append(member.text)
        elif isinstance(member, NameValue) and member.name in _STEPS:
            items.append(_STEPS[member.name])
        elif isinstance(member, NameValue):
            raise WhitespaceError(
                f"{where}: unknown name literal '{member.name}' in "
                "whitespace sequence (expected increaseIndent or "
                "decreaseIndent)")
        else:
            raise WhitespaceError(
                f"{where}: whitespace sequences may only contain strings "
                "and indent directives")
    return tuple(items)


def _decode_attr(attr: Optional[Attribute]) -> Optional[WhitespaceProgram]:
    if attr is None:
        return None
    return decode_whitespace(attr.value, attr.describe())


class FormatterState:
    """Output accumulator with lazy indentation."""

    def __init__(self, indent_unit: str = DEFAULT_INDENT_UNIT):
        self.indent_unit = indent_unit
        self.indent_level = 0
        self.lines: List[str] = []
        self.current: List[str] = []
        self.pending_indent = True

    def emit_text(self, text: str) -> None:
        """Write text in runs between newlines; a pending indent goes after
        the leading blanks of the first run that has any other character."""
        if not self.pending_indent and "\n" not in text:
            self.current.append(text)
            return
        for index, run in enumerate(text.split("\n")):
            if index:  # a newline; the blanks that end its line are trimmed
                self.lines.append("".join(self.current).rstrip(" \t"))
                self.current = []
                self.pending_indent = True
            if self.pending_indent:
                ink = run.lstrip(" \t")
                if ink:
                    self.current.append(run[:len(run) - len(ink)])
                    self.current.append(self.indent_unit * self.indent_level)
                    self.pending_indent = False
                    run = ink
            self.current.append(run)

    def run(self, program: WhitespaceProgram) -> None:
        for item in program:
            if isinstance(item, str):
                self.emit_text(item)
            elif self.indent_level + item < 0:
                warnings.warn("indent level underflow; clamping to 0")
            else:
                self.indent_level += item

    def finish(self) -> str:
        out = "".join(line + "\n" for line in self.lines) + "".join(self.current)
        stripped = out.rstrip(" \t\n")
        if stripped != out:
            tail = out[len(stripped):]
            # at most one trailing newline survives
            out = stripped + ("\n" if "\n" in tail else "")
        return out


def _run_or_default(state: FormatterState, programs: NodeMemo, ids,
                    default: WhitespaceProgram) -> None:
    """Run the programs of the nodes in ids that have one, in order; the
    default if none has."""
    ran = False
    for gid in ids:
        program = programs[gid]
        if program is not None:
            state.run(program)
            ran = True
    if not ran:
        state.run(default)


def format_tree(tree: ParseTree, store: AnnotationStore) -> str:
    """Re-emit the parsed token stream with woven whitespace applied.

    Before each token run the before-programs of the steps whose range
    starts at it, outermost first; after it, the after-programs of those
    whose range ends at it, innermost first. Each side falls back to the
    root's defaultBefore or defaultAfter if no step has a program. A
    node's programs are decoded the first time a token reaches it and
    kept for the call, so a malformed program on a node no token reaches
    raises nothing.
    """
    root = store.root_id
    default_before = _decode_attr(store.attribute(root, "defaultBefore")) or ()
    default_after = _decode_attr(store.attribute(root, "defaultAfter")) or ()
    unit = store.attribute(root, "indentUnit")
    if unit is not None and not isinstance(unit.value, StrValue):
        raise WhitespaceError(f"{unit.describe()}: indentUnit must be a string")
    state = FormatterState(DEFAULT_INDENT_UNIT if unit is None else unit.value.text)
    befores = NodeMemo(lambda gid: _decode_attr(store.attribute(gid, "before")))
    afters = NodeMemo(lambda gid: _decode_attr(store.attribute(gid, "after")))
    opened, open_at, closed, _closed_lo, close_at = token_contexts(tree)
    for index, token in enumerate(tree.tokens):
        _run_or_default(state, befores, opened[open_at[index]:open_at[index + 1]],
                        default_before)
        state.emit_text(token.text)
        _run_or_default(state, afters, closed[close_at[index]:close_at[index + 1]],
                        default_after)
    return state.finish()
