"""Syntax highlighting driven by woven `group` attributes.

Each token gets the highlighting group found on its own grammar-tree
leaf, or failing that on the innermost enclosing construct that derives
exactly this one token; tokens with no annotated group are `plain`.
Renderers reproduce the input text exactly, adding only ANSI escape
codes or HTML markup around the annotated spans.
"""

from __future__ import annotations

import html
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .annotations import AnnotationStore, NameValue, NodeMemo, StrValue
from .earley import ParseTree, token_contexts
from .errors import NotationError

PLAIN = "plain"


@dataclass(frozen=True)
class HighlightSpan:
    span: Tuple[int, int]
    group: str


@dataclass(frozen=True)
class Style:
    color: Optional[str] = None
    bold: bool = False
    underline: bool = False


Palette = Dict[str, Style]

_GROUP_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_-]*")

_ANSI_COLORS = {
    "black": 30, "red": 31, "green": 32, "yellow": 33,
    "blue": 34, "magenta": 35, "cyan": 36, "white": 37,
}


def _group_name(store: AnnotationStore, gid: int) -> Optional[str]:
    """A node's woven name or string group; it must be one a palette can name."""
    value = store.lookup(gid, "group")
    if isinstance(value, NameValue):
        name = value.name
    elif isinstance(value, StrValue):
        name = value.text
    else:
        return None
    if not _GROUP_NAME.fullmatch(name):
        raise NotationError(f"invalid group name '{name}'",
                            store.attribute(gid, "group").describe())
    return name


def assign_groups(tree: ParseTree, store: AnnotationStore) -> List[HighlightSpan]:
    """One span per token, in order, each with its resolved group.

    A node's group is looked up the first time a token needs it and kept
    for the call. A name or string group that a palette could not name
    raises NotationError; other values are passed over.
    """
    groups = NodeMemo(lambda gid: _group_name(store, gid))
    _opened, _open_at, closed, closed_lo, close_at = token_contexts(tree)
    spans = []
    for index, token in enumerate(tree.tokens):
        group = PLAIN
        # innermost wins: the leaf itself, then enclosing steps that also
        # start at this token, so derive exactly this one
        for j in range(close_at[index], close_at[index + 1]):
            if closed_lo[j] != index:
                break
            name = groups[closed[j]]
            if name is not None:
                group = name
                break
        spans.append(HighlightSpan(token.span, group))
    return spans


def _check_spans(text: str, spans: List[HighlightSpan]) -> None:
    pos = 0
    for hs in spans:
        start, end = hs.span
        if start < pos or end < start or end > len(text):
            raise ValueError(f"spans overlap or leave range at {hs.span}")
        pos = end


def render_ansi(text: str, spans: List[HighlightSpan], palette: Palette) -> str:
    """Input text with palette styles applied as SGR escape sequences."""
    _check_spans(text, spans)
    out = []
    pos = 0
    for hs in spans:
        start, end = hs.span
        out.append(text[pos:start])
        style = palette.get(hs.group)
        codes = _sgr_codes(style) if style else []
        if codes:
            out.append("\x1b[" + ";".join(codes) + "m")
            out.append(text[start:end])
            out.append("\x1b[0m")
        else:
            out.append(text[start:end])
        pos = end
    out.append(text[pos:])
    return "".join(out)


def _sgr_codes(style: Style) -> List[str]:
    codes = []
    if style.bold:
        codes.append("1")
    if style.underline:
        codes.append("4")
    if style.color is not None:
        codes.append(str(_ANSI_COLORS[style.color]))
    return codes


def strip_ansi(text: str) -> str:
    return re.sub(r"\x1b\[[0-9;]*m", "", text)


def render_html(text: str, spans: List[HighlightSpan]) -> str:
    """HTML fragment: escaped input with non-plain tokens in classed spans."""
    _check_spans(text, spans)
    out = []
    pos = 0
    for hs in spans:
        start, end = hs.span
        out.append(html.escape(text[pos:start]))
        body = html.escape(text[start:end])
        if hs.group != PLAIN:
            out.append(f'<span class="{html.escape(hs.group)}">{body}</span>')
        else:
            out.append(body)
        pos = end
    out.append(html.escape(text[pos:]))
    return "".join(out)


def stylesheet(palette: Palette) -> str:
    lines = []
    for group in sorted(palette):
        style = palette[group]
        props = []
        if style.color is not None:
            props.append(f"color: {style.color};")
        if style.bold:
            props.append("font-weight: bold;")
        if style.underline:
            props.append("text-decoration: underline;")
        if props:
            lines.append(f".{group} {{ {' '.join(props)} }}")
    return "\n".join(lines)


def html_page(text: str, spans: List[HighlightSpan], palette: Palette) -> str:
    return ("<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\"><style>\n"
            + stylesheet(palette)
            + "\n</style></head><body><pre>"
            + render_html(text, spans)
            + "</pre></body></html>\n")


def parse_palette(text: str, source: str = "<palette>") -> Palette:
    """Parse `group = color [bold] [underline]` lines; '#' comments. A
    group name must match _GROUP_NAME, as it becomes a CSS class."""
    palette: Palette = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise NotationError("expected 'group = color [bold] [underline]'",
                                source, lineno, 1)
        group, _, rest = line.partition("=")
        group = group.strip()
        words = rest.split()
        if not group or not words:
            raise NotationError("expected 'group = color [bold] [underline]'",
                                source, lineno, 1)
        if not _GROUP_NAME.fullmatch(group):
            raise NotationError(f"invalid group name '{group}'", source, lineno, 1)
        color: Optional[str] = words[0]
        if color == "default":
            color = None
        elif color not in _ANSI_COLORS:
            raise NotationError(f"unknown color '{words[0]}'", source, lineno, 1)
        flags = words[1:]
        bad = [f for f in flags if f not in ("bold", "underline")]
        if bad:
            raise NotationError(f"unknown style flag '{bad[0]}'", source, lineno, 1)
        palette[group] = Style(color, "bold" in flags, "underline" in flags)
    return palette
