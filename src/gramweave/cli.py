"""Command-line pipeline: weave aspects onto a grammar and drive the
highlighting and pretty-printing backends.

Exit codes are a stable contract:
  0  success
  1  weave errors (multiplicity violations, attachment conflicts,
     malformed whitespace advice)
  2  syntax errors in the grammar/aspect/lexer/palette files, woven
     group names that no palette can name, usage errors, unreadable
     files
  3  lex or parse errors in the input text, reported as
     `error: path:line:col: message`

Output files are written only after the whole result has been computed,
so a failing run never leaves a partial file behind.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import List, Optional

from .annotations import serialize_store
from .aspects import WeaveError, parse_aspect, weave
from .earley import parse_input
from .errors import (ConflictError, GramweaveError, InputError, NotationError,
                     WeaveFailure, WhitespaceError)
from .grammar import GrammarTree, parse_grammar
from .highlight import assign_groups, html_page, parse_palette, render_ansi
from .lexer import parse_lexer_spec, tokenize
from .prettyprint import format_tree
from .scan import line_col

EXIT_OK = 0
EXIT_WEAVE = 1
EXIT_USAGE = 2
EXIT_RUNTIME = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gramweave",
        description="Weave annotation aspects onto a clean grammar and run "
                    "the highlighting / pretty-printing backends.",
        epilog="ANSI color on stdout is suppressed when stdout is not a "
               "terminal or NO_COLOR is set; GRAMWEAVE_COLOR=always forces "
               "it back on.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, needs_input):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("grammar", help="grammar file")
        if needs_input:
            sp.add_argument("input", help="input text to process")
        sp.add_argument("-a", "--aspect", action="append", default=[],
                        metavar="FILE",
                        help="aspect file; repeat to weave several, in order")
        if needs_input:
            sp.add_argument("--lexer", required=True, metavar="FILE",
                            help="lexer spec file (terminal regexes)")
            sp.add_argument("--start", metavar="SYMBOL",
                            help="start symbol (default: first rule)")
        return sp

    add("check", "weave and report diagnostics", False).set_defaults(func=run_check)

    sp = add("weave", "write the woven annotation store as JSON", False)
    sp.add_argument("-o", "--output", metavar="FILE", help="output file (default stdout)")
    sp.set_defaults(func=run_weave)

    sp = add("highlight", "render the input with highlighting groups", True)
    sp.add_argument("--format", choices=("ansi", "html"), default="ansi",
                    dest="render_format", help="output format (default ansi)")
    sp.add_argument("--palette", metavar="FILE",
                    help="palette file: 'group = color [bold] [underline]' lines")
    sp.add_argument("-o", "--output", metavar="FILE", help="output file (default stdout)")
    sp.set_defaults(func=run_highlight)

    sp = add("format", "pretty-print the input", True)
    sp.add_argument("-o", "--output", metavar="FILE", help="output file (default stdout)")
    sp.set_defaults(func=run_format)

    return parser


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _write(path: Optional[str], text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _load(args):
    if not args.aspect:
        raise NotationError("at least one aspect file is required (-a FILE)",
                            "usage")
    # one spelling per path, as the store document records it
    tree = parse_grammar(_read(args.grammar), os.path.normpath(args.grammar))
    aspects = [parse_aspect(_read(p), p) for p in args.aspect]
    return tree, aspects


def _start_symbol(args, tree: GrammarTree) -> str:
    if getattr(args, "start", None):
        return args.start
    if not tree.root.children:
        raise NotationError("grammar defines no rules", args.grammar)
    return tree.root.children[0].detail


def _parse_source(args, tree: GrammarTree):
    spec = parse_lexer_spec(_read(args.lexer), args.lexer)
    text = _read(args.input)
    try:
        tokens = tokenize(spec, tree, text)
        return text, parse_input(tree, _start_symbol(args, tree), tokens)
    except InputError as exc:
        exc.where = _location(args.input, text, exc.position)
        raise


def _location(path: str, text: str, offset: int) -> str:
    """`path:line:col` of a character offset into text, counting from 1."""
    line, col = line_col(text, offset)
    return f"{path}:{line}:{col}"


def _use_color(args) -> bool:
    if args.output is not None:
        return True
    if os.environ.get("NO_COLOR"):
        return False
    if os.environ.get("GRAMWEAVE_COLOR") == "always":
        return True
    return sys.stdout.isatty()


def run_check(args) -> int:
    tree, aspects = _load(args)
    store = weave(tree, aspects)
    print(f"ok: {len(store)} attributes woven")
    return EXIT_OK


def run_weave(args) -> int:
    tree, aspects = _load(args)
    store = weave(tree, aspects)
    _write(args.output, serialize_store(store))
    return EXIT_OK


def run_highlight(args) -> int:
    tree, aspects = _load(args)
    store = weave(tree, aspects)
    text, ptree = _parse_source(args, tree)
    spans = assign_groups(ptree, store)
    palette = parse_palette(_read(args.palette), args.palette) if args.palette else {}
    if args.render_format == "html":
        out = html_page(text, spans, palette)
    else:
        out = render_ansi(text, spans, palette if _use_color(args) else {})
    _write(args.output, out)
    return EXIT_OK


def run_format(args) -> int:
    tree, aspects = _load(args)
    store = weave(tree, aspects)
    _text, ptree = _parse_source(args, tree)
    _write(args.output, format_tree(ptree, store))
    return EXIT_OK


def _diagnostic(err, aspect_paths: List[str]) -> str:
    if isinstance(err, WeaveError):
        path = aspect_paths[err.aspect_index]
        line, col = err.loc
        return (f"{path}:{line}:{col}: pattern '{err.pattern_text}' "
                f"matched {err.actual}, expected {err.expected}")
    if isinstance(err, ConflictError) and err.new_prov is not None:
        return f"{aspect_paths[err.new_prov.aspect]}: {err}"
    return str(err)


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 for --help
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except WeaveFailure as exc:
        for err in exc.errors:
            print(_diagnostic(err, args.aspect), file=sys.stderr)
        return EXIT_WEAVE
    except WhitespaceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_WEAVE
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (GramweaveError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
