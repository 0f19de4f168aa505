"""Spans at gramweave's module boundaries, recorded from outside src/.

enable() rebinds the public functions of each gramweave module (and every
other gramweave module that imported them by name) to wrappers that record
one span per call: name, start, end and parent.  Spans are kept in memory in
flat arrays; per_layer() folds them into busy and self times, and write()
saves them as CSV when the run ends.

Each per-layer value is the layer's total in the run's set-up plus its mean
per operation, so work a change moves between set-up and operations shows.
"""

from __future__ import annotations

import gzip
import importlib
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

SETUP = "setup"
OP = "op"


def _tree_size(node) -> int:
    n, stack = 0, list(node.children)
    while stack:
        x = stack.pop()
        n += 1
        stack.extend(x.children)
    return n


def _count_tokens(tr, args, result):
    tr.count("lexer.tokens", len(result))


def _count_rules(tr, args, result):
    tr.count("patterns.rules_tried", len(args[1].root.children))
    tr.count("patterns.rules_matched", len(result))


def _count_nodes(tr, args, result):
    tr.scopes.append(args[1])  # sized after the operation, outside its spans
    tr.count("patterns.nodes_matched", len(result))


def _count_kib(tr, args, result):
    tr.count("annotations.serialized_kib", len(result) / 1024)


# (module, attribute, span name, counter); "Class.method" wraps a method
WRAPPED = (
    ("grammar", "parse_grammar", "grammar.parse_grammar", None),
    ("aspects", "parse_aspect", "aspects.parse_aspect", None),
    ("aspects", "weave", "aspects.weave", None),
    ("patterns", "match_rules", "patterns.match_rules", _count_rules),
    ("patterns", "match_within", "patterns.match_within", _count_nodes),
    ("annotations", "AnnotationStore.attach", "annotations.attach", None),
    ("annotations", "AnnotationStore.lookup", "annotations.lookup", None),
    ("annotations", "AnnotationStore.annotation_for", "annotations.annotation_for", None),
    ("annotations", "serialize_store", "annotations.serialize_store", _count_kib),
    ("lexer", "tokenize", "lexer.tokenize", _count_tokens),
    ("earley", "parse_input", "earley.parse_input", None),
    ("earley", "token_contexts", "earley.token_contexts", None),
    ("highlight", "assign_groups", "highlight.assign_groups", None),
    ("highlight", "render_ansi", "highlight.render_ansi", None),
    ("prettyprint", "format_tree", "prettyprint.format_tree", None),
)


class Tracer:
    def __init__(self):
        self.names: list = []
        self._index: dict = {}
        self.kind = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.phase = SETUP
        self.counts: dict = defaultdict(float)  # (phase, counter) -> total
        self.scopes: list = []
        self.ops = 0
        self.patches = None

    def _name(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def count(self, counter: str, n: float = 1) -> None:
        self.counts[(self.phase, counter)] += n

    def wrap(self, name: str, fn, counter=None):
        ix = self._name(name)
        kind, parent, start, end, stack = (self.kind, self.parent, self.start,
                                           self.end, self.stack)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(start)
            kind.append(ix)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except RecursionError:
                self.count("earley.recursion_errors")
                raise
            finally:
                end[i] = clock()
                stack.pop()
            if counter is not None:
                counter(self, args, result)
            return result

        return traced

    @contextmanager
    def span(self, phase: str):
        """A top-level span: the set-up or one operation."""
        self.phase = phase
        ix = self._name(phase)
        i = len(self.start)
        self.kind.append(ix)
        self.parent.append(-1)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[i] = time.perf_counter()
            self.stack.pop()
            for scope in self.scopes:
                self.count("patterns.nodes_tried", _tree_size(scope))
            self.scopes.clear()
            if phase == OP:
                self.ops += 1

    def _patches(self) -> list:
        if self.patches is None:
            self.patches = []
            modules = [m for name, m in list(sys.modules.items())
                       if name == "gramweave" or name.startswith("gramweave.")]
            for modname, attr, name, counter in WRAPPED:
                owner = importlib.import_module("gramweave." + modname)
                if "." in attr:
                    cls_name, attr = attr.split(".")
                    owner = getattr(owner, cls_name)
                    targets = [owner]
                else:
                    targets = modules
                original = getattr(owner, attr)
                wrapper = self.wrap(name, original, counter)
                for target in targets:
                    for key, value in list(vars(target).items()):
                        if value is original:
                            self.patches.append((target, key, original, wrapper))
        return self.patches

    def enable(self) -> None:
        """Rebind every function in WRAPPED, wherever gramweave bound it."""
        for target, key, _original, wrapper in self._patches():
            setattr(target, key, wrapper)

    def disable(self) -> None:
        for target, key, original, _wrapper in self._patches():
            setattr(target, key, original)

    def per_layer(self) -> dict:
        """The per-layer metrics: set-up total plus mean per operation."""
        names = self.names
        root = array("i", bytes(4 * len(self.start)))
        busy: dict = defaultdict(float)
        nested: dict = defaultdict(float)
        calls: dict = defaultdict(int)
        for i in range(len(self.start)):
            p = self.parent[i]
            root[i] = i if p < 0 else root[p]
            phase = names[self.kind[root[i]]]
            name = names[self.kind[i]]
            dur = self.end[i] - self.start[i]
            busy[(phase, name)] += dur
            calls[(phase, name)] += 1
            if p >= 0:
                nested[(phase, names[self.kind[p]])] += dur
        ops = max(self.ops, 1)

        def per(table, *keys):
            return sum(table[(SETUP, k)] + table[(OP, k)] / ops for k in keys)

        def self_s(name):
            return per(busy, name) - per(nested, name)

        reads = ("annotations.lookup", "annotations.annotation_for")
        return {
            "grammar.parse_grammar_s": per(busy, "grammar.parse_grammar"),
            "aspects.parse_aspect_s": per(busy, "aspects.parse_aspect"),
            "aspects.weave_self_s": self_s("aspects.weave"),
            "aspects.weave_calls": per(calls, "aspects.weave"),
            "patterns.match_rules_s": per(busy, "patterns.match_rules"),
            "patterns.match_rules_calls": per(calls, "patterns.match_rules"),
            "patterns.rules_tried": per(self.counts, "patterns.rules_tried"),
            "patterns.rules_matched": per(self.counts, "patterns.rules_matched"),
            "patterns.match_within_s": per(busy, "patterns.match_within"),
            "patterns.match_within_calls": per(calls, "patterns.match_within"),
            "patterns.nodes_tried": per(self.counts, "patterns.nodes_tried"),
            "patterns.nodes_matched": per(self.counts, "patterns.nodes_matched"),
            "annotations.attach_s": per(busy, "annotations.attach"),
            "annotations.attach_calls": per(calls, "annotations.attach"),
            "annotations.serialize_store_s": per(busy, "annotations.serialize_store"),
            "annotations.serialized_kib": per(self.counts, "annotations.serialized_kib"),
            "annotations.read_s": per(busy, *reads),
            "annotations.read_calls": per(calls, *reads),
            "lexer.tokenize_s": per(busy, "lexer.tokenize"),
            "lexer.tokens": per(self.counts, "lexer.tokens"),
            "earley.parse_input_s": per(busy, "earley.parse_input"),
            "earley.parse_input_calls": per(calls, "earley.parse_input"),
            "earley.recursion_errors": per(self.counts, "earley.recursion_errors"),
            "earley.token_contexts_s": per(busy, "earley.token_contexts"),
            "earley.token_contexts_calls": per(calls, "earley.token_contexts"),
            "highlight.assign_groups_self_s": self_s("highlight.assign_groups"),
            "highlight.render_s": per(busy, "highlight.render_ansi"),
            "prettyprint.format_tree_self_s": self_s("prettyprint.format_tree"),
        }

    def write(self, path) -> int:
        """Save every span as CSV: index, name, start, end, parent."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span,name,start_s,end_s,parent\n")
            for i in range(len(self.start)):
                out.write(f"{i},{self.names[self.kind[i]]},{self.start[i]:.7f},"
                          f"{self.end[i]:.7f},{self.parent[i]}\n")
        return len(self.start)
