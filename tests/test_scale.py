"""Large inputs parse, highlight and format at the default recursion limit.

Parse trees are as deep as the input nests and iteration nodes as wide as
the input repeats, so any recursion over tokens or tree levels would fail
here with RecursionError.
"""

from collections import Counter

import pytest

from gramweave import (assign_groups, format_tree, leaves, parse_aspect,
                       parse_grammar, parse_input, render_ansi, strip_ansi,
                       token_contexts, tokenize, weave)
from gramweave.grammar import descendants
from support import (chain_arith_text, java_class_text, nested_arith_text,
                     reference_format, step_counts)

pytestmark = pytest.mark.usefixtures("default_recursion_limit")


@pytest.fixture(scope="module")
def arith_store(arith):
    aspect = parse_aspect("factor : {...} @INT: { group = number } ; ;")
    return weave(arith, [aspect])


def run_backends(tree, text, store):
    spans = assign_groups(tree, store)
    assert len(spans) == len(tree.tokens)
    assert strip_ansi(render_ansi(text, spans, {})) == text
    return spans, format_tree(tree, store)


class TestArith:
    def test_deep_nesting(self, arith, arith_lexer, arith_store):
        text = nested_arith_text(1000)
        tree = parse_input(arith, "expr", tokenize(arith_lexer, arith, text))
        assert len(leaves(tree)) == 2001
        spans, formatted = run_backends(tree, text, arith_store)
        assert [s.group for s in spans].count("number") == 1
        assert formatted == text  # the store has no whitespace advice

    def test_deep_nesting_contexts_are_linear(self, arith, arith_lexer):
        text = nested_arith_text(1000)
        tree = parse_input(arith, "expr", tokenize(arith_lexer, arith, text))
        contexts = token_contexts(tree)
        # a step is (grammar-tree id, first token); each one that derives a
        # token is listed once where it opens and once where it closes
        opened = Counter((gid, i) for i, (_, ids, _) in enumerate(contexts)
                         for gid in ids)
        closed = Counter(step for _, _, steps in contexts for step in steps)
        assert set(opened.values()) == set(closed.values()) == {1}
        assert opened == closed
        assert len(opened) == step_counts(tree.root)[1]

    def test_long_chain(self, arith, arith_lexer, arith_store):
        text = chain_arith_text(5000)
        tree = parse_input(arith, "expr", tokenize(arith_lexer, arith, text))
        # expr : term ((PLUS | MINUS) term)* ; one iter node holds every step
        _term, steps = tree.root.children
        assert (steps.kind, len(steps.children)) == ("iter", 4999)
        spans, formatted = run_backends(tree, text, arith_store)
        assert [s.group for s in spans].count("number") == 5000
        assert formatted == text


class TestJava:
    def test_large_class_body(self, java5, java_lexer, highlight_store,
                              pretty_store):
        text = java_class_text(2000)
        tree = parse_input(java5, "normalClassDeclaration",
                           tokenize(java_lexer, java5, text))
        body = tree.root.children[-1].children[0]
        assert len(body.children[1].children) == 2000
        spans, _ = run_backends(tree, text, highlight_store)
        assert [s.group for s in spans][:2] == ["keyword", "classDeclaration"]
        assert format_tree(tree, pretty_store) == reference_format(tree, pretty_store)


class TestGrammar:
    def test_deep_parentheses(self):
        depth = 1000
        tree = parse_grammar("s : " + "(" * depth + "ID" + ")" * depth + " ;")
        ref = tree.rule_index["s"].children[0].children[0]
        assert (ref.kind, ref.detail, ref.span) == ("symbol_ref", "ID", (4, 4 + 2 * depth + 2))
        tree = parse_grammar("s : " + "(" * depth + "ID" + ")*" * depth + " ;")
        key, levels = tree.root.structure_key, 0
        while key[0] != "symbol_ref":  # the key nests one level per iteration
            key = key[2][0]
            levels += key[0] == "iteration"
        assert levels == depth
        assert len(descendants(tree.root)) == depth + 3
