"""Large inputs parse, highlight and format at the default recursion limit.

Parse trees are as deep as the input nests and iteration nodes as wide as
the input repeats, so any recursion over tokens or tree levels would fail
here with RecursionError.
"""

import gc
import json
import sys
from collections import Counter

import pytest

from gramweave import (Attribute, IntValue, Multiplicity, NameValue,
                       NotationError, ParseLeaf, ParseNode, PunctValue,
                       RecordValue, SeqValue, Token, WeaveFailure,
                       assign_groups, deserialize_store, format_tree, leaves,
                       match_rules, parse_annotation, parse_aspect,
                       parse_grammar, parse_input, parse_lexer_spec,
                       parse_rule_pattern, render_ansi, serialize_grammar,
                       serialize_store, strip_ansi, token_contexts, tokenize,
                       weave)
from gramweave import earley
from gramweave.earley import _Extractor
from gramweave.grammar import descendants
from gramweave.patterns import Bind, LitPat, VarRef
from support import (chain_arith_text, context_lists, deep_grammar_text, fixture,
                     java_class_text, nested_arith_text, nested_iteration_text, oracle_parse,
                     reference_format, reference_serialize_grammar,
                     reference_serialize_store, step_counts, tree_difference)

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


def nodes(root):
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(c for c in node.children if isinstance(c, ParseNode))


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
        contexts = context_lists(token_contexts(tree))
        # a step is (grammar-tree id, first token); each one that derives a
        # token is listed once where it opens and once where it closes
        opened = Counter((gid, i) for i, (ids, _) in enumerate(contexts)
                         for gid in ids)
        closed = Counter(step for _, steps in contexts for step in steps)
        assert set(opened.values()) == set(closed.values()) == {1}
        assert opened == closed
        assert len(opened) == step_counts(tree.root)[1]

    def test_deep_nesting_compares_and_prints(self, arith, arith_lexer):
        def parse(text):
            return parse_input(arith, "expr", tokenize(arith_lexer, arith, text))

        text = nested_arith_text(1000)
        a, b = parse(text), parse(text)
        assert a.root == b.root and a == b
        other = parse(text.replace("1", "2"))  # differs only in the innermost token
        assert a.root != other.root
        printed = repr(a.root)
        assert printed.startswith("ParseNode(kind='rule'")
        assert printed.count("ParseNode(") == sum(1 for _ in nodes(a.root))
        assert printed.count("ParseLeaf(") == 2001
        assert printed == repr(b.root)

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

    def test_parse_keeps_few_tracked_objects(self, java5, java_lexer):
        # the tree and its token contexts are flat int lists, so what a parse
        # leaves for the cyclic collector to trace does not grow with tokens:
        # 11 objects on these 2,070 tokens, where a node per step and lists
        # per token's contexts kept 14,569 (7.0 per token)
        tokens = tokenize(java_lexer, java5, java_class_text(280))
        parse_input(java5, "normalClassDeclaration", tokens)  # compiles the tables
        gc.collect()
        before = len(gc.get_objects())
        tree = parse_input(java5, "normalClassDeclaration", tokens)
        token_contexts(tree)
        gc.collect()
        kept = len(gc.get_objects()) - before
        assert len(tokens) == 2070 and kept <= 50 + 0.05 * len(tokens), kept
        assert "_view" not in vars(tree)

    def test_chart_keeps_few_tracked_objects(self, java5, java_lexer):
        # the chart maps each origin to its production bits in dicts of ints,
        # which the cyclic collector does not track: at most one tracked
        # object per Earley set is left (1,319 on these 2,070 tokens), where
        # an `ends` index beside lists of origins kept 6,603
        tokens = tokenize(java_lexer, java5, java_class_text(280))
        parse_input(java5, "normalClassDeclaration", tokens)  # compiles the tables
        cg = earley._compiled[java5]
        codes = earley._token_codes(cg, tokens)
        start = java5.rule_index["normalClassDeclaration"].id
        gc.collect()
        before = len(gc.get_objects())
        chart = earley._recognize(cg, start, tokens, codes)
        gc.collect()
        kept = len(gc.get_objects()) - before
        assert len(tokens) == 2070 and kept <= 100 + 1.2 * len(tokens), kept
        assert len(chart) == len(tokens) + 1


class TestExtractionWork:
    """The compiled tables fix most elements' ends, so the extractor walks
    the chart back (`_Extractor.viable`) only in the productions of
    `_Compiled.needs`: a bound on calls, not on time."""

    @pytest.fixture
    def viable_states(self, monkeypatch):
        states = []  # the production of each call, by its first state
        method = _Extractor.viable

        def counted(self, state, *args):
            states.append(state)
            return method(self, state, *args)
        monkeypatch.setattr(_Extractor, "viable", counted)
        return states

    def test_arith_walks_nothing_back(self, arith, arith_lexer, viable_states):
        # 12,005 calls when every production of two or more elements walked
        for text in (fixture("inputs/expr.txt"), nested_arith_text(1000),
                     chain_arith_text(2999)):
            parse_input(arith, "expr", tokenize(arith_lexer, arith, text))
        assert earley._compiled[arith].needs == {}
        assert viable_states == []

    def test_java_walks_back_only_where_needed(self, java5, java_lexer, viable_states):
        # 425 calls in two productions, where walking back in every
        # production of two or more elements made 1,832; typeArguments and
        # typeParameters split before their last nonterminal at its end
        tokens = tokenize(java_lexer, java5, java_class_text(280))
        parse_input(java5, "normalClassDeclaration", tokens)
        cg = earley._compiled[java5]
        # each walks back only to the element past its first nonterminal
        assert sorted((java5.by_id[cg.lhs[s]].detail, floor) for s, floor in cg.needs.items()) == [
            ("normalClassDeclaration", 3), ("type", 2)]
        assert viable_states and set(viable_states) <= cg.needs.keys()
        assert len(viable_states) <= 425


class TestGrammar:
    def test_deep_parentheses(self):
        depth = 1000
        tree = parse_grammar("s : " + "(" * depth + "ID" + ")" * depth + " ;")
        ref = tree.rule_index["s"].children[0].children[0]
        assert (ref.kind, ref.detail, ref.span) == ("symbol_ref", "ID", (4, 4 + 2 * depth + 2))
        tree = parse_grammar(deep_grammar_text(depth))
        # the key lists the subtree in pre-order: one entry per iteration
        assert tree.root.structure_key == (
            ("grammar", None, 1), ("symbol_def", "s", 1), ("production", None, 1)) + \
            (("iteration", "star", 1),) * depth + (("symbol_ref", "ID", 0),)
        assert len(descendants(tree.root)) == depth + 3
        # repr names no child, so it neither recurses nor repeats subtrees
        printed = repr(tree)  # root, rule_index, then by_id: each node once
        assert printed.count("GtNode(") == 2 + len(tree.by_id) == depth + 6
        node = tree.by_id[3]
        assert repr(node) == f"GtNode(id=3, kind='iteration', detail='star', span={node.span})"

    def test_deep_serialization(self):
        for depth in (50, 1000):
            tree = parse_grammar(deep_grammar_text(depth))
            text = serialize_grammar(tree)
            assert text == "s : " + "(" * (depth - 1) + "ID*" + ")*" * (depth - 1) + " ;\n"
            if depth == 50:
                assert text == reference_serialize_grammar(tree)
            assert parse_grammar(text).root.structure_key == tree.root.structure_key

    def test_deep_variable_comparison(self):
        depth = 1000
        aspect = parse_aspect("# : $a=(..)* $a @#: { g = x } ;")
        deep = nested_iteration_text(depth)
        store = weave(parse_grammar(f"s : {deep} {deep} ;"), [aspect])
        # the two ID references carry the attribute
        assert list(store.annotated_nodes()) == [depth + 3, 2 * depth + 4]
        # the two items differ only at the innermost reference
        tree = parse_grammar(f"s : {deep} {nested_iteration_text(depth, 'NUM')} ;")
        with pytest.raises(WeaveFailure, match="matched 0"):
            weave(tree, [aspect])

    def test_deep_grammar_parse(self):
        lexer = parse_lexer_spec("ID = /[a-z]+/\nskip = / +/\n")
        aspect = parse_aspect("s : {...} @ID: { group = name; after = {{ ' ' }} } ; ;")
        text = "a b c"
        for depth in (30, 1000):
            tree = parse_grammar(deep_grammar_text(depth))
            parsed = parse_input(tree, "s", tokenize(lexer, tree, text))
            if depth == 30:
                want = oracle_parse(tree, "s", parsed.tokens)
                assert tree_difference(parsed.root, want) is None
            # what the oracle picks at depth 30: each iteration holds one
            # step, the innermost the three tokens
            node, levels = parsed.root.children[0], 1
            while isinstance(node.children[0], ParseNode):
                assert len(node.children) == 1
                node, levels = node.children[0], levels + 1
            assert levels == depth
            assert [leaf.gt_id for leaf in node.children] == [depth + 3] * 3
            store = weave(tree, [aspect])
            spans, formatted = run_backends(parsed, text, store)
            assert [s.group for s in spans] == ["name"] * 3
            assert formatted == reference_format(parsed, store)


class TestUnitCycles:
    def test_long_nullable_iteration(self, monkeypatch):
        # (ID?)* can derive a span inside its own derivation of it; the tree
        # must still come out in work linear in the tokens
        calls = Counter()
        for name in ("viable", "split"):
            method = getattr(_Extractor, name)

            def counted(self, *args, _name=name, _method=method):
                calls[_name] += 1
                return _method(self, *args)
            monkeypatch.setattr(_Extractor, name, counted)
        n = 10000
        tree = parse_grammar("s : (ID?)* ;")
        star = tree.rule_index["s"].children[0].children[0]
        (opt,) = star.children
        parsed = parse_input(tree, "s", [Token("x", "ID", (i, i + 1)) for i in range(n)])
        # one iteration node holds one opt step per token
        (steps,) = parsed.root.children
        assert (steps.kind, steps.gt_id, len(steps.children)) == ("iter", star.id, n)
        for i, step in enumerate(steps.children):
            assert (step.kind, step.gt_id) == ("iter", opt.id)
            (leaf,) = step.children
            assert isinstance(leaf, ParseLeaf) and leaf.token.span == (i, i + 1)
        assert 0 < calls["viable"] <= 2 * n and 0 < calls["split"] <= 2 * n


class TestNotation:
    """Aspect text nested 1,000 deep parses with explicit stacks; results
    are checked level by level, because dataclass == and repr recurse."""

    depth = 1000

    def test_deep_record_value(self):
        ann = parse_annotation("{ a = " * self.depth + "1" + " }" * self.depth)
        for _ in range(self.depth - 1):
            (attr,) = ann.attributes
            assert attr.name == "a" and isinstance(attr.value, RecordValue)
            ann = attr.value.annotation
        assert ann.attributes == (Attribute("a", None, IntValue(1)),)

    def test_deep_sequence_value(self):
        text = "{ a = " + "{{ . " * self.depth + "x" + " }}" * self.depth + " }"
        value = parse_annotation(text).get("a")
        for _ in range(self.depth - 1):
            dot, value = value.items
            assert dot == PunctValue(".") and isinstance(value, SeqValue)
        assert value == SeqValue((PunctValue("."), NameValue("x")))

    @staticmethod
    def deep_values(depth):
        """A record and a {{ }} value nested depth deep, each as annotation
        text and as the JSON a store document holds for it."""
        record, seq = {"type": "int", "value": 1}, {"type": "name", "name": "x"}
        dot = {"type": "punct", "char": "."}
        seq = {"type": "seq", "items": [dot, seq]}
        for _ in range(depth - 1):
            record = {"type": "record", "attributes": [
                {"namespace": None, "name": "a", "value": record}]}
            seq = {"type": "seq", "items": [dot, seq]}
        return [("{ a = " * depth + "1" + " }" * depth, record),
                ("{ a = " + "{{ . " * depth + "x" + " }}" * depth + " }", seq)]

    @pytest.mark.parametrize("depth", [250, 1000])
    def test_deep_values_serialize(self, depth):
        # the writer keeps a stack; json.loads recurses per JSON level, so a
        # store reads back only up to about 330 record levels
        tree = parse_grammar("s : ID ;")
        for text, want in self.deep_values(depth):
            store = weave(tree, [parse_aspect(f"s : {{...}} @ID: {text} ; ;")])
            blob = serialize_store(store)
            if depth == 250:
                assert serialize_store(deserialize_store(blob)) == blob
            else:
                with pytest.raises(NotationError, match="nests too deep"):
                    deserialize_store(blob)
            sys.setrecursionlimit(20000)  # for the oracles, which recurse
            if depth == 250:
                assert blob == reference_serialize_store(store)
            else:  # the value, and every line indented as deep as it nests
                assert json.loads(blob)["annotations"][0]["value"] == want
                level = 0
                for line in blob.splitlines():
                    body = line.lstrip(" ")
                    level -= body[0] in "]}"
                    assert len(line) - len(body) == 2 * level
                    level += body[-1] in "[{"
            sys.setrecursionlimit(1000)

    def test_deep_pattern(self):
        # each level binds a variable over an alternative whose second
        # member is the next level; the innermost one refers to the first
        text = "s : " + "".join(f"$v{k}=('x' | " for k in range(self.depth)) + "$v0" + \
            ")" * self.depth
        (rule,) = parse_aspect(text + " ;").rules
        pattern = rule.pattern
        assert pattern.text == text
        assert pattern.var_kinds == {f"v{k}": "struct" for k in range(self.depth)}
        node = pattern.productions[0].body
        for k in range(self.depth):
            assert isinstance(node, Bind) and node.name == f"v{k}"
            first, node = node.inner.members
            assert first == LitPat("x") and node is not None
        assert node == VarRef("v0")
        # the grammar of the same shape: alternative k is node 3 + 2k; the
        # reference binds $v0 to ID before its definition adds the outermost
        depth = self.depth
        tree = parse_grammar("s : " + "('x' | " * depth + "ID" + ")" * depth + " ;")
        (m,) = match_rules(pattern, tree)
        assert m.bindings == {"v0": {3, 2 * depth + 3},
                              **{f"v{k}": {3 + 2 * k} for k in range(1, depth)}}
        store = weave(tree, [parse_aspect(text + " @ID: { g = x } ;")])
        assert list(store.annotated_nodes()) == [2 * depth + 3]

    def test_deep_rest_pattern(self):
        # each level is ('a' | next level | 'z'), and '...' takes its 'z'
        depth = self.depth
        tree = parse_grammar("s : " + "('a' | " * depth + "ID" + " | 'z')" * depth + " ;")
        text = "s : " + "('a' | " * depth + "ID" + \
            "".join(f" | $r{k}=...)" for k in reversed(range(depth)))
        (m,) = match_rules(parse_rule_pattern(text), tree)
        # the 'z' of level k follows ID (node 2 * depth + 3), innermost first
        assert m.bindings == {f"r{k}": {3 + 3 * depth - k} for k in range(depth)}
        store = weave(tree, [parse_aspect(text + " @ID: { g = x } ;")])
        assert list(store.annotated_nodes()) == [2 * depth + 3]

    def test_deep_iteration_pattern_weaves(self):
        depth = self.depth
        aspect = parse_aspect(f"s : {nested_iteration_text(depth, '..')} @ID: {{ g = x }} ;")
        store = weave(parse_grammar(deep_grammar_text(depth)), [aspect])
        assert list(store.annotated_nodes()) == [depth + 3]

    def test_deep_nested_subpatterns(self):
        # 'a<k>' .. matches both the sequence that 'a<k>' starts and the
        # literal itself, in which nothing is nested
        grammar = parse_grammar("s : " + "".join(f"'a{k}' (" for k in range(self.depth)) +
                                "ID" + ")?" * self.depth + " ;")
        aspect = parse_aspect("s : {...}" + "".join(f" @[0..*] 'a{k}' ..:"
                                                   for k in range(self.depth)) +
                              " @[0..*] ID: { g = x } ;" + " ;" * self.depth)
        (rule,) = aspect.rules
        (sub,) = rule.subrules
        for k in range(self.depth):
            assert (sub.multiplicity, sub.text, sub.annotation) == \
                (Multiplicity(0, None), f"'a{k}' ..", None)
            (sub,) = sub.subrules
        assert sub.text == "ID" and sub.annotation.get("g") == NameValue("x")
        store = weave(grammar, [aspect])
        (node,) = store.annotated_nodes()
        assert grammar.by_id[node].detail == "ID" and len(store) == 1
