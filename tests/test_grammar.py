import random

import pytest

from gramweave import NotationError, parse_grammar, serialize_grammar
from gramweave.grammar import (ALTERNATIVE, EMPTY, GRAMMAR, ITERATION,
                               LITERAL, PRODUCTION, SEQUENCE, STAR,
                               SYMBOL_DEF, SYMBOL_REF, ALL_KINDS, descendants,
                               iter_nodes)
from support import (fixture, grammar_rows, long_grammar_text,
                     random_grammar_text, reference_parse_grammar,
                     reference_serialize_grammar)

MISC = """
list : item list : #empty ;
item : NAME ('+' | '-')? : '(' list ')' ;
"""


def kinds_of(nodes):
    return [n.kind for n in nodes]


class TestParse:
    def test_arith_shape(self, arith):
        assert [sd.detail for sd in arith.root.children] == ["expr", "term", "factor"]
        expr = arith.rule_index["expr"]
        assert expr.kind == SYMBOL_DEF
        assert len(expr.children) == 1
        prod = expr.children[0]
        assert prod.kind == PRODUCTION
        # production items held directly: [SymbolRef(term), Iteration(star)]
        assert kinds_of(prod.children) == [SYMBOL_REF, ITERATION]
        assert prod.children[0].detail == "term"
        assert prod.children[1].detail == STAR

    def test_empty_rule(self):
        tree = parse_grammar("a : #empty ;")
        (sd,) = tree.root.children
        (prod,) = sd.children
        assert kinds_of(prod.children) == [EMPTY]

    def test_missing_semicolon(self):
        with pytest.raises(NotationError) as exc:
            parse_grammar("x : y")
        assert exc.value.line == 1

    def test_empty_grammar_is_legal(self):
        tree = parse_grammar("")
        assert tree.root.children == ()

    @pytest.mark.parametrize("text, fragment", [
        ("a : b ;", "'b'"),                 # dangling nonterminal
        ("a : X ; a : Y ;", "duplicate"),   # duplicate definition
        ("a : '' ;", "empty"),              # empty literal
        ("a : '\\q' ;", "escape"),          # unknown escape
        ("a : ;", ""),                      # missing production body
    ])
    def test_rejects(self, text, fragment):
        with pytest.raises(NotationError) as exc:
            parse_grammar(text)
        assert fragment in str(exc.value)

    def test_comments_and_grouping(self):
        tree = parse_grammar("a : X // trailing comment\n  : ( Y ) ;")
        a = tree.rule_index["a"]
        assert len(a.children) == 2
        # a parenthesized single element leaves no group node behind
        assert kinds_of(a.children[1].children) == [SYMBOL_REF]


class TestStructure:
    def test_descendants_of_leaf(self):
        tree = parse_grammar("a : #empty ;")
        empty = tree.rule_index["a"].children[0].children[0]
        assert descendants(empty) == []

    def test_descendants_of_expr_rule(self, arith):
        nodes = descendants(arith.rule_index["expr"])
        counts = {}
        for n in nodes:
            key = (n.kind, n.detail if n.kind in (SYMBOL_REF, LITERAL) else None)
            counts[key] = counts.get(key, 0) + 1
        assert counts[(SYMBOL_REF, "term")] == 2
        assert counts[(SYMBOL_REF, "PLUS")] == 1
        assert counts[(SYMBOL_REF, "MINUS")] == 1
        assert counts[(ALTERNATIVE, None)] == 1
        assert counts[(SEQUENCE, None)] == 1
        assert counts[(ITERATION, None)] == 1
        assert counts[(PRODUCTION, None)] == 1
        assert len(nodes) == 8

    def test_descendants_are_the_subtree_in_preorder(self, java5):
        for node in iter_nodes(java5):
            walk, stack = [], list(reversed(node.children))
            while stack:
                n = stack.pop()
                walk.append(n)
                stack.extend(reversed(n.children))
            assert descendants(node) == walk
            assert node.end == node.id + 1 + len(walk)

    def test_root_descendants_symbol_defs(self, arith):
        defs = [n.detail for n in descendants(arith.root) if n.kind == SYMBOL_DEF]
        assert set(defs) == {"expr", "term", "factor"}

    def test_preorder_ids(self, java5):
        ids = [n.id for n in iter_nodes(java5)]
        assert ids == sorted(ids)
        assert ids[0] == java5.root.id == 0
        assert len(set(ids)) == len(ids)

    def test_terminal_ref_flag(self, arith):
        refs = [n for n in iter_nodes(arith) if n.kind == SYMBOL_REF]
        uppercase = {n.detail for n in refs if n.is_terminal_ref()}
        assert uppercase == {"PLUS", "MINUS", "MULT", "DIV", "INT"}

    def test_join_point_completeness(self, arith, java5):
        seen = set()
        for tree in (arith, java5, parse_grammar(MISC)):
            seen.update(n.kind for n in iter_nodes(tree))
        assert seen == set(ALL_KINDS)


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["arith.g", "java5.g", "java14.g"])
    def test_fixture_round_trip(self, name):
        tree = parse_grammar(fixture(name), name)
        text = serialize_grammar(tree)
        again = parse_grammar(text, name + "#2")
        assert tree.root.structure_key == again.root.structure_key
        # serialization is a fixed point after one round
        assert serialize_grammar(again) == text

    def test_empty_marker_round_trip(self):
        tree = parse_grammar(MISC)
        text = serialize_grammar(tree)
        assert "#empty" in text
        assert parse_grammar(text).root.structure_key == tree.root.structure_key

    @pytest.mark.parametrize("name", ["arith.g", "java5.g", "java14.g"])
    def test_fixture_text_like_reference(self, name):
        tree = parse_grammar(fixture(name), name)
        assert serialize_grammar(tree) == reference_serialize_grammar(tree)

    def test_random_text_like_reference(self):
        rng = random.Random(8)
        texts = [random_grammar_text(rng) for _ in range(60)]
        texts += [long_grammar_text(rng, 200) for _ in range(20)]
        for text in texts:
            tree = parse_grammar(text)
            assert serialize_grammar(tree) == reference_serialize_grammar(tree), text

    def test_determinism(self):
        text = fixture("java5.g")
        a = parse_grammar(text, "x")
        b = parse_grammar(text, "x")
        for na, nb in zip(iter_nodes(a), iter_nodes(b)):
            assert (na.id, na.kind, na.detail, na.span) == (nb.id, nb.kind, nb.detail, nb.span)


def parse_outcome(parse, text):
    """The tree's rows, or the error's (message, source, line, column)."""
    try:
        return grammar_rows(parse(text, "t.g"))
    except NotationError as exc:
        return (exc.message, exc.source, exc.line, exc.col)


def assert_like_reference(text):
    got = parse_outcome(lambda t, s: iter_nodes(parse_grammar(t, s)), text)
    assert got == parse_outcome(reference_parse_grammar, text)
    return got


MUTATION_CHARS = list("aZ_9 \t\n'\\\"#()|:;*+?/.é$") + ["#empty", "//", "''"]


class TestReferenceOracle:
    """parse_grammar builds the nodes, and raises the errors, of the
    character-level reference parser in tests/support.py."""

    @pytest.mark.parametrize("name", ["java5.g", "java14.g", "arith.g"])
    def test_fixtures(self, name):
        assert isinstance(assert_like_reference(fixture(name)), list)

    def test_random_grammars(self):
        rng = random.Random(6)
        for _ in range(60):
            assert isinstance(assert_like_reference(random_grammar_text(rng)), list)

    def test_long_grammars(self):
        rng = random.Random(7)
        for _ in range(20):
            assert isinstance(assert_like_reference(long_grammar_text(rng, 200)), list)

    @pytest.mark.parametrize("text, message", [
        ("a : 'x ;", "unterminated string"),
        ("a : 'x\n' ;", "unterminated string"),
        ("a : 'x\\", "unterminated string"),
        ("a : '\\q' ;", "unknown escape '\\q'"),
        ("a : 'x\\\n' ;", "unknown escape '\\\n'"),
        ("a : #emptyx ;", "expected a symbol, literal, '#empty', or '('"),
        ("a : b #emptyx ;", "expected a symbol, literal, '#empty', or '('"),
        ("a : b #e ;", "expected ';' in rule 'a'"),
        ("a : '' ;", "empty literal"),
        ("a : X ;\na : Y ;", "duplicate rule 'a'"),
        ("X : a ;", "terminal name 'X' cannot be defined as a rule"),
        ("a : b ;", "reference to undefined rule 'b'"),
        ("a : c ( b ) ;\nc : d ;", "reference to undefined rule 'b'"),
        ("x : y", "expected ';' in rule 'x'"),
        ("a : b ~ ;", "expected ';' in rule 'a'"),
        ("a : (b ~) ;", "expected ')'"),
        ("a : b é ;", "expected a symbol, literal, '#empty', or '('"),
        ("a : 1 ;", "expected a symbol, literal, '#empty', or '('"),
        ("a : ;", "expected a symbol, literal, '#empty', or '('"),
        ("a : b | ;", "expected a symbol, literal, '#empty', or '('"),
        ("a : b*+ ;", "expected ';' in rule 'a'"),
        ("a b ;", "expected ':' in rule 'a'"),
        ("'a' : b ;", "expected rule name"),
        ("a : b ; ;", "expected rule name"),
        ("a : b // the end", "expected ';' in rule 'a'"),
        ("a : (b\n// no close", "expected ')'"),
    ])
    def test_errors(self, text, message):
        assert assert_like_reference(text)[0] == message

    def test_comment_at_end_of_file(self):
        assert isinstance(assert_like_reference("a : B ; // last line"), list)

    def test_mutations(self):
        rng = random.Random(5)
        base = fixture("java5.g")
        errors = 0
        for _ in range(300):
            text = base
            for _ in range(rng.randint(1, 3)):
                at = rng.randrange(len(text) + 1)
                roll = rng.random()
                if roll < 0.4:
                    text = text[:at] + rng.choice(MUTATION_CHARS) + text[at:]
                elif roll < 0.7:
                    text = text[:at] + text[at + 1:]
                else:
                    text = text[:at] + rng.choice(MUTATION_CHARS) + text[at + 1:]
            errors += isinstance(assert_like_reference(text), tuple)
        assert 100 < errors < 300  # both outcomes are exercised
