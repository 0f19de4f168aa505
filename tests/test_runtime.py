import functools
import gc
import itertools
import random
import warnings
import weakref

import pytest

from gramweave import (Annotation, AnnotationStore, Attribute, IntValue,
                       LexError, NameValue, NotationError, ParseError,
                       ParseLeaf, ParseNode, SeqValue, StrValue, Token,
                       assign_groups, earley, format_tree, leaves,
                       parse_grammar, parse_input, parse_lexer_spec,
                       serialize_grammar, token_contexts, tokenize)
from gramweave.grammar import literal_texts
from gramweave.earley import _Compiled, _Extractor
from support import (LanguageTooLarge, context_lists, dataclass_node,
                     dataclass_repr, enumerate_language, fixture, java_class_text,
                     nested_arith_text, oracle_accepts, oracle_compile,
                     oracle_parse, random_grammar, random_token_text,
                     reference_chains, reference_format, reference_groups,
                     reference_recognize, reference_tokenize, rule_parse,
                     step_counts, token_shape, tree_difference)

# (grammar, start rule, input) for every fixture input
FIXTURE_INPUTS = [
    ("arith.g", "expr", "expr.txt"),
    ("java5.g", "normalClassDeclaration", "classbody.java"),
    ("java5.g", "normalClassDeclaration", "generics.java"),
    ("java5.g", "typeParameters", "typeparams.txt"),
    ("java14.g", "classDeclaration", "classbody.java"),
]

# grammars over ID and NUM whose chart rows often hold several origins
NULLABLE_HEAVY = [
    "s : ID s : ID ;",
    "s : a b c ;\na : ID? b? ;\nb : (NUM | #empty)* ;\nc : a* ID? | #empty ;",
    "s : (a | NUM) s? ;\na : #empty : b ;\nb : ID* a ;",
]


def fixture_input(request, grammar, name):
    """The grammar tree, its lexer spec and the text of a FIXTURE_INPUTS row."""
    lexer = "arith_lexer" if grammar == "arith.g" else "java_lexer"
    return (request.getfixturevalue(grammar[:-2]), request.getfixturevalue(lexer),
            fixture(f"inputs/{name}"))


class TestLexerSpec:
    def test_parse(self, arith_lexer):
        names = [name for name, _ in arith_lexer.terminals]
        assert names == ["INT", "PLUS", "MINUS", "MULT", "DIV"]
        assert arith_lexer.skip is not None

    def test_comments_and_blanks_ignored(self):
        spec = parse_lexer_spec("# heading\n\nID = /[a-z]+/  # trailing\n")
        assert spec.terminals == (("ID", "[a-z]+"),)
        assert spec.skip is None

    @pytest.mark.parametrize("text, fragment", [
        ("ID : /[a-z]+/", "expected 'NAME = /regex/'"),
        ("lower = /[a-z]+/", "must start uppercase"),
        ("ID = /[a-z]+/\nID = /[0-9]+/", "duplicate terminal"),
        ("skip = / /\nskip = /\t/", "duplicate skip"),
        ("BAD = /[/", "bad regex"),
    ])
    def test_rejects(self, text, fragment):
        with pytest.raises(NotationError) as exc:
            parse_lexer_spec(text)
        assert fragment in str(exc.value)


class TestTokenize:
    def test_terminals_and_spans(self, arith, arith_lexer):
        tokens = tokenize(arith_lexer, arith, "1+2")
        assert [(t.text, t.terminal, t.span) for t in tokens] == [
            ("1", "INT", (0, 1)),
            ("+", "PLUS", (1, 2)),
            ("2", "INT", (2, 3)),
        ]

    def test_skip_runs(self, arith, arith_lexer):
        tokens = tokenize(arith_lexer, arith, "  12  \n ( 3 )")
        assert [t.text for t in tokens] == ["12", "(", "3", ")"]
        assert tokens[0].span == (2, 4)

    def test_literal_beats_terminal_on_tie(self, java5, java_lexer):
        tokens = tokenize(java_lexer, java5, "class X")
        assert (tokens[0].text, tokens[0].terminal) == ("class", None)
        assert (tokens[1].text, tokens[1].terminal) == ("X", "IDENTIFIER")

    def test_longer_terminal_beats_shorter_literal(self, java5, java_lexer):
        (token,) = tokenize(java_lexer, java5, "classX")
        assert (token.text, token.terminal) == ("classX", "IDENTIFIER")

    def test_keyword_literal_display(self, java5, java_lexer):
        tokens = tokenize(java_lexer, java5, "int x")
        assert tokens[0].terminal is None and tokens[0].display == "'int'"
        assert tokens[1].display == "IDENTIFIER"

    def test_no_match_raises(self, arith, arith_lexer):
        with pytest.raises(LexError) as exc:
            tokenize(arith_lexer, arith, "1+@")
        assert exc.value.position == 2
        assert "no token matches" in str(exc.value)

    def test_no_match_spelled_as_a_literal(self):
        grammar = parse_grammar("s : 'a' ;")
        with pytest.raises(LexError) as exc:
            tokenize(parse_lexer_spec(""), grammar, "a'b\tc")
        assert str(exc.value) == "offset 1: no token matches '\\'b\\tc'"

    def test_spans_reassemble_input(self, java5, java_lexer):
        text = fixture("inputs/generics.java")
        tokens = tokenize(java_lexer, java5, text)
        for token in tokens:
            lo, hi = token.span
            assert text[lo:hi] == token.text


def lex_outcome(tokenizer, spec, grammar, text):
    """The tokens, or the LexError's message and offset."""
    try:
        return tokenizer(spec, grammar, text)
    except LexError as exc:
        return ("error", exc.message, exc.position)


# (grammar, lexer spec, input, expected (text, terminal) pairs or the
# offset of the LexError)
TIES = [
    # a keyword beats IDENTIFIER on a tie, a longer IDENTIFIER beats it
    ("s : 'class' ID* ;", "ID = /[A-Za-z_][A-Za-z0-9_]*/\nskip = / +/",
     "class classX", [("class", None), ("classX", "ID")]),
    # prefix literals: the longest one that matches
    ("s : ('<' | '<<' | '<<=' | ID)* ;", "ID = /[a-z]+/",
     "<<=<<<a", [("<<=", None), ("<<", None), ("<", None), ("a", "ID")]),
    # two terminals of equal match length: the earlier in the file
    ("s : (A | B)* ;", "A = /[a-z]+/\nB = /[a-z0-9]+/\nskip = / +/",
     "ab ab1", [("ab", "A"), ("ab1", "B")]),
    ("s : (A | B)* ;", "B = /[a-z0-9]+/\nA = /[a-z]+/\nskip = / +/",
     "ab ab1", [("ab", "B"), ("ab1", "B")]),
    # a terminal longer than a literal wins; an equally long one loses
    ("s : ('<' | OP)* ;", "OP = /<[=>]/\nskip = / +/",
     "<= < <>", [("<=", "OP"), ("<", None), ("<>", "OP")]),
    ("s : ('<' | OP)* ;", "OP = /<=?/", "<<=", [("<", None), ("<=", "OP")]),
    # a terminal that matches empty makes no token
    ("s : ('a' | N)* ;", "N = /[0-9]*/", "a1a", [("a", None), ("1", "N"), ("a", None)]),
    ("s : ('a' | N)* ;", "N = /[0-9]*/", "a?", 1),
    # a skip that matches empty skips nothing
    ("s : 'a'* ;", "skip = / */", "a  a ", [("a", None), ("a", None)]),
    ("s : 'a'* ;", "skip = / */", "a-", 1),
    # no literals, no skip
    ("s : ID* ;", "ID = /[a-z]+/\nskip = / +/", "ab cd", [("ab", "ID"), ("cd", "ID")]),
    ("s : 'a'* ;", "", "aa a", 2),
]


class TestLexerOracle:
    """tokenize against reference_tokenize, which ranks every candidate."""

    @pytest.mark.parametrize("grammar, start, name", FIXTURE_INPUTS)
    def test_fixture_inputs(self, request, grammar, start, name):
        tree, lexer, text = fixture_input(request, grammar, name)
        tokens = tokenize(lexer, tree, text)
        assert tokens == reference_tokenize(lexer, tree, text)

    @pytest.mark.parametrize("grammar, lexer, words", [
        ("arith", "arith_lexer", ["+", "-", "*", "/", "+-", "7", "123"]),
        ("java5", "java_lexer", ["x", "_a1", "class", "classX", "intx", "T"]),
    ])
    def test_random_texts(self, request, grammar, lexer, words):
        tree = request.getfixturevalue(grammar)
        spec = request.getfixturevalue(lexer)
        rng = random.Random(20261018)
        errors = 0
        for _ in range(150):
            text = random_token_text(rng, tree, words)
            got = lex_outcome(tokenize, spec, tree, text)
            assert got == lex_outcome(reference_tokenize, spec, tree, text), text
            errors += isinstance(got, tuple)
        assert 0 < errors < 150  # both outcomes are compared

    @pytest.mark.parametrize("grammar_text, spec_text, text, expected", TIES)
    def test_ties(self, grammar_text, spec_text, text, expected):
        tree = parse_grammar(grammar_text)
        spec = parse_lexer_spec(spec_text)
        got = lex_outcome(tokenize, spec, tree, text)
        assert got == lex_outcome(reference_tokenize, spec, tree, text)
        if isinstance(expected, int):
            assert got[0] == "error" and got[2] == expected
        else:
            assert [(t.text, t.terminal) for t in got] == expected


class TestParse:
    def test_expression_shape(self, arith, arith_lexer):
        pt = parse_input(arith, "expr", tokenize(arith_lexer, arith, "1+2*3"))
        root = pt.root
        assert root.kind == "rule"
        assert arith.by_id[root.gt_id].detail == "expr"
        assert root.production_index == 0
        first, reps = root.children
        assert first.kind == "ref" and reps.kind == "iter"
        # one repetition: '+' plus the term covering 2*3
        assert len(reps.children) == 1
        assert [l.token.text for l in leaves(pt)] == ["1", "+", "2", "*", "3"]
        # the multiplication nests inside the second term
        (rep,) = reps.children
        second_term = rep.children[1]
        inner = leaves_of(second_term)
        assert inner == ["2", "*", "3"]

    def test_parenthesized_production(self, arith, arith_lexer):
        pt = parse_input(arith, "factor", tokenize(arith_lexer, arith, "(1)"))
        assert arith.by_id[pt.root.gt_id].detail == "factor"
        (alt,) = pt.root.children
        assert alt.kind == "alt"
        assert [l.token.text for l in leaves(pt)] == ["(", "1", ")"]

    def test_start_rule_selectable(self, arith, arith_lexer):
        pt = parse_input(arith, "term", tokenize(arith_lexer, arith, "2*3"))
        assert arith.by_id[pt.root.gt_id].detail == "term"

    def test_unknown_start(self, arith):
        with pytest.raises(NotationError) as exc:
            parse_input(arith, "nope", [])
        assert "start symbol 'nope'" in str(exc.value)
        assert exc.value.source == "arith.g"

    def test_empty_stream_reports_expectations(self, arith):
        with pytest.raises(ParseError) as exc:
            parse_input(arith, "expr", [])
        assert exc.value.position == 0
        assert "unexpected end of input" in exc.value.message
        assert set(exc.value.expected) == {"INT", "'('"}

    def test_truncated_input(self, arith, arith_lexer):
        with pytest.raises(ParseError) as exc:
            parse_input(arith, "expr", tokenize(arith_lexer, arith, "1+"))
        assert exc.value.position == 2
        assert "unexpected end of input" in exc.value.message
        assert set(exc.value.expected) == {"INT", "'('"}

    def test_stray_token_names_position(self, arith, arith_lexer):
        with pytest.raises(ParseError) as exc:
            parse_input(arith, "expr", tokenize(arith_lexer, arith, "1 2"))
        assert exc.value.position == 2
        assert "unexpected INT" in exc.value.message
        assert set(exc.value.expected) == {"PLUS", "MINUS", "MULT", "DIV"}
        # the library names the offset; the command line names file:line:col
        assert str(exc.value) == "offset 2: unexpected INT (expected DIV, MINUS, MULT, PLUS)"

    @pytest.mark.parametrize("text, message", [
        ("ab", "offset 1: unexpected 'b' (expected '\\n')"),
        ("\n\n", "offset 1: unexpected '\\n' (expected '\\'')"),
        ("a'", "offset 1: unexpected '\\'' (expected '\\n')"),
    ], ids=["expected-newline", "unexpected-newline", "unexpected-quote"])
    def test_literals_spelled_as_in_the_grammar(self, text, message):
        tree = parse_grammar("s : 'a' '\\n' 'b' | '\\n' '\\'' ;")
        with pytest.raises(ParseError) as exc:
            parse_input(tree, "s", tokenize(parse_lexer_spec(""), tree, text))
        assert str(exc.value) == message

    def test_leaves_are_the_token_stream(self, java5, java_lexer):
        text = fixture("inputs/generics.java")
        tokens = tokenize(java_lexer, java5, text)
        pt = parse_input(java5, "normalClassDeclaration", tokens)
        assert [l.token for l in leaves(pt)] == tokens

    def test_leaf_provenance_is_sound(self, java5, java_lexer):
        text = fixture("inputs/generics.java")
        pt = parse_input(java5, "normalClassDeclaration",
                         tokenize(java_lexer, java5, text))
        for leaf in leaves(pt):
            node = java5.by_id[leaf.gt_id]
            if node.kind == "literal":
                assert node.detail == leaf.token.text
            else:
                assert node.kind == "symbol_ref"
                assert node.detail == leaf.token.terminal

    def test_earlier_production_preferred(self):
        tree = parse_grammar("s : ID : ID ;")
        pt = parse_input(tree, "s", [Token("x", "ID", (0, 1))])
        assert pt.root.production_index == 0

    def test_earlier_branch_preferred(self):
        tree = parse_grammar("s : (a | b) ;\na : ID ;\nb : ID ;")
        pt = parse_input(tree, "s", [Token("x", "ID", (0, 1))])
        (alt,) = pt.root.children
        (ref,) = alt.children
        assert tree.by_id[ref.gt_id].detail == "a"

    def test_shorter_nonterminal_span_preferred(self):
        tree = parse_grammar("s : a ID* ;\na : ID* ;")
        tokens = [Token("x", "ID", (0, 1)), Token("y", "ID", (1, 2))]
        pt = parse_input(tree, "s", tokens)
        ref_a, outer_iter = pt.root.children
        assert leaves_of(ref_a) == []
        assert leaves_of(outer_iter) == ["x", "y"]

    def test_nullable_start_accepts_empty(self):
        tree = parse_grammar("s : s ID : #empty ;")
        pt = parse_input(tree, "s", [])
        assert pt.root.production_index == 1
        assert pt.root.children[0].kind == "empty"

    def test_left_recursion(self):
        tree = parse_grammar("s : s ID : #empty ;")
        tokens = [Token(c, "ID", (i, i + 1)) for i, c in enumerate("abc")]
        pt = parse_input(tree, "s", tokens)
        assert [l.token.text for l in leaves(pt)] == ["a", "b", "c"]

    def test_nested_nullable_iteration(self):
        tree = parse_grammar("s : (ID?)* NUM ;")
        pt = parse_input(tree, "s", [Token("7", "NUM", (0, 1))])
        assert [l.token.text for l in leaves(pt)] == ["7"]


class TestParseNode:
    """Equality and repr walk iteratively but mean what the dataclass ones do."""

    def test_repr_text(self):
        token = Token("1", "INT", (0, 1))
        node = ParseNode("rule", 1, [ParseLeaf(2, token), ParseNode("iter", 3, [])], 0, 5)
        assert repr(node) == (
            "ParseNode(kind='rule', gt_id=1, children=[ParseLeaf(gt_id=2, "
            "token=Token(text='1', terminal='INT', span=(0, 1))), "
            "ParseNode(kind='iter', gt_id=3, children=[], production_index=None, "
            "production_id=None)], production_index=0, production_id=5)")

    @pytest.mark.parametrize("grammar, start, name", FIXTURE_INPUTS)
    def test_like_dataclass(self, request, grammar, start, name):
        tree, lexer, text = fixture_input(request, grammar, name)
        tokens = tokenize(lexer, tree, text)
        a = parse_input(tree, start, tokens).root
        b = parse_input(tree, start, tokens).root
        assert repr(a) == dataclass_repr(a)
        assert a == b and not a != b
        assert dataclass_node(a) == dataclass_node(b)
        # change one field deep in b: both equalities turn false
        node = b
        while isinstance(node.children[-1], ParseNode):
            node = node.children[-1]
        node.production_id = -1
        assert a != b and not a == b
        assert dataclass_node(a) != dataclass_node(b)

    def test_other_types(self):
        node = ParseNode("empty", 1, [])
        leaf = ParseLeaf(1, Token("x", "ID", (0, 1)))
        assert node != leaf and leaf != node
        assert ParseNode("seq", 1, [node]) != ParseNode("seq", 1, [leaf])
        assert node != ("empty", 1, [])
        with pytest.raises(TypeError):
            hash(node)


def leaves_of(node):
    """The token texts under a parse node, in order."""
    out, stack = [], [node]
    while stack:
        item = stack.pop()
        if isinstance(item, ParseLeaf):
            out.append(item.token.text)
        else:
            stack.extend(reversed(item.children))
    return out


def implied_contexts(tree):
    """(opened, closed) per token, as read off the reference chains."""
    out = []
    for i, (_leaf, chain) in enumerate(reference_chains(tree)):
        opened = [gid for gid, lo, _hi in chain if lo == i]
        closed = [(gid, lo) for gid, lo, hi in reversed(chain) if hi == i + 1]
        out.append((opened, closed))
    return out


def nested_ranges(contexts):
    """Pair every opened step with its closing; the ranges in pairing order.

    Steps nest, so each closing must match the innermost step still open,
    and every step must be closed by the end.
    """
    open_steps, ranges = [], []
    for i, (opened, closed) in enumerate(context_lists(contexts)):
        open_steps.extend((gid, i) for gid in opened)
        for gid, lo in closed:
            assert open_steps.pop() == (gid, lo)
            ranges.append((gid, lo, i + 1))
    assert open_steps == []
    return ranges


def tree_shapes(root):
    """Which of these a parse tree holds: a step that derives nothing, an
    iteration repeated more than once, a rule reference."""
    shapes, stack = set(), [root]
    while stack:
        node = stack.pop()
        if isinstance(node, ParseLeaf):
            continue
        if node.kind == "iter" and len(node.children) > 1:
            shapes.add("spine")
        if node.kind == "ref":
            shapes.add("ref")
        if not leaves_of(node):
            shapes.add("empty")
        stack.extend(node.children)
    return shapes


class TestTokenContexts:
    def test_chain_shape(self, arith, arith_lexer):
        tokens = tokenize(arith_lexer, arith, "1+2")
        pt = parse_input(arith, "expr", tokens)
        contexts = context_lists(token_contexts(pt))
        assert len(contexts) == len(tokens)
        expr_def = arith.rule_index["expr"]
        # outermost step is the start rule over the whole stream
        assert contexts[0][0][0] == expr_def.id
        assert contexts[-1][1][-1] == (expr_def.id, 0)
        for i, (leaf, (opened, closed)) in enumerate(zip(leaves(pt), contexts)):
            assert leaf.token is tokens[i]
            # the leaf itself is the innermost step, over its own token
            assert opened[-1] == leaf.gt_id
            assert closed[0] == (leaf.gt_id, i)
            # enclosing steps close innermost first, so their starts descend
            los = [lo for _, lo in closed]
            assert los == sorted(los, reverse=True)
        ranges = nested_ranges(token_contexts(pt))
        assert (expr_def.id, 0, len(tokens)) in ranges

    def test_rule_links_pair_symbol_and_production(self, arith, arith_lexer):
        pt = parse_input(arith, "expr", tokenize(arith_lexer, arith, "1"))
        [(opened, closed)] = context_lists(token_contexts(pt))
        expr_def = arith.rule_index["expr"]
        production = expr_def.children[0].id
        at = opened.index(expr_def.id)
        assert opened[at + 1] == production
        ids = [gid for gid, _ in closed]
        at = ids.index(expr_def.id)
        assert ids[at - 1] == production

    def test_empty_input(self):
        tree = parse_grammar("s : ID* ;")
        pt = parse_input(tree, "s", [])
        assert token_contexts(pt) == ([], [0], [], [], [0])
        assert sketch(tree, pt.root) == "s(iter)" and leaves(pt) == []

    def assert_matches_reference(self, tree, pt):
        contexts = token_contexts(pt)
        assert context_lists(contexts) == implied_contexts(pt), serialize_grammar(tree)
        assert len(nested_ranges(contexts)) == step_counts(pt.root)[1]

    @pytest.mark.parametrize("grammar, start, name", FIXTURE_INPUTS)
    def test_fixture_inputs_match_reference_chains(self, request, grammar,
                                                   start, name):
        tree, lexer, text = fixture_input(request, grammar, name)
        tokens = tokenize(lexer, tree, text)
        self.assert_matches_reference(tree, parse_input(tree, start, tokens))

    def test_random_sentences_match_reference_chains(self):
        rng = random.Random(20261018)
        compared = 0
        shapes, cyclic = set(), set()
        for _ in range(60):
            tree = random_grammar(rng)
            start = tree.root.children[0].detail
            try:
                language = enumerate_language(tree, start, max_len=5, cap=500)
            except LanguageTooLarge:
                continue
            for shape in [()] + sample_shapes(rng, language, 6):
                try:
                    pt = parse_input(tree, start, tokens_for(shape))
                except ParseError:
                    continue
                self.assert_matches_reference(tree, pt)
                compared += 1
                shapes |= tree_shapes(pt.root)
                cyclic.add(bool(_Compiled(tree).loops))
        assert compared >= 200
        # steps that derive nothing (which appear nowhere), repeats that
        # share one iteration step, rule references, and unit cycles
        assert shapes == {"empty", "spine", "ref"} and cyclic == {False, True}

    @pytest.mark.parametrize("text", [
        "s : (ID?)* ;",
        "s : (ID?)* NUM ;",
        "a : b ;\nb : a : ID ;",
        "s : a ID* ;\na : ID* ;",
        "s : (a | NUM)+ ;\na : #empty : b ;\nb : ID* a ;",
    ])
    def test_cyclic_and_nullable_grammars_match_reference_chains(self, text):
        tree = parse_grammar(text)
        start = tree.root.children[0].detail
        compared = 0
        for length in range(6):
            for shape in itertools.product([("term", "ID"), ("term", "NUM")],
                                           repeat=length):
                try:
                    pt = parse_input(tree, start, tokens_for(shape))
                except ParseError:
                    continue
                self.assert_matches_reference(tree, pt)
                compared += 1
        assert compared

    def test_written_once_and_shared(self, java5, java_lexer, highlight_store,
                                     pretty_store):
        pt = parse_input(java5, "normalClassDeclaration",
                         tokenize(java_lexer, java5, fixture("inputs/generics.java")))
        contexts = token_contexts(pt)
        assign_groups(pt, highlight_store)
        format_tree(pt, pretty_store)
        assert token_contexts(pt) is contexts is pt.contexts
        # neither backend builds the node view; it is built once, on use
        assert "_view" not in vars(pt)
        root = pt.root
        assert pt.root is root and leaves(pt) == leaves(pt)
        assert [leaf.token for leaf in leaves(pt)] == pt.tokens

    def test_contexts_and_view_are_not_compared_or_shown(self, arith, arith_lexer):
        tokens = tokenize(arith_lexer, arith, "1+2*3")
        a = parse_input(arith, "expr", tokens)
        b = parse_input(arith, "expr", tokens)
        text = repr(b)
        assert a.root == b.root
        b.contexts = None
        assert a == b
        assert repr(a) == repr(b) == text
        assert "contexts" not in text and "ParseNode" not in text
        assert a != parse_input(arith, "expr", tokenize(arith_lexer, arith, "1+2/3"))


_PIECES = ["", " ", "\t", "\n  ", " \n\t"]
# terminal token texts: the parser reads only the terminal name
_TOKEN_TEXTS = ["a", "bc", " b", "a\n b", "\t\n", "c  ", "\n", "  "]


def random_program(rng):
    """A whitespace attribute value: a string, or a sequence of strings and
    indent directives."""
    if rng.random() < 0.3:
        return StrValue(rng.choice(_PIECES))
    return SeqValue(tuple(rng.choice([StrValue(rng.choice(_PIECES)),
                                      NameValue("increaseIndent"),
                                      NameValue("decreaseIndent")])
                          for _ in range(rng.randint(0, 3))))


def random_backend_store(rng, tree):
    """A store with random before, after and group attributes on the
    grammar's nodes, and now and then the defaults and indentUnit on its
    root.  A group that is no name or string (an int, a flag) is one the
    backend passes over."""
    store = AnnotationStore(tree)
    root = tree.root.id
    for node_id in tree.by_id:
        if node_id == root:
            continue
        attrs = [Attribute(name, value=random_program(rng))
                 for name in ("before", "after") if rng.random() < 0.3]
        if rng.random() < 0.3:
            attrs.append(Attribute("group", value=rng.choice(
                [NameValue("kw"), NameValue("op"), StrValue("lit"),
                 IntValue(1), None])))
        if attrs:
            store.attach(node_id, Annotation(tuple(attrs)))
    attrs = [Attribute(name, value=random_program(rng))
             for name in ("defaultBefore", "defaultAfter") if rng.random() < 0.5]
    if rng.random() < 0.5:
        attrs.append(Attribute("indentUnit", value=StrValue(rng.choice(["  ", "\t", ">"]))))
    if attrs:
        store.attach(root, Annotation(tuple(attrs)))
    return store


class TestBackendOracle:
    """Both backends on random grammars, sentences, token texts and woven
    attributes: format_tree against reference_format, assign_groups
    against reference_groups."""

    def test_random_grammars(self):
        rng = random.Random(20261019)
        compared = 0
        groups, lines = set(), set()
        for _ in range(80):
            tree = random_grammar(rng)
            start = tree.root.children[0].detail
            try:
                language = enumerate_language(tree, start, max_len=5, cap=500)
            except LanguageTooLarge:
                continue
            store = random_backend_store(rng, tree)
            for shape in [()] + sample_shapes(rng, language, 6):
                tokens = [Token(rng.choice(_TOKEN_TEXTS), t.terminal, t.span)
                          if t.terminal else t for t in tokens_for(shape)]
                try:
                    pt = parse_input(tree, start, tokens)
                except ParseError:
                    continue
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # indent level underflow
                    out = format_tree(pt, store)
                assert out == reference_format(pt, store)
                spans = [(hs.span, hs.group) for hs in assign_groups(pt, store)]
                assert spans == reference_groups(pt, store)
                compared += 1
                groups.update(group for _span, group in spans)
                lines.update(out.split("\n")[1:])
        assert compared >= 200
        assert groups == {"plain", "kw", "op", "lit"}
        # indented lines, with the blanks a token text leads with kept
        # before the indent
        assert {"\ta", "  a", " >b"} <= lines


class TestRecognitionOracle:
    """Differential test: the chart parser against language enumeration."""

    def test_fixture_sentences(self, arith, arith_lexer):
        for text, ok in [("1", True), ("1+2*3", True), ("(1+2)*3", True),
                         ("1+", False), (")(", False), ("1 1", False)]:
            tokens = tokenize(arith_lexer, arith, text)
            assert oracle_accepts(arith, "expr", tokens) is ok
            assert accepts(arith, "expr", tokens) is ok

    def test_randomized(self):
        rng = random.Random(20240818)
        compared = 0
        for _ in range(40):
            tree = random_grammar(rng)
            start = tree.root.children[0].detail
            alphabet = sorted({("lit", t) for t in literal_texts(tree)} |
                              {("term", n) for n in terminal_names(tree)})
            shapes = [()]
            if alphabet:
                shapes += [tuple(rng.choice(alphabet)
                                 for _ in range(rng.randint(0, 5)))
                           for _ in range(3)]
            try:
                language = enumerate_language(tree, start, max_len=5)
            except LanguageTooLarge:
                continue
            shapes.extend(sample_shapes(rng, language, 3))
            for shape in shapes:
                tokens = tokens_for(shape)
                expected = token_shape(tokens) in language if len(tokens) <= 5 \
                    else None
                if expected is None:
                    continue
                got = accepts(tree, start, tokens)
                assert got is expected, (serialize_grammar(tree), start, shape)
                compared += 1
        assert compared >= 150

    def test_parse_emits_exactly_the_input(self):
        # on every accepted random sentence the tree's leaves must spell
        # out the original token stream
        rng = random.Random(907)
        checked = 0
        for _ in range(30):
            tree = random_grammar(rng)
            start = tree.root.children[0].detail
            try:
                language = enumerate_language(tree, start, max_len=4)
            except LanguageTooLarge:
                continue
            for shape in sample_shapes(rng, language, 4):
                tokens = tokens_for(shape)
                pt = parse_input(tree, start, tokens)
                assert [l.token for l in leaves(pt)] == tokens
                checked += 1
        assert checked >= 60


class TestCompileOracle:
    """The state tables against the earlier recursive compiler, whose
    nonterminal keys are (kind, grammar-tree id) pairs."""

    def assert_like_oracle(self, tree):
        got, want = _Compiled(tree), oracle_compile(tree)
        assert {nt: len(firsts) for nt, firsts in enumerate(got.starts) if firsts} == \
            {key[1]: len(prods) for key, prods in want.by_lhs.items()}
        assert got.nullable == {key[1] for key in want.nullable}
        # the oracle's k-th production of a key is the k-th of its nonterminal
        first = {prod.pid: got.starts[key[1]][k]
                 for key, prods in want.by_lhs.items() for k, prod in enumerate(prods)}
        assert got.loops == {first[pid] + j for pid, j in want.loops}
        assert {nt: set(cycle) for nt, cycle in got.guarded.items()} == \
            {key[1]: {c[1] for c in cycle} for key, cycle in want.guarded.items()}
        assert bool(got.loops) == want.cyclic
        return got

    @pytest.mark.parametrize("name", ["arith.g", "java5.g", "java14.g"])
    def test_fixtures(self, name):
        assert self.assert_like_oracle(parse_grammar(fixture(name), name)).nullable

    def test_link_into_a_cycle(self):
        # s links into the cycle of a and b but lies on no cycle; a has two
        # productions, so no alternative node stands between a and b
        tree = parse_grammar("s : a ;\na : b : 'x' ;\nb : a ;")
        got = self.assert_like_oracle(tree)
        s, a, b = (tree.rule_index[name].id for name in "sab")
        assert got.loops == {got.starts[a][0], got.starts[b][0]}
        assert {nt: set(cycle) for nt, cycle in got.guarded.items()} == {a: {a, b}, b: {a, b}}

    def test_randomized(self):
        rng = random.Random(70)
        cyclic = set()
        for _ in range(60):
            cyclic.add(bool(self.assert_like_oracle(random_grammar(rng)).loops))
        assert cyclic == {False, True}


class TestTreeOracle:
    """Differential test: extraction against the earlier recursive parser,
    and for grammars with unit cycles against the rule's own search."""

    def assert_same(self, tree, start, tokens):
        oracle = rule_parse if bool(_Compiled(tree).loops) else oracle_parse
        want = oracle(tree, start, tokens)
        if want is None:
            with pytest.raises(ParseError):
                parse_input(tree, start, tokens)
            return False
        got = parse_input(tree, start, tokens).root
        difference = tree_difference(got, want)
        assert difference is None, (serialize_grammar(tree), start,
                                    token_shape(tokens), difference)
        return True

    def test_randomized(self):
        rng = random.Random(20240818)
        compared = 0
        cyclic = set()
        for _ in range(60):
            tree = random_grammar(rng)
            start = tree.root.children[0].detail
            alphabet = sorted({("lit", t) for t in literal_texts(tree)} |
                              {("term", n) for n in terminal_names(tree)})
            shapes = [()]
            if alphabet:
                shapes += [tuple(rng.choice(alphabet)
                                 for _ in range(rng.randint(0, 5)))
                           for _ in range(3)]
            try:
                language = enumerate_language(tree, start, max_len=5, cap=2000)
            except LanguageTooLarge:
                continue
            shapes.extend(sample_shapes(rng, language, 6))
            for shape in shapes:
                if self.assert_same(tree, start, tokens_for(shape)):
                    compared += 1
                    cyclic.add(bool(_Compiled(tree).loops))
        assert compared >= 200
        # both oracles ran: grammars with and without unit cycles
        assert cyclic == {False, True}

    @pytest.mark.parametrize("grammar, start, name", FIXTURE_INPUTS)
    def test_fixture_inputs(self, request, grammar, start, name):
        tree, lexer, text = fixture_input(request, grammar, name)
        assert self.assert_same(tree, start, tokenize(lexer, tree, text))

    def test_fixture_sentences(self, arith, arith_lexer):
        for text in ["1", "1+2*3", "(1+2)*3", "1-2-3", "((4))/5", "1+", ")("]:
            self.assert_same(arith, "expr", tokenize(arith_lexer, arith, text))

    @pytest.mark.parametrize("text", [
        "s : s ID : #empty ;",
        "s : (ID?)* ;",
        "s : (ID?)* NUM ;",
        "a : b ;\nb : a : ID ;",
        "s : a ID* ;\na : ID* ;",
        "alpha : alpha : #empty ;",
    ])
    def test_nullable_and_cyclic_grammars(self, text):
        tree = parse_grammar(text)
        start = tree.root.children[0].detail
        for length in range(6):
            for last in ("ID", "NUM"):
                shape = [("term", "ID")] * length + [("term", last)]
                self.assert_same(tree, start, tokens_for(shape))
                self.assert_same(tree, start, tokens_for(shape[:-1]))

    def test_start_span_is_guarded(self):
        # alpha may not derive the whole input inside its own derivation of
        # it, the root's included
        tree = parse_grammar("alpha : alpha : #empty ;")
        assert sketch(tree, parse_input(tree, "alpha", []).root) == "alpha(empty)"

    def test_guard_below_a_candidate_that_cannot_complete(self):
        # x over (0, 3) takes its first production: k derives that span, with
        # n taking the first ID, as a cannot derive (0, 2)
        tree = parse_grammar("s : m 'g' ; m : k : x 'f' ; k : n a 'b' ;\n"
                             "n : #empty : ID ; a : x ; x : k : y ;\n"
                             "y : ID : ID ID 'b' ;")
        assert bool(_Compiled(tree).loops)
        ident, b, f, gee = ("term", "ID"), ("lit", "b"), ("lit", "f"), ("lit", "g")
        tokens = tokens_for([ident, ident, b, f, gee])
        assert sketch(tree, parse_input(tree, "s", tokens).root) == \
            "s(m(x(k(n(ID) a(x(y(ID))) 'b')) 'f') 'g')"
        assert self.assert_same(tree, "s", tokens)
        compared = 0
        for length in range(6):
            for shape in itertools.product([ident, b, f, gee], repeat=length):
                compared += self.assert_same(tree, "s", tokens_for(shape))
        assert compared >= 5


class TestExtractionPaths:
    """Each grammar reaches one way the extractor finds an element's end:
    forced by the terminals after it, split off the one nonterminal after
    it, or found by walking the chart back.  Every input of up to 5 tokens
    must give the oracle's tree and the reference context chains; `accepted`
    counts the inputs the grammar derives."""

    @pytest.mark.parametrize("text, needs, cyclic, accepted", [
        # a forced terminal tail after an element of two lengths
        ("s : a 'x' 'y' ;\na : ID | ID 'x' ;", False, False, 2),
        # a last nonterminal with several candidate origins
        ("s : a b ;\na : ID | ID ID ;\nb : ID | ID ID ;", False, False, 3),
        # a nonterminal followed by two elements, not all terminals
        ("s : a b c ;\na : ID | ID ID ;\nb : ID? ;\nc : ID | ID ID ;", True, False, 4),
        # empty derivations reached through a rule reference
        ("s : e ID e ;\ne : #empty ;", True, False, 1),
        # a guarded unit cycle followed by a terminal tail
        ("s : (ID?)* 'x' 'y' ;", False, True, 4),
    ])
    def test_every_short_input(self, text, needs, cyclic, accepted):
        tree = parse_grammar(text)
        cg = _Compiled(tree)
        assert (bool(cg.needs), bool(cg.loops)) == (needs, cyclic)
        start = tree.root.children[0].detail
        alphabet = sorted({("lit", t) for t in literal_texts(tree)} |
                          {("term", n) for n in terminal_names(tree)})
        compared = 0
        for length in range(6):
            for shape in itertools.product(alphabet, repeat=length):
                tokens = tokens_for(shape)
                if TestTreeOracle().assert_same(tree, start, tokens):
                    pt = parse_input(tree, start, tokens)
                    TestTokenContexts().assert_matches_reference(tree, pt)
                    compared += 1
        assert compared == accepted


class TestRecognizerOracle:
    """Differential test: the recognizer, over int items with one token of
    lookahead, against reference_recognize, which predicts every production
    over (state, origin) tuples.  Both read one set of compiled tables; the
    completions, with their production bit sets, and every ParseError must
    be equal.  The order of a row's origins may differ, as the extractor
    reads none (test_row_order_does_not_matter)."""

    @staticmethod
    def outcome(recognize, cg, start, tokens, codes):
        try:
            return recognize(cg, start, tokens, codes)
        except ParseError as exc:
            return "error", exc.message, exc.position, exc.expected

    @staticmethod
    def one_table(ends, origins):
        """The reference's two tables as the recognizer's one chart,
        `chart[end][nt]` = {origin: production bits}, after checking that
        both list the same completions."""
        width = len(origins)
        assert sorted((nt, o, end) for end, row in enumerate(origins)
                      for nt, found in row.items() for o in found) == \
            sorted((key // width, key % width, end) for key, row in ends.items() for end in row)
        return [{nt: {o: ends[nt * width + o][end] for o in found}
                 for nt, found in row.items()} for end, row in enumerate(origins)]

    def assert_same(self, tree, start, tokens, cg=None):
        """True if the tokens were accepted; `cg` defaults to new tables."""
        cg = cg or _Compiled(tree)
        nt = tree.rule_index[start].id
        codes = earley._token_codes(cg, tokens)
        got = self.outcome(earley._recognize, cg, nt, tokens, codes)
        want = self.outcome(reference_recognize, cg, nt, tokens, codes)
        if want[0] != "error":
            want = self.one_table(*want)
        assert got == want, (serialize_grammar(tree), start, token_shape(tokens))
        if want[0] == "error":
            return False
        # dicts compare without order, and a row's own origin comes last
        for end, done in enumerate(got):
            assert all(end not in row or list(row)[-1] == end for row in done.values())
        return True

    @pytest.mark.parametrize("grammar, start, name", FIXTURE_INPUTS)
    def test_fixture_inputs(self, request, grammar, start, name):
        tree, lexer, text = fixture_input(request, grammar, name)
        assert self.assert_same(tree, start, tokenize(lexer, tree, text))

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def random_cases() -> list:
        """60 seeded random grammars, each with its start rule and token
        shapes: random ones and sentences of its language.  Built once, as
        enumerating the languages takes most of the time."""
        rng = random.Random(20261019)
        cases = []
        for _ in range(60):
            tree = random_grammar(rng)
            start = tree.root.children[0].detail
            alphabet = sorted({("lit", t) for t in literal_texts(tree)} |
                              {("term", n) for n in terminal_names(tree)})
            shapes = [()]
            if alphabet:
                shapes += [tuple(rng.choice(alphabet)
                                 for _ in range(rng.randint(1, 6)))
                           for _ in range(4)]
            try:
                shapes += sample_shapes(rng, enumerate_language(
                    tree, start, max_len=5, cap=2000), 6)
            except LanguageTooLarge:
                pass
            cases.append((tree, start, shapes))
        return cases

    def test_random_grammars(self):
        accepted = rejected = 0
        kinds = set()
        for tree, start, shapes in self.random_cases():
            cg = _Compiled(tree)
            kinds.add((bool(cg.loops), bool(cg.nullable)))
            for shape in shapes:
                if self.assert_same(tree, start, tokens_for(shape)):
                    accepted += 1
                else:
                    rejected += 1
        assert accepted >= 200 and rejected >= 100
        # unit cycles and none, nullable nonterminals or none
        assert {cyclic for cyclic, _ in kinds} == {False, True}
        assert {nullable for _, nullable in kinds} == {False, True}

    @pytest.mark.parametrize("text", NULLABLE_HEAVY)
    def test_right_recursive_and_nullable_heavy(self, text):
        tree = parse_grammar(text)
        start = tree.root.children[0].detail
        accepted = 0
        for length in range(6):
            for shape in itertools.product([("term", "ID"), ("term", "NUM")],
                                           repeat=length):
                accepted += self.assert_same(tree, start, tokens_for(shape))
        assert accepted
        assert self.assert_same(tree, start, tokens_for([("term", "ID")] * 60))

    @pytest.mark.parametrize("grammar, start", [
        ("java5.g", "normalClassDeclaration"), ("arith.g", "expr")])
    def test_mutated_inputs(self, request, grammar, start):
        """Seeded token deletions, insertions and truncations of inputs like
        those of the java_files and arith_long benchmarks."""
        tree = request.getfixturevalue(grammar[:-2])
        lexer = request.getfixturevalue("java_lexer" if grammar == "java5.g"
                                        else "arith_lexer")
        rng = random.Random(20261020)
        if grammar == "java5.g":
            texts = [fixture("inputs/generics.java"), java_class_text(12)]
        else:
            texts = [random_arith_text(rng, 60), nested_arith_text(20)]
        rejected = 0
        for text in texts:
            tokens = tokenize(lexer, tree, text)
            assert self.assert_same(tree, start, tokens)
            for _ in range(30):
                cut = list(tokens)
                k = rng.randrange(len(cut))
                how = rng.choice(["delete", "insert", "truncate"])
                if how == "delete":
                    del cut[k]
                elif how == "insert":
                    cut.insert(k, rng.choice(tokens))
                else:
                    del cut[k:]
                rejected += not self.assert_same(tree, start, cut)
        assert rejected >= 40

    @pytest.mark.parametrize("text, start", [
        ("expr : term ((PLUS | MINUS) term)* ;\nterm : INT | '(' expr ')' ;", "expr"),
        ("s : a 'x' | 'y' ;\na : ID? ;", "s"),
        ("s : ID? ;", "s"),
    ])
    def test_empty_stream_and_unknown_token(self, text, start):
        tree = parse_grammar(text)
        self.assert_same(tree, start, [])
        unknown = Token("?", "NOPE", (0, 1))  # matches no terminal: code 0
        assert earley._token_codes(_Compiled(tree), [unknown]) == [0]
        for shape in [(), (("term", "ID"),), (("lit", "x"),), (("term", "INT"),)]:
            tokens = tokens_for(shape)
            for k in range(len(tokens) + 1):
                assert not self.assert_same(tree, start, tokens[:k] + [unknown] + tokens[k:])

    @staticmethod
    def assert_order_free(tree, start, tokens):
        """The extractor gives the same steps and contexts, or the same
        error, on the recognizer's chart and on a copy with every row's
        origins reversed; returns how many rows hold two or more origins."""
        cg = _Compiled(tree)
        nt = tree.rule_index[start].id
        codes = earley._token_codes(cg, tokens)
        try:
            chart = earley._recognize(cg, nt, tokens, codes)
        except ParseError:
            return 0
        flipped = [{a: dict(reversed(row.items())) for a, row in done.items()}
                   for done in chart]
        outcomes = []
        for table in (chart, flipped):
            try:
                outcomes.append(_Extractor(cg, codes, table).build(nt))
            except Exception as exc:  # an error must match too
                outcomes.append((type(exc), exc.args))
        assert outcomes[0] == outcomes[1], (serialize_grammar(tree), start, token_shape(tokens))
        return sum(len(row) > 1 for done in chart for row in done.values())

    @pytest.mark.parametrize("grammar, start, name", FIXTURE_INPUTS)
    def test_row_order_does_not_matter(self, request, grammar, start, name):
        # these charts hold one origin per row, so reversing changes nothing
        tree, lexer, text = fixture_input(request, grammar, name)
        assert self.assert_order_free(tree, start, tokenize(lexer, tree, text)) == 0

    def test_row_order_does_not_matter_on_random_grammars(self):
        cases = list(self.random_cases())
        symbols = [("term", "ID"), ("term", "NUM")]
        cases += [(parse_grammar(text), "s", [shape for length in range(6)
                                              for shape in itertools.product(symbols, repeat=length)])
                  for text in NULLABLE_HEAVY]
        reversed_rows = sum(self.assert_order_free(tree, start, tokens_for(shape))
                            for tree, start, shapes in cases for shape in shapes)
        assert reversed_rows >= 1000, reversed_rows

    def test_shared_prediction_goes_in_once(self):
        # in the set after `x`, `a` and `b` are first waited on together and
        # both predict `c`: its scan and its waits go in once
        tree = parse_grammar("s : x a | x b ;\nx : ID ;\na : c ID ;\nb : c NUM ;\nc : ID ;")
        cg = _Compiled(tree)
        for length in range(5):
            for shape in itertools.product([("term", "ID"), ("term", "NUM")], repeat=length):
                self.assert_same(tree, "s", tokens_for(shape), cg)
        a, b, c = (tree.rule_index[name].id for name in "abc")
        scans, waits, _, _ = cg.closures[(a, b), cg.codes[("term", "ID")]]
        assert scans == (cg.starts[c][0] + 1,)
        assert waits[c] == (cg.starts[a][0] + 1, cg.starts[b][0] + 1)
        for scans, waits, _, _ in cg.closures.values():
            for states in (scans, *waits.values()):
                assert len(set(states)) == len(states)

    def test_nullable_chain_advances_own_origin_waits(self):
        # `a`, `b` and `c` complete empty in every set; `a` completes over
        # NUM or NUM NUM with origin 0, which advances the waits of set 0
        tree = parse_grammar("s : a ID ;\na : b c ;\nb : c ;\nc : NUM? ;")
        cg = _Compiled(tree)
        accepted = [shape for length in range(6)
                    for shape in itertools.product([("term", "ID"), ("term", "NUM")],
                                                   repeat=length)
                    if self.assert_same(tree, "s", tokens_for(shape), cg)]
        assert [len(shape) for shape in accepted] == [1, 2, 3]

    def test_error_from_a_memoized_closure(self):
        # the set after '[' fails on ID with the closure that the set after
        # '(' built: same first waits, same token
        tree = parse_grammar("s : '(' a ID | '[' a ;\na : NUM? ;")
        cg = _Compiled(tree)
        for shape in [("(", "ID"), ("[", "NUM")]:
            assert self.assert_same(tree, "s", tokens_for(
                [("lit", shape[0]), ("term", shape[1])]), cg)
        built = dict(cg.closures)
        assert not self.assert_same(tree, "s", tokens_for([("lit", "["), ("term", "ID")]), cg)
        assert cg.closures == built
        with pytest.raises(ParseError) as caught:
            earley._recognize(cg, tree.rule_index["s"].id,
                              tokens_for([("lit", "["), ("term", "ID")]),
                              [cg.codes[("lit", "[")], cg.codes[("term", "ID")]])
        assert caught.value.expected == ("NUM",)


class TestCompiledOnce:
    """parse_input compiles a grammar tree once and keeps the tables only
    while the tree lives."""

    @pytest.fixture()
    def compiles(self, monkeypatch):
        built = []

        class Counted(earley._Compiled):
            def __init__(self, tree):
                built.append(id(tree))
                super().__init__(tree)

        monkeypatch.setattr(earley, "_Compiled", Counted)
        return built

    def test_one_tree_compiles_once(self, compiles, arith_lexer):
        tree = parse_grammar(fixture("arith.g"), "arith.g")
        first = parse_input(tree, "expr", tokenize(arith_lexer, tree, "1+2"))
        second = parse_input(tree, "expr", tokenize(arith_lexer, tree, "(3)*4"))
        assert compiles == [id(tree)]
        assert [leaf.token.text for leaf in leaves(first)] == ["1", "+", "2"]
        assert len(leaves(second)) == 5

    def test_trees_get_their_own_tables(self, compiles, arith_lexer):
        one = parse_grammar(fixture("arith.g"), "arith.g")
        two = parse_grammar("expr : INT (PLUS INT)* ;")
        for tree in (one, two, one, two):
            pt = parse_input(tree, "expr", tokenize(arith_lexer, tree, "1+2"))
            assert pt.grammar is tree and len(leaves(pt)) == 3
        assert compiles == [id(one), id(two)]
        assert earley._compiled[one] is not earley._compiled[two]
        with pytest.raises(ParseError):
            parse_input(two, "expr", tokenize(arith_lexer, two, "1+"))
        assert compiles == [id(one), id(two)]

    def test_dropped_tree_frees_its_tables(self, compiles):
        tree = parse_grammar("s : ID+ ;")
        parse_input(tree, "s", tokens_for([("term", "ID")] * 3))
        tables = weakref.ref(earley._compiled[tree])
        del tree
        gc.collect()
        assert tables() is None
        assert len(compiles) == 1


def random_arith_text(rng, terms):
    """An arith.g expression of `terms` integers, like the arith_long chains:
    random operators, some terms parenthesized."""
    parts = []
    for k in range(terms):
        if k:
            parts.append(rng.choice("+-*/"))
        parts.append(f"({rng.randint(1, 9)}+{rng.randint(1, 9)})"
                     if rng.random() < 0.2 else str(rng.randint(0, 99)))
    return " ".join(parts)


def terminal_names(tree):
    return {node.detail for node in tree.by_id.values()
            if node.kind == "symbol_ref" and node.is_terminal_ref()}


def sketch(grammar, node) -> str:
    """A parse tree as text: rule(...) by the rule's name, other nodes by
    kind, tokens by their display; reference nodes are left out."""
    if isinstance(node, ParseLeaf):
        return node.token.display
    if node.kind == "ref":
        return sketch(grammar, node.children[0])
    name = grammar.by_id[node.gt_id].detail if node.kind == "rule" else node.kind
    if not node.children:
        return name
    return f"{name}({' '.join(sketch(grammar, c) for c in node.children)})"


def tokens_for(shape):
    out = []
    for i, (kind, name) in enumerate(shape):
        if kind == "lit":
            out.append(Token(name, None, (i, i + 1)))
        else:
            out.append(Token("t", name, (i, i + 1)))
    return out


def sample_shapes(rng, language, count):
    pool = sorted(language)
    if not pool:
        return []
    return [pool[rng.randrange(len(pool))] for _ in range(min(count, len(pool)))]


def accepts(tree, start, tokens):
    try:
        parse_input(tree, start, tokens)
        return True
    except ParseError:
        return False
