import pytest

from gramweave import (AnnotationStore, FormatterState, IntValue,
                       NameValue, SeqValue, StrValue, Token,
                       WhitespaceError, decode_whitespace,
                       format_tree, leaves, parse_annotation, parse_aspect,
                       parse_grammar, parse_input, token_contexts, tokenize,
                       weave)
from support import effective_whitespace, fixture, reference_format

FROZEN_CLASSBODY = "class A {\n    int x ;\n\n}\n"
FROZEN_TYPEPARAMS = "<A, B>"


def mini(grammar_text, aspect_text, token_specs):
    tree = parse_grammar(grammar_text)
    store = weave(tree, [parse_aspect(aspect_text)] if aspect_text else [])
    tokens = [Token(text, term, (i, i + 1))
              for i, (text, term) in enumerate(token_specs)]
    pt = parse_input(tree, tree.root.children[0].detail, tokens)
    return pt, store


@pytest.fixture(scope="module")
def classbody(java5, java_lexer):
    text = fixture("inputs/classbody.java")
    tokens = tokenize(java_lexer, java5, text)
    return parse_input(java5, "normalClassDeclaration", tokens)


@pytest.fixture(scope="module")
def typeparams(java5, java_lexer):
    text = fixture("inputs/typeparams.txt")
    tokens = tokenize(java_lexer, java5, text)
    return parse_input(java5, "typeParameters", tokens)


class TestDecode:
    @pytest.mark.parametrize("value, program", [
        (StrValue(""), ("",)),
        (StrValue("\n"), ("\n",)),
        (SeqValue((StrValue("\n"), NameValue("increaseIndent"))),
         ("\n", 1)),
        (SeqValue((NameValue("decreaseIndent"), StrValue("\n"))),
         (-1, "\n")),
        (SeqValue(()), ()),
        # adjacent strings join into one run; steps keep their place
        (SeqValue((StrValue(" "), StrValue("\n"), NameValue("increaseIndent"),
                   StrValue(" "))),
         (" \n", 1, " ")),
    ])
    def test_programs(self, value, program):
        assert decode_whitespace(value) == program

    @pytest.mark.parametrize("value, fragment", [
        (SeqValue((IntValue(3),)), "may only contain strings"),
        (SeqValue((NameValue("indentMore"),)), "unknown name literal 'indentMore'"),
        (IntValue(1), "expected a string or a sequence"),
        (NameValue("x"), "expected a string or a sequence"),
    ])
    def test_rejects(self, value, fragment):
        with pytest.raises(WhitespaceError) as exc:
            decode_whitespace(value, "attribute 'after'")
        assert fragment in str(exc.value)
        assert "attribute 'after'" in str(exc.value)


class TestEffectiveWhitespace:
    def test_annotated_open_brace(self, classbody, pretty_store):
        brace = leaves(classbody)[2]
        assert brace.token.text == "{"
        before, after = effective_whitespace(brace, classbody, pretty_store)
        assert before == ("",)
        assert after == ("\n", 1)

    def test_unannotated_token_gets_defaults(self, classbody, pretty_store):
        first = leaves(classbody)[0]
        assert first.token.text == "class"
        before, after = effective_whitespace(first, classbody, pretty_store)
        assert before == ("",)
        assert after == (" ",)

    def test_after_inherited_from_enclosing_reference(self, classbody,
                                                      pretty_store):
        # the ';' closes a classBodyDeclaration; the newline is attached
        # to the reference in classBody, not to the ';' itself
        semi = leaves(classbody)[5]
        assert semi.token.text == ";"
        _, after = effective_whitespace(semi, classbody, pretty_store)
        assert after == ("\n",)

    def test_close_brace_programs(self, classbody, pretty_store):
        brace = leaves(classbody)[6]
        assert brace.token.text == "}"
        before, after = effective_whitespace(brace, classbody, pretty_store)
        assert before == (-1, "\n")
        assert after == ("\n",)

    def test_foreign_leaf_rejected(self, classbody, pretty_store,
                                   arith, arith_lexer):
        other = parse_input(arith, "expr", tokenize(arith_lexer, arith, "1"))
        with pytest.raises(ValueError):
            effective_whitespace(leaves(other)[0], classbody, pretty_store)

    def test_indent_directives_balance(self, classbody, pretty_store):
        total = 0
        for leaf in leaves(classbody):
            before, after = effective_whitespace(leaf, classbody, pretty_store)
            total += sum(item for item in before + after if isinstance(item, int))
        assert total == 0


class TestFormat:
    def test_classbody(self, classbody, pretty_store):
        assert format_tree(classbody, pretty_store) == FROZEN_CLASSBODY

    def test_typeparams(self, typeparams, pretty_store):
        assert format_tree(typeparams, pretty_store) == FROZEN_TYPEPARAMS

    @pytest.mark.parametrize("fixture_name", ["classbody", "typeparams"])
    def test_reference_agreement(self, fixture_name, pretty_store, request):
        pt = request.getfixturevalue(fixture_name)
        assert format_tree(pt, pretty_store) == reference_format(pt, pretty_store)

    def test_reference_agreement_generics(self, java5, java_lexer, pretty_store):
        text = fixture("inputs/generics.java")
        pt = parse_input(java5, "normalClassDeclaration",
                         tokenize(java_lexer, java5, text))
        assert format_tree(pt, pretty_store) == reference_format(pt, pretty_store)

    @pytest.mark.parametrize("name, start", [
        ("inputs/classbody.java", "normalClassDeclaration"),
        ("inputs/typeparams.txt", "typeParameters"),
        ("inputs/generics.java", "normalClassDeclaration"),
    ])
    def test_idempotent(self, name, start, java5, java_lexer, pretty_store):
        first = format_tree(parse_input(
            java5, start, tokenize(java_lexer, java5, fixture(name))),
            pretty_store)
        again = format_tree(parse_input(
            java5, start, tokenize(java_lexer, java5, first)), pretty_store)
        assert again == first

    def test_tokens_preserved(self, java5, java_lexer, classbody, pretty_store):
        out = format_tree(classbody, pretty_store)
        assert ([t.text for t in tokenize(java_lexer, java5, out)]
                == [t.text for t in classbody.tokens])

    def test_empty_store_concatenates_tokens(self, arith, arith_lexer):
        store = weave(arith, [])
        pt = parse_input(arith, "expr", tokenize(arith_lexer, arith, "1 + 2*3"))
        assert format_tree(pt, store) == "1+2*3"

    def test_single_token(self, arith, arith_lexer):
        store = weave(arith, [])
        pt = parse_input(arith, "expr", tokenize(arith_lexer, arith, "7"))
        assert format_tree(pt, store) == "7"

    def test_empty_token_stream(self):
        pt, store = mini("s : #empty ;", "", [])
        assert format_tree(pt, store) == ""

    def test_indent_unit_override(self):
        pt, store = mini(
            "s : '{' ID '}' ;",
            "{ indentUnit = '>>'; defaultBefore = {{ '' }};"
            " defaultAfter = {{ '' }}; }\n"
            "s : {...}\n"
            "    @'{': { after = {{ '\\n' increaseIndent }} } ;\n"
            "    @'}': { before = {{ decreaseIndent '\\n' }} } ; ;",
            [("{", None), ("x", "ID"), ("}", None)])
        assert format_tree(pt, store) == "{\n>>x\n}"

    @pytest.mark.parametrize("advice, out", [
        ("", "x ;"),
        ("s : .. @ID: { after = {{ }} } ;", "x;"),  # {{ }} runs in its place
    ])
    def test_empty_program_suppresses_default(self, advice, out):
        pt, store = mini("s : ID ';' ;", "{ defaultAfter = {{ ' ' }}; }\n" + advice,
                         [("x", "ID"), (";", None)])
        assert format_tree(pt, store) == out

    def test_underflow_warns_and_clamps(self):
        pt, store = mini(
            "s : ID ;",
            "s : .. @ID: { before = {{ decreaseIndent }} } ;",
            [("x", "ID")])
        with pytest.warns(UserWarning, match="underflow"):
            assert format_tree(pt, store) == "x"

    def test_undecodable_attribute_names_location(self):
        pt, store = mini(
            "s : ID ;",
            "s : .. @ID: { after = 3 } ;",
            [("x", "ID")])
        with pytest.raises(WhitespaceError) as exc:
            format_tree(pt, store)
        assert "attribute 'after' at line 1" in str(exc.value)

    def test_non_string_indent_unit_rejected(self):
        pt, store = mini("s : ID ;", "{ indentUnit = 3; }", [("x", "ID")])
        with pytest.raises(WhitespaceError) as exc:
            format_tree(pt, store)
        assert "indentUnit must be a string" in str(exc.value)


class TestFormatterState:
    def test_trailing_spaces_trimmed_per_line(self):
        state = FormatterState()
        state.emit_text("a  \nb")
        assert state.finish() == "a\nb"

    def test_finish_collapses_trailing_blank_lines(self):
        state = FormatterState()
        state.emit_text("a\n\n\n")
        assert state.finish() == "a\n"

    def test_finish_drops_trailing_spaces(self):
        state = FormatterState()
        state.emit_text("a   ")
        assert state.finish() == "a"

    def test_lazy_indent(self):
        state = FormatterState(indent_unit="  ")
        state.run(("a", 1, "\n", "b"))
        assert state.finish() == "a\n  b"

    def test_indent_level_changes_immediately(self):
        # the level in force when ink appears is what gets emitted, even
        # if directives ran after the newline
        state = FormatterState(indent_unit="  ")
        state.run(("a\n", 1, "b"))
        assert state.finish() == "a\n  b"


class TestReadsOncePerCall:
    """format_tree decodes a node's before/after program the first time a
    token reaches the node, and keeps it for the call."""

    @pytest.fixture()
    def bad_paren(self, arith):
        # '(' carries a before program that does not decode
        store = AnnotationStore(arith)
        paren = next(n.id for n in arith.by_id.values()
                     if n.kind == "literal" and n.detail == "(")
        store.attach(paren, parse_annotation("{ before = 3 }"))
        return store

    def test_unreached_bad_program_raises_nothing(self, arith, arith_lexer, bad_paren):
        pt = parse_input(arith, "expr", tokenize(arith_lexer, arith, "1 + 2"))
        assert format_tree(pt, bad_paren) == "1+2"

    def test_reached_bad_program_raises(self, arith, arith_lexer, bad_paren):
        pt = parse_input(arith, "expr", tokenize(arith_lexer, arith, "1+(2)"))
        with pytest.raises(WhitespaceError) as exc:
            format_tree(pt, bad_paren)
        assert str(exc.value) == ("attribute 'before' at line 1, column 3: "
                                  "expected a string or a sequence value")

    def test_attribute_read_once_per_node_and_name(self, java5, java_lexer,
                                                   pretty_store, monkeypatch):
        reads = []
        attribute = pretty_store.attribute
        monkeypatch.setattr(pretty_store, "attribute", lambda node_id, name, namespace=None:
                            reads.append((node_id, name)) or attribute(node_id, name, namespace))
        pt = parse_input(java5, "normalClassDeclaration",
                         tokenize(java_lexer, java5, fixture("inputs/generics.java")))
        for _ in range(2):  # the kept programs last one call
            reads.clear()
            out = format_tree(pt, pretty_store)
            assert len(reads) == len(set(reads))
            # every node a token reaches is read, for both programs
            reached = set(token_contexts(pt).opened)
            assert {n for n, name in reads if name == "before"} == reached
            assert {n for n, name in reads if name == "after"} == reached
            assert len(reads) == 2 * len(reached) + 3  # and the three defaults
        assert out == reference_format(pt, pretty_store)
