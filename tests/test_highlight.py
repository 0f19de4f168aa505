import html
import re

import pytest

from gramweave import (HighlightSpan, NotationError, PLAIN, Style,
                       assign_groups, html_page, parse_aspect, parse_grammar,
                       parse_palette, parse_input, render_ansi, render_html,
                       strip_ansi, stylesheet, tokenize, weave, Token)
from support import fixture, java_class_text

KEYWORD_PALETTE = {"keyword": Style("yellow", bold=True),
                   "classDeclaration": Style("cyan", underline=True),
                   "typeParameterDeclaration": Style("green", underline=True)}


@pytest.fixture(scope="module")
def generics(java5, java_lexer):
    text = fixture("inputs/generics.java")
    tokens = tokenize(java_lexer, java5, text)
    return text, parse_input(java5, "normalClassDeclaration", tokens)


class TestAssignGroups:
    def test_generics_assignment(self, generics, highlight_store):
        text, pt = generics
        spans = assign_groups(pt, highlight_store)
        kw, cd, tp, pl = ("keyword", "classDeclaration",
                          "typeParameterDeclaration", PLAIN)
        # class Example < A , B extends A > implements Some < ? super B > { }
        assert [s.group for s in spans] == [
            kw, cd, pl, tp, pl, tp, kw, pl, pl,
            kw, pl, pl, tp, kw, pl, pl, pl, pl,
        ]
        assert [text[s.span[0]:s.span[1]] for s in spans] == [
            "class", "Example", "<", "A", ",", "B", "extends", "A", ">",
            "implements", "Some", "<", "?", "super", "B", ">", "{", "}",
        ]

    def test_unannotated_store_is_all_plain(self, arith, arith_lexer):
        store = weave(arith, [parse_aspect("")])
        pt = parse_input(arith, "expr", tokenize(arith_lexer, arith, "1+2*3"))
        assert all(s.group == PLAIN for s in assign_groups(pt, store))

    def test_leaf_beats_enclosing_reference(self):
        tree = parse_grammar("s : name ;\nname : ID ;")
        pt = parse_input(tree, "s", [Token("x", "ID", (0, 1))])
        outer = parse_aspect("s : .. @name: { group = outer } ; ;")
        inner = parse_aspect("name : .. @ID: { group = inner } ; ;")
        (span,) = assign_groups(pt, weave(tree, [outer, inner]))
        assert span.group == "inner"
        (span,) = assign_groups(pt, weave(tree, [outer]))
        assert span.group == "outer"

    def test_single_token_rule_definition_applies(self):
        tree = parse_grammar("s : name ;\nname : ID ;")
        pt = parse_input(tree, "s", [Token("x", "ID", (0, 1))])
        store = weave(tree, [parse_aspect("$r=name : {...} $r { group = deep } ;")])
        (span,) = assign_groups(pt, store)
        assert span.group == "deep"

    def test_multi_token_construct_never_colors(self):
        tree = parse_grammar("s : ID ID ;")
        tokens = [Token("a", "ID", (0, 1)), Token("b", "ID", (2, 3))]
        pt = parse_input(tree, "s", tokens)
        store = weave(tree, [parse_aspect("$r=# : {...} $r { group = wide } ;")])
        assert [s.group for s in assign_groups(pt, store)] == [PLAIN, PLAIN]

    @pytest.mark.parametrize("attribute, group", [
        ("group = 'my-group_2'", "my-group_2"), ("group = 3", PLAIN), ("group", PLAIN)])
    def test_woven_group_values(self, attribute, group):
        tree = parse_grammar("s : ID ;")
        pt = parse_input(tree, "s", [Token("x", "ID", (0, 1))])
        store = weave(tree, [parse_aspect("s : .. @ID: { " + attribute + " } ;")])
        (span,) = assign_groups(pt, store)
        assert span.group == group

    def test_woven_group_name_checked(self):
        # a palette could not name it, and HTML would read two classes
        tree = parse_grammar("s : ID ;")
        pt = parse_input(tree, "s", [Token("x", "ID", (0, 1))])
        store = weave(tree, [parse_aspect("s : .. @ID: { group = 'my group' } ;")])
        with pytest.raises(NotationError) as exc:
            assign_groups(pt, store)
        assert str(exc.value) == ("attribute 'group' at line 1, column 15: "
                                  "invalid group name 'my group'")

    def test_spans_mirror_tokens(self, generics, highlight_store):
        _, pt = generics
        spans = assign_groups(pt, highlight_store)
        assert [s.span for s in spans] == [t.span for t in pt.tokens]

    def test_groups_come_from_store(self, generics, highlight_store):
        _, pt = generics
        used = {s.group for s in assign_groups(pt, highlight_store)} - {PLAIN}
        assert used == {"keyword", "classDeclaration", "typeParameterDeclaration"}

    def test_lookup_once_per_node(self, java5, java_lexer, highlight_store,
                                  monkeypatch):
        # a java_files-style body, where most tokens reach the same nodes
        text = java_class_text(40)
        pt = parse_input(java5, "normalClassDeclaration",
                         tokenize(java_lexer, java5, text))
        want = assign_groups(pt, highlight_store)
        lookups = []
        lookup = highlight_store.lookup
        monkeypatch.setattr(highlight_store, "lookup", lambda node_id, name, namespace=None:
                            lookups.append((node_id, name)) or lookup(node_id, name, namespace))
        for _ in range(2):  # the kept groups last one call
            lookups.clear()
            assert assign_groups(pt, highlight_store) == want
            assert lookups and len(lookups) == len(set(lookups))
            assert {name for _, name in lookups} == {"group"}


class TestRenderAnsi:
    def test_empty_palette_is_identity(self, generics, highlight_store):
        text, pt = generics
        spans = assign_groups(pt, highlight_store)
        assert render_ansi(text, spans, {}) == text

    def test_styles_wrap_tokens(self):
        spans = [HighlightSpan((0, 5), "kw"), HighlightSpan((6, 7), PLAIN)]
        out = render_ansi("class X", spans, {"kw": Style(bold=True)})
        assert out == "\x1b[1mclass\x1b[0m X"

    def test_sgr_code_order(self):
        spans = [HighlightSpan((0, 1), "g")]
        out = render_ansi("x", spans, {"g": Style("yellow", True, True)})
        assert out == "\x1b[1;4;33mx\x1b[0m"

    def test_empty_style_adds_nothing(self):
        spans = [HighlightSpan((0, 1), "g")]
        assert render_ansi("x", spans, {"g": Style()}) == "x"

    def test_strip_round_trip(self, generics, highlight_store):
        text, pt = generics
        spans = assign_groups(pt, highlight_store)
        assert strip_ansi(render_ansi(text, spans, KEYWORD_PALETTE)) == text

    @pytest.mark.parametrize("spans", [
        [HighlightSpan((0, 2), "g"), HighlightSpan((1, 3), "g")],  # overlap
        [HighlightSpan((2, 1), "g")],                              # inverted
        [HighlightSpan((0, 99), "g")],                             # past end
    ])
    def test_bad_spans_rejected(self, spans):
        with pytest.raises(ValueError):
            render_ansi("abc", spans, {})


class TestRenderHtml:
    def test_escapes_and_wraps(self):
        spans = [HighlightSpan((0, 1), PLAIN), HighlightSpan((1, 2), "op"),
                 HighlightSpan((2, 3), PLAIN)]
        out = render_html("a<b", spans)
        assert out == 'a<span class="op">&lt;</span>b'

    def test_plain_tokens_unwrapped(self):
        out = render_html("ab", [HighlightSpan((0, 2), PLAIN)])
        assert out == "ab"

    def test_gaps_between_tokens_escaped(self):
        out = render_html("a & b", [HighlightSpan((0, 1), PLAIN),
                                    HighlightSpan((4, 5), PLAIN)])
        assert out == "a &amp; b"

    def test_text_recoverable(self, generics, highlight_store):
        text, pt = generics
        out = render_html(text, assign_groups(pt, highlight_store))
        assert html.unescape(re.sub(r"</?span[^>]*>", "", out)) == text


class TestStylesheet:
    def test_sorted_and_formatted(self):
        palette = {"b": Style("red", bold=True), "a": Style(underline=True)}
        assert stylesheet(palette) == (
            ".a { text-decoration: underline; }\n"
            ".b { color: red; font-weight: bold; }")

    def test_empty_styles_omitted(self):
        assert stylesheet({"a": Style()}) == ""

    def test_page_embeds_everything(self, generics, highlight_store):
        text, pt = generics
        spans = assign_groups(pt, highlight_store)
        page = html_page(text, spans, KEYWORD_PALETTE)
        assert page.startswith("<!DOCTYPE html>\n")
        assert stylesheet(KEYWORD_PALETTE) in page
        assert render_html(text, spans) in page
        assert page.endswith("</pre></body></html>\n")


class TestParsePalette:
    def test_fixture(self):
        palette = parse_palette(fixture("palette.txt"), "palette.txt")
        assert palette["keyword"] == Style("yellow", bold=True)
        assert palette["classDeclaration"] == Style("cyan", underline=True)
        assert palette["typeParameterDeclaration"] == Style("green",
                                                            underline=True)

    def test_default_color(self):
        assert parse_palette("g = default bold") == {"g": Style(None, True)}

    def test_comments_and_blanks(self):
        assert parse_palette("# note\n\ng = red\n") == {"g": Style("red")}

    def test_last_entry_wins(self):
        assert parse_palette("g = red\ng = blue") == {"g": Style("blue")}

    @pytest.mark.parametrize("text, fragment", [
        ("g red", "expected 'group"),
        ("g =", "expected 'group"),
        ("g = pink", "unknown color 'pink'"),
        ("g = red blinking", "unknown style flag 'blinking'"),
        ("my group = red bold", "invalid group name 'my group'"),
        ("x{}y = blue", "invalid group name 'x{}y'"),
        ("1st = red", "invalid group name '1st'"),
        ("a.b = red", "invalid group name 'a.b'"),
    ])
    def test_rejects(self, text, fragment):
        with pytest.raises(NotationError) as exc:
            parse_palette(text)
        assert fragment in str(exc.value)

    def test_bad_group_name_located(self):
        with pytest.raises(NotationError) as exc:
            parse_palette("g = red\n\n  my group = red bold\n", "p.txt")
        assert str(exc.value) == "p.txt:3:1: invalid group name 'my group'"

    @pytest.mark.parametrize("name", ["g", "_x", "type-name", "A_9-b"])
    def test_group_names(self, name):
        palette = parse_palette(f"{name} = red")
        assert palette == {name: Style("red")}
        assert stylesheet(palette) == f".{name} {{ color: red; }}"
