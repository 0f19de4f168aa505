import json
import re

import pytest

from gramweave import parse_input, strip_ansi, tokenize
from gramweave.cli import main
from support import (FIXTURES, deep_grammar_text, fixture, java_class_text,
                     nested_arith_text, reference_format)

JAVA5 = str(FIXTURES / "java5.g")
ARITH = str(FIXTURES / "arith.g")
JAVA_LEX = str(FIXTURES / "java.lex")
ARITH_LEX = str(FIXTURES / "arith.lex")
HIGHLIGHT = str(FIXTURES / "highlight.aspect")
PRETTY = str(FIXTURES / "pretty.aspect")
PALETTE = str(FIXTURES / "palette.txt")
GENERICS = str(FIXTURES / "inputs" / "generics.java")
CLASSBODY = str(FIXTURES / "inputs" / "classbody.java")
TYPEPARAMS = str(FIXTURES / "inputs" / "typeparams.txt")
EXPR = str(FIXTURES / "inputs" / "expr.txt")


@pytest.fixture(autouse=True)
def color_env(monkeypatch):
    monkeypatch.delenv("NO_COLOR", raising=False)
    monkeypatch.delenv("GRAMWEAVE_COLOR", raising=False)


@pytest.fixture()
def empty_aspect(tmp_path):
    path = tmp_path / "empty.aspect"
    path.write_text("", encoding="utf-8")
    return str(path)


@pytest.fixture()
def deep_grammar(tmp_path):
    """Arguments for a grammar of iterations nested 1,000 deep, an aspect
    on its one terminal, a one-line lexer and an input of three tokens."""
    files = {"deep.g": deep_grammar_text(1000), "in.txt": "abc",
             "id.aspect": "s : {...} @ID: { group = name; after = {{ ' ' }} } ; ;",
             "one.lex": "ID = /[a-z]/\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    return (str(tmp_path / "deep.g"), str(tmp_path / "in.txt"),
            "-a", str(tmp_path / "id.aspect"), "--lexer", str(tmp_path / "one.lex"))


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


class TestCheck:
    def test_ok(self, capsys):
        code, out, err = run(capsys, "check", JAVA5, "-a", HIGHLIGHT)
        assert (code, err) == (0, "")
        assert out == "ok: 9 attributes woven\n"

    def test_counts_grammar_annotation(self, capsys):
        # 2 grammar-level attributes, 5 on literals/refs named once, and
        # the typeParameter advice lands on both references in the rule
        code, out, _ = run(capsys, "check", JAVA5, "-a", PRETTY)
        assert code == 0
        assert out == "ok: 9 attributes woven\n"

    def test_multiplicity_diagnostic(self, capsys, tmp_path):
        bad = tmp_path / "bad.aspect"
        bad.write_text("[0..1] # : $tr=# (.. $tr)* ;\n", encoding="utf-8")
        code, out, err = run(capsys, "check", ARITH, "-a", str(bad))
        assert (code, out) == (1, "")
        assert err == (f"{bad}:1:1: pattern '# : $tr=# (.. $tr)*' "
                       "matched 2, expected [0..1]\n")

    def test_subpattern_diagnostic_location(self, capsys, tmp_path):
        bad = tmp_path / "sub.aspect"
        bad.write_text("factor : {...}\n  @[5] #: { t } ; ;\n", encoding="utf-8")
        code, _, err = run(capsys, "check", ARITH, "-a", str(bad))
        assert code == 1
        assert re.fullmatch(
            rf"{re.escape(str(bad))}:2:8: pattern '#' matched 2, "
            r"expected \[5\.\.5\]\n", err)

    def test_conflict_names_second_aspect(self, capsys, tmp_path):
        a = tmp_path / "a.aspect"
        b = tmp_path / "b.aspect"
        a.write_text("typeArgument : {...} @'?': { group = keyword } ; ;")
        b.write_text("typeArgument : {...} @'?': { group = other } ; ;")
        code, _, err = run(capsys, "check", JAVA5, "-a", str(a), "-a", str(b))
        assert code == 1
        assert err.startswith(f"{b}: conflicting values for 'group'")

    def test_malformed_aspect(self, capsys, tmp_path):
        bad = tmp_path / "oops.aspect"
        bad.write_text("# : .. @#lex { a = 1 } ;\n", encoding="utf-8")
        code, _, err = run(capsys, "check", ARITH, "-a", str(bad))
        assert code == 2
        assert err.startswith(f"error: {bad}:")

    @pytest.mark.parametrize("text, where", [
        ("# : $tr (.. $tr=#)* ;\n", "1:5: variable '$tr' is not defined before use"),
        ("# : ..\n  @#lex: { a = 1; a = 2 } ;\n", "2:19: duplicate attribute 'a' in annotation"),
    ])
    def test_scope_and_duplicate_errors_name_the_aspect(self, capsys, tmp_path, text, where):
        bad = tmp_path / "bad.aspect"
        bad.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "check", ARITH, "-a", str(bad))
        assert (code, out, err) == (2, "", f"error: {bad}:{where}\n")

    def test_deep_annotation_value(self, capsys, tmp_path, default_recursion_limit):
        aspect = tmp_path / "deep.aspect"
        aspect.write_text("factor : {...} @INT: { a = " + "{{ " * 1000 + "x" +
                          " }}" * 1000 + " } ; ;\n", encoding="utf-8")
        code, out, err = run(capsys, "check", ARITH, "-a", str(aspect))
        assert (code, out, err) == (0, "ok: 1 attributes woven\n", "")

    def test_missing_aspect_flag(self, capsys):
        code, _, err = run(capsys, "check", ARITH)
        assert code == 2
        assert "at least one aspect file is required" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "check", str(tmp_path / "nope.g"),
                           "-a", HIGHLIGHT)
        assert code == 2
        assert err.startswith("error:")

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "usage" in out


class TestWeave:
    def test_stdout_json(self, capsys, empty_aspect):
        code, out, err = run(capsys, "weave", ARITH, "-a", empty_aspect)
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["version"] == 2
        assert doc["annotations"] == []
        assert doc["grammar"] == {"source": ARITH, "text": fixture("arith.g")}

    def test_output_file_matches_stdout(self, capsys, tmp_path):
        out_path = tmp_path / "store.json"
        code, out, _ = run(capsys, "weave", JAVA5, "-a", HIGHLIGHT)
        assert code == 0
        code2, _, _ = run(capsys, "weave", JAVA5, "-a", HIGHLIGHT,
                          "-o", str(out_path))
        assert code2 == 0
        assert out_path.read_text(encoding="utf-8") == out

    @pytest.mark.parametrize("value, kind", [
        ("{ b = " * 1000 + "x" + " }" * 1000, "record"),
        ("{{ " * 1000 + "x" + " }}" * 1000, "seq"),
    ], ids=["record", "seq"])
    def test_deep_annotation_value(self, capsys, tmp_path, default_recursion_limit,
                                   value, kind):
        aspect = tmp_path / "deep.aspect"
        aspect.write_text(f"factor : {{...}} @INT: {{ a = {value} }} ; ;\n",
                          encoding="utf-8")
        out_path = tmp_path / "store.json"
        code, out, err = run(capsys, "weave", ARITH, "-a", str(aspect), "-o", str(out_path))
        assert (code, out, err) == (0, "", "")
        assert out_path.read_text(encoding="utf-8").count(f'["{kind}",1]') == 1000

    def test_byte_deterministic(self, capsys, tmp_path):
        paths = [tmp_path / "one.json", tmp_path / "two.json"]
        for path in paths:
            code, _, _ = run(capsys, "weave", JAVA5, "-a", HIGHLIGHT,
                             "-a", PRETTY, "-o", str(path))
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_path_spellings_give_one_document(self, capsys, monkeypatch):
        # an absolute and a relative path to one file still differ
        monkeypatch.chdir(FIXTURES.parent.parent)
        outs = [run(capsys, "weave", path, "-a", HIGHLIGHT)
                for path in ("tests/fixtures/java5.g", "./tests/fixtures/java5.g",
                             "tests//fixtures/../fixtures/java5.g")]
        assert outs[0][0] == 0 and outs[0] == outs[1] == outs[2]
        assert json.loads(outs[0][1])["grammar"]["source"] == "tests/fixtures/java5.g"

    def test_provenance_recorded(self, capsys):
        _, out, _ = run(capsys, "weave", JAVA5, "-a", HIGHLIGHT)
        doc = json.loads(out)
        assert len(doc["annotations"]) == 9
        rules = {rule for *_, rule in doc["annotations"]}
        assert rules == {0, 1, 2}


class TestHighlight:
    def test_piped_ansi_is_plain(self, capsys):
        code, out, err = run(capsys, "highlight", JAVA5, GENERICS,
                             "-a", HIGHLIGHT, "--lexer", JAVA_LEX,
                             "--palette", PALETTE)
        assert (code, err) == (0, "")
        assert out == fixture("inputs/generics.java")

    def test_color_forced_on(self, capsys, monkeypatch):
        monkeypatch.setenv("GRAMWEAVE_COLOR", "always")
        code, out, _ = run(capsys, "highlight", JAVA5, GENERICS,
                           "-a", HIGHLIGHT, "--lexer", JAVA_LEX,
                           "--palette", PALETTE)
        assert code == 0
        assert "\x1b[1;33mclass\x1b[0m" in out
        assert strip_ansi(out) == fixture("inputs/generics.java")

    def test_no_color_wins(self, capsys, monkeypatch):
        monkeypatch.setenv("GRAMWEAVE_COLOR", "always")
        monkeypatch.setenv("NO_COLOR", "1")
        code, out, _ = run(capsys, "highlight", JAVA5, GENERICS,
                           "-a", HIGHLIGHT, "--lexer", JAVA_LEX,
                           "--palette", PALETTE)
        assert code == 0
        assert "\x1b[" not in out

    def test_output_file_is_styled(self, capsys, tmp_path):
        out_path = tmp_path / "styled.txt"
        code, out, _ = run(capsys, "highlight", JAVA5, GENERICS,
                           "-a", HIGHLIGHT, "--lexer", JAVA_LEX,
                           "--palette", PALETTE, "-o", str(out_path))
        assert (code, out) == (0, "")
        styled = out_path.read_text(encoding="utf-8")
        assert "\x1b[" in styled
        assert strip_ansi(styled) == fixture("inputs/generics.java")

    def test_html_page(self, capsys):
        code, out, _ = run(capsys, "highlight", JAVA5, GENERICS,
                           "-a", HIGHLIGHT, "--lexer", JAVA_LEX,
                           "--format", "html", "--palette", PALETTE)
        assert code == 0
        assert out.startswith("<!DOCTYPE html>")
        assert '<span class="keyword">class</span>' in out
        assert ".keyword { color: yellow; font-weight: bold; }" in out

    def test_bad_palette_group_name(self, capsys, tmp_path):
        palette = tmp_path / "bad.palette"
        palette.write_text("keyword = yellow\nx{}y = blue\n", encoding="utf-8")
        code, out, err = run(capsys, "highlight", JAVA5, GENERICS,
                             "-a", HIGHLIGHT, "--lexer", JAVA_LEX,
                             "--format", "html", "--palette", str(palette))
        assert (code, out) == (2, "")
        assert err == f"error: {palette}:2:1: invalid group name 'x{{}}y'\n"

    def test_bad_woven_group_name(self, capsys, tmp_path):
        files = {"s.g": "s : ID ;", "in.txt": "x", "one.lex": "ID = /[a-z]/\n",
                 "g.aspect": "s : .. @ID: { group = 'my group' } ;"}
        for name, text in files.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "highlight", str(tmp_path / "s.g"),
                             str(tmp_path / "in.txt"), "-a", str(tmp_path / "g.aspect"),
                             "--lexer", str(tmp_path / "one.lex"), "--format", "html")
        assert (code, out) == (2, "")
        assert err == ("error: attribute 'group' at line 1, column 15: "
                       "invalid group name 'my group'\n")

    def test_unparseable_input(self, capsys, tmp_path):
        src = tmp_path / "bad.java"
        src.write_text("class class\n", encoding="utf-8")
        code, _, err = run(capsys, "highlight", JAVA5, str(src),
                           "-a", HIGHLIGHT, "--lexer", JAVA_LEX)
        assert code == 3
        assert err == f"error: {src}:1:7: unexpected 'class' (expected IDENTIFIER)\n"

    def test_escaped_literals_in_parse_error(self, capsys, tmp_path, empty_aspect):
        files = {"s.g": "s : 'a' '\\n' 'b' ;", "ab.txt": "ab", "one.lex": "ID = /[a-z]/\n"}
        for name, text in files.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        src = tmp_path / "ab.txt"
        code, out, err = run(capsys, "format", str(tmp_path / "s.g"), str(src),
                             "-a", empty_aspect, "--lexer", str(tmp_path / "one.lex"))
        assert (code, out) == (3, "")
        assert err == f"error: {src}:1:2: unexpected 'b' (expected '\\n')\n"

    def test_lex_error(self, capsys, tmp_path, empty_aspect):
        src = tmp_path / "bad.txt"
        src.write_text("1+@\n", encoding="utf-8")
        code, _, err = run(capsys, "highlight", ARITH, str(src),
                           "-a", empty_aspect, "--lexer", ARITH_LEX)
        assert code == 3
        assert err == f"error: {src}:1:3: no token matches '@\\n'\n"
        # the unmatched text is spelled as a literal, as in parse errors
        src.write_text("1+'b\n", encoding="utf-8")
        code, _, err = run(capsys, "highlight", ARITH, str(src),
                           "-a", empty_aspect, "--lexer", ARITH_LEX)
        assert code == 3
        assert err == f"error: {src}:1:3: no token matches '\\'b\\n'\n"

    @pytest.mark.parametrize("command", ["highlight", "format"])
    def test_errors_on_line_three(self, capsys, tmp_path, command):
        src = tmp_path / "three.java"
        src.write_text("class A {\n\tint x ;\n  int class y ;\n}\n", encoding="utf-8")
        code, out, err = run(capsys, command, JAVA5, str(src),
                             "-a", PRETTY, "--lexer", JAVA_LEX)
        assert (code, out) == (3, "")
        assert err == f"error: {src}:3:7: unexpected 'class' (expected IDENTIFIER)\n"
        src.write_text("class A {\n\tint x ;\n\tint #y ;\n}\n", encoding="utf-8")
        code, out, err = run(capsys, command, JAVA5, str(src),
                             "-a", PRETTY, "--lexer", JAVA_LEX)
        assert (code, out) == (3, "")
        assert err == f"error: {src}:3:6: no token matches '#y ;\\n}}\\n'\n"

    def test_unexpected_end_names_last_line(self, capsys, tmp_path, empty_aspect):
        src = tmp_path / "cut.txt"
        src.write_text("1+\n(2*\n", encoding="utf-8")
        code, _, err = run(capsys, "format", ARITH, str(src),
                           "-a", empty_aspect, "--lexer", ARITH_LEX)
        assert code == 3
        assert err == f"error: {src}:2:4: unexpected end of input (expected '(', INT)\n"

    def test_missing_lexer_flag(self, capsys):
        code, _, err = run(capsys, "highlight", JAVA5, GENERICS,
                           "-a", HIGHLIGHT)
        assert code == 2
        assert "--lexer" in err

    def test_unknown_start(self, capsys):
        code, _, err = run(capsys, "highlight", JAVA5, GENERICS,
                           "-a", HIGHLIGHT, "--lexer", JAVA_LEX,
                           "--start", "nope")
        assert code == 2
        assert "start symbol 'nope' is not a defined rule" in err

    def test_deep_nesting(self, capsys, tmp_path, empty_aspect,
                          default_recursion_limit):
        src = tmp_path / "deep.txt"
        src.write_text(nested_arith_text(1000), encoding="utf-8")
        code, out, err = run(capsys, "highlight", ARITH, str(src),
                             "-a", empty_aspect, "--lexer", ARITH_LEX)
        assert (code, err) == (0, "")
        assert strip_ansi(out) == nested_arith_text(1000)

    def test_deep_grammar(self, capsys, deep_grammar, default_recursion_limit):
        code, out, err = run(capsys, "highlight", *deep_grammar, "--format", "html")
        assert (code, err) == (0, "")
        assert '<pre><span class="name">a</span><span class="name">b</span>' \
            '<span class="name">c</span></pre>' in out

    def test_failed_run_writes_nothing(self, capsys, tmp_path):
        src = tmp_path / "bad.java"
        src.write_text("class class\n", encoding="utf-8")
        out_path = tmp_path / "out.txt"
        code, _, _ = run(capsys, "highlight", JAVA5, str(src),
                         "-a", HIGHLIGHT, "--lexer", JAVA_LEX,
                         "-o", str(out_path))
        assert code == 3
        assert not out_path.exists()


class TestFormat:
    def test_classbody(self, capsys):
        code, out, err = run(capsys, "format", JAVA5, CLASSBODY,
                             "-a", PRETTY, "--lexer", JAVA_LEX)
        assert (code, err) == (0, "")
        assert out == "class A {\n    int x ;\n\n}\n"

    def test_typeparams_with_start(self, capsys):
        code, out, _ = run(capsys, "format", JAVA5, TYPEPARAMS,
                           "-a", PRETTY, "--lexer", JAVA_LEX,
                           "--start", "typeParameters")
        assert code == 0
        assert out == "<A, B>"

    def test_idempotent_via_files(self, capsys, tmp_path):
        first = tmp_path / "once.java"
        code, _, _ = run(capsys, "format", JAVA5, CLASSBODY, "-a", PRETTY,
                         "--lexer", JAVA_LEX, "-o", str(first))
        assert code == 0
        code, out, _ = run(capsys, "format", JAVA5, str(first), "-a", PRETTY,
                           "--lexer", JAVA_LEX)
        assert code == 0
        assert out == first.read_text(encoding="utf-8")

    def test_default_start_is_first_rule(self, capsys, empty_aspect):
        code, out, _ = run(capsys, "format", ARITH, EXPR,
                           "-a", empty_aspect, "--lexer", ARITH_LEX)
        assert code == 0
        assert out == "1+2*3"

    def test_bad_whitespace_advice_exits_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.aspect"
        bad.write_text("expr : .. @PLUS: { after = 3 } ;\n", encoding="utf-8")
        code, _, err = run(capsys, "format", ARITH, EXPR,
                           "-a", str(bad), "--lexer", ARITH_LEX)
        assert code == 1
        assert "attribute 'after'" in err

    def test_deep_grammar(self, capsys, deep_grammar, default_recursion_limit):
        code, out, err = run(capsys, "format", *deep_grammar)
        assert (code, out, err) == (0, "a b c", "")

    def test_large_class_body(self, capsys, tmp_path, java5, java_lexer,
                              pretty_store, default_recursion_limit):
        text = java_class_text(1000)
        src = tmp_path / "big.java"
        src.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "format", JAVA5, str(src),
                             "-a", PRETTY, "--lexer", JAVA_LEX)
        assert (code, err) == (0, "")
        tree = parse_input(java5, "normalClassDeclaration",
                           tokenize(java_lexer, java5, text))
        assert out == reference_format(tree, pretty_store)
