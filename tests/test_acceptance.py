"""Acceptance suite: one test per published criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL
line per criterion.
"""

import html
import random
import re
import time

import pytest

from gramweave import (Multiplicity, NotationError, WeaveFailure,
                       assign_groups, deserialize_store, match_rules,
                       parse_aspect, parse_grammar, parse_palette,
                       parse_input, parse_rule_pattern, render_ansi,
                       render_html, serialize_grammar, serialize_store,
                       strip_ansi, tokenize, weave)
from gramweave import patterns as P
from gramweave.cli import main
from gramweave.prettyprint import format_tree
from bruteforce import brute_force_match
from support import (FIXTURES, fixture, random_grammar,
                     random_rule_pattern_text, reference_format,
                     results_as_sets)

FROZEN_CLASSBODY = "class A {\n    int x ;\n\n}\n"
FROZEN_TYPEPARAMS = "<A, B>"


def check(number, label, body):
    try:
        body()
    except BaseException:
        print(f"FAIL criterion {number}: {label}")
        raise
    print(f"PASS criterion {number}: {label}")


def test_criterion_1_pattern_examples(arith):
    def body():
        start = time.perf_counter()

        def rule_names(text):
            return {arith.by_id[m.node].detail
                    for m in match_rules(parse_rule_pattern(text), arith)}

        assert rule_names("expr : {...}") == {"expr"}
        assert rule_names("# : term ..") == {"expr"}
        assert rule_names("# : # (..)*") == {"expr", "term"}
        matches = [m for m in match_rules(
            parse_rule_pattern("# : $tr=# (.. $tr)*"), arith)
            if arith.by_id[m.node].detail == "expr"]
        (m,) = matches
        bound = m.bindings["tr"]
        assert len(bound) == 2
        for nid in bound:
            node = arith.by_id[nid]
            assert node.kind == "symbol_ref" and node.detail == "term"
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0

    check(1, "pattern example suite, exact sets, under 1s", body)


def test_criterion_2_multiplicity_error(arith):
    def body():
        with pytest.raises(WeaveFailure) as exc:
            weave(arith, [parse_aspect("[0..1] # : $tr=# (.. $tr)* ;")])
        (err,) = exc.value.errors
        assert err.aspect_index == 0 and err.rule_index == 0
        assert err.pattern_text == "# : $tr=# (.. $tr)*"
        assert err.actual == 2
        assert err.expected == Multiplicity(0, 1)
        assert "matched 2, expected [0..1]" in str(err)
        store = weave(arith, [parse_aspect("# : $tr=# (.. $tr)* ;")])
        assert len(store) == 0

    check(2, "multiplicity [0..1] fails with count 2, default succeeds", body)


def test_criterion_3_highlight_snapshot(java5, highlight_store):
    def body():
        frozen = (FIXTURES / "snapshots" / "java5_highlight_store.json") \
            .read_text(encoding="utf-8")
        assert serialize_store(highlight_store) == frozen
        assert deserialize_store(frozen) == highlight_store
        counts = {}
        for nid in highlight_store.annotated_nodes():
            meta = highlight_store.node_meta(nid)
            group = highlight_store.lookup(nid, "group").name
            key = (meta.kind, group)
            counts[key] = counts.get(key, 0) + 1
        assert counts == {
            ("literal", "keyword"): 6,
            ("symbol_ref", "classDeclaration"): 1,
            ("symbol_ref", "typeParameterDeclaration"): 1,
            ("literal", "typeParameterDeclaration"): 1,
        }
        assert len(highlight_store) == 9

    check(3, "woven store matches enumerated attachments and snapshot", body)


def test_criterion_4_robustness_regression(java5, java14, highlight_aspect):
    def body():
        pattern = highlight_aspect.rules[0].pattern
        five = {java5.by_id[m.node].detail
                for m in match_rules(pattern, java5)}
        fourteen = {java14.by_id[m.node].detail
                    for m in match_rules(pattern, java14)}
        assert five == {"normalClassDeclaration"}
        assert fourteen == {"classDeclaration"}

    check(4, "class-declaration rule matches both grammar versions", body)


def test_criterion_5_pretty_printing(java5, java_lexer, pretty_store):
    def body():
        def fmt(text, start):
            tokens = tokenize(java_lexer, java5, text)
            return format_tree(parse_input(java5, start, tokens), pretty_store)

        def ref(text, start):
            tokens = tokenize(java_lexer, java5, text)
            return reference_format(parse_input(java5, start, tokens),
                                    pretty_store)

        classbody = fixture("inputs/classbody.java")
        typeparams = fixture("inputs/typeparams.txt")
        out_cb = fmt(classbody, "normalClassDeclaration")
        out_tp = fmt(typeparams, "typeParameters")
        assert out_cb == FROZEN_CLASSBODY
        assert out_tp == FROZEN_TYPEPARAMS
        assert out_cb == ref(classbody, "normalClassDeclaration")
        assert out_tp == ref(typeparams, "typeParameters")
        assert fmt(out_cb, "normalClassDeclaration") == out_cb
        assert fmt(out_tp, "typeParameters") == out_tp

    check(5, "pretty-printer fixtures, reference agreement, idempotence", body)


def _pattern_size(pat) -> int:
    if isinstance(pat, P.RulePattern):
        return 1 + _pattern_size(pat.symbol) + sum(
            _pattern_size(p) for p in pat.productions)
    if isinstance(pat, P.ProdPat):
        return 1 + _pattern_size(pat.body)
    if isinstance(pat, P.SeqPat):
        return 1 + sum(_pattern_size(i) for i in pat.items)
    if isinstance(pat, P.AltPat):
        return 1 + sum(_pattern_size(m) for m in pat.members)
    if isinstance(pat, (P.IterPat, P.Bind)):
        return 1 + _pattern_size(pat.inner)
    return 1


def test_criterion_6_matcher_equivalence():
    def body():
        start = time.perf_counter()
        rng = random.Random(74207281)
        agreed = 0
        draws = 0
        while agreed < 200 and draws < 3000:
            draws += 1
            tree = random_grammar(rng)  # bounded at 50 grammar nodes
            try:
                pat = parse_rule_pattern(random_rule_pattern_text(rng))
            except NotationError:
                continue
            if _pattern_size(pat) > 10:
                continue
            assert results_as_sets(match_rules(pat, tree)) == \
                results_as_sets(brute_force_match(pat, tree))
            agreed += 1
        elapsed = time.perf_counter() - start
        assert agreed >= 200
        assert elapsed < 30.0

    check(6, "fast matcher equals brute force on 200+ random cases", body)


def test_criterion_7_round_trips(java5, java_lexer, arith, arith_lexer,
                                 highlight_store):
    def body():
        for name in ("arith.g", "java5.g", "java14.g"):
            text = fixture(name)
            tree = parse_grammar(text, name)
            again = parse_grammar(serialize_grammar(tree), name)
            assert again.root.structure_key == tree.root.structure_key

        blob = serialize_store(highlight_store)
        assert deserialize_store(blob) == highlight_store
        assert serialize_store(deserialize_store(blob)) == blob

        palette = parse_palette(fixture("palette.txt"))
        plain_arith = weave(arith, [])
        cases = [
            ("inputs/classbody.java", java5, java_lexer,
             "normalClassDeclaration", highlight_store),
            ("inputs/generics.java", java5, java_lexer,
             "normalClassDeclaration", highlight_store),
            ("inputs/typeparams.txt", java5, java_lexer,
             "typeParameters", highlight_store),
            ("inputs/expr.txt", arith, arith_lexer, "expr", plain_arith),
        ]
        for name, grammar, lexer, start, store in cases:
            text = fixture(name)
            pt = parse_input(grammar, start, tokenize(lexer, grammar, text))
            spans = assign_groups(pt, store)
            assert strip_ansi(render_ansi(text, spans, palette)) == text
            stripped = re.sub(r"</?span[^>]*>", "", render_html(text, spans))
            assert html.unescape(stripped) == text

    check(7, "grammar, store, and highlighter round trips", body)


def test_criterion_8_determinism(tmp_path):
    def body():
        outputs = []
        for name in ("first.json", "second.json"):
            path = tmp_path / name
            code = main(["weave", str(FIXTURES / "java5.g"),
                         "-a", str(FIXTURES / "highlight.aspect"),
                         "-a", str(FIXTURES / "pretty.aspect"),
                         "-o", str(path)])
            assert code == 0
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]

    check(8, "weave command output is byte-identical across runs", body)
