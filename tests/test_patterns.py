import random
import re

import pytest

from gramweave import (NotationError, match_rules, match_within, parse_grammar,
                       parse_rule_pattern, parse_subpattern)
from gramweave import patterns
from gramweave.patterns import (AnySym, Bind, IterPat, Named, ProdsWildcard,
                                RulePattern, VarRef, collect_vars)
from bruteforce import brute_force_match, brute_force_within
from support import (gap_sequence_text, long_grammar_text, random_grammar,
                     random_rule_pattern_text, random_subpattern_text,
                     results_as_sets)


def matched_rules(tree, results):
    return {tree.by_id[r.node].detail for r in results}


class TestParse:
    def test_named_with_productions_wildcard(self):
        pat = parse_rule_pattern("expr : {...}")
        assert isinstance(pat.symbol, Named) and pat.symbol.name == "expr"
        assert isinstance(pat.productions[0], ProdsWildcard)

    def test_variable_pattern(self):
        pat = parse_rule_pattern("# : $tr=# ((PLUS | MINUS) $tr)*")
        assert isinstance(pat.symbol, AnySym)
        (prod,) = pat.productions
        first, second = prod.body.items
        assert isinstance(first, Bind) and first.name == "tr"
        assert isinstance(first.inner, AnySym)
        assert isinstance(second, IterPat)
        assert pat.var_kinds == {"tr": "symbol"}

    def test_rest_wildcard_only_inside_alternatives(self):
        with pytest.raises(NotationError):
            parse_rule_pattern("# : ... extra")

    def test_duplicate_var_def(self):
        with pytest.raises(NotationError):
            parse_rule_pattern("# : $a=# $a=#")

    def test_ref_before_def(self):
        with pytest.raises(NotationError):
            parse_rule_pattern("# : $a (.. $a=#)")

    def test_trailing_semicolon_allowed(self):
        pat = parse_rule_pattern("expr : {...} ;")
        assert isinstance(pat.productions[0], ProdsWildcard)

    def test_subpattern_forms(self):
        assert parse_subpattern("#lex") is not None
        assert parse_subpattern("'?'") is not None
        assert parse_subpattern(": IDENTIFIER ..") is not None


class TestMatchRules:
    @pytest.mark.parametrize("text, expected", [
        ("expr : {...}", {"expr"}),
        ("# : term ..", {"expr"}),
        ("# : # (..)*", {"expr", "term"}),
        ("expr : term ((PLUS | MINUS) term)*;", {"expr"}),
        ("# : {...}", {"expr", "term", "factor"}),
        ("# : INT | ..", {"factor"}),
    ])
    def test_arith_examples(self, arith, text, expected):
        assert matched_rules(arith, match_rules(parse_rule_pattern(text), arith)) == expected

    def test_variable_binding(self, arith):
        results = match_rules(parse_rule_pattern("# : $tr=# ((PLUS | MINUS) $tr)*"), arith)
        assert matched_rules(arith, results) == {"expr"}
        (m,) = results
        bound = m.bindings["tr"]
        assert len(bound) == 2
        for nid in bound:
            node = arith.by_id[nid]
            assert node.kind == "symbol_ref" and node.detail == "term"

    def test_no_match_is_empty_not_error(self, arith):
        assert match_rules(parse_rule_pattern("nosuch : {...}"), arith) == []

    def test_results_ordered_and_stable(self, arith):
        pat = parse_rule_pattern("# : {...}")
        first = match_rules(pat, arith)
        second = match_rules(pat, arith)
        assert [m.node for m in first] == sorted(m.node for m in first)
        assert results_as_sets(first) == results_as_sets(second)


class TestMatchWithin:
    def test_lex_wildcard_in_class_rule(self, java5):
        scope = java5.rule_index["normalClassDeclaration"]
        results = match_within(parse_subpattern("#lex"), scope)
        texts = sorted(java5.by_id[r.node].detail for r in results)
        assert texts == ["class", "extends", "implements"]

    def test_terminal_ref(self, java5):
        scope = java5.rule_index["normalClassDeclaration"]
        results = match_within(parse_subpattern("IDENTIFIER"), scope)
        assert len(results) == 1
        node = java5.by_id[results[0].node]
        assert node.kind == "symbol_ref" and node.detail == "IDENTIFIER"

    def test_literal_pattern(self, java5):
        scope = java5.rule_index["typeArgument"]
        results = match_within(parse_subpattern("'?'"), scope)
        assert len(results) == 1
        assert java5.by_id[results[0].node].detail == "?"

    def test_scope_itself_excluded(self, arith):
        scope = arith.rule_index["expr"]
        results = match_within(parse_subpattern("#"), scope)
        assert scope.id not in {r.node for r in results}


class TestProperties:
    def test_citation_property(self, arith, java5):
        for tree in (arith, java5):
            for name, sd in tree.rule_index.items():
                text = tree.source[sd.span[0]:sd.span[1]]
                results = match_rules(parse_rule_pattern(text), tree)
                assert name in matched_rules(tree, results), text

    # replacing a concrete element with its wildcard must not shrink the set
    @pytest.mark.parametrize("concrete, wildcard", [
        ("expr : {...}", "# : {...}"),
        ("# : term ..", "# : # .."),
        ("factor : INT | ..", "factor : # | .."),
        ("factor : INT | ..", "factor : {...}"),
        ("term : factor ((MULT | DIV) factor)*", "term : factor (..)*"),
        ("term : factor ((MULT | DIV) factor)*", "# : # (..)*"),
    ])
    def test_wildcard_monotonicity(self, arith, concrete, wildcard):
        small = {m.node for m in match_rules(parse_rule_pattern(concrete), arith)}
        large = {m.node for m in match_rules(parse_rule_pattern(wildcard), arith)}
        assert small <= large
        assert small

    def test_variable_consistency(self, arith, java5):
        pats = ["# : $tr=# ((PLUS | MINUS) $tr)*", "# : $a=# ..", "# : .. $x=#lex .."]
        for tree in (arith, java5):
            for text in pats:
                pat = parse_rule_pattern(text)
                for m in match_rules(pat, tree):
                    for var, ids in m.bindings.items():
                        assert ids
                        nodes = [tree.by_id[i] for i in ids]
                        if pat.var_kinds[var] == "symbol":
                            assert len({n.detail for n in nodes}) == 1


class TestBruteForceOracle:
    @pytest.mark.parametrize("text", [
        "expr : {...}",
        "# : term ..",
        "# : # (..)*",
        "# : $tr=# ((PLUS | MINUS) $tr)*",
        "expr : term ((PLUS | MINUS) term)*",
        "# : INT | ..",
        "# : .. '(' .. ')' ..",
    ])
    def test_examples_agree(self, arith, text):
        pat = parse_rule_pattern(text)
        assert results_as_sets(match_rules(pat, arith)) == \
            results_as_sets(brute_force_match(pat, arith))

    def test_empty_grammar(self):
        tree = parse_grammar("")
        pat = parse_rule_pattern("# : {...}")
        assert match_rules(pat, tree) == []
        assert brute_force_match(pat, tree) == []

    def test_within_agrees(self, java5):
        for rule in ("normalClassDeclaration", "typeParameter", "typeArgument"):
            scope = java5.rule_index[rule]
            for text in ("#lex", "#", "'?'", ": IDENTIFIER .."):
                pat = parse_subpattern(text)
                assert results_as_sets(match_within(pat, scope)) == \
                    results_as_sets(brute_force_within(pat, scope))

    def test_randomized_sample(self):
        rng = random.Random(20240817)
        agreed = 0
        for _ in range(60):
            tree = random_grammar(rng)
            try:
                pat = parse_rule_pattern(random_rule_pattern_text(rng))
            except NotationError:
                continue
            assert results_as_sets(match_rules(pat, tree)) == \
                results_as_sets(brute_force_match(pat, tree))
            agreed += 1
        assert agreed >= 40

    # outer rule patterns that match often and bind several variables
    BINDING = ["# : $a=# ..", "# : .. $x=#lex ..", "$r=# : $p=..",
               "# : $s=.. $t=# $u=..", "# : $a=(..)* ..", "# : .. ($x=#lex | $r=...) .."]

    def test_nested_scopes_agree(self):
        # subpatterns matched within an outer match, under its variable
        # kinds and bindings, as the weaver nests them; grammars and random
        # patterns nest groups four deep
        rng = random.Random(19920)
        deep = scopes = matched = referenced = rests = 0
        for _ in range(600):
            tree = random_grammar(rng, max_nodes=80, max_depth=4)
            text = rng.choice(self.BINDING + [None])
            try:
                pat = parse_rule_pattern(text or random_rule_pattern_text(rng, max_depth=4))
            except NotationError:
                continue
            got = match_rules(pat, tree)
            assert results_as_sets(got) == results_as_sets(brute_force_match(pat, tree))
            deep += text is None
            rests += sum("r" in m.bindings for m in got if "..." in (text or ""))
            for m in [m for m in got for _ in range(3)]:
                text = random_subpattern_text(rng, pat.var_kinds, max_depth=4)
                try:
                    sub = parse_subpattern(text)
                    kinds = {**pat.var_kinds, **collect_vars(sub, pat.var_kinds)}
                except NotationError:
                    continue
                env = {v: frozenset(tree.by_id[i] for i in ids)
                       for v, ids in m.bindings.items()}
                scope = tree.by_id[m.node]
                within = match_within(sub, scope, kinds, env)
                assert results_as_sets(within) == \
                    results_as_sets(brute_force_within(sub, scope, kinds, env)), text
                scopes += 1
                matched += bool(within)
                referenced += bool(within and set(re.findall(r"\$(\w+)", text)) & set(env))
        assert deep >= 60 and scopes >= 1200 and matched >= 150 and referenced >= 25
        assert rests >= 10


class TestGate:
    """Gates reject nodes before matching; results still equal brute force."""

    def test_long_productions_and_gaps(self):
        rng = random.Random(1971)
        rules = nodes = 0
        for _ in range(30):
            tree = parse_grammar(long_grammar_text(rng))
            seq = gap_sequence_text(rng, tree, rng.randint(2, 4))
            symbol = rng.choice(["#", "#", "alpha", "omega"])
            pat = parse_rule_pattern(f"{symbol} : {seq}")
            got = match_rules(pat, tree)
            assert results_as_sets(got) == \
                results_as_sets(brute_force_match(pat, tree))
            rules += len(got)
            for text in (seq, f": {seq}", f"{seq} | ..."):
                sub = parse_subpattern(text)
                for rule in tree.root.children:
                    got = match_within(sub, rule)
                    assert results_as_sets(got) == \
                        results_as_sets(brute_force_within(sub, rule))
                    nodes += len(got)
        assert rules >= 5 and nodes >= 50

    def test_failing_gap_pattern_never_runs_the_matcher(self, monkeypatch):
        # each rule has 40 items: without the gate on 'z', the matcher
        # explores every split of the four gaps, about a second in all
        items = " ".join(["A", "b", "'y'", "A"] * 10)
        tree = parse_grammar("b : B ;\n" + "\n".join(
            f"r{i} : {items} ;" for i in range(20)))
        calls = []
        search = patterns._search

        def counted(*args):
            calls.append(args)
            return search(*args)

        monkeypatch.setattr(patterns, "_search", counted)
        pat = parse_rule_pattern("# : .. A .. A .. A .. A .. 'z'")
        assert match_rules(pat, tree) == []
        sub = parse_subpattern(": .. A .. A .. A .. A .. 'z'")
        assert all(match_within(sub, rule) == [] for rule in tree.root.children)
        assert calls == []
        assert len(match_rules(parse_rule_pattern("# : .. A .. A .. 'y' .."),
                               tree)) == 20
        assert calls
