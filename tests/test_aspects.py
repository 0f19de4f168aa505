import random
import re
from pathlib import Path

import pytest

from gramweave import (ConflictError, DEFAULT_MULTIPLICITY, Multiplicity,
                       NameValue, NotationError, WeaveError, WeaveFailure,
                       match_rules, parse_aspect, parse_rule_pattern,
                       parse_subpattern, serialize_store, weave)
from gramweave.aspects import Aspect, Subpattern, VariableAnnotation
from gramweave.patterns import RulePattern
from support import (FIXTURES, fixture, random_rule_pattern_text,
                     reference_parse_aspect, reference_parse_rule_pattern,
                     reference_parse_subpattern)

BENCH = Path(__file__).resolve().parents[1] / "bench"


def weave_errors(tree, aspects):
    with pytest.raises(WeaveFailure) as exc:
        weave(tree, aspects)
    return exc.value.errors


class TestParseAspect:
    def test_highlight_aspect_shape(self, highlight_aspect):
        assert highlight_aspect.grammar_annotation is None
        assert len(highlight_aspect.rules) == 3
        for rule in highlight_aspect.rules:
            assert rule.multiplicity == DEFAULT_MULTIPLICITY
            assert len(rule.subrules) == 2
            for sub in rule.subrules:
                assert isinstance(sub, Subpattern)
                assert sub.annotation is not None and sub.subrules == ()

    def test_pretty_aspect_shape(self, pretty_aspect):
        ga = pretty_aspect.grammar_annotation
        assert ga is not None
        assert {a.name for a in ga.attributes} == {"defaultAfter", "defaultBefore"}
        assert len(pretty_aspect.rules) == 2
        assert len(pretty_aspect.rules[0].subrules) == 3
        assert len(pretty_aspect.rules[1].subrules) == 2

    def test_explicit_multiplicity(self):
        aspect = parse_aspect("[0..1] # : $tr=# (.. $tr)* ;")
        (rule,) = aspect.rules
        assert rule.multiplicity == Multiplicity(0, 1)
        assert rule.pattern.text == "# : $tr=# (.. $tr)*"

    @pytest.mark.parametrize("text, expected", [
        ("[3] # : .. ;", Multiplicity(3, 3)),
        ("[*] # : .. ;", Multiplicity(0, None)),
        ("[2..*] # : .. ;", Multiplicity(2, None)),
        ("[0..1] # : .. ;", Multiplicity(0, 1)),
    ])
    def test_multiplicity_readings(self, text, expected):
        assert parse_aspect(text).rules[0].multiplicity == expected

    def test_variable_annotation(self):
        aspect = parse_aspect("expr : .. @$tr=(term): $tr.varName = t ; ;")
        (rule,) = aspect.rules
        (sub,) = rule.subrules
        (va,) = sub.subrules
        assert isinstance(va, VariableAnnotation)
        assert va.var == "tr"
        assert va.annotation.get("varName") == NameValue("t")

    def test_empty_aspect(self):
        aspect = parse_aspect("")
        assert aspect.grammar_annotation is None and aspect.rules == ()

    def test_trailing_semicolon_optional_at_eof(self):
        assert len(parse_aspect("# : ..").rules) == 1

    def test_rule_location_recorded(self):
        aspect = parse_aspect("// intro\n  [0..1] # : .. ;")
        assert aspect.rules[0].loc == (2, 3)

    @pytest.mark.parametrize("text", [
        "[*..2] # : .. ;",            # '*' as lower bound
        "[2..1] # : .. ;",            # inverted bounds
        "# : .. @#lex { a = 1 } ;",   # missing ':' before advice
        "# : .. $ghost { a = 1 } ;",  # undefined variable
    ])
    def test_rejects(self, text):
        with pytest.raises(NotationError):
            parse_aspect(text)

    @pytest.mark.parametrize("text, message", [
        ("[²] s : {...} ;", "my.aspect:1:2: expected an integer or '*'"),
        ("[١] s : {...} ;", "my.aspect:1:2: expected an integer or '*'"),
        ("s : {...} @#: { a = ² } ;", "my.aspect:1:21: expected a value"),
    ])
    def test_integers_are_ascii_digits(self, text, message):
        # ² and ١ are digits to str.isdigit, but not integers of the notation
        with pytest.raises(NotationError) as exc:
            parse_aspect(text, "my.aspect")
        assert str(exc.value) == message

    @pytest.mark.parametrize("text, message", [
        ("s : $x ;", "1:5: variable '$x' is not defined before use"),
        ("# : $a=# $a=# ;", "1:10: variable '$a' is already defined"),
        ("# : $x=# ..\n  @$x=#lex: { a } ;", "2:4: variable '$x' is already defined"),
        ("# : ..\n  @(.. $q)* $q=#: { a } ;", "2:8: variable '$q' is not defined before use"),
        ("# : ..\n  @#lex: { a = 1; a = 2 } ;", "2:19: duplicate attribute 'a' in annotation"),
        ("{ b; c = { d; d } } # : .. ;", "1:15: duplicate attribute 'd' in annotation"),
    ])
    def test_scope_and_duplicate_errors_are_placed(self, text, message):
        with pytest.raises(NotationError) as exc:
            parse_aspect(text, "my.aspect")
        assert str(exc.value) == "my.aspect:" + message


class TestCheckMultiplicity:
    @pytest.mark.parametrize("count, mult, ok", [
        (2, Multiplicity(0, 1), False),
        (1, DEFAULT_MULTIPLICITY, True),
        (0, DEFAULT_MULTIPLICITY, False),
        (0, Multiplicity(0, None), True),
        (3, Multiplicity(3, 3), True),
        (4, Multiplicity(3, 3), False),
    ])
    def test_table(self, count, mult, ok):
        assert mult.allows(count) is ok

    @pytest.mark.parametrize("mult, text", [
        (DEFAULT_MULTIPLICITY, "[1..*]"),
        (Multiplicity(0, 1), "[0..1]"),
        (Multiplicity(3, 3), "[3..3]"),
    ])
    def test_str(self, mult, text):
        assert str(mult) == text


class TestWeave:
    def test_multiplicity_violation(self, arith):
        errors = weave_errors(arith, [parse_aspect("[0..1] # : $tr=# (.. $tr)* ;")])
        (err,) = errors
        assert isinstance(err, WeaveError)
        assert err.actual == 2
        assert err.expected == Multiplicity(0, 1)
        assert err.pattern_text == "# : $tr=# (.. $tr)*"
        assert "matched 2, expected [0..1]" in str(err)
        # the two offending rules are expr and term
        assert len(err.spans) == 2

    def test_same_pattern_default_multiplicity_succeeds(self, arith):
        store = weave(arith, [parse_aspect("# : $tr=# (.. $tr)* ;")])
        assert len(store) == 0

    def test_highlight_attachments(self, java5, highlight_store):
        seen = set()
        for nid in highlight_store.annotated_nodes():
            node = java5.by_id[nid]
            group = highlight_store.lookup(nid, "group")
            seen.add((node.kind, node.detail, group.name))
        assert seen == {
            ("literal", "class", "keyword"),
            ("literal", "extends", "keyword"),
            ("literal", "implements", "keyword"),
            ("literal", "super", "keyword"),
            ("literal", "?", "typeParameterDeclaration"),
            ("symbol_ref", "IDENTIFIER", "classDeclaration"),
            ("symbol_ref", "IDENTIFIER", "typeParameterDeclaration"),
        }
        assert len(highlight_store) == 9

    def test_variable_advice_attaches_to_all_bound(self, arith):
        store = weave(arith, [parse_aspect("expr : .. @$tr=(term): $tr.varName = t ; ;")])
        annotated = list(store.annotated_nodes())
        assert len(annotated) == 2
        for nid in annotated:
            node = arith.by_id[nid]
            assert node.kind == "symbol_ref" and node.detail == "term"
            assert store.lookup(nid, "varName") == NameValue("t")

    def test_empty_aspect_weaves_empty_store(self, arith):
        store = weave(arith, [parse_aspect("")])
        assert len(store) == 0
        assert store.grammar_annotation is None

    def test_stale_pattern_guard(self, arith):
        errors = weave_errors(arith, [parse_aspect("nosuch : {...} ;")])
        (err,) = errors
        assert err.actual == 0 and err.expected == DEFAULT_MULTIPLICITY

    def test_stale_pattern_escape_hatch(self, arith):
        store = weave(arith, [parse_aspect("[*] nosuch : {...} ;")])
        assert len(store) == 0

    def test_subpattern_multiplicity_checked_per_match(self, arith):
        # expr and term each hold four symbol references, factor only two
        store = weave(arith, [parse_aspect("# : {...} @[2..4] #: { group = x } ; ;")])
        assert len(store) == 10

        errors = weave_errors(arith, [parse_aspect("# : {...} @[4] #: { tagged } ; ;")])
        (err,) = errors
        assert err.actual == 2 and err.expected == Multiplicity(4, 4)
        assert err.pattern_text == "#"

    def test_misfiring_rule_commits_nothing(self, arith):
        # rule 0 buffers group=bad on INT before its second subpattern
        # misfires; that buffered advice must be rolled back, or rule 1
        # would report a bogus conflict on the same attribute
        aspect = parse_aspect(
            "factor : {...} @INT: { group = bad } ; @[5] #: { tagged } ; ;\n"
            "factor : {...} @INT: { group = num } ; ;")
        errors = weave_errors(arith, [aspect])
        (err,) = errors
        assert isinstance(err, WeaveError)
        assert err.rule_index == 0 and err.actual == 2

    def test_cross_aspect_conflict(self, java5):
        a = parse_aspect("typeArgument : {...} @'?': { group = keyword } ; ;")
        b = parse_aspect("typeArgument : {...} @'?': { group = other } ; ;")
        errors = weave_errors(java5, [a, b])
        (err,) = errors
        assert isinstance(err, ConflictError)
        assert err.name == "group"
        assert err.existing_prov.aspect == 0 and err.new_prov.aspect == 1

    def test_cross_aspect_idempotent_advice(self, java5):
        a = parse_aspect("typeArgument : {...} @'?': { group = keyword } ; ;")
        store = weave(java5, [a, a])
        assert len(store) == 1

    def test_order_independence_when_compatible(self, java5, highlight_aspect,
                                                pretty_aspect):
        ab = weave(java5, [highlight_aspect, pretty_aspect])
        ba = weave(java5, [pretty_aspect, highlight_aspect])
        assert ab == ba

    def test_deterministic_serialization(self, java5, highlight_aspect):
        one = serialize_store(weave(java5, [highlight_aspect]))
        two = serialize_store(weave(java5, [highlight_aspect]))
        assert one == two

    def test_grammar_annotation_attached_to_root(self, java5, pretty_store):
        ga = pretty_store.grammar_annotation
        assert ga is not None
        assert pretty_store.lookup(java5.root.id, "defaultBefore") is not None

    def test_collects_all_errors_before_failing(self, arith):
        aspect = parse_aspect("ghost : {...} ;\nphantom : {...} ;")
        errors = weave_errors(arith, [aspect])
        assert [(e.aspect_index, e.rule_index) for e in errors] == [(0, 0), (0, 1)]


class TestRobustnessRegression:
    def test_first_rule_matches_both_grammar_versions(self, java5, java14,
                                                      highlight_aspect):
        pattern = highlight_aspect.rules[0].pattern
        five = match_rules(pattern, java5)
        fourteen = match_rules(pattern, java14)
        assert [java5.by_id[m.node].detail for m in five] == ["normalClassDeclaration"]
        assert [java14.by_id[m.node].detail for m in fourteen] == ["classDeclaration"]


def notation_outcome(parse, text, source):
    """A parse's value, or its NotationError as (message, source, line, col)."""
    try:
        return parse(text, source)
    except NotationError as exc:
        return (exc.message, exc.source, exc.line, exc.col)


# the errors the reference raises without the text's source: variable scope
# (no position either) and duplicate attributes
_UNPLACED = re.compile(r"variable '\$\w+' is (not defined before use|already defined)$"
                       r"|duplicate attribute '[\w:]+' in annotation$")


def assert_same_outcome(parse, reference, text, source="x.aspect"):
    got = notation_outcome(parse, text, source)
    want = notation_outcome(reference, text, source)
    if isinstance(want, tuple) and want[1] == "<string>" and _UNPLACED.match(want[0]):
        # the one difference allowed: the package places the error
        assert isinstance(got, tuple) and got[:2] == (want[0], source), (text, got, want)
        if want[2]:
            assert got[2:] == want[2:], (text, got, want)
        else:
            # the offending variable's '$'
            offset = sum(len(line) + 1 for line in text.split("\n")[:got[2] - 1])
            name = want[0].split("'")[1][1:]
            assert re.match(r"\$\s*" + name, text[offset + got[3] - 1:]), (text, got)
    else:
        assert got == want, (text, got, want)
    return got


class TestNotationOracle:
    """The lexeme parsers against the character-level reference parsers."""

    ASPECTS = [FIXTURES / "highlight.aspect", FIXTURES / "pretty.aspect",
               BENCH / "weave.aspect", BENCH / "arith.aspect"]

    @pytest.mark.parametrize("path", ASPECTS, ids=lambda p: p.name)
    def test_aspect_files(self, path):
        text = path.read_text(encoding="utf-8")
        got = assert_same_outcome(parse_aspect, reference_parse_aspect, text, path.name)
        assert isinstance(got, Aspect) and got.rules

    def test_random_rule_patterns(self):
        rng = random.Random(60613)
        parsed = 0
        for _ in range(200):
            text = random_rule_pattern_text(rng)
            got = assert_same_outcome(parse_rule_pattern, reference_parse_rule_pattern, text)
            parsed += isinstance(got, RulePattern)
            body = text.split(":", 1)[1]
            assert_same_outcome(parse_subpattern, reference_parse_subpattern, body)
        assert parsed >= 150

    @pytest.mark.parametrize("name", ["highlight.aspect", "pretty.aspect"])
    def test_mutated_aspects(self, name):
        text = fixture(name)
        rng = random.Random(name)
        alphabet = "{}[].#$@:;=|'\\²é/0123456789"
        outcomes = set()
        for _ in range(300):
            chars = list(text)
            for _ in range(rng.randint(1, 3)):
                at = rng.randrange(len(chars) + 1)
                roll = rng.random()
                if roll < 0.4 or at == len(chars):
                    chars.insert(at, rng.choice(alphabet))
                elif roll < 0.7:
                    chars[at] = rng.choice(alphabet)
                else:
                    del chars[at]
            got = assert_same_outcome(parse_aspect, reference_parse_aspect, "".join(chars))
            outcomes.add(isinstance(got, Aspect))
        assert outcomes == {True, False}
