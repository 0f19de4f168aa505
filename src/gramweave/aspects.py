"""Aspect files and the weaving procedure.

An aspect bundles an optional grammar-level annotation with a list of
annotation rules.  Each rule pairs a rule pattern (the pointcut) with
advice: subpatterns that select nodes inside every matched rule, and
variable annotations that attach attributes to whatever a pattern
variable ended up bound to.

    # : 'class' IDENTIFIER ..
        @#lex: { group = keyword } ;
        @IDENTIFIER: { group = classDeclaration } ;

Rules and subpatterns may carry a multiplicity directive such as [0..1];
the default [1..*] makes a pattern that matches nothing an error, which
catches aspects gone stale after a grammar change.

Weaving applies aspects in order and fills an AnnotationStore, never
touching the grammar tree.  All multiplicity violations and attachment
conflicts are collected before the weave fails as a whole.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from . import patterns as P
from .annotations import Annotation, AnnotationStore, Provenance, annotation_at
from .errors import ConflictError, WeaveFailure
from .grammar import GrammarTree
from .scan import Lexed


@dataclass(frozen=True)
class Multiplicity:
    """How many matches a pattern may produce; max None means unbounded."""

    min: int = 1
    max: Optional[int] = None

    def __post_init__(self):
        if self.min < 0:
            raise ValueError("multiplicity lower bound must be non-negative")
        if self.max is not None and self.max < self.min:
            raise ValueError("multiplicity upper bound below lower bound")

    def allows(self, count: int) -> bool:
        return self.min <= count and (self.max is None or count <= self.max)

    def __str__(self) -> str:
        top = "*" if self.max is None else str(self.max)
        return f"[{self.min}..{top}]"


DEFAULT_MULTIPLICITY = Multiplicity(1, None)


@dataclass(frozen=True)
class VariableAnnotation:
    """Advice of the form ``$var { ... } ;`` or ``$var.name = value ;``."""

    var: str
    annotation: Annotation


@dataclass(frozen=True)
class Subpattern:
    """Advice of the form ``@ mult? pattern : body``.

    The body is either one annotation for every node the pattern matches,
    or a nested list of subpatterns and variable annotations.  kinds holds
    the variable scope (this pattern's and all enclosing ones) needed to
    match it.
    """

    multiplicity: Multiplicity
    pattern: object
    text: str
    annotation: Optional[Annotation]
    subrules: Tuple = ()
    kinds: dict = field(default_factory=dict, compare=False)
    loc: Tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class AnnotationRule:
    multiplicity: Multiplicity
    pattern: P.RulePattern
    subrules: Tuple = ()
    loc: Tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Aspect:
    grammar_annotation: Optional[Annotation]
    rules: Tuple[AnnotationRule, ...] = ()


@dataclass(frozen=True)
class WeaveError:
    """A pattern matched outside its multiplicity bounds."""

    aspect_index: int
    rule_index: int
    pattern_text: str
    expected: Multiplicity
    actual: int
    spans: Tuple[Tuple[int, int], ...] = ()
    loc: Tuple[int, int] = (0, 0)

    def __str__(self) -> str:
        where = f"aspect {self.aspect_index}, rule {self.rule_index}"
        msg = (f"{where}: pattern '{self.pattern_text}' "
               f"matched {self.actual}, expected {self.expected}")
        if self.spans:
            at = ", ".join(f"{s}..{e}" for s, e in self.spans)
            msg += f" (matches at {at})"
        return msg


# ---------------------------------------------------------------------------
# Parsing


def parse_aspect(text: str, source: str = "<aspect>") -> Aspect:
    src = Lexed(text, source)
    lx = src.lexemes
    grammar_annotation, i = None, 0
    if lx[0][0] in ("{", "."):
        grammar_annotation, i = annotation_at(src, 0)
    rules = []
    while lx[i][0] != "eof":
        rule, i = _annotation_rule(src, i)
        rules.append(rule)
    return Aspect(grammar_annotation, tuple(rules))


def _multiplicity(src: Lexed, i: int) -> tuple[Multiplicity, int]:
    lx = src.lexemes
    if lx[i][0] != "[":
        return DEFAULT_MULTIPLICITY, i
    pos = lx[i][3]
    lo, i = _int_or_inf(src, i + 1)
    kind, _, start, end = lx[i]
    if kind == "." and end - start >= 2:
        if end - start > 2:  # '..' then a dot where a bound belongs
            src.fail("expected an integer or '*'", start + 2)
        hi, i = _int_or_inf(src, i + 1)
        if lo is None:
            src.fail("multiplicity lower bound must be an integer", pos)
    elif lo is None:
        lo, hi = 0, None  # bare [*]
    else:
        hi = lo  # [n] means exactly n
    if lx[i][0] != "]":
        src.fail("expected ']' in multiplicity", lx[i][2])
    try:
        return Multiplicity(lo, hi), i + 1
    except ValueError as exc:
        src.fail(str(exc), pos)


def _int_or_inf(src: Lexed, i: int) -> tuple[Optional[int], int]:
    # '*' reads as "no bound" and is returned as None
    kind, value, start, _ = src.lexemes[i]
    if kind == "*":
        return None, i + 1
    if kind != "int":
        src.fail("expected an integer or '*'", start)
    return value, i + 1


def _annotation_rule(src: Lexed, i: int) -> tuple[AnnotationRule, int]:
    """Parse one rule and its advice from lexeme i.

    Subpatterns nest to any depth: open holds, for each enclosing
    subpattern that has nested advice, the advice items read around it,
    their variable scope, and what the subpattern needs once its own
    items are complete, so nesting costs no Python recursion.
    """
    lx = src.lexemes
    rule_loc = src.loc(lx[i][2])
    rule_mult, i = _multiplicity(src, i)
    pattern, i = P.rule_pattern_at(src, i)
    open_ = []
    items, kinds = [], dict(pattern.var_kinds)
    while True:
        kind, _, start, _ = lx[i]
        if kind == "@":
            mult, i = _multiplicity(src, i + 1)
            first = i
            sub, i = P.subpattern_at(src, i)
            # as in rule_pattern_at, an alternative's text runs to the next lexeme
            stop = lx[i - 1][3] if type(sub) is P.ProdsWildcard else lx[i][2]
            text = src.text[lx[first][2]:stop].strip()
            sub_kinds = {**kinds, **P.collect_vars_at(sub, kinds, src, first)}
            if lx[i][0] != ":":
                src.fail("expected ':' in subpattern", lx[i][2])
            head = (mult, sub, text, sub_kinds, src.loc(lx[first][2]))
            if lx[i + 1][0] in ("{", "."):
                ann, i = annotation_at(src, i + 1)
                if lx[i][0] != ";":
                    src.fail("expected ';' in subpattern advice", lx[i][2])
                items.append(_subpattern(head, ann, ()))
                i += 1
            else:
                open_.append((items, kinds, head))
                items, kinds, i = [], sub_kinds, i + 1
            continue
        var = P.advice_var(lx, i)
        if var is not None:
            ann, i = annotation_at(src, i + 2)
            if lx[i][0] != ";":
                src.fail("expected ';' in variable annotation", lx[i][2])
            i += 1
            if var not in kinds:
                src.fail(f"variable '${var}' is not defined by an enclosing pattern",
                         lx[i - 1][3])
            items.append(VariableAnnotation(var, ann))
            continue
        # this level's advice ends, at an optional ';'
        if kind == ";":
            i += 1
        elif not items and kind != "eof":
            src.fail("expected annotation, advice, or ';' in subpattern" if open_
                     else "expected advice or ';' after rule pattern", start)
        if not open_:
            return AnnotationRule(rule_mult, pattern, tuple(items), rule_loc), i
        nested = tuple(items)
        items, kinds, head = open_.pop()
        items.append(_subpattern(head, None, nested))


def _subpattern(head, annotation, nested) -> Subpattern:
    mult, pattern, text, kinds, loc = head
    return Subpattern(mult, pattern, text, annotation, nested, kinds, loc)


# ---------------------------------------------------------------------------
# Weaving


def weave(tree: GrammarTree, aspects) -> AnnotationStore:
    """Apply aspects in order; returns the filled store or raises WeaveFailure.

    Every rule's advice is buffered and committed as a unit: within one
    rule, later advice for the same (node, namespace, name) replaces
    earlier advice (a rule may first annotate broadly, then refine).
    Across rules and aspects, differing values are a conflict.
    """
    store = AnnotationStore.for_tree(tree)
    errors = []
    for ai, aspect in enumerate(aspects):
        if aspect.grammar_annotation is not None:
            try:
                store.attach(tree.root.id, aspect.grammar_annotation, Provenance(ai, None))
            except ConflictError as exc:
                errors.append(exc)
        for ri, rule in enumerate(aspect.rules):
            matches = P.match_rules(rule.pattern, tree)
            if not rule.multiplicity.allows(len(matches)):
                errors.append(WeaveError(ai, ri, rule.pattern.text, rule.multiplicity,
                                         len(matches), _spans(tree, matches), rule.loc))
                continue
            pending = {}
            before = len(errors)
            for m in matches:
                _apply_subrules(rule.subrules, tree.by_id[m.node], _env(tree, m),
                                pending, errors, tree, ai, ri)
            if len(errors) > before:
                continue  # don't commit advice from a rule that misfired
            for (node_id, _ns, _name), (attr, prov) in pending.items():
                try:
                    store.attach(node_id, Annotation((attr,)), prov)
                except ConflictError as exc:
                    errors.append(exc)
    if errors:
        raise WeaveFailure(errors)
    return store


def _env(tree: GrammarTree, m: P.MatchResult) -> dict:
    return {var: frozenset(tree.by_id[i] for i in ids)
            for var, ids in m.bindings.items()}


def _spans(tree: GrammarTree, matches) -> Tuple:
    return tuple(tree.by_id[m.node].span for m in matches)


def _apply_subrules(subrules, scope, env, pending, errors, tree, ai, ri):
    """Buffer the advice of subrules within one match, depth first: each
    match of a subpattern gets its annotation, then its nested advice,
    before the next match.  work holds what is still to do, last first, so
    subpatterns nest to any depth without Python recursion."""
    prov = Provenance(ai, ri)
    work = [(item, scope, env) for item in reversed(subrules)]
    while work:
        entry = work.pop()
        if len(entry) == 2:  # one match of a subpattern
            item, m = entry
            if item.annotation is not None:
                _buffer(pending, m.node, item.annotation, prov)
            if item.subrules:
                inner, inner_env = tree.by_id[m.node], _env(tree, m)
                work.extend((sub, inner, inner_env) for sub in reversed(item.subrules))
            continue
        item, scope, env = entry
        if isinstance(item, VariableAnnotation):
            for node in sorted(env.get(item.var, ()), key=lambda n: n.id):
                _buffer(pending, node.id, item.annotation, prov)
            continue
        matches = P.match_within(item.pattern, scope, item.kinds, env)
        if not item.multiplicity.allows(len(matches)):
            errors.append(WeaveError(ai, ri, item.text, item.multiplicity,
                                     len(matches), _spans(tree, matches), item.loc))
            continue
        work.extend((item, m) for m in reversed(matches))


def _buffer(pending, node_id, annotation, prov):
    # last write within a rule wins; the store arbitrates across rules
    for attr in annotation.attributes:
        pending[(node_id, attr.namespace, attr.name)] = (attr, prov)
