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
from .errors import ConflictError, NotationError, WeaveFailure
from .grammar import GrammarTree
from .scan import Cursor


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
    cur = Cursor(text, source)
    grammar_annotation = None
    if cur.peek_char() in ("{", "."):
        grammar_annotation = annotation_at(cur)
    rules = []
    while True:
        cur.skip_ws()
        if cur.eof():
            break
        rules.append(_annotation_rule(cur))
    return Aspect(grammar_annotation, tuple(rules))


def _multiplicity(cur: Cursor) -> Optional[Multiplicity]:
    if not cur.accept("["):
        return None
    pos = cur.mark()
    lo = _int_or_inf(cur)
    if cur.accept(".."):
        hi = _int_or_inf(cur)
        if lo is None:
            raise cur.error("multiplicity lower bound must be an integer", pos)
    elif lo is None:
        lo, hi = 0, None  # bare [*]
    else:
        hi = lo  # [n] means exactly n
    cur.expect("]", "multiplicity")
    try:
        return Multiplicity(lo, hi)
    except ValueError as exc:
        raise cur.error(str(exc), pos)


def _int_or_inf(cur: Cursor) -> Optional[int]:
    # '*' reads as "no bound" and is returned as None
    if cur.accept("*"):
        return None
    n = cur.accept_int()
    if n is None:
        raise cur.error("expected an integer or '*'")
    return n


def _annotation_rule(cur: Cursor) -> AnnotationRule:
    cur.skip_ws()
    loc = cur.location()
    mult = _multiplicity(cur) or DEFAULT_MULTIPLICITY
    pattern = P.rule_pattern_at(cur)
    subrules = _subrules(cur, dict(pattern.var_kinds))
    if subrules:
        cur.accept(";")
    elif not cur.accept(";"):
        cur.skip_ws()
        if not cur.eof():
            raise cur.error("expected advice or ';' after rule pattern")
    return AnnotationRule(mult, pattern, subrules, loc)


def _subrules(cur: Cursor, kinds: dict) -> Tuple:
    items = []
    while True:
        if cur.accept("@"):
            items.append(_subpattern(cur, kinds))
            continue
        var = _at_variable_annotation(cur)
        if var is None:
            return tuple(items)
        ann = annotation_at(cur)
        cur.expect(";", "variable annotation")
        if var not in kinds:
            raise cur.error(f"variable '${var}' is not defined by an enclosing pattern")
        items.append(VariableAnnotation(var, ann))


def _at_variable_annotation(cur: Cursor) -> Optional[str]:
    """Accept '$NAME' if an annotation follows; else restore and return None.

    '$NAME=' starts the next rule's pattern, not advice, so only '{' and
    a '.' shorthand (never the '..' gap) count as annotation starts.
    """
    mark = cur.mark()
    if not cur.accept("$"):
        return None
    name = cur.accept_name()
    if name is not None:
        c = cur.peek_char()
        if c == "{" or (c == "." and cur.dot_run() != 2):
            return name
    cur.restore(mark)
    return None


def _subpattern(cur: Cursor, enclosing: dict) -> Subpattern:
    mult = _multiplicity(cur) or DEFAULT_MULTIPLICITY
    cur.skip_ws()
    start = cur.pos
    loc = cur.location(start)
    pattern = P.subpattern_at(cur)
    text = cur.text[start:cur.pos].strip()
    new_vars = P.collect_vars(pattern, defined=enclosing)
    kinds = {**enclosing, **new_vars}
    cur.expect(":", "subpattern")
    c = cur.peek_char()
    if c == "{" or c == ".":
        ann = annotation_at(cur)
        cur.expect(";", "subpattern advice")
        return Subpattern(mult, pattern, text, ann, (), kinds, loc)
    nested = _subrules(cur, dict(kinds))
    if nested:
        cur.accept(";")
    elif not cur.accept(";"):
        cur.skip_ws()
        if not cur.eof():
            raise cur.error("expected annotation, advice, or ';' in subpattern")
    return Subpattern(mult, pattern, text, None, nested, kinds, loc)


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
    prov = Provenance(ai, ri)
    for item in subrules:
        if isinstance(item, VariableAnnotation):
            for node in sorted(env.get(item.var, ()), key=lambda n: n.id):
                _buffer(pending, node.id, item.annotation, prov)
            continue
        matches = P.match_within(item.pattern, scope, item.kinds, env)
        if not item.multiplicity.allows(len(matches)):
            errors.append(WeaveError(ai, ri, item.text, item.multiplicity,
                                     len(matches), _spans(tree, matches), item.loc))
            continue
        for m in matches:
            if item.annotation is not None:
                _buffer(pending, m.node, item.annotation, prov)
            if item.subrules:
                _apply_subrules(item.subrules, tree.by_id[m.node], _env(tree, m),
                                pending, errors, tree, ai, ri)


def _buffer(pending, node_id, annotation, prov):
    # last write within a rule wins; the store arbitrates across rules
    for attr in annotation.attributes:
        pending[(node_id, attr.namespace, attr.name)] = (attr, prov)
