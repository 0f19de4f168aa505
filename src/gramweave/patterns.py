"""Patterns: pointcut expressions matched against grammar trees.

A rule pattern selects whole rules; its shape mirrors the grammar
notation with wildcards mixed in:

    expr : {...}                      // the rule for expr, any productions
    # : term ..                       // any rule whose production starts
                                      // with a reference to term
    # : $tr=# ((PLUS | MINUS) $tr)*   // variables: $tr=# defines, $tr reuses

Wildcards: '#' any symbol reference, '#lex' any literal, '..' any run of
sequence elements (possibly empty), '...' the remaining alternative
branches (at least one), '{...}' any non-empty set of productions.
Quoted literals, '#empty', iteration suffixes, groups, and '|' all keep
their grammar meaning.  '//' starts a line comment.  Pattern text is read
from the lexemes of scan.lex, with an explicit stack of the groups still
open, so a pattern may nest to any depth; matching still recurses once per
nesting level.

A variable is defined once with '$name=' and may be reused later as
'$name'.  A variable over a symbol pattern ('#' or a name) accepts only
references to one common symbol across all its occurrences; any other
variable accepts structurally equal nodes across occurrences (a single
set-valued occurrence, such as '$v=..', binds its run without any
within-run constraint).

Matching yields one MatchResult per matched node, carrying the bindings
of the first alignment in a deterministic exploration order: choices are
tried left to right and '..' prefers the shortest absorption.  The set
of matched nodes does not depend on that preference, only the reported
bindings do.

Each pattern gets a gate, computed once per match_rules/match_within
call, that rejects a node before any generator is made: the node kinds
the pattern can match, the length of the run it spans, and the literals
and names its sequence, production or alternative items spell out, which
the run's direct children must hold.  A rule pattern with a named symbol
reads that rule from the tree's rule_index instead of scanning every
rule.  Gates are necessary conditions only, so they change neither the
matched nodes nor their bindings.  A pattern whose literals are all
present still explores every gap split on failure (O(L^k) for k gaps).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from . import grammar as g
from .errors import NotationError
from .scan import Lexed

SYMBOL_VAR = "symbol"
STRUCT_VAR = "struct"


# -- pattern AST -------------------------------------------------------------

@dataclass(frozen=True)
class AnySym:
    """'#': any symbol reference (and, at rule level, any rule)."""


@dataclass(frozen=True)
class Named:
    name: str


@dataclass(frozen=True)
class LitPat:
    text: str


@dataclass(frozen=True)
class AnyLex:
    """'#lex': any literal."""


@dataclass(frozen=True)
class EmptyPat:
    """'#empty'."""


@dataclass(frozen=True)
class Gap:
    """'..': any run of sequence elements; standalone, any node."""


@dataclass(frozen=True)
class VarRef:
    name: str


@dataclass(frozen=True)
class Bind:
    """'$name=' wrapping the pattern the variable is defined over."""

    name: str
    inner: object


@dataclass(frozen=True)
class IterPat:
    inner: object
    kind: str  # star, plus, opt


@dataclass(frozen=True)
class SeqPat:
    items: tuple


@dataclass(frozen=True)
class RestPat:
    """'...': trailing alternative-branches wildcard, optionally bound."""

    var: str | None


@dataclass(frozen=True)
class AltPat:
    members: tuple
    rest: RestPat | None


@dataclass(frozen=True)
class ProdPat:
    """':' production pattern; var binds the matched Production node."""

    var: str | None
    body: object


@dataclass(frozen=True)
class ProdsWildcard:
    """':' '{...}'; var binds the whole set of Production nodes."""

    var: str | None


@dataclass(frozen=True)
class RulePattern:
    var: str | None
    symbol: object  # AnySym | Named
    productions: tuple
    text: str
    var_kinds: dict = field(compare=False)


@dataclass(frozen=True)
class MatchResult:
    node: int
    bindings: dict  # var name -> frozenset of NodeId; empty sets omitted


# -- parsing -----------------------------------------------------------------

def parse_rule_pattern(text: str, source: str = "<pattern>") -> RulePattern:
    src = Lexed(text, source)
    pat, i = rule_pattern_at(src, 0)
    i += src.lexemes[i][0] == ";"
    _expect_end(src, i)
    return pat


def parse_subpattern(text: str, source: str = "<pattern>"):
    src = Lexed(text, source)
    pat, i = subpattern_at(src, 0)
    _expect_end(src, i)
    return pat


def _expect_end(src: Lexed, i: int) -> None:
    kind, _, start, _ = src.lexemes[i]
    if kind != "eof":
        src.fail("unexpected text after pattern", start)


def _var_at(lx: list, i: int) -> tuple[str | None, int]:
    """'$name=' at lexeme i: the name and the index after it, else (None, i)."""
    if lx[i][0] == "$" and lx[i + 1][0] == "name" and lx[i + 2][0] == "=":
        return lx[i + 1][1], i + 3
    return None, i


def rule_pattern_at(src: Lexed, i: int) -> tuple[RulePattern, int]:
    """Parse 'var? symbolPattern productionPattern*' from lexeme i; return it
    and the index of the lexeme after it.

    Does not consume a trailing ';' so that embedding notations (aspect
    files) can decide what the terminator means.
    """
    lx, first = src.lexemes, i
    var, j = _var_at(lx, i)
    kind, name, pos, _ = lx[j]
    if kind != "#" and kind != "name":
        src.fail("expected a rule name or '#'", pos)
    symbol = AnySym() if kind == "#" else Named(name)
    i = j + 1
    productions = []
    while True:
        pvar, j = _var_at(lx, i)
        if lx[j][0] != ":":
            break
        prod, i = _production_at(src, j + 1, pvar)
        productions.append(prod)
    if len(productions) > 1 and any(type(p) is ProdsWildcard for p in productions):
        src.fail("'{...}' must be the only production pattern", lx[first][2])
    # the text runs to the next lexeme after an alternative, else to the
    # last lexeme's end
    stop = lx[i][2] if productions and type(productions[-1]) is ProdPat else lx[i - 1][3]
    pat = RulePattern(var, symbol, tuple(productions), src.text[lx[first][2]:stop].strip(), {})
    pat.var_kinds.update(collect_vars_at(pat, {}, src, first))
    return pat, i


def subpattern_at(src: Lexed, i: int):
    """Parse a subpattern body from lexeme i: a production pattern or an
    alternative pattern (the two shapes allowed under '@' in aspect
    files); return it and the index of the lexeme after it."""
    var, j = _var_at(src.lexemes, i)
    if src.lexemes[j][0] != ":":
        return _alternative_at(src, i)
    return _production_at(src, j + 1, var)


def _production_at(src: Lexed, i: int, lead_var: str | None):
    # after the ':': either 'var? {...}' or an alternative pattern
    lx = src.lexemes
    var, j = _var_at(lx, i)
    if lx[j][0] == "{" and _is_dots(lx[j + 1], 3) and lx[j + 2][0] == "}":
        if lead_var is not None:
            src.fail("a variable before ':' cannot apply to '{...}'", lx[i - 1][3])
        return ProdsWildcard(var), j + 3
    body, i = _alternative_at(src, i)
    return ProdPat(lead_var, body), i


def _is_dots(lexeme: tuple, count: int) -> bool:
    return lexeme[0] == "." and lexeme[3] - lexeme[2] == count


_ITEM_START = {"name", "str", "(", "#", "#lex", "#empty"}


def advice_var(lx: list, i: int) -> str | None:
    """The variable of '$name{' or '$name.attr' at lexeme i: advice of the
    enclosing aspect notation, which ends a pattern ('$name ..' stays a
    reference followed by a gap, and '$name=' starts a pattern)."""
    if lx[i][0] == "$" and lx[i + 1][0] == "name" and (lx[i + 2][0] == "{" or (
            lx[i + 2][0] == "." and not _is_dots(lx[i + 2], 2))):
        return lx[i + 1][1]
    return None


def _starts_item(lx: list, i: int) -> bool:
    """Whether lexeme i continues a sequence pattern."""
    kind, value = lx[i][:2]
    if kind == "$":
        return lx[i + 1][0] == "name" and advice_var(lx, i) is None
    if kind == ".":
        return _is_dots(lx[i], 2)
    return kind in _ITEM_START or kind == "bad" and (value == "'" or value.isalpha())


def _alternative_at(src: Lexed, i: int):
    """Parse an alternative pattern from lexeme i; return it and the index
    of the lexeme after it.

    An explicit stack holds the groups that parentheses opened, with the
    variable defined over each, so nesting depth costs no Python
    recursion.  One-element sequences and alternatives collapse.
    """
    lx, fail = src.lexemes, src.fail
    outer = []  # enclosing groups: (members, items, rest, variable)
    members, items, rest = [], [], None
    while True:
        var, j = _var_at(lx, i)
        kind, value, start, end = lx[j]
        i = j + 1
        if kind == "(":
            outer.append((members, items, rest, var))
            members, items, rest = [], [], None
            continue
        if kind == "$":
            kind, value, start, _ = lx[i]
            if kind != "name":
                fail("expected variable name", start)
            atom, i = VarRef(value), i + 1
        elif kind == "str":
            if not value:
                fail("empty literal pattern", end)
            atom = LitPat(value)
        elif kind == "name":
            atom = Named(value)
        elif kind in _WILDCARDS and (kind != "." or end - start == 2):
            atom = _WILDCARDS[kind]
        elif kind == "bad" and value == "'":
            src.bad_string(start)
        else:
            fail("expected a pattern element", start)
        while True:  # the atom is complete; close every group that ends here
            kind = lx[i][0]
            if kind in g.SUFFIX_KIND:
                atom = IterPat(atom, g.SUFFIX_KIND[kind])
                i += 1
            items.append(atom if var is None else Bind(var, atom))
            if _starts_item(lx, i):
                break
            members.append(items[0] if len(items) == 1 else SeqPat(tuple(items)))
            while lx[i][0] == "|":
                if rest is not None:
                    fail("'...' must be the last alternative", lx[i][3])
                rvar, j = _var_at(lx, i + 1)
                if not _is_dots(lx[j], 3):
                    i += 1
                    break  # another member follows
                rest, i = RestPat(rvar), j + 1
            else:  # the alternative ends here
                atom = members[0] if len(members) == 1 and rest is None else \
                    AltPat(tuple(members), rest)
                if not outer:
                    return atom, i
                if lx[i][0] != ")":
                    fail("expected ')'", lx[i][2])
                i += 1
                members, items, rest, var = outer.pop()
                continue
            items = []
            break


_WILDCARDS = {".": Gap(), "#empty": EmptyPat(), "#lex": AnyLex(), "#": AnySym()}


def collect_vars(pattern, defined: dict | None = None) -> dict:
    """Validate variable use and return {name: kind} for new definitions.

    A definition must precede all its references in match order, and a
    name may be defined only once per scope chain (defined carries
    enclosing definitions when patterns nest).
    """
    return collect_vars_at(pattern, defined, None, 0)


def collect_vars_at(pattern, defined, src: Lexed | None, first: int) -> dict:
    """collect_vars; given the pattern's text (src) and its first lexeme,
    a fault is reported at the '$' of the offending variable.

    Match order is text order (a pre-order walk, left to right, with each
    definition before what it is made over), and every '$' in a pattern
    defines or names a variable, so the k-th variable met is the k-th '$'.
    """
    seen: dict[str, str] = {}
    known = dict(defined or {})
    stack, k = [pattern], 0
    while stack:
        p = stack.pop()
        name, kind = None, STRUCT_VAR
        if isinstance(p, RulePattern):
            name = p.var
            if isinstance(p.symbol, (AnySym, Named)):
                kind = SYMBOL_VAR
            stack.extend(reversed(p.productions))
        elif isinstance(p, (ProdPat, ProdsWildcard, RestPat)):
            name = p.var
            if isinstance(p, ProdPat):
                stack.append(p.body)
        elif isinstance(p, Bind):
            name = p.name
            if isinstance(p.inner, (AnySym, Named)):
                kind = SYMBOL_VAR
            stack.append(p.inner)
        elif isinstance(p, VarRef):
            name, kind = p.name, None
        elif isinstance(p, SeqPat):
            stack.extend(reversed(p.items))
        elif isinstance(p, AltPat):
            if p.rest is not None:
                stack.append(p.rest)  # met after the members
            stack.extend(reversed(p.members))
        elif isinstance(p, IterPat):
            stack.append(p.inner)
        if name is None:
            continue
        if kind is None and name not in known:
            message = f"variable '${name}' is not defined before use"
        elif kind is not None and name in known:
            message = f"variable '${name}' is already defined"
        else:
            if kind is not None:
                known[name] = seen[name] = kind
            k += 1
            continue
        if src is None:
            raise NotationError(message)
        dollars = (lexeme[2] for lexeme in src.lexemes[first:] if lexeme[0] == "$")
        src.fail(message, next(itertools.islice(dollars, k, None)))
    return seen


# -- matching ----------------------------------------------------------------

def _bind(env, var, nodes, kinds, at_ref=False):
    """Extend env with nodes for var, or return None on inconsistency.

    An empty contribution leaves env unchanged (the variable stays
    unbound).  Symbol variables require all members, old and new, to
    name one common symbol; other variables are checked only at
    reference sites, where the node must structurally equal every
    existing member.
    """
    if not nodes:
        return env
    existing = env.get(var, frozenset())
    if kinds.get(var) == SYMBOL_VAR:
        if any(n.kind not in (g.SYMBOL_REF, g.SYMBOL_DEF) for n in nodes):
            return None
        names = {n.detail for n in nodes} | {n.detail for n in existing}
        if len(names) != 1:
            return None
    elif at_ref:
        key = nodes[0].structure_key
        if any(m.structure_key != key for m in existing):
            return None
    return {**env, var: existing | frozenset(nodes)}


class _Matcher:
    """Backtracking matcher over one variable-kind map.

    Every generator yields extended environments (var -> frozenset of
    GtNode) in the documented deterministic order.
    """

    def __init__(self, kinds):
        self.kinds = kinds

    def rule(self, rp: RulePattern, symdef, env):
        if isinstance(rp.symbol, Named) and symdef.detail != rp.symbol.name:
            return
        if rp.var is not None:
            env = _bind(env, rp.var, (symdef,), self.kinds)
            if env is None:
                return
        pats = rp.productions
        prods = symdef.children
        if not pats:
            yield env
        elif len(pats) == 1 and isinstance(pats[0], ProdsWildcard):
            env = _bind(env, pats[0].var, prods, self.kinds) if pats[0].var else env
            if env is not None:
                yield env
        elif len(pats) <= len(prods):
            yield from self._prods(pats, prods, 0, env)

    def _prods(self, pats, prods, j, env):
        # order-preserving injection of patterns into productions
        if not pats:
            yield env
            return
        head, tail = pats[0], pats[1:]
        for k in range(j, len(prods) - len(tail)):
            for env2 in self._production(head, prods[k], env):
                yield from self._prods(tail, prods, k + 1, env2)

    def _production(self, p, prod, env):
        if isinstance(p, ProdsWildcard):  # never matches as one production
            return
        if p.var is not None:
            env = _bind(env, p.var, (prod,), self.kinds)
            if env is None:
                return
        yield from self._items(_as_items(p.body), prod.children, env)

    def one(self, pat, node, env):
        """Match pat against exactly this node."""
        if isinstance(pat, Bind):
            for e in self.one(pat.inner, node, env):
                e2 = _bind(e, pat.name, (node,), self.kinds)
                if e2 is not None:
                    yield e2
        elif isinstance(pat, VarRef):
            e2 = _bind(env, pat.name, (node,), self.kinds, at_ref=True)
            if e2 is not None:
                yield e2
        elif isinstance(pat, Gap):
            yield env
        elif isinstance(pat, AnySym):
            if node.kind == g.SYMBOL_REF:
                yield env
        elif isinstance(pat, Named):
            if node.kind == g.SYMBOL_REF and node.detail == pat.name:
                yield env
        elif isinstance(pat, LitPat):
            if node.kind == g.LITERAL and node.detail == pat.text:
                yield env
        elif isinstance(pat, AnyLex):
            if node.kind == g.LITERAL:
                yield env
        elif isinstance(pat, EmptyPat):
            if node.kind == g.EMPTY:
                yield env
        elif isinstance(pat, IterPat):
            if node.kind == g.ITERATION and node.detail == pat.kind:
                yield from self.one(pat.inner, node.children[0], env)
        elif isinstance(pat, SeqPat):
            # a multi-element pattern reads a node's children as its run;
            # any other node stands for the one-element run (a '..' may
            # then absorb nothing, mirroring grammar normalization)
            run = node.children if node.kind in (g.SEQUENCE, g.PRODUCTION) else (node,)
            yield from self._items(pat.items, run, env)
        elif isinstance(pat, AltPat):
            if node.kind == g.ALTERNATIVE:
                yield from self._alt(pat, node, env)
        elif isinstance(pat, ProdPat):
            if node.kind == g.PRODUCTION:
                yield from self._production(pat, node, env)
        # ProdsWildcard matches nothing as a standalone pattern

    def _items(self, items, run, env):
        def rec(i, j, env):
            if i == len(items):
                if j == len(run):
                    yield env
                return
            item = items[i]
            core = item.inner if isinstance(item, Bind) else item
            if isinstance(core, Gap):
                var = item.name if isinstance(item, Bind) else None
                for k in range(j, len(run) + 1):  # shortest absorption first
                    env2 = env if var is None else _bind(env, var, tuple(run[j:k]), self.kinds)
                    if env2 is None:
                        continue
                    yield from rec(i + 1, k, env2)
            elif j < len(run):
                for env2 in self.one(item, run[j], env):
                    yield from rec(i + 1, j + 1, env2)

        yield from rec(0, 0, env)

    def _alt(self, ap: AltPat, node, env):
        branches = node.children
        members = ap.members
        if ap.rest is None:
            if len(members) != len(branches):
                return

            def cover(i, env):
                if i == len(members):
                    yield env
                    return
                for e2 in self.one(members[i], branches[i], env):
                    yield from cover(i + 1, e2)

            yield from cover(0, env)
            return
        if len(members) >= len(branches):  # '...' needs at least one branch
            return

        def pick(i, j, taken, env):
            if i == len(members):
                rest = tuple(b for k, b in enumerate(branches) if k not in taken)
                env2 = env if ap.rest.var is None else _bind(env, ap.rest.var, rest, self.kinds)
                if env2 is not None:
                    yield env2
                return
            for k in range(j, len(branches) - (len(members) - i) + 1):
                for e2 in self.one(members[i], branches[k], env):
                    yield from pick(i + 1, k + 1, taken | {k}, e2)

        yield from pick(0, 0, frozenset(), env)


def _as_items(body) -> tuple:
    return body.items if isinstance(body, SeqPat) else (body,)


def _key(pat):
    """(kind, detail) of every node a literal or name pattern matches."""
    core = pat.inner if isinstance(pat, Bind) else pat
    if isinstance(core, LitPat):
        return (g.LITERAL, core.text)
    if isinstance(core, Named):
        return (g.SYMBOL_REF, core.name)
    return None


_WILDCARD_KIND = {AnySym: g.SYMBOL_REF, AnyLex: g.LITERAL, EmptyPat: g.EMPTY}


def _gate(pat):
    """A necessary condition for _Matcher.one(pat, node, env) to yield, as
    a predicate on the node; None when any node may match."""
    core = pat.inner if isinstance(pat, Bind) else pat
    key = _key(core)
    if key is not None:
        kind, detail = key
        return lambda node: node.detail == detail and node.kind == kind
    if isinstance(core, IterPat):
        return lambda node: node.kind == g.ITERATION and node.detail == core.kind
    if type(core) in _WILDCARD_KIND:
        kind = _WILDCARD_KIND[type(core)]
        return lambda node: node.kind == kind
    if isinstance(core, AltPat):
        # '...' stands for at least one branch besides the members' own
        members, kinds, lone = core.members, (g.ALTERNATIVE,), False
        size, exact = len(members) + (core.rest is not None), core.rest is None
    elif isinstance(core, (SeqPat, ProdPat)):
        if isinstance(core, SeqPat):  # a lone node is a one-element run
            members, kinds, lone = core.items, (g.SEQUENCE, g.PRODUCTION), True
        else:
            members, kinds, lone = _as_items(core.body), (g.PRODUCTION,), False
        gaps = sum(isinstance(m.inner if isinstance(m, Bind) else m, Gap)
                   for m in members)
        size, exact = len(members) - gaps, not gaps
    else:
        return None  # Gap and VarRef match any node; ProdsWildcard none
    needs = {k for k in map(_key, members) if k is not None}

    def gate(node):
        if node.kind in kinds:
            run = node.children
        elif lone:
            run = (node,)
        else:
            return False
        n = len(run)
        if n < size or (exact and n != size):
            return False
        return not needs or needs <= {(c.kind, c.detail) for c in run}

    return gate


def _first(iterator):
    for env in iterator:
        return env
    return None


def _result(node, env) -> MatchResult:
    return MatchResult(node.id, {v: frozenset(n.id for n in s)
                                 for v, s in env.items() if s})


def match_rules(pattern: RulePattern, tree: g.GrammarTree) -> list[MatchResult]:
    """Match a rule pattern against every rule; results in rule order.

    A named rule pattern is looked up in tree.rule_index; other rules are
    tried only when each production pattern's gate passes some production,
    in order.
    """
    m = _Matcher(pattern.var_kinds)
    if isinstance(pattern.symbol, Named):
        symdef = tree.rule_index.get(pattern.symbol.name)
        rules = () if symdef is None else (symdef,)
    else:
        rules = tree.root.children
    gates = [_gate(p) for p in pattern.productions
             if not isinstance(p, ProdsWildcard)]
    out = []
    for symdef in rules:
        if gates and not _in_order(gates, symdef.children):
            continue
        env = _first(m.rule(pattern, symdef, {}))
        if env is not None:
            out.append(_result(symdef, env))
    return out


def _in_order(gates, prods) -> bool:
    """Whether the gates pass distinct productions in order (greedily)."""
    k = 0
    for gate in gates:
        while k < len(prods) and not gate(prods[k]):
            k += 1
        if k == len(prods):
            return False
        k += 1
    return True


def match_within(pattern, scope: g.GtNode, kinds: dict | None = None,
                 bindings: dict | None = None) -> list[MatchResult]:
    """Match a subpattern against every descendant of scope.

    scope itself is excluded; descendants are visited in pre-order, so
    results come back in ascending node-id order, one per matching node.
    kinds and bindings carry enclosing variable definitions and their
    already-bound nodes when patterns nest.
    """
    m = _Matcher(kinds if kinds is not None else collect_vars(pattern))
    env0 = dict(bindings or {})
    gate = _gate(pattern)
    nodes = g.descendants(scope)
    out = []
    for node in nodes if gate is None else filter(gate, nodes):
        env = _first(m.one(pattern, node, env0))
        if env is not None:
            out.append(_result(node, env))
    return out
