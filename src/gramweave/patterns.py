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
their grammar meaning.  '//' starts a line comment.

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

from dataclasses import dataclass, field

from . import grammar as g
from .errors import NotationError
from .scan import Cursor

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
    cur = Cursor(text, source)
    pat = rule_pattern_at(cur)
    cur.accept(";")
    cur.skip_ws()
    if not cur.eof():
        cur.error("unexpected text after pattern")
    return pat


def rule_pattern_at(cur: Cursor) -> RulePattern:
    """Parse 'var? symbolPattern productionPattern*'.

    Does not consume a trailing ';' so that embedding notations (aspect
    files) can decide what the terminator means.
    """
    cur.skip_ws()
    start = cur.pos
    var = _accept_var(cur)
    symbol = _parse_symbol_pattern(cur)
    productions = []
    while True:
        mark = cur.mark()
        pvar = _accept_var(cur)
        if not cur.accept(":"):
            cur.restore(mark)
            break
        productions.append(_parse_production_pattern(cur, pvar))
    if any(isinstance(p, ProdsWildcard) for p in productions) and len(productions) > 1:
        cur.error("'{...}' must be the only production pattern", start)
    end = cur.pos
    pat = RulePattern(var, symbol, tuple(productions),
                      cur.text[start:end].strip(), {})
    pat.var_kinds.update(collect_vars(pat))
    return pat


def parse_subpattern(text: str, source: str = "<pattern>"):
    cur = Cursor(text, source)
    pat = subpattern_at(cur)
    cur.skip_ws()
    if not cur.eof():
        cur.error("unexpected text after pattern")
    return pat


def subpattern_at(cur: Cursor):
    """Parse a subpattern body: a production pattern or an alternative
    pattern (the two shapes allowed under '@' in aspect files)."""
    cur.skip_ws()
    mark = cur.mark()
    pvar = _accept_var(cur)
    if cur.accept(":"):
        return _parse_production_pattern(cur, pvar)
    cur.restore(mark)
    return _parse_alternative_pattern(cur)


def _accept_var(cur: Cursor) -> str | None:
    mark = cur.mark()
    if cur.accept("$"):
        name = cur.accept_name()
        if name is not None and cur.accept("="):
            return name
    cur.restore(mark)
    return None


def _parse_symbol_pattern(cur: Cursor):
    cur.skip_ws()
    mark = cur.mark()
    if cur.accept_word("#lex") or cur.accept_word("#empty"):
        cur.error("expected a rule name or '#'", mark)
    if cur.accept("#"):
        return AnySym()
    name = cur.accept_name()
    if name is None:
        cur.error("expected a rule name or '#'")
    return Named(name)


def _parse_production_pattern(cur: Cursor, lead_var: str | None):
    # after the ':': either 'var? {...}' or an alternative pattern
    mark = cur.mark()
    wvar = _accept_var(cur)
    if _accept_prods_wildcard(cur):
        if lead_var is not None:
            cur.error("a variable before ':' cannot apply to '{...}'", mark)
        return ProdsWildcard(wvar)
    cur.restore(mark)
    return ProdPat(lead_var, _parse_alternative_pattern(cur))


def _accept_prods_wildcard(cur: Cursor) -> bool:
    mark = cur.mark()
    if cur.accept("{") and cur.accept_dots(3) and cur.accept("}"):
        return True
    cur.restore(mark)
    return False


def _parse_alternative_pattern(cur: Cursor):
    members = [_parse_sequence_pattern(cur)]
    rest = None
    while cur.accept("|"):
        if rest is not None:
            cur.error("'...' must be the last alternative")
        mark = cur.mark()
        rvar = _accept_var(cur)
        if cur.accept_dots(3):
            rest = RestPat(rvar)
            continue
        cur.restore(mark)
        members.append(_parse_sequence_pattern(cur))
    if len(members) == 1 and rest is None:
        return members[0]
    return AltPat(tuple(members), rest)


def _parse_sequence_pattern(cur: Cursor):
    items = [_parse_iteration_pattern(cur)]
    while _at_pattern_atom(cur):
        items.append(_parse_iteration_pattern(cur))
    if len(items) == 1:
        return items[0]
    return SeqPat(tuple(items))


def _at_pattern_atom(cur: Cursor) -> bool:
    c = cur.peek_char()
    if not c:
        return False
    if c == ".":
        return cur.dot_run() == 2
    if c == "$":
        # a '$' continues the sequence as a var def or var ref, but
        # '$name{' and '$name.attr' belong to the enclosing aspect
        # notation ('$name ..' stays a ref followed by a gap)
        mark = cur.mark()
        ok = cur.accept("$") and cur.accept_name() is not None
        if ok:
            after = cur.peek_char()
            if after == "{" or (after == "." and cur.dot_run() != 2):
                ok = False
        cur.restore(mark)
        return ok
    return c.isalpha() or c in "_'(#"


def _parse_iteration_pattern(cur: Cursor):
    cur.skip_ws()
    var = _accept_var(cur)
    atom = _parse_atomic_pattern(cur)
    cur.skip_ws()
    c = cur.text[cur.pos] if cur.pos < len(cur.text) else ""
    if c and c in "*+?":
        cur.pos += 1
        atom = IterPat(atom, {"*": g.STAR, "+": g.PLUS, "?": g.OPT}[c])
    if var is not None:
        return Bind(var, atom)
    return atom


def _parse_atomic_pattern(cur: Cursor):
    cur.skip_ws()
    if cur.accept("("):
        inner = _parse_alternative_pattern(cur)
        cur.expect(")")
        return inner
    if cur.accept_dots(2):
        return Gap()
    if cur.accept_word("#empty"):
        return EmptyPat()
    if cur.accept_word("#lex"):
        return AnyLex()
    if cur.accept("#"):
        return AnySym()
    if cur.accept("$"):
        name = cur.expect_name("variable name")
        return VarRef(name)
    text = cur.accept_string()
    if text is not None:
        if text == "":
            cur.error("empty literal pattern")
        return LitPat(text)
    name = cur.accept_name()
    if name is not None:
        return Named(name)
    cur.error("expected a pattern element")


def collect_vars(pattern, defined: dict | None = None) -> dict:
    """Validate variable use and return {name: kind} for new definitions.

    Walks the pattern in match order: a definition must precede all its
    references, and a name may be defined only once per scope chain
    (defined carries enclosing definitions when patterns nest).
    """
    seen: dict[str, str] = {}
    known = dict(defined or {})

    def define(name: str | None, kind: str):
        if name is None:
            return
        if name in known:
            raise NotationError(f"variable '${name}' is already defined")
        known[name] = kind
        seen[name] = kind

    def walk(p):
        if isinstance(p, RulePattern):
            define(p.var, SYMBOL_VAR if isinstance(p.symbol, (AnySym, Named)) else STRUCT_VAR)
            for prod in p.productions:
                walk(prod)
        elif isinstance(p, ProdPat):
            define(p.var, STRUCT_VAR)
            walk(p.body)
        elif isinstance(p, ProdsWildcard):
            define(p.var, STRUCT_VAR)
        elif isinstance(p, Bind):
            define(p.name, SYMBOL_VAR if isinstance(p.inner, (AnySym, Named)) else STRUCT_VAR)
            walk(p.inner)
        elif isinstance(p, VarRef):
            if p.name not in known:
                raise NotationError(f"variable '${p.name}' is not defined before use")
        elif isinstance(p, SeqPat):
            for it in p.items:
                walk(it)
        elif isinstance(p, AltPat):
            for m in p.members:
                walk(m)
            if p.rest is not None:
                define(p.rest.var, STRUCT_VAR)
        elif isinstance(p, IterPat):
            walk(p.inner)

    walk(pattern)
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
