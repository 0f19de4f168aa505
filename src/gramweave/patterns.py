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
bindings do.  Both pattern text and matching keep explicit stacks (the
groups still open; the goals still to meet and the choices still to
try), so a pattern may nest to any depth.

Each pattern gets a gate, computed once per match_rules/match_within
call, that rejects a node before any search starts: the node kinds the
pattern can match, the length of the run it spans, and the literals,
names and iterations its sequence, production or alternative items
spell out, which the run's direct children must hold.  A rule pattern
with a named symbol reads that rule from the tree's rule_index instead
of scanning every rule.  Gates are necessary conditions only, so they
change neither the matched nodes nor their bindings.  A pattern whose
literals are all present still explores every gap split on failure
(O(L^k) for k gaps).
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


# the node kind a pattern of this type needs, and the field of the pattern
# that the node's detail must equal (None: any detail)
_LEAF = {AnySym: (g.SYMBOL_REF, None), Named: (g.SYMBOL_REF, "name"),
         LitPat: (g.LITERAL, "text"), AnyLex: (g.LITERAL, None),
         EmptyPat: (g.EMPTY, None), IterPat: (g.ITERATION, "kind")}

_RUN_KINDS = (g.SEQUENCE, g.PRODUCTION)
_ONE, _ITEMS, _GAP, _BIND, _PICK = range(5)  # goal tags, see _search


def _search(kinds, goals, env):
    """The first env (var -> frozenset of GtNode), in the documented order,
    under which every goal on the linked list goals = (goal, rest) holds;
    None if there is none.  The goals:

      (_ONE, pat, node)             pat matches exactly this node
      (_ITEMS, items, i, run, j)    items[i:] match run[j:]
      (_GAP, items, i, run, j, k)   the gap items[i] absorbs run[j:k] or more
      (_BIND, var, nodes, at_ref)   _bind succeeds
      (_PICK, members, rest, branches, i, k, taken)
                                    members[i:] match distinct branches k..
                                    in order; a RestPat rest binds the others

    A goal with one way forward rewrites (goals, env) in place.  A goal
    with several takes the first and pushes itself, advanced to the next
    way (k + 1), with the env it started from; a failure resumes the top
    of the stack.  So nothing recurses, however deep patterns nest.
    """
    stack = []
    while True:
        if goals is None:
            return env
        goal, goals = goals
        tag = goal[0]
        if tag == _ONE:
            _, pat, node = goal
            t = type(pat)
            leaf = _LEAF.get(t)
            if leaf is not None:
                if node.kind == leaf[0] and (leaf[1] is None or
                                             node.detail == getattr(pat, leaf[1])):
                    if t is IterPat:
                        goals = ((_ONE, pat.inner, node.children[0]), goals)
                    continue
            elif t is Bind:
                goals = ((_ONE, pat.inner, node), ((_BIND, pat.name, (node,), False), goals))
                continue
            elif t is VarRef:
                goals = ((_BIND, pat.name, (node,), True), goals)
                continue
            elif t is Gap:
                continue
            elif t is SeqPat:
                # a multi-element pattern reads a node's children as its run;
                # any other node stands for the one-element run (a '..' may
                # then absorb nothing, mirroring grammar normalization)
                run = node.children if node.kind in _RUN_KINDS else (node,)
                goals = ((_ITEMS, pat.items, 0, run, 0), goals)
                continue
            elif t is AltPat and node.kind == g.ALTERNATIVE:
                # '...' stands for at least one branch besides the members' own
                size, n = len(pat.members) + (pat.rest is not None), len(node.children)
                if size == n or pat.rest and size < n:
                    goals = ((_PICK, pat.members, pat.rest, node.children, 0, 0, 0), goals)
                    continue
            elif t is ProdPat and node.kind == g.PRODUCTION:
                goals = ((_ITEMS, _as_items(pat.body), 0, node.children, 0), goals)
                if pat.var is not None:
                    goals = ((_BIND, pat.var, (node,), False), goals)
                continue
            # anything else fails; ProdsWildcard never matches one node
        elif tag == _ITEMS:
            _, items, i, run, j = goal
            if i < len(items):
                item = items[i]
                if type(item.inner if type(item) is Bind else item) is Gap:
                    goals = ((_GAP, items, i, run, j, j), goals)  # shortest first
                    continue
                if j < len(run):
                    goals = ((_ONE, item, run[j]), ((_ITEMS, items, i + 1, run, j + 1), goals))
                    continue
            elif j == len(run):
                continue
        elif tag == _GAP:
            _, items, i, run, j, k = goal
            if k < len(run):
                stack.append(((goal[:5] + (k + 1,), goals), env))
            goals = ((_ITEMS, items, i + 1, run, k), goals)
            if type(items[i]) is Bind:
                env = _bind(env, items[i].name, tuple(run[j:k]), kinds)
            if env is not None:
                continue
        elif tag == _BIND:
            env = _bind(env, goal[1], goal[2], kinds, goal[3])
            if env is not None:
                continue
        else:  # _PICK; taken has a bit per branch that a member holds
            _, members, rest, branches, i, k, taken = goal
            last = len(branches) - len(members) + i
            if i == len(members):
                if rest is None or rest.var is None:
                    continue
                env = _bind(env, rest.var, tuple(
                    b for n, b in enumerate(branches) if not taken >> n & 1), kinds)
                if env is not None:
                    continue
            elif k <= last:
                if k < last:
                    stack.append(((goal[:5] + (k + 1, taken), goals), env))
                goals = ((_ONE, members[i], branches[k]),
                         (goal[:4] + (i + 1, k + 1, taken | 1 << k), goals))
                continue
        if not stack:
            return None
        goals, env = stack.pop()


def _as_items(body) -> tuple:
    return body.items if isinstance(body, SeqPat) else (body,)


def _leaf(pat):
    """(kind, detail) of every node a leaf pattern matches, detail None for
    any; None for other patterns."""
    core = pat.inner if isinstance(pat, Bind) else pat
    kind, name = _LEAF.get(type(core), (None, None))
    return None if kind is None else (kind, name and getattr(core, name))


def _gate(pat):
    """A necessary condition for _search to match pat on a node, as a
    predicate on the node; None when any node may match."""
    core = pat.inner if isinstance(pat, Bind) else pat
    leaf = _leaf(core)
    if leaf is not None:
        kind, detail = leaf
        if detail is None:
            return lambda node: node.kind == kind
        return lambda node: node.detail == detail and node.kind == kind
    if isinstance(core, AltPat):
        members, kinds, lone = core.members, (g.ALTERNATIVE,), False
        size, exact = len(members) + (core.rest is not None), core.rest is None
    elif isinstance(core, (SeqPat, ProdPat)):
        if isinstance(core, SeqPat):  # a lone node is a one-element run
            members, kinds, lone = core.items, _RUN_KINDS, True
        else:
            members, kinds, lone = _as_items(core.body), (g.PRODUCTION,), False
        gaps = sum(isinstance(m.inner if isinstance(m, Bind) else m, Gap)
                   for m in members)
        size, exact = len(members) - gaps, not gaps
    else:
        return None  # Gap and VarRef match any node; ProdsWildcard none
    # the literals and names the run's direct children must hold
    needs = {leaf for leaf in map(_leaf, members) if leaf and leaf[1] is not None}

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


def _result(node, env) -> MatchResult:
    return MatchResult(node.id, {v: frozenset(n.id for n in s)
                                 for v, s in env.items() if s})


def match_rules(pattern: RulePattern, tree: g.GrammarTree) -> list[MatchResult]:
    """Match a rule pattern against every rule; results in rule order.

    A named rule pattern is looked up in tree.rule_index; other rules are
    tried only when each production pattern's gate passes some production,
    in order.
    """
    if isinstance(pattern.symbol, Named):
        symdef = tree.rule_index.get(pattern.symbol.name)
        rules = () if symdef is None else (symdef,)
    else:
        rules = tree.root.children
    pats = pattern.productions
    gates = [_gate(p) for p in pats if not isinstance(p, ProdsWildcard)]
    out = []
    for symdef in rules:
        if gates and not _in_order(gates, symdef.children):
            continue
        if len(pats) == 1 and type(pats[0]) is ProdsWildcard:
            goals = None if pats[0].var is None else \
                ((_BIND, pats[0].var, symdef.children, False), None)
        else:
            goals = ((_PICK, pats, None, symdef.children, 0, 0, 0), None)
        if pattern.var is not None:
            goals = ((_BIND, pattern.var, (symdef,), False), goals)
        env = _search(pattern.var_kinds, goals, {})
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
    kinds = kinds if kinds is not None else collect_vars(pattern)
    env0 = dict(bindings or {})
    gate = _gate(pattern)
    nodes = g.descendants(scope)
    out = []
    for node in nodes if gate is None else filter(gate, nodes):
        env = _search(kinds, ((_ONE, pattern, node), None), env0)
        if env is not None:
            out.append(_result(node, env))
    return out
