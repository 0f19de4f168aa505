"""Exhaustive reference matcher.

Same observable contract as patterns.match_rules / patterns.match_within,
implemented the slow way on purpose: every alignment choice (which
productions a pattern claims, how far each '..' stretches, which
branches '...' leaves over) is fully enumerated as a flat list of
variable contributions with no pruning, and variable consistency is
checked afterwards over the complete list.  The first alignment, in the
same left-to-right shortest-gap order the fast matcher explores, that
passes the check supplies the reported bindings.

Kept deliberately independent of the fast matcher's code so the two can
cross-check each other; only the pattern AST, the grammar model, and the
MatchResult shape are shared vocabulary.
"""

from __future__ import annotations

from itertools import product

from gramweave import grammar as g
from gramweave.patterns import (AltPat, AnyLex, AnySym, Bind, EmptyPat, Gap,
                                IterPat, LitPat, MatchResult, Named, ProdPat,
                                ProdsWildcard, RulePattern, SeqPat, VarRef,
                                collect_vars)

# one contribution: (variable name, nodes it gains here, made at a ref site)
_DEF = False
_REF = True


def _validate(contribs, kinds, initial=None):
    """Replay contributions in order; None on any consistency break."""
    bound: dict[str, set] = {v: set(ns) for v, ns in (initial or {}).items()}
    for var, nodes, at_ref in contribs:
        if not nodes:
            continue
        have = bound.setdefault(var, set())
        if kinds.get(var) == "symbol":
            if any(n.kind not in (g.SYMBOL_REF, g.SYMBOL_DEF) for n in nodes):
                return None
            names = {n.detail for n in nodes} | {n.detail for n in have}
            if len(names) > 1:
                return None
        elif at_ref:
            key = nodes[0].structure_key
            if any(m.structure_key != key for m in have):
                return None
        have.update(nodes)
    return bound


def _align_one(pat, node) -> list:
    if isinstance(pat, Bind):
        tail = [(pat.name, (node,), _DEF)]
        return [a + tail for a in _align_one(pat.inner, node)]
    if isinstance(pat, VarRef):
        return [[(pat.name, (node,), _REF)]]
    if isinstance(pat, Gap):
        return [[]]
    if isinstance(pat, AnySym):
        return [[]] if node.kind == g.SYMBOL_REF else []
    if isinstance(pat, Named):
        return [[]] if node.kind == g.SYMBOL_REF and node.detail == pat.name else []
    if isinstance(pat, LitPat):
        return [[]] if node.kind == g.LITERAL and node.detail == pat.text else []
    if isinstance(pat, AnyLex):
        return [[]] if node.kind == g.LITERAL else []
    if isinstance(pat, EmptyPat):
        return [[]] if node.kind == g.EMPTY else []
    if isinstance(pat, IterPat):
        if node.kind == g.ITERATION and node.detail == pat.kind:
            return _align_one(pat.inner, node.children[0])
        return []
    if isinstance(pat, SeqPat):
        run = node.children if node.kind in (g.SEQUENCE, g.PRODUCTION) else (node,)
        return _align_items(pat.items, run)
    if isinstance(pat, AltPat):
        return _align_alt(pat, node) if node.kind == g.ALTERNATIVE else []
    if isinstance(pat, ProdPat):
        return _align_production(pat, node) if node.kind == g.PRODUCTION else []
    return []  # ProdsWildcard never matches a single node


def _align_items(items, run) -> list:
    if not items:
        return [[]] if not run else []
    head, tail = items[0], items[1:]
    core = head.inner if isinstance(head, Bind) else head
    out = []
    if isinstance(core, Gap):
        var = head.name if isinstance(head, Bind) else None
        for k in range(len(run) + 1):
            prefix = [(var, tuple(run[:k]), _DEF)] if var is not None else []
            for rest in _align_items(tail, run[k:]):
                out.append(prefix + rest)
    elif run:
        for first, rest in product(_align_one(head, run[0]), _align_items(tail, run[1:])):
            out.append(first + rest)
    return out


def _align_alt(ap: AltPat, node) -> list:
    branches = node.children
    members = ap.members
    if ap.rest is None:
        if len(members) != len(branches):
            return []
        out = []
        per_member = [_align_one(m, b) for m, b in zip(members, branches)]
        for combo in product(*per_member):
            out.append([c for part in combo for c in part])
        return out
    if len(members) >= len(branches):
        return []

    def assign(i, j, taken) -> list:
        if i == len(members):
            left_over = tuple(b for k, b in enumerate(branches) if k not in taken)
            if ap.rest.var is None:
                return [[]]
            return [[(ap.rest.var, left_over, _DEF)]]
        out = []
        for k in range(j, len(branches) - (len(members) - i) + 1):
            for first in _align_one(members[i], branches[k]):
                for rest in assign(i + 1, k + 1, taken | {k}):
                    out.append(first + rest)
        return out

    return assign(0, 0, frozenset())


def _align_production(p: ProdPat, prod) -> list:
    prefix = [(p.var, (prod,), _DEF)] if p.var is not None else []
    body = p.body.items if isinstance(p.body, SeqPat) else (p.body,)
    return [prefix + a for a in _align_items(body, prod.children)]


def _align_rule(rp: RulePattern, symdef) -> list:
    if isinstance(rp.symbol, Named) and symdef.detail != rp.symbol.name:
        return []
    prefix = [(rp.var, (symdef,), _DEF)] if rp.var is not None else []
    pats = rp.productions
    prods = symdef.children
    if not pats:
        return [list(prefix)]
    if len(pats) == 1 and isinstance(pats[0], ProdsWildcard):
        wvar = pats[0].var
        return [prefix + ([(wvar, tuple(prods), _DEF)] if wvar is not None else [])]
    if len(pats) > len(prods):
        return []

    def inject(pats_left, j) -> list:
        if not pats_left:
            return [[]]
        head, tail = pats_left[0], pats_left[1:]
        out = []
        for k in range(j, len(prods) - len(tail)):
            for first in _align_production(head, prods[k]):
                for rest in inject(tail, k + 1):
                    out.append(first + rest)
        return out

    return [prefix + a for a in inject(pats, 0)]


def _as_result(node, bound) -> MatchResult:
    return MatchResult(node.id, {v: frozenset(n.id for n in ns)
                                 for v, ns in bound.items() if ns})


def brute_force_match(pattern: RulePattern, tree: g.GrammarTree) -> list[MatchResult]:
    out = []
    for symdef in tree.root.children:
        for alignment in _align_rule(pattern, symdef):
            bound = _validate(alignment, pattern.var_kinds)
            if bound is not None:
                out.append(_as_result(symdef, bound))
                break
    return out


def brute_force_within(pattern, scope: g.GtNode, kinds: dict | None = None,
                       bindings: dict | None = None) -> list[MatchResult]:
    kinds = kinds if kinds is not None else collect_vars(pattern)
    out = []
    for node in g.descendants(scope):
        for alignment in _align_one(pattern, node):
            bound = _validate(alignment, kinds, initial=bindings)
            if bound is not None:
                out.append(_as_result(node, bound))
                break
    return out
