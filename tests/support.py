"""Shared test helpers: independent oracles and random-case generators.

The oracles are deliberately written against the data model only, not
against the implementation under test: the recognizer oracle enumerates
the grammar's language instead of parsing, the tree oracle compiles the
grammar with its own recursive compiler, the reference grammar, aspect,
pattern and annotation parsers descend over characters with a cursor
where the package lexes with one regular expression and parses with
explicit stacks, the reference serializer recurses where serialize_grammar
keeps a stack, the reference tokenizer ranks every literal and terminal
as a candidate where tokenize matches literals with one alternation, the
reference recognizer predicts every production over tuple items where
the parser's recognizer looks one token ahead over int items, the
reference formatter walks the parse tree for its own chains and
interprets whitespace programs with its own event loop, the reference
group rule and effective_whitespace read those chains too, and the reference
store writer lets json.dumps lay out a document built as dicts.
"""

from __future__ import annotations

import dataclasses
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

from gramweave import aspects as A
from gramweave import grammar as G
from gramweave import patterns as P
from gramweave import prettyprint
from gramweave.annotations import (PUNCTUATION, Annotation, Attribute, IntValue,
                                   NameValue, PunctValue, RecordValue, SeqValue,
                                   StrValue)
from gramweave.earley import ParseLeaf, ParseNode
from gramweave.errors import LexError, NotationError, ParseError
from gramweave.lexer import Token
from gramweave.scan import escape_string, line_col

FIXTURES = Path(__file__).parent / "fixtures"


def fixture(name: str) -> str:
    return FIXTURES.joinpath(name).read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# Recognition oracle: enumerate every sentence the grammar derives up to a
# length bound (Kleene fixpoint over rule languages), then test membership.


class LanguageTooLarge(Exception):
    pass


def _concat(left: set, right: set, max_len: int, cap: int) -> set:
    out = set()
    for a in left:
        for b in right:
            if len(a) + len(b) <= max_len:
                out.add(a + b)
                if len(out) > cap:
                    raise LanguageTooLarge
    return out


def _closure(base: set, max_len: int, cap: int) -> set:
    # all concatenations of zero or more sentences from base
    out = {()}
    frontier = {()}
    while frontier:
        step = _concat(frontier, base, max_len, cap)
        fresh = step - out
        out |= fresh
        if len(out) > cap:
            raise LanguageTooLarge
        frontier = fresh
    return out


def enumerate_language(tree: G.GrammarTree, start: str, max_len: int,
                       cap: int = 30000) -> set:
    """Set of all sentences (symbol tuples) of length <= max_len.

    Raises LanguageTooLarge when the bounded language exceeds cap; the
    caller should skip such cases rather than trust a truncated set.
    """
    lang = {name: set() for name in tree.rule_index}

    def eval_node(node: G.GtNode) -> set:
        k = node.kind
        if k == G.LITERAL:
            return {(("lit", node.detail),)}
        if k == G.SYMBOL_REF:
            if node.is_terminal_ref():
                return {(("term", node.detail),)}
            return set(lang[node.detail])
        if k == G.EMPTY:
            return {()}
        if k == G.ALTERNATIVE or k == G.SYMBOL_DEF:
            out = set()
            for child in node.children:
                out |= eval_node(child)
                if len(out) > cap:
                    raise LanguageTooLarge
            return out
        if k == G.PRODUCTION or k == G.SEQUENCE:
            out = {()}
            for child in node.children:
                out = _concat(out, eval_node(child), max_len, cap)
                if not out:
                    return out
            return out
        if k == G.ITERATION:
            inner = eval_node(node.children[0])
            if node.detail == G.OPT:
                return inner | {()}
            reps = _closure(inner, max_len, cap)
            if node.detail == G.PLUS:
                return _concat(inner, reps, max_len, cap)
            return reps
        raise AssertionError(f"unexpected node kind {k}")

    while True:
        changed = False
        for name, sd in tree.rule_index.items():
            fresh = eval_node(sd)
            if fresh - lang[name]:
                lang[name] |= fresh
                changed = True
            if len(lang[name]) > cap:
                raise LanguageTooLarge
        if not changed:
            return lang[start]


def token_shape(tokens) -> tuple:
    return tuple(("term", t.terminal) if t.terminal else ("lit", t.text)
                 for t in tokens)


def oracle_accepts(tree: G.GrammarTree, start: str, tokens) -> bool:
    sentences = enumerate_language(tree, start, max_len=len(tokens))
    return token_shape(tokens) in sentences


# ---------------------------------------------------------------------------
# Tree oracle: the earlier recursive compiler, recognizer and extractor,
# kept here to check that the parser picks the same tree.  It shares only
# the parse-tree node classes with the parser: its compiler rebuilds the
# grammar tree into productions keyed by (kind, grammar-tree id) tuples,
# recursing once per nesting level, where the parser writes int state
# tables in one pass.  It tries every end of every nonterminal
# shortest-first, backtracks, and recurses once per token, so feed it only
# small inputs.
#
# symbols: ("lit", text) | ("term", name) | ("nt", key)
# nonterminal keys: ("def"|"alt"|"seq"|"iter"|"emp", GT node id)


@dataclass(frozen=True)
class _Elem:
    sym: tuple
    gt_id: int


@dataclass(frozen=True)
class _Prod:
    pid: int
    lhs: tuple
    rhs: tuple[_Elem, ...]
    tag: tuple


class OracleGrammar:
    def __init__(self):
        self.prods: list[_Prod] = []
        self.by_lhs: dict[tuple, list[_Prod]] = {}
        self.nullable: set = set()
        self.cyclic = False  # a search may try a nonterminal below itself over one span
        self.loops: set = set()  # (production id, element index) of each link on a cycle
        self.guarded: dict = {}  # per nonterminal on a cycle: those on a cycle through it

    def add(self, lhs, rhs, tag) -> _Prod:
        prod = _Prod(len(self.prods), lhs, tuple(rhs), tag)
        self.prods.append(prod)
        self.by_lhs.setdefault(lhs, []).append(prod)
        return prod


def oracle_compile(tree: G.GrammarTree) -> OracleGrammar:
    cg = OracleGrammar()
    done = set()

    def item(node: G.GtNode) -> _Elem:
        if node.kind == G.LITERAL:
            return _Elem(("lit", node.detail), node.id)
        if node.kind == G.SYMBOL_REF:
            if node.is_terminal_ref():
                return _Elem(("term", node.detail), node.id)
            target = tree.rule_index[node.detail]
            return _Elem(("nt", ("def", target.id)), node.id)
        key = build(node)
        return _Elem(("nt", key), node.id)

    def build(node: G.GtNode) -> tuple:
        if node.kind == G.ALTERNATIVE:
            key = ("alt", node.id)
            if key not in done:
                done.add(key)
                for bi, branch in enumerate(node.children):
                    cg.add(key, [item(branch)], ("branch", node.id, bi))
        elif node.kind == G.SEQUENCE:
            key = ("seq", node.id)
            if key not in done:
                done.add(key)
                cg.add(key, [item(c) for c in node.children], ("group", node.id))
        elif node.kind == G.ITERATION:
            key = ("iter", node.id)
            if key not in done:
                done.add(key)
                sub = item(node.children[0])
                if node.detail == G.STAR:
                    cg.add(key, [], ("iter_empty", node.id))
                    cg.add(key, [_Elem(("nt", key), node.id), sub], ("iter_step", node.id))
                elif node.detail == G.PLUS:
                    cg.add(key, [sub], ("iter_one", node.id))
                    cg.add(key, [_Elem(("nt", key), node.id), sub], ("iter_step", node.id))
                else:  # OPT
                    cg.add(key, [], ("iter_empty", node.id))
                    cg.add(key, [sub], ("iter_one", node.id))
        elif node.kind == G.EMPTY:
            key = ("emp", node.id)
            if key not in done:
                done.add(key)
                cg.add(key, [], ("empty", node.id))
        else:
            raise AssertionError(f"unexpected item kind {node.kind}")
        return key

    for symdef in tree.root.children:
        key = ("def", symdef.id)
        done.add(key)
        for pi, prod in enumerate(symdef.children):
            cg.add(key, [item(c) for c in prod.children],
                   ("rule", symdef.id, pi, prod.id))

    # nullable nonterminals, to fixpoint
    changed = True
    while changed:
        changed = False
        for prod in cg.prods:
            if prod.lhs in cg.nullable:
                continue
            if all(e.sym[0] == "nt" and e.sym[1] in cg.nullable for e in prod.rhs):
                cg.nullable.add(prod.lhs)
                changed = True

    # unit links: a production of K tries one of its nonterminals over K's
    # whole span when the elements before it are nullable, whatever follows
    # (a search derives each candidate before it looks at the rest); the
    # extractor's cycle guard can fire only if these links form a cycle.
    # A link from K to itself with a non-nullable rest (K : K ')' ...) only
    # guards a candidate that could never complete, so it is left out.
    def nullable(syms) -> bool:
        return all(o[0] == "nt" and o[1] in cg.nullable for o in syms)

    links: dict[tuple, set] = {key: set() for key in cg.by_lhs}
    unit = []  # (production id, element index, nonterminal, linked nonterminal)
    for prod in cg.prods:
        syms = [e.sym for e in prod.rhs]
        for j, sym in enumerate(syms):
            if sym[0] != "nt" or not nullable(syms[:j]):
                continue
            if sym[1] != prod.lhs or nullable(syms[j + 1:]):
                links[prod.lhs].add(sym[1])
                unit.append((prod.pid, j, prod.lhs, sym[1]))
    # the transitive closure of the links, grown until it stops; a link
    # from K to A lies on a cycle when A is K or reaches K
    closure = {key: set(targets) for key, targets in links.items()}
    grew = True
    while grew:
        grew = False
        for reached in closure.values():
            more = set().union(*(closure[c] for c in reached)) - reached
            reached |= more
            grew |= bool(more)
    for pid, j, key, target in unit:
        if target == key or key in closure[target]:
            cg.loops.add((pid, j))
            cg.guarded[key] = {key} | {c for c in closure[key] if key in closure[c]}
    # peel off keys without incoming links; what remains lies on a cycle
    incoming = {key: 0 for key in links}
    for targets in links.values():
        for key in targets:
            incoming[key] += 1
    free = [key for key, count in incoming.items() if count == 0]
    while free:
        for key in links.pop(free.pop()):
            incoming[key] -= 1
            if incoming[key] == 0:
                free.append(key)
    cg.cyclic = bool(links)
    return cg


def _oracle_matches(sym: tuple, token) -> bool:
    if sym[0] == "lit":
        return token.terminal is None and token.text == sym[1]
    return token.terminal == sym[1]


def _oracle_recognize(cg, start_key: tuple, tokens):
    n = len(tokens)
    chart = [dict() for _ in range(n + 1)]
    completed = {}

    for prod in cg.by_lhs.get(start_key, ()):
        chart[0].setdefault((prod.pid, 0, 0), None)
    for i in range(n + 1):
        queue = list(chart[i])
        qi = 0
        while qi < len(queue):
            pid, dot, origin = queue[qi]
            qi += 1
            prod = cg.prods[pid]
            if dot < len(prod.rhs):
                sym = prod.rhs[dot].sym
                if sym[0] == "nt":
                    for p in cg.by_lhs.get(sym[1], ()):
                        st = (p.pid, 0, i)
                        if st not in chart[i]:
                            chart[i].setdefault(st, None)
                            queue.append(st)
                    if sym[1] in cg.nullable:
                        st = (pid, dot + 1, origin)
                        if st not in chart[i]:
                            chart[i].setdefault(st, None)
                            queue.append(st)
                elif i < n and _oracle_matches(sym, tokens[i]):
                    chart[i + 1].setdefault((pid, dot + 1, origin), None)
            else:
                completed.setdefault((pid, origin), set()).add(i)
                for (pid2, dot2, origin2) in list(chart[origin]):
                    p2 = cg.prods[pid2]
                    if dot2 < len(p2.rhs) and p2.rhs[dot2].sym == ("nt", prod.lhs):
                        st = (pid2, dot2 + 1, origin2)
                        if st not in chart[i]:
                            chart[i].setdefault(st, None)
                            queue.append(st)
    return completed


@dataclass
class _DTree:
    prod: object
    parts: list  # per rhs element: token index or nested _DTree


class _OracleExtractor:
    def __init__(self, cg, completed, tokens):
        self.cg = cg
        self.completed = completed
        self.tokens = tokens
        self.memo = {}
        self.active = set()
        self.guard_hits = 0

    def ends(self, key: tuple, start: int):
        out = set()
        for prod in self.cg.by_lhs.get(key, ()):
            out |= self.completed.get((prod.pid, start), set())
        return sorted(out)

    def derive(self, key: tuple, lo: int, hi: int):
        memo_key = (key, lo, hi)
        if memo_key in self.memo:
            return self.memo[memo_key]
        if memo_key in self.active:
            self.guard_hits += 1
            return None
        self.active.add(memo_key)
        before = self.guard_hits
        result = None
        for prod in self.cg.by_lhs.get(key, ()):
            if hi not in self.completed.get((prod.pid, lo), ()):
                continue
            parts = self.split(prod.rhs, 0, lo, hi)
            if parts is not None:
                result = _DTree(prod, parts)
                break
        self.active.discard(memo_key)
        if result is not None or self.guard_hits == before:
            self.memo[memo_key] = result
        return result

    def split(self, rhs, k: int, pos: int, hi: int):
        if k == len(rhs):
            return [] if pos == hi else None
        elem = rhs[k]
        if elem.sym[0] != "nt":
            if pos < hi and _oracle_matches(elem.sym, self.tokens[pos]):
                rest = self.split(rhs, k + 1, pos + 1, hi)
                if rest is not None:
                    return [pos] + rest
            return None
        for end in self.ends(elem.sym[1], pos):
            if end > hi:
                break
            sub = self.derive(elem.sym[1], pos, end)
            if sub is None:
                continue
            rest = self.split(rhs, k + 1, end, hi)
            if rest is not None:
                return [sub] + rest
        return None


def _oracle_tree(dt: _DTree, tokens):
    tag = dt.prod.tag

    def elem_node(elem, part):
        if elem.sym[0] != "nt":
            return ParseLeaf(elem.gt_id, tokens[part])
        sub = _oracle_tree(part, tokens)
        if elem.sym[1][0] == "def":
            return ParseNode("ref", elem.gt_id, [sub])
        return sub

    parts = [elem_node(e, p) for e, p in zip(dt.prod.rhs, dt.parts)]
    if tag[0] == "rule":
        return ParseNode("rule", tag[1], parts,
                         production_index=tag[2], production_id=tag[3])
    if tag[0] == "branch":
        return ParseNode("alt", tag[1], parts)
    if tag[0] == "group":
        return ParseNode("seq", tag[1], parts)
    if tag[0] == "empty":
        return ParseNode("empty", tag[1], [])
    if tag[0] == "iter_step":
        node = parts[0]
        node.children.append(parts[1])
        return node
    return ParseNode("iter", tag[1], parts)


def oracle_parse(tree: G.GrammarTree, start: str, tokens):
    """The earlier parser's tree root for tokens, or None if rejected."""
    cg = oracle_compile(tree)
    start_key = ("def", tree.rule_index[start].id)
    completed = _oracle_recognize(cg, start_key, tokens)
    n = len(tokens)
    extractor = _OracleExtractor(cg, completed, tokens)
    for prod in cg.by_lhs.get(start_key, ()):
        if n in completed.get((prod.pid, 0), ()):
            parts = extractor.split(prod.rhs, 0, 0, n)
            if parts is not None:
                return _oracle_tree(_DTree(prod, parts), tokens)
    return None


def rule_parse(tree: G.GrammarTree, start: str, tokens):
    """The tree the documented rule picks for tokens, or None if rejected.

    The rule: the first derivation in which no nonterminal derives a span
    from inside its own derivation of that same span, trying earlier
    productions first and, from left to right, each element's ends
    shortest first.  This is that search taken literally: depth first,
    no memo, and a nonterminal span fails while it is open on the path,
    the root's included.  The chart of the recursive recognizer above
    only prunes spans no derivation has.  The search is exponential, so
    it takes at most 6 tokens.
    """
    if len(tokens) > 6:
        raise ValueError("rule_parse takes at most 6 tokens")
    cg = oracle_compile(tree)
    completed = _oracle_recognize(cg, ("def", tree.rule_index[start].id), tokens)

    def derive(key: tuple, lo: int, hi: int, path: frozenset):
        if (key, lo, hi) in path:
            return None
        path = path | {(key, lo, hi)}
        for prod in cg.by_lhs[key]:
            if hi in completed.get((prod.pid, lo), ()):
                parts = split(prod.rhs, 0, lo, hi, path)
                if parts is not None:
                    return _DTree(prod, parts)
        return None

    def split(rhs, k: int, pos: int, hi: int, path: frozenset):
        if k == len(rhs):
            return [] if pos == hi else None
        sym = rhs[k].sym
        if sym[0] != "nt":
            if pos < hi and _oracle_matches(sym, tokens[pos]):
                rest = split(rhs, k + 1, pos + 1, hi, path)
                if rest is not None:
                    return [pos] + rest
            return None
        for end in range(pos, hi + 1):
            sub = derive(sym[1], pos, end, path)
            if sub is not None:
                rest = split(rhs, k + 1, end, hi, path)
                if rest is not None:
                    return [sub] + rest
        return None

    root = derive(("def", tree.rule_index[start].id), 0, len(tokens), frozenset())
    return None if root is None else _oracle_tree(root, tokens)


# ---------------------------------------------------------------------------
# Reference recognizer: the chart recognizer as it was before items became
# ints and prediction looked ahead, verbatim.  It reads the same compiled
# tables as earley._recognize, and its ends/origins, read as one chart,
# must equal the recognizer's; ParseErrors must be equal.


def reference_recognize(cg, start: int, tokens, codes):
    """Run the recognizer; return the chart's completions or raise ParseError.

    Completions come back as two tables over nonterminal indexes:
    `ends[nt * (n + 1) + origin]` maps each end, in ascending order, to
    the bit set of the nonterminal's productions that derive the tokens
    from origin to that end, and `origins[end][nt]` lists those origins.
    Items are (state, origin) pairs; an Earley set is dropped once the
    next one is built, and only the items waiting on a nonterminal stay,
    indexed by that nonterminal, until the parse ends.
    """
    after, lhs, bit, skip, starts = cg.after, cg.lhs, cg.bit, cg.skip, cg.starts
    n = len(tokens)
    width = n + 1
    ends: Dict[int, Dict[int, int]] = {}
    origins: List[Dict[int, List[int]]] = []
    waiters: List[Dict[int, list]] = []  # per set: nonterminal -> advanced items
    items = [(s, 0) for s in starts[start]]
    for i in range(width):
        seen = set(items)
        waiting: Dict[int, list] = {}
        waiters.append(waiting)
        done: Dict[int, List[int]] = {}
        origins.append(done)
        code = codes[i] if i < n else 0
        scanned = []
        for state, origin in items:  # items grows while it is walked
            a = after[state]
            if a is None:
                nt = lhs[state]
                key = nt * width + origin
                row = ends.get(key)
                if row is None:
                    row = ends[key] = {}
                mask = row.get(i)
                if mask is not None:  # an earlier production already advanced the waiters
                    row[i] = mask | bit[state]
                    continue
                row[i] = bit[state]
                done.setdefault(nt, []).append(origin)
                for item in waiters[origin].get(nt, ()):
                    if item not in seen:
                        seen.add(item)
                        items.append(item)
            elif a >= 0:
                item = (state + 1, origin)
                wait = waiting.get(a)
                if wait is None:
                    waiting[a] = [item]
                    for s in starts[a]:
                        st = (s, i)
                        if st not in seen:
                            seen.add(st)
                            items.append(st)
                else:
                    wait.append(item)
                # a nullable nonterminal may already have completed here
                # (Aycock & Horspool, Practical Earley Parsing, 2002)
                if skip[state] and item not in seen:
                    seen.add(item)
                    items.append(item)
            elif a == code:
                scanned.append((state + 1, origin))
        if not scanned:
            break
        items = scanned
    if i == n and n in ends.get(start * width, ()):
        return ends, origins
    if i < n:
        position = tokens[i].span[0]
        what = f"unexpected {tokens[i].display}"
    else:
        position = tokens[-1].span[1] if tokens else 0
        what = "unexpected end of input"
    expected = {cg.display[after[s]] for s, _ in items
                if after[s] is not None and after[s] < 0}
    raise ParseError(what, position, tuple(sorted(expected)))


def tree_difference(got, want):
    """Where two parse trees differ, node for node, or None if they agree.

    Walks both trees with an explicit stack, so deep trees compare too, and
    reports any node object that appears twice in `got`.
    """
    seen = set()
    stack = [(got, want, "root")]
    while stack:
        a, b, path = stack.pop()
        if isinstance(a, ParseNode):
            if id(a) in seen:
                return f"{path}: node shared with another place in the tree"
            seen.add(id(a))
        if type(a) is not type(b):
            return f"{path}: {type(a).__name__} != {type(b).__name__}"
        if isinstance(a, ParseLeaf):
            if a != b:
                return f"{path}: {a} != {b}"
            continue
        here = (a.kind, a.gt_id, a.production_index, a.production_id, len(a.children))
        there = (b.kind, b.gt_id, b.production_index, b.production_id, len(b.children))
        if here != there:
            return f"{path}: {here} != {there}"
        for i, (x, y) in enumerate(zip(a.children, b.children)):
            stack.append((x, y, f"{path}/{i}"))
    return None


# ---------------------------------------------------------------------------
# Reference grammar parser: recursive descent straight over characters with
# the Cursor below, then a recursive freeze that stores every node's
# structure key.  parse_grammar must build the same nodes and raise the same
# errors.  It recurses once per nesting level, so keep its inputs shallow.


@dataclass(frozen=True, eq=False)
class RefNode:
    id: int
    kind: str
    detail: str | None
    children: tuple
    span: tuple
    structure_key: tuple


class _Raw:
    __slots__ = ("kind", "detail", "children", "span")

    def __init__(self, kind, detail, children, span):
        self.kind = kind
        self.detail = detail
        self.children = children
        self.span = span


def reference_parse_grammar(text: str, source: str = "<grammar>") -> list:
    """The tree's RefNodes in pre-order (index = id)."""
    cur = Cursor(text, source)
    rules, names = [], {}
    while not cur.eof():
        start = cur.pos
        name = cur.expect_name("rule name")
        if name in names:
            cur.error(f"duplicate rule '{name}'", start)
        names[name] = start
        if name[0].isupper():
            cur.error(f"terminal name '{name}' cannot be defined as a rule", start)
        cur.expect(":", f"rule '{name}'")
        prods = [_ref_production(cur)]
        while cur.accept(":"):
            prods.append(_ref_production(cur))
        cur.expect(";", f"rule '{name}'")
        rules.append(_Raw(G.SYMBOL_DEF, name, prods, (start, cur.pos)))
    root = _Raw(G.GRAMMAR, None, rules, (0, len(text)))

    def check(n):
        if n.kind == G.SYMBOL_REF and not n.detail[0].isupper() and n.detail not in names:
            cur.error(f"reference to undefined rule '{n.detail}'", n.span[0])
        for c in n.children:
            check(c)

    check(root)
    order, stack = {}, [root]
    while stack:
        n = stack.pop()
        order[id(n)] = len(order)
        stack.extend(reversed(n.children))
    by_id = {}

    def freeze(n):
        children = tuple(freeze(c) for c in n.children)
        key = ((n.kind, n.detail, len(children)),) + \
            tuple(entry for c in children for entry in c.structure_key)
        node = RefNode(order[id(n)], n.kind, n.detail, children, tuple(n.span), key)
        by_id[node.id] = node
        return node

    freeze(root)
    return [by_id[i] for i in range(len(by_id))]


def _ref_production(cur):
    body = _ref_alternative(cur)
    children = body.children if body.kind == G.SEQUENCE else [body]
    return _Raw(G.PRODUCTION, None, children, body.span)


def _ref_alternative(cur):
    members = [_ref_sequence(cur)]
    while cur.accept("|"):
        members.append(_ref_sequence(cur))
    if len(members) == 1:
        return members[0]
    return _Raw(G.ALTERNATIVE, None, members, (members[0].span[0], members[-1].span[1]))


def _ref_sequence(cur):
    items = [_ref_item(cur)]
    while True:
        c = cur.peek_char()
        if not (c and (c.isalpha() or c in "_'(" or
                       (c == "#" and cur.text.startswith("#empty", cur.pos)))):
            break
        items.append(_ref_item(cur))
    if len(items) == 1:
        return items[0]
    return _Raw(G.SEQUENCE, None, items, (items[0].span[0], items[-1].span[1]))


def _ref_item(cur):
    atom = _ref_atom(cur)
    cur.skip_ws()
    c = cur.text[cur.pos] if cur.pos < len(cur.text) else ""
    if c in ("*", "+", "?"):
        cur.pos += 1
        kind = {"*": G.STAR, "+": G.PLUS, "?": G.OPT}[c]
        return _Raw(G.ITERATION, kind, [atom], (atom.span[0], cur.pos))
    return atom


def _ref_atom(cur):
    cur.skip_ws()
    start = cur.pos
    if cur.accept("("):
        inner = _ref_alternative(cur)
        cur.expect(")")
        inner.span = (start, cur.pos)
        return inner
    if cur.accept_word("#empty"):
        return _Raw(G.EMPTY, None, [], (start, cur.pos))
    text = cur.accept_string()
    if text is not None:
        if text == "":
            cur.error("empty literal", start)
        return _Raw(G.LITERAL, text, [], (start, cur.pos))
    name = cur.accept_name()
    if name is not None:
        return _Raw(G.SYMBOL_REF, name, [], (start, cur.pos))
    cur.error("expected a symbol, literal, '#empty', or '('")


def grammar_rows(nodes) -> list:
    """(id, kind, detail, span, child ids, structure key) per node."""
    return [(n.id, n.kind, n.detail, n.span, tuple(c.id for c in n.children),
             n.structure_key) for n in nodes]


# ---------------------------------------------------------------------------
# Reference grammar serializer: one recursive call per node.
# serialize_grammar must write the same text; keep inputs shallow.


def reference_serialize_grammar(tree: G.GrammarTree) -> str:
    lines = []
    for sd in tree.root.children:
        bodies = [_ref_serialize_production(p) for p in sd.children]
        if len(bodies) == 1:
            lines.append(f"{sd.detail} : {bodies[0]} ;")
        else:
            lines.append(sd.detail + "".join(f"\n    : {b}" for b in bodies) + " ;")
    return "\n".join(lines) + ("\n" if lines else "")


def _ref_serialize_production(prod: G.GtNode) -> str:
    wrap = (G.ALTERNATIVE, G.SEQUENCE) if len(prod.children) > 1 else ()
    return " ".join(_ref_serialize_node(c, wrap) for c in prod.children)


def _ref_serialize_node(n: G.GtNode, wrap: tuple = ()) -> str:
    """Render one node; wrap lists the kinds that need parentheses here."""
    if n.kind == G.SYMBOL_REF:
        body = n.detail
    elif n.kind == G.LITERAL:
        body = escape_string(n.detail)
    elif n.kind == G.EMPTY:
        body = "#empty"
    elif n.kind == G.ITERATION:
        suffix = {G.STAR: "*", G.PLUS: "+", G.OPT: "?"}[n.detail]
        inner = (G.ALTERNATIVE, G.SEQUENCE, G.ITERATION)
        body = _ref_serialize_node(n.children[0], wrap=inner) + suffix
    elif n.kind == G.SEQUENCE:
        body = " ".join(_ref_serialize_node(c, wrap=(G.ALTERNATIVE, G.SEQUENCE))
                        for c in n.children)
    elif n.kind == G.ALTERNATIVE:
        body = " | ".join(_ref_serialize_node(c, wrap=(G.ALTERNATIVE,)) for c in n.children)
    else:
        raise AssertionError(f"cannot serialize node kind '{n.kind}'")
    if n.kind in wrap:
        body = "(" + body + ")"
    return body


# ---------------------------------------------------------------------------
# Reference store writer: build the whole document as dicts and lists and let
# json.dumps lay it out.  serialize_store must produce the same bytes.


def _ref_value(value):
    if value is None:
        return None
    if isinstance(value, IntValue):
        return {"type": "int", "value": value.value}
    if isinstance(value, StrValue):
        return {"type": "str", "text": value.text}
    if isinstance(value, NameValue):
        return {"type": "name", "name": value.name}
    if isinstance(value, PunctValue):
        return {"type": "punct", "char": value.char}
    if isinstance(value, SeqValue):
        return {"type": "seq", "items": [_ref_value(v) for v in value.items]}
    assert isinstance(value, RecordValue)
    return {"type": "record",
            "attributes": [{"namespace": a.namespace, "name": a.name,
                            "value": _ref_value(a.value)}
                           for a in value.annotation.attributes]}


def reference_serialize_store(store) -> str:
    nodes = []
    for node_id in sorted(store._nodes):
        meta = store.node_meta(node_id)
        nodes.append({"id": node_id, "kind": meta.kind, "detail": meta.detail,
                      "span": list(meta.span), "children": list(meta.children)})
    annotations = []
    for node_id in store.annotated_nodes():
        for attr in store.annotation_for(node_id).attributes:
            prov = attr.provenance
            annotations.append({
                "node": node_id,
                "namespace": attr.namespace,
                "name": attr.name,
                "value": _ref_value(attr.value),
                "provenance": {"aspect": prov.aspect, "rule": prov.rule} if prov else None,
            })
    doc = {"version": 1,
           "grammar": {"root": store.root_id, "nodes": nodes},
           "annotations": annotations}
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Reference pretty-printer: flatten everything into an event list, then run
# a character loop with explicit line handling.


def _ref_program(value) -> list:
    if isinstance(value, StrValue):
        return [("text", value.text)]
    assert isinstance(value, SeqValue)
    out = []
    for item in value.items:
        if isinstance(item, StrValue):
            out.append(("text", item.text))
        else:
            assert isinstance(item, NameValue)
            out.append({"increaseIndent": ("inc",),
                        "decreaseIndent": ("dec",)}[item.name])
    return out


def _attr_value(store, gid: int, name: str):
    for attr in store.annotation_for(gid).attributes:
        if attr.namespace is None and attr.name == name:
            return attr.value
    return None


def _ref_attr(store, gid: int, name: str) -> list | None:
    value = _attr_value(store, gid, name)
    return None if value is None else _ref_program(value)


def reference_chains(tree) -> list:
    """For each leaf in order: (leaf, chain of (gt_id, lo, hi)).

    The chain lists every enclosing derivation step from outermost to the
    leaf itself, with the half-open token-index range each one derived;
    rule applications contribute two links, the defined symbol and the
    chosen production.  Two walks: the first finds where each node's range
    ends, the second copies the enclosing chain for every leaf.
    """
    root = tree.root
    his = {}
    count = 0
    stack: list = [(root, iter(root.children))]
    while stack:
        node, kids = stack[-1]
        for kid in kids:
            if isinstance(kid, ParseLeaf):
                count += 1
            else:
                stack.append((kid, iter(kid.children)))
                break
        else:
            stack.pop()
            his[id(node)] = count
    out: list = []
    chain: list = []
    count = 0
    stack = [(0, iter((root,)))]  # per open node: how many links it added
    while stack:
        links, kids = stack[-1]
        for node in kids:
            if isinstance(node, ParseLeaf):
                out.append((node, chain + [(node.gt_id, count, count + 1)]))
                count += 1
                continue
            hi = his[id(node)]
            chain.append((node.gt_id, count, hi))
            if node.kind == "rule":
                chain.append((node.production_id, count, hi))
                stack.append((2, iter(node.children)))
            else:
                stack.append((1, iter(node.children)))
            break
        else:
            stack.pop()
            del chain[len(chain) - links:]
    return out


def context_lists(contexts) -> list:
    """token_contexts' flat lists as one (opened, closed) pair of lists per
    token, with closed holding (gt_id, lo) pairs."""
    opened, open_at, closed, closed_lo, close_at = contexts
    assert len(open_at) == len(close_at) and open_at[0] == close_at[0] == 0
    assert (open_at[-1], close_at[-1]) == (len(opened), len(closed)) and \
        len(closed_lo) == len(closed)
    return [(opened[open_at[i]:open_at[i + 1]],
             list(zip(closed[close_at[i]:close_at[i + 1]],
                      closed_lo[close_at[i]:close_at[i + 1]])))
            for i in range(len(open_at) - 1)]


def step_counts(root) -> tuple:
    """(all, deriving): derivation steps in a parse tree, two per rule
    application, and those among them that derive at least one token."""
    order, stack = [], [root]
    while stack:  # preorder: every node before its children
        node = stack.pop()
        order.append(node)
        if not isinstance(node, ParseLeaf):
            stack.extend(node.children)
    derives = {}
    every = deriving = 0
    for node in reversed(order):
        if isinstance(node, ParseLeaf):
            steps, derives[id(node)] = 1, True
        else:
            steps = 2 if node.kind == "rule" else 1
            derives[id(node)] = any(derives[id(c)] for c in node.children)
        every += steps
        deriving += steps if derives[id(node)] else 0
    return every, deriving


def effective_whitespace(leaf: ParseLeaf, tree, store):
    """The (before, after) whitespace programs format_tree runs for one leaf
    of the tree, read off reference_chains: the before programs of the links
    that start at the leaf, outermost first, and the after programs of those
    that end at it, innermost first, each decoded and joined; the root's
    defaultBefore or defaultAfter where no link has one."""
    for index, (candidate, chain) in enumerate(reference_chains(tree)):
        if candidate is leaf:
            break
    else:
        raise ValueError("leaf does not belong to tree")

    def joined(gids, name, default):
        values = [_attr_value(store, gid, name) for gid in gids]
        values = [v for v in values if v is not None] or \
            [_attr_value(store, store.root_id, default)]
        return tuple(item for v in values if v is not None
                     for item in prettyprint.decode_whitespace(v))

    return (joined([gid for gid, lo, _hi in chain if lo == index],
                   "before", "defaultBefore"),
            joined([gid for gid, _lo, hi in reversed(chain) if hi == index + 1],
                   "after", "defaultAfter"))


def reference_groups(tree, store) -> list:
    """(span, group) per token: the group of the innermost reference_chains
    link that derives exactly this token and carries a name or string
    group, else plain."""
    out = []
    for index, (leaf, chain) in enumerate(reference_chains(tree)):
        group = "plain"
        for gid, lo, hi in reversed(chain):
            if (lo, hi) == (index, index + 1):
                value = _attr_value(store, gid, "group")
                if isinstance(value, (NameValue, StrValue)):
                    group = value.name if isinstance(value, NameValue) else value.text
                    break
        out.append((leaf.token.span, group))
    return out


def reference_format(tree, store) -> str:
    ga = store.grammar_annotation
    default_before, default_after, unit = [], [], "    "
    if ga is not None:
        for attr in ga.attributes:
            if attr.name == "defaultBefore":
                default_before = _ref_program(attr.value)
            elif attr.name == "defaultAfter":
                default_after = _ref_program(attr.value)
            elif attr.name == "indentUnit":
                unit = attr.value.text
    events = []
    contexts = reference_chains(tree)
    for i, (leaf, chain) in enumerate(contexts):
        if i > 0:
            prev_chain = contexts[i - 1][1]
            after = []
            found = False
            for gid, _lo, hi in reversed(prev_chain):
                if hi == i:
                    prog = _ref_attr(store, gid, "after")
                    if prog is not None:
                        found = True
                        after.extend(prog)
            events.extend(after if found else default_after)
        before = []
        found = False
        for gid, lo, _hi in chain:
            if lo == i:
                prog = _ref_attr(store, gid, "before")
                if prog is not None:
                    found = True
                    before.extend(prog)
        events.extend(before if found else default_before)
        events.append(("tok", leaf.token.text))
    if contexts:
        last = len(contexts) - 1
        after = []
        found = False
        for gid, _lo, hi in reversed(contexts[last][1]):
            if hi == last + 1:
                prog = _ref_attr(store, gid, "after")
                if prog is not None:
                    found = True
                    after.extend(prog)
        events.extend(after if found else default_after)

    out = ""
    level = 0
    line_has_ink = False  # a non-whitespace character was written on this line
    for ev in events:
        if ev == ("inc",):
            level += 1
            continue
        if ev == ("dec",):
            level = max(0, level - 1)
            continue
        for ch in ev[1]:
            if ch == "\n":
                while out and out[-1] in " \t":
                    out = out[:-1]
                out += "\n"
                line_has_ink = False
            elif ch in " \t":
                out += ch
            else:
                if not line_has_ink:
                    out += unit * level
                    line_has_ink = True
                out += ch
    while out and out[-1] in " \t":
        out = out[:-1]
    if out.endswith("\n"):
        while out.endswith("\n") or out[-1:] in (" ", "\t"):
            out = out[:-1]
        out += "\n"
    return out


# ParseNode as the plain dataclass declares it, whose generated __eq__ and
# __repr__ recurse once per tree level; for trees of modest depth only.
_DataclassNode = dataclasses.make_dataclass("ParseNode", [
    ("kind", str), ("gt_id", int), ("children", list),
    ("production_index", object, dataclasses.field(default=None)),
    ("production_id", object, dataclasses.field(default=None))])


def dataclass_node(node):
    """A copy of a parse subtree made of _DataclassNode; leaves stay shared."""
    if isinstance(node, ParseLeaf):
        return node
    return _DataclassNode(node.kind, node.gt_id,
                          [dataclass_node(c) for c in node.children],
                          node.production_index, node.production_id)


def dataclass_repr(node) -> str:
    return repr(dataclass_node(node))


# ---------------------------------------------------------------------------
# Reference tokenizer: every literal and terminal is a candidate at each
# position, ranked by a key tuple.

def reference_tokenize(spec, grammar: G.GrammarTree, text: str) -> list:
    literals = set(G.literal_texts(grammar))
    compiled = [(name, re.compile(rx)) for name, rx in spec.terminals]
    skip_re = re.compile(spec.skip) if spec.skip is not None else None
    tokens = []
    pos = 0
    while True:
        if skip_re is not None:
            while True:
                m = skip_re.match(text, pos)
                if m is None or m.end() == pos:
                    break
                pos = m.end()
        if pos >= len(text):
            return tokens
        # candidate ranking: length, then literal beats terminal, then file order
        best = None
        for lit in literals:
            if text.startswith(lit, pos):
                key = (len(lit), 1, 0)
                if best is None or key > best[0]:
                    best = (key, lit, None)
        for idx, (name, rx) in enumerate(compiled):
            m = rx.match(text, pos)
            if m is not None and m.end() > pos:
                key = (m.end() - pos, 0, -idx)
                if best is None or key > best[0]:
                    best = (key, text[pos:m.end()], name)
        if best is None:
            raise LexError(f"no token matches {escape_string(text[pos:pos + 10])}", pos)
        (length, _, _), matched, terminal = best
        tokens.append(Token(matched, terminal, (pos, pos + length)))
        pos += length


def random_token_text(rng: random.Random, grammar: G.GrammarTree,
                      words: list, pieces: int = 40) -> str:
    """Text glued from the grammar's literals, the given words, blanks and
    now and then a character no fixture lexer accepts."""
    literals = G.literal_texts(grammar)
    out = []
    for _ in range(pieces):
        roll = rng.random()
        if roll < 0.5:
            out.append(rng.choice(literals))
        elif roll < 0.8:
            out.append(rng.choice(words))
        elif roll < 0.98:
            out.append(rng.choice([" ", "  ", "\n", "\t "]))
        else:
            out.append(rng.choice(["@", "#", "$", "\\"]))
    return "".join(out)


# ---------------------------------------------------------------------------
# Large inputs for the fixture grammars.

_MEMBER_SHAPES = ["int f{} ;", "List<String> f{} ;", "Map<K, List<V>>[] f{} ;",
                  "a.b.C<? extends T> f{} ;", "T[][] f{} ;", "double f{} ;"]


def java_class_text(members: int) -> str:
    """A java5.g class whose body declares `members` fields of varied types."""
    body = "\n".join("    " + _MEMBER_SHAPES[i % len(_MEMBER_SHAPES)].format(i)
                     for i in range(members))
    return f"class Big<T> extends Base<T> {{\n{body}\n}}\n"


def nested_arith_text(depth: int) -> str:
    return "(" * depth + "1" + ")" * depth


def deep_grammar_text(depth: int, atom: str = "ID") -> str:
    """s : ((...(ID)*...)*) ; with depth nested iterations."""
    return f"s : {nested_iteration_text(depth, atom)} ;"


def nested_iteration_text(depth: int, atom: str = "ID") -> str:
    return "(" * depth + atom + ")*" * depth


def chain_arith_text(terms: int) -> str:
    return "+".join(["1"] * terms)


# ---------------------------------------------------------------------------
# Random grammars and patterns for the differential matcher tests.

_RULE_NAMES = ["alpha", "beta", "gamma", "delta"]
_TERMINALS = ["ID", "NUM", "STR"]
_LITERALS = ["x", "y", "+", "<", ";"]


def random_grammar_text(rng: random.Random, max_depth: int = 2) -> str:
    """Up to four rules; groups of alternatives nest max_depth deep."""
    names = _RULE_NAMES[:rng.randint(1, 4)]

    def atom(depth: int) -> str:
        roll = rng.random()
        if depth < max_depth and roll < 0.15:
            inner = " | ".join(seq(depth + 1) for _ in range(rng.randint(2, 3)))
            return f"({inner})"
        if roll < 0.35:
            return rng.choice(names)
        if roll < 0.6:
            return rng.choice(_TERMINALS)
        if roll < 0.9:
            text = rng.choice(_LITERALS)
            return f"'{text}'"
        return "#empty"

    def item(depth: int) -> str:
        a = atom(depth)
        if a != "#empty" and rng.random() < 0.3:
            return a + rng.choice("*+?")
        return a

    def seq(depth: int) -> str:
        return " ".join(item(depth) for _ in range(rng.randint(1, 3)))

    rules = []
    for name in names:
        prods = [seq(0) for _ in range(rng.randint(1, 3))]
        rules.append(f"{name} : " + " : ".join(prods) + " ;")
    return "\n".join(rules)


def random_grammar(rng: random.Random, max_nodes: int = 50,
                   max_depth: int = 2) -> G.GrammarTree:
    while True:
        tree = G.parse_grammar(random_grammar_text(rng, max_depth), "<random>")
        if len(tree.by_id) <= max_nodes:
            return tree


def _random_sequence(rng: random.Random, max_depth: int, defined: list,
                     prefix: str):
    """seq(depth): a random sequence pattern whose groups nest max_depth
    deep.  It may refer to the variables in defined, and appends the ones
    it defines there, named prefix1, prefix2, ..."""
    var_count = 0

    def fresh_var() -> str:
        nonlocal var_count
        var_count += 1
        return f"{prefix}{var_count}"

    def atom(depth: int) -> str:
        roll = rng.random()
        if roll < 0.12:
            return ".."
        if roll < 0.22:
            return "#lex"
        if roll < 0.3:
            return "#"
        if roll < 0.36:
            return "#empty"
        if depth < max_depth and roll < 0.46:
            inner = " | ".join(seq(depth + 1) for _ in range(rng.randint(1, 2)))
            if rng.random() < 0.3:
                inner += " | ..."
            return f"({inner})"
        if roll < 0.6:
            return f"'{rng.choice(_LITERALS)}'"
        if roll < 0.8:
            return rng.choice(_TERMINALS)
        return rng.choice(_RULE_NAMES)

    def item(depth: int) -> str:
        prefix = ""
        roll = rng.random()
        if roll < 0.1 and defined:
            return "$" + rng.choice(defined)
        if roll < 0.25:
            var = fresh_var()
            defined.append(var)
            prefix = f"${var}="
        body = atom(depth)
        if body not in ("..", "#empty") and rng.random() < 0.3:
            body += rng.choice("*+?")
        return prefix + body

    def seq(depth: int) -> str:
        return " ".join(item(depth) for _ in range(rng.randint(1, 3)))

    return seq


def random_rule_pattern_text(rng: random.Random, max_depth: int = 2) -> str:
    seq = _random_sequence(rng, max_depth, [], "v")
    symbol = rng.choice(["#"] * 2 + _RULE_NAMES)
    if rng.random() < 0.15:
        return f"{symbol} : {{...}}"
    prods = [seq(0) for _ in range(rng.randint(1, 2))]
    return f"{symbol} : " + " : ".join(prods)


def random_subpattern_text(rng: random.Random, outer, max_depth: int = 2) -> str:
    """A sequence or production pattern that may refer to the variables
    named in outer (an enclosing pattern's) and defines w1, w2, ..."""
    seq = _random_sequence(rng, max_depth, list(outer), "w")
    return rng.choice(["", ": "]) + seq(0)


def long_grammar_text(rng: random.Random, max_items: int = 40) -> str:
    """Rules whose productions run up to max_items items, mostly plain
    names, terminals and literals, with some groups and iterations."""
    names = _RULE_NAMES[:rng.randint(1, 4)]

    def atom() -> str:
        roll = rng.random()
        if roll < 0.3:
            return rng.choice(names)
        if roll < 0.55:
            return rng.choice(_TERMINALS)
        return f"'{rng.choice(_LITERALS)}'"

    def item() -> str:
        roll = rng.random()
        if roll < 0.08:
            return "(" + " | ".join(atom() for _ in range(rng.randint(2, 3))) + ")"
        if roll < 0.14:
            return "(" + " ".join(atom() for _ in range(2)) + ")" + rng.choice("*+?")
        if roll < 0.22:
            return atom() + rng.choice("*+?")
        return atom()

    rules = []
    for name in names:
        prods = [" ".join(item() for _ in range(rng.randint(1, max_items)))
                 for _ in range(rng.randint(1, 2))]
        rules.append(f"{name} : " + " : ".join(prods) + " ;")
    return "\n".join(rules)


# names and literals that long_grammar_text never writes
_ABSENT = ["omega", "ZED", "'z'", "'>'"]
_SUFFIX = {G.STAR: "*", G.PLUS: "+", G.OPT: "?"}


def _leaf_text(node: G.GtNode) -> str | None:
    if node.kind == G.SYMBOL_REF:
        return node.detail
    if node.kind == G.LITERAL:
        return f"'{node.detail}'"
    if node.kind == G.ITERATION:
        inner = _leaf_text(node.children[0])
        return None if inner is None else inner + _SUFFIX[node.detail]
    return None


def gap_sequence_text(rng: random.Random, tree: G.GrammarTree, gaps: int) -> str:
    """A sequence pattern with the given number of '..' gaps around 1-4
    items taken in order from one production of tree, so that it often
    matches; an item is sometimes swapped for a wildcard or for a name or
    literal absent from tree, bound to a variable, or a variable reuse."""
    prod = rng.choice([n for n in G.iter_nodes(tree) if n.kind == G.PRODUCTION])
    texts = [t for t in map(_leaf_text, prod.children) if t is not None] or ["#"]
    picks = sorted(rng.sample(range(len(texts)), min(len(texts), rng.randint(1, 4))))
    defined = []
    items = []
    for i in picks:
        body = texts[i]
        roll = rng.random()
        if roll < 0.1 and defined:
            items.append("$" + rng.choice(defined))
            continue
        if roll < 0.25:
            body = rng.choice(_ABSENT)
        elif roll < 0.35:
            body = rng.choice(["#", "#lex"])
        if rng.random() < 0.2:
            defined.append(f"v{len(defined) + 1}")
            body = f"${defined[-1]}={body}"
        items.append(body)
    slots = [0] * (len(items) + 1)  # gaps before each item and at the end
    for _ in range(gaps):
        slots[rng.randrange(len(slots))] += 1
    out = [".."] * slots[0]
    for item, after in zip(items, slots[1:]):
        out += [item] + [".."] * after
    return " ".join(out)


def results_as_sets(results) -> set:
    out = set()
    for r in results:
        bindings = tuple(sorted((var, ids) for var, ids in r.bindings.items()))
        out.add((r.node, bindings))
    return out


# ---------------------------------------------------------------------------
# Reference notation parsers: recursive descent straight over characters with
# a character cursor, which lexes each notation in context (e.g. '..' vs
# '...' vs '.') through mark/restore lookahead.  parse_annotation,
# parse_rule_pattern, parse_subpattern and parse_aspect must build the same
# values and raise the same errors, with two exceptions each pinned by its
# own test: the package gives variable-scope and duplicate-attribute errors
# the text's source and position, which these leave out.  Integers are ASCII
# digits here as in the package.  Everything recurses once per nesting
# level, so keep the inputs shallow.

_NAME_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_NAME_CONT = _NAME_START | set("0123456789")
_REF_ESCAPES = {"n": "\n", "t": "\t", "\\": "\\", "'": "'"}


class Cursor:
    def __init__(self, text: str, source: str = "<string>"):
        self.text = text
        self.pos = 0
        self.source = source

    def location(self, pos: int | None = None) -> tuple[int, int]:
        return line_col(self.text, self.pos if pos is None else pos)

    def error(self, message: str, pos: int | None = None):
        line, col = self.location(pos)
        raise NotationError(message, self.source, line, col)

    def skip_ws(self) -> None:
        t, n = self.text, len(self.text)
        i = self.pos
        while i < n:
            c = t[i]
            if c in " \t\r\n":
                i += 1
            elif c == "/" and i + 1 < n and t[i + 1] == "/":
                while i < n and t[i] != "\n":
                    i += 1
            else:
                break
        self.pos = i

    def eof(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def mark(self) -> int:
        return self.pos

    def restore(self, mark: int) -> None:
        self.pos = mark

    def peek_char(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def accept(self, lexeme: str) -> bool:
        self.skip_ws()
        if self.text.startswith(lexeme, self.pos):
            self.pos += len(lexeme)
            return True
        return False

    def expect(self, lexeme: str, context: str = "") -> None:
        if not self.accept(lexeme):
            where = f" in {context}" if context else ""
            self.error(f"expected '{lexeme}'{where}")

    def accept_dots(self, count: int) -> bool:
        if self.dot_run() == count:
            self.pos += count
            return True
        return False

    def dot_run(self) -> int:
        self.skip_ws()
        i, t, n = self.pos, self.text, len(self.text)
        run = 0
        while i + run < n and t[i + run] == ".":
            run += 1
        return run

    def accept_word(self, word: str) -> bool:
        self.skip_ws()
        end = self.pos + len(word)
        if self.text.startswith(word, self.pos):
            if end >= len(self.text) or self.text[end] not in _NAME_CONT:
                self.pos = end
                return True
        return False

    def accept_name(self) -> str | None:
        self.skip_ws()
        t, n = self.text, len(self.text)
        i = self.pos
        if i < n and t[i] in _NAME_START:
            j = i + 1
            while j < n and t[j] in _NAME_CONT:
                j += 1
            self.pos = j
            return t[i:j]
        return None

    def expect_name(self, what: str = "name") -> str:
        name = self.accept_name()
        if name is None:
            self.error(f"expected {what}")
        return name

    def accept_int(self) -> int | None:
        self.skip_ws()
        t, n = self.text, len(self.text)
        i = self.pos
        j = i
        while j < n and t[j] in "0123456789":
            j += 1
        if j > i:
            self.pos = j
            return int(t[i:j])
        return None

    def accept_string(self) -> str | None:
        self.skip_ws()
        t, n = self.text, len(self.text)
        if self.pos >= n or t[self.pos] != "'":
            return None
        start = self.pos
        i = self.pos + 1
        out = []
        while True:
            if i >= n or t[i] == "\n":
                self.error("unterminated string", start)
            c = t[i]
            if c == "'":
                self.pos = i + 1
                return "".join(out)
            if c == "\\":
                if i + 1 >= n:
                    self.error("unterminated string", start)
                esc = t[i + 1]
                if esc not in _REF_ESCAPES:
                    self.error(f"unknown escape '\\{esc}'", i)
                out.append(_REF_ESCAPES[esc])
                i += 2
            else:
                out.append(c)
                i += 1


def reference_parse_annotation(text: str, source: str = "<string>") -> Annotation:
    cur = Cursor(text, source)
    ann = _ref_annotation(cur)
    cur.skip_ws()
    if not cur.eof():
        raise cur.error("unexpected text after annotation")
    return ann


def _ref_annotation(cur: Cursor) -> Annotation:
    if cur.accept("."):
        return Annotation((_ref_attribute(cur),))
    cur.expect("{", "annotation")
    attrs = []
    if not cur.accept("}"):
        attrs.append(_ref_attribute(cur))
        while cur.accept(";"):
            if cur.peek_char() in ("}", ";"):
                continue
            attrs.append(_ref_attribute(cur))
        cur.expect("}", "annotation")
    return Annotation(tuple(attrs))


def _ref_attribute(cur: Cursor) -> Attribute:
    loc = cur.location()
    namespace = None
    name = cur.accept_name()
    if name is None:
        raise cur.error("expected attribute name")
    if cur.accept(":"):
        namespace = name
        cur.skip_ws()
        loc = cur.location()
        name = cur.expect_name("attribute name")
    value = None
    if cur.accept("="):
        value = _ref_attr_value(cur)
    return Attribute(name, namespace, value, loc=loc)


def _ref_attr_value(cur: Cursor):
    if cur.accept("{{"):
        return _ref_seq_value(cur)
    c = cur.peek_char()
    if c == "{" or c == ".":
        return RecordValue(_ref_annotation(cur))
    n = cur.accept_int()
    if n is not None:
        return IntValue(n)
    s = cur.accept_string()
    if s is not None:
        return StrValue(s)
    name = cur.accept_name()
    if name is not None:
        return NameValue(name)
    raise cur.error("expected a value")


def _ref_seq_value(cur: Cursor) -> SeqValue:
    items = []
    while True:
        if cur.accept("}}"):
            return SeqValue(tuple(items))
        c = cur.peek_char()
        if not c:
            raise cur.error("unterminated '{{' sequence")
        if c.isdigit() or c == "'" or c == "{" or c.isalpha() or c == "_":
            items.append(_ref_attr_value(cur))
        elif c in PUNCTUATION:
            cur.accept(c)
            items.append(PunctValue(c))
        else:
            raise cur.error(f"unexpected character {c!r} in sequence")


def reference_parse_rule_pattern(text: str, source: str = "<pattern>") -> P.RulePattern:
    cur = Cursor(text, source)
    pat = _ref_rule_pattern(cur)
    cur.accept(";")
    cur.skip_ws()
    if not cur.eof():
        cur.error("unexpected text after pattern")
    return pat


def _ref_rule_pattern(cur: Cursor) -> P.RulePattern:
    cur.skip_ws()
    start = cur.pos
    var = _ref_var(cur)
    symbol = _ref_symbol_pattern(cur)
    productions = []
    while True:
        mark = cur.mark()
        pvar = _ref_var(cur)
        if not cur.accept(":"):
            cur.restore(mark)
            break
        productions.append(_ref_production_pattern(cur, pvar))
    if any(isinstance(p, P.ProdsWildcard) for p in productions) and len(productions) > 1:
        cur.error("'{...}' must be the only production pattern", start)
    end = cur.pos
    pat = P.RulePattern(var, symbol, tuple(productions), cur.text[start:end].strip(), {})
    pat.var_kinds.update(reference_collect_vars(pat))
    return pat


def reference_parse_subpattern(text: str, source: str = "<pattern>"):
    cur = Cursor(text, source)
    pat = _ref_subpattern_body(cur)
    cur.skip_ws()
    if not cur.eof():
        cur.error("unexpected text after pattern")
    return pat


def _ref_subpattern_body(cur: Cursor):
    cur.skip_ws()
    mark = cur.mark()
    pvar = _ref_var(cur)
    if cur.accept(":"):
        return _ref_production_pattern(cur, pvar)
    cur.restore(mark)
    return _ref_alternative_pattern(cur)


def _ref_var(cur: Cursor) -> str | None:
    mark = cur.mark()
    if cur.accept("$"):
        name = cur.accept_name()
        if name is not None and cur.accept("="):
            return name
    cur.restore(mark)
    return None


def _ref_symbol_pattern(cur: Cursor):
    cur.skip_ws()
    mark = cur.mark()
    if cur.accept_word("#lex") or cur.accept_word("#empty"):
        cur.error("expected a rule name or '#'", mark)
    if cur.accept("#"):
        return P.AnySym()
    name = cur.accept_name()
    if name is None:
        cur.error("expected a rule name or '#'")
    return P.Named(name)


def _ref_production_pattern(cur: Cursor, lead_var: str | None):
    mark = cur.mark()
    wvar = _ref_var(cur)
    if _ref_prods_wildcard(cur):
        if lead_var is not None:
            cur.error("a variable before ':' cannot apply to '{...}'", mark)
        return P.ProdsWildcard(wvar)
    cur.restore(mark)
    return P.ProdPat(lead_var, _ref_alternative_pattern(cur))


def _ref_prods_wildcard(cur: Cursor) -> bool:
    mark = cur.mark()
    if cur.accept("{") and cur.accept_dots(3) and cur.accept("}"):
        return True
    cur.restore(mark)
    return False


def _ref_alternative_pattern(cur: Cursor):
    members = [_ref_sequence_pattern(cur)]
    rest = None
    while cur.accept("|"):
        if rest is not None:
            cur.error("'...' must be the last alternative")
        mark = cur.mark()
        rvar = _ref_var(cur)
        if cur.accept_dots(3):
            rest = P.RestPat(rvar)
            continue
        cur.restore(mark)
        members.append(_ref_sequence_pattern(cur))
    if len(members) == 1 and rest is None:
        return members[0]
    return P.AltPat(tuple(members), rest)


def _ref_sequence_pattern(cur: Cursor):
    items = [_ref_iteration_pattern(cur)]
    while _ref_at_pattern_atom(cur):
        items.append(_ref_iteration_pattern(cur))
    if len(items) == 1:
        return items[0]
    return P.SeqPat(tuple(items))


def _ref_at_pattern_atom(cur: Cursor) -> bool:
    c = cur.peek_char()
    if not c:
        return False
    if c == ".":
        return cur.dot_run() == 2
    if c == "$":
        mark = cur.mark()
        ok = cur.accept("$") and cur.accept_name() is not None
        if ok:
            after = cur.peek_char()
            if after == "{" or (after == "." and cur.dot_run() != 2):
                ok = False
        cur.restore(mark)
        return ok
    return c.isalpha() or c in "_'(#"


def _ref_iteration_pattern(cur: Cursor):
    cur.skip_ws()
    var = _ref_var(cur)
    atom = _ref_atomic_pattern(cur)
    cur.skip_ws()
    c = cur.text[cur.pos] if cur.pos < len(cur.text) else ""
    if c and c in "*+?":
        cur.pos += 1
        atom = P.IterPat(atom, {"*": G.STAR, "+": G.PLUS, "?": G.OPT}[c])
    if var is not None:
        return P.Bind(var, atom)
    return atom


def _ref_atomic_pattern(cur: Cursor):
    cur.skip_ws()
    if cur.accept("("):
        inner = _ref_alternative_pattern(cur)
        cur.expect(")")
        return inner
    if cur.accept_dots(2):
        return P.Gap()
    if cur.accept_word("#empty"):
        return P.EmptyPat()
    if cur.accept_word("#lex"):
        return P.AnyLex()
    if cur.accept("#"):
        return P.AnySym()
    if cur.accept("$"):
        return P.VarRef(cur.expect_name("variable name"))
    text = cur.accept_string()
    if text is not None:
        if text == "":
            cur.error("empty literal pattern")
        return P.LitPat(text)
    name = cur.accept_name()
    if name is not None:
        return P.Named(name)
    cur.error("expected a pattern element")


def reference_collect_vars(pattern, defined: dict | None = None) -> dict:
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
        if isinstance(p, P.RulePattern):
            define(p.var, P.SYMBOL_VAR if isinstance(p.symbol, (P.AnySym, P.Named))
                   else P.STRUCT_VAR)
            for prod in p.productions:
                walk(prod)
        elif isinstance(p, P.ProdPat):
            define(p.var, P.STRUCT_VAR)
            walk(p.body)
        elif isinstance(p, P.ProdsWildcard):
            define(p.var, P.STRUCT_VAR)
        elif isinstance(p, P.Bind):
            define(p.name, P.SYMBOL_VAR if isinstance(p.inner, (P.AnySym, P.Named))
                   else P.STRUCT_VAR)
            walk(p.inner)
        elif isinstance(p, P.VarRef):
            if p.name not in known:
                raise NotationError(f"variable '${p.name}' is not defined before use")
        elif isinstance(p, P.SeqPat):
            for it in p.items:
                walk(it)
        elif isinstance(p, P.AltPat):
            for m in p.members:
                walk(m)
            if p.rest is not None:
                define(p.rest.var, P.STRUCT_VAR)
        elif isinstance(p, P.IterPat):
            walk(p.inner)

    walk(pattern)
    return seen


def reference_parse_aspect(text: str, source: str = "<aspect>") -> A.Aspect:
    cur = Cursor(text, source)
    grammar_annotation = None
    if cur.peek_char() in ("{", "."):
        grammar_annotation = _ref_annotation(cur)
    rules = []
    while True:
        cur.skip_ws()
        if cur.eof():
            break
        rules.append(_ref_annotation_rule(cur))
    return A.Aspect(grammar_annotation, tuple(rules))


def _ref_multiplicity(cur: Cursor):
    if not cur.accept("["):
        return None
    pos = cur.mark()
    lo = _ref_int_or_inf(cur)
    if cur.accept(".."):
        hi = _ref_int_or_inf(cur)
        if lo is None:
            raise cur.error("multiplicity lower bound must be an integer", pos)
    elif lo is None:
        lo, hi = 0, None
    else:
        hi = lo
    cur.expect("]", "multiplicity")
    try:
        return A.Multiplicity(lo, hi)
    except ValueError as exc:
        raise cur.error(str(exc), pos)


def _ref_int_or_inf(cur: Cursor):
    if cur.accept("*"):
        return None
    n = cur.accept_int()
    if n is None:
        raise cur.error("expected an integer or '*'")
    return n


def _ref_annotation_rule(cur: Cursor) -> A.AnnotationRule:
    cur.skip_ws()
    loc = cur.location()
    mult = _ref_multiplicity(cur) or A.DEFAULT_MULTIPLICITY
    pattern = _ref_rule_pattern(cur)
    subrules = _ref_subrules(cur, dict(pattern.var_kinds))
    if subrules:
        cur.accept(";")
    elif not cur.accept(";"):
        cur.skip_ws()
        if not cur.eof():
            raise cur.error("expected advice or ';' after rule pattern")
    return A.AnnotationRule(mult, pattern, subrules, loc)


def _ref_subrules(cur: Cursor, kinds: dict) -> tuple:
    items = []
    while True:
        if cur.accept("@"):
            items.append(_ref_subpattern(cur, kinds))
            continue
        var = _ref_at_variable_annotation(cur)
        if var is None:
            return tuple(items)
        ann = _ref_annotation(cur)
        cur.expect(";", "variable annotation")
        if var not in kinds:
            raise cur.error(f"variable '${var}' is not defined by an enclosing pattern")
        items.append(A.VariableAnnotation(var, ann))


def _ref_at_variable_annotation(cur: Cursor) -> str | None:
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


def _ref_subpattern(cur: Cursor, enclosing: dict) -> A.Subpattern:
    mult = _ref_multiplicity(cur) or A.DEFAULT_MULTIPLICITY
    cur.skip_ws()
    start = cur.pos
    loc = cur.location(start)
    pattern = _ref_subpattern_body(cur)
    text = cur.text[start:cur.pos].strip()
    kinds = {**enclosing, **reference_collect_vars(pattern, defined=enclosing)}
    cur.expect(":", "subpattern")
    c = cur.peek_char()
    if c == "{" or c == ".":
        ann = _ref_annotation(cur)
        cur.expect(";", "subpattern advice")
        return A.Subpattern(mult, pattern, text, ann, (), kinds, loc)
    nested = _ref_subrules(cur, dict(kinds))
    if nested:
        cur.accept(";")
    elif not cur.accept(";"):
        cur.skip_ws()
        if not cur.eof():
            raise cur.error("expected annotation, advice, or ';' in subpattern")
    return A.Subpattern(mult, pattern, text, None, nested, kinds, loc)
