"""Chart parser that interprets a grammar tree over a token stream.

The grammar tree is compiled, in one pass over its pre-order table, into
int state tables: every symbol definition, alternative, group, iteration
and empty node is a nonterminal named by its grammar-tree id, with a
small set of productions whose elements remember which grammar-tree node
they came from.  An Earley recognizer runs over the tokens, then one
parse tree is extracted deterministically: earlier productions and
earlier alternative branches are preferred, and nonterminal spans are
tried shortest-first.

No step recurses, so grammar nesting and input size are bounded by
memory only.  The compiled tables are built once per grammar tree and
kept while the tree lives.  The recognizer's items are ints; it indexes
the items of each Earley set by the nonterminal they wait on, so a
completion advances just those items, and a prediction looks one token
ahead, so it adds only the productions that can start with that token or
that the chart needs for an empty completion.  Extraction reads
split points from the chart instead of searching for them (Scott,
*SPPF-style parsing from Earley recognisers*, 2008): each element takes
the shortest end from which the rest of its production can still reach
the end of its span.  Grammars in which a search for a nonterminal's
span can come back to that same span keep a backtracking search, because
there the cycle guard makes the chosen tree depend on the order of that
search.

The resulting tree mirrors the grammar's own shape.  Rule applications
carry the defined symbol's node id and production index; alternatives,
groups, and iterations appear as structural nodes; every leaf records
the literal or symbol-reference node it instantiates.  That provenance
is what lets the backends look up woven annotations per token.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from . import grammar as g
from .errors import NotationError, ParseError
from .lexer import Token


@dataclass(frozen=True)
class ParseLeaf:
    gt_id: int  # the Literal or SymbolRef node this token instantiates
    token: Token


@dataclass(eq=False, repr=False)
class ParseNode:
    """One derivation step; kind is rule, ref, alt, seq, iter, or empty.

    Equality and repr mean what the dataclass-generated ones mean, but
    walk the tree with an explicit stack, so any depth compares and prints.
    """

    kind: str
    gt_id: int
    children: list
    production_index: Optional[int] = None
    production_id: Optional[int] = None

    def _head(self) -> tuple:
        return self.kind, self.gt_id, self.production_index, self.production_id

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a._head() != b._head() or len(a.children) != len(b.children):
                return False
            for x, y in zip(a.children, b.children):
                if x is y:
                    continue
                if isinstance(x, ParseNode) and x.__class__ is y.__class__:
                    stack.append((x, y))
                elif x != y:
                    return False
        return True

    def __repr__(self) -> str:
        out = []
        stack: list = [self]  # what is left to print: nodes, leaves and text
        while stack:
            item = stack.pop()
            if isinstance(item, ParseNode):
                out.append(f"{item.__class__.__qualname__}(kind={item.kind!r}, "
                           f"gt_id={item.gt_id!r}, children=[")
                stack.append(f"], production_index={item.production_index!r}, "
                             f"production_id={item.production_id!r})")
                for j, kid in enumerate(reversed(item.children)):
                    stack += (", ", kid) if j else (kid,)
            else:
                out.append(item if isinstance(item, str) else repr(item))
        return "".join(out)


@dataclass
class ParseTree:
    root: ParseNode
    grammar: g.GrammarTree
    tokens: List[Token]
    # what token_contexts returns, kept from its first call on this tree
    contexts: Optional[list] = field(default=None, compare=False, repr=False)


def leaves(tree: ParseTree) -> List[ParseLeaf]:
    return [leaf for leaf, _, _ in token_contexts(tree)]


def token_contexts(tree: ParseTree) -> List[Tuple[ParseLeaf, list, list]]:
    """For each leaf in order: (leaf, opened, closed).

    ``opened`` holds the grammar-tree ids of the derivation steps whose
    token range starts at this leaf, outermost first, ending with the
    leaf's own id; ``closed`` holds ``(gt_id, lo)`` for the steps whose
    range ends at this leaf, innermost first, starting with the leaf's
    own, where ``lo`` is the index of the step's first token.  A rule
    application is two steps: the defined symbol, then the chosen
    production.  Each step that derives a token appears once in each
    list kind; steps that derive nothing appear in neither.

    The tree is walked once, on the first call; the result is kept on the
    tree, so both backends share it.  Every call returns the same lists:
    callers must not mutate them, nor the tree after the first call.
    """
    if tree.contexts is None:
        tree.contexts = _walk_contexts(tree.root)
    return tree.contexts


def _walk_contexts(root: ParseNode) -> List[Tuple[ParseLeaf, list, list]]:
    out: list = []
    pending: list = []  # ids opened since the last leaf
    count = 0
    stack: list = [((), iter((root,)), 0)]  # (ids, children, lo)
    while stack:
        ids, kids, lo = stack[-1]
        for node in kids:
            if isinstance(node, ParseLeaf):
                pending.append(node.gt_id)
                out.append((node, pending, [(node.gt_id, count)]))
                pending = []
                count += 1
                continue
            ids = (node.gt_id, node.production_id) if node.kind == "rule" \
                else (node.gt_id,)
            pending.extend(ids)
            stack.append((ids, iter(node.children), count))
            break
        else:
            stack.pop()
            if count > lo:
                out[-1][2].extend((gid, lo) for gid in reversed(ids))
            elif ids:  # derived nothing: its ids are the last ones opened
                del pending[-len(ids):]
    return out


# ---------------------------------------------------------------------------
# Compilation of the grammar tree into state tables


class _Compiled:
    """The grammar's productions as state tables, in one pass over its nodes.

    A nonterminal is the grammar-tree id of a symbol definition, or of an
    alternative, sequence, iteration or empty node; a terminal symbol gets
    a negative code.  A symbol definition has one production per grammar
    production, an alternative one per branch, a sequence one, an empty
    node one with no elements, and an iteration two: star gives empty and
    step, plus one and step, opt empty and one, where step is the
    iteration itself followed by its child.

    A state is a production with a dot before one of its elements or at
    its end.  The states of a production are consecutive, so advancing
    the dot adds one; `starts[nt]` holds the first state of each
    production of nonterminal `nt`, in order.  Per state: `after` is the
    nonterminal after the dot, the code of the terminal symbol after it,
    or None when the dot is at the end; `gt` is the grammar-tree id of the
    element after the dot and `ref` tells whether that element is a symbol
    reference, which before a nonterminal means a rule reference; `skip`
    tells whether it is a nullable nonterminal.  `lhs`,
    `bit`, `tag` and `size` hold, for every state of a production, its
    nonterminal, its bit among that nonterminal's productions, the
    (kind, gt_id, production_index, production_id) of the parse node it
    builds, and its number of elements.

    `first[nt]` is the FIRST set of a nonterminal: the terminal codes its
    derivations can start with.  `lead[s]`, by a production's first state,
    is that production's FIRST set, or None when a prediction must add the
    production before any token: it derives nothing, or predicting it
    predicts a nullable nonterminal, whose empty completion the chart
    records whatever follows.
    """

    def __init__(self, tree: g.GrammarTree):
        self.codes: Dict[tuple, int] = {}
        self.starts: List[Optional[List[int]]] = [None] * len(tree.by_id)
        self.after: list = []
        self.gt: List[Optional[int]] = []
        self.ref: List[bool] = []
        self.lhs: List[int] = []
        self.bit: List[int] = []
        self.tag: List[tuple] = []
        self.size: List[int] = []
        firsts: List[int] = []  # the first state of every production
        for node in g.iter_nodes(tree):
            nt, kind = node.id, node.kind
            if kind == g.SYMBOL_DEF:
                prods = [(p.children, ("rule", nt, i, p.id))
                         for i, p in enumerate(node.children)]
            elif kind == g.ALTERNATIVE:
                prods = [((c,), ("alt", nt, None, None)) for c in node.children]
            elif kind == g.SEQUENCE:
                prods = [(node.children, ("seq", nt, None, None))]
            elif kind == g.ITERATION:
                empty = ((), ("iter", nt, None, None))
                one = (node.children, ("iter", nt, None, None))
                step = ((node,) + node.children, ("step", nt, None, None))
                prods = {g.STAR: [empty, step], g.PLUS: [one, step],
                         g.OPT: [empty, one]}[node.detail]
            elif kind == g.EMPTY:
                prods = [((), ("empty", nt, None, None))]
            else:
                continue
            self.starts[nt] = []
            for index, (elems, tag) in enumerate(prods):
                self.starts[nt].append(len(self.after))
                firsts.append(len(self.after))
                for elem in elems:
                    self.after.append(self._symbol(tree, elem))
                    self.gt.append(elem.id)
                    self.ref.append(elem.kind == g.SYMBOL_REF)
                self.after.append(None)
                self.gt.append(None)
                self.ref.append(False)
                m = len(elems)
                self.lhs += [nt] * (m + 1)
                self.bit += [1 << index] * (m + 1)
                self.tag += [tag] * (m + 1)
                self.size += [m] * (m + 1)
        self.display = {code: _sym_display(sym) for sym, code in self.codes.items()}

        # nullable nonterminals, to fixpoint; a production's elements mostly
        # have higher ids than its nonterminal, so walk the productions last
        # to first.  Terminal codes are negative and never nullable.
        after, lhs, size = self.after, self.lhs, self.size
        nullable = self.nullable = set()
        changed = True
        while changed:
            changed = False
            for s in reversed(firsts):
                if lhs[s] not in nullable and all(a in nullable for a in after[s:s + size[s]]):
                    nullable.add(lhs[s])
                    changed = True
        self.skip = [a in nullable for a in after]

        # FIRST sets, to fixpoint the same way
        first = self.first = {lhs[s]: set() for s in firsts}
        changed = True
        while changed:
            changed = False
            for s in reversed(firsts):
                into = first[lhs[s]]
                count = len(into)
                for a in after[s:s + size[s]]:
                    if a < 0:
                        into.add(a)
                        break
                    into |= first[a]
                    if a not in nullable:
                        break
                changed |= len(into) != count

        # nonterminals whose prediction predicts a nullable one, through the
        # first elements of their productions
        wakes = set()
        changed = True
        while changed:
            changed = False
            for s in reversed(firsts):
                a = after[s]
                if lhs[s] not in wakes and a is not None and a >= 0 \
                        and (a in nullable or a in wakes):
                    wakes.add(lhs[s])
                    changed = True
        # a production that starts with a non-nullable element has that
        # element's FIRST set
        lead: Dict[int, Optional[set]] = {}
        for s in firsts:
            a = after[s]
            if a is None or a >= 0 and (a in nullable or a in wakes):
                lead[s] = None
            else:
                lead[s] = {a} if a < 0 else first[a]
        self.lead = lead
        self._predicted: Dict[int, list] = {}

        # unit links: a production of K tries one of its nonterminals over K's
        # whole span when the elements before it are nullable, whatever follows
        # (a search derives each candidate before it looks at the rest); the
        # extractor's cycle guard can fire only if these links form a cycle.
        # A link from K to itself with a non-nullable rest (K : K ')' ...) only
        # guards a candidate that could never complete, so it is left out.
        links: Dict[int, set] = {lhs[s]: set() for s in firsts}
        for s in firsts:
            elems = after[s:s + size[s]]
            for j, a in enumerate(elems):
                if a >= 0 and (a != lhs[s] or all(b in nullable for b in elems[j + 1:])):
                    links[lhs[s]].add(a)
                if a not in nullable:
                    break
        # peel off nonterminals without incoming links; what remains lies on
        # a cycle
        incoming = {nt: 0 for nt in links}
        for targets in links.values():
            for nt in targets:
                incoming[nt] += 1
        free = [nt for nt, count in incoming.items() if count == 0]
        while free:
            for nt in links.pop(free.pop()):
                incoming[nt] -= 1
                if incoming[nt] == 0:
                    free.append(nt)
        self.cyclic = bool(links)  # a search may try a nonterminal below itself over one span

    def predicted(self, code: int) -> list:
        """Per nonterminal, the first states of the productions that a
        prediction before a token of this code adds: those whose `lead`
        is None or holds the code.  No other production can scan the token,
        complete before it or lead to a completion before it.  Built on the
        first use of each code."""
        table = self._predicted.get(code)
        if table is None:
            lead = self.lead
            table = self._predicted[code] = [
                starts and [s for s in starts if lead[s] is None or code in lead[s]]
                for starts in self.starts]
        return table

    def _symbol(self, tree: g.GrammarTree, elem: g.GtNode) -> int:
        """The nonterminal or terminal code an element stands for."""
        if elem.kind == g.LITERAL:
            sym = ("lit", elem.detail)
        elif elem.kind == g.SYMBOL_REF and elem.is_terminal_ref():
            sym = ("term", elem.detail)
        elif elem.kind == g.SYMBOL_REF:
            return tree.rule_index[elem.detail].id
        else:
            return elem.id
        return self.codes.setdefault(sym, -1 - len(self.codes))


# ---------------------------------------------------------------------------
# Recognition


def _sym_display(sym: tuple) -> str:
    return f"'{sym[1]}'" if sym[0] == "lit" else sym[1]


def _token_codes(cg: _Compiled, tokens: List[Token]) -> List[int]:
    """The terminal code each token matches, or 0 when it matches none."""
    codes = cg.codes
    return [codes.get(("lit", t.text) if t.terminal is None else ("term", t.terminal), 0)
            for t in tokens]


def _recognize(cg: _Compiled, start: int, tokens: List[Token], codes: List[int]):
    """Run the recognizer; return the chart's completions or raise ParseError.

    Completions come back as two tables over nonterminal indexes:
    `ends[nt * (n + 1) + origin]` maps each end, in ascending order, to
    the bit set of the nonterminal's productions that derive the tokens
    from origin to that end, and `origins[end][nt]` lists those origins.
    An item is the int `state * (n + 1) + origin`, so advancing its dot
    adds n + 1.  An Earley set is dropped once the next one is built, and
    only the items waiting on a nonterminal stay, indexed by that
    nonterminal, until the parse ends.

    A prediction looks one token ahead (`_Compiled.predicted`).  The
    productions it leaves out could add nothing to either table: they can
    neither scan the token nor lead to a completion before it.  So both tables
    hold exactly what predicting every production would give.  A failure
    reports what such a set would expect: the terminals after a dot in the
    set, and the FIRST sets of the nonterminals predicted in it.

    Only an item whose dot follows a nonterminal can be reached twice in
    one set, by a completion or by skipping a nullable nonterminal, so only
    those are kept in `seen`.  A production's first state is reached only
    by predicting its nonterminal, once per set; the start symbol counts as
    predicted in set 0.
    """
    after, lhs, bit, skip = cg.after, cg.lhs, cg.bit, cg.skip
    n = len(tokens)
    width = n + 1
    ends: Dict[int, Dict[int, int]] = {}
    origins: List[Dict[int, List[int]]] = []
    waiters: List[Dict[int, list]] = []  # per set: nonterminal -> advanced items
    items = [s * width for s in cg.predicted(codes[0] if n else 0)[start]]
    for i in range(width):
        seen = set()
        waiting: Dict[int, list] = {start: []} if i == 0 else {}
        waiters.append(waiting)
        done: Dict[int, List[int]] = {}
        origins.append(done)
        code = codes[i] if i < n else 0
        predicted = cg.predicted(code)
        scanned = []
        append = items.append
        for item in items:  # items grows while it is walked
            state = item // width
            a = after[state]
            if a is None:
                nt = lhs[state]
                origin = item - state * width
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
                        append(item)
            elif a >= 0:
                item += width
                wait = waiting.get(a)
                if wait is None:
                    waiting[a] = [item]
                    for s in predicted[a]:
                        append(s * width + i)
                else:
                    wait.append(item)
                # a nullable nonterminal may already have completed here
                # (Aycock & Horspool, Practical Earley Parsing, 2002)
                if skip[state] and item not in seen:
                    seen.add(item)
                    append(item)
            elif a == code:
                scanned.append(item + width)
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
    expected = {after[item // width] for item in items}
    for nt in waiting:
        expected |= cg.first[nt]
    raise ParseError(what, position, tuple(sorted(
        cg.display[a] for a in expected if a is not None and a < 0)))


# ---------------------------------------------------------------------------
# Deterministic extraction

def _copy(node: ParseNode) -> ParseNode:
    """A fresh copy of a parse subtree; leaves are immutable and stay shared."""
    top = ParseNode(node.kind, node.gt_id, list(node.children),
                    node.production_index, node.production_id)
    stack = [top]
    while stack:
        kids = stack.pop().children
        for j, kid in enumerate(kids):
            if isinstance(kid, ParseNode):
                kids[j] = kid = ParseNode(kid.kind, kid.gt_id, list(kid.children),
                                          kid.production_index, kid.production_id)
                stack.append(kid)
    return top


class _Extractor:
    """Picks one derivation per nonterminal span and builds its nodes.

    The preferred derivation of a span takes the first production that
    derives it, and within it, from left to right, the shortest span of
    each element that lets the rest of the production complete.  A span
    that is already being derived further up would be a cyclic unit
    derivation: it fails (a guard hit) and the search tries another shape.
    Both extractors below keep pending derivations on an explicit stack.
    """

    def __init__(self, cg: _Compiled, tokens, codes, ends, origins):
        self.cg = cg
        self.tokens = tokens
        self.codes = codes
        self.ends = ends
        self.origins = origins
        self.width = len(tokens) + 1
        self.memo: dict = {}  # (nt, lo, hi) -> node, or None for a failure
        self.active: set = set()
        self.guard_hits = 0

    # -- grammars without unit cycles ---------------------------------------

    def build(self, start: int) -> ParseNode:
        """Extract for a grammar without unit cycles (`_Compiled.cyclic`).

        A search there fires the guard at most on a production's own
        left-recursive candidate that could never complete (K : K ')' over
        all of K's span), so every span the chart completes has a derivation
        and the tree does not depend on the search's order.  Nothing
        backtracks: each element takes the shortest end from which the rest
        of the production can still reach the end of its span, read off the
        chart by `viable`.
        """
        cg, tokens, ends, width = self.cg, self.tokens, self.ends, self.width
        after, starts, bit, gt, ref, size = cg.after, cg.starts, cg.bit, cg.gt, cg.ref, cg.size
        viable = self.viable

        def open_frame(nt: int, lo: int, hi: int) -> list:
            mask = ends[nt * width + lo][hi]
            for state in starts[nt]:
                if mask & bit[state]:
                    m = size[state]
                    reach = viable(state, m, lo, hi) if m > 1 else None
                    return [state, reach, [], lo, hi]

        # frame: the production's first state, viable positions, the parts
        # found so far, the position after them and the end of the span
        stack = [open_frame(start, 0, width - 1)]
        while True:
            frame = stack[-1]
            state, reach, parts, pos, hi = frame
            m = size[state]
            k = len(parts)
            while k < m and after[state + k] < 0:
                parts.append(ParseLeaf(gt[state + k], tokens[pos]))
                pos += 1
                k += 1
            if k < m:
                a = after[state + k]
                if k + 1 == m:
                    end = hi
                else:
                    row, targets = ends[a * width + pos], reach[k + 1]
                    if len(row) <= len(targets):
                        end = next(e for e in row if e in targets)
                    else:
                        end = min(e for e in targets if e in row)
                frame[3] = end
                stack.append(open_frame(a, pos, end))
                continue
            kind, gt_id, index, prod_id = cg.tag[state]
            if kind == "step":  # nothing else holds the spine
                node = parts[0]
                node.children.append(parts[1])
            else:
                node = ParseNode(kind, gt_id, parts, index, prod_id)
            stack.pop()
            if not stack:
                return node
            parent = stack[-1]
            at = parent[0] + len(parent[2])
            parent[2].append(ParseNode("ref", gt[at], [node]) if ref[at] else node)

    def viable(self, state: int, m: int, lo: int, hi: int) -> list:
        """Per element k > 0 of the production, the positions from which
        elements k.. derive the tokens up to hi."""
        after, codes, origins = self.cg.after, self.codes, self.origins
        out = [None] * (m + 1)
        out[m] = reach = {hi}
        for k in range(m - 1, 0, -1):
            a = after[state + k]
            found = set()
            if a < 0:
                for q in reach:
                    if q > lo and codes[q - 1] == a:
                        found.add(q - 1)
            else:
                for q in reach:
                    for o in origins[q].get(a, ()):
                        if o >= lo:
                            found.add(o)
            out[k] = reach = found
        return out

    # -- grammars with unit cycles ------------------------------------------

    def search(self, start: int) -> Optional[ParseNode]:
        """Extract by backtracking search, for grammars with unit cycles.

        Where the guard can fire, a memoised derivation may depend on the
        spans being derived around it, so every end is tried in the order
        of a plain depth-first search, which fixes the trees it picks.
        Each `derive` is a generator that yields the spans it needs and
        receives their nodes.  Memoised nodes are shared and never changed
        afterwards; only a span of no tokens can occur twice in one tree,
        so only those are copied.
        """
        stack = [self.derive(start, 0, self.width - 1, guarded=False)]
        value = None
        while True:
            try:
                request = stack[-1].send(value)
            except StopIteration as stop:
                stack.pop()
                if not stack:
                    return stop.value
                value = stop.value
            else:
                stack.append(self.derive(*request))
                value = None

    def candidates(self, a: int, pos: int, hi: int) -> list:
        """Ends of element `a` from pos up to hi, longest first."""
        if a < 0:
            return [pos + 1] if pos < hi and self.codes[pos] == a else []
        found = [e for e in self.ends.get(a * self.width + pos, ()) if e <= hi]
        found.reverse()
        return found

    def derive(self, nt: int, lo: int, hi: int, guarded: bool = True):
        cg, tokens, memo, active = self.cg, self.tokens, self.memo, self.active
        after, gt = cg.after, cg.gt
        key = (nt, lo, hi)
        if guarded:
            active.add(key)
            before = self.guard_hits
        mask = self.ends[nt * self.width + lo][hi]
        node = None
        for state in cg.starts[nt]:
            if not mask & cg.bit[state]:
                continue
            m = cg.size[state]
            parts: list = []
            if m:
                # per element tried: its remaining ends and its start
                cands = [self.candidates(after[state], lo, hi)]
                at = [lo]
                while cands:
                    todo = cands[-1]
                    if not todo:
                        cands.pop()
                        at.pop()
                        if parts:
                            parts.pop()
                        continue
                    end = todo.pop()
                    k = len(parts)
                    pos = at[-1]
                    a = after[state + k]
                    if a < 0:
                        part = ParseLeaf(gt[state + k], tokens[pos])
                    else:
                        span = (a, pos, end)
                        if span in memo:
                            sub = memo[span]
                            if sub is not None and pos == end:
                                sub = _copy(sub)
                        elif span in active:
                            self.guard_hits += 1
                            sub = None
                        else:
                            sub = yield span
                        if sub is None:
                            continue
                        part = ParseNode("ref", gt[state + k], [sub]) \
                            if cg.ref[state + k] else sub
                    if k + 1 == m:
                        if end == hi:
                            parts.append(part)
                            break
                        continue
                    parts.append(part)
                    cands.append(self.candidates(after[state + k + 1], end, hi))
                    at.append(end)
                else:
                    continue
            kind, gt_id, index, prod_id = cg.tag[state]
            if kind == "step":  # leave the memoised spine as it is
                spine, step = parts
                node = ParseNode("iter", gt_id, spine.children + [step])
            else:
                node = ParseNode(kind, gt_id, parts, index, prod_id)
            break
        if guarded:
            active.discard(key)
            # a failure observed while a cycle guard fired anywhere below is
            # context-dependent and must not be cached
            if node is not None or self.guard_hits == before:
                memo[key] = node
        return node


# a grammar tree's compiled tables, built on its first parse; a grammar tree
# is frozen, so they never go stale, and they go when the tree does
_compiled: "weakref.WeakKeyDictionary[g.GrammarTree, _Compiled]" = weakref.WeakKeyDictionary()


def parse_input(tree: g.GrammarTree, start: str, tokens: List[Token]) -> ParseTree:
    """Parse tokens from the given start rule; raises ParseError on failure."""
    if start not in tree.rule_index:
        raise NotationError(f"start symbol '{start}' is not a defined rule",
                            tree.origin)
    cg = _compiled.get(tree)
    if cg is None:
        cg = _compiled[tree] = _Compiled(tree)
    start_nt = tree.rule_index[start].id
    codes = _token_codes(cg, tokens)
    ends, origins = _recognize(cg, start_nt, tokens, codes)
    extractor = _Extractor(cg, tokens, codes, ends, origins)
    root = extractor.search(start_nt) if cg.cyclic else extractor.build(start_nt)
    if root is None:
        raise ParseError("ambiguity extraction failed", 0, ())
    return ParseTree(root, tree, tokens)
