"""Chart parser that interprets a grammar tree over a token stream.

The grammar tree is compiled, in one pass over its pre-order table, into
int state tables: every symbol definition, alternative, group, iteration
and empty node is a nonterminal named by its grammar-tree id, with a
small set of productions whose elements remember which grammar-tree node
they came from.  An Earley recognizer runs over the tokens, then one
parse tree is extracted deterministically: the first derivation, taking
earlier productions and alternative branches first and nonterminal spans
shortest first, in which no nonterminal derives a span from inside its
own derivation of that same span.

No step recurses, so grammar nesting and input size are bounded by
memory only.  The compiled tables are built once per grammar tree and
kept while the tree lives.  The recognizer's items are ints; it indexes
the items of each Earley set by the nonterminal they wait on, so a
completion advances just those items, and a prediction looks one token
ahead, so it adds only the productions that can start with that token or
that the chart needs for an empty completion.  The chart is one table of
completions by end, nonterminal and origin.  The one extractor reads
split points from it (Scott, *SPPF-style parsing from Earley
recognisers*, 2008) where the compiled tables leave them open: an element
that only terminals follow has a forced end, and one that a single
nonterminal follows ends where that nonterminal starts.  It checks the
cycle clause only where a cycle of unit links makes it matter.

The resulting tree mirrors the grammar's own shape.  Rule applications
carry the defined symbol's node id and production index; alternatives,
groups, and iterations appear as structural nodes; every leaf records
the literal or symbol-reference node it instantiates.  That provenance
is what lets the backends look up woven annotations per token.  The
extractor writes the tree as flat int lists, its derivation steps in
pre-order, and in the same pass each token's opened and closed steps,
which both backends read; ParseNode and ParseLeaf objects are a view
built from the steps on first use.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, NamedTuple, Optional, Tuple

from . import grammar as g
from .errors import NotationError, ParseError
from .lexer import Token
from .scan import escape_string


class ParseLeaf(NamedTuple):
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


class TokenContexts(NamedTuple):
    """What token_contexts returns: per token, the derivation steps whose
    token range opens and closes there, as slices of flat int lists.

    Token i opened the steps ``opened[open_at[i]:open_at[i + 1]]`` and
    closed the steps ``closed[close_at[i]:close_at[i + 1]]``, the k-th of
    which starts at token ``closed_lo[close_at[i] + k]``.
    """

    opened: List[int]
    open_at: List[int]
    closed: List[int]
    closed_lo: List[int]
    close_at: List[int]


@dataclass
class ParseTree:
    """A parse of `tokens`, held as its derivation steps in pre-order.

    Step r has the tag ``tags[r]``: a production's first state in the
    grammar's compiled tables, or ``~state`` for the element state of a
    rule reference or a token.  It covers the tokens from ``los[r]`` on,
    and its subtree ends before step ``stops[r]``.  An iteration is one
    step however many times it repeats.  ``root`` and ``leaves`` build the
    ParseNode/ParseLeaf view of these steps on first use and keep it.
    """

    grammar: g.GrammarTree
    tokens: List[Token]
    steps: Tuple[List[int], List[int], List[int]]  # tags, los, stops
    # what token_contexts returns, written with the steps
    contexts: TokenContexts = field(compare=False, repr=False)

    @property
    def root(self) -> ParseNode:
        return self._view[0]

    @cached_property
    def _view(self) -> Tuple[ParseNode, List[ParseLeaf]]:
        """The root node and the leaves in order, built without recursion."""
        cg = _compiled[self.grammar]
        tags, los, stops = self.steps
        tokens, after, gt, tag = self.tokens, cg.after, cg.gt, cg.tag
        out: List[ParseLeaf] = []
        top: list = []
        stack: list = [(top, -1)]  # (children, stop) of the open nodes
        for r, t in enumerate(tags):
            while stack[-1][1] == r:
                stack.pop()
            if t < 0 and after[~t] < 0:
                leaf = ParseLeaf(gt[~t], tokens[los[r]])
                stack[-1][0].append(leaf)
                out.append(leaf)
                continue
            if t < 0:
                node = ParseNode("ref", gt[~t], [])
            else:
                kind, gt_id, index, prod_id = tag[t]
                node = ParseNode(kind, gt_id, [], index, prod_id)
            stack[-1][0].append(node)
            stack.append((node.children, stops[r]))
        return top[0], out


def leaves(tree: ParseTree) -> List[ParseLeaf]:
    return list(tree._view[1])


def token_contexts(tree: ParseTree) -> TokenContexts:
    """For each token in order, the derivation steps whose token range
    opens and closes at it, as flat lists (see TokenContexts).

    The opened steps run outermost first and end with the token's own
    grammar-tree id; the closed ones run innermost first, start with the
    token's own, and each comes with the index of the step's first token.
    A rule application is two steps: the defined symbol, then the chosen
    production.  Each step that derives a token appears once among the
    opened and once among the closed; steps that derive nothing appear in
    neither.

    The parser writes these lists while it builds the tree, so both
    backends share them: callers must not mutate them.
    """
    return tree.contexts


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
    tells whether it is a nullable nonterminal; `tail` is the number of
    tokens the rest of the production takes when that rest is terminals
    only, else -1.  `lhs`, `bit`, `tag`, `heads`, `shut` and `size` hold,
    for every state of a production, its nonterminal, its bit among that
    nonterminal's productions, the (kind, gt_id, production_index,
    production_id) of the parse node it builds, the ids its step opens in
    token contexts, the same ids in the order the step closes them, and its
    number of elements.  `spines` holds the first states of the step
    productions, whose first element repeats the iteration.  `needs` maps
    the first state of each production in which a nonterminal element lies
    two or more elements before the last nonterminal element to the index
    just past its first nonterminal element, the lowest whose viable
    positions the extractor reads.

    `first[nt]` is the FIRST set of a nonterminal: the terminal codes its
    derivations can start with.  A prediction must add a production before
    any token when it derives nothing or its first element is in `wakes`,
    the nonterminals with such a production, among them every nullable one,
    whose empty completion the chart records whatever follows.  `lead[s]`,
    by a production's first state, is None for such a production, else its
    FIRST set.

    `loops` holds the states before an element that can take its
    production's whole span and reaches the production's nonterminal again
    through such unit links; `guarded` maps each nonterminal with such a
    production to the nonterminals on a cycle of links through it, itself
    included.
    """

    def __init__(self, tree: g.GrammarTree):
        self.codes: Dict[tuple, int] = {}
        self.starts: List[Optional[List[int]]] = [None] * len(tree.by_id)
        self.after: list = []
        self.gt: List[Optional[int]] = []
        self.ref: List[bool] = []
        self.lhs, self.bit, self.size, self.tail = [], [], [], []  # of ints
        self.tag, self.heads, self.shut = [], [], []  # of tuples
        self.spines, self.needs = set(), {}
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
                step = ((node,) + node.children, ("iter", nt, None, None))
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
                ids = (nt, tag[3]) if tag[0] == "rule" else (nt,)
                self.heads += [ids] * (m + 1)
                self.shut += [ids[::-1]] * (m + 1)
                self.size += [m] * (m + 1)
                nts = [k for k, a in enumerate(self.after[-1 - m:-1]) if a >= 0]
                last = nts[-1] if nts else -1  # the last nonterminal element
                self.tail += [-1] * (last + 1) + list(range(m - last - 1, -1, -1))
                if nts and nts[0] < last - 1:
                    self.needs[firsts[-1]] = nts[0] + 1
                if elems and elems[0] is node:
                    self.spines.add(firsts[-1])
        self.display = {code: escape_string(sym[1]) if sym[0] == "lit" else sym[1]
                        for sym, code in self.codes.items()}

        # nullable, FIRST and `wakes` together, to fixpoint; a production's
        # elements mostly have higher ids than its nonterminal, so walk the
        # productions last to first.  Terminal codes are negative.
        after, lhs, size = self.after, self.lhs, self.size
        nullable = self.nullable = set()
        wakes: set = set()
        first = self.first = {lhs[s]: set() for s in firsts}
        changed = True
        while changed:
            changed = False
            for s in reversed(firsts):
                nt = lhs[s]
                into = first[nt]
                count = len(into) + len(nullable) + len(wakes)
                for a in after[s:s + size[s]]:
                    if a < 0:
                        into.add(a)
                        break
                    into |= first[a]
                    if a not in nullable:
                        break
                else:
                    nullable.add(nt)
                if after[s] is None or after[s] in wakes:
                    wakes.add(nt)
                changed |= len(into) + len(nullable) + len(wakes) != count
        self.skip = [a in nullable for a in after]
        self.lead = {s: None if a is None or a in wakes else {a} if a < 0 else first[a]
                     for s in firsts for a in (after[s],)}
        self._predicted: Dict[int, list] = {}

        # unit links: a production of K may give one of its nonterminals K's
        # whole span when the elements before it are nullable (but K : K ')'
        # never does).  A span can be derived inside itself only around a
        # cycle of links, so `loops` holds the links (s, K, A) where A reaches
        # K again, and `guarded[K]` the nonterminals on a cycle through K.
        unit = []  # (state, nonterminal, linked nonterminal)
        links: Dict[int, list] = {lhs[s]: [] for s in firsts}
        for s in firsts:
            elems = after[s:s + size[s]]
            for j, a in enumerate(elems):
                if a >= 0 and (a != lhs[s] or all(b in nullable for b in elems[j + 1:])):
                    unit.append((s + j, lhs[s], a))
                    links[lhs[s]].append(a)
                if a not in nullable:
                    break
        reach: Dict[int, set] = {}  # what each nonterminal reaches, itself included
        for root in links:
            seen = reach[root] = {root}
            stack = [root]
            while stack:
                for a in links[stack.pop()]:
                    if a not in seen:
                        seen.add(a)
                        stack.append(a)
        self.loops = {s for s, nt, a in unit if nt in reach[a]}
        self.guarded = {nt: [c for c in reach[nt] if nt in reach[c]]
                        for s, nt, a in unit if s in self.loops}

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


def _token_codes(cg: _Compiled, tokens: List[Token]) -> List[int]:
    """The terminal code each token matches, or 0 when it matches none."""
    codes = cg.codes
    return [codes.get(("lit", t.text) if t.terminal is None else ("term", t.terminal), 0)
            for t in tokens]


def _recognize(cg: _Compiled, start: int, tokens: List[Token], codes: List[int]):
    """Run the recognizer; return the chart's completions or raise ParseError.

    The chart is one table, `chart[end][nt]`, that maps each origin, in
    the order its first completion came, to the bit set of nt's
    productions that derive the tokens from that origin to end.  An item
    is the int `state * (n + 1) + origin`, so advancing its dot adds
    n + 1.  An Earley set is dropped once the next one is built, and only
    the items waiting on a nonterminal stay, indexed by that nonterminal,
    until the parse ends.

    A prediction looks one token ahead (`_Compiled.predicted`).  The
    productions it leaves out could add nothing to the chart: they can
    neither scan the token nor lead to a completion before it.  So the
    chart holds exactly what predicting every production would give.  A
    failure reports what such a set would expect: the terminals after a
    dot in the set, and the FIRST sets of the nonterminals predicted in it.

    Only an item whose dot follows a nonterminal can be reached twice in
    one set, by a completion or by skipping a nullable nonterminal, so only
    those are kept in `seen`.  A production's first state is reached only
    by predicting its nonterminal, once per set; the start symbol counts as
    predicted in set 0.
    """
    after, lhs, bit, skip = cg.after, cg.lhs, cg.bit, cg.skip
    n = len(tokens)
    width = n + 1
    chart: List[Dict[int, Dict[int, int]]] = []
    waiters: List[Dict[int, list]] = []  # per set: nonterminal -> advanced items
    items = [s * width for s in cg.predicted(codes[0] if n else 0)[start]]
    for i in range(width):
        seen = set()
        waiting: Dict[int, list] = {start: []} if i == 0 else {}
        waiters.append(waiting)
        done: Dict[int, Dict[int, int]] = {}
        chart.append(done)
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
                row = done.get(nt)
                if row is None:
                    row = done[nt] = {}
                elif origin in row:  # an earlier production already advanced the waiters
                    row[origin] |= bit[state]
                    continue
                row[origin] = bit[state]
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
    if i == n and 0 in done.get(start, ()):
        return chart
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

_NONE: frozenset = frozenset()


class _Extractor:
    """The one extractor.  It builds the first derivation, taking earlier
    productions first and then, left to right, each element's shortest end
    that lets the rest finish, in which no nonterminal derives a span from
    inside its own derivation of that same span.

    The chart is read by the end of a span only.  An element that only
    terminals follow ends `tail` tokens before the span; one that the last
    nonterminal follows ends at the least origin of that nonterminal at its
    forced end that completes it; in a production of `_Compiled.needs` it
    ends at the first viable position (`viable`) that completes it.  Only a
    production with an element in `_Compiled.loops` can break the cycle
    clause, so only the nonterminals in `_Compiled.guarded` go through
    `choose`, whose viable positions pin the ends.  Every span the chart completes has a
    derivation under the rule: cutting out a repeat of a nonterminal over
    one span leaves one.
    """

    def __init__(self, cg: _Compiled, codes, chart):
        self.cg, self.codes, self.chart = cg, codes, chart

    def build(self, start: int) -> Tuple[tuple, TokenContexts]:
        """The derivation as ParseTree's step table, and its token contexts,
        in one pass: a step's row and opened ids are written as it opens,
        its stop and closed ids as it closes."""
        cg, chart = self.cg, self.chart
        after, starts, gt, ref, size, tail = cg.after, cg.starts, cg.gt, cg.ref, cg.size, cg.tail
        heads, shut, spines, guarded, loops, needs = \
            cg.heads, cg.shut, cg.spines, cg.guarded, cg.loops, cg.needs
        tags, los, stops, opened, closed, closed_lo, close_at = [], [], [], [], [], [], []
        open_at = [0]
        # each turn opens nonterminal a over lo..hi for the element state
        # `at` (-1 for the start symbol).  A frame: the production's first
        # state, viable positions or None, the state of the next element, the
        # position before it, the end of the span, for a `choose` the start of
        # the span and what is open over all of it, and the frame's first row,
        # or -1 for a repeat of an iteration.
        stack: list = []
        a, lo, hi, at, banned = start, 0, len(self.codes), -1, _NONE
        while True:
            if a in guarded:
                inner = banned | {a}
                state, reach = self.choose(a, lo, hi, inner)
                inner = (lo, inner)
            else:
                inner = None
                mask = chart[hi][a][lo]  # bit k stands for starts[a][k]
                state = starts[a][(mask & -mask).bit_length() - 1]
                reach = self.viable(state, size[state], lo, hi, needs[state]) if state in needs else None
            row = -1 if at in spines else len(tags)  # a repeat shares its outermost row
            if row >= 0:
                if at >= 0 and ref[at]:
                    tags.append(~at)
                    los.append(lo)
                    stops.append(0)
                    if hi > lo:
                        opened.append(gt[at])
                tags.append(state)
                los.append(lo)
                stops.append(0)
                if hi > lo:
                    opened += heads[state]
            if size[state]:
                stack.append([state, reach, state, lo, hi, inner, row])
            elif row >= 0:  # derives nothing: its rows close as they open
                stops[row:] = [len(tags)] * (len(tags) - row)
            while stack:
                frame = stack[-1]
                state, reach, at, pos, hi, inner, row = frame
                a = after[at]
                while a is not None and a < 0:  # a token
                    gid = gt[at]
                    tags.append(~at)
                    los.append(pos)
                    stops.append(len(tags))
                    opened.append(gid)
                    open_at.append(len(opened))
                    close_at.append(len(closed))
                    closed.append(gid)
                    closed_lo.append(pos)
                    pos += 1
                    at += 1
                    a = after[at]
                if a is not None:
                    # the element's end: forced by a terminal tail, split off
                    # the last nonterminal at its forced end, or the first viable one
                    end = tail[at + 1]
                    if end >= 0:
                        end = hi - end
                    elif reach is None:
                        ends = chart[hi - tail[at + 2]][after[at + 1]]  # its origins
                        if len(ends) == 1:
                            end, = ends
                        else:
                            end = min(o for o in ends if o >= pos and pos in chart[o].get(a, ()))
                    else:
                        end = min(e for e in reach[at + 1 - state] if pos in chart[e].get(a, ()))
                    frame[2:4] = at + 1, end
                    banned = inner[1] if at in loops and pos == inner[0] and end == hi else _NONE
                    lo, hi = pos, end
                    break
                stack.pop()
                if row < 0:
                    continue
                lo = los[row]
                stops[row] = len(tags)
                ids = shut[state]
                if tags[row] < 0:  # the rule reference closes with the rule
                    stops[row + 1] = len(tags)
                    ids += (gt[~tags[row]],)
                if hi > lo:
                    closed += ids
                    closed_lo += [lo] * len(ids)
            else:
                break
        close_at.append(len(closed))
        return (tags, los, stops), TokenContexts(opened, open_at, closed, closed_lo, close_at)

    def viable(self, state: int, m: int, lo: int, hi: int, floor: int) -> list:
        """Per element k >= floor > 0 of the production, the positions from
        which elements k.. derive the tokens up to hi, walking the chart back."""
        after, codes, chart = self.cg.after, self.codes, self.chart
        out = [None] * (m + 1)
        out[m] = reach = {hi}
        for k in range(m - 1, floor - 1, -1):
            a = after[state + k]
            found = set()
            if a < 0:
                for q in reach:
                    if q > lo and codes[q - 1] == a:
                        found.add(q - 1)
            else:
                for q in reach:
                    for o in chart[q].get(a, ()):
                        if o >= lo:
                            found.add(o)
            out[k] = reach = found
        return out

    def choose(self, nt: int, lo: int, hi: int, inner: frozenset) -> tuple:
        """The first production of nt over lo..hi under the rule, as its first
        state and viable positions pinned to its split, where `inner` holds
        nt and the nonterminals of `guarded[nt]` open over all of lo..hi.

        Another nonterminal of `guarded[nt]` derives the span under the rule
        when it derives it with none of `inner` over the whole span, as
        cutting out repeats leaves a derivation: the ones that do are a least
        fixpoint, whatever their order, so nothing searches and nothing
        recurses.
        """
        row = self.chart[hi]
        others = [c for c in self.cg.guarded[nt] if c not in inner and lo in row.get(c, ())]
        derives: set = set()
        grew = True
        while grew:
            grew = False
            for c in others:
                if c not in derives and self.split(c, lo, hi, derives):
                    derives.add(c)
                    grew = True
        return self.split(nt, lo, hi, derives)

    def split(self, nt: int, lo: int, hi: int, derives: set) -> Optional[tuple]:
        """The first production of nt over lo..hi in which every element of
        `loops` that takes all of lo..hi is in derives, with its viable
        positions pinned to the first such split, or None.  The chart at hi
        gives the productions and, with the viable positions, the ends."""
        cg, chart = self.cg, self.chart
        after, loops = cg.after, cg.loops
        mask = chart[hi][nt][lo]
        for state in cg.starts[nt]:
            if not mask & cg.bit[state]:
                continue
            m = cg.size[state]
            reach = self.viable(state, m, lo, hi, 1)
            if lo == hi:  # every element takes the whole span
                if all(s not in loops or after[s] in derives for s in range(state, state + m)):
                    return state, reach
                continue
            # the elements before the first one that takes tokens take none: a
            # later first one comes first, and within it the shorter end
            first = next((k for k in range(m - 1) if after[state + k] not in cg.nullable), m - 1)
            for j in range(first, -1, -1):
                a, targets = after[state + j], reach[j + 1]
                if a < 0:  # a terminal ends after one token, if it matches
                    found = [lo + 1] if self.codes[lo] == a and lo + 1 in targets else ()
                else:
                    found = sorted(e for e in targets if e > lo and lo in chart[e].get(a, ()))
                for e in found:
                    if e < hi or state + j not in loops or a in derives:
                        reach[1:j + 2] = [{lo}] * j + [{e}]  # pins the ends of elements ..j
                        return state, reach
        return None


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
    chart = _recognize(cg, start_nt, tokens, codes)
    steps, contexts = _Extractor(cg, codes, chart).build(start_nt)
    return ParseTree(tree, tokens, steps, contexts)
