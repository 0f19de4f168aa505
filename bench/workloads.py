"""Seeded input generators for the three benchmark workloads.

Nothing here imports gramweave.  Each generator builds an input text together
with the answer the program must give for it (every token's highlight group,
the value of an arithmetic expression, the match and attribute counts of a
weave), so the checks compare the program against a computation made apart
from it.

Inputs come in rounds of a fixed number of operations.  Sizes are
continuous (log-uniform over a range, spread evenly by spread_sizes), so no
size class boundary exists for a percentile to fall on.  A round's inputs
depend only on (workload, seed, round index, scale).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

QUICK = "quick"
FULL = "full"


@dataclass
class Case:
    """One operation's input and the answer expected for it."""

    text: str
    expect: object
    size: int  # members, terms, nesting depth or rules
    shape: str  # e.g. "class", "chain", "nest", "grammar"
    past_limit: bool = False  # known to exceed the parser's recursion limit


_PHI = (math.sqrt(5) - 1) / 2


def spread_sizes(workload: str, seed: int, first: int, n: int,
                 lo: float, hi: float) -> list:
    """Sizes of operations first .. first+n-1, log-uniform on [lo, hi].

    Operation k takes the quantile frac(offset + k * phi), a golden-ratio
    sequence whose offset comes from the seed: every size in the range can
    occur, and any run of consecutive operations covers the range about
    evenly, so medians and percentiles barely move with the seed or with
    the number of rounds a run completes.
    """
    offset = random.Random(f"{workload}:{seed}:sizes").random()
    a, b = math.log(lo), math.log(hi)
    return [max(1, round(math.exp(a + ((offset + k * _PHI) % 1.0) * (b - a))))
            for k in range(first, first + n)]


def _shape_rng(u: float) -> random.Random:
    """A generator for the part of an input at quantile u in [0, 1)."""
    return random.Random(int(u * 4096))


def _rng(workload: str, seed: int, round_index: int) -> random.Random:
    # str seeds are hashed with SHA-512, so this does not vary with
    # PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}:{round_index}")


def _join(rng: random.Random, tokens, spacer) -> tuple:
    """Join token texts with random whitespace; return (text, spans)."""
    parts, spans, pos = [], [], 0
    prev = None
    for tok in tokens:
        if prev is not None:
            ws = spacer(rng, prev, tok)
            parts.append(ws)
            pos += len(ws)
        parts.append(tok)
        spans.append((pos, pos + len(tok)))
        pos += len(tok)
        prev = tok
    return "".join(parts), spans


# ---------------------------------------------------------------------------
# java_files: Java 5 class declarations for tests/fixtures/java5.g

KEYWORD = "keyword"
CLASS_DECL = "classDeclaration"
TYPE_PARAM = "typeParameterDeclaration"
PLAIN = "plain"

_PRIMITIVES = ("byte", "short", "int", "long", "char", "float", "double",
               "boolean")
_TYPE_STEMS = ("String", "Integer", "List", "Map", "Set", "Entry", "Node",
               "Optional", "Future", "Handler", "Buffer", "Key", "Value")
_PACKAGES = ("java", "util", "concurrent", "io", "net", "core", "model",
             "org", "acme", "internal")
_FIELD_STEMS = ("count", "name", "items", "cache", "parent", "next", "size",
                "buffer", "owner", "limit", "handler", "state")
_WS_WORDS = (" ", " ", " ", "  ", "\n", "\n    ", "\t", " \n  ")
_WS_PUNCT = ("", "", "", " ", " ", "\n", "  ")


def _java_space(rng, prev: str, tok: str) -> str:
    words = (prev[-1].isalnum() or prev[-1] == "_") and \
            (tok[0].isalnum() or tok[0] == "_")
    return rng.choice(_WS_WORDS if words else _WS_PUNCT)


class _JavaGen:
    """Emits (token text, expected group) pairs for one class declaration.

    The groups follow tests/fixtures/highlight.aspect: the class keyword,
    the class-level and type-parameter 'extends', 'implements', and the
    wildcard 'extends'/'super' are keywords; the class name is a class
    declaration; type parameter names and '?' are type parameter
    declarations; every other token is plain.
    """

    def __init__(self, rng: random.Random, type_vars=None):
        self.rng = rng
        self.out: list = []
        self.type_vars: list = [] if type_vars is None else type_vars

    def tok(self, text: str, group: str = PLAIN):
        self.out.append((text, group))

    def ident(self, stems, capital: bool) -> str:
        stem = self.rng.choice(stems)
        if not capital:
            stem = stem[0].lower() + stem[1:]
        return stem + (str(self.rng.randrange(100)) if self.rng.random() < 0.5 else "")

    def class_type(self, depth: int):
        """IDENTIFIER typeArguments? ('.' IDENTIFIER typeArguments?)* ('[' ']')*"""
        rng = self.rng
        if rng.random() < 0.25:  # qualified name
            for _ in range(rng.randint(1, 2)):
                self.tok(rng.choice(_PACKAGES))
                self.tok(".")
        if self.type_vars and rng.random() < 0.25:
            self.tok(rng.choice(self.type_vars))
        else:
            self.tok(self.ident(_TYPE_STEMS, True))
        if depth > 0:
            self.type_arguments(depth)

    def type_arguments(self, depth: int):
        self.tok("<")
        for i in range(self.rng.choice((1, 1, 1, 2))):
            if i:
                self.tok(",")
            self.type_argument(depth - 1)
        self.tok(">")

    def type_argument(self, depth: int):
        rng = self.rng
        if rng.random() < 0.2:
            self.tok("?", TYPE_PARAM)
            if rng.random() < 0.6:
                self.tok(rng.choice(("extends", "super")), KEYWORD)
                self.class_type(depth)
        else:
            self.class_type(depth)

    def member_type(self, u: float):
        """Member type number u in [0, 1): a quarter primitive, 15%
        qualified, 35% generic and a quarter array types."""
        rng = self.rng
        if u < 0.25:
            self.tok(rng.choice(_PRIMITIVES))
            return
        if u < 0.4:  # qualified, no arguments
            self.class_type(0)
        elif u < 0.75:  # generic, nested 2 to 3 deep
            self.class_type(rng.choice((2, 3)))
        else:  # array of a class or generic type
            self.class_type(rng.choice((0, 1, 2)))
            for _ in range(rng.randint(1, 3)):
                self.tok("[")
                self.tok("]")

    def wildcard_type(self):
        self.tok(self.ident(_TYPE_STEMS, True))
        self.tok("<")
        self.tok("?", TYPE_PARAM)
        self.tok(self.rng.choice(("extends", "super")), KEYWORD)
        self.class_type(self.rng.choice((0, 1)))
        self.tok(">")

    def declaration(self, members: int):
        rng = self.rng
        self.tok("class", KEYWORD)
        self.tok(self.ident(_TYPE_STEMS, True) + "Impl", CLASS_DECL)
        self.tok("<")
        for i in range(rng.randint(1, 3)):
            if i:
                self.tok(",")
            name = rng.choice("TUVKEAB") + (str(i) if rng.random() < 0.5 else "")
            self.type_vars.append(name)
            self.tok(name, TYPE_PARAM)
            if rng.random() < 0.5:
                self.tok("extends", KEYWORD)
                for j in range(rng.randint(1, 2)):
                    if j:
                        self.tok("&")
                    self.class_type(rng.choice((0, 1)))
        self.tok(">")
        self.tok("extends", KEYWORD)
        self.class_type(rng.choice((0, 1)))
        self.tok("implements", KEYWORD)
        self.wildcard_type()
        if rng.random() < 0.5:
            self.tok(",")
            self.class_type(rng.choice((0, 1)))
        self.tok("{")
        # member i takes the quantile u = frac(offset + i * phi), and its type
        # is drawn by a generator seeded from u: kinds and shapes come in
        # their exact proportions, so files of one size differ little in cost
        offset = rng.random()
        for i in range(members):
            u = (offset + i * _PHI) % 1.0
            member = _JavaGen(_shape_rng(u), self.type_vars)
            member.member_type(u)
            self.out += member.out
            self.tok(self.ident(_FIELD_STEMS, False))
            self.tok(";")
        self.tok("}")


def java_case(rng: random.Random, members: int) -> Case:
    gen = _JavaGen(rng)
    gen.declaration(members)
    texts = [t for t, _ in gen.out]
    text, spans = _join(rng, texts, _java_space)
    text += rng.choice(("", "\n", " \n"))
    expect = [(span, group) for span, (_, group) in zip(spans, gen.out)]
    return Case(text, expect, members, "class")


JAVA_ROUND = 20
JAVA_MEMBERS = {FULL: (3, 280), QUICK: (1, 8)}


def java_round(seed: int, round_index: int, scale: str = FULL) -> list:
    rng = _rng("java_files", seed, round_index)
    n = JAVA_ROUND if scale == FULL else 3
    lo, hi = JAVA_MEMBERS[scale]
    sizes = spread_sizes("java_files", seed, round_index * n, n, lo, hi)
    return [java_case(rng, m) for m in sizes]


# ---------------------------------------------------------------------------
# arith_long: expressions for tests/fixtures/arith.g

_OPS = "+-*/"


def _fold(values: list, ops: list) -> Fraction:
    """Value of v0 op0 v1 op1 ... with * and / binding tighter than + and -,
    all left-associative."""
    total = Fraction(0)
    sign = 1
    product = values[0]
    for op, v in zip(ops, values[1:]):
        if op == "*":
            product *= v
        elif op == "/":
            product /= v
        else:
            total += sign * product
            sign = 1 if op == "+" else -1
            product = v
    return total + sign * product


class _ArithGen:
    def __init__(self, rng: random.Random):
        self.rng = rng

    def integer(self, nonzero: bool = False) -> tuple:
        n = self.rng.randrange(1 if nonzero else 0, 100)
        return [str(n)], Fraction(n)

    def operand(self, nonzero: bool, depth: int) -> tuple:
        """An INT or, while depth > 0, a parenthesized small expression."""
        if depth == 0 or self.rng.random() < 0.5:
            return self.integer(nonzero)
        toks, val = self.sequence(self.rng.randint(2, 3), depth - 1)
        if nonzero and val == 0:
            return self.integer(True)
        return ["("] + toks + [")"], val

    def sequence(self, terms: int, depth: int, ops: str = _OPS) -> tuple:
        """terms operands joined by random operators; never divides by 0."""
        toks, val = self.operand(False, depth)
        values, chosen = [val], []
        for _ in range(terms - 1):
            op = self.rng.choice(ops)
            t, v = self.operand(op == "/", depth)
            toks += [op] + t
            values.append(v)
            chosen.append(op)
        return toks, _fold(values, chosen)

    def chain(self, terms: int, depth: int, ops: str) -> tuple:
        """Like sequence, but term k is drawn by a generator seeded from the
        quantile frac(offset + k * phi), so chains of one length differ
        little in cost."""
        offset = self.rng.random()
        toks, values, chosen = [], [], []
        for k in range(terms):
            term = _ArithGen(_shape_rng((offset + k * _PHI) % 1.0))
            op = self.rng.choice(ops) if k else None
            t, v = term.operand(op == "/", depth)
            toks += ([op] if op else []) + t
            values.append(v)
            if op:
                chosen.append(op)
        return toks, _fold(values, chosen)

    def nest(self, depth: int) -> tuple:
        """Parentheses `depth` deep.  Each level puts the deeper expression
        first, then zero to two more operators and operands."""
        toks, val = self.integer()
        for _ in range(depth):
            values, ops = [val], []
            for _ in range(self.rng.randint(0, 2)):
                op = self.rng.choice(_OPS)
                t, v = self.operand(op == "/", 1)
                toks = toks + [op] + t
                values.append(v)
                ops.append(op)
            toks = ["("] + toks + [")"]
            val = _fold(values, ops)
        return toks, val


def _arith_space(rng, prev: str, tok: str) -> str:
    if prev.isdigit() and tok.isdigit():
        return rng.choice((" ", "  ", "\n"))
    return rng.choice(("", "", " ", " ", "\n"))


def arith_case(rng: random.Random, shape: str, size: int,
               past_limit: bool = False, ops: str = _OPS,
               depth: int = 2) -> Case:
    """A chain of `size` terms, each nested up to `depth` deep, or
    parentheses `size` deep."""
    gen = _ArithGen(rng)
    toks, val = gen.chain(size, depth, ops) if shape == "chain" else gen.nest(size)
    text, _ = _join(rng, toks, _arith_space)
    return Case(text, val, size, shape, past_limit)


ARITH_CHAINS = 20
ARITH_NESTS = 10
ARITH_TERMS = {FULL: (20, 300), QUICK: (3, 12)}
ARITH_DEPTH = {FULL: (5, 56), QUICK: (1, 5)}
# Past the recursion limit of the Earley extractor on Python 3.11 with the
# default limit of 1000 (see README).  Seeded apart from --seed, so every
# run fails the same operations.
PAST_LIMIT_TERMS = 400
PAST_LIMIT_DEPTH = 72


def arith_past_limit() -> list:
    rng = random.Random("arith_long:past-limit")
    return [arith_case(rng, "chain", PAST_LIMIT_TERMS, True, ops="+-", depth=0),
            arith_case(rng, "nest", PAST_LIMIT_DEPTH, True)]


def arith_round(seed: int, round_index: int, scale: str = FULL) -> list:
    rng = _rng("arith_long", seed, round_index)
    chains = ARITH_CHAINS if scale == FULL else 2
    nests = ARITH_NESTS if scale == FULL else 1
    cases = [arith_case(rng, "chain", n)
             for n in spread_sizes("arith_long.chain", seed, round_index * chains,
                                   chains, *ARITH_TERMS[scale])]
    cases += [arith_case(rng, "nest", d)
              for d in spread_sizes("arith_long.nest", seed, round_index * nests,
                                    nests, *ARITH_DEPTH[scale])]
    cases += arith_past_limit()
    rng.shuffle(cases)
    return cases


# ---------------------------------------------------------------------------
# weave_grammars: synthetic grammars for bench/weave.aspect
#
# Filler never uses the planted literals 'begin', 'end', 'mark', 'sep',
# 'open', 'close', 'alpha' or 'never', so every match of an aspect rule is
# one of the shapes planted below, and counts are known by construction:
#
#   rule 0  start : {...}                  the one rule named start
#           @#                             each reference in start
#   rule 1  # : 'begin' .. 'end'           planted begin rules, 2 attributes each
#   rule 2  # : 'mark' .. 'mark' .. 'mark' planted mark rules, 3 attributes each
#   rule 3  [*] # : .. 'mark' .. 'mark' .. 'never'     no rule
#   rule 4  [*] # : 'begin' .. 'never'     no rule
#   rule 5  # : $h=# 'sep' .. $h           planted sep rules, 2 attributes each
#   rule 6  # : {...}                      every rule
#           @[*] ('open' .. 'close')       planted groups, 2 attributes each
#           @[*] ('alpha' | ...)           planted alternatives, 1 attribute each

_TERMINALS = ("ID", "NUM", "STR", "OP")
_FILLER_LITERALS = ("x", "y", ";", ",", "+", "=", "[", "]", "::", "->")


@dataclass
class WeaveExpect:
    matches: dict = field(default_factory=dict)  # rule index -> match count
    attrs: dict = field(default_factory=dict)  # (rule index, name) -> count


class _GrammarGen:
    def __init__(self, rng: random.Random, n_rules: int):
        self.rng = rng
        self.names = ["start"] + [f"r{i}" for i in range(1, n_rules)]
        self.groups = 0
        self.alphas = 0

    def atom(self) -> str:
        roll = self.rng.random()
        if roll < 0.4:
            return self.rng.choice(self.names)
        if roll < 0.7:
            return self.rng.choice(_TERMINALS)
        return f"'{self.rng.choice(_FILLER_LITERALS)}'"

    def item(self, planted: bool) -> str:
        rng = self.rng
        roll = rng.random()
        if planted and roll < 0.06:
            self.groups += 1
            inner = " ".join(self.atom() for _ in range(rng.randint(0, 3)))
            return f"('open' {inner} 'close')" + rng.choice(("", "", "*", "+", "?"))
        if planted and roll < 0.12:
            self.alphas += 1
            others = " | ".join(self.atom() for _ in range(rng.randint(1, 3)))
            return f"('alpha' | {others})"
        if roll < 0.2:
            return "(" + " | ".join(self.atom() for _ in range(rng.randint(2, 3))) + ")"
        if roll < 0.27:
            return "(" + " ".join(self.atom() for _ in range(rng.randint(2, 3))) + ")" \
                   + rng.choice("*+?")
        if roll < 0.35:
            return self.atom() + rng.choice("*+?")
        return self.atom()

    def length(self, lo: int, hi: int) -> int:
        """A production length, log-uniform in [lo, hi]."""
        return round(math.exp(self.rng.uniform(math.log(lo), math.log(hi))))

    def filler(self, n: int, planted: bool) -> list:
        return [self.item(planted) for _ in range(n)]

    def production(self, kind: str) -> str:
        rng = self.rng
        if kind == "begin":
            items = ["'begin'"] + self.filler(self.length(1, 28) - 1, False) + ["'end'"]
        elif kind == "mark":
            items = ["'mark'"]
            for _ in range(2):
                items += self.filler(self.length(1, 14) - 1, False) + ["'mark'"]
        elif kind == "sep":
            head = rng.choice(self.names[1:] + list(_TERMINALS))
            items = [head, "'sep'"] + self.filler(self.length(1, 28) - 1, False) + [head]
        else:
            items = self.filler(self.length(1, 30), True)
        return " ".join(items)

    def rule(self, name: str, kind: str) -> str:
        rng = self.rng
        prods = [self.production("filler") for _ in range(rng.choice((0, 0, 1, 2)))]
        if kind != "filler":
            prods.insert(rng.randint(0, len(prods)), self.production(kind))
        if not prods:
            prods = [self.production("filler")]
        if len(prods) == 1 and rng.random() < 0.5:
            return f"{name} : {prods[0]} ;"
        return name + "".join(f"\n    : {p}" for p in prods) + " ;"


def grammar_case(rng: random.Random, n_rules: int) -> Case:
    gen = _GrammarGen(rng, n_rules)
    kinds = {"begin": 0, "mark": 0, "sep": 0}
    start_refs = [rng.choice(gen.names[1:] + list(_TERMINALS))
                  for _ in range(rng.randint(3, 10))]
    rules = ["// synthetic grammar, %d rules" % n_rules,
             "start : " + " ".join(start_refs) + " ;"]
    # rule i takes the quantile u = frac(offset + i * phi), which picks its
    # kind and seeds the generator of its productions: grammars of one size
    # hold their kinds of rule in exact proportions and differ little in cost
    offset = rng.random()
    for i, name in enumerate(gen.names[1:]):
        u = (offset + i * _PHI) % 1.0
        kind = ("begin" if u < 0.1 else "mark" if u < 0.2
                else "sep" if u < 0.3 else "filler")
        if kind in kinds:
            kinds[kind] += 1
        gen.rng = _shape_rng(u)
        rules.append(gen.rule(name, kind))
    gen.rng = rng
    # every pattern with the default multiplicity [1..*] must match once
    for kind in ("begin", "mark", "sep"):
        if kinds[kind] == 0:
            kinds[kind] += 1
            rules.append(gen.rule(f"extra_{kind}", kind))
    if gen.groups == 0 or gen.alphas == 0:
        gen.groups += 1
        gen.alphas += 1
        rules.append("extra_shapes : ('open' 'close') ('alpha' | ID) ;")
    n_total = len(rules) - 1
    expect = WeaveExpect(
        matches={0: 1, 1: kinds["begin"], 2: kinds["mark"], 3: 0, 4: 0,
                 5: kinds["sep"], 6: n_total},
        attrs={(None, "defaultAfter"): 1, (None, "generator"): 1,
               (0, "role"): len(start_refs),
               (1, "group"): 2 * kinds["begin"],
               (2, "group"): 3 * kinds["mark"],
               (5, "role"): 2 * kinds["sep"],
               (6, "bracket"): 2 * gen.groups,
               (6, "group"): gen.alphas})
    return Case("\n".join(rules) + "\n", expect, n_total, "grammar")


GRAMMAR_ROUND = 16
GRAMMAR_RULES = {FULL: (20, 200), QUICK: (4, 12)}


def grammar_round(seed: int, round_index: int, scale: str = FULL) -> list:
    rng = _rng("weave_grammars", seed, round_index)
    n = GRAMMAR_ROUND if scale == FULL else 3
    return [grammar_case(rng, r)
            for r in spread_sizes("weave_grammars", seed, round_index * n, n,
                                  *GRAMMAR_RULES[scale])]


ROUNDS = {"java_files": java_round, "arith_long": arith_round,
          "weave_grammars": grammar_round}
