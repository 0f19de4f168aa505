"""Largest inputs the Earley parser handles before RecursionError.

    python3 bench/limits.py

Bisects, for this interpreter and its recursion limit, the longest
`1+1+...+1` chain, the deepest `((...(1)...))` nesting, the deepest nesting
of the shape arith_long generates, and the largest class body of the shape
java_files generates.  The benchmark's size ranges keep passing inputs
below these limits and its past-limit inputs above them.
"""

import os
import random
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import workloads  # noqa: E402
from gramweave import (parse_grammar, parse_input, parse_lexer_spec,  # noqa: E402
                       tokenize)


def _load(grammar: str, lexer: str):
    with open(os.path.join(ROOT, "tests", "fixtures", grammar)) as g, \
            open(os.path.join(ROOT, "tests", "fixtures", lexer)) as lx:
        return parse_grammar(g.read(), grammar), parse_lexer_spec(lx.read(), lexer)


def largest(parses, make, lo: int, hi: int) -> int:
    """Largest n in [lo, hi) with parses(make(n)), assuming monotony."""
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if parses(make(mid)):
            lo = mid
        else:
            hi = mid
    return lo


def main() -> None:
    arith, arith_lex = _load("arith.g", "arith.lex")
    java, java_lex = _load("java5.g", "java.lex")

    def parser(tree, lex, start):
        def parses(text):
            try:
                parse_input(tree, start, tokenize(lex, tree, text))
                return True
            except RecursionError:
                return False
        return parses

    arith_ok = parser(arith, arith_lex, "expr")
    java_ok = parser(java, java_lex, "normalClassDeclaration")
    print(f"python {sys.version.split()[0]}, recursion limit {sys.getrecursionlimit()}")
    print("flat 1+1+... terms:", largest(arith_ok, lambda n: "+".join("1" * n), 1, 3000))
    print("((...)) depth:", largest(arith_ok, lambda n: "(" * n + "1" + ")" * n, 1, 500))
    for seed in range(3):
        nest = largest(arith_ok, lambda n: workloads.arith_case(
            random.Random(seed), "nest", n).text, 1, 500)
        members = largest(java_ok, lambda n: workloads.java_case(
            random.Random(seed), n).text, 1, 3000)
        print(f"seed {seed}: arith_long nesting depth {nest}, "
              f"java_files class body members {members}")


if __name__ == "__main__":
    main()
