"""Checks of each operation's output against its generator's answer.

Every check returns the names of the checks that failed (empty when the
output is right).  They run outside the timed region.  The expected values
come from bench/workloads.py, which never calls gramweave; the formatter is
compared with reference_format from tests/support.py, an independent
re-implementation.
"""

from __future__ import annotations

import re
from collections import Counter
from fractions import Fraction

_SGR = re.compile(r"\x1b\[[0-9;]*m")


def java_groups(case, spans) -> list:
    got = [(tuple(s.span), s.group) for s in spans]
    return [] if got == case.expect else ["java_files.groups"]


def java_render(case, rendered: str) -> list:
    return [] if _SGR.sub("", rendered) == case.text else ["java_files.render"]


def java_format(case, formatted: str, reference: str, reformat) -> list:
    """reformat(text) -> (token texts, formatted text) runs the program on
    its own output."""
    failed = []
    if formatted != reference:
        failed.append("java_files.format_reference")
    tokens, again = reformat(formatted)
    if tokens != [case.text[a:b] for (a, b), _ in case.expect]:
        failed.append("java_files.format_tokens")
    if again != formatted:
        failed.append("java_files.format_idempotent")
    return failed


def arith_value(tree) -> Fraction:
    """Evaluate an arith.g parse tree with exact rationals.

    expr and term rules hold a first operand and an iteration of
    (operator, operand) groups; a factor is an INT or '(' expr ')'.
    """
    by_id = tree.grammar.by_id

    def value(node) -> Fraction:
        if not hasattr(node, "kind"):  # a leaf: an INT token
            return Fraction(int(node.token.text))
        if node.kind in ("ref", "alt"):
            return value(node.children[0])
        if node.kind == "seq":  # '(' expr ')'
            return value(node.children[1])
        if by_id[node.gt_id].detail == "factor":
            return value(node.children[0])
        first, steps = node.children
        acc = value(first)
        for step in steps.children:
            op = step.children[0].children[0].token.text
            rhs = value(step.children[1])
            acc = (acc + rhs if op == "+" else acc - rhs if op == "-"
                   else acc * rhs if op == "*" else acc / rhs)
        return acc

    return value(tree.root)


def arith(case, tree) -> list:
    try:
        ok = arith_value(tree) == case.expect
    except (AttributeError, IndexError, ValueError, ZeroDivisionError):
        ok = False
    return [] if ok else ["arith_long.value"]


def attr_counts(store) -> Counter:
    """(provenance rule index, attribute name) -> attributes woven."""
    counts: Counter = Counter()
    for node in store.annotated_nodes():
        for attr in store.annotation_for(node).attributes:
            counts[(attr.provenance.rule, attr.name)] += 1
    return counts


def _contents(store, tree) -> tuple:
    """Everything a store document holds: node metadata, and each attribute
    with its provenance, in order."""
    return (store.root_id, [store.node_meta(i) for i in sorted(tree.by_id)],
            [(node, attr, attr.provenance) for node in store.annotated_nodes()
             for attr in store.annotation_for(node).attributes])


def weave(case, gw, aspects, tree, store, text: str) -> list:
    """Match counts and woven attributes against the planted shapes, the
    JSON round trip, and a second weave serializing to the same bytes."""
    failed = []
    rules = aspects[0].rules
    matches = {i: len(gw.patterns.match_rules(r.pattern, tree))
               for i, r in enumerate(rules)}
    if matches != case.expect.matches:
        failed.append("weave_grammars.match_counts")
    if attr_counts(store) != Counter(case.expect.attrs):
        failed.append("weave_grammars.attr_counts")
    if _contents(gw.annotations.deserialize_store(text), tree) != _contents(store, tree):
        failed.append("weave_grammars.round_trip")
    del store
    again = gw.annotations.serialize_store(gw.aspects.weave(tree, aspects))
    if again != text:
        failed.append("weave_grammars.deterministic")
    return failed
