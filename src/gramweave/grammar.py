"""Grammar trees: node model, notation parser, serializer.

The rule notation:

    expr : term ((PLUS | MINUS) term)* ;
    factor
        : INT | '(' expr ')' ;
    type
        : IDENTIFIER typeArguments?
        : basicType ;

- a rule is a name followed by one or more productions, each introduced
  by ':', and a closing ';'
- '|' separates alternatives, '*' '+' '?' are iteration suffixes,
  parentheses group, quoted literals are lexical text, '#empty' is the
  empty string, '//' starts a line comment
- a name with an uppercase first letter is a terminal and is never
  defined in the grammar; every other referenced name must have a rule

The parsed tree ("grammar tree") is the unit everything else in the
package works on: every node is an annotation target.  Normalization
keeps the shape canonical: parentheses leave no node behind, a
one-element sequence collapses to its element, and a production holds
its top-level concatenation items directly as children.  Node ids are
assigned in pre-order, so a pre-order walk yields ascending ids and the
assignment is stable across runs for identical input text.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotationError
from .scan import Lexed, escape_string

GRAMMAR = "grammar"
SYMBOL_DEF = "symbol_def"
PRODUCTION = "production"
ALTERNATIVE = "alternative"
SEQUENCE = "sequence"
ITERATION = "iteration"
SYMBOL_REF = "symbol_ref"
EMPTY = "empty"
LITERAL = "literal"

ALL_KINDS = (GRAMMAR, SYMBOL_DEF, PRODUCTION, ALTERNATIVE, SEQUENCE,
             ITERATION, SYMBOL_REF, EMPTY, LITERAL)

STAR = "star"
PLUS = "plus"
OPT = "opt"

SUFFIX_KIND = {"*": STAR, "+": PLUS, "?": OPT}


class GtNode:
    """One grammar tree node, built once by parse_grammar and finished in
    place.  Nothing changes a node after parse_grammar returns; the
    compiled parser tables rely on it.

    detail holds the per-kind payload: the name for symbol_def/symbol_ref,
    the text for literal, the iteration kind (star/plus/opt) for iteration,
    None otherwise.  The nodes of one tree share its pre-order table
    (index = id); a node's subtree is the run of ids from its own up to
    end, exclusive.  Nodes compare by identity; repr names no child.
    """

    __slots__ = ("id", "kind", "detail", "children", "span", "end", "_preorder")

    def __init__(self, kind: str, detail: str | None, children, span: tuple[int, int]):
        self.kind = kind
        self.detail = detail
        self.children = children  # a tuple once parse_grammar returns
        self.span = span

    def __repr__(self) -> str:
        return (f"GtNode(id={self.id}, kind={self.kind!r}, "
                f"detail={self.detail!r}, span={self.span})")

    def is_terminal_ref(self) -> bool:
        return self.kind == SYMBOL_REF and self.detail[0].isupper()

    @property
    def structure_key(self) -> tuple:
        """The subtree's (kind, detail, number of children) per node, in
        pre-order: two nodes are structurally equal iff their keys are
        equal, regardless of ids and spans.  The key is flat, so comparing
        two keys does not recurse however deep the subtree nests."""
        return tuple([(n.kind, n.detail, len(n.children))
                      for n in self._preorder[self.id:self.end]])


@dataclass(frozen=True, eq=False)
class GrammarTree:
    root: GtNode
    rule_index: dict[str, GtNode]
    by_id: dict[int, GtNode]
    source: str  # the grammar text; node spans index into it
    origin: str = "<grammar>"  # where the text came from, for diagnostics


def descendants(node: GtNode) -> list[GtNode]:
    """Pre-order traversal of the subtree rooted at node, excluding node."""
    return node._preorder[node.id + 1:node.end]


def iter_nodes(tree: GrammarTree):
    """Pre-order traversal including the root."""
    return iter(tree.root._preorder)


def literal_texts(tree: GrammarTree) -> list[str]:
    """All distinct literal texts, in first-appearance order."""
    return list(dict.fromkeys(n.detail for n in iter_nodes(tree) if n.kind == LITERAL))


# -- parsing -----------------------------------------------------------------

# lexemes that start an atom; so do some "bad" and "#" ones (_starts_atom)
_ATOM_START = {"name", "str", "#empty", "("}


def _starts_atom(lexeme: tuple, text: str) -> bool:
    """Whether a bad or '#' lexeme starts an atom, which then fails with the
    error that names it: a quote, a letter outside ASCII, or '#empty' run
    into a name."""
    kind, value, start, _ = lexeme
    if kind == "bad":
        return value == "'" or value.isalpha()
    return kind == "#" and text.startswith("#empty", start)


def parse_grammar(text: str, source: str = "<grammar>") -> GrammarTree:
    src = Lexed(text, source)
    lexemes, fail = src.lexemes, src.fail
    rules: list[GtNode] = []
    names: dict[str, int] = {}
    i = 0
    while lexemes[i][0] != "eof":
        kind, name, start, _ = lexemes[i]
        if kind != "name":
            fail("expected rule name", start)
        if name in names:
            fail(f"duplicate rule '{name}'", start)
        names[name] = start
        if name[0].isupper():
            fail(f"terminal name '{name}' cannot be defined as a rule", start)
        i += 1
        if lexemes[i][0] != ":":
            fail(f"expected ':' in rule '{name}'", lexemes[i][2])
        prods = []
        while lexemes[i][0] == ":":
            prod, i = _production(src, i + 1)
            prods.append(prod)
        if lexemes[i][0] != ";":
            fail(f"expected ';' in rule '{name}'", lexemes[i][2])
        rules.append(GtNode(SYMBOL_DEF, name, prods, (start, lexemes[i][3])))
        i += 1
    return _freeze(GtNode(GRAMMAR, None, rules, (0, len(text))), names, src)


def _production(src: Lexed, i: int) -> tuple[GtNode, int]:
    """Parse the production body that starts at lexeme i; return it and the
    index of the lexeme after it.

    An explicit stack holds the groups that parentheses opened, so nesting
    depth costs no Python recursion.  Normalization as in the module
    docstring: a group leaves no node of its own (its content takes the
    group's span), and one-element sequences and alternatives collapse.
    """
    lexemes, fail = src.lexemes, src.fail
    outer = []  # enclosing groups: (members, items, start of their '(')
    members, items, opened = [], [], None
    while True:
        kind, value, start, end = lexemes[i]
        i += 1
        if kind == "(":
            outer.append((members, items, opened))
            members, items, opened = [], [], start
            continue
        if kind == "name":
            atom = GtNode(SYMBOL_REF, value, (), (start, end))
        elif kind == "str":
            if not value:
                fail("empty literal", start)
            atom = GtNode(LITERAL, value, (), (start, end))
        elif kind == "#empty":
            atom = GtNode(EMPTY, None, (), (start, end))
        elif kind == "bad" and value == "'":
            src.bad_string(start)
        else:
            fail("expected a symbol, literal, '#empty', or '('", start)
        while True:  # the atom is complete; close every group that ends here
            kind = lexemes[i][0]
            if kind in SUFFIX_KIND:
                atom = GtNode(ITERATION, SUFFIX_KIND[kind], [atom], (atom.span[0], lexemes[i][3]))
                i += 1
                kind = lexemes[i][0]
            items.append(atom)
            if kind in _ATOM_START or kind in ("bad", "#") and _starts_atom(lexemes[i], src.text):
                break
            members.append(items[0] if len(items) == 1 else
                           GtNode(SEQUENCE, None, items, (items[0].span[0], items[-1].span[1])))
            if kind == "|":
                items = []
                i += 1
                break
            body = members[0] if len(members) == 1 else \
                GtNode(ALTERNATIVE, None, members, (members[0].span[0], members[-1].span[1]))
            if opened is None:
                children = body.children if body.kind == SEQUENCE else [body]
                return GtNode(PRODUCTION, None, children, body.span), i
            if kind != ")":
                fail("expected ')'", lexemes[i][2])
            body.span = (opened, lexemes[i][3])
            i += 1
            atom = body
            members, items, opened = outer.pop()


def _freeze(root: GtNode, names: dict[str, int], src: Lexed) -> GrammarTree:
    """Number the nodes in pre-order and check that every nonterminal
    reference names a rule, then finish them in place, children first."""
    order: list[GtNode] = []
    stack = [root]
    while stack:
        n = stack.pop()
        n.id = len(order)
        order.append(n)
        if n.children:
            stack.extend(reversed(n.children))
        elif n.kind == SYMBOL_REF and n.detail not in names and not n.detail[0].isupper():
            src.fail(f"reference to undefined rule '{n.detail}'", n.span[0])
    for n in reversed(order):
        n.children = kids = tuple(n.children)
        n.end = kids[-1].end if kids else n.id + 1
        n._preorder = order
    index = {sd.detail: sd for sd in root.children}
    return GrammarTree(root, index, dict(enumerate(order)), src.text, src.source)


# -- serialization -----------------------------------------------------------

def serialize_grammar(tree: GrammarTree) -> str:
    """Render the tree back to notation text.

    parse_grammar(serialize_grammar(t)) is structurally equal to t; the
    layout is one line per single-production rule and one ':' line per
    production otherwise.
    """
    lines = []
    for sd in tree.root.children:
        bodies = [_serialize_production(p) for p in sd.children]
        if len(bodies) == 1:
            lines.append(f"{sd.detail} : {bodies[0]} ;")
        else:
            lines.append(sd.detail + "".join(f"\n    : {b}" for b in bodies) + " ;")
    return "\n".join(lines) + ("\n" if lines else "")


# kinds that need parentheses as a child of each kind; a production's items
# need them only when there are several
_CHILD_WRAP = {ITERATION: (ALTERNATIVE, SEQUENCE, ITERATION),
               SEQUENCE: (ALTERNATIVE, SEQUENCE), ALTERNATIVE: (ALTERNATIVE,)}
_SUFFIX_TEXT = {kind: text for text, kind in SUFFIX_KIND.items()}


def _serialize_production(prod: GtNode) -> str:
    """Render one production's items.  An explicit stack holds what is
    still to be written, last first: text, or a node with the kinds that
    need parentheses where it stands."""
    out = []
    stack = [(prod, ())]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        n, wrap = item
        if n.kind == SYMBOL_REF:
            out.append(n.detail)
        elif n.kind == LITERAL:
            out.append(escape_string(n.detail))
        elif n.kind == EMPTY:
            out.append("#empty")
        elif n.kind in _CHILD_WRAP or n.kind == PRODUCTION:
            pending = [")"] if n.kind in wrap else []
            if n.kind == ITERATION:
                pending.append(_SUFFIX_TEXT[n.detail])
            if n.kind == PRODUCTION:
                inner = (ALTERNATIVE, SEQUENCE) if len(n.children) > 1 else ()
            else:
                inner = _CHILD_WRAP[n.kind]
            sep = " | " if n.kind == ALTERNATIVE else " "
            for i in range(len(n.children) - 1, -1, -1):
                pending.append((n.children[i], inner))
                if i:
                    pending.append(sep)
            if n.kind in wrap:
                out.append("(")
            stack.extend(pending)
        else:
            raise NotationError(f"cannot serialize node kind '{n.kind}'")
    return "".join(out)
