"""Advice values, annotations, and the store that weaving fills in.

An annotation is an ordered set of attributes written between braces:

    { group = keyword; html: color = 'red'; deprecated }

Each attribute is ``namespace? NAME ('=' value)?``; a valueless attribute is a
flag.  Values come in six shapes: integers, quoted strings, bare name
literals, nested annotations (records), ``{{ ... }}`` sequences, and single
punctuation characters inside sequences.  The one-attribute shorthand
``.name = value`` is also accepted.

Weaving produces an :class:`AnnotationStore`: a map from grammar-tree node
ids to annotations, with per-attribute provenance (which aspect and which
rule attached it).  The grammar tree itself is never touched.  Stores
serialize to a stable JSON document so woven results can be diffed and
snapshot-tested.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Optional, Tuple, Union

from .errors import ConflictError, NotationError
from .grammar import GrammarTree, parse_grammar
from .scan import Lexed

# Single-character values allowed inside {{ }} sequences.
PUNCTUATION = set("`~!@#$%()-+=|\\[];:,./?<>")


class _Flag:
    """Marker returned by lookup() for attributes that carry no value."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "FLAG"


FLAG = _Flag()


def _value_or_flag(attr: Optional["Attribute"]):
    """An attribute's value as read: FLAG if valueless, None if absent."""
    if attr is None:
        return None
    return attr.value if attr.value is not None else FLAG


# ---------------------------------------------------------------------------
# Value model


@dataclass(frozen=True)
class IntValue:
    value: int


@dataclass(frozen=True)
class StrValue:
    text: str


@dataclass(frozen=True)
class NameValue:
    """A bare identifier used as a value, e.g. ``group = keyword``."""

    name: str


@dataclass(frozen=True)
class RecordValue:
    """A nested annotation used as a value, e.g. ``rec = {b = c; d = 5}``."""

    annotation: "Annotation"


@dataclass(frozen=True)
class SeqValue:
    """A ``{{ ... }}`` sequence; items are values or punctuation characters."""

    items: Tuple["Value", ...]


@dataclass(frozen=True)
class PunctValue:
    char: str


Value = Union[IntValue, StrValue, NameValue, RecordValue, SeqValue, PunctValue]

# the values one lexeme spells, by its kind; a '{' starts any other value
_SCALARS = {"int": IntValue, "str": StrValue, "name": NameValue}
_VALUE_START = {"{", *_SCALARS}


class Provenance(NamedTuple):
    """Where an attribute came from: aspect index, rule index within it.

    rule is None for an aspect's grammar-level annotation.
    """

    aspect: int
    rule: Optional[int]


@dataclass(frozen=True)
class Attribute:
    name: str
    namespace: Optional[str] = None
    value: Optional[Value] = None  # None means the attribute is a flag
    provenance: Optional[Provenance] = field(default=None, compare=False)
    loc: Tuple[int, int] = field(default=(0, 0), compare=False)

    @property
    def key(self) -> Tuple[Optional[str], str]:
        return (self.namespace, self.name)

    def with_provenance(self, prov: Optional[Provenance]) -> "Attribute":
        return Attribute(self.name, self.namespace, self.value, prov, self.loc)

    def describe(self) -> str:
        """The attribute by name, with its line and column when it has them."""
        at = f" at line {self.loc[0]}, column {self.loc[1]}" if self.loc != (0, 0) else ""
        return f"attribute '{self.name}'{at}"


@dataclass(frozen=True)
class Annotation:
    """An ordered collection of attributes with unique (namespace, name)."""

    attributes: Tuple[Attribute, ...] = ()

    def __post_init__(self):
        seen = set()
        for attr in self.attributes:
            if attr.key in seen:
                qual = f"{attr.namespace}:{attr.name}" if attr.namespace else attr.name
                raise NotationError(f"duplicate attribute '{qual}' in annotation",
                                    line=attr.loc[0], col=attr.loc[1])
            seen.add(attr.key)

    def get(self, name: str, namespace: Optional[str] = None):
        key = (namespace, name)
        return _value_or_flag(next((a for a in self.attributes if a.key == key),
                                   None))

    def __bool__(self) -> bool:
        return bool(self.attributes)


# ---------------------------------------------------------------------------
# Parsing


def parse_annotation(text: str, source: str = "<string>") -> Annotation:
    """Parse a complete annotation; the whole text must be consumed."""
    src = Lexed(text, source)
    ann, i = annotation_at(src, 0)
    kind, _, start, _ = src.lexemes[i]
    if kind != "eof":
        src.fail("unexpected text after annotation", start)
    return ann


class _Open(list):
    """The attributes of an annotation still being read; head is the name,
    namespace and location of the one whose value is being read."""

    __slots__ = ("dot", "head")


def annotation_at(src: Lexed, i: int) -> tuple[Annotation, int]:
    """Parse the annotation at lexeme i, braces form or '.attr'; return it
    and the index of the lexeme after it.

    Records and '{{ }}' sequences nest: frames holds the annotations
    (_Open) and sequences (plain lists of items) still open, innermost
    last, so depth costs no Python recursion.  state names what may start
    at lexeme i: "open" an annotation, "attr" an attribute, "sep" '}' or
    an attribute (after '{' or ';'), "after" ';' or '}' (after an
    attribute), "value" a value, "item" a sequence item or '}}'.
    """
    lx, fail = src.lexemes, src.fail
    frames = []
    state = "open"
    while True:
        kind, value, start, end = lx[i]
        if state == "open":
            frame = _Open()
            frame.dot = kind == "."
            if frame.dot and end - start > 1:
                fail("expected attribute name", start + 1)
            if not frame.dot and kind != "{":
                fail("expected '{' in annotation", start)
            frames.append(frame)
            i += 1
            state = "attr" if frame.dot else "sep"
            continue
        if state == "sep" and kind == ";" and lx[i - 1][0] == ";":
            i += 1  # ';' may trail or repeat
            continue
        if (state == "sep" or state == "after") and kind == "}":
            i += 1
            try:
                ann = Annotation(tuple(frames.pop()))
            except NotationError as exc:  # a duplicate attribute
                exc.source = src.source
                raise
            if not frames:
                return ann, i
            value = RecordValue(ann)
        elif state == "after":
            if kind != ";":
                fail("expected '}' in annotation", start)
            i += 1
            state = "sep"
            continue
        elif state == "attr" or state == "sep":
            namespace, loc = None, start
            if kind == "name" and lx[i + 1][0] == ":":
                namespace = value
                i += 2
                kind, value, loc, _ = lx[i]
            if kind != "name":
                fail("expected attribute name", loc)
            frames[-1].head = (value, namespace, src.loc(loc))
            i += 1
            if lx[i][0] == "=":
                i += 1
                state = "value"
                continue
            value = None  # a flag
        elif state == "item":
            if kind == "}" and lx[i + 1][0] == "}" and lx[i + 1][2] == end:
                i += 2
                value = SeqValue(tuple(frames.pop()))
            elif kind == "eof":
                fail("unterminated '{{' sequence", start)
            elif kind in PUNCTUATION:  # a dot run is a dot per character
                frames[-1].extend([PunctValue(kind)] * (end - start))
                i += 1
                continue
            elif kind == "#lex" or kind == "#empty":  # '#', then a name
                frames[-1] += (PunctValue("#"), NameValue(kind[1:]))
                i += 1
                continue
            elif kind in _VALUE_START or kind == "bad" and (
                    value == "'" or value.isdigit() or value.isalpha()):
                state = "value"
                continue
            else:
                fail(f"unexpected character {value!r} in sequence", start)
        elif kind == "{" and lx[i + 1][0] == "{" and lx[i + 1][2] == end:
            frames.append([])
            i += 2
            state = "item"
            continue
        elif kind == "{" or kind == ".":
            state = "open"
            continue
        elif kind in _SCALARS:
            value, i = _SCALARS[kind](value), i + 1
        elif kind == "bad" and value == "'":
            src.bad_string(start)
        else:
            fail("expected a value", start)
        while True:  # hand the finished value to the innermost open frame
            top = frames[-1]
            if type(top) is list:
                top.append(value)
                state = "item"
                break
            name, namespace, loc = top.head
            top.append(Attribute(name, namespace, value, loc=loc))
            if not top.dot:
                state = "after"
                break
            ann = Annotation(tuple(frames.pop()))
            if not frames:
                return ann, i
            value = RecordValue(ann)


# ---------------------------------------------------------------------------
# The store


class AnnotationStore:
    """Annotations keyed by grammar-tree node id.

    The store holds the grammar tree it was built for, so that attachments
    can be validated and the tree written out with the annotations.  Each
    annotated node maps ``(namespace, name)`` to its attribute, in attach
    order.
    """

    def __init__(self, tree: GrammarTree):
        self.tree = tree
        self._by_node: dict = {}  # node id -> {(namespace, name): Attribute}

    @property
    def root_id(self) -> int:
        return self.tree.root.id

    def node_meta(self, node_id: int) -> tuple:
        """A node's (kind, detail, span, child ids), values that compare
        equal across two parses of one grammar text."""
        node = self.tree.by_id[node_id]
        return node.kind, node.detail, node.span, tuple(c.id for c in node.children)

    def annotation_for(self, node_id: int) -> Annotation:
        return Annotation(tuple(self._by_node.get(node_id, {}).values()))

    @property
    def grammar_annotation(self) -> Optional[Annotation]:
        attrs = self._by_node.get(self.root_id)
        return Annotation(tuple(attrs.values())) if attrs else None

    def annotated_nodes(self) -> Iterator[int]:
        return iter(sorted(self._by_node))

    def attach(self, node_id: int, annotation: Annotation,
               provenance: Optional[Provenance] = None) -> "AnnotationStore":
        """Append an annotation's attributes to a node.

        Re-attaching an identical (namespace, name, value) triple is a no-op;
        a different value for an existing key raises ConflictError.
        """
        if node_id not in self.tree.by_id:
            raise KeyError(f"node {node_id} is not part of this store's tree")
        existing = self._by_node.setdefault(node_id, {})
        for attr in annotation.attributes:
            incoming = attr.with_provenance(provenance) if provenance else attr
            clash = existing.get(attr.key)
            if clash is None:
                existing[attr.key] = incoming
            elif clash.value != attr.value:
                raise ConflictError(node_id, self.tree.by_id[node_id].span,
                                    attr.namespace, attr.name, clash.value,
                                    clash.provenance, attr.value, incoming.provenance)
        if not existing:
            del self._by_node[node_id]
        return self

    def attribute(self, node_id: int, name: str,
                  namespace: Optional[str] = None) -> Optional[Attribute]:
        """The attribute itself, with its provenance and location; None if absent."""
        attrs = self._by_node.get(node_id)
        return attrs.get((namespace, name)) if attrs else None

    def lookup(self, node_id: int, name: str, namespace: Optional[str] = None):
        """Value of an attribute on a node; FLAG if valueless; None if absent."""
        return _value_or_flag(self.attribute(node_id, name, namespace))

    def __eq__(self, other) -> bool:
        if not isinstance(other, AnnotationStore):
            return NotImplemented
        mine = {n: tuple(a.values()) for n, a in self._by_node.items()}
        theirs = {n: tuple(a.values()) for n, a in other._by_node.items()}
        return self.tree.source == other.tree.source and mine == theirs

    def __len__(self) -> int:
        return sum(len(attrs) for attrs in self._by_node.values())


class NodeMemo(dict):
    """Node id -> read(node id), read on the first lookup of each id and kept.

    The backends make one per call for the attribute they read, so each
    node's attribute is looked up and decoded at most once per call, and
    only for nodes the input reaches.
    """

    __slots__ = ("read",)

    def __init__(self, read):
        super().__init__()
        self.read = read

    def __missing__(self, node_id: int):
        value = self[node_id] = self.read(node_id)
        return value


# ---------------------------------------------------------------------------
# Serialization

# A store document is ASCII JSON, laid out so that it is byte-stable and
# diffs line by line.  Its first line holds the grammar once, as its text:
#   {"version":2,"grammar":{"source":<origin>,"text":<text>},"annotations":[
# then one compact entry per attribute, ascending node id, attach order:
#   [node, namespace, name, value, aspect, rule]
# (aspect and rule null when the attribute has no provenance), and "]}".
# A value is a flat pre-order list of items, so JSON nests a few levels
# deep however deep the value does:
#   ["int", n] ["str", s] ["name", s] ["punct", c] ["flag"]  (no value)
#   ["seq", k]     followed by its k items' values
#   ["record", k]  followed by k attributes, each ["attr", namespace, name]
#                  and then its value's items

# the scalar values by their item kind: class and field
_SCALAR_FIELDS = {"int": (IntValue, "value"), "str": (StrValue, "text"),
                  "name": (NameValue, "name"), "punct": (PunctValue, "char")}
_SCALAR_TYPES = {cls: (kind, name) for kind, (cls, name) in _SCALAR_FIELDS.items()}


def _items(value: Optional[Value]) -> list:
    """A value's flat item list: one loop over a stack of what is still to
    write, last first."""
    out, todo = [], [value]
    while todo:
        value = todo.pop()
        if value is None:
            out.append(["flag"])
        elif type(value) is Attribute:
            out.append(["attr", value.namespace, value.name])
            todo.append(value.value)
        elif type(value) is SeqValue:
            out.append(["seq", len(value.items)])
            todo.extend(reversed(value.items))
        elif type(value) is RecordValue:
            out.append(["record", len(value.annotation.attributes)])
            todo.extend(reversed(value.annotation.attributes))
        else:
            kind, name = _SCALAR_TYPES[type(value)]
            out.append([kind, getattr(value, name)])
    return out


def serialize_store(store: AnnotationStore) -> str:
    """Write the store document laid out above."""
    import json
    dumps = json.JSONEncoder(separators=(",", ":")).encode  # ASCII only
    tree = store.tree
    head = '{"version":2,"grammar":{"source":%s,"text":%s},"annotations":[' % (
        dumps(tree.origin), dumps(tree.source))
    entries = []
    for node_id in store.annotated_nodes():
        for attr in store._by_node[node_id].values():
            prov = attr.provenance or (None, None)
            entries.append(dumps([node_id, attr.namespace, attr.name, _items(attr.value),
                                  *prov]))
    return "\n".join(filter(None, [head, ",\n".join(entries), "]}"])) + "\n"


def _is_int(value) -> bool:
    return type(value) is int  # JSON true and false load as bool, an int subclass


def _is_str(value) -> bool:
    return isinstance(value, str)


def _is_text(value) -> bool:
    return value is None or isinstance(value, str)


def _checked(value, test, what: str):
    if not test(value):
        raise NotationError(f"{what} in store document is malformed: {value!r}")
    return value


def _value(items) -> Optional[Value]:
    """The value a flat item list spells: one loop, with the sequences and
    records still open on a stack of [kind, parts left, parts, attribute
    head], innermost last; the bottom frame takes the one whole value."""
    frames = [["value", 1, [], None]]
    for item in _checked(items, lambda v: type(v) is list, "a value"):
        if not frames[0][1]:
            raise NotationError("a value in store document has leftover items")
        frame = frames[-1]
        kind = item[0] if type(item) is list and item else None
        size = len(item) if kind else 0
        if frame[0] == "record" and frame[3] is None:  # an attribute's head
            if kind != "attr" or size != 3:
                raise NotationError(f"expected an attribute head in store document: {item!r}")
            frame[3] = (_checked(item[2], _is_str, "an attribute name"),
                        _checked(item[1], _is_text, "an attribute namespace"))
            continue
        if kind in _SCALAR_FIELDS and size == 2:
            cls = _SCALAR_FIELDS[kind][0]
            value = cls(_checked(item[1], _is_int if cls is IntValue else _is_str,
                                 f"a value of type {kind!r}"))
        elif kind == "flag" and size == 1 and frame[0] != "seq":
            value = None
        elif (kind == "seq" or kind == "record") and size == 2:
            if _checked(item[1], lambda k: _is_int(k) and k >= 0, f"a {kind} length"):
                frames.append([kind, item[1], [], None])
                continue
            value = SeqValue(()) if kind == "seq" else RecordValue(Annotation())
        else:
            raise NotationError(f"unknown value item {item!r} in store document")
        while True:  # hand the value to its frame, closing each frame it fills
            frame = frames[-1]
            if frame[0] == "record":
                name, namespace = frame[3]
                frame[2].append(Attribute(name, namespace, value))
                frame[3] = None
            else:
                frame[2].append(value)
            frame[1] -= 1
            if frame[1] or len(frames) == 1:
                break
            frames.pop()
            value = SeqValue(tuple(frame[2])) if frame[0] == "seq" else \
                RecordValue(Annotation(tuple(frame[2])))
    if len(frames) != 1 or frames[0][1]:
        raise NotationError("a value in store document ends before its parts do")
    return frames[0][2][0]


def deserialize_store(text: str) -> AnnotationStore:
    """Read a store document back: parse its grammar text, then attach each
    entry to the tree's own nodes."""
    import json
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise NotationError(f"store document is not valid JSON: {exc}")
    except RecursionError:  # json.loads recurses per level; documents nest 5 deep
        raise NotationError("store document nests too deep for the JSON reader") from None
    if not isinstance(doc, dict):
        raise NotationError("store document is not a JSON object")
    if doc.get("version") != 2:
        raise NotationError(f"unsupported store version {doc.get('version')!r}")
    try:
        grammar = doc["grammar"]
        tree = parse_grammar(_checked(grammar["text"], _is_str, "the grammar text"),
                             _checked(grammar["source"], _is_str, "the grammar source"))
        store = AnnotationStore(tree)
        for entry in _checked(doc["annotations"], lambda v: type(v) is list, "the annotations"):
            node, namespace, name, items, aspect, rule = _checked(
                entry, lambda e: type(e) is list and len(e) == 6, "an annotation entry")
            if not _is_int(node) or node not in tree.by_id:
                raise NotationError(f"annotation on unknown node {node!r} in store document")
            provenance = None if aspect is None and rule is None else Provenance(
                _checked(aspect, _is_int, "a provenance aspect"),
                _checked(rule, lambda r: r is None or _is_int(r), "a provenance rule"))
            attr = Attribute(_checked(name, _is_str, "an attribute name"),
                             _checked(namespace, _is_text, "an attribute namespace"), _value(items))
            store.attach(node, Annotation((attr,)), provenance)
    except KeyError as exc:
        raise NotationError(f"store document lacks the field {exc}") from None
    except (AttributeError, TypeError) as exc:
        raise NotationError(f"malformed store document: {exc}") from None
    return store
