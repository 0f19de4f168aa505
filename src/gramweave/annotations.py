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

import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Iterator, NamedTuple, Optional, Tuple, Union

from .errors import ConflictError, NotationError
from .grammar import GrammarTree
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


@dataclass(frozen=True)
class NodeMeta:
    """What a store document records about a grammar-tree node."""

    kind: str
    detail: Optional[str]
    span: Tuple[int, int]
    children: Tuple[int, ...]


class AnnotationStore:
    """Annotations keyed by grammar-tree node id.

    The store knows the shape of the tree it was built for (node ids, kinds,
    spans) so that attachments can be validated and serialized.  nodes maps
    each node id to its NodeMeta, or, for a store made by for_tree, is the
    tree's own by_id table, read in place.  Each annotated node maps
    ``(namespace, name)`` to its attribute, in attach order.
    """

    def __init__(self, nodes: dict, root_id: int):
        self._nodes = nodes  # node id -> NodeMeta or GtNode
        self._root_id = root_id
        self._by_node: dict = {}  # node id -> {(namespace, name): Attribute}

    @classmethod
    def for_tree(cls, tree: GrammarTree) -> "AnnotationStore":
        return cls(tree.by_id, tree.root.id)

    @property
    def root_id(self) -> int:
        return self._root_id

    def node_meta(self, node_id: int) -> NodeMeta:
        node = self._nodes[node_id]
        if isinstance(node, NodeMeta):
            return node
        return NodeMeta(node.kind, node.detail, node.span, tuple(c.id for c in node.children))

    def annotation_for(self, node_id: int) -> Annotation:
        return Annotation(tuple(self._by_node.get(node_id, {}).values()))

    @property
    def grammar_annotation(self) -> Optional[Annotation]:
        attrs = self._by_node.get(self._root_id)
        return Annotation(tuple(attrs.values())) if attrs else None

    def annotated_nodes(self) -> Iterator[int]:
        return iter(sorted(self._by_node))

    def attach(self, node_id: int, annotation: Annotation,
               provenance: Optional[Provenance] = None) -> "AnnotationStore":
        """Append an annotation's attributes to a node.

        Re-attaching an identical (namespace, name, value) triple is a no-op;
        a different value for an existing key raises ConflictError.
        """
        if node_id not in self._nodes:
            raise KeyError(f"node {node_id} is not part of this store's tree")
        existing = self._by_node.setdefault(node_id, {})
        for attr in annotation.attributes:
            incoming = attr.with_provenance(provenance) if provenance else attr
            clash = existing.get(attr.key)
            if clash is None:
                existing[attr.key] = incoming
            elif clash.value != attr.value:
                meta = self._nodes[node_id]
                raise ConflictError(node_id, meta.span, attr.namespace, attr.name,
                                    clash.value, clash.provenance,
                                    attr.value, incoming.provenance)
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
        return self._root_id == other._root_id and mine == theirs

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

# The JSON layout is fixed so woven output is byte-stable.  It is what
# json.dumps(doc, indent=2) writes (ASCII only, key order as below):
#   {"version": 1,
#    "grammar": {"root": 0, "nodes": [{"id", "kind", "detail", "span",
#                                      "children"}, ...]},   ascending id
#    "annotations": [{"node", "namespace", "name", "value", "provenance"},
#                    ...]}                     ascending node id, attach order


# the scalar values by their "type" in a store document: class and field
_SCALAR_FIELDS = {"int": (IntValue, "value"), "str": (StrValue, "text"),
                  "name": (NameValue, "name"), "punct": (PunctValue, "char")}
_SCALAR_TYPES = {cls: (kind, name) for kind, (cls, name) in _SCALAR_FIELDS.items()}


def _value_from_json(data) -> Optional[Value]:
    """The value a store document spells.  Its JSON objects are listed in
    pre-order, last part first, then built in reverse, so each sequence
    or record finds its parts built last on the values list."""
    order, todo = [], [data]
    while todo:
        item = todo.pop()
        order.append(item)
        if item is not None and item["type"] == "seq":
            todo.extend(item["items"])
        elif item is not None and item["type"] == "record":
            todo.extend(a["value"] for a in item["attributes"])
    values = []
    for item in reversed(order):
        kind = None if item is None else item["type"]
        if kind in ("seq", "record"):
            parts = item["items" if kind == "seq" else "attributes"]
            built = values[len(values) - len(parts):]
            del values[len(values) - len(parts):]
            values.append(SeqValue(tuple(built)) if kind == "seq" else RecordValue(
                Annotation(tuple(map(_attribute, parts, built)))))
        elif kind in _SCALAR_FIELDS:
            cls, name = _SCALAR_FIELDS[kind]
            values.append(cls(_checked(item[name], _is_int if cls is IntValue else _is_str,
                                       f"a value of type {kind!r}")))
        elif item is None:
            values.append(None)
        else:
            raise NotationError(f"unknown value type {kind!r} in store document")
    return values[0]


def _quote(text: Optional[str]) -> str:
    return "null" if text is None else encode_basestring_ascii(text)


def _int_list(values) -> str:
    """A list of ints as it stands in a node entry, its items 10 spaces in."""
    if not values:
        return "[]"
    return "[\n          " + ",\n          ".join(map(str, values)) + "\n        ]"


def _entries(items: list, indent: str) -> str:
    """A JSON list of already indented entries; indent is the list's own."""
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + "\n" + indent + "]"


_NODE = """      {{
        "id": {},
        "kind": {},
        "detail": {},
        "span": [
          {},
          {}
        ],
        "children": {}
      }}"""

_ANNOTATION = """    {{
      "node": {},
      "namespace": {},
      "name": {},
      "value": {},
      "provenance": {}
    }}"""

_PROVENANCE = """{{
        "aspect": {},
        "rule": {}
      }}"""

_SCALAR = '{{\n{0}  "type": "{1}",\n{0}  "{2}": {3}\n{0}}}'


def _child_ids(node):
    """A NodeMeta holds its children's ids, a grammar-tree node its children."""
    if isinstance(node, NodeMeta):
        return node.children
    return [c.id for c in node.children]


def _scalar_text(value, pad: str) -> str:
    """A scalar value or None, its closing brace pad spaces in."""
    if value is None:
        return "null"
    kind, name = _SCALAR_TYPES[type(value)]
    text = getattr(value, name)
    return _SCALAR.format(pad, kind, name, json.dumps(text) if kind == "int" else _quote(text))


def _value_text(value: Optional[Value]) -> str:
    """A value as json.dumps(indent=2) writes it in an annotation entry:
    its fields 8 spaces in, its closing brace 6.

    A scalar is one template.  Sequences and records write their heads at
    once and leave their parts, separators and ends on a stack of what is
    still to write, last first, so values nest to any depth.
    """
    if value is None or type(value) in _SCALAR_TYPES:  # most values
        return _scalar_text(value, "      ")
    out, todo = [], [(value, "      ")]
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
            continue
        value, pad = item
        inner = pad + "  "
        if value is None or type(value) in _SCALAR_TYPES:
            out.append(_scalar_text(value, pad))
        elif type(value) is Attribute:
            out.append(f'{{\n{inner}"namespace": {_quote(value.namespace)},\n'
                       f'{inner}"name": {_quote(value.name)},\n{inner}"value": ')
            todo += ("\n" + pad + "}", (value.value, inner))
        else:
            kind, name, parts = ("seq", "items", value.items) if type(value) is SeqValue \
                else ("record", "attributes", value.annotation.attributes)
            out.append(f'{{\n{inner}"type": "{kind}",\n{inner}"{name}": ')
            if not parts:
                out.append("[]\n" + pad + "}")
                continue
            out.append("[\n" + inner + "  ")
            todo.append("\n" + inner + "]\n" + pad + "}")
            for k in range(len(parts) - 1, -1, -1):
                todo.append((parts[k], inner + "  "))
                if k:
                    todo.append(",\n" + inner + "  ")
    return "".join(out)


def serialize_store(store: AnnotationStore) -> str:
    """Write the layout above from templates, without building the document."""
    nodes = []
    for node_id in sorted(store._nodes):
        node = store._nodes[node_id]
        nodes.append(_NODE.format(node_id, _quote(node.kind), _quote(node.detail),
                                  *node.span, _int_list(_child_ids(node))))
    annotations = []
    for node_id in store.annotated_nodes():
        for attr in store._by_node[node_id].values():
            prov = attr.provenance
            annotations.append(_ANNOTATION.format(
                node_id, _quote(attr.namespace), _quote(attr.name),
                _value_text(attr.value),
                "null" if prov is None else _PROVENANCE.format(
                    prov.aspect, "null" if prov.rule is None else prov.rule)))
    return ('{\n  "version": 1,\n  "grammar": {\n    "root": %s,\n    "nodes": %s\n  },'
            '\n  "annotations": %s\n}\n'
            % (store.root_id, _entries(nodes, "    "), _entries(annotations, "  ")))


def _is_int(value) -> bool:
    return type(value) is int  # JSON true and false load as bool, an int subclass


def _is_int_list(value) -> bool:
    return isinstance(value, list) and all(map(_is_int, value))


def _is_span(value) -> bool:
    return _is_int_list(value) and len(value) == 2


def _is_str(value) -> bool:
    return isinstance(value, str)


def _is_text(value) -> bool:
    return value is None or isinstance(value, str)


def _checked(value, test, what: str):
    if not test(value):
        raise NotationError(f"{what} in store document is malformed: {value!r}")
    return value


def _attribute(entry, value: Optional[Value]) -> Attribute:
    """The attribute a store document's entry names, holding value."""
    return Attribute(_checked(entry["name"], _is_str, "an attribute name"),
                     _checked(entry["namespace"], _is_text, "an attribute namespace"), value)


def deserialize_store(text: str) -> AnnotationStore:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise NotationError(f"store document is not valid JSON: {exc}")
    except RecursionError:  # json.loads recurses per level; the writer does not
        raise NotationError("store document nests too deep for the JSON reader") from None
    if not isinstance(doc, dict):
        raise NotationError("store document is not a JSON object")
    if doc.get("version") != 1:
        raise NotationError(f"unsupported store version {doc.get('version')!r}")
    try:
        nodes = {}
        for entry in doc["grammar"]["nodes"]:
            span = _checked(entry["span"], _is_span, "a node span")
            children = _checked(entry["children"], _is_int_list, "a node's children")
            nodes[_checked(entry["id"], _is_int, "a node id")] = NodeMeta(
                _checked(entry["kind"], _is_text, "a node kind"),
                _checked(entry["detail"], _is_text, "a node detail"), tuple(span), tuple(children))
        store = AnnotationStore(nodes, _checked(doc["grammar"]["root"],
                                                lambda r: _is_int(r) and r in nodes,
                                                "the grammar root"))
        for entry in doc["annotations"]:
            if not _is_int(entry["node"]) or entry["node"] not in nodes:
                raise NotationError(f"annotation on unknown node {entry['node']!r} "
                                    "in store document")
            prov = entry.get("provenance")
            provenance = Provenance(
                _checked(prov["aspect"], _is_int, "a provenance aspect"),
                _checked(prov["rule"], lambda r: r is None or _is_int(r), "a provenance rule"),
            ) if prov else None
            attr = _attribute(entry, _value_from_json(entry["value"]))
            store.attach(entry["node"], Annotation((attr,)), provenance)
    except KeyError as exc:
        raise NotationError(f"store document lacks the field {exc}") from None
    except (AttributeError, TypeError) as exc:
        raise NotationError(f"malformed store document: {exc}") from None
    return store
