import json
import random
from dataclasses import replace

import pytest

from gramweave import (FLAG, Annotation, AnnotationStore, Attribute,
                       ConflictError, IntValue, Multiplicity, NameValue,
                       NotationError, Provenance, PunctValue, RecordValue,
                       SeqValue, StrValue, deserialize_store, parse_annotation,
                       parse_grammar, serialize_store, weave, parse_aspect)
from gramweave.aspects import Subpattern
from gramweave.grammar import iter_nodes
from gramweave.scan import escape_string
from support import fixture, random_grammar, reference_serialize_store


def attr_map(ann):
    return {(a.namespace, a.name): a.value for a in ann.attributes}


class TestParse:
    def test_single_name_value(self):
        ann = parse_annotation("{ group = keyword }")
        assert attr_map(ann) == {(None, "group"): NameValue("keyword")}

    def test_sequence_value(self):
        ann = parse_annotation("{ after = {{ '\\n' increaseIndent }} }")
        assert attr_map(ann) == {
            (None, "after"): SeqValue((StrValue("\n"), NameValue("increaseIndent")))}

    def test_nested_record(self):
        ann = parse_annotation("{ rec = {b = c; d = 5} }")
        rec = ann.get("rec")
        assert isinstance(rec, RecordValue)
        inner = attr_map(rec.annotation)
        assert inner == {(None, "b"): NameValue("c"), (None, "d"): IntValue(5)}

    def test_empty(self):
        ann = parse_annotation("{}")
        assert ann.attributes == ()
        assert not ann

    # the predefined value types, one of each
    def test_value_type_table(self):
        ann = parse_annotation(
            "{ i = 10; s = 'Hello'; n = SomeName; r = {b = c}; q = {{1, a 'x'}} }")
        assert ann.get("i") == IntValue(10)
        assert ann.get("s") == StrValue("Hello")
        assert ann.get("n") == NameValue("SomeName")
        assert isinstance(ann.get("r"), RecordValue)
        seq = ann.get("q")
        assert seq == SeqValue((IntValue(1), PunctValue(","), NameValue("a"),
                                StrValue("x")))

    def test_dot_shorthand_and_namespace(self):
        ann = parse_annotation(".ppr:before = {{ ' ' }}")
        (attr,) = ann.attributes
        assert attr.namespace == "ppr" and attr.name == "before"

    @pytest.mark.parametrize("text, loc", [
        ("{ color = red }", (1, 3)),
        ("{html:color = red}", (1, 7)),
        ("{ html: color = red }", (1, 9)),
        ("{ html :\n  color = red }", (2, 3)),
    ])
    def test_attribute_location_is_its_name(self, text, loc):
        (attr,) = parse_annotation(text).attributes
        assert attr.loc == loc

    def test_flag_attribute(self):
        ann = parse_annotation("{ hidden }")
        assert ann.get("hidden") is FLAG

    @pytest.mark.parametrize("text", [
        "{ a = 1; a = 2 }",        # duplicate name
        "{ a = }",                 # missing value
        "{ a = {{ } }",            # unterminated sequence
        "{ a = 'x }",              # unterminated string
        "group = keyword",         # missing braces
    ])
    def test_rejects(self, text):
        with pytest.raises(NotationError):
            parse_annotation(text)

    @pytest.mark.parametrize("text, message", [
        ("{ a = ² }", "a.txt:1:7: expected a value"),
        ("{ a = ١٢ }", "a.txt:1:7: expected a value"),
        ("{ a = {{ 1 ² }} }", "a.txt:1:12: expected a value"),
        ("{ a = 1; a = 2 }", "a.txt:1:10: duplicate attribute 'a' in annotation"),
    ])
    def test_positioned_errors(self, text, message):
        # integers are ASCII digits, though str.isdigit accepts ² and ١
        with pytest.raises(NotationError) as exc:
            parse_annotation(text, "a.txt")
        assert str(exc.value) == message


class TestStore:
    @pytest.fixture
    def tree(self):
        return parse_grammar("a : 'x' B ;")

    def literal_id(self, tree):
        return next(n.id for n in iter_nodes(tree) if n.kind == "literal")

    def test_attach_idempotent(self, tree):
        store = AnnotationStore(tree)
        ann = parse_annotation("{ group = keyword }")
        nid = self.literal_id(tree)
        store.attach(nid, ann)
        store.attach(nid, ann)
        assert len(store) == 1
        assert store.lookup(nid, "group") == NameValue("keyword")

    def test_attach_conflict(self, tree):
        store = AnnotationStore(tree)
        nid = self.literal_id(tree)
        store.attach(nid, parse_annotation("{ group = keyword }"), Provenance(0, 0))
        with pytest.raises(ConflictError) as exc:
            store.attach(nid, parse_annotation("{ group = classDeclaration }"),
                         Provenance(0, 1))
        err = exc.value
        assert err.node_id == nid
        assert err.span == tree.by_id[nid].span
        assert "aspect 0 rule 0" in str(err) and "aspect 0 rule 1" in str(err)

    def test_attach_unknown_node(self, tree):
        store = AnnotationStore(tree)
        with pytest.raises(KeyError):
            store.attach(9999, parse_annotation("{ a = 1 }"))

    def test_lookup_absent(self, tree):
        store = AnnotationStore(tree)
        assert store.lookup(self.literal_id(tree), "group") is None

    def test_attribute_is_keyed_by_namespace_and_name(self, tree):
        store = AnnotationStore(tree)
        nid = self.literal_id(tree)
        store.attach(nid, parse_annotation("{ color = red;\nhtml:color = blue; f }"),
                     Provenance(1, 2))
        attr = store.attribute(nid, "color", "html")
        assert attr.value == NameValue("blue")
        assert (attr.provenance, attr.loc) == (Provenance(1, 2), (2, 6))
        assert store.attribute(nid, "color").value == NameValue("red")
        assert store.attribute(nid, "color", "tex") is None
        assert store.attribute(tree.root.id, "color") is None
        assert store.lookup(nid, "f") is FLAG
        # attach order is kept
        assert [a.key for a in store.annotation_for(nid).attributes] == \
            [(None, "color"), ("html", "color"), (None, "f")]

    def test_weave_lookup_examples(self, java5, highlight_store, pretty_store):
        class_lit = next(n.id for n in iter_nodes(java5)
                         if n.kind == "literal" and n.detail == "class")
        assert highlight_store.lookup(class_lit, "group") == NameValue("keyword")
        assert pretty_store.lookup(java5.root.id, "defaultAfter") == \
            SeqValue((StrValue(" "),))

    def test_weave_does_not_mutate_tree(self, highlight_aspect):
        from support import fixture
        tree = parse_grammar(fixture("java5.g"), "java5.g")
        before = tree.root.structure_key
        ids = [(n.id, n.kind, n.detail) for n in iter_nodes(tree)]
        weave(tree, [highlight_aspect])
        assert tree.root.structure_key == before
        assert [(n.id, n.kind, n.detail) for n in iter_nodes(tree)] == ids

    def test_provenance_recorded(self, highlight_store):
        for nid in highlight_store.annotated_nodes():
            for attr in highlight_store.annotation_for(nid).attributes:
                assert attr.provenance is not None
                assert attr.provenance.aspect == 0
                assert attr.provenance.rule in (0, 1, 2)


class TestSerialization:
    def test_round_trip(self, highlight_store):
        text = serialize_store(highlight_store)
        back = deserialize_store(text)
        assert back == highlight_store
        assert serialize_store(back) == text

    def test_node_meta_of_woven_and_read_back_stores(self, java5, highlight_store):
        back = deserialize_store(serialize_store(highlight_store))
        for node in iter_nodes(java5):
            meta = (node.kind, node.detail, node.span, tuple(c.id for c in node.children))
            assert highlight_store.node_meta(node.id) == meta
            assert back.node_meta(node.id) == meta

    def test_round_trip_all_value_kinds(self):
        tree = parse_grammar("a : 'x' ;")
        store = AnnotationStore(tree)
        ann = parse_annotation(
            "{ i = 10; s = 'He\\'llo'; n = N; r = {x = {{ }} }; "
            "q = {{ 1 , nested {{ '+' }} }}; f }")
        store.attach(tree.root.id, ann, Provenance(0, None))
        text = serialize_store(store)
        back = deserialize_store(text)
        assert back == store
        assert serialize_store(back) == text

    def test_grammar_shape_embedded(self, highlight_store):
        text = serialize_store(highlight_store)
        head, *lines, end = text.splitlines()
        assert head.startswith('{"version":2,"grammar":{"source":"java5.g","text":"')
        assert head.endswith('"},"annotations":[') and end == "]}"
        data = json.loads(text)
        assert data["version"] == 2
        assert data["grammar"] == {"source": "java5.g", "text": fixture("java5.g")}
        entries = data["annotations"]
        assert [json.loads(line.rstrip(",")) for line in lines] == entries
        node_ids = [e[0] for e in entries]
        assert node_ids == sorted(node_ids)
        assert all(e[2] == "group" for e in entries)
        assert len(entries) == 9

    @pytest.mark.parametrize("edit", [
        lambda doc: [],
        lambda doc: {k: v for k, v in doc.items() if k != "grammar"},
        lambda doc: with_entry(doc, node=9999),
        lambda doc: with_entry(doc, value=[["int"]]),
        lambda doc: {k: v for k, v in doc.items() if k != "annotations"},
        lambda doc: dict(doc, annotations=[{"node": 0}]),
        lambda doc: with_entry(doc, aspect=None, rule=0),
        lambda doc: with_entry(doc, value=[["int", "x"]]),
        lambda doc: with_entry(doc, value=[["int", True]]),
        lambda doc: with_entry(doc, value=[[3, 1]]),
        lambda doc: with_entry(doc, node="0"),
        lambda doc: with_entry(doc, node=True),
        lambda doc: with_entry(doc, name=3),
        lambda doc: with_entry(doc, name=None),
        lambda doc: with_entry(doc, namespace=3),
        lambda doc: with_entry(doc, aspect="x"),
        lambda doc: with_entry(doc, rule="x"),
        lambda doc: with_entry(doc, value=[["str", 3]]),
        lambda doc: with_entry(doc, value=[["name", 3]]),
        lambda doc: with_entry(doc, value=[["punct", 3]]),
        lambda doc: with_entry(doc, value=[["record", 1], ["attr", None, 3], ["flag"]]),
        lambda doc: with_entry(doc, value=[["record", 1], ["attr", 3, "a"], ["flag"]]),
        lambda doc: dict(doc, grammar=dict(doc["grammar"], text=["a : 'x' ;"])),
        lambda doc: dict(doc, grammar=dict(doc["grammar"], text="a : 'x' ")),
        lambda doc: dict(doc, version=1),
        lambda doc: with_entry(doc, value=[["float", 1.5]]),
        lambda doc: with_entry(doc, value=[["seq", 2], ["int", 1]]),
        lambda doc: with_entry(doc, value=[["int", 1], ["int", 2]]),
        lambda doc: with_entry(doc, value=[["seq", True], ["int", 1]]),
        lambda doc: with_entry(doc, value=[]),
        lambda doc: with_entry(doc, value=[["seq", 1], ["flag"]]),
        lambda doc: with_entry(doc, value=[["record", 1], ["int", 1]]),
        lambda doc: with_entry(doc, value=[["record", -1]]),
        lambda doc: dict(doc, annotations=[[0, None, "n"]]),
    ], ids=["list", "no-grammar", "unknown-node", "int-without-value",
            "no-annotations", "entry-not-a-list", "rule-without-aspect",
            "int-value-a-string", "int-value-a-bool", "kind-an-int", "id-a-string",
            "node-a-bool", "name-an-int", "name-null", "namespace-an-int", "aspect-a-string",
            "rule-a-string", "str-value-an-int", "name-value-an-int",
            "punct-value-an-int", "record-name-an-int", "record-namespace-an-int",
            "text-not-a-string", "text-does-not-parse", "version-1", "item-type-unknown",
            "count-past-the-end", "leftover-items", "count-a-bool", "no-items",
            "flag-in-a-seq", "record-without-attr-head", "count-negative",
            "entry-too-short"])
    def test_malformed_document(self, edit):
        tree = parse_grammar("a : 'x' ;")
        store = AnnotationStore(tree)
        store.attach(tree.root.id, parse_annotation("{ n = 1 }"), Provenance(0, None))
        doc = json.loads(serialize_store(store))
        assert deserialize_store(json.dumps(doc)) == store
        with pytest.raises(NotationError):
            deserialize_store(json.dumps(edit(doc)))

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: dict(doc, version=1), "<string>: unsupported store version 1"),
        (lambda doc: dict(doc, grammar=dict(doc["grammar"], text="a : 'x' ;\nb : ( 'y' ;")),
         "<grammar>:2:11: expected ')'"),
    ], ids=["version-1", "grammar-text"])
    def test_rejection_message(self, edit, message):
        doc = json.loads(serialize_store(AnnotationStore(parse_grammar("a : 'x' ;"))))
        with pytest.raises(NotationError) as exc:
            deserialize_store(json.dumps(edit(doc)))
        assert str(exc.value) == message


ENTRY_FIELDS = ("node", "namespace", "name", "value", "aspect", "rule")


def with_entry(doc, **fields):
    """doc with fields replaced in its one annotation entry."""
    entry = list(doc["annotations"][0])
    for name, value in fields.items():
        entry[ENTRY_FIELDS.index(name)] = value
    return dict(doc, annotations=[entry])


ANY = Multiplicity(0, None)

# Woven over random_grammar trees; every pattern may match nothing, and no
# two rules write one attribute, so the weave cannot fail.
RANDOM_ASPECT = r"""
{ generator = 'réf "q" \\ end'; level = 3; mode = fast; pad = {{ ' ' }} }
# : {...}
    @[*] #lex: { group = literal; weight = 1 } ;
    @[*] ('x' | ...): { choice = {{ 'x' , 2 (nested) }} } ;
    @[*] .. ';': { html: class = 'semi\tcolon' } ;
[*] $a=# : .. '+' ..
    $a { role = { kind = plus; depth = 2; deep = { more = {{ '<' }} } } } ;
[*] alpha : {...}
    @[*] #: { reference } ;
"""


def lenient(aspect):
    """The aspect with every multiplicity [0..*], so it weaves on any grammar."""
    def relax(items):
        return tuple(replace(i, multiplicity=ANY, subrules=relax(i.subrules))
                     if isinstance(i, Subpattern) else i for i in items)

    return replace(aspect, rules=tuple(
        replace(r, multiplicity=ANY, subrules=relax(r.subrules))
        for r in aspect.rules))


class TestWriterOracle:
    """serialize_store writes the bytes reference_serialize_store writes."""

    def check(self, store):
        text = serialize_store(store)
        assert text == reference_serialize_store(store)
        return text

    def test_frozen_snapshot(self, highlight_store):
        frozen = fixture("snapshots/java5_highlight_store.json")
        assert self.check(highlight_store) == frozen
        assert self.check(deserialize_store(frozen)) == frozen

    @pytest.mark.parametrize("name", ["java5.g", "java14.g", "arith.g"])
    def test_fixture_aspects(self, name, highlight_aspect, pretty_aspect):
        tree = parse_grammar(fixture(name), name)
        both = [lenient(highlight_aspect), lenient(pretty_aspect)]
        for aspects in ([both[0]], [both[1]], both):
            self.check(weave(tree, aspects))

    def test_random_grammars(self):
        rng = random.Random(20100315)
        aspect = parse_aspect(RANDOM_ASPECT)
        annotated = 0
        for _ in range(50):
            store = weave(random_grammar(rng), [aspect])
            annotated += len(store)
            self.check(store)
        assert annotated > 500

    def test_hand_built(self):
        odd = "é中\U0001f600 'q' \"dq\" \\ \t\n\x00\x1f\x7f"
        tree = parse_grammar(f"rule : {escape_string(odd)} ;\nempty : #empty ;",
                             "odd \"é\" \\ name.g")
        assert tree.by_id[3].detail == odd and tree.by_id[4].detail == "empty"
        store = AnnotationStore(tree)
        self.check(store)  # no annotations
        store.attach(0, parse_annotation("{ g = 1 }"))  # no provenance
        store.attach(3, Annotation((
            Attribute("i", value=IntValue(-12)),
            Attribute("s", value=StrValue(odd)),
            Attribute("n", "ns", NameValue("keyword")),
            Attribute("p", value=PunctValue("\\")),
            Attribute("q", value=PunctValue('"')),
            Attribute("flag"),
            Attribute("e", value=SeqValue(())),
            Attribute("seq", value=SeqValue((IntValue(1), PunctValue(","),
                                             StrValue(odd), NameValue("x"),
                                             SeqValue((PunctValue("{"),))))),
            Attribute("rec", value=RecordValue(Annotation((
                Attribute("a", "html", StrValue(odd)),
                Attribute("r", value=RecordValue(Annotation((
                    Attribute("deep", value=SeqValue((StrValue(""),))),)))),
                Attribute("none", value=RecordValue(Annotation())),
                Attribute("f"))))),
        )), Provenance(2, 7))
        store.attach(4, parse_annotation("{ ns: k = v }"), Provenance(1, None))
        text = self.check(store)
        assert text.isascii()
        assert self.check(deserialize_store(text)) == text
