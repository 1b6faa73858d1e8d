"""JSON documents, stable string ids, and DOT export."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import bigraphpoly
from bigraphpoly import (
    Bigraph,
    DiBigraph,
    FileFormatError,
    LabelingError,
    PetriNet,
    Poly1,
    Poly2,
    decode,
    decode_directed,
    decode_net,
    decompose,
    direct_product,
    direct_product_directed,
    encode,
    is_isomorphic,
    net_product,
    poly_product,
    poly_product_directed,
)
from bigraphpoly.errors import _brief
from bigraphpoly.fileio import (
    Document,
    _fmt_id,
    decoded_text,
    graph_text,
    dumps,
    load_document,
    net_text,
    parse_document,
    string_ids,
    to_dot,
)

from helpers import (
    document_for,
    first_difference,
    graph_document,
    net_document,
    random_bigraph,
    random_canon_case,
    random_digraph,
    random_labeling,
    random_net,
    random_poly1,
    random_poly2,
    reference_document,
    three_prime_nets,
    wide_graph,
)


def sample_graph():
    return Bigraph(["u1", "u2"], ["v1", "v2"], [("u1", "v1"), ("u1", "v2")])


def sample_digraph():
    return DiBigraph(["a"], ["x", "y"], [("a", "x"), ("y", "a")])


def sample_net():
    return PetriNet(
        ["b0", "b1"], ["e1", "e2"], pre={"e1": ["b0"]}, post={"e2": ["b1"]}
    )


def test_round_trip_bigraph_with_string_ids():
    labels = {"v1": 0, "v2": 3}
    doc = document_for(sample_graph(), labels)
    got = parse_document(json.loads(dumps(doc)))
    assert got.kind == "bigraph"
    assert got.obj == sample_graph()
    assert got.labels == labels


def test_round_trip_digraph_with_string_ids():
    doc = document_for(sample_digraph(), {"x": 1, "y": 2})
    got = parse_document(json.loads(dumps(doc)))
    assert got.kind == "digraph"
    assert got.obj == sample_digraph()
    assert got.labels == {"x": 1, "y": 2}


def test_round_trip_net_with_string_ids():
    doc = document_for(sample_net(), {"b0": 0, "b1": 1})
    got = parse_document(json.loads(dumps(doc)))
    assert got.kind == "net"
    assert got.obj == sample_net()
    assert got.labels == {"b0": 0, "b1": 1}


def test_round_trip_decoded_graph_keeps_the_encoding():
    g = decode(encode(sample_graph(), {"v1": 0, "v2": 3}))
    doc = document_for(g, g.natural_labeling)
    got = parse_document(doc)
    assert is_isomorphic(g, got.obj) is not None
    assert encode(got.obj, got.labels) == encode(g, g.natural_labeling)


def test_round_trip_random_objects(tmp_path):
    rng = random.Random(81)
    for i in range(10):
        for obj, labels in (
            (random_bigraph(rng), None),
            (random_digraph(rng), None),
            (random_net(rng), None),
        ):
            path = tmp_path / f"obj{i}_{type(obj).__name__}.json"
            path.write_text(dumps(document_for(obj, labels)))
            got = load_document(path)
            assert got.obj == obj
            assert got.labels is None


def test_labels_are_optional():
    doc = document_for(sample_graph())
    assert "labels" not in doc
    assert parse_document(doc).labels is None


def test_kind_sniffing():
    assert parse_document({"conditions": [], "events": []}).kind == "net"
    assert parse_document({"events": []}).kind == "net"
    assert parse_document({"u": [], "v": []}).kind == "bigraph"
    assert parse_document({"u": [], "v": [], "directed": True}).kind == "digraph"
    implicit = {
        "u": ["a"],
        "v": ["x"],
        "edges": [{"u": "a", "v": "x", "dir": "u_to_v"}],
    }
    assert parse_document(implicit).kind == "digraph"


def test_top_level_and_key_shape_errors():
    with pytest.raises(FileFormatError, match="top level"):
        parse_document([1, 2])
    with pytest.raises(FileFormatError, match="expected a graph"):
        parse_document({"foo": 1})
    with pytest.raises(FileFormatError, match="'u' must be a list"):
        parse_document({"u": "a", "v": []})
    with pytest.raises(FileFormatError, match="'edges' must be a list"):
        parse_document({"u": [], "v": [], "edges": 3})
    with pytest.raises(FileFormatError, match="'events' must be a list"):
        parse_document({"conditions": [], "events": {}})


def test_id_validation_errors():
    with pytest.raises(FileFormatError, match="whitespace-free"):
        parse_document({"u": ["a b"], "v": []})
    with pytest.raises(FileFormatError, match="whitespace-free"):
        parse_document({"u": [3], "v": []})
    with pytest.raises(FileFormatError, match="whitespace-free"):
        parse_document({"u": [""], "v": []})
    # Whitespace is what str.isspace says it is, beyond ASCII too.
    for ws in ("\u3000", "\u2028", "\x85", "\x1c"):
        with pytest.raises(FileFormatError, match="whitespace-free"):
            parse_document({"u": [f"a{ws}b"], "v": []})
    with pytest.raises(FileFormatError, match="whitespace-free"):
        parse_document({"u": [" \t\u3000"], "v": []})
    assert parse_document({"u": ["a\u200bb"], "v": []}).obj.u_vertices == ("a\u200bb",)


def test_label_validation_errors():
    base = {"u": ["a"], "v": ["x"], "edges": [["a", "x"]]}
    with pytest.raises(FileFormatError, match="unknown id"):
        parse_document({**base, "labels": {"zzz": 0}})
    with pytest.raises(FileFormatError, match="natural"):
        parse_document({**base, "labels": {"x": -1}})
    with pytest.raises(FileFormatError, match="natural"):
        parse_document({**base, "labels": {"x": True}})
    with pytest.raises(FileFormatError, match="'labels' must be an object"):
        parse_document({**base, "labels": [0]})
    # Every structure has natural_labeling; on string v-ids it is no labeling.
    g = parse_document(base).obj
    with pytest.raises(LabelingError, match="^label of v-part id 'x' must be a natural, got 'x'$"):
        encode(g, g.natural_labeling)


def test_edge_shape_errors():
    with pytest.raises(FileFormatError, match=r"\[u, v\] pairs"):
        parse_document({"u": ["a"], "v": ["x"], "edges": [["a", "x", "x"]]})
    with pytest.raises(FileFormatError, match="u, v and dir"):
        parse_document(
            {"u": ["a"], "v": ["x"], "directed": True, "edges": [["a", "x"]]}
        )
    with pytest.raises(FileFormatError, match="v_to_u"):
        parse_document(
            {
                "u": ["a"],
                "v": ["x"],
                "edges": [{"u": "a", "v": "x", "dir": "sideways"}],
            }
        )
    with pytest.raises(FileFormatError, match="'directed' must be"):
        parse_document({"u": [], "v": [], "directed": 1})


def test_constructor_errors_carry_the_source_name():
    doc = {"u": ["a"], "v": ["x"], "edges": [["a", "nope"]]}
    with pytest.raises(FileFormatError, match="bad.json"):
        parse_document(doc, source="bad.json")


def test_graph_errors_name_the_source_once():
    for doc in (
        {"u": ["a"], "v": ["x"], "edges": [["a", "x", "x"]]},
        {"u": ["a"], "v": ["x"], "directed": True, "edges": [["a", "x"]]},
        {"u": ["a"], "v": ["x"], "edges": [{"u": "a", "v": "x", "dir": "uv"}]},
        {"u": ["a"], "v": ["x"], "edges": [["a", "x y"]]},
        {"u": ["a"], "v": ["x"], "edges": [["a", "nope"]]},
        # unhashable endpoints and members are bad ids, not a TypeError
        {"u": ["a"], "v": ["x"], "edges": [[["a"], "x"]]},
        {"u": ["a"], "v": ["x"], "edges": [["a", ["x"]]]},
        {"u": ["a"], "v": ["x"], "edges": [{"u": {}, "v": "x", "dir": "u_to_v"}]},
        {"u": ["a"], "v": ["x"], "edges": [{"u": "a", "v": {}, "dir": "v_to_u"}]},
        {"conditions": ["b"], "events": [{"id": "e", "pre": [["b"]]}]},
        {"conditions": ["b"], "events": [{"id": "e", "pre": ["b"], "post": [{}]}]},
        # a directed edge's "u" names a u-vertex whatever its dir
        {"u": ["a"], "v": ["x"], "edges": [{"u": "x", "v": "a", "dir": "u_to_v"}]},
    ):
        with pytest.raises(FileFormatError) as err:
            parse_document(doc, source="dp.json")
        assert str(err.value).count("dp.json") == 1, str(err.value)


def test_a_directed_edge_runs_the_way_its_dir_says():
    """A directed edge's "u" names a u-vertex: an edge whose "u" is a
    v-id is rejected, not read as an arc against its dir."""
    for way in ("u_to_v", "v_to_u"):
        doc = {"u": ["a"], "v": ["x"], "edges": [{"u": "x", "v": "a", "dir": way}]}
        with pytest.raises(FileFormatError, match="must join a u-part id to a v-part id"):
            parse_document(doc)
        doc["edges"][0].update(u="a", v="x")
        g = parse_document(doc).obj
        assert g.arcs == {("a", "x") if way == "u_to_v" else ("x", "a")}


def test_net_event_errors():
    with pytest.raises(FileFormatError, match="'id'"):
        parse_document({"conditions": [], "events": [{"pre": []}]})
    with pytest.raises(FileFormatError, match="duplicate event"):
        parse_document(
            {"conditions": [], "events": [{"id": "e"}, {"id": "e"}]}
        )
    with pytest.raises(FileFormatError, match="must be a list"):
        parse_document({"conditions": [], "events": [{"id": "e", "pre": "b"}]})
    with pytest.raises(FileFormatError, match="non-conditions"):
        parse_document(
            {"conditions": [], "events": [{"id": "e", "pre": ["b"]}]}
        )


def test_load_document_reports_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"u": [,]}')
    with pytest.raises(FileFormatError, match="line 1"):
        load_document(path)


def test_load_document_turns_every_json_failure_into_a_format_error(tmp_path):
    """Nesting past the recursion limit, an int past Python's digit limit
    and bytes that are not UTF-8 each name the file, as a syntax error does."""
    texts = {
        "deep.json": "[" * 200000,
        "digits.json": '{"u": [], "v": ["b"], "labels": {"b": ' + "9" * 5000 + "}}",
    }
    for name, text in texts.items():
        (tmp_path / name).write_text(text)
    (tmp_path / "latin.json").write_bytes(b'{"u": ["\xe9"], "v": []}')
    for name in (*texts, "latin.json"):
        path = tmp_path / name
        with pytest.raises(FileFormatError) as info:
            load_document(path)
        assert str(info.value).startswith(f"{path}: ")


def test_fmt_id_forms():
    assert _fmt_id("plain") == "plain"
    assert _fmt_id(7) == "7"
    assert _fmt_id(frozenset({1, 3})) == "b1-3"
    assert _fmt_id((frozenset({0, 2}), 1)) == "u5_1"
    assert _fmt_id((frozenset(), 2)) == "u0_2"
    assert _fmt_id(((frozenset({0, 3}), frozenset({1, 2})), 1)) == "u9-6_1"
    assert _fmt_id((None, "x")) == "*|x"
    assert _fmt_id(("e", None)) == "e|*"
    assert _fmt_id((0, "a")) == "a@1"
    assert _fmt_id((1, "a")) == "a@2"
    assert _fmt_id(("p", "q")) == "p|q"


def test_string_ids_are_unique_and_whitespace_free():
    got = string_ids(["a b", "a_b", ""])
    assert got == {"a b": "a_b", "a_b": "a_b.2", "": "id"}
    # A bool id is written as its digit, and a clash gets a suffix.
    assert string_ids(["1", True, False]) == {"1": "1", True: "1.2", False: "0"}
    rng = random.Random(82)
    base = random_bigraph(rng)
    g = decode(encode(base, random_labeling(rng, base.v_vertices, 6)))
    smap = string_ids(list(g.u_vertices) + list(g.v_vertices))
    assert len(set(smap.values())) == len(smap)


def test_string_ids_of_decoded_u_vertices_match_fmt_id():
    """string_ids formats a decoded u-vertex's slots once per distinct slot
    tuple; the text must be _fmt_id's, collisions and odd copies included."""
    a, b = frozenset({0, 2}), frozenset({1})
    ids = [(a, 1), (a, 2), ((a, b), 1), ((a, b), 3), ((b, a), 1), (a, True),
           (frozenset(), 1), "u5_1", (None, 1), ((a, "x"), 1), ((a, b, a), 1), (3, 4)]
    got = string_ids(ids)
    assert got == {
        (a, 1): "u5_1", (a, 2): "u5_2", ((a, b), 1): "u5-2_1",
        ((a, b), 3): "u5-2_3", ((b, a), 1): "u2-5_1", (a, True): "u5_True",
        (frozenset(), 1): "u0_1", "u5_1": "u5_1.2", (None, 1): "*|1",
        ((a, "x"), 1): "b0-2|x|1",
        ((a, b, a), 1): "(frozenset({0,_2}),_frozenset({1}),_frozenset({0,_2}))|1",
        (3, 4): "3|4",
    }
    rng = random.Random(83)
    for _ in range(20):
        base = random_digraph(rng)
        g = decode_directed(encode(base, random_labeling(rng, base.v_vertices, 6)))
        ids = list(g.u_vertices) + list(g.v_vertices)
        assert list(string_ids(ids).values()) == [_fmt_id(x) for x in ids]


def test_dumps_is_deterministic_with_trailing_newline():
    a = dumps(document_for(sample_net(), {"b0": 0, "b1": 1}))
    b = dumps(document_for(sample_net(), {"b0": 0, "b1": 1}))
    assert a == b
    assert a.endswith("}\n")


def json_oracle(doc):
    return json.dumps(doc, indent=2) + "\n"


def test_dumps_matches_json_dumps_on_documents():
    """Each writer's text is json.dumps of the plainly built reference
    document, and document_for gives that document."""
    rng = random.Random(84)
    cases = []
    for _ in range(30):
        for obj in (random_bigraph(rng), random_digraph(rng), random_net(rng)):
            cases += [(obj, None), (obj, random_labeling(rng, obj.v_vertices, 12))]
        for g in (decode(random_poly1(rng)), decode_directed(random_poly2(rng))):
            cases.append((g, g.natural_labeling))
        g1, g2 = random_bigraph(rng), random_bigraph(rng)
        prod = poly_product(
            g1, random_labeling(rng, g1.v_vertices, 6),
            g2, random_labeling(rng, g2.v_vertices, 6),
        )
        cases.append((prod, prod.natural_labeling))
        cases.append((net_product(random_net(rng), random_net(rng)), None))
    for obj, labels in cases:
        want = reference_document(obj, labels)
        write = net_text if isinstance(obj, PetriNet) else graph_text
        assert write(obj, labels) == json_oracle(want)
        assert document_for(obj, labels) == want
        if labels is not None:
            assert parse_document(want).labels == want["labels"]


def _net_text_cases(rng):
    """Random nets, products, decoded nets and decompose halves, each
    unlabeled, compactly labeled, randomly labeled and labeled past 2^64."""
    nets = []
    for _ in range(100):
        nets += [random_net(rng), random_net(rng, 8, 8), random_canon_case(rng, "net")]
        nets.append(net_product(random_net(rng), random_net(rng)))
        terms = {(rng.randrange(16), rng.randrange(16)): rng.randint(1, 3) for _ in range(4)}
        terms[0, 0] = rng.randint(1, 3)
        nets.append(decode_net(Poly2(terms)).net)
    for _ in range(12):
        base = net_product(random_net(rng, 2, 2), random_net(rng, 2, 2))
        for pair in decompose(base, random_labeling(rng, base.conditions, 8)):
            nets += [half.net for half in pair]
    nets.append(net_product(three_prime_nets(), random_net(rng)))
    for net in nets:
        yield net, None
        yield net, {b: i for i, b in enumerate(net.conditions)}
        yield net, random_labeling(rng, net.conditions, 40)
        yield net, {b: 2**64 + rng.randrange(2**70) for b in net.conditions}


def test_net_text_matches_the_reference():
    cases = list(_net_text_cases(random.Random(88)))
    assert len(cases) > 2000
    assert any(not net.pre(e) and net.post(e) for net, _ in cases for e in net.events)
    for net, labels in cases:
        want = reference_document(net, labels)
        assert first_difference(net_text(net, labels), json_oracle(want)) is None
        assert net_document(net, labels) == want


def test_net_text_edge_cases():
    # ids that need escaping, and ones that collide once whitespace goes
    odd = ["é", "日本", 'say"hi"', "back\\slash", "tab\there", "\u0001", "a b", "a_b"]
    nets = [
        PetriNet([], []),
        PetriNet(["b"], []),
        PetriNet([], ["e"]),
        PetriNet(["b"], ["e", "f"]),
        PetriNet(["b", "c"], ["e", "f", "g"], pre={"f": ["c", "b"]}, post={"g": ["b"]}),
        PetriNet(odd, ["e" + s for s in odd], pre={"e" + s: odd[k:] for k, s in enumerate(odd)},
                 post={"e" + s: odd[:k] for k, s in enumerate(odd)}),
    ]
    doc = net_document(nets[-1])
    assert {"a_b.2", "tab_here"} <= set(doc["conditions"])
    assert "ea_b.2" in {ev["id"] for ev in doc["events"]}
    for net in nets:
        for labels in (None, dict.fromkeys(net.conditions, 0)):
            want = json_oracle(reference_document(net, labels))
            assert first_difference(net_text(net, labels), want) is None, net


def test_net_text_orders_sets_by_the_ids_not_their_escaped_text():
    """Escaping moves "é" before "z" and 'a"' after "a#": the sets must
    still come in the order of the raw ids, as json.dumps of the sorted
    lists has them."""
    conds = ["z", "é", 'a"', "a#", "b\\", "b]", "日"]
    net = PetriNet(conds, ["e", "f"], pre={"e": conds, "f": ["z", "é"]},
                   post={"e": ['a"', "a#", "b\\", "b]"]})
    doc = net_document(net)
    assert doc["events"][0]["pre"] == sorted(conds)
    assert doc["events"][1]["pre"] == ["z", "é"]
    assert doc["events"][0]["post"] == ['a"', "a#", "b\\", "b]"]
    for labels in (None, {b: i for i, b in enumerate(conds)}):
        want = json_oracle(reference_document(net, labels))
        assert first_difference(net_text(net, labels), want) is None


def test_graph_document_edges_match_the_sorted_reference():
    rng = random.Random(85)
    # u10 sorts before u9; "a b" and "a_b" collide and one becomes "a_b.2".
    us = ["u9", "u10", "a b", "a_b", 3, (0, "z")]
    vs = ["v10", "v9", "w x", "w_x", 2]
    graphs = []
    for _ in range(30):
        edges = [(u, v) for u in us for v in vs if rng.random() < 0.5]
        graphs.append(Bigraph(us, vs, edges))
        arcs = []
        for u in us:
            for v in vs:
                way = rng.randrange(4)  # none, v to u, u to v, both
                if way & 1:
                    arcs.append((v, u))
                if way & 2:
                    arcs.append((u, v))
        graphs.append(DiBigraph(us, vs, arcs))
        graphs += [random_bigraph(rng, 12, 12), random_digraph(rng, 12, 12)]
        # Copies of a term with coefficient 3 or more share one slot tuple.
        graphs += [decode(random_poly1(rng, max_coeff=6)),
                   decode_directed(random_poly2(rng, max_coeff=6))]
        for product, make in ((direct_product, random_bigraph),
                              (direct_product_directed, random_digraph)):
            g1, g2 = make(rng), make(rng)
            graphs.append(product(g1, random_labeling(rng, g1.v_vertices, 5),
                                  g2, random_labeling(rng, g2.v_vertices, 5)))
    assert any(
        g.arity == 2 and any(p & q for p, q in map(g.slots, g.u_vertices)) for g in graphs
    )
    assert any(
        len(set(map(g.slots, g.u_vertices))) <= len(g.u_vertices) - 2
        for g in graphs if g.arity == 2
    )
    for g in graphs:
        want = reference_document(g)
        assert graph_document(g) == want
        assert first_difference(graph_text(g), json_oracle(want)) is None
        labels = random_labeling(rng, g.v_vertices, 20)
        doc = reference_document(g, labels)
        assert first_difference(graph_text(g, labels), json_oracle(doc)) is None
        assert parse_document(doc).labels == doc["labels"]


def test_graph_text_matches_the_reference_on_hundred_u_products():
    """The benchmark's product of two 100-u graphs with 6 v-vertices each,
    labels drawn from range(9), and the directed product of that size."""
    rng = random.Random(86)
    for directed, product in ((False, poly_product), (True, poly_product_directed)):
        g1, g2 = wide_graph(rng, directed=directed), wide_graph(rng, directed=directed)
        g = product(g1, random_labeling(rng, g1.v_vertices, 8),
                    g2, random_labeling(rng, g2.v_vertices, 8))
        want = reference_document(g, g.natural_labeling)
        assert len(g.u_vertices) == 10**4 and len(want["edges"]) > 10**4
        assert first_difference(graph_text(g, g.natural_labeling), json_oracle(want)) is None


def test_graph_text_edge_cases():
    # ids that need escaping, and ones that collide once whitespace goes
    us = ["é", '"', "a b", "a_b", "back\\slash", "日本"]
    vs = ["ü", "'", "x y", "x_y", 'q"q']
    graphs = [
        Bigraph([], [], []),
        Bigraph([], ["v"], []),
        Bigraph(["u"], [], []),
        Bigraph(["u", "w"], ["v"], []),
        DiBigraph(["u"], ["v"], []),
        # u-vertices with empty slots before, between and after ones with edges
        Bigraph(["a", "b", "c", "d"], ["v"], [("b", "v"), ("d", "v")]),
        DiBigraph(["a", "b", "c"], ["v", "w"], [("b", "v"), ("v", "b"), ("w", "c")]),
        Bigraph(us, vs, [(u, v) for u in us[1:] for v in vs[:3]]),
        DiBigraph(us, vs, [(us[0], v) for v in vs] + [(v, us[1]) for v in vs[2:]]),
    ]
    doc = graph_document(graphs[-1])
    assert {"a_b.2", "x_y.2"} <= set(doc["u"] + doc["v"])
    for g in graphs:
        for labels in (None, dict.fromkeys(g.v_vertices, 0)):
            want = json_oracle(reference_document(g, labels))
            assert first_difference(graph_text(g, labels), want) is None, g


def natural_text(p):
    """graph_text of p's decoding under its natural labeling."""
    g = decode_directed(p) if isinstance(p, Poly2) else decode(p)
    return graph_text(g, g.natural_labeling)


def test_decoded_text_is_graph_text_of_the_decoding():
    """Byte for byte on random polynomials: exponents up to 2**13, so bit
    positions 10 to 12 sort before 2 as strings, and coefficients past 10, so
    copy 10 sorts before copy 2."""
    rng = random.Random(88)
    polys = []
    for _ in range(150):
        polys.append(random_poly1(rng, max_deg=rng.choice((6, 40)), max_coeff=13))
        polys.append(random_poly2(rng, max_deg=rng.choice((5, 40)), max_coeff=13))
        polys.append(Poly1({rng.randrange(1 << 13): rng.randint(1, 25)
                            for _ in range(rng.randint(0, 12))}))
        polys.append(Poly2({(rng.randrange(1 << 13), rng.randrange(1 << 13)): rng.randint(1, 25)
                            for _ in range(rng.randint(0, 12))}))
    assert any(max(p.terms.values(), default=0) >= 10 for p in polys)
    for p in polys:
        assert first_difference(decoded_text(p), natural_text(p)) is None, p


def test_decoded_text_edge_cases():
    polys = [
        Poly1({}), Poly2({}),  # nothing at all
        Poly1({0: 1}), Poly1({0: 12}), Poly2({(0, 0): 3}),  # u-vertices with no edge
        Poly1({1: 12, 0: 2}),  # copies 1, 10, 11, 12, 2, ...
        Poly1({5: 1, 50: 2}), Poly1({5: 11, 50: 11, 505: 1}),  # u5_ and u50_
        Poly2({(5, 3): 11, (5, 31): 2, (53, 1): 1}),  # u5-3_ and u5-31_
        Poly2({(1, 1): 2, (3, 0): 1}),  # an arc either way on one v-vertex
        # exponents past the 4,300 digits Python converts to text in one go
        Poly1({2**15000 + 1: 2, 3: 1}), Poly2({(2**15000, 2**14300 + 4): 1, (0, 0): 1}),
    ]
    for p in polys:
        assert first_difference(decoded_text(p), natural_text(p)) is None, p
    edges = json.loads(decoded_text(Poly1({1: 12, 0: 2})))["edges"]
    assert [u for u, _ in edges] == [f"u1_{k}" for k in (1, 10, 11, 12, 2, 3, 4, 5, 6, 7, 8, 9)]
    doc = json.loads(decoded_text(Poly1({5: 1, 50: 2})))
    assert doc["u"] == ["u50_1", "u50_2", "u5_1"]
    assert [u for u, _ in doc["edges"]] == ["u50_1"] * 3 + ["u50_2"] * 3 + ["u5_1"] * 2
    assert doc["labels"] == {"0": 0, "1": 1, "2": 2, "4": 4, "5": 5}
    doc = json.loads(decoded_text(Poly2({(5, 3): 1, (5, 31): 1})))
    assert list(dict.fromkeys(e["u"] for e in doc["edges"])) == ["u5-31_1", "u5-3_1"]
    assert decoded_text(Poly1({})) == dumps({"u": [], "v": [], "edges": [], "labels": {}})
    with pytest.raises(TypeError):
        decoded_text(decode(Poly1({1: 1})))


PEAK_OF_A_WRITE = """
import random
from bigraphpoly import Poly1
from bigraphpoly.fileio import decoded_text


def peak():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))


rng = random.Random(0)
p = Poly1({sum(1 << b for b in rng.sample(range(3000), 300)): 1 for _ in range(100)})
before = peak()
text = decoded_text(p)
print(len(text), (peak() - before) * 1024)
"""


def test_decoded_text_copies_a_large_file_about_twice():
    """100 u-vertices, each on 300 of 3,000 v-vertices, write about 28 MB,
    nearly all of it the u ids repeated in the edges.  Each u-vertex's
    edges are one join and the file one more, so the peak RSS rises by
    about twice the text's length and at most 3.5 times; a writer that
    copies the text again at each level of nesting rises about 5 times.
    The peak is the kernel's VmHWM of the child, as its ru_maxrss starts at
    the peak of the process it was forked from."""
    if not Path("/proc/self/status").exists():
        pytest.skip("needs /proc/self/status")
    here = str(Path(bigraphpoly.__file__).parents[1])
    path = os.pathsep.join(filter(None, [here, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", PEAK_OF_A_WRITE], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    length, rise = map(int, proc.stdout.split())
    assert 25e6 < length < 32e6
    assert rise <= 3.5 * length, (length, rise)


def test_document_for_rejects_unknown_types():
    with pytest.raises(TypeError):
        document_for("not a graph")
    with pytest.raises(TypeError):
        to_dot(42)


def test_writers_require_a_label_for_every_v_vertex():
    cases = (
        (sample_graph(), {"v1": 0}, graph_document),
        (sample_digraph(), {"x": 0}, graph_document),
        (sample_net(), {"b0": 0}, net_document),
    )
    for obj, labels, writer in cases:
        with pytest.raises(LabelingError) as dot:
            to_dot(obj, labels)
        for write in (writer, document_for):
            with pytest.raises(LabelingError) as doc:
                write(obj, labels)
            assert str(doc.value) == str(dot.value)


def test_writers_reject_labels_the_reader_rejects():
    cases = (
        (sample_graph(), ("v1", "v2"), graph_document),
        (sample_graph(), ("v1", "v2"), graph_text),
        (sample_digraph(), ("x", "y"), graph_text),
        (sample_net(), ("b0", "b1"), net_document),
        (sample_net(), ("b0", "b1"), net_text),
    )
    for obj, (a, b), writer in cases:
        unlabeled = json.loads(dumps(document_for(obj)))
        for bad in (-1, True, False, 1.5, "x", None):
            labels = {a: 0, b: bad}
            for write in (writer, document_for, to_dot):
                with pytest.raises(LabelingError, match="must be a natural"):
                    write(obj, labels)
            with pytest.raises(FileFormatError, match="must be a natural"):
                parse_document({**unlabeled, "labels": {a: 0, b: bad}})
        # The reader does not ask for injective labels, so neither do writers.
        doc = document_for(obj, {a: 2, b: 2})
        assert parse_document(doc).labels == {a: 2, b: 2}


def test_huge_ints_are_quoted_by_their_number_of_digits():
    assert _brief(10**5000) == "a 5001-digit number"
    assert _brief([-10**5000, 7]) == "[a negative 5001-digit number, 7]"
    assert _brief(10**15 - 1) == "999999999999999" and _brief(True) == "True"
    for write in (graph_text, to_dot, document_for):
        with pytest.raises(LabelingError, match="got a negative 5001-digit number") as err:
            write(sample_graph(), {"v1": 0, "v2": -10**5000})
        assert len(str(err.value)) < 300


def test_to_dot_bigraph_golden():
    g = Bigraph(["u1"], ["v1", "v2"], [("u1", "v2"), ("u1", "v1")])
    want = (
        "graph {\n"
        '  "u1" [shape=box];\n'
        '  "v1" [shape=circle, label="v1=0"];\n'
        '  "v2" [shape=circle, label="v2=1"];\n'
        '  "u1" -- "v1";\n'
        '  "u1" -- "v2";\n'
        "}\n"
    )
    assert to_dot(g, {"v1": 0, "v2": 1}) == want
    reordered = Bigraph(["u1"], ["v1", "v2"], [("u1", "v1"), ("u1", "v2")])
    assert to_dot(reordered, {"v1": 0, "v2": 1}) == want


def test_to_dot_digraph_directions():
    out = to_dot(sample_digraph())
    assert '  "a" -> "x";' in out
    assert '  "y" -> "a";' in out
    assert out.startswith("digraph {\n")


def test_to_dot_net_flow():
    out = to_dot(sample_net(), {"b0": 0, "b1": 1})
    assert '  "b0" -> "e1";' in out
    assert '  "e2" -> "b1";' in out
    assert '  "b0" [shape=circle, label="b0=0"];' in out
    assert '  "e1" [shape=box];' in out


def test_document_dataclass_fields():
    doc = parse_document({"u": [], "v": []})
    assert isinstance(doc, Document)
    assert (doc.kind, doc.labels) == ("bigraph", None)
