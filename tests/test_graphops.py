"""Products and sums of labeled graphs: polynomial route vs direct route,
and the encoding and decoding both routes rest on."""

import random
from collections import Counter
from itertools import permutations

import pytest

from bigraphpoly import (
    Bigraph,
    DecodedBigraph,
    DecodedDiBigraph,
    DecodedPetriNet,
    DiBigraph,
    PetriNet,
    Poly1,
    Poly2,
    check_labeling,
    decode,
    decode_directed,
    decode_net,
    direct_product,
    direct_product_directed,
    direct_sum,
    direct_sum_directed,
    encode,
    encode_net,
    encode_directed,
    factor_graph,
    from_bits,
    identity_labeling,
    is_isomorphic,
    is_isomorphic_directed,
    mul,
    plain_coproduct,
    plain_coproduct_directed,
    plain_product,
    plain_product_directed,
    poly_product,
    poly_product_directed,
    poly_sum,
    poly_sum_directed,
    render,
    tau_poly,
)

from helpers import (
    random_bigraph,
    random_digraph,
    random_labeling,
    random_net,
    random_poly1,
    random_poly2,
)


# Two small fixtures used throughout: a path piece and a fork piece.

def g_path():
    """u11 on both v's, u12 isolated."""
    return Bigraph(["u11", "u12"], ["v11", "v12"], [("u11", "v11"), ("u11", "v12")])


def g_fork():
    """v21 shared by both u's, v22 on u22 only."""
    return Bigraph(
        ["u21", "u22"],
        ["v21", "v22"],
        [("u21", "v21"), ("u22", "v21"), ("u22", "v22")],
    )


def d_relay():
    """u11 feeds both v's; v12 feeds u12."""
    return DiBigraph(
        ["u11", "u12"],
        ["v11", "v12"],
        [("u11", "v11"), ("u11", "v12"), ("v12", "u12")],
    )


def d_chain():
    """v21 feeds u21; v22 feeds u22 which feeds v21."""
    return DiBigraph(
        ["u21", "u22"],
        ["v21", "v22"],
        [("v21", "u21"), ("v22", "u22"), ("u22", "v21")],
    )


L1 = {"v11": 0, "v12": 1}
L2_FAR = {"v21": 2, "v22": 3}
L2_NEAR = {"v21": 1, "v22": 2}


def test_product_golden_disjoint_labels():
    g = poly_product(g_path(), L1, g_fork(), L2_FAR)
    p = encode(g, g.natural_labeling)
    assert render(p) == "x^15 + x^12 + x^7 + x^4"


def test_product_golden_overlapping_labels():
    g = poly_product(g_path(), L1, g_fork(), L2_NEAR)
    p = encode(g, g.natural_labeling)
    assert render(p) == "x^9 + x^6 + x^5 + x^2"


def test_sum_golden():
    g1 = Bigraph(
        ["u11", "u12"],
        ["v11", "v12"],
        [("u11", "v11"), ("u11", "v12"), ("u12", "v12")],
    )
    g = poly_sum(g1, L1, g_fork(), L2_NEAR)
    assert encode(g, g.natural_labeling) == Poly1({6: 1, 3: 1, 2: 2})
    assert list(g.v_vertices) == [0, 1, 2]
    assert len(g.u_vertices) == 4
    assert len(g.edges) == 6


def test_directed_product_golden_disjoint_labels():
    g = poly_product_directed(d_relay(), L1, d_chain(), L2_FAR)
    p = encode_directed(g, g.natural_labeling)
    assert p == Poly2({(4, 3): 1, (8, 7): 1, (6, 0): 1, (10, 4): 1})


def test_directed_product_golden_overlapping_labels():
    g = poly_product_directed(d_relay(), L1, d_chain(), L2_NEAR)
    p = encode_directed(g, g.natural_labeling)
    assert p == Poly2({(2, 3): 1, (4, 5): 1, (4, 0): 1, (6, 2): 1})


def test_directed_sum_golden():
    g = poly_sum_directed(d_relay(), L1, d_chain(), L2_NEAR)
    p = encode_directed(g, g.natural_labeling)
    assert p == Poly2({(4, 2): 1, (2, 0): 2, (0, 3): 1})
    assert list(g.v_vertices) == [0, 1, 2]
    assert len(g.u_vertices) == 4
    assert len(g.arcs) == 6


def test_direct_routes_give_same_polynomials_on_goldens():
    for l2 in (L2_FAR, L2_NEAR):
        dp = direct_product(g_path(), L1, g_fork(), l2)
        assert encode(dp, identity_labeling(dp)) == mul(
            encode(g_path(), L1), encode(g_fork(), l2)
        )


def test_route_equivalence_product():
    rng = random.Random(61)
    for _ in range(20):
        g1 = random_bigraph(rng, max_u=4, max_v=4)
        g2 = random_bigraph(rng, max_u=4, max_v=4)
        l1 = random_labeling(rng, g1.v_vertices, 5)
        l2 = random_labeling(rng, g2.v_vertices, 5)
        a = poly_product(g1, l1, g2, l2)
        b = direct_product(g1, l1, g2, l2)
        assert encode(a, a.natural_labeling) == encode(b, b.natural_labeling)
        assert is_isomorphic(a, b) is not None
        assert len(b.u_vertices) == len(g1.u_vertices) * len(g2.u_vertices)


def test_direct_product_of_two_100_u_graphs_with_overlapping_labels():
    # Labels from 0..8 on two 6-vertex v parts overlap, so the packed sums
    # carry and many u pairs share one.
    rng = random.Random(64)
    gs = []
    for side in "ab":
        us = [f"{side}u{i}" for i in range(100)]
        vs = [f"{side}v{j}" for j in range(6)]
        edges = [(u, v) for u in us for v in vs if rng.random() < 0.4]
        gs.append((Bigraph(us, vs, edges), random_labeling(rng, vs, 8)))
    (g1, l1), (g2, l2) = gs
    b = direct_product(g1, l1, g2, l2)
    a = poly_product(g1, l1, g2, l2)
    assert encode(b, identity_labeling(b)) == encode(a, a.natural_labeling)
    assert b.u_vertices == tuple((x, y) for x in g1.u_vertices for y in g2.u_vertices)
    used = set().union(*map(b.neighbors, b.u_vertices))
    assert b.v_vertices == tuple(sorted(used))


def test_route_equivalence_sum():
    rng = random.Random(62)
    for _ in range(20):
        g1 = random_bigraph(rng, max_u=4, max_v=4)
        g2 = random_bigraph(rng, max_u=4, max_v=4)
        l1 = random_labeling(rng, g1.v_vertices, 5)
        l2 = random_labeling(rng, g2.v_vertices, 5)
        a = poly_sum(g1, l1, g2, l2)
        b = direct_sum(g1, l1, g2, l2)
        assert encode(a, a.natural_labeling) == encode(b, b.natural_labeling)
        assert is_isomorphic(a, b) is not None
        assert len(b.u_vertices) == len(g1.u_vertices) + len(g2.u_vertices)


def test_route_equivalence_product_directed():
    rng = random.Random(63)
    for _ in range(20):
        g1 = random_digraph(rng, max_u=3, max_v=4)
        g2 = random_digraph(rng, max_u=3, max_v=4)
        l1 = random_labeling(rng, g1.v_vertices, 5)
        l2 = random_labeling(rng, g2.v_vertices, 5)
        a = poly_product_directed(g1, l1, g2, l2)
        b = direct_product_directed(g1, l1, g2, l2)
        assert encode_directed(a, a.natural_labeling) == encode_directed(
            b, b.natural_labeling
        )
        assert is_isomorphic_directed(a, b) is not None


def test_route_equivalence_sum_directed():
    rng = random.Random(64)
    for _ in range(20):
        g1 = random_digraph(rng, max_u=3, max_v=4)
        g2 = random_digraph(rng, max_u=3, max_v=4)
        l1 = random_labeling(rng, g1.v_vertices, 5)
        l2 = random_labeling(rng, g2.v_vertices, 5)
        a = poly_sum_directed(g1, l1, g2, l2)
        b = direct_sum_directed(g1, l1, g2, l2)
        assert encode_directed(a, a.natural_labeling) == encode_directed(
            b, b.natural_labeling
        )
        assert is_isomorphic_directed(a, b) is not None


def far_labeling(rng, ids):
    return dict(zip(ids, (x + 6 for x in rng.sample(range(6), len(ids)))))


def test_disjoint_images_collapse_to_plain_constructions():
    rng = random.Random(65)
    for _ in range(15):
        g1 = random_bigraph(rng, max_u=3, max_v=4)
        g2 = random_bigraph(rng, max_u=3, max_v=4)
        l1 = random_labeling(rng, g1.v_vertices, 5)
        l2 = far_labeling(rng, g2.v_vertices)
        assert is_isomorphic(direct_product(g1, l1, g2, l2), plain_product(g1, g2))
        assert is_isomorphic(direct_sum(g1, l1, g2, l2), plain_coproduct(g1, g2))


def test_disjoint_images_collapse_to_plain_constructions_directed():
    rng = random.Random(66)
    for _ in range(15):
        g1 = random_digraph(rng, max_u=3, max_v=4)
        g2 = random_digraph(rng, max_u=3, max_v=4)
        l1 = random_labeling(rng, g1.v_vertices, 5)
        l2 = far_labeling(rng, g2.v_vertices)
        assert is_isomorphic_directed(
            direct_product_directed(g1, l1, g2, l2), plain_product_directed(g1, g2)
        )
        assert is_isomorphic_directed(
            direct_sum_directed(g1, l1, g2, l2), plain_coproduct_directed(g1, g2)
        )


def test_overlapping_labels_change_the_product():
    """With shared labels the exponent sums carry, so the collapsed
    product differs from the plain one."""
    g = direct_product(g_path(), L1, g_fork(), L2_NEAR)
    assert is_isomorphic(g, plain_product(g_path(), g_fork())) is None


def test_product_with_empty_graph_is_empty():
    empty = Bigraph([], [], [])
    g = poly_product(g_path(), L1, empty, {})
    assert not g.u_vertices
    h = direct_product(g_path(), L1, empty, {})
    assert not h.u_vertices and not h.v_vertices


def test_direct_product_of_nets_is_pointed():
    """Each event also pairs with the other net's idle event, so the
    direct product encodes to the product of the encodings, as the plain
    product does."""
    n1 = PetriNet(["a", "b"], ["s"], pre={"s": ["a"]}, post={"s": ["b"]})
    n2 = PetriNet(["c", "d"], ["t"], pre={"t": ["c"]}, post={"t": ["d"]})
    l1, l2 = {"a": 0, "b": 1}, {"c": 2, "d": 3}
    g = direct_product(n1, l1, n2, l2)
    assert set(g.u_vertices) == {("s", "t"), ("s", None), (None, "t")}
    assert render(encode_net(g, g.natural_labeling)) == "x^5*y^10 + x^4*y^8 + x*y^2 + 1"
    assert is_isomorphic(g, plain_product(n1, n2)) is not None


def test_sum_quotients_equal_labels():
    """Summing a graph with itself under one labeling doubles coefficients
    and keeps the v part."""
    g = g_path()
    s = poly_sum(g, L1, g, L1)
    assert encode(s, s.natural_labeling) == Poly1({3: 2, 0: 2})
    d = direct_sum(g, L1, g, L1)
    assert Counter(d.v_vertices) == Counter([0, 1])
    assert len(d.u_vertices) == 4


def with_an_empty_u_vertex(g):
    """g with one more u-vertex, whose slots are all empty."""
    if isinstance(g, PetriNet):
        return PetriNet(
            g.conditions,
            [*g.events, "quiet"],
            {e: g.pre(e) for e in g.events},
            {e: g.post(e) for e in g.events},
        )
    if g.arity == 1:
        edges = [(u, v) for u in g.u_vertices for v in g.slots(u)[0]]
        return Bigraph([*g.u_vertices, "lone"], g.v_vertices, edges)
    arcs = [(v, u) for u in g.u_vertices for v in g.pre(u)]
    arcs += [(u, v) for u in g.u_vertices for v in g.post(u)]
    return DiBigraph([*g.u_vertices, "lone"], g.v_vertices, arcs)


def reference_encoding(g, labeling):
    """Exponent -> coefficient, each slot packed by from_bits, plus a net's
    idle unit."""
    terms = Counter()
    if isinstance(g, PetriNet):
        terms[(0, 0)] += 1
    for u in g.u_vertices:
        exps = tuple(from_bits(labeling[v] for v in part) for part in g.slots(u))
        terms[exps[0] if len(exps) == 1 else exps] += 1
    return dict(terms)


def test_encode_matches_packing_by_from_bits():
    rng = random.Random(61)
    for _ in range(150):
        for g in (random_bigraph(rng), random_digraph(rng), random_net(rng)):
            if rng.random() < 0.5:
                g = with_an_empty_u_vertex(g)
            labeling = random_labeling(rng, g.v_vertices, rng.choice((8, 80)))
            assert dict(encode(g, labeling).terms) == reference_encoding(g, labeling)
    # The net with no events is the idle unit alone.
    assert dict(encode(PetriNet(), {}).terms) == {(0, 0): 1}


def test_decode_v_part_is_the_union_of_the_slot_supports():
    rng = random.Random(62)
    one = Poly2({(0, 0): 1})
    for _ in range(150):
        for p, back in (
            (random_poly1(rng, max_deg=40), decode),
            (random_poly2(rng, max_deg=40), decode_directed),
            (random_poly2(rng, max_deg=40) + one, lambda q: decode_net(q).net),
        ):
            g = back(p)
            union = set().union(*(part for u in g.u_vertices for part in g.slots(u)))
            assert g.v_vertices == tuple(sorted(union)) == tuple(sorted(tau_poly(p)))
    # A net polynomial whose only term is the idle unit: no events beyond
    # the constant's extra units, and no conditions.
    for c in (1, 3):
        net = decode_net(Poly2({(0, 0): c})).net
        assert net.v_vertices == ()
        assert len(net.u_vertices) == c - 1
        assert all(net.slots(e) == (frozenset(), frozenset()) for e in net.u_vertices)


def test_mixed_kinds_raise_on_every_binary_operation():
    """A graph, a digraph and a net on the same v part and labeling: every
    ordered pair of two kinds raises TypeError naming both classes, on all
    seven operations that take two structures."""
    lab = {"v0": 0, "v1": 1}
    kinds = [
        Bigraph(["a"], ["v0", "v1"], [("a", "v0"), ("a", "v1")]),
        DiBigraph(["a"], ["v0", "v1"], [("v0", "a"), ("a", "v1")]),
        PetriNet(["v0", "v1"], ["a"], pre={"a": ["v0"]}, post={"a": ["v1"]}),
    ]
    ops = [
        lambda g1, g2: poly_product(g1, lab, g2, lab),
        lambda g1, g2: poly_sum(g1, lab, g2, lab),
        lambda g1, g2: direct_product(g1, lab, g2, lab),
        lambda g1, g2: direct_sum(g1, lab, g2, lab),
        plain_product,
        plain_coproduct,
        is_isomorphic,
    ]
    for g1, g2 in permutations(kinds, 2):
        message = f"^mixed kinds: {type(g1).__name__} and {type(g2).__name__}$"
        for op in ops:
            with pytest.raises(TypeError, match=message):
                op(g1, g2)


def test_decoded_structures_combine_with_their_public_class():
    """decode's output is of its public class: it multiplies with and
    compares to structures built directly, and every route builds the class
    of its inputs."""
    g = g_path()
    p = encode(g, L1)
    h = decode(Poly1({3: 1, 0: 1}))
    got = direct_product(h, identity_labeling(h), g, L1)
    assert encode(got, identity_labeling(got)) == mul(Poly1({3: 1, 0: 1}), p)
    assert is_isomorphic(decode(p), g) is not None
    net = PetriNet(["b0", "b1"], ["e"], pre={"e": ["b0"]}, post={"e": ["b1"]})
    q = encode_net(net, {"b0": 0, "b1": 1})
    decoded = decode_net(q).net
    assert is_isomorphic(decoded, net) is not None
    got = plain_product(decoded, net)
    assert encode_net(got, {v: i for i, v in enumerate(got.v_vertices)}) == mul(
        q, encode_net(net, {"b0": 2, "b1": 3})
    )
    assert DecodedBigraph is Bigraph
    assert DecodedDiBigraph is DiBigraph
    assert DecodedPetriNet is PetriNet
    p1 = Poly1({3: 1, 2: 1, 1: 1, 0: 1})  # (x + 1)(x^2 + 1)
    p2 = Poly2({(1, 2): 1, (1, 0): 1, (0, 2): 1, (0, 0): 1})  # (x + 1)(y^2 + 1)
    for cls, h in (
        (Bigraph, decode(p1)),
        (DiBigraph, decode_directed(p2)),
        (PetriNet, decode_net(p2).net),
    ):
        lab = h.natural_labeling
        pairs = factor_graph(h, lab)
        assert pairs
        natural = [
            h,
            *(half for pair in pairs for half in pair),
            *(route(h, lab, h, lab) for route in (poly_product, poly_sum, direct_product, direct_sum)),
        ]
        for out in natural + [plain_product(h, h), plain_coproduct(h, h)]:
            assert type(out) is cls
            assert identity_labeling(out) == out.natural_labeling
        for out in natural:
            check_labeling(out, out.natural_labeling)
