"""Undirected bipartite graphs and their polynomial encoding."""

import random
import time
from collections import Counter
from itertools import combinations

import pytest

from bigraphpoly import (
    Bigraph,
    DiBigraph,
    LabelingError,
    Poly1,
    Poly2,
    SizeGuardError,
    canonical_poly,
    canonical_poly_directed,
    check_labeling,
    compact_labeling,
    decode,
    encode,
    identity_labeling,
    is_isomorphic,
    parse_poly1,
    render,
)

from helpers import (
    least_encoding,
    random_bigraph,
    random_canon_case,
    random_digraph,
    random_labeling,
)


def hub_graph():
    """One u adjacent to all of v1..v3, one isolated u, one u on {v1, v3}."""
    return Bigraph(
        ["u1", "u2", "u3"],
        ["v1", "v2", "v3"],
        [("u1", "v1"), ("u1", "v2"), ("u1", "v3"), ("u3", "v1"), ("u3", "v3")],
    )


HUB_LABELS = {"v1": 0, "v2": 1, "v3": 2}


def assert_valid_iso(g1, g2, witness):
    assert witness is not None
    u_map, v_map = witness
    assert Counter(u_map.keys()) == Counter(g1.u_vertices)
    assert Counter(u_map.values()) == Counter(g2.u_vertices)
    assert Counter(v_map.keys()) == Counter(g1.v_vertices)
    assert Counter(v_map.values()) == Counter(g2.v_vertices)
    assert {(u_map[u], v_map[v]) for u, v in g1.edges} == set(g2.edges)


def test_encode_golden():
    p = encode(hub_graph(), HUB_LABELS)
    assert p == Poly1({7: 1, 5: 1, 0: 1})
    assert render(p) == "x^7 + x^5 + 1"


def test_encode_piles_equal_neighborhoods_into_coefficients():
    g = Bigraph(["a", "b", "c"], ["v"], [("a", "v"), ("b", "v")])
    assert encode(g, {"v": 3}) == Poly1({8: 2, 0: 1})


def test_encode_respects_labeling_choice():
    g = hub_graph()
    assert encode(g, {"v1": 1, "v2": 0, "v3": 2}) == Poly1({7: 1, 6: 1, 0: 1})


def test_decode_golden():
    p = Poly1({5: 2, 3: 1, 2: 1, 0: 2})
    g = decode(p)
    assert list(g.v_vertices) == [0, 1, 2]
    assert len(g.u_vertices) == 6
    assert len(g.edges) == 7
    assert encode(g, g.natural_labeling) == p


def test_decode_ids_carry_neighborhood_and_copy_index():
    g = decode(Poly1({5: 2, 0: 1}))
    assert set(g.u_vertices) == {
        (frozenset({0, 2}), 1),
        (frozenset({0, 2}), 2),
        (frozenset(), 1),
    }
    assert g.neighbors((frozenset({0, 2}), 1)) == frozenset({0, 2})


def test_decode_zero_gives_empty_graph():
    g = decode(Poly1({}))
    assert not g.u_vertices and not g.v_vertices and not g.edges
    assert encode(g, {}) == Poly1({})


def test_decode_rejects_bivariate():
    with pytest.raises(TypeError):
        decode(Poly2({(1, 0): 1}))


def test_round_trip_random_graphs():
    rng = random.Random(41)
    for _ in range(50):
        g = random_bigraph(rng)
        labeling = random_labeling(rng, g.v_vertices)
        p = encode(g, labeling)
        h = decode(p)
        assert encode(h, h.natural_labeling) == p
        assert_valid_iso(g, h, is_isomorphic(g, h))


def test_encode_decode_fixed_point_on_parsed_poly():
    p = parse_poly1("x^12 + 3*x^9 + 2*x^3 + 5")
    assert encode(decode(p), identity_labeling(decode(p))) == p


def test_is_isomorphic_detects_degree_mismatch():
    g1 = Bigraph(["a", "b"], ["x", "y"], [("a", "x"), ("a", "y")])
    g2 = Bigraph(["c", "d"], ["x", "y"], [("c", "x"), ("d", "x")])
    assert is_isomorphic(g1, g2) is None


def test_is_isomorphic_distinguishes_cycle_lengths():
    c8 = Bigraph(
        ["u0", "u1", "u2", "u3"],
        ["v0", "v1", "v2", "v3"],
        [(f"u{i}", f"v{i}") for i in range(4)]
        + [(f"u{i}", f"v{(i + 1) % 4}") for i in range(4)],
    )
    two_c4 = Bigraph(
        ["u0", "u1", "u2", "u3"],
        ["v0", "v1", "v2", "v3"],
        [
            ("u0", "v0"), ("u0", "v1"), ("u1", "v0"), ("u1", "v1"),
            ("u2", "v2"), ("u2", "v3"), ("u3", "v2"), ("u3", "v3"),
        ],
    )
    assert is_isomorphic(c8, two_c4) is None
    assert_valid_iso(c8, c8, is_isomorphic(c8, c8))


def test_is_isomorphic_ignores_id_spelling():
    g1 = hub_graph()
    g2 = Bigraph(
        ["p", "q", "r"],
        ["s", "t", "w"],
        [("q", "s"), ("q", "t"), ("q", "w"), ("p", "t"), ("p", "s")],
    )
    assert_valid_iso(g1, g2, is_isomorphic(g1, g2))


def test_is_isomorphic_size_guard():
    n = 13
    g = Bigraph(["u"], [f"v{i}" for i in range(n)], [("u", f"v{i}") for i in range(n)])
    with pytest.raises(SizeGuardError):
        is_isomorphic(g, g)
    assert is_isomorphic(g, g, size_guard=13) is not None


def test_canonical_poly_golden():
    assert render(canonical_poly(hub_graph())) == "x^7 + x^3 + 1"


def test_canonical_poly_is_labeling_invariant():
    rng = random.Random(42)
    for _ in range(20):
        g = random_bigraph(rng, max_u=4, max_v=4)
        want = canonical_poly(g)
        relabeled = decode(encode(g, random_labeling(rng, g.v_vertices)))
        assert canonical_poly(relabeled) == want
        shuffled_u = list(g.u_vertices)
        shuffled_v = list(g.v_vertices)
        rng.shuffle(shuffled_u)
        rng.shuffle(shuffled_v)
        assert canonical_poly(Bigraph(shuffled_u, shuffled_v, g.edges)) == want


def test_canonical_poly_separates_nonisomorphic_pairs():
    g1 = Bigraph(["a", "b"], ["x", "y"], [("a", "x"), ("a", "y")])
    g2 = Bigraph(["c", "d"], ["x", "y"], [("c", "x"), ("d", "x")])
    assert canonical_poly(g1) != canonical_poly(g2)


def test_canonical_poly_matches_brute_force_reference():
    """Both arities, |v| <= 6, some graphs with a v-vertex no edge meets."""
    rng = random.Random(43)
    for k in range(40):
        g = random_bigraph(rng, max_u=6, max_v=5)
        d = random_digraph(rng, max_u=6, max_v=5)
        if k % 2:
            g = Bigraph(g.u_vertices, (*g.v_vertices, "lone"), g.edges)
            d = DiBigraph(d.u_vertices, (*d.v_vertices, "lone"), d.arcs)
        assert dict(canonical_poly(g).terms) == least_encoding(g, 1)
        assert dict(canonical_poly_directed(d).terms) == least_encoding(d, 2)


def test_canonical_poly_size_guard():
    g = Bigraph([], [f"v{i}" for i in range(9)], [])
    with pytest.raises(SizeGuardError):
        canonical_poly(g)


def test_canonical_poly_matches_least_encoding_on_edge_cases():
    """|v| <= 7 with twins, v-vertices no edge meets and u-vertices with no
    edge at all."""
    rng = random.Random(44)
    for _ in range(120):
        g = random_canon_case(rng, "graph")
        assert dict(canonical_poly(g).terms) == least_encoding(g, 1), g


# |v| = 8 inputs with many automorphisms: u-vertex i meets the v-indices of
# row i.
SYMMETRIC = {
    "8-cycle": [(i, (i + 1) % 8) for i in range(8)],
    "circulant 0,1,3": [(i, (i + 1) % 8, (i + 3) % 8) for i in range(8)],
    "perfect matching": [(i,) for i in range(8)],
    "K_8,8": [range(8)] * 8,
    "2 x C4": [(i, i - i % 4 + (i + 1) % 4) for i in range(8)],
    "2-subsets": list(combinations(range(8), 2)),
}


def timed(f, *args):
    start = time.perf_counter()
    out = f(*args)
    return out, time.perf_counter() - start


@pytest.mark.parametrize("name", SYMMETRIC)
def test_canonical_poly_on_symmetric_eight_vertex_inputs(name):
    rows = SYMMETRIC[name]
    g = Bigraph(
        [f"u{i}" for i in range(len(rows))],
        [f"v{j}" for j in range(8)],
        [(f"u{i}", f"v{j}") for i, row in enumerate(rows) for j in row],
    )
    want, seconds = timed(canonical_poly, g)
    assert seconds < 1
    rng = random.Random(name)
    for _ in range(5):
        relabeled = decode(encode(g, random_labeling(rng, g.v_vertices, max_label=7)))
        got, seconds = timed(canonical_poly, relabeled)
        assert got == want
        assert seconds < 1


def test_canonical_poly_golden_on_symmetric_inputs():
    """Every labeling of a perfect matching or of K_8,8 encodes the same."""
    matching = Bigraph([f"u{i}" for i in range(8)], range(8), [(f"u{i}", i) for i in range(8)])
    assert canonical_poly(matching) == Poly1({1 << i: 1 for i in range(8)})
    full = Bigraph([f"u{i}" for i in range(8)], range(8), [(f"u{i}", j) for i in range(8) for j in range(8)])
    assert canonical_poly(full) == Poly1({255: 8})


def test_canonical_poly_answers_a_random_eight_vertex_graph_fast():
    rng = random.Random(46)
    us = [f"u{i}" for i in range(4)]
    g = Bigraph(us, [f"v{j}" for j in range(8)],
                [(rng.choice(us), f"v{j}") for j in range(8)]
                + [(u, f"v{j}") for u in us for j in range(8) if rng.random() < 0.4])
    _, seconds = timed(canonical_poly, g)
    assert seconds < 0.02


def test_canonical_poly_agrees_with_networkx_past_brute_force():
    """At |v| = 8, canonical forms agree exactly when networkx finds a
    part-respecting isomorphism, on relabeled copies and on near misses with
    one edge moved."""
    nx = pytest.importorskip("networkx")

    def nx_graph(g):
        out = nx.Graph()
        out.add_nodes_from(g.u_vertices, part="u")
        out.add_nodes_from(g.v_vertices, part="v")
        out.add_edges_from(g.edges)
        return out

    rng = random.Random(47)
    verdicts = Counter()
    for k in range(40):
        us = [f"u{i}" for i in range(rng.randint(3, 6))]
        vs = [f"v{j}" for j in range(8)]
        edges = {(u, v) for u in us for v in vs if rng.random() < 0.4}
        if k % 2:
            umap = dict(zip(us, rng.sample(range(100, 200), len(us))))
            vmap = dict(zip(vs, rng.sample(range(8), 8)))
            h = Bigraph(sorted(umap.values()), range(8), [(umap[u], vmap[v]) for u, v in edges])
        else:
            missing = sorted({(u, v) for u in us for v in vs} - edges)
            moved = (edges - {rng.choice(sorted(edges))}) | {rng.choice(missing)}
            h = Bigraph(us, vs, moved)
        g = Bigraph(us, vs, edges)
        same = nx.is_isomorphic(
            nx_graph(g), nx_graph(h), node_match=lambda a, b: a["part"] == b["part"]
        )
        assert (canonical_poly(g) == canonical_poly(h)) == same, k
        verdicts[same] += 1
    assert verdicts[True] >= 20 and verdicts[False]


def test_labeling_validation():
    g = hub_graph()
    with pytest.raises(LabelingError, match="unlabeled"):
        encode(g, {"v1": 0, "v2": 1})
    with pytest.raises(LabelingError):
        encode(g, {"v1": 0, "v2": 1, "v3": 1})  # duplicate label
    with pytest.raises(LabelingError):
        encode(g, {"v1": -1, "v2": 1, "v3": 2})
    with pytest.raises(LabelingError):
        encode(g, {"v1": True, "v2": 1, "v3": 2})
    with pytest.raises(LabelingError):
        encode(g, {"v1": "0", "v2": 1, "v3": 2})
    check_labeling(g, HUB_LABELS)


def test_compact_and_identity_labelings():
    g = hub_graph()
    assert compact_labeling(g) == {"v1": 0, "v2": 1, "v3": 2}
    h = decode(Poly1({5: 1}))
    assert identity_labeling(h) == {0: 0, 2: 2}
    assert compact_labeling(h) == {0: 0, 2: 1}


def test_constructor_validation():
    with pytest.raises(ValueError):
        Bigraph(["a", "a"], ["v"], [])
    with pytest.raises(ValueError):
        Bigraph(["a"], ["v", "v"], [])
    with pytest.raises(ValueError):
        Bigraph(["a"], ["a"], [])
    with pytest.raises(ValueError):
        Bigraph(["a"], ["v"], [("v", "a")])  # reversed endpoints
    with pytest.raises(ValueError):
        Bigraph(["a"], ["v"], [("a", "w")])


def test_graph_equality_and_views():
    g = hub_graph()
    same = Bigraph(g.u_vertices, g.v_vertices, sorted(g.edges))
    assert g == same and hash(g) == hash(same)
    assert g.neighbors("u2") == frozenset()
    assert g.neighbors("u3") == frozenset({"v1", "v3"})
    assert ("u1", "v2") in g.edges
