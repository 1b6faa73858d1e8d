"""Directed bipartite graphs and the two-variable encoding."""

import random
import time
from collections import Counter

import pytest

from bigraphpoly import (
    Budget,
    BudgetExceededError,
    DiBigraph,
    LabelingError,
    Poly1,
    Poly2,
    canonical_poly_directed,
    decode_directed,
    encode_directed,
    is_isomorphic_directed,
    render,
)

from helpers import least_encoding, random_canon_case, random_digraph, random_labeling


def relay_graph():
    """u1 feeds both v's; both v's feed u2."""
    return DiBigraph(
        ["u1", "u2"],
        ["v1", "v2"],
        [("u1", "v1"), ("u1", "v2"), ("v1", "u2"), ("v2", "u2")],
    )


def assert_valid_iso(g1, g2, witness):
    assert witness is not None
    u_map, v_map = witness
    assert Counter(u_map.keys()) == Counter(g1.u_vertices)
    assert Counter(u_map.values()) == Counter(g2.u_vertices)
    assert Counter(v_map.keys()) == Counter(g1.v_vertices)
    assert Counter(v_map.values()) == Counter(g2.v_vertices)
    m = {**u_map, **v_map}
    assert {(m[a], m[b]) for a, b in g1.arcs} == set(g2.arcs)


def test_encode_golden():
    p = encode_directed(relay_graph(), {"v1": 0, "v2": 1})
    assert p == Poly2({(0, 3): 1, (3, 0): 1})
    assert render(p) == "x^3 + y^3"


def test_encode_separates_in_from_out():
    g = DiBigraph(["u"], ["v"], [("u", "v")])
    h = DiBigraph(["u"], ["v"], [("v", "u")])
    assert encode_directed(g, {"v": 0}) == Poly2({(0, 1): 1})
    assert encode_directed(h, {"v": 0}) == Poly2({(1, 0): 1})


def test_encode_two_way_arc_pair():
    g = DiBigraph(["u"], ["v"], [("u", "v"), ("v", "u")])
    assert encode_directed(g, {"v": 2}) == Poly2({(4, 4): 1})


def test_decode_golden():
    p = Poly2({(5, 3): 1, (2, 0): 2, (0, 1): 1, (0, 0): 2})
    g = decode_directed(p)
    assert list(g.v_vertices) == [0, 1, 2]
    assert len(g.u_vertices) == 6
    assert len(g.arcs) == 7
    assert Counter(
        (frozenset(g.pre(u)), frozenset(g.post(u))) for u in g.u_vertices
    ) == Counter(
        {
            (frozenset({0, 2}), frozenset({0, 1})): 1,
            (frozenset({1}), frozenset()): 2,
            (frozenset(), frozenset({0})): 1,
            (frozenset(), frozenset()): 2,
        }
    )
    assert encode_directed(g, g.natural_labeling) == p


def test_decode_zero_and_wrong_arity():
    g = decode_directed(Poly2({}))
    assert not g.u_vertices and not g.v_vertices and not g.arcs
    with pytest.raises(TypeError):
        decode_directed(Poly1({1: 1}))


def test_round_trip_random_digraphs():
    rng = random.Random(51)
    for _ in range(50):
        g = random_digraph(rng)
        labeling = random_labeling(rng, g.v_vertices)
        p = encode_directed(g, labeling)
        h = decode_directed(p)
        assert encode_directed(h, h.natural_labeling) == p
        assert_valid_iso(g, h, is_isomorphic_directed(g, h))


def test_is_isomorphic_directed_sees_direction():
    g = DiBigraph(["u"], ["v"], [("u", "v")])
    h = DiBigraph(["u"], ["v"], [("v", "u")])
    assert is_isomorphic_directed(g, h) is None
    assert_valid_iso(g, g, is_isomorphic_directed(g, g))


def test_is_isomorphic_directed_ignores_id_spelling():
    g2 = DiBigraph(
        ["a", "b"],
        ["s", "t"],
        [("b", "s"), ("b", "t"), ("s", "a"), ("t", "a")],
    )
    assert_valid_iso(relay_graph(), g2, is_isomorphic_directed(relay_graph(), g2))


def test_is_isomorphic_directed_size_guard():
    """13 v-vertices, past the old vertex-count guard: 110 steps, as for the
    undirected star."""
    n = 13
    g = DiBigraph(["u"], [f"v{i}" for i in range(n)], [("u", f"v{i}") for i in range(n)])
    with pytest.raises(BudgetExceededError, match="budget of 109 steps"):
        is_isomorphic_directed(g, g, Budget(max_steps=109))
    assert_valid_iso(g, g, is_isomorphic_directed(g, g, Budget(max_steps=110)))


def test_canonical_poly_directed_golden():
    g = DiBigraph(["u1"], ["v1", "v2"], [("u1", "v1"), ("v2", "u1")])
    assert canonical_poly_directed(g) == Poly2({(1, 2): 1})
    assert canonical_poly_directed(relay_graph()) == Poly2({(0, 3): 1, (3, 0): 1})


def test_canonical_poly_directed_is_labeling_invariant():
    rng = random.Random(52)
    for _ in range(15):
        g = random_digraph(rng, max_u=4, max_v=4)
        want = canonical_poly_directed(g)
        relabeled = decode_directed(
            encode_directed(g, random_labeling(rng, g.v_vertices))
        )
        assert canonical_poly_directed(relabeled) == want


def test_canonical_poly_directed_size_guard():
    """|v| = 9, past the old vertex-count guard: nine twins need one child
    state, of one step."""
    g = DiBigraph([], [f"v{i}" for i in range(9)], [])
    with pytest.raises(BudgetExceededError, match="budget of 0 steps"):
        canonical_poly_directed(g, Budget(max_steps=0))
    assert canonical_poly_directed(g, Budget(max_steps=1)) == Poly2({})


@pytest.mark.parametrize("kind", ["digraph", "net"])
def test_canonical_poly_directed_matches_least_encoding_on_edge_cases(kind):
    """|v| <= 7 with twins, v-vertices no arc meets, u-vertices with both
    slots empty and, for nets, the idle unit."""
    rng = random.Random(53 if kind == "net" else 54)
    for _ in range(120):
        g = random_canon_case(rng, kind)
        assert dict(canonical_poly_directed(g).terms) == least_encoding(g, 2), g


def test_canonical_poly_directed_on_a_directed_eight_cycle():
    """v_i feeds u_i, which feeds v_(i+1): relabeled copies agree, fast."""
    g = DiBigraph(
        [f"u{i}" for i in range(8)],
        [f"v{i}" for i in range(8)],
        [(f"v{i}", f"u{i}") for i in range(8)] + [(f"u{i}", f"v{(i + 1) % 8}") for i in range(8)],
    )
    want = canonical_poly_directed(g)
    rng = random.Random(55)
    for _ in range(5):
        relabeled = decode_directed(
            encode_directed(g, random_labeling(rng, g.v_vertices, max_label=7))
        )
        start = time.perf_counter()
        assert canonical_poly_directed(relabeled) == want
        assert time.perf_counter() - start < 1


def test_constructor_validation():
    with pytest.raises(ValueError):
        DiBigraph(["a", "a"], ["v"], [])
    with pytest.raises(ValueError):
        DiBigraph(["a"], ["v", "v"], [])
    with pytest.raises(ValueError):
        DiBigraph(["a"], ["a"], [])
    with pytest.raises(ValueError):
        DiBigraph(["a", "b"], ["v"], [("a", "b")])  # both ends in the u part
    with pytest.raises(ValueError):
        DiBigraph(["a"], ["v"], [("a", "w")])


def test_labeling_validation():
    g = relay_graph()
    with pytest.raises(LabelingError):
        encode_directed(g, {"v1": 0})
    with pytest.raises(LabelingError):
        encode_directed(g, {"v1": 0, "v2": 0})


def test_pre_post_views():
    g = relay_graph()
    assert g.pre("u1") == frozenset()
    assert g.post("u1") == frozenset({"v1", "v2"})
    assert g.pre("u2") == frozenset({"v1", "v2"})
    assert g.post("u2") == frozenset()
