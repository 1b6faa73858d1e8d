"""Undirected bipartite graphs and their polynomial encoding."""

import os
import random
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from itertools import combinations, permutations
from pathlib import Path

import pytest

import bigraphpoly
from bigraphpoly import (
    Bigraph,
    Budget,
    BudgetExceededError,
    DiBigraph,
    LabelingError,
    PetriNet,
    Poly1,
    Poly2,
    canonical_poly,
    canonical_poly_directed,
    check_labeling,
    compact_labeling,
    decode,
    encode,
    identity_labeling,
    is_isomorphic,
    parse_poly1,
    poly_product,
    render,
)
from bigraphpoly.poly import poly_key

from helpers import (
    cycles,
    from_slots,
    least_encoding,
    random_bigraph,
    random_canon_case,
    random_digraph,
    random_labeling,
    random_slots,
    relabeled,
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


def test_repr_counts_the_parts_and_links():
    g = Bigraph(["a", "b"], ["x", "y"], [("a", "x"), ("a", "y"), ("b", "y")])
    assert repr(g) == "Bigraph(|u|=2, |v|=2, |links|=3)"


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


def test_round_trip_on_ten_thousand_v_vertices_is_quick():
    """300 u-vertices, each on 1,000 of 10,000 v-vertices: exponents of
    10,000 bits with 1,000 set, packed and unpacked in linear time."""
    rng = random.Random(10)
    vs = [f"v{j}" for j in range(10_000)]
    us = [f"u{i}" for i in range(300)]
    g = Bigraph(us, vs, [(u, vs[j]) for u in us for j in rng.sample(range(10_000), 1000)])
    labeling = compact_labeling(g)
    start = time.perf_counter()
    p = encode(g, labeling)
    h = decode(p)
    assert time.perf_counter() - start < 4
    assert len(h.v_vertices) == 10_000
    assert Counter(h.slots(u)[0] for u in h.u_vertices) == Counter(
        frozenset(labeling[v] for v in g.slots(u)[0]) for u in us
    )
    assert encode(h, h.natural_labeling) == p


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
    """13 v-vertices, past the vertex-count guard this search once had: it
    stops on its budget alone.  The root node, its two refinement rounds of
    54 reads each (13 v-vertices, one u-vertex and its 13 slot members, on
    both sides) and a witness check of one u-vertex make 110 steps: the 13
    twins are paired in declared order, with no branching."""
    n = 13
    g = Bigraph(["u"], [f"v{i}" for i in range(n)], [("u", f"v{i}") for i in range(n)])
    with pytest.raises(BudgetExceededError, match="budget of 109 steps in checking a witness"):
        is_isomorphic(g, g, Budget(max_steps=109))
    assert_valid_iso(g, g, is_isomorphic(g, g, Budget(max_steps=110)))


def test_searches_go_deeper_than_the_recursion_limit():
    """Both searches walk a stack of their own: a star on 2,000 leaves
    places 2,000 v-vertices one below the other, and a pendant u-vertex on
    the last leaf makes the canonical form give a label at each depth."""
    n = 2000
    vs = [f"v{i}" for i in range(n)]
    star = Bigraph(["u"], vs, [("u", v) for v in vs])
    flipped = Bigraph(["w"], vs[::-1], [("w", v) for v in vs])
    assert_valid_iso(star, flipped, is_isomorphic(star, flipped))
    pendant = Bigraph(["u", "w"], vs, [*star.edges, ("w", vs[-1])])
    assert canonical_poly(pendant) == Poly1({(1 << n) - 1: 1, 1: 1})


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
    """|v| = 9, past the vertex-count guard this search once had: it stops
    on its budget alone.  Nine twins need one child state of no terms, one
    step; the random graph needs 342 steps."""
    g = Bigraph([], [f"v{i}" for i in range(9)], [])
    with pytest.raises(BudgetExceededError, match="budget of 0 steps in building states"):
        canonical_poly(g, Budget(max_steps=0))
    assert canonical_poly(g, Budget(max_steps=1)) == Poly1({})
    rng = random.Random(46)
    us = [f"u{i}" for i in range(4)]
    g = Bigraph(us, [f"v{j}" for j in range(9)],
                [(rng.choice(us), f"v{j}") for j in range(9)]
                + [(u, f"v{j}") for u in us for j in range(9) if rng.random() < 0.4])
    with pytest.raises(BudgetExceededError, match="budget of 341 steps"):
        canonical_poly(g, Budget(max_steps=341))
    assert canonical_poly(g, Budget(max_steps=342)) == canonical_poly(g)


def test_canonical_poly_matches_least_encoding_on_edge_cases():
    """|v| <= 7 with twins, v-vertices no edge meets and u-vertices with no
    edge at all."""
    rng = random.Random(44)
    for _ in range(120):
        g = random_canon_case(rng, "graph")
        assert dict(canonical_poly(g).terms) == least_encoding(g, 1), g


def test_canonical_poly_matches_least_encoding_on_repeated_classes():
    """Graphs, digraphs and nets on |v| <= 6 whose u-classes repeat 1 to 4
    times, so the walk's terms carry counts.  Over half of the inputs have
    two classes with slots of equal sizes: at the root their distinct terms
    share a floor, which the bound keeps as two runs."""
    rng = random.Random(49)
    shared = 0
    for k in range(150):
        kind = (Bigraph, DiBigraph, PetriNet)[k % 3]
        width = 1 if kind is Bigraph else 2
        vs = [f"v{j}" for j in range(rng.randint(2, 6))]
        classes = list(dict.fromkeys(
            tuple(frozenset(v for v in vs if rng.random() < 0.5 / width) for _ in range(width))
            for _ in range(rng.randint(3, 7))))
        sig = {f"u{i}_{c}": slots for i, slots in enumerate(classes)
               for c in range(rng.randint(1, 4))}
        g = from_slots(kind, list(sig), vs, sig)
        sizes = [tuple(map(len, slots)) for slots in classes]
        shared += len(set(sizes)) < len(sizes)
        assert dict(canonical_poly(g).terms) == least_encoding(g, width), (k, sig)
    assert shared >= 75


def test_canonical_poly_on_a_product_of_hundred_u_graphs_reads_its_classes():
    """The product of two random 100-u graphs on 6 v-vertices, both labeled
    0..5, has 10^4 u-vertices on 7 v-vertices in 123 classes.  A walk state
    costs its distinct terms, not its u-vertices, so the canonical form
    answers within the default budget, which charging u-vertices used up,
    and it is the least of the encodings under all 5,040 labelings."""
    rng = random.Random(0)

    def graph(tag):
        us, vs = [f"{tag}u{i}" for i in range(100)], [f"{tag}v{j}" for j in range(6)]
        return Bigraph(us, vs, [(u, v) for u in us for v in vs if rng.random() < 0.4])

    g1, g2 = graph("a"), graph("b")
    g = poly_product(g1, compact_labeling(g1), g2, compact_labeling(g2))
    assert (sum(g._classes.values()), len(g.v_vertices), len(g._classes)) == (10**4, 7, 123)
    least = min(poly_key(encode(g, dict(zip(g.v_vertices, labels))))
                for labels in permutations(range(7)))
    assert poly_key(canonical_poly(g, Budget())) == least


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


def edge_set(g):
    """The edges of a graph, or the arcs of a digraph, as (tail, head)."""
    return set(g.arcs if isinstance(g, DiBigraph) else g.edges)


def nx_graph(nx, g):
    """g as a networkx graph from its slots, nodes carrying their part:
    undirected for one slot; for two, slot 0 points from v to u and slot 1
    from u to v, so digraphs and nets keep the direction of each link.

    u-vertices with equal slots are twins, and they become one node that
    carries their number: an isomorphism of these graphs lifts to g's by
    pairing twins in any order, and networkx would try every such order."""
    out = nx.Graph() if g.arity == 1 else nx.DiGraph()
    out.add_nodes_from(g.v_vertices, part="v")
    twins = {}
    for u in g.u_vertices:
        twins.setdefault(g.slots(u), []).append(u)
    for slots, us in twins.items():
        out.add_node(us[0], part=("u", len(us)))
        for slot, part in enumerate(slots):
            out.add_edges_from((us[0], v) if slot else (v, us[0]) for v in part)
    return out


def nx_isomorphic(nx, g, h):
    return nx.is_isomorphic(
        nx_graph(nx, g), nx_graph(nx, h), node_match=lambda a, b: a["part"] == b["part"]
    )


def relabeled_or_near_miss(rng, g, near_miss):
    """A copy of g under fresh shuffled ids, or g with one edge or arc moved
    to a place it did not hold."""
    kind = type(g)
    edges = edge_set(g)
    if near_miss:
        pairs = [(u, v) for u in g.u_vertices for v in g.v_vertices]
        if kind is DiBigraph:
            pairs += [(v, u) for u, v in pairs]
        gone = rng.choice(sorted(edges))
        edges = (edges - {gone}) | {rng.choice(sorted(set(pairs) - edges))}
        return kind(g.u_vertices, g.v_vertices, edges)
    names = {u: f"a{k}" for k, u in enumerate(rng.sample(g.u_vertices, len(g.u_vertices)))}
    names.update(
        {v: f"b{k}" for k, v in enumerate(rng.sample(g.v_vertices, len(g.v_vertices)))}
    )
    return kind(
        rng.sample([names[u] for u in g.u_vertices], len(g.u_vertices)),
        rng.sample([names[v] for v in g.v_vertices], len(g.v_vertices)),
        [(names[a], names[b]) for a, b in edges],
    )


def test_canonical_poly_agrees_with_networkx_past_brute_force():
    """At |v| = 8, canonical forms agree exactly when networkx finds a
    part-respecting isomorphism, on relabeled copies and on near misses with
    one edge moved."""
    nx = pytest.importorskip("networkx")
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
        same = nx_isomorphic(nx, g, h)
        assert (canonical_poly(g) == canonical_poly(h)) == same, k
        verdicts[same] += 1
    assert verdicts[True] >= 20 and verdicts[False]


def random_pair_past_the_old_guards(rng, kind, nv, nu, density):
    us = [f"u{i}" for i in range(nu)]
    vs = [f"v{j}" for j in range(nv)]
    pairs = [(u, v) for u in us for v in vs if rng.random() < density]
    if kind is DiBigraph:
        pairs = [p if rng.random() < 0.5 else p[::-1] for p in pairs]
    g = kind(us, vs, pairs)
    return g, relabeled_or_near_miss(rng, g, rng.random() < 0.5)


@pytest.mark.parametrize("kind", [Bigraph, DiBigraph], ids=["graph", "digraph"])
def test_is_isomorphic_agrees_with_networkx_past_the_old_guard(kind):
    """|v| = 13..16, past the vertex-count guard of 12 the search once had,
    then 40..80 u-vertices on |v| = 4..6, where most u-vertices share their
    class with others: a witness exactly when networkx finds a
    part-respecting isomorphism, and every witness maps each edge or arc
    onto one."""
    nx = pytest.importorskip("networkx")
    rng = random.Random(48)
    verdicts = Counter()
    for k in range(60):
        wide = k < 40
        nv, nu, density = ((13 + k % 4, rng.randint(8, 20), 0.3) if wide
                           else (rng.randint(4, 6), rng.randint(40, 80), 0.2))
        g, h = random_pair_past_the_old_guards(rng, kind, nv, nu, density)
        repeated = sum(c for c in g._classes.values() if c > 1)
        assert wide or 2 * repeated > nu, k
        found = is_isomorphic(g, h)
        assert (found is not None) == nx_isomorphic(nx, g, h), k
        if found is not None:
            u_map, v_map = found
            m = {**u_map, **v_map}
            assert Counter(u_map.keys()) == Counter(g.u_vertices)
            assert Counter(u_map.values()) == Counter(h.u_vertices)
            assert Counter(v_map.keys()) == Counter(g.v_vertices)
            assert Counter(v_map.values()) == Counter(h.v_vertices)
            assert {(m[a], m[b]) for a, b in edge_set(g)} == edge_set(h)
        verdicts[wide, found is not None] += 1
    assert verdicts[True, True] >= 15 and verdicts[True, False] >= 15
    assert verdicts[False, True] >= 5 and verdicts[False, False] >= 5


def test_is_isomorphic_on_a_product_of_hundred_u_graphs_reads_its_classes():
    """The product of two random 100-u graphs on 6 v-vertices each, labeled
    apart, has 10^4 u-vertices in 2,115 classes.  Against a relabeled copy
    the search reads classes, so it answers within 40,000 steps, where
    reading every u-vertex took 125,025, and its witness carries every edge
    onto an edge."""
    rng = random.Random(0)

    def graph(tag):
        us, vs = [f"{tag}u{i}" for i in range(100)], [f"{tag}v{j}" for j in range(6)]
        return Bigraph(us, vs, [(u, v) for u in us for v in vs if rng.random() < 0.4])

    g1, g2 = graph("a"), graph("b")
    apart = {v: 6 + i for v, i in compact_labeling(g2).items()}
    g = poly_product(g1, compact_labeling(g1), g2, apart)
    assert (len(g.u_vertices), len(g._classes)) == (10**4, 2115)
    h = relabeled(rng, g)
    u_map, v_map = is_isomorphic(g, h, Budget(max_steps=40_000))
    assert sorted(u_map) == sorted(g.u_vertices) and sorted(u_map.values()) == sorted(h.u_vertices)
    assert sorted(v_map.values()) == sorted(h.v_vertices)
    assert {(u_map[u], v_map[v]) for u, v in g.edges} == h.edges


def test_canonical_form_keeps_only_the_states_it_visits():
    """The repeated-state rule keeps the states the walk visits, not every
    child it builds: the 8-cycle's canonical form peaks under 8 MB of
    Python allocations, where keeping every child took about 11 MB."""
    g = cycles(8)
    tracemalloc.start()
    try:
        canonical_poly(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


PEAK_OF_THE_NINE_CYCLE = """
from bigraphpoly import Bigraph, canonical_poly


def peak():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))


n = 9
g = Bigraph(range(n), range(n, 2 * n), [(i, n + (i + d) % n) for i in range(n) for d in (0, 1)])
before = peak()
p = canonical_poly(g)
print(p, "|", (peak() - before) * 1024)
"""


def test_canonical_form_of_the_nine_cycle_raises_peak_rss_by_at_most_16_mb():
    """The walk keeps every state of the 9-cycle it visits, each one sorted
    tuple of term integers, and the peak RSS rises by about 4 MB; a dict
    and a frozenset per kept state rise by about 34 MB.  The peak is the
    kernel's VmHWM, as ru_maxrss starts a new process at the peak of the
    process it was forked from."""
    if not Path("/proc/self/status").exists():
        pytest.skip("needs /proc/self/status")
    here = str(Path(bigraphpoly.__file__).parents[1])
    path = os.pathsep.join(filter(None, [here, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", PEAK_OF_THE_NINE_CYCLE], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    poly, rise = proc.stdout.split("|")
    assert poly.strip() == "x^258 + x^257 + x^132 + x^129 + x^72 + x^66 + x^48 + x^36 + x^24"
    assert int(rise) <= 16 * 2**20, int(rise)


@pytest.mark.parametrize("n", [10, 12, 16])
def test_is_isomorphic_answers_regular_cycles(n):
    """Refinement splits nothing on a cycle: the n-cycle against two
    n/2-cycles and against a relabeled copy of itself both need branching,
    and both answer under the default budget well inside a second."""
    g = cycles(n)
    start = time.perf_counter()
    assert is_isomorphic(g, cycles(n // 2, n // 2)) is None
    h = relabeled_or_near_miss(random.Random(n), g, False)
    assert_valid_iso(g, h, is_isomorphic(g, h))
    assert time.perf_counter() - start < 1


def test_is_isomorphic_charges_each_round_what_it_reads():
    """Every node of the search refines anew, so a round costs one step per
    vertex and slot member it reads: the 64-cycle against two 32-cycles
    needs about a million steps, and 10^5 of them run out in well under a
    second, as they would on a small input."""
    g, h = cycles(64), cycles(32, 32)
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match="budget of 100000 steps"):
        is_isomorphic(g, h, Budget(max_steps=10**5))
    assert time.perf_counter() - start < 1


def random_regular(rng, kind, n, d):
    """n u- and n v-vertices joined by d disjoint random perfect matchings,
    so every vertex has degree d; a digraph points the even matchings from
    u to v and the odd ones back, so in- and out-degrees are regular too."""
    us = [f"u{i}" for i in range(n)]
    vs = [f"v{i}" for i in range(n)]
    matchings = []
    while len(matchings) < d:
        m = set(zip(us, rng.sample(vs, n)))
        if not any(m & other for other in matchings):
            matchings.append(m)
    if kind is Bigraph:
        return Bigraph(us, vs, set().union(*matchings))
    arcs = [(a, b) if k % 2 == 0 else (b, a) for k, m in enumerate(matchings) for a, b in m]
    return DiBigraph(us, vs, arcs)


@pytest.mark.parametrize("kind", [Bigraph, DiBigraph], ids=["graph", "digraph"])
def test_is_isomorphic_agrees_with_networkx_on_regular_inputs(kind):
    """Regular inputs, where refinement alone splits nothing: a relabeled
    copy or an independent draw of the same size and degree.  A witness
    exactly when networkx finds a part-respecting isomorphism."""
    nx = pytest.importorskip("networkx")
    rng = random.Random(20)
    verdicts = Counter()
    for k in range(30):
        n, d = rng.randint(8, 20), rng.randint(2, 4)
        g = random_regular(rng, kind, n, d)
        h = relabeled_or_near_miss(rng, g, False) if k % 2 else random_regular(rng, kind, n, d)
        found = is_isomorphic(g, h)
        assert (found is not None) == nx_isomorphic(nx, g, h), k
        if found is not None:
            u_map, v_map = found
            m = {**u_map, **v_map}
            assert {(m[a], m[b]) for a, b in edge_set(g)} == edge_set(h)
        verdicts[found is not None] += 1
    assert verdicts[True] >= 15 and verdicts[False] >= 5


@pytest.mark.parametrize("kind", [Bigraph, DiBigraph, PetriNet], ids=["graph", "digraph", "net"])
def test_is_isomorphic_agrees_with_networkx_on_graphs_digraphs_and_nets(kind):
    """The benchmark's shapes (10-30 u-vertices, 6-13 v-vertices), where
    refinement mostly reaches a discrete coloring and stops there: a
    relabeled copy, the copy with one slot member toggled, or an independent
    draw.  A witness exactly when networkx finds a part-respecting
    isomorphism, and every witness carries each slot onto its image."""
    nx = pytest.importorskip("networkx")
    rng = random.Random(38)
    verdicts = Counter()
    for k in range(60):
        g = random_slots(rng, kind, rng.randint(10, 30), rng.randint(6, 13))
        if k % 3 == 0:
            h = relabeled(rng, g)
        elif k % 3 == 1:
            u = rng.choice(g.u_vertices)
            vs = g.v_vertices
            toggled = (u, rng.randrange(g.arity), rng.choice(vs), rng.choice(vs))
            h = relabeled(rng, g, toggled)
        else:
            h = random_slots(rng, kind, len(g.u_vertices), len(g.v_vertices))
        found = is_isomorphic(g, h)
        assert (found is not None) == nx_isomorphic(nx, g, h), k
        if found is not None:
            u_map, v_map = found
            assert sorted(u_map) == sorted(g.u_vertices)
            assert sorted(u_map.values()) == sorted(h.u_vertices)
            assert sorted(v_map) == sorted(g.v_vertices)
            assert sorted(v_map.values()) == sorted(h.v_vertices)
            for u in g.u_vertices:
                assert h.slots(u_map[u]) == tuple(
                    frozenset(map(v_map.__getitem__, part)) for part in g.slots(u)
                )
        verdicts[found is not None] += 1
    assert verdicts[True] >= 20 and verdicts[False] >= 20


def test_canonical_poly_agrees_with_networkx_past_the_old_guard():
    """|v| = 9..11, past the guard of 8 the canonical form once had: equal
    forms exactly when networkx finds a part-respecting isomorphism."""
    nx = pytest.importorskip("networkx")
    rng = random.Random(49)
    verdicts = Counter()
    for k in range(30):
        g, h = random_pair_past_the_old_guards(rng, Bigraph, 9 + k % 3, rng.randint(3, 6), 0.4)
        same = nx_isomorphic(nx, g, h)
        assert (canonical_poly(g) == canonical_poly(h)) == same, k
        verdicts[same] += 1
    assert verdicts[True] >= 10 and verdicts[False] >= 10


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
