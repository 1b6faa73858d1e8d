"""Graph factorization through the polynomial, and irreducibility reports."""

import inspect
import random
import time
from itertools import permutations

import pytest

import bigraphpoly
from bigraphpoly import (
    Bigraph,
    Budget,
    BudgetExceededError,
    DiBigraph,
    IrreducibilityReport,
    Poly1,
    bit_disjoint_factor,
    compact_labeling,
    decode,
    decode_directed,
    encode,
    factor_graph,
    factor_pairs,
    identity_labeling,
    is_irreducible,
    is_isomorphic,
    parse_poly1,
    plain_product,
    poly_product,
    tau_poly,
)

from helpers import random_bigraph, random_digraph, random_labeling

CUBIC = parse_poly1("x^3 + 2*x^2 + 2*x + 1")


def test_factor_golden_cubic_graph():
    g = decode(CUBIC)
    pairs = factor_graph(g, identity_labeling(g))
    assert len(pairs) == 1
    gq, gr = pairs[0]
    assert encode(gq, gq.natural_labeling) == parse_poly1("x + 1")
    assert encode(gr, gr.natural_labeling) == parse_poly1("x^2 + x + 1")
    assert (len(gq.u_vertices), len(gq.v_vertices), len(gq.edges)) == (2, 1, 1)
    assert (len(gr.u_vertices), len(gr.v_vertices), len(gr.edges)) == (3, 2, 2)


def test_factor_matches_handmade_pieces_with_shared_labels():
    g1 = Bigraph(["a", "b"], ["v11"], [("a", "v11")])
    g2 = Bigraph(["c", "d", "e"], ["v21", "v22"], [("c", "v22"), ("d", "v21")])
    l1 = {"v11": 0}
    l2 = {"v21": 0, "v22": 1}
    assert encode(g1, l1) == parse_poly1("x + 1")
    assert encode(g2, l2) == parse_poly1("x^2 + x + 1")
    product = poly_product(g1, l1, g2, l2)
    assert is_isomorphic(product, decode(CUBIC)) is not None


def test_uncovered_v_blocks_a_polynomial_only_split():
    """2*x^2 factors as x * 2*x, but the rebuilt product cannot produce the
    edge-free v-vertex, so the pair is rejected."""
    g = Bigraph(["a", "b"], ["v1", "v2"], [("a", "v1"), ("b", "v1")])
    labeling = {"v1": 1, "v2": 0}
    assert encode(g, labeling) == Poly1({2: 2})
    assert factor_graph(g, labeling) == []
    report = is_irreducible(g, exhaustive=True)
    assert report.verdict == "irreducible"
    assert report.scope == "compact-labelings"


def test_factor_graph_splits_a_digraph_into_its_bit_disjoint_pairs():
    # (x + 1)(y^2 + 1)(x^4 + y^8) under a=0, b=1, c=2, d=3: 3 pairs
    slots = {"ac_b": ("ac", "b"), "ac_": ("ac", ""), "c_b": ("c", "b"),
             "c_": ("c", ""), "a_bd": ("a", "bd"), "a_d": ("a", "d"),
             "_bd": ("", "bd"), "_d": ("", "d")}
    arcs = [(v, u) for u, (pre, _) in slots.items() for v in pre]
    arcs += [(u, v) for u, (_, post) in slots.items() for v in post]
    g = DiBigraph(slots, "abcd", arcs)
    labels = {"a": 0, "b": 1, "c": 2, "d": 3}
    expected = bit_disjoint_factor(encode(g, labels))
    assert len(expected) == 3
    pairs = factor_graph(g, labels)
    assert [tuple(encode(h, h.natural_labeling) for h in pair) for pair in pairs] == expected
    assert all(isinstance(h, DiBigraph) for pair in pairs for h in pair)


def test_factor_graph_past_the_isomorphism_guard():
    """13 v-vertices, one past the guard of 12 that no longer applies: the
    planted pair of a plain product comes back within a second."""
    g1 = Bigraph(["a", "b"], [f"p{i}" for i in range(6)],
                 [("a", "p0"), ("a", "p2")] + [("b", f"p{i}") for i in range(1, 6)])
    g2 = Bigraph(["c", "d"], [f"q{i}" for i in range(7)],
                 [("d", f"q{i}") for i in range(7)])  # c is isolated
    g = plain_product(g1, g2)
    labeling = compact_labeling(g)
    planted = (encode(g1, compact_labeling(g1)),
               encode(g2, {f"q{i}": 6 + i for i in range(7)}))
    assert planted[0] * planted[1] == encode(g, labeling)
    start = time.perf_counter()
    pairs = factor_graph(g, labeling)
    assert time.perf_counter() - start < 1.0
    got = {(encode(gq, gq.natural_labeling), encode(gr, gr.natural_labeling))
           for gq, gr in pairs}
    assert planted in got


def test_factor_trivial_graphs():
    single = Bigraph(["u"], ["v"], [("u", "v")])
    assert factor_graph(single, {"v": 0}) == []
    hub = Bigraph(["a", "b"], ["v"], [("a", "v")])
    assert factor_graph(hub, {"v": 1}) == []  # x^2 + 1 has no split
    empty_u = Bigraph([], ["v"], [])
    assert factor_graph(empty_u, {"v": 0}) == []


def test_reducibility_depends_on_the_labeling():
    g = decode(CUBIC)
    yes = is_irreducible(g, {0: 0, 1: 1})
    assert yes.verdict == "reducible"
    assert yes.scope == "labeling"
    lab, (gq, gr) = yes.witness
    assert lab == {0: 0, 1: 1}
    assert encode(gq, gq.natural_labeling) * encode(gr, gr.natural_labeling) == CUBIC
    # under labels {0, 2} the same graph encodes to x^5 + 2*x^4 + 2*x + 1,
    # whose integer factorization needs a negative coefficient
    no = is_irreducible(g, {0: 0, 1: 2})
    assert encode(g, {0: 0, 1: 2}) == parse_poly1("x^5 + 2*x^4 + 2*x + 1")
    assert no.verdict == "irreducible"
    assert no.scope == "labeling"
    assert no.witness is None


def test_exhaustive_sweep_finds_a_splitting_labeling():
    report = is_irreducible(decode(CUBIC), exhaustive=True)
    assert report.verdict == "reducible"
    assert report.scope == "compact-labelings"
    lab, (gq, gr) = report.witness
    p = encode(decode(CUBIC), lab)
    assert encode(gq, gq.natural_labeling) * encode(gr, gr.natural_labeling) == p


def test_exhaustive_sweep_certifies_irreducible():
    g = Bigraph(["a", "b"], ["p", "q"], [("a", "p"), ("a", "q")])
    report = is_irreducible(g, exhaustive=True)  # x^3 + 1 under every labeling
    assert report.verdict == "irreducible"
    assert report.scope == "compact-labelings"
    assert report.witness is None


def test_default_labeling_is_compact():
    g = Bigraph(["u"], ["w"], [("u", "w")])
    report = is_irreducible(g)
    assert report.verdict == "irreducible"
    assert report.scope == "labeling"


def test_budget_starvation_is_reported_not_raised():
    g = decode(CUBIC)
    report = is_irreducible(g, budget=Budget(max_steps=0))
    assert report.verdict == "inconclusive"
    assert report.scope == "labeling"
    assert report.detail
    sweep = is_irreducible(g, exhaustive=True, budget=Budget(max_steps=0))
    assert sweep.verdict == "inconclusive"
    assert "budget" in sweep.detail


def test_factor_graph_propagates_budget_errors():
    g = decode(CUBIC)
    with pytest.raises(BudgetExceededError):
        factor_graph(g, identity_labeling(g), Budget(max_steps=0))


def test_exhaustive_sweep_guard():
    """An isolated u-vertex and v-vertices no edge meets: no labeling splits
    the graph, so the answer needs no sweep, at 9 v-vertices or at 20."""
    for n in (9, 20):
        g = Bigraph(["u"], [f"v{i}" for i in range(n)], [])
        start = time.perf_counter()
        report = is_irreducible(g, exhaustive=True, budget=Budget(max_steps=0))
        assert time.perf_counter() - start < 0.1
        assert (report.verdict, report.scope) == ("irreducible", "compact-labelings")


def test_sweep_of_ten_v_vertices_runs_out_of_budget():
    """With an isolated u-vertex and every v-vertex on an edge the sweep
    tries labelings until the allowance runs out; each costs at least the
    divisor scan of p(1)."""
    us = [f"u{i}" for i in range(10)]
    vs = [f"v{j}" for j in range(10)]
    g = Bigraph(us, vs, [(f"u{j}", f"v{j}") for j in range(9)] + [("u8", "v9")])
    assert is_irreducible(g, budget=Budget(max_steps=1000)).verdict == "irreducible"
    report = is_irreducible(g, exhaustive=True, budget=Budget(max_steps=1000))
    assert (report.verdict, report.scope) == ("inconclusive", "compact-labelings")
    assert "budget of 1000 steps" in report.detail


def test_sweep_shares_one_allowance():
    """Both labelings encode to 1 + x + x^2, whose search lists the 2
    divisors of p(1) = 3 in 2 steps; the sweep pays for both."""
    g = Bigraph(["a", "b", "c"], ["p", "q"], [("b", "p"), ("c", "q")])
    alone = is_irreducible(g, {"p": 0, "q": 1}, budget=Budget(max_steps=3))
    assert alone.verdict == "irreducible"
    sweep = is_irreducible(g, exhaustive=True, budget=Budget(max_steps=3))
    assert sweep.verdict == "inconclusive"
    assert "budget of 3 steps" in sweep.detail
    sweep = is_irreducible(g, exhaustive=True, budget=Budget(max_steps=4))
    assert sweep.verdict == "irreducible"


def test_no_isolated_u_vertex_answers_like_the_sweep():
    """The reference tries every labeling by 0..|v|-1 through factor_graph;
    with no isolated u-vertex the compact labeling must agree with it.
    Every u-vertex gets a neighbour; v-vertices may be left uncovered."""
    rng = random.Random(6)
    verdicts = set()
    for _ in range(150):
        us = [f"u{i}" for i in range(rng.randint(1, 4))]
        vs = [f"v{j}" for j in range(rng.randint(1, 5))]
        edges = {(u, rng.choice(vs)) for u in us}
        edges |= {(u, v) for u in us for v in vs if rng.random() < 0.3}
        g = Bigraph(us, vs, edges)
        splits = any(
            factor_graph(g, dict(zip(vs, perm)))
            for perm in permutations(range(len(vs)))
        )
        report = is_irreducible(g, exhaustive=True)
        assert report.scope == "compact-labelings"
        assert report.verdict == ("reducible" if splits else "irreducible"), g
        verdicts.add(report.verdict)
    assert verdicts == {"reducible", "irreducible"}


def test_twelve_v_vertices_without_an_isolated_u_vertex_need_no_sweep():
    """Past the sweep's guard of 8 v-vertices one compact labeling answers."""
    rng = random.Random(12)
    us = [f"u{i}" for i in range(8)]
    vs = [f"v{j}" for j in range(12)]
    for _ in range(6):
        edges = {(u, rng.choice(vs)) for u in us} | {(rng.choice(us), v) for v in vs}
        edges |= {(u, v) for u in us for v in vs if rng.random() < 0.3}
        g = Bigraph(us, vs, edges)
        start = time.perf_counter()
        report = is_irreducible(g, exhaustive=True)
        assert time.perf_counter() - start < 1
        assert (report.verdict, report.scope) == ("reducible", "compact-labelings")
        lab, (gq, gr) = report.witness
        assert encode(gq, gq.natural_labeling) * encode(gr, gr.natural_labeling) == encode(g, lab)
        # a v-vertex that no edge meets rules out a split under every labeling
        bare = Bigraph(us, vs + ["w"], edges)
        assert is_irreducible(bare, exhaustive=True).verdict == "irreducible"


@pytest.mark.parametrize("name", [
    "factor_pairs", "bit_disjoint_factor", "factor_graph", "decompose",
    "is_irreducible", "is_isomorphic", "is_isomorphic_directed", "net_isomorphic",
    "canonical_poly", "canonical_poly_directed",
])
def test_every_search_takes_a_budget_and_no_size_guard(name):
    params = inspect.signature(getattr(bigraphpoly, name)).parameters
    assert params["budget"].default == Budget()
    assert "size_guard" not in params


def test_report_is_frozen():
    report = IrreducibilityReport("irreducible", "labeling")
    with pytest.raises(Exception):
        report.verdict = "reducible"


# ---------------------------------------------------------------------------
# Agreement with the public search and decode, pair by pair.

def reference_factor_graph(g, labeling):
    """factor_graph rebuilt from the public searches and decoders."""
    p = encode(g, labeling)
    if not p or len(tau_poly(p)) != len(g.v_vertices):
        return []
    if g.arity == 1:
        return [(decode(q), decode(r)) for q, r in factor_pairs(p)]
    return [(decode_directed(q), decode_directed(r)) for q, r in bit_disjoint_factor(p)]


def assert_same_pairs(got, want):
    """Same pairs in the same order, down to u order and labelings; equal
    structures have equal u and v tuples and equal slots."""
    assert len(got) == len(want)
    for pair, ref in zip(got, want):
        for h, w in zip(pair, ref):
            assert type(h) is type(w)
            assert h == w
            assert list(h.natural_labeling.items()) == list(w.natural_labeling.items())


def doubled(g):
    """Every u-vertex twice over, so the encoding has content 2."""
    us = [(u, k) for u in g.u_vertices for k in (0, 1)]
    if g.arity == 1:
        return Bigraph(us, g.v_vertices, [((u, k), v) for u, k in us for v in g.slots(u)[0]])
    arcs = [(v, (u, k)) for u, k in us for v in g.pre(u)]
    arcs += [((u, k), v) for u, k in us for v in g.post(u)]
    return DiBigraph(us, g.v_vertices, arcs)


def agreement_cases(rng, kind):
    make = random_bigraph if kind == "graph" else random_digraph
    for _ in range(40):
        g = make(rng, max_u=4, max_v=4)
        yield g, random_labeling(rng, g.v_vertices, 7)
    for _ in range(25):  # planted products, labeled so that bits may carry
        g1, g2 = make(rng, max_u=3, max_v=3), make(rng, max_u=3, max_v=3)
        prod = plain_product(g1, g2)
        yield prod, random_labeling(rng, prod.v_vertices, 8)
        yield prod, compact_labeling(prod)
    for _ in range(15):  # content > 1
        g = doubled(make(rng, max_u=3, max_v=4))
        yield g, random_labeling(rng, g.v_vertices, 6)


@pytest.mark.parametrize("kind", ["graph", "digraph"])
def test_factor_graph_agrees_with_the_public_search_and_decode(kind):
    rng = random.Random(909)
    split = 0
    for g, labeling in agreement_cases(rng, kind):
        got = factor_graph(g, labeling)
        assert_same_pairs(got, reference_factor_graph(g, labeling))
        split += bool(got)
        report = is_irreducible(g, labeling)
        assert report.verdict == ("reducible" if got else "irreducible")
        if got:
            assert report.witness == (labeling, got[0])
    assert split > 20


def test_irreducible_witness_is_the_first_pair():
    """Both modes try the compact labeling first, so when it splits their
    witness is factor_graph's first pair under it."""
    rng = random.Random(910)
    reducible = 0
    for make in (random_bigraph, random_digraph):
        for _ in range(30):
            g = make(rng, max_u=4, max_v=5)
            compact = compact_labeling(g)
            pairs = factor_graph(g, compact)
            report = is_irreducible(g)
            assert report.verdict == ("reducible" if pairs else "irreducible")
            if pairs:
                reducible += 1
                assert report.witness[0] == compact
                assert_same_pairs([report.witness[1]], pairs[:1])
                assert is_irreducible(g, exhaustive=True).witness == report.witness
    assert reducible > 10


def test_is_irreducible_decodes_only_its_witness():
    """8 u-vertices on 18 v-vertices, none isolated: x^a splits off for
    every a up to the lowest exponent, 63,590, so the search emits that many
    pairs, but the verdict decodes only the first."""
    rng = random.Random(15)
    us = [f"u{i}" for i in range(8)]
    vs = [f"v{j}" for j in range(18)]
    edges = {(u, rng.choice(vs)) for u in us} | {(rng.choice(us), v) for v in vs}
    edges |= {(u, v) for u in us for v in vs if rng.random() < 0.3}
    g = Bigraph(us, vs, edges)
    start = time.perf_counter()
    report = is_irreducible(g)
    assert time.perf_counter() - start < 3
    assert report.verdict == "reducible"
    lab, (gq, gr) = report.witness
    assert lab == compact_labeling(g)
    assert min(encode(g, lab).terms) == 63590
    assert encode(gq, gq.natural_labeling) * encode(gr, gr.natural_labeling) == encode(g, lab)


def test_budget_error_says_how_much_was_asked_for():
    g = decode(parse_poly1("x^5 + x^4"))
    with pytest.raises(BudgetExceededError) as caught:
        factor_graph(g, identity_labeling(g), Budget(max_steps=10))
    message = str(caught.value)
    assert "used up the budget of 10 steps in emitting the factors" in message
    asked = int(message.rsplit("(", 1)[1].split()[0])
    assert asked > 10
    report = is_irreducible(g, identity_labeling(g), budget=Budget(max_steps=10))
    assert (report.verdict, report.detail) == ("inconclusive", message)
