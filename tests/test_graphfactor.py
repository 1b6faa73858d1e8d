"""Graph factorization through the polynomial, and irreducibility reports."""

import time

import pytest

from bigraphpoly import (
    Bigraph,
    Budget,
    BudgetExceededError,
    DiBigraph,
    IrreducibilityReport,
    Poly1,
    SizeGuardError,
    bit_disjoint_factor,
    compact_labeling,
    decode,
    encode,
    factor_graph,
    identity_labeling,
    is_irreducible,
    is_isomorphic,
    parse_poly1,
    plain_product,
    poly_product,
)

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
    g = Bigraph([], [f"v{i}" for i in range(9)], [])
    with pytest.raises(SizeGuardError):
        is_irreducible(g, exhaustive=True)


def test_report_is_frozen():
    report = IrreducibilityReport("irreducible", "labeling")
    with pytest.raises(Exception):
        report.verdict = "reducible"
