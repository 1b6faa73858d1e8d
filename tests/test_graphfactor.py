"""Graph factorization through the polynomial, and irreducibility reports."""

import inspect
import random
import time
from functools import reduce
from itertools import permutations

import pytest

import bigraphpoly
from bigraphpoly import (
    Bigraph,
    Budget,
    BudgetExceededError,
    DiBigraph,
    IrreducibilityReport,
    LabeledPetriNet,
    LabelingError,
    PetriNet,
    Poly1,
    bit_disjoint_factor,
    compact_labeling,
    core,
    decode,
    decode_directed,
    decode_net,
    decompose,
    encode,
    factor_graph,
    factor_pairs,
    identity_labeling,
    is_irreducible,
    is_isomorphic,
    mul,
    parse_poly1,
    plain_product,
    poly_product,
    tau_poly,
)
from bigraphpoly.graphfactor import _values_split, graph_factor_pairs
from bigraphpoly.polyfactor import _Meter

from helpers import (
    random_bigraph,
    random_canon_case,
    random_digraph,
    random_labeling,
    random_net,
    sweep_reference,
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


def test_sweep_of_ten_v_vertices_answers_at_the_default_budget():
    """The graph has 10! labelings but 45 distinct encodings, one for each
    pair of labels its two twin v-vertices take; the sweep searches each
    once and certifies that none splits."""
    us = [f"u{i}" for i in range(10)]
    vs = [f"v{j}" for j in range(10)]
    g = Bigraph(us, vs, [(f"u{j}", f"v{j}") for j in range(9)] + [("u8", "v9")])
    start = time.perf_counter()
    report = is_irreducible(g, exhaustive=True)
    assert time.perf_counter() - start < 1
    assert (report.verdict, report.scope) == ("irreducible", "compact-labelings")


def test_sweep_shares_one_allowance():
    """The labelings encode to 1 + 2x + x^3 and 1 + 2x^2 + x^3, neither of
    which splits, but p(1) = 4 and p(0) = 1 leave room for a split's values
    (4 = 2 * 2 with 2 > 1), so the sweep runs.  Listing the divisors of
    p(0) and p(1) takes 2 + 3 steps and the compact encoding's search 7.
    The sweep builds 4 states at 1 + 2 * 3 = 7 steps each (the child and
    its bound, one entry per distinct term of its parent in each) and
    searches the other encoding in 3, so 43 steps answer."""
    g = Bigraph(["a", "b", "c", "d"], ["p", "q"],
                [("b", "p"), ("c", "p"), ("d", "p"), ("d", "q")])
    alone = is_irreducible(g, {"p": 0, "q": 1}, budget=Budget(max_steps=7))
    assert alone.verdict == "irreducible"
    sweep = is_irreducible(g, exhaustive=True, budget=Budget(max_steps=42))
    assert sweep.verdict == "inconclusive"
    assert "budget of 42 steps" in sweep.detail
    sweep = is_irreducible(g, exhaustive=True, budget=Budget(max_steps=43))
    assert sweep.verdict == "irreducible"


def test_sweep_charges_each_state_it_builds():
    """The divisors of p(0) and p(1) are listed in 5 steps and the compact
    encoding is searched next, in 7; the walk then charges 7 steps per
    state, and running out names the sweep, not the factor search that ran
    before it."""
    g = Bigraph(["a", "b", "c", "d"], ["p", "q"],
                [("b", "p"), ("c", "p"), ("d", "p"), ("d", "q")])
    first = is_irreducible(g, exhaustive=True, budget=Budget(max_steps=12))
    assert first.detail == (
        "the sweep over the labelings of 2 v-vertices used up the budget of 12 steps"
        " in building states (19 asked for)"
    )
    second = is_irreducible(g, exhaustive=True, budget=Budget(max_steps=28))
    assert second.detail == (
        "the sweep over the labelings of 2 v-vertices used up the budget of 28 steps"
        " in building states (33 asked for)"
    )


def test_sweep_answers_at_once_when_no_split_has_the_values():
    """p(1) = |u| = 11 and p(0) = 1 under every labeling: a split q * r
    needs q(1) * r(1) = 11 with q(1) > q(0) >= 1 and r(1) > r(0) >= 1, and
    11 is prime, so no labeling splits the graph and no walk is needed.
    Listing the divisors of 1 and of 11 is charged to the sweep."""
    us = [f"u{i}" for i in range(11)]
    vs = [f"v{j}" for j in range(10)]
    edges = [(f"u{j}", f"v{j}") for j in range(10)] + [("u0", "v5"), ("u3", "v7"), ("u4", "v1")]
    g = Bigraph(us, vs, edges)
    start = time.perf_counter()
    report = is_irreducible(g, exhaustive=True)
    assert time.perf_counter() - start < 1
    assert (report.verdict, report.scope, report.witness) == (
        "irreducible", "compact-labelings", None)
    assert is_irreducible(g, exhaustive=True, budget=Budget(max_steps=6)).verdict == "irreducible"
    short = is_irreducible(g, exhaustive=True, budget=Budget(max_steps=5))
    assert short.detail == (
        "the sweep over the labelings of 10 v-vertices used up the budget of 5 steps"
        " in listing the divisors of 11 (6 asked for)"
    )


def test_the_values_rule_agrees_with_the_permutations_reference():
    """On random graphs with up to 6 v-vertices plus an isolated u-vertex,
    every graph whose p(1) and p(0) admit no split's values is one no
    labeling splits, and the sweep says so."""
    rng = random.Random(29)
    decided = 0
    for _ in range(120):
        h = random_bigraph(rng, 6, 6)
        g = Bigraph(list(h.u_vertices) + ["lone"], h.v_vertices,
                    [(u, v) for u in h.u_vertices for v in h.neighbors(u)])
        if not _values_split(encode(g, compact_labeling(g)), _Meter(Budget())):
            decided += 1
            assert sweep_reference(g) is None, g
            assert is_irreducible(g, exhaustive=True).verdict == "irreducible"
    assert decided >= 60


def test_sweep_matches_the_permutations_reference():
    """On random graphs with an isolated u-vertex and up to 6 v-vertices,
    all on edges, the sweep over distinct encodings gives the verdict of
    searching every labeling.  A witness labeling is a bijection onto
    0..|v|-1 in declared v order, and its pair multiplies back to the
    encoding under it.  With no or one v-vertex the encoding has degree at
    most 1, so no labeling splits it, whatever its content."""
    rng = random.Random(19)
    verdicts = set()
    for _ in range(120):
        us = [f"u{i}" for i in range(rng.randint(1, 4))]
        vs = [f"v{j}" for j in range(rng.randint(0, 6))]
        edges = {(rng.choice(us), v) for v in vs}
        edges |= {(u, v) for u in us for v in vs if rng.random() < 0.3}
        g = Bigraph(us + ["lone"], vs, edges)
        report = is_irreducible(g, exhaustive=True)
        want = sweep_reference(g)
        assert report.verdict == ("reducible" if want else "irreducible"), g
        verdicts.add((len(vs) > 1, report.verdict))
        if want:
            lab, (gq, gr) = report.witness
            assert list(lab) == vs and sorted(lab.values()) == list(range(len(vs)))
            assert encode(gq, gq.natural_labeling) * encode(gr, gr.natural_labeling) == encode(g, lab)
    assert verdicts == {(False, "irreducible"), (True, "irreducible"), (True, "reducible")}


def test_the_walk_meets_each_distinct_encoding_once():
    """The every mode of the walk behind the sweep and canonical_poly yields
    the compact encoding first and then each other encoding of a labeling
    by 0..|v|-1 once, each with a labeling that gives it, as the least
    mode's labelings do too.  The cases have twins, v-vertices in no slot
    and u-vertices with every slot empty."""
    rng = random.Random(1919)
    for _ in range(150):
        g = random_canon_case(rng, rng.choice(["graph", "digraph", "net"]), max_v=5)
        vs = list(g.v_vertices)
        every = list(core._encodings(g, _Meter(Budget()), "the walk", least=False))
        assert every[0] == (encode(g, compact_labeling(g)), compact_labeling(g))
        for p, lab in every:
            assert list(lab) == vs and sorted(lab.values()) == list(range(len(vs)))
            assert encode(g, lab) == p
        got = [p for p, _ in every]
        want = {encode(g, dict(zip(vs, perm))) for perm in permutations(range(len(vs)))}
        assert len(got) == len(set(got)) and set(got) == want
        for p, lab in core._encodings(g, _Meter(Budget()), "the walk", least=True):
            assert encode(g, lab) == p


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
    """With no isolated u-vertex one compact labeling answers, with no
    sweep, at 12 v-vertices."""
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

def reference_pairs(g, labeling):
    """graph_factor_pairs rebuilt from the public searches."""
    p = encode(g, labeling)
    if not p or len(tau_poly(p)) != len(g.v_vertices):
        return []
    return (factor_pairs if g.arity == 1 else bit_disjoint_factor)(p)


def reference_factor_graph(g, labeling):
    """factor_graph rebuilt from the public searches and decoders."""
    if g.arity == 1:
        dec = decode
    elif isinstance(g, PetriNet):
        dec = lambda p: decode_net(p).net  # noqa: E731
    else:
        dec = decode_directed
    return [(dec(q), dec(r)) for q, r in reference_pairs(g, labeling)]


def assert_same_pairs(got, want):
    """Same pairs in the same order, down to u order and labelings; equal
    structures have equal u and v tuples and equal slots."""
    assert len(got) == len(want)
    for pair, ref in zip(got, want):
        for h, w in zip(pair, ref):
            assert type(h) is type(w)
            assert h.u_vertices == w.u_vertices
            assert h == w
            assert list(identity_labeling(h).items()) == list(identity_labeling(w).items())


def doubled(g, empty=0):
    """Every u-vertex twice over, so the encoding of a graph or digraph has
    content 2; a net's idle unit stays single, so its coefficients pass 1
    with content 1, unless one empty event makes the content 2."""
    us = [(u, k) for u in g.u_vertices for k in (0, 1)]
    if isinstance(g, PetriNet):
        return PetriNet(g.conditions, us + [("empty", k) for k in range(empty)],
                        {(u, k): g.pre(u) for u, k in us},
                        {(u, k): g.post(u) for u, k in us})
    if g.arity == 1:
        return Bigraph(us, g.v_vertices, [((u, k), v) for u, k in us for v in g.slots(u)[0]])
    arcs = [(v, (u, k)) for u, k in us for v in g.pre(u)]
    arcs += [((u, k), v) for u, k in us for v in g.post(u)]
    return DiBigraph(us, g.v_vertices, arcs)


def agreement_cases(rng, kind):
    make = {
        "graph": random_bigraph,
        "digraph": random_digraph,
        "net": lambda rng, max_u, max_v: random_net(rng, max_u, max_v),
    }[kind]
    for _ in range(40):
        g = make(rng, max_u=4, max_v=4)
        yield g, random_labeling(rng, g.v_vertices, 7)
    for _ in range(25):  # planted (for nets pointed) products, labeled so that bits may carry
        g1, g2 = make(rng, max_u=3, max_v=3), make(rng, max_u=3, max_v=3)
        prod = plain_product(g1, g2)
        yield prod, random_labeling(rng, prod.v_vertices, 8)
        yield prod, compact_labeling(prod)
    for _ in range(15):  # content > 1, or for nets every event twice
        g = doubled(make(rng, max_u=3, max_v=4))
        yield g, random_labeling(rng, g.v_vertices, 6)
    if kind == "graph":
        return
    for _ in range(15):  # a monomial factor: every u-vertex consumes one v-vertex
        g = make(rng, max_u=3, max_v=3)
        vs = [*g.v_vertices, "m"]
        slots = {u: (g.pre(u) | {"m"}, g.post(u)) for u in g.u_vertices}
        if kind == "net":
            g = PetriNet(vs, g.u_vertices, {u: a for u, (a, _) in slots.items()},
                         {u: b for u, (_, b) in slots.items()})
        else:
            arcs = [(v, u) for u, (a, _) in slots.items() for v in a]
            g = DiBigraph(g.u_vertices, vs, arcs + [(u, v) for u, (_, b) in slots.items() for v in b])
        yield g, random_labeling(rng, vs, 7)
    if kind == "net":
        for _ in range(15):  # content 2: every event twice and one empty event
            g = doubled(plain_product(make(rng, 2, 3), make(rng, 2, 3)), empty=1)
            yield g, random_labeling(rng, g.v_vertices, 8)


@pytest.mark.parametrize("kind", ["graph", "digraph", "net"])
def test_factor_graph_agrees_with_the_public_search_and_decode(kind):
    """factor_graph returns the decoded pairs of the public search, in its
    order.  On a net that is every bit-disjoint pair: q(0) * r(0) = p(0) >= 1,
    so both halves keep a constant term and decode to nets."""
    rng = random.Random(909)
    split = 0
    for g, labeling in agreement_cases(rng, kind):
        got = factor_graph(g, labeling)
        assert_same_pairs(got, reference_factor_graph(g, labeling))
        pairs = graph_factor_pairs(g, labeling)
        assert pairs == reference_pairs(g, labeling)
        assert all(type(h) is g.poly for pair in pairs for h in pair)
        split += bool(got)
        report = is_irreducible(g, labeling)
        assert report.verdict == ("reducible" if got else "irreducible")
        if got:
            assert report.witness == (labeling, got[0])
    assert split > 20


def product_of(make, rng, count):
    """The product of count random structures made by make(rng): pointed
    for nets, so each factor keeps its idle event."""
    g = make(rng)
    for _ in range(count - 1):
        g = plain_product(g, make(rng))
    return g


def busy_digraph(rng):
    """A random digraph whose every u-vertex has an arc, so its encoding
    has no constant term."""
    g = random_digraph(rng, max_u=3, max_v=3)
    arcs = [(v, u) for u in g.u_vertices for v in g.pre(u)]
    arcs += [(u, v) for u in g.u_vertices for v in g.post(u)]
    arcs += [(u, rng.choice(g.v_vertices)) for u in g.u_vertices if not any(g.slots(u))]
    return DiBigraph(g.u_vertices, g.v_vertices, arcs)


def route_cases(rng):
    """(g, labeling) pairs of digraphs and nets for the arity-2 route."""
    small_net = lambda rng: random_net(rng, max_events=2, max_conditions=2)  # noqa: E731
    small_digraph = lambda rng: random_digraph(rng, max_u=2, max_v=2)  # noqa: E731
    for _ in range(12):
        for make in (small_net, small_digraph, busy_digraph):
            g = product_of(make, rng, rng.randint(1, 4))
            yield g, random_labeling(rng, g.v_vertices, 2 * len(g.v_vertices))
            yield g, compact_labeling(g)
            # Labels spread past 256: packed through bytes, read from labels.
            yield g, dict(zip(g.v_vertices, rng.sample(range(5000), len(g.v_vertices))))
    for _ in range(6):  # content 2
        net = doubled(product_of(small_net, rng, 2), empty=1)
        yield net, random_labeling(rng, net.conditions, 9)
        g = doubled(product_of(small_digraph, rng, 2))
        yield g, random_labeling(rng, g.v_vertices, 9)
    net = product_of(small_net, rng, 3)  # one condition no event touches
    yield PetriNet([*net.conditions, "lone"], net.events,
                   {e: net.pre(e) for e in net.events},
                   {e: net.post(e) for e in net.events}), None
    yield PetriNet([], ["a", "b", "c"]), {}  # no conditions, content 4


def outcome(call):
    """call's answer, or the text of the budget error it raises."""
    try:
        return call()
    except BudgetExceededError as e:
        return str(e)


def test_the_graph_route_answers_as_the_polynomial_route():
    """decompose, factor_graph and graph_factor_pairs on digraphs and nets
    give, in order, the pairs that bit_disjoint_factor finds for the
    encoding, decoded by decode, or none when a v-vertex meets no arc; and
    under small budgets they run out with the same text."""
    rng = random.Random(4401)
    split = checked = 0
    for g, labeling in route_cases(rng):
        if labeling is None:
            labeling = compact_labeling(g)
        p = encode(g, labeling)
        covered = len(tau_poly(p)) == len(g.v_vertices)
        want = bit_disjoint_factor(p) if covered else []
        assert graph_factor_pairs(g, labeling) == want
        cls = type(g)
        halves = [(core.decode(q, cls), core.decode(r, cls)) for q, r in want]
        assert_same_pairs(factor_graph(g, labeling), halves)
        if cls is PetriNet:
            nets = [tuple(LabeledPetriNet(h, h.natural_labeling) for h in pair)
                    for pair in halves]
            got = decompose(g, labeling)
            assert got == nets
            assert [[list(h.labeling.items()) for h in pair] for pair in got] == [
                [list(h.labeling.items()) for h in pair] for pair in nets]
        split += bool(want)
        if not covered:
            continue
        for steps in (0, 2, 7, 20, 60):
            budget = Budget(steps)
            expected = outcome(lambda: bit_disjoint_factor(p, budget))
            calls = [graph_factor_pairs, factor_graph] + [decompose] * (cls is PetriNet)
            for call in calls:
                got = outcome(lambda: call(g, labeling, budget))
                if isinstance(expected, str):
                    assert got == expected, (call.__name__, steps)
                    checked += 1
                else:
                    assert not isinstance(got, str), (call.__name__, steps)
    assert split > 40 and checked > 100


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
    """is_irreducible reports the search's message as it is; x^5 + x^4 is
    answered from its fixed witness, so that check takes an input with a
    constant term."""
    g = decode(parse_poly1("x^5 + x^4"))
    with pytest.raises(BudgetExceededError) as caught:
        factor_graph(g, identity_labeling(g), Budget(max_steps=10))
    message = str(caught.value)
    assert "used up the budget of 10 steps in emitting the factors" in message
    asked = int(message.rsplit("(", 1)[1].split()[0])
    assert asked > 10
    report = is_irreducible(g, identity_labeling(g), budget=Budget(max_steps=10))
    assert report.verdict == "reducible"
    h = decode(parse_poly1("x^5 + x^4 + x + 1"))
    with pytest.raises(BudgetExceededError) as caught:
        factor_graph(h, identity_labeling(h), Budget(max_steps=10))
    report = is_irreducible(h, identity_labeling(h), budget=Budget(max_steps=10))
    assert (report.verdict, report.detail) == ("inconclusive", str(caught.value))


def one_plus_x(n):
    """(1 + x)^n."""
    p = parse_poly1("1")
    for _ in range(n):
        p = p * parse_poly1("x + 1")
    return p


def test_no_constant_term_answers_from_the_fixed_witness():
    """Every u-vertex of the decoding of x * (1 + x)^14 has a neighbour, so
    p(0) = 0 and factor_graph's first pair is (x, p / x).  Both modes
    answer from it on the 16,384 u-vertices, at once and inside 10^4
    steps, where the coefficient search asks for more."""
    x = parse_poly1("x")
    g = decode(x * one_plus_x(14))
    with pytest.raises(BudgetExceededError):
        factor_graph(g, compact_labeling(g), Budget(max_steps=10**4))
    for exhaustive in (False, True):
        start = time.perf_counter()
        report = is_irreducible(g, exhaustive=exhaustive, budget=Budget(max_steps=10**4))
        assert time.perf_counter() - start < 0.5
        assert report.verdict == "reducible"
        lab, (q, r) = report.witness
        assert lab == compact_labeling(g)
        assert encode(q, q.natural_labeling) == x
        assert x * encode(r, r.natural_labeling) == encode(g, lab)


def test_the_fixed_witness_is_the_searchs_first_pair():
    """On x * (1 + x)^12, where the search finishes, the witness of both
    modes is factor_graph's first pair: (x, (1 + x)^12) under the compact
    labeling."""
    x = parse_poly1("x")
    g = decode(x * one_plus_x(12))
    compact = compact_labeling(g)
    first = factor_graph(g, compact)[0]
    assert [encode(h, h.natural_labeling) for h in first] == [x, one_plus_x(12)]
    for exhaustive in (False, True):
        report = is_irreducible(g, exhaustive=exhaustive)
        assert report.witness[0] == compact
        assert_same_pairs([report.witness[1]], [first])


def test_net_halves_carry_their_natural_labeling():
    """A net's halves are decoded nets, from factor_graph and in
    is_irreducible's witness alike: each natural labeling is the half's
    identity labeling, and the halves encoded under it multiply back to
    the net's encoding."""
    rng = random.Random(909)
    split = 0
    for g, labeling in agreement_cases(rng, "net"):
        pairs = factor_graph(g, labeling)
        report = is_irreducible(g, labeling)
        if report.witness is not None:
            pairs.append(report.witness[1])
        for pair in pairs:
            assert all(half.natural_labeling == identity_labeling(half) for half in pair)
            q, r = (encode(half, half.natural_labeling) for half in pair)
            assert mul(q, r) == encode(g, labeling)
        split += bool(pairs)
    assert split > 20


def test_irreducibility_reports_hash_as_they_compare():
    """The witness holds a labeling dict and takes no part in the hash:
    equal reports hash equal and a set keeps one of them."""
    g = decode(parse_poly1("x^3 + x^2"))
    a, copy = is_irreducible(g), is_irreducible(g)
    assert a.verdict == "reducible" and a.witness is not None
    assert copy == a and hash(copy) == hash(a)
    assert len({a, copy}) == 1


@pytest.mark.parametrize("kind", ["net", "digraph"])
def test_a_label_too_large_to_encode_still_splits_on_structure_routes(kind):
    """A label of 2**70 overflows the byte buffer an encoding's slots are
    packed into, so encode raises.  The bit-disjoint search works on the
    ranks of the labels, so decompose, factor_graph and is_irreducible
    still split the 2-fold chain c0 -> c1, c2 -> c3, with 2**70 a v id of
    the second half; graph_factor_pairs, which returns the halves'
    encodings under the labeling, raises encode's LabelingError with
    encode's text."""
    if kind == "net":
        one = [PetriNet([f"c{2 * i}", f"c{2 * i + 1}"], ["e"], pre={"e": [f"c{2 * i}"]},
                        post={"e": [f"c{2 * i + 1}"]}) for i in range(2)]
        g = PetriNet(["c0", "c1", "c2", "c3"], ["e0", "e1", "e01"],
                     pre={"e0": ["c0"], "e1": ["c2"], "e01": ["c0", "c2"]},
                     post={"e0": ["c1"], "e1": ["c3"], "e01": ["c1", "c3"]})
        word = "condition 'c3'"
    else:
        one = [DiBigraph(["u", "w"], [f"c{2 * i}", f"c{2 * i + 1}"],
                         [(f"c{2 * i}", "u"), ("u", f"c{2 * i + 1}")]) for i in range(2)]
        g = DiBigraph(["uu", "uw", "wu", "ww"], ["c0", "c1", "c2", "c3"],
                      [("c0", "uu"), ("c2", "uu"), ("uu", "c1"), ("uu", "c3"),
                       ("c0", "uw"), ("uw", "c1"), ("c2", "wu"), ("wu", "c3")])
        word = "v-part id 'c3'"
    labeling = {"c0": 0, "c1": 1, "c2": 2, "c3": 2**70}
    text = f"label of {word} is too large to encode: a 22-digit number"
    with pytest.raises(LabelingError) as encoded:
        encode(g, labeling)
    assert str(encoded.value) == text
    pairs = factor_graph(g, labeling)
    assert [[h.v_vertices for h in pair] for pair in pairs] == [[(0, 1), (2, 2**70)]]
    assert all(is_isomorphic(h, half) for h, half in zip(pairs[0], one))
    report = is_irreducible(g, labeling)
    assert report.verdict == "reducible" and report.witness == (labeling, pairs[0])
    if kind == "net":
        (q, r), = decompose(g, labeling)
        assert (q.net, r.net) == pairs[0] and r.labeling == {2: 2, 2**70: 2**70}
    with pytest.raises(LabelingError) as raised:
        graph_factor_pairs(g, labeling)
    assert str(raised.value) == text


def plain_renamed(h, names):
    """A decoded half as plain data, with each v id t renamed names[t]:
    its type, its v part and each u-vertex with its slots, in u order."""
    def slots(s):
        return tuple(frozenset(map(names.__getitem__, part)) for part in s)

    return (type(h), tuple(map(names.__getitem__, h.v_vertices)),
            [((slots(u[0]), u[1]), slots(h.slots(u))) for u in h.u_vertices])


def widened(p, names):
    """p with each exponent's bit t moved to bit names[t]."""
    def move(e):
        return sum(1 << names[t] for t in range(e.bit_length()) if e >> t & 1)

    return type(p)({(move(x), move(y)): c for (x, y), c in p.terms.items()})


def charge_log(monkeypatch):
    """A list to which every later _Meter.charge appends (steps, phase)."""
    log = []
    real = _Meter.charge

    def charge(self, steps, phase):
        log.append((steps, phase))
        return real(self, steps, phase)

    monkeypatch.setattr(_Meter, "charge", charge)
    return log


def test_labels_only_name_the_bits_of_a_split(monkeypatch):
    """On seeded products of small random nets and digraphs, some with
    content 2, decompose, factor_graph and is_irreducible under random
    labels below 10**6, and under the same labels with the top one made
    2**70, give the answers under the ranks of the labels with every v id
    t renamed the t-th least label; graph_factor_pairs under labels below
    10**6 gives the rank pairs with bit t widened to the t-th label.
    Every route charges the same steps in the same phases either way."""
    rng = random.Random(47)
    log = charge_log(monkeypatch)
    split = 0
    for case in range(40):
        make = random_net if case % 2 else random_digraph
        g = reduce(plain_product, [make(rng, 2, 3) for _ in range(rng.randint(2, 3))])
        if case % 4 < 2:
            g = doubled(g, empty=1)
        labels = rng.sample(range(10**6), len(g.v_vertices))
        wide = [*sorted(labels)[:-1], 2**70]
        ranks = dict(zip(g.v_vertices, map(sorted(labels).index, labels)))
        lows = dict(zip(g.v_vertices, labels))
        highs = {v: wide[t] for v, t in ranks.items()}
        for labeling in (lows, highs):
            names = sorted(labeling.values())
            runs = []
            for lab in (ranks, labeling):
                log.clear()
                pairs = factor_graph(g, lab)
                report = is_irreducible(g, lab)
                nets = decompose(g, lab) if make is random_net else []
                runs.append((pairs, report, nets, list(log)))
            (pairs, report, nets, charged), (got, got_report, got_nets, got_charged) = runs
            assert got_charged == charged
            assert [[plain_renamed(h, names) for h in pair] for pair in pairs] == [
                [plain_renamed(h, range(2**71)) for h in pair] for pair in got]
            assert got_report.verdict == report.verdict
            if report.witness:
                assert [plain_renamed(h, names) for h in report.witness[1]] == [
                    plain_renamed(h, range(2**71)) for h in got_report.witness[1]]
            if make is random_net:
                assert [[half.net for half in pair] for pair in got_nets] == [
                    list(pair) for pair in got]
            split += bool(pairs)
        log.clear()
        pairs = graph_factor_pairs(g, ranks)
        charged = list(log)
        log.clear()
        assert graph_factor_pairs(g, lows) == [
            tuple(widened(h, sorted(labels)) for h in pair) for pair in pairs]
        assert log == charged
    assert split > 40
