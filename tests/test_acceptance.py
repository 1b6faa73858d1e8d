"""End-to-end gate, one summary line per numbered criterion.

Each criterion prints exactly one PASS or FAIL line on the real stdout so
the result survives output capturing.  A criterion fails on any wrong
value and also when it blows its wall-clock limit.
"""

import random
import time
from contextlib import contextmanager

from bigraphpoly import (
    Bigraph,
    DiBigraph,
    PetriNet,
    Poly1,
    Poly2,
    add,
    decode,
    decode_directed,
    decompose,
    direct_product,
    direct_product_directed,
    direct_sum,
    direct_sum_directed,
    divide_exact,
    encode,
    encode_directed,
    encode_net,
    factor_graph,
    factor_pairs,
    is_isomorphic,
    is_isomorphic_directed,
    mul,
    net_isomorphic,
    net_product,
    parse_poly,
    parse_poly1,
    plain_coproduct,
    plain_coproduct_directed,
    plain_product,
    plain_product_directed,
    poly_key,
    poly_product,
    poly_product_directed,
    poly_sum,
    poly_sum_directed,
    render,
    tau,
    tau_poly,
)

from helpers import (
    dense_key,
    enumerate_dense,
    factor_pair_table,
    poly_on_bits,
    random_bigraph,
    random_digraph,
    random_labeling,
    random_net,
    random_poly1,
)


@contextmanager
def criterion(capsys, number, label, limit):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"CRITERION {number} {label}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    status = "PASS" if elapsed < limit else "FAIL"
    with capsys.disabled():
        print(f"CRITERION {number} {label}: {status} "
              f"({elapsed:.2f}s, limit {limit:.0f}s)")
    assert elapsed < limit, f"{label}: {elapsed:.2f}s over the {limit}s limit"


# ---------------------------------------------------------------------------
# 1. Worked examples, byte for byte.

def test_criterion_1_golden_examples(capsys):
    with criterion(capsys, 1, "golden examples", 1.0):
        hub = Bigraph(
            ["u1", "u2", "u3"],
            ["v1", "v2", "v3"],
            [("u1", "v1"), ("u1", "v2"), ("u1", "v3"),
             ("u3", "v1"), ("u3", "v3")],
        )
        assert render(encode(hub, {"v1": 0, "v2": 1, "v3": 2})) == "x^7 + x^5 + 1"

        p22 = parse_poly1("2*x^5 + x^3 + x^2 + 2")
        g = decode(p22)
        assert set(g.v_vertices) == {0, 1, 2}
        assert len(g.u_vertices) == 6
        assert len(g.edges) == 7
        assert encode(g, g.natural_labeling) == p22

        piece1 = Bigraph(["u11", "u12"], ["v11", "v12"],
                         [("u11", "v11"), ("u11", "v12")])
        piece2 = Bigraph(["u21", "u22"], ["v21", "v22"],
                         [("u21", "v21"), ("u22", "v21"), ("u22", "v22")])
        l1 = {"v11": 0, "v12": 1}
        far = poly_product(piece1, l1, piece2, {"v21": 2, "v22": 3})
        assert render(encode(far, far.natural_labeling)) == "x^15 + x^12 + x^7 + x^4"
        near = poly_product(piece1, l1, piece2, {"v21": 1, "v22": 2})
        assert render(encode(near, near.natural_labeling)) == "x^9 + x^6 + x^5 + x^2"
        assert render(mul(parse_poly1("x^3 + 1"), parse_poly1("x^12 + x^4"))) == \
            "x^15 + x^12 + x^7 + x^4"
        assert render(mul(parse_poly1("x^3 + 1"), parse_poly1("x^6 + x^2"))) == \
            "x^9 + x^6 + x^5 + x^2"

        assert render(add(parse_poly1("x^3 + x^2"), parse_poly1("x^6 + x^2"))) == \
            "x^6 + x^3 + 2*x^2"

        relay = DiBigraph(
            ["u1", "u2"],
            ["v1", "v2"],
            [("u1", "v1"), ("u1", "v2"), ("v1", "u2"), ("v2", "u2")],
        )
        assert render(encode_directed(relay, {"v1": 0, "v2": 1})) == "x^3 + y^3"

        p42 = parse_poly("x^5*y^3 + 2*x^2 + y + 2")
        d = decode_directed(p42)
        assert set(d.v_vertices) == {0, 1, 2}
        # The coefficient sum fixes the u-count at six; any other count
        # would break the exact re-encoding asserted right below.
        assert len(d.u_vertices) == 6
        assert len(d.arcs) == 7
        assert encode_directed(d, d.natural_labeling) == p42

        feeder = DiBigraph(
            ["u11", "u12"],
            ["v11", "v12"],
            [("u11", "v11"), ("u11", "v12"), ("v12", "u12")],
        )
        assert render(encode_directed(feeder, l1)) == "x^2 + y^3"
        chain = DiBigraph(
            ["u21", "u22"],
            ["v21", "v22"],
            [("v21", "u21"), ("v22", "u22"), ("u22", "v21")],
        )
        dfar = poly_product_directed(feeder, l1, chain, {"v21": 2, "v22": 3})
        pfar = encode_directed(dfar, dfar.natural_labeling)
        assert pfar == parse_poly("x^4*y^3 + x^8*y^7 + x^6 + x^10*y^4")
        assert render(pfar) == "x^10*y^4 + x^8*y^7 + x^6 + x^4*y^3"
        dnear = poly_product_directed(feeder, l1, chain, {"v21": 1, "v22": 2})
        pnear = encode_directed(dnear, dnear.natural_labeling)
        assert pnear == parse_poly("x^2*y^3 + x^4*y^5 + x^4 + x^6*y^2")
        assert render(pnear) == "x^6*y^2 + x^4*y^5 + x^4 + x^2*y^3"

        assert render(add(parse_poly("y^3 + x^2"), parse_poly("x^2 + x^4*y^2"))) == \
            "x^4*y^2 + 2*x^2 + y^3"

        cubic = parse_poly1("x^3 + 2*x^2 + 2*x + 1")
        pairs = factor_pairs(cubic)
        assert [(render(q), render(r)) for q, r in pairs] == \
            [("x + 1", "x^2 + x + 1")]
        gc = decode(cubic)
        gpairs = factor_graph(gc, gc.natural_labeling)
        assert len(gpairs) == 1
        gq, gr = gpairs[0]
        assert render(encode(gq, gq.natural_labeling)) == "x + 1"
        assert render(encode(gr, gr.natural_labeling)) == "x^2 + x + 1"

        branching = PetriNet(
            ["b0", "b1"],
            ["a", "b", "c"],
            pre={"a": ["b0"], "b": ["b0"]},
            post={"b": ["b1"], "c": ["b1"]},
        )
        blabels = {"b0": 0, "b1": 1}
        pnet = encode_net(branching, blabels)
        assert pnet == parse_poly("x + x*y^2 + y^2 + 1")
        assert render(pnet) == "x*y^2 + x + y^2 + 1"
        npairs = decompose(branching, blabels)
        assert npairs
        n1, n2 = npairs[0]
        e1 = encode_net(n1.net, n1.labeling)
        e2 = encode_net(n2.net, n2.labeling)
        assert {render(e1), render(e2)} == {"x + 1", "y^2 + 1"}
        assert mul(e1, e2) == pnet
        assert net_isomorphic(net_product(n1.net, n2.net), branching) is not None


# ---------------------------------------------------------------------------
# 2. Decode reverses encode up to isomorphism.

def test_criterion_2_round_trip_isomorphism(capsys):
    with criterion(capsys, 2, "round-trip isomorphism", 60.0):
        rng = random.Random(20260802)
        for _ in range(200):
            g = random_bigraph(rng)
            labels = random_labeling(rng, g.v_vertices)
            assert is_isomorphic(decode(encode(g, labels)), g) is not None
        for _ in range(200):
            g = random_digraph(rng)
            labels = random_labeling(rng, g.v_vertices)
            back = decode_directed(encode_directed(g, labels))
            assert is_isomorphic_directed(back, g) is not None


# ---------------------------------------------------------------------------
# 3. Bit-support laws: integers both ways, polynomials forward.

def test_criterion_3_bit_support_laws(capsys):
    with criterion(capsys, 3, "bit-support laws", 60.0):
        rng = random.Random(20260803)
        for _ in range(10**4):
            i1 = rng.randint(0, 10**4)
            i2 = rng.randint(0, 10**4)
            disjoint = not (tau(i1) & tau(i2))
            sum_splits = tau(i1 + i2) == (tau(i1) | tau(i2))
            assert disjoint == sum_splits, (i1, i2)
        for k in range(500):
            pool = list(range(10))
            rng.shuffle(pool)
            cut = rng.randint(1, 9)
            p1 = poly_on_bits(rng, pool[:cut], arity=1 + k % 2)
            p2 = poly_on_bits(rng, pool[cut:], arity=1 + k % 2)
            assert not (tau_poly(p1) & tau_poly(p2))
            assert tau_poly(mul(p1, p2)) == tau_poly(p1) | tau_poly(p2)


# ---------------------------------------------------------------------------
# 4. Polynomial route vs direct construction, plus the disjoint-image
#    collapse to the plain unlabeled constructions.

def test_criterion_4_route_equivalence(capsys):
    with criterion(capsys, 4, "route equivalence", 120.0):
        rng = random.Random(20260804)
        undirected = (random_bigraph, encode, is_isomorphic)
        directed = (random_digraph, encode_directed, is_isomorphic_directed)
        ops = [
            (undirected, poly_product, direct_product, plain_product, mul),
            (undirected, poly_sum, direct_sum, plain_coproduct, add),
            (directed, poly_product_directed, direct_product_directed,
             plain_product_directed, mul),
            (directed, poly_sum_directed, direct_sum_directed,
             plain_coproduct_directed, add),
        ]
        for (make, enc, iso), poly_op, direct_op, plain_op, poly_law in ops:
            for i in range(100):
                g1 = make(rng, 4, 4)
                g2 = make(rng, 4, 4)
                if i % 2:
                    l1 = random_labeling(rng, g1.v_vertices, 7)
                    l2 = random_labeling(rng, g2.v_vertices, 7)
                else:
                    l1 = random_labeling(rng, g1.v_vertices, 5)
                    l2 = {v: 6 + lab for v, lab
                          in random_labeling(rng, g2.v_vertices, 5).items()}
                routed = poly_op(g1, l1, g2, l2)
                assert enc(routed, routed.natural_labeling) == \
                    poly_law(enc(g1, l1), enc(g2, l2))
                assert iso(routed, direct_op(g1, l1, g2, l2)) is not None
                if i % 2 == 0:
                    assert iso(routed, plain_op(g1, g2)) is not None

        # Nets, in the same two label regimes.  Products are pointed on
        # every route; direct and plain sums share one idle event, so their
        # encoding is one unit short of the sum of the encodings.
        rng = random.Random(20260814)
        for i in range(100):
            g1 = random_net(rng, 4, 4)
            g2 = random_net(rng, 4, 4)
            if i % 2:
                l1 = random_labeling(rng, g1.v_vertices, 7)
                l2 = random_labeling(rng, g2.v_vertices, 7)
            else:
                l1 = random_labeling(rng, g1.v_vertices, 5)
                l2 = {v: 6 + lab for v, lab
                      in random_labeling(rng, g2.v_vertices, 5).items()}
            e1, e2 = encode_net(g1, l1), encode_net(g2, l2)
            routed = poly_product(g1, l1, g2, l2)
            assert encode_net(routed, routed.natural_labeling) == mul(e1, e2)
            direct = direct_product(g1, l1, g2, l2)
            assert net_isomorphic(routed, direct) is not None
            assert encode_net(direct, direct.natural_labeling) == mul(e1, e2)
            summed = direct_sum(g1, l1, g2, l2)
            assert add(encode_net(summed, summed.natural_labeling), Poly2({(0, 0): 1})) \
                == add(e1, e2)
            if i % 2 == 0:
                assert net_isomorphic(routed, net_product(g1, g2)) is not None
                assert net_isomorphic(summed, plain_coproduct(g1, g2)) is not None


# ---------------------------------------------------------------------------
# 5. Division round trips and the exhaustive factoring oracle.

def test_criterion_5_division_and_factoring_oracles(capsys):
    with criterion(capsys, 5, "division and factoring oracles", 600.0):
        rng = random.Random(20260805)
        for _ in range(500):
            p = random_poly1(rng, max_deg=4, max_coeff=5)
            q = random_poly1(rng, max_deg=4, max_coeff=5)
            assert divide_exact(mul(p, q), q) == p

        table = factor_pair_table(max_deg=4, max_sum=12)
        checked = 0
        for coeffs in enumerate_dense(4, 12):
            if not any(coeffs):
                continue
            p = Poly1({i: c for i, c in enumerate(coeffs) if c})
            got = {
                tuple(sorted((poly_key(q), poly_key(r))))
                for q, r in factor_pairs(p)
            }
            expected = table.get(dense_key(coeffs), set())
            assert got == expected, coeffs
            assert (not got) == (not expected)
            checked += 1
        assert checked == 6187

        assert factor_pairs(parse_poly1("x^3 + 1")) == []


# ---------------------------------------------------------------------------
# 6. Net products decompose back and encoding is multiplicative.

def test_criterion_6_net_decomposition_soundness(capsys):
    with criterion(capsys, 6, "net decomposition soundness", 300.0):
        rng = random.Random(20260806)
        for _ in range(100):
            n1 = random_net(rng)
            n2 = random_net(rng)
            l1 = random_labeling(rng, n1.conditions, 4)
            l2 = {b: 5 + lab for b, lab
                  in random_labeling(rng, n2.conditions, 4).items()}
            prod = net_product(n1, n2)
            prod_labels = {(0, b): l1[b] for b in n1.conditions}
            prod_labels.update({(1, b): l2[b] for b in n2.conditions})
            assert encode_net(prod, prod_labels) == mul(
                encode_net(n1, l1), encode_net(n2, l2)
            )
            pairs = decompose(prod, prod_labels)
            assert pairs
            a, b = pairs[0]
            rebuilt = net_product(a.net, b.net)
            assert net_isomorphic(rebuilt, prod) is not None
