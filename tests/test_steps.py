"""Step counts and answers of the bit-disjoint search, of the coefficient
search and of the isomorphism search pinned on seeded corpora, those of the
labeling walk pinned on symmetric inputs, the bit-disjoint search's
points against one seeded Random stream, and decompose run by several
threads at once.

The pinned figures are the least Budget under which each call answers and
a digest of its pairs.  They fix the bit-disjoint search's charges and,
with its seeded points, its draws, and the charges of the coefficient
search's walk: one walk per q(0) shared by every divisor of p(1), with the
q(2) | p(2) test on dense supports.  A change to any of them moves a figure.
The coefficient search's charges are also pinned one by one, with the
text each would raise, so a charge moved, merged or split shows even when
the least budgets hold.
"""

import hashlib
import random
import sys
import threading
from collections import Counter
from math import comb

import pytest

from bigraphpoly import (
    Bigraph,
    Budget,
    BudgetExceededError,
    DiBigraph,
    PetriNet,
    Poly1,
    bit_disjoint_factor,
    compact_labeling,
    decompose,
    encode,
    factor_pairs,
    is_isomorphic,
    net_product,
    poly_key,
    polyfactor,
    render,
)
from bigraphpoly.core import _encodings
from bigraphpoly.polyfactor import _Meter

from helpers import (
    bit_disjoint_reference,
    cycles,
    from_slots,
    random_digraph,
    random_labeling,
    random_net,
    random_slots,
    record_points,
    relabeled,
)


def chain(k):
    """The k-fold pointed product of the prime net c0 -> e -> c1."""
    prime = PetriNet(["c0", "c1"], ["e"], pre={"e": ["c0"]}, post={"e": ["c1"]})
    net = prime
    for _ in range(k - 1):
        net = net_product(net, prime)
    return net


def repeated(net, copies, empty):
    """Every event copies times over plus empty events touching nothing; with
    copies = empty + 1 the encoding has content copies."""
    evs = [(e, k) for e in net.events for k in range(copies)]
    pre = {(e, k): net.pre(e) for e, k in evs}
    post = {(e, k): net.post(e) for e, k in evs}
    return PetriNet(net.conditions, evs + [("idle", k) for k in range(empty)], pre, post)


def net_cases():
    """(name, net, labeling) for decompose."""
    cases = [(f"chain{k}", chain(k), None) for k in (4, 5, 6)]
    rng = random.Random(1717)
    primes = 0
    for _ in range(1000):
        net = random_net(rng, max_events=4, max_conditions=5)
        labeling = random_labeling(rng, net.conditions, 8)
        if len(net.conditions) >= 3 and not decompose(net, labeling):
            primes += 1
            cases.append((f"prime{primes}", net, labeling))
            if primes == 4:
                break
    else:
        raise AssertionError(f"{primes} prime nets in 1,000 seeded tries, not 4")
    product = net_product(random_net(rng, 3, 3), random_net(rng, 3, 3))
    cases.append(("content3", repeated(product, 3, 2), None))
    cases.append(("second_point", second_point_net(), None))
    return [
        (name, net, compact_labeling(net) if lab is None else lab)
        for name, net, lab in cases
    ]


def monomial_digraph():
    """A random digraph whose every u-vertex consumes the v-vertex m, so its
    encoding has the monomial factor x**(2**label(m))."""
    g = random_digraph(random.Random(1718), max_u=4, max_v=4)
    arcs = [(v, u) for u in g.u_vertices for v in g.pre(u)]
    arcs += [(u, v) for u in g.u_vertices for v in g.post(u)]
    arcs += [("m", u) for u in g.u_vertices]
    return DiBigraph(g.u_vertices, [*g.v_vertices, "m"], arcs)


def points_of(p):
    """The seeded points bit_disjoint_factor draws for p, in order."""
    with pytest.MonkeyPatch.context() as patch:
        drawn = record_points(patch)
        bit_disjoint_factor(p)
    return drawn


def second_point_net():
    """The first pointed product of two random nets, in a seeded scan, on
    whose encoding the point (1, ..., 1) misses a dependency, so that the
    search draws a seeded point."""
    rng = random.Random(1719)
    for _ in range(1000):
        net = net_product(random_net(rng, 3, 3), random_net(rng, 3, 3))
        if points_of(encode(net, compact_labeling(net))):
            return net
    raise AssertionError("no net in 1,000 seeded tries needs a seeded point")


def digest(pairs):
    text = "\n".join(f"({render(q)}) * ({render(r)})" for q, r in pairs)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def least_budget_is(call, steps):
    """call(Budget(steps)) answers and call(Budget(steps - 1)) runs out, so
    steps is the least passing allowance; returns the answer."""
    try:
        call(Budget(steps - 1))
    except BudgetExceededError:
        pass
    else:
        raise AssertionError(f"answers within {steps - 1} steps")
    return call(Budget(steps))


# name -> (least budget, number of pairs, digest of the pairs).  The digests
# were measured before the search emitted its halves as sorted terms and
# drew its points once per process; the budgets fell, digests unchanged,
# when a variable with an earlier variable's holder set (not every term)
# began to join its class untested.  They held when the first point became
# (1, ..., 1), and second_point became a net on which that point misses a
# dependency, and again when each search began to seed its own points.
# decompose and bit_disjoint_factor on the net's encoding charge the same
# steps, as decompose's encoding and coverage check are free.
PINNED = {
    "chain4": (138, 7, "65cd043b05d7"),
    "chain5": (392, 15, "9089b68ab3f9"),
    "chain6": (1107, 31, "64e831618479"),
    "prime1": (7, 0, "e3b0c44298fc"),
    "prime2": (5, 0, "e3b0c44298fc"),
    "prime3": (14, 0, "e3b0c44298fc"),
    "prime4": (2, 0, "e3b0c44298fc"),
    "content3": (25, 3, "a0fa371afb77"),
    "digraph": (15, 1, "ced8123f4b89"),
    "second_point": (123, 1, "0ac14726dd04"),
}


def test_least_budgets_and_answers_are_pinned():
    seen = {}
    for name, net, labeling in net_cases():
        p = encode(net, labeling)
        pairs = least_budget_is(lambda b: bit_disjoint_factor(p, b), PINNED[name][0])
        halves = least_budget_is(lambda b: decompose(net, labeling, b), PINNED[name][0])
        assert [tuple(encode(h.net, h.labeling) for h in pair) for pair in halves] == pairs
        seen[name] = (PINNED[name][0], len(pairs), digest(pairs))
    g = monomial_digraph()
    p = encode(g, compact_labeling(g))
    pairs = least_budget_is(lambda b: bit_disjoint_factor(p, b), PINNED["digraph"][0])
    monomial = {(1 << len(g.v_vertices) - 1, 0)}
    assert any(h.terms.keys() == monomial for pair in pairs for h in pair)
    seen["digraph"] = (PINNED["digraph"][0], len(pairs), digest(pairs))
    assert seen == PINNED
    assert sum(pins[1] for pins in PINNED.values()) > 50


def test_a_first_point_that_misses_answers_after_one_draw():
    """On the second_point net the point (1, ..., 1) misses a dependency:
    the search draws one seeded point and answers as the brute-force
    reference does."""
    net = second_point_net()
    p = encode(net, compact_labeling(net))
    assert len(points_of(p)) == 1
    got = [tuple(sorted((poly_key(a), poly_key(b)))) for a, b in bit_disjoint_factor(p)]
    assert got == sorted(bit_disjoint_reference(dict(p.terms))) and got


def factor_cases():
    """(name, p) for factor_pairs: six seeded dense products of degree 5 to
    9, two dense polynomials with a composite p(1) that do not split,
    (1 + x)^10, a sparse product of degree 2^13, and a product with
    content 6 and an x^2 shift."""
    rng = random.Random(1720)
    cases = []
    for k in range(6):
        degree = rng.randint(5, 9)
        a = rng.randint(1, degree // 2)
        q = Poly1({e: rng.randint(1, 4) for e in range(a + 1)})
        r = Poly1({e: rng.randint(1, 4) for e in range(degree - a + 1)})
        cases.append((f"dense{k + 1}", q * r))
    negatives = 0
    while negatives < 2:
        p = Poly1({e: rng.randint(1, 3) for e in range(rng.randint(6, 8) + 1)})
        total = sum(p.terms.values())
        if any(total % d == 0 for d in range(2, total)) and not factor_pairs(p):
            negatives += 1
            cases.append((f"negative{negatives}", p))
    cases.append(("binomial10", Poly1({e: comb(10, e) for e in range(11)})))
    a = 1 << 10
    cases.append(("sparse", Poly1({3 * a: 1, 0: 1}) * Poly1({5 * a: 1, a: 1, 0: 1})))
    shifted = Poly1({2: 6}) * Poly1({3: 1, 1: 2, 0: 1}) * Poly1({2: 3, 1: 1, 0: 2})
    cases.append(("content6", shifted))
    return cases


# name -> (least budget, number of pairs, digest of the pairs) of
# factor_pairs on factor_cases.
PINNED_FACTOR = {
    "dense1": (412, 6, "239bdbc10972"),
    "dense2": (77, 1, "8d3539604edf"),
    "dense3": (128, 1, "2590c0ea6d93"),
    "dense4": (65, 1, "3489ba5616ca"),
    "dense5": (525, 1, "4e2a1cfaf5c8"),
    "dense6": (103, 1, "5e06c5ccc6e9"),
    "negative1": (33, 0, "e3b0c44298fc"),
    "negative2": (17, 0, "e3b0c44298fc"),
    "binomial10": (12730, 5, "826e0a4da200"),
    "sparse": (51, 1, "57b40405a3d5"),
    "content6": (193, 20, "4daa11bea107"),
}


def test_factor_pairs_least_budgets_and_answers_are_pinned():
    seen = {}
    for name, p in factor_cases():
        pairs = least_budget_is(lambda b: factor_pairs(p, b), PINNED_FACTOR[name][0])
        assert all(q * r == p for q, r in pairs)
        seen[name] = (PINNED_FACTOR[name][0], len(pairs), digest(pairs))
    assert seen == PINNED_FACTOR


def charges_of(call):
    """The text of the BudgetExceededError that each _Meter.charge made by
    call() would raise, in order: the search, the phase and the steps asked
    for, read from a meter with none left.  Each charge then goes on to the
    real meter."""
    texts = []
    charge = _Meter.charge

    def recording(meter, steps, *phase):
        empty = _Meter(Budget(0))
        empty.left, empty.search = -1, meter.search
        with pytest.raises(BudgetExceededError) as raised:
            charge(empty, steps, *phase)
        texts.append(str(raised.value))
        charge(meter, steps, *phase)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Meter, "charge", recording)
        call()
    return texts


# name -> (number of charges, digest of their texts) of factor_pairs on
# factor_cases under the default allowance.  Least budgets miss a charge
# moved, merged or split with the same total; these figures do not.
PINNED_CHARGES = {
    "dense1": (192, "abf70776b8bd"),
    "dense2": (42, "e1e4caa3b708"),
    "dense3": (75, "76fec24f3712"),
    "dense4": (35, "963c686d25e1"),
    "dense5": (268, "46e0153979bb"),
    "dense6": (61, "5b1964cefd6a"),
    "negative1": (21, "8bebb67885cd"),
    "negative2": (10, "16a337a8e786"),
    "binomial10": (4775, "42d5990058e4"),
    "sparse": (26, "0f6af951c31f"),
    "content6": (41, "2ffa17afc1c4"),
}


def test_factor_pairs_charge_sequences_are_pinned():
    seen = {}
    for name, p in factor_cases():
        texts = charges_of(lambda: factor_pairs(p))
        digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()[:12]
        seen[name] = (len(texts), digest)
    assert seen == PINNED_CHARGES


def test_points_are_the_seeded_stream():
    """Point number k of a fresh generator on n variables is values
    (k - 1) n up to k n of one Random(2010) stream of nonzero residues
    modulo 2**61 - 1, however its draws interleave with another's; and a
    search that draws gets the same points after other drawing searches
    ran."""
    rng = random.Random(2010)
    stream = [rng.randrange(1, polyfactor._PRIME) for _ in range(400)]
    for n in (0, 1, 2, 5, 12, 40):
        points, other = polyfactor._points(n), polyfactor._points(n)
        for k in range(1, 6):
            assert next(points) == stream[(k - 1) * n:k * n]
            if k % 2:
                assert next(other) == stream[(k - 1) // 2 * n:(k + 1) // 2 * n]
    net = second_point_net()
    p = encode(net, compact_labeling(net))
    prime = Poly1({7: 1, 2: 1, 1: 1, 0: 1})  # (1, 1, 1) misses here too
    alone = points_of(p)
    n = len(alone[0])
    assert alone == [tuple(stream[:n])] and n > 0
    assert points_of(prime) and points_of(p) == alone
    assert points_of(prime) == [tuple(stream[:6])]


def test_threads_decompose_as_a_serial_run():
    """Four threads decomposing the same nets at once get the serial run's
    pairs under the same least budgets, and between them draw four times
    the seeded points the serial run drew; the second_point net needs a
    seeded point, so they draw some.  Three rounds, with threads switching
    often."""
    cases = net_cases()
    serial = [decompose(net, labeling) for _, net, labeling in cases]

    def run():
        return [
            least_budget_is(lambda b: decompose(net, labeling, b), PINNED[name][0])
            for name, net, labeling in cases
        ]

    def work(slot):
        start.wait()
        results[slot] = run()

    with pytest.MonkeyPatch.context() as patch:
        drawn = record_points(patch)
        assert run() == serial
    assert drawn

    interval = sys.getswitchinterval()
    for _ in range(3):
        with pytest.MonkeyPatch.context() as patch:
            threaded = record_points(patch)
            start = threading.Barrier(4)
            results = [None] * 4
            threads = [threading.Thread(target=work, args=(slot,)) for slot in range(4)]
            sys.setswitchinterval(1e-6)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [serial] * 4
        assert Counter(threaded) == Counter({point: 4 * k for point, k in Counter(drawn).items()})


def near_miss(rng, g):
    """g relabeled with one slot member moved to a v-vertex the slot did not
    hold, so that the multiset of that slot's v-degrees changes: no
    isomorphism maps g onto it.  Raises ValueError, drawing nothing, when
    no such move exists, as on a graph with one v-vertex."""
    degrees = [Counter(x for u in g.u_vertices for x in g.slots(u)[slot])
               for slot in range(g.arity)]
    if not any(degrees[slot][w] != degrees[slot][v] - 1
               for u in g.u_vertices for slot, part in enumerate(g.slots(u))
               for v in part for w in g.v_vertices if w not in part):
        raise ValueError("no slot member can move to a v-vertex of another degree")
    while True:
        u = rng.choice(g.u_vertices)
        slot = rng.randrange(len(g.slots(u)))
        part = g.slots(u)[slot]
        outside = [w for w in g.v_vertices if w not in part]
        if not part or not outside:
            continue
        v, w = rng.choice(sorted(part)), rng.choice(outside)
        if degrees[slot][w] != degrees[slot][v] - 1:
            return relabeled(rng, g, (u, slot, v, w))


@pytest.mark.parametrize("kind", [Bigraph, DiBigraph, PetriNet])
def test_near_miss_fails_fast_when_no_move_exists(kind):
    """With one v-vertex no slot member can move anywhere."""
    g = random_slots(random.Random(99), kind, 19, 1)
    with pytest.raises(ValueError):
        near_miss(random.Random(99), g)


def iso_cases():
    """(name, g, h) for is_isomorphic: for each kind two relabeled copies
    and one near miss of 10 to 30 u-vertices and 6 to 13 v-vertices, the
    benchmark's isomorphism ops in shape, then the 12-cycle against a
    relabeled copy and against two 6-cycles, where refinement splits
    nothing and the search branches."""
    rng = random.Random(1721)
    cases = []
    for kind in (Bigraph, DiBigraph, PetriNet):
        for case in ("copy1", "copy2", "miss"):
            g = random_slots(rng, kind, rng.randint(10, 30), rng.randint(6, 13))
            h = near_miss(rng, g) if case == "miss" else relabeled(rng, g)
            cases.append((f"{kind.__name__}_{case}", g, h))
    g = cycles(12)
    cases.append(("cycle12_copy", g, relabeled(rng, g)))
    cases.append(("cycle12_two6", g, cycles(6, 6)))
    return cases


def witness_digest(found):
    text = repr(found if found is None else [sorted(m.items()) for m in found])
    return hashlib.sha256(text.encode()).hexdigest()[:12]


# name -> (least budget, digest of the witness maps or of None) of
# is_isomorphic on iso_cases.  They fix the charges of each refinement
# round and node, the shape of the search tree and the witness found first.
# A round and a witness check read classes, not u-vertices, and a net's
# class table holds its idle class.
PINNED_ISO = {
    "Bigraph_copy1": (209, "431fa70a72e4"),
    "Bigraph_copy2": (182, "e51931936f8b"),
    "Bigraph_miss": (153, "dc937b598926"),
    "DiBigraph_copy1": (222, "e1dddfa17bff"),
    "DiBigraph_copy2": (234, "0d115b7e6b75"),
    "DiBigraph_miss": (107, "dc937b598926"),
    "PetriNet_copy1": (219, "e685cd742be2"),
    "PetriNet_copy2": (315, "d7f2fa957926"),
    "PetriNet_miss": (117, "dc937b598926"),
    "cycle12_copy": (1191, "ab23eb1ec73d"),
    "cycle12_two6": (8281, "dc937b598926"),
}


def test_is_isomorphic_least_budgets_and_witnesses_are_pinned():
    seen = {}
    for name, g, h in iso_cases():
        found = least_budget_is(lambda b: is_isomorphic(g, h, b), PINNED_ISO[name][0])
        assert (found is not None) == ("copy" in name)
        if found is not None:
            umap, vmap = found
            assert sorted(umap.values()) == sorted(h.u_vertices)
            assert sorted(vmap.values()) == sorted(h.v_vertices)
            for u in g.u_vertices:
                assert h.slots(umap[u]) == tuple(
                    frozenset(map(vmap.__getitem__, part)) for part in g.slots(u)
                )
        seen[name] = (PINNED_ISO[name][0], witness_digest(found))
    assert seen == PINNED_ISO


def walk_cases():
    """(name, g) for the labeling walk: the 7- and 8-cycles, the 8-cycle
    with each u-vertex repeated 50 times, the directed 7-cycle v_i -> u_i ->
    v_(i+1 mod 7), and one net of four disjoint one-event nets c_j,0 ->
    c_j,1."""
    n = 8
    us = [(i, k) for i in range(n) for k in range(50)]
    repeated8 = from_slots(Bigraph, us, range(n), {(i, k): [{i, (i + 1) % n}] for i, k in us})
    n = 7
    dicycle7 = from_slots(DiBigraph, [f"u{i}" for i in range(n)], [f"v{i}" for i in range(n)],
                          {f"u{i}": [{f"v{i}"}, {f"v{(i + 1) % n}"}] for i in range(n)})
    four_nets = from_slots(PetriNet, [f"e{j}" for j in range(4)],
                           [f"c{j}_{k}" for j in range(4) for k in (0, 1)],
                           {f"e{j}": [{f"c{j}_0"}, {f"c{j}_1"}] for j in range(4)})
    return [("cycle7", cycles(7)), ("cycle8", cycles(8)), ("cycle8x50", repeated8),
            ("dicycle7", dicycle7), ("four_nets", four_nets)]


# (name, least mode) -> (steps used, last encoding) of draining
# core._encodings under the default allowance.  They fix the walk's charges
# and the order in which it visits states and yields encodings.
PINNED_WALK = {
    ("cycle7", True): (20_505, "x^66 + x^65 + x^36 + x^33 + x^24 + x^18 + x^12"),
    ("cycle7", False): (167_685, "x^80 + x^65 + x^36 + x^34 + x^24 + x^12 + x^3"),
    ("cycle8", True): (133_042, "x^130 + x^129 + x^68 + x^65 + x^40 + x^34 + x^24 + x^20"),
    ("cycle8x50", True): (
        133_042,
        "50*x^130 + 50*x^129 + 50*x^68 + 50*x^65 + 50*x^40 + 50*x^34 + 50*x^24 + 50*x^20",
    ),
    ("dicycle7", True): (
        20_520, "x^64*y + x^32*y^2 + x^16*y^4 + x^8*y^16 + x^4*y^32 + x^2*y^64 + x*y^8"
    ),
    ("dicycle7", False): (
        205_485, "x^64*y^2 + x^32*y^64 + x^16*y^32 + x^8*y^16 + x^4*y^8 + x^2*y + x*y^4"
    ),
    ("four_nets", True): (4_631, "x^8*y^16 + x^4*y^32 + x^2*y^64 + x*y^128 + 1"),
    ("four_nets", False): (542_432, "x^8*y^16 + x^4*y^32 + x^2*y^64 + x*y^128 + 1"),
}


def test_labeling_walk_steps_and_last_encodings_are_pinned():
    seen = {}
    for name, g in walk_cases():
        for least in (True, False):
            if (name, least) in PINNED_WALK:
                meter = _Meter(Budget())
                for p, _ in _encodings(g, meter, "the walk", least):
                    pass
                seen[name, least] = (meter.allowance - meter.left, render(p))
    assert seen == PINNED_WALK
