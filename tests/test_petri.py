"""Petri nets, the pointed product, and product decomposition."""

import random
import time
from collections import Counter
from itertools import permutations

import pytest

from bigraphpoly import (
    Budget,
    BudgetExceededError,
    LabeledPetriNet,
    LabelingError,
    PetriNet,
    Poly1,
    Poly2,
    bit_disjoint_factor,
    compact_net_labeling,
    decode_net,
    decompose,
    encode_net,
    is_irreducible,
    mul,
    net_isomorphic,
    net_product,
    render,
    tau_poly,
)

from helpers import random_labeling, random_net, three_prime_nets


def branching_net():
    """b0 is consumed by a and b; b1 is produced by b and c."""
    return PetriNet(
        ["b0", "b1"],
        ["a", "b", "c"],
        pre={"a": ["b0"], "b": ["b0"]},
        post={"b": ["b1"], "c": ["b1"]},
    )


BRANCH_LABELS = {"b0": 0, "b1": 1}


def cycle_net():
    """Two interlocked loops sharing conditions; known to resist splitting."""
    return PetriNet(
        [f"b{i}" for i in range(6)],
        ["e1", "e2", "e3", "e4"],
        pre={
            "e1": ["b0", "b3"],
            "e2": ["b1", "b2"],
            "e3": ["b3", "b5"],
            "e4": ["b2", "b4"],
        },
        post={
            "e1": ["b1", "b2"],
            "e2": ["b0", "b3"],
            "e3": ["b2", "b4"],
            "e4": ["b3", "b5"],
        },
    )


CYCLE_LABELS = {f"b{i}": i for i in range(6)}


def assert_valid_net_iso(n1, n2, witness):
    assert witness is not None
    event_map, cond_map = witness
    assert Counter(event_map.keys()) == Counter(n1.events)
    assert Counter(event_map.values()) == Counter(n2.events)
    assert Counter(cond_map.keys()) == Counter(n1.conditions)
    assert Counter(cond_map.values()) == Counter(n2.conditions)
    for e in n1.events:
        assert {cond_map[b] for b in n1.pre(e)} == set(n2.pre(event_map[e]))
        assert {cond_map[b] for b in n1.post(e)} == set(n2.post(event_map[e]))


def test_encode_golden():
    p = encode_net(branching_net(), BRANCH_LABELS)
    assert p == Poly2({(1, 2): 1, (1, 0): 1, (0, 2): 1, (0, 0): 1})
    assert render(p) == "x*y^2 + x + y^2 + 1"


def test_encode_always_holds_an_idle_unit():
    empty = PetriNet()
    assert encode_net(empty, {}) == Poly2({(0, 0): 1})
    silent = PetriNet([], ["e"])  # an event with empty pre and post
    assert encode_net(silent, {}) == Poly2({(0, 0): 2})


def test_decode_golden():
    labeled = decode_net(Poly2({(1, 2): 1, (1, 0): 1, (0, 2): 1, (0, 0): 1}))
    net = labeled.net
    assert labeled.labeling == {0: 0, 1: 1}
    assert list(net.conditions) == [0, 1]
    assert len(net.events) == 3
    assert Counter(
        (frozenset(net.pre(e)), frozenset(net.post(e))) for e in net.events
    ) == Counter(
        {
            (frozenset({0}), frozenset({1})): 1,
            (frozenset({0}), frozenset()): 1,
            (frozenset(), frozenset({1})): 1,
        }
    )
    assert encode_net(net, labeled.labeling) == encode_net(
        branching_net(), BRANCH_LABELS
    )


def test_decode_absorbs_one_constant_unit():
    labeled = decode_net(Poly2({(0, 0): 3}))
    assert not labeled.net.conditions
    assert len(labeled.net.events) == 2
    assert all(
        not labeled.net.pre(e) and not labeled.net.post(e)
        for e in labeled.net.events
    )


def test_decode_rejects_missing_idle_slot_and_wrong_arity():
    with pytest.raises(ValueError, match="idle"):
        decode_net(Poly2({(1, 0): 1}))
    with pytest.raises(ValueError):
        decode_net(Poly2({}))
    with pytest.raises(TypeError):
        decode_net(Poly1({0: 1}))


def test_round_trip_random_nets():
    rng = random.Random(71)
    for _ in range(40):
        net = random_net(rng)
        labeling = random_labeling(rng, net.conditions)
        p = encode_net(net, labeling)
        dec = decode_net(p)
        assert encode_net(dec.net, dec.labeling) == p
        assert_valid_net_iso(net, dec.net, net_isomorphic(net, dec.net))


def test_net_product_event_grid():
    n1 = PetriNet(["b11"], ["e"], pre={"e": ["b11"]}, post={"e": ["b11"]})
    n2 = PetriNet(["b21"], ["e1", "e2"], pre={"e2": ["b21"]}, post={"e1": ["b21"]})
    prod = net_product(n1, n2)
    assert set(prod.conditions) == {(0, "b11"), (1, "b21")}
    assert set(prod.events) == {
        ("e", "e1"),
        ("e", "e2"),
        ("e", None),
        (None, "e1"),
        (None, "e2"),
    }
    assert prod.pre(("e", "e2")) == frozenset({(0, "b11"), (1, "b21")})
    assert prod.post(("e", "e2")) == frozenset({(0, "b11")})
    assert prod.pre((None, "e1")) == frozenset()
    assert prod.post((None, "e1")) == frozenset({(1, "b21")})


def test_encoding_turns_products_into_multiplication():
    rng = random.Random(72)
    for _ in range(25):
        n1 = random_net(rng)
        n2 = random_net(rng)
        l1 = random_labeling(rng, n1.conditions, 4)
        l2 = {b: 5 + lab for b, lab in random_labeling(rng, n2.conditions, 4).items()}
        prod = net_product(n1, n2)
        prod_labels = {(0, b): l1[b] for b in n1.conditions}
        prod_labels.update({(1, b): l2[b] for b in n2.conditions})
        assert encode_net(prod, prod_labels) == mul(
            encode_net(n1, l1), encode_net(n2, l2)
        )


def test_product_labeling_must_stay_injective():
    n = PetriNet(["b"], ["e"], pre={"e": ["b"]})
    prod = net_product(n, n)
    with pytest.raises(LabelingError):
        encode_net(prod, {(0, "b"): 3, (1, "b"): 3})


def test_decompose_golden():
    pairs = decompose(branching_net(), BRANCH_LABELS)
    assert len(pairs) == 1
    first, second = pairs[0]
    assert encode_net(first.net, first.labeling) == Poly2({(0, 2): 1, (0, 0): 1})
    assert encode_net(second.net, second.labeling) == Poly2({(1, 0): 1, (0, 0): 1})
    assert list(first.net.conditions) == [1]
    assert list(second.net.conditions) == [0]
    assert len(first.net.events) == len(second.net.events) == 1
    rebuilt = net_product(first.net, second.net)
    assert net_isomorphic(rebuilt, branching_net()) is not None


def test_decompose_empty_when_the_encoding_resists():
    # dropping event c leaves x*y^2 + x + 1, which has no bit-disjoint split
    net = PetriNet(
        ["b0", "b1"],
        ["a", "b"],
        pre={"a": ["b0"], "b": ["b0"]},
        post={"a": ["b1"]},
    )
    p = encode_net(net, BRANCH_LABELS)
    assert p == Poly2({(1, 2): 1, (1, 0): 1, (0, 0): 1})
    assert decompose(net, BRANCH_LABELS) == []


def test_uncovered_condition_blocks_a_polynomial_only_split():
    """An untouched condition is invisible to the encoding; the rebuild
    check must reject the split the polynomial alone would allow."""
    net = PetriNet(
        ["b0", "b1", "b2"],
        ["a", "b", "c"],
        pre={"a": ["b0"], "b": ["b0"]},
        post={"b": ["b1"], "c": ["b1"]},
    )
    labels = {"b0": 0, "b1": 1, "b2": 2}
    assert encode_net(net, labels) == encode_net(branching_net(), BRANCH_LABELS)
    assert decompose(net, labels) == []


def test_decompose_certifies_the_interlocked_net():
    net = cycle_net()
    assert encode_net(net, CYCLE_LABELS) == Poly2(
        {(9, 6): 1, (6, 9): 1, (40, 20): 1, (20, 40): 1, (0, 0): 1}
    )
    assert decompose(net, CYCLE_LABELS) == []
    assert decompose(net, {f"b{i}": 5 - i for i in range(6)}) == []


def test_decompose_keeps_each_condition_on_one_side():
    """a moves b0 to b1, b moves b1 to b0, c consumes and produces both: the
    encoding (1 + x*y^2)(1 + x^2*y) splits over N[x,y], but each factor
    consumes one condition and produces the other, so the net does not
    split.  Its product with a one-condition loop splits once, into the two."""
    cross = PetriNet(
        ["b0", "b1"],
        ["a", "b", "c"],
        pre={"a": ["b0"], "b": ["b1"], "c": ["b0", "b1"]},
        post={"a": ["b1"], "b": ["b0"], "c": ["b0", "b1"]},
    )
    labels = {"b0": 0, "b1": 1}
    p = encode_net(cross, labels)
    assert p == Poly2({(0, 0): 1, (1, 2): 1, (2, 1): 1, (3, 3): 1})
    assert decompose(cross, labels) == []
    loop = PetriNet(["d"], ["e"], pre={"e": ["d"]}, post={"e": ["d"]})
    net = net_product(cross, loop)
    pairs = decompose(net, {(0, "b0"): 0, (0, "b1"): 1, (1, "d"): 4})
    assert len(pairs) == 1
    halves = {encode_net(half.net, half.labeling) for half in pairs[0]}
    assert halves == {p, Poly2({(16, 16): 1, (0, 0): 1})}
    assert net_isomorphic(net_product(*(half.net for half in pairs[0])), net) is not None


def test_decompose_compact_labeling_golden():
    net = branching_net()
    labeling = compact_net_labeling(net)
    assert labeling == {"b0": 0, "b1": 1}
    pairs = decompose(net, labeling)
    assert len(pairs) == 1
    first, second = pairs[0]
    assert encode_net(first.net, first.labeling) == Poly2({(0, 2): 1, (0, 0): 1})
    assert encode_net(second.net, second.labeling) == Poly2({(1, 0): 1, (0, 0): 1})
    rebuilt = net_product(first.net, second.net)
    assert net_isomorphic(rebuilt, net) is not None


def test_decomposability_does_not_depend_on_the_labeling():
    """A bit-disjoint split is a partition of the conditions, so a net
    splits under every injective labeling or under none."""
    rng = random.Random(74)
    seen = Counter()
    for k in range(30):
        if k % 2:
            net = random_net(rng, max_events=3, max_conditions=5)
        else:
            net = net_product(random_net(rng, max_events=2, max_conditions=2),
                              random_net(rng, max_events=2, max_conditions=3))
        conds = net.conditions
        labelings = [dict(zip(conds, perm)) for perm in permutations(range(len(conds)))]
        labelings += [random_labeling(rng, conds, 12) for _ in range(5)]
        verdicts = {bool(decompose(net, lab)) for lab in labelings}
        assert len(verdicts) == 1
        seen[verdicts.pop()] += 1
    assert seen[True] and seen[False]


def chain_net(k):
    """k-fold pointed product of the one-event net c0 -> c1."""
    one = PetriNet(["c0", "c1"], ["e"], pre={"e": ["c0"]}, post={"e": ["c1"]})
    net = one
    for _ in range(k - 1):
        net = net_product(net, one)
    return net


def test_decompose_fourteen_conditions_returns_every_split():
    """Past the isomorphism guard of 12: the seven prime factors group
    into 2**6 - 1 = 63 unordered splits."""
    net = chain_net(7)
    assert len(net.conditions) == 14
    labeling = compact_net_labeling(net)
    p = encode_net(net, labeling)
    pairs = decompose(net, labeling)
    assert len(pairs) == 63
    seen = set()
    for first, second in pairs:
        p1 = encode_net(first.net, first.labeling)
        p2 = encode_net(second.net, second.labeling)
        assert mul(p1, p2) == p
        assert not set(first.net.conditions) & set(second.net.conditions)
        assert len(first.net.conditions) % 2 == 0 and len(second.net.conditions) % 2 == 0
        seen.add(frozenset((p1, p2)))
    assert len(seen) == 63


def test_decompose_three_eight_condition_prime_nets():
    """24 conditions: well under a second, where a scan of the 2**23
    bipartitions would charge 27 terms at each.  The three prime factors
    give exactly 2**2 - 1 = 3 splits, each one 8-condition factor against
    the product of the other two."""
    net = three_prime_nets()
    labeling = compact_net_labeling(net)
    p = encode_net(net, labeling)
    assert (len(net.conditions), len(p.terms)) == (24, 27)
    start = time.perf_counter()
    pairs = decompose(net, labeling)
    assert time.perf_counter() - start < 1.0
    assert len(pairs) == 3
    primes = set()
    for first, second in pairs:
        p1 = encode_net(first.net, first.labeling)
        p2 = encode_net(second.net, second.labeling)
        assert mul(p1, p2) == p
        assert sorted((len(p1.terms), len(p2.terms))) == [3, 9]
        primes.add(min(p1, p2, key=lambda q: len(q.terms)))
    assert len(primes) == 3
    report = is_irreducible(net, exhaustive=True)
    assert (report.verdict, report.scope) == ("reducible", "compact-labelings")


def test_decompose_round_trips_random_products():
    rng = random.Random(73)
    for _ in range(15):
        n1 = random_net(rng, max_events=2, max_conditions=2)
        n2 = random_net(rng, max_events=2, max_conditions=2)
        l1 = random_labeling(rng, n1.conditions, 3)
        l2 = {b: 4 + lab for b, lab in random_labeling(rng, n2.conditions, 3).items()}
        prod = net_product(n1, n2)
        prod_labels = {(0, b): l1[b] for b in n1.conditions}
        prod_labels.update({(1, b): l2[b] for b in n2.conditions})
        pairs = decompose(prod, prod_labels)
        assert pairs
        for first, second in pairs:
            rebuilt = net_product(first.net, second.net)
            assert net_isomorphic(rebuilt, prod) is not None


def test_net_isomorphic_guard_and_negatives():
    # 13 conditions and no event: 2 refinement rounds and 14 backtracking
    # nodes; the witness check has no event to read.
    big = PetriNet([f"b{i}" for i in range(13)], [])
    with pytest.raises(BudgetExceededError, match="budget of 15 steps"):
        net_isomorphic(big, big, Budget(max_steps=15))
    assert net_isomorphic(big, big, Budget(max_steps=16)) is not None
    n1 = PetriNet(["b"], ["e"], pre={"e": ["b"]})
    n2 = PetriNet(["b"], ["e"], post={"e": ["b"]})
    assert net_isomorphic(n1, n2) is None


def test_petrinet_validation():
    with pytest.raises(ValueError):
        PetriNet(["b", "b"], [])
    with pytest.raises(ValueError):
        PetriNet([], ["e", "e"])
    with pytest.raises(ValueError):
        PetriNet(["x"], ["x"])
    with pytest.raises(ValueError):
        PetriNet(["b"], ["e"], pre={"f": ["b"]})
    with pytest.raises(ValueError):
        PetriNet(["b"], ["e"], pre={"e": ["nope"]})


def test_petrinet_equality_and_views():
    net = branching_net()
    assert net == branching_net()
    assert hash(net) == hash(branching_net())
    assert net.pre("a") == frozenset({"b0"})
    assert net.post("a") == frozenset()
    assert net != cycle_net()


def test_compact_net_labeling():
    assert compact_net_labeling(branching_net()) == {"b0": 0, "b1": 1}


def test_labeled_net_dataclass():
    net = branching_net()
    assert LabeledPetriNet(net, BRANCH_LABELS) == LabeledPetriNet(net, BRANCH_LABELS)
    assert LabeledPetriNet(net).labeling == {}


def reference_decompose(net, labeling):
    """decompose rebuilt from the public search and decode_net, pair by pair."""
    p = encode_net(net, labeling)
    if len(tau_poly(p)) != len(net.conditions):
        return []
    return [
        (decode_net(q), decode_net(r))
        for q, r in bit_disjoint_factor(p)
        if q.constant_coeff() and r.constant_coeff()
    ]


def with_empty_events(net, copies=2, empty=1):
    """Every event repeated copies times, plus empty events that touch
    nothing; with copies = empty + 1 the encoding has content copies."""
    evs = [(e, k) for e in net.events for k in range(copies)]
    pre = {(e, k): net.pre(e) for e, k in evs}
    post = {(e, k): net.post(e) for e, k in evs}
    evs += [("idle", k) for k in range(empty)]
    return PetriNet(net.conditions, evs, pre, post)


def test_decompose_agrees_with_the_public_search_and_decode():
    rng = random.Random(911)
    cases = []
    for _ in range(30):
        net = random_net(rng, max_events=3, max_conditions=4)
        cases.append((net, random_labeling(rng, net.conditions, 7)))
    for _ in range(20):  # planted products, two or three factors
        nets = [random_net(rng, max_events=2, max_conditions=2) for _ in range(rng.randint(2, 3))]
        prod = nets[0]
        for other in nets[1:]:
            prod = net_product(prod, other)
        cases.append((prod, random_labeling(rng, prod.conditions, 9)))
        cases.append((prod, compact_net_labeling(prod)))
    for _ in range(15):  # content > 1, and events with empty pre and post
        base = net_product(random_net(rng, 2, 2), random_net(rng, 2, 2))
        net = with_empty_events(base, *rng.choice([(2, 1), (3, 2), (1, 2)]))
        cases.append((net, random_labeling(rng, net.conditions, 6)))
    split = 0
    for net, labeling in cases:
        got = decompose(net, labeling)
        want = reference_decompose(net, labeling)
        # Equal nets have equal event and condition tuples and slots.
        assert got == want
        for pair, ref in zip(got, want):
            for half, w in zip(pair, ref):
                assert list(half.labeling.items()) == list(w.labeling.items())
        split += bool(got)
    assert split > 40


def test_validation_errors_stay_short():
    ids = [f"n{i}" for i in range(3000)]
    with pytest.raises(ValueError) as caught:
        PetriNet(ids, ids)
    assert len(str(caught.value)) < 500
    assert "3000 in all" in str(caught.value)
    with pytest.raises(ValueError, match="non-conditions") as caught:
        PetriNet(["b"], ["e"], pre={"e": ids})
    assert len(str(caught.value)) < 500
    assert "3000 in all" in str(caught.value)
    with pytest.raises(LabelingError) as caught:
        encode_net(PetriNet(ids, ["e"], pre={"e": ids}), {})
    assert len(str(caught.value)) < 500
