"""Bit-support calculus: tau, from_bits, pack_slots, and the carry-free
addition law."""

import random
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bigraphpoly import Poly1, Poly2, from_bits, tau, tau_poly
from bigraphpoly.bits import pack_slots

from helpers import bits_of, peel_bits


def test_tau_golden():
    assert tau(0) == frozenset()
    assert tau(1) == {0}
    assert tau(5) == {0, 2}
    assert tau(12) == {2, 3}
    assert tau(2**40) == {40}
    assert tau(2**100 + 3) == {0, 1, 100}


def test_tau_matches_binary_string_oracle():
    """Every natural below 2**16, against the binary string and the peel."""
    for k in range(1 << 16):
        got = tau(k)
        assert type(got) is frozenset
        assert got == bits_of(k) and got == peel_bits(k), k


def _int_with(rng, width, count):
    """A natural of bit length width with count set bits."""
    return sum(1 << t for t in rng.sample(range(width - 1), count - 1)) | 1 << (width - 1)


def _wide_ints(rng):
    """Sparse, dense and middling ints from 17 bits to 2**40 and past."""
    out = [1 << 16, (1 << 16) + 1, (1 << 17) - 1, 1 << 40, (1 << 41) - 1]
    for width in (17, 24, 41, 64, 200, 1000, 5000):
        for count in {1, 2, 3, 8, 9, 12, 13, 30, width // 4, width // 2, width}:
            if count <= width:
                out += [_int_with(rng, width, count) for _ in range(3)]
    out += [rng.getrandbits(41) | 1 << 40 for _ in range(100)]
    out += [(1 << 40) + sum(1 << rng.randrange(40) for _ in range(rng.randint(0, 6)))
            for _ in range(100)]
    return out


def test_tau_matches_binary_string_oracle_on_wide_and_sparse_ints():
    """Against the binary string and the peel, on each side of the choice
    between peel and scan."""
    rng = random.Random(8)
    wide = [rng.getrandbits(rng.randint(1, 300)) for _ in range(300)]
    sparse = [
        (1 << 40) + sum(1 << rng.randrange(41) for _ in range(rng.randint(0, 3)))
        for _ in range(300)
    ]
    for k in [0, *wide, *sparse, *_wide_ints(rng)]:
        got = tau(k)
        assert type(got) is frozenset
        assert got == bits_of(k) and got == peel_bits(k), k


def test_tau_matches_both_references_on_hundred_thousand_bit_ints():
    rng = random.Random(19)
    width = 10**5
    ints = [rng.getrandbits(width) | 1 << (width - 1)]  # dense
    ints += [_int_with(rng, width, count) for count in (1, 10, 400, 450, 2000)]
    for k in ints:
        got = tau(k)
        assert type(got) is frozenset
        assert got == bits_of(k) and got == peel_bits(k), k.bit_count()
        assert from_bits(got) == k


def test_tau_of_a_dense_hundred_thousand_bit_int_is_quick():
    """Linear, not one copy of the int per set bit: about 5 ms on a 2-CPU
    machine, where peeling the 50,000 set bits takes about 0.35 s."""
    k = random.Random(20).getrandbits(10**5) | 1 << (10**5 - 1)
    start = time.perf_counter()
    tau(k)
    assert time.perf_counter() - start < 0.15


def test_tau_rejects_negatives():
    for k in (-1, -255, -(1 << 16), -(1 << 40), -(1 << 10**5)):
        with pytest.raises(ValueError):
            tau(k)


@given(st.integers(min_value=0, max_value=10**30))
def test_tau_from_bits_round_trip(k):
    assert from_bits(tau(k)) == k


@given(st.frozensets(st.integers(min_value=0, max_value=120), max_size=12))
def test_from_bits_tau_round_trip(bits):
    assert tau(from_bits(bits)) == bits


def test_from_bits_golden():
    assert from_bits([]) == 0
    assert from_bits([0, 2]) == 5
    assert from_bits({3}) == 8
    # duplicates collapse: it is a set of positions, not a multiset
    assert from_bits([1, 1]) == 2
    assert from_bits([3, 3]) == 8
    assert from_bits([300, 300, 5, 5]) == 2**300 + 32
    assert from_bits(iter([1000, 2, 1000, 7])) == 2**1000 + 4 + 128
    assert from_bits(t for t in [255, 256, 0, 256]) == 2**255 + 2**256 + 1
    assert from_bits(frozenset({0, 10**5})) == 2**10**5 + 1


def test_from_bits_rejects_negative_positions():
    for bits in ([3, -1], [-1], [300, -1], [-1, 300], [5, 300, -2, 7], iter([2, 999, -8])):
        with pytest.raises(ValueError):
            from_bits(bits)


@pytest.mark.parametrize("call, named", [
    (lambda: tau(-1), "got -1"),
    (lambda: from_bits([3, -1]), "got -1"),
    (lambda: tau(-10**4000), "a negative 4001-digit number"),
    (lambda: from_bits([1, -10**4000]), "a negative 4001-digit number"),
    (lambda: tau(-10**5000), "a negative 5001-digit number"),
], ids=["tau_small", "from_bits_small", "tau_4001", "from_bits_4001", "tau_5001"])
def test_rejected_values_are_quoted_in_bounded_text(call, named):
    """A huge negative value is named by its number of digits, past the
    4,300 digits int to str refuses."""
    with pytest.raises(ValueError) as info:
        call()
    assert named in str(info.value) and len(str(info.value)) < 100


def test_from_bits_matches_the_or_of_powers_on_wide_positions():
    rng = random.Random(21)
    for width in (8, 255, 256, 257, 1000, 10**5):
        for count in (1, 5, 100):
            bits = [rng.randrange(width) for _ in range(count)]
            bits += rng.sample(bits, len(bits) // 3)  # repeats count once
            want = 0
            for t in bits:
                want |= 1 << t
            assert from_bits(bits) == want
            assert tau(from_bits(bits)) == set(bits)


def test_pack_slots_sums_the_powers_of_each_slot():
    rng = random.Random(22)
    for top in (39, 255, 256, 4999):  # the largest position
        members = [f"m{i}" for i in range(40)]
        position = dict(zip(members, rng.sample(range(top), 39) + [top]))

        def part():
            return frozenset(rng.sample(members, rng.randrange(8)))

        one = {k: (part(),) for k in range(20)}
        two = {k: (part(), part()) for k in range(20)}

        def packed(p):
            return sum(1 << position[m] for m in p)

        # Labels of keys outside the v part are not read.
        labeling = {**position, "other": 10**6}
        assert pack_slots(one.values(), members, labeling, 1) == [packed(a) for (a,) in one.values()]
        assert pack_slots(two.values(), members, labeling, 2) == [
            (packed(a), packed(b)) for a, b in two.values()
        ]
        assert pack_slots([(frozenset(), frozenset())], members, labeling, 2) == [(0, 0)]


def test_disjoint_supports_add_carry_free():
    """tau(a) and tau(b) disjoint iff tau(a+b) is their union, both ways."""
    rng = random.Random(7)
    for _ in range(2000):
        a, b = rng.randint(0, 10**4), rng.randint(0, 10**4)
        disjoint = not (tau(a) & tau(b))
        assert disjoint == (tau(a + b) == tau(a) | tau(b)), (a, b)


def test_disjoint_supports_concrete():
    assert tau(5) & tau(2) == frozenset()
    assert tau(5 + 2) == tau(5) | tau(2)
    # 3 + 1 = 4 carries: union {0, 1} is lost
    assert tau(3 + 1) != tau(3) | tau(1)


def test_tau_poly_univariate():
    assert tau_poly(Poly1({7: 1, 5: 2, 0: 1})) == {0, 1, 2}
    assert tau_poly(Poly1()) == frozenset()


def test_tau_poly_bivariate_pools_both_exponents():
    assert tau_poly(Poly2({(5, 3): 1})) == {0, 1, 2}
    assert tau_poly(Poly2({(1, 0): 1, (0, 2): 3})) == {0, 1}
    assert tau_poly(Poly2({(0, 0): 4})) == frozenset()


def test_tau_poly_matches_the_union_of_per_term_supports():
    rng = random.Random(83)

    def union(p):
        out = set()
        for exp in p.terms:
            for part in (exp,) if isinstance(exp, int) else exp:
                out |= bits_of(part)
        return out

    def exps():
        return [rng.getrandbits(rng.randint(1, 60)) for _ in range(rng.randint(1, 6))]

    polys = [Poly1(), Poly2()]
    for _ in range(200):
        polys.append(Poly1(dict.fromkeys(exps(), 1)))
        polys.append(Poly2(dict.fromkeys(zip(exps(), exps()), 2)))
    for top in (40, 200):
        near = [(1 << top) + rng.getrandbits(top - 1) >> rng.randrange(2) for _ in range(5)]
        polys.append(Poly1(dict.fromkeys(near, 1)))
        polys.append(Poly2({(e, near[0]): 1 for e in near}))
    for p in polys:
        got = tau_poly(p)
        assert type(got) is frozenset
        assert got == union(p), p
