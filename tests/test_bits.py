"""Bit-support calculus: tau, from_bits, and the carry-free addition law."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bigraphpoly import Poly1, Poly2, from_bits, tau, tau_poly

from helpers import bits_of


def test_tau_golden():
    assert tau(0) == frozenset()
    assert tau(1) == {0}
    assert tau(5) == {0, 2}
    assert tau(12) == {2, 3}
    assert tau(2**40) == {40}
    assert tau(2**100 + 3) == {0, 1, 100}


def test_tau_matches_binary_string_oracle():
    for k in range(4096):
        assert tau(k) == bits_of(k), k


def test_tau_matches_binary_string_oracle_on_wide_and_sparse_ints():
    rng = random.Random(8)
    wide = [rng.getrandbits(rng.randint(1, 300)) for _ in range(300)]
    sparse = [
        (1 << 40) + sum(1 << rng.randrange(41) for _ in range(rng.randint(0, 3)))
        for _ in range(300)
    ]
    for k in [0, *wide, *sparse]:
        got = tau(k)
        assert type(got) is frozenset
        assert got == bits_of(k), k


def test_tau_rejects_negatives():
    with pytest.raises(ValueError):
        tau(-1)
    with pytest.raises(ValueError):
        tau(-(1 << 40))


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


def test_from_bits_rejects_negative_positions():
    with pytest.raises(ValueError):
        from_bits([3, -1])


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
