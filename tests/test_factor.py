"""Exhaustive two-factor searches: goldens, oracle sweeps, budget behavior."""

import random
import time
from math import comb

import pytest

from bigraphpoly import (
    Budget,
    BudgetExceededError,
    Poly1,
    Poly2,
    bit_disjoint_factor,
    factor_pairs,
    parse_poly1,
    poly_key,
    polyfactor,
    tau_poly,
)

from helpers import bit_disjoint_reference, dense_key, factor_pair_table, poly_on_bits


def P(terms):
    return Poly1(terms)


def test_golden_cubic_splits_once():
    p = P({3: 1, 2: 2, 1: 2, 0: 1})
    pairs = factor_pairs(p)
    assert pairs == [(P({1: 1, 0: 1}), P({2: 1, 1: 1, 0: 1}))]
    q, r = pairs[0]
    assert q * r == p


def test_golden_irreducible_cubic():
    # x^3 + 1 factors over the integers but not with nonnegative coefficients
    assert factor_pairs(P({3: 1, 0: 1})) == []


def test_golden_square_of_x():
    assert factor_pairs(P({2: 1})) == [(P({1: 1}), P({1: 1}))]


def test_golden_content_distributes_both_ways():
    pairs = factor_pairs(P({2: 2, 1: 2}))
    assert pairs == [
        (P({1: 1}), P({1: 2, 0: 2})),
        (P({1: 1, 0: 1}), P({1: 2})),
    ]


def test_golden_repeated_factor_reported_once():
    p = P({2: 1, 1: 1, 0: 1}) * P({2: 1, 1: 1, 0: 1})
    assert factor_pairs(p) == [(P({2: 1, 1: 1, 0: 1}), P({2: 1, 1: 1, 0: 1}))]


def test_golden_x_power_shift():
    p = P({1: 1}) * P({1: 1, 0: 1}) * P({2: 1, 1: 1, 0: 1})
    assert factor_pairs(p) == [
        (P({1: 1}), P({3: 1, 2: 2, 1: 2, 0: 1})),
        (P({1: 1, 0: 1}), P({3: 1, 2: 1, 1: 1})),
        (P({2: 1, 1: 1}), P({2: 1, 1: 1, 0: 1})),
    ]


@pytest.mark.parametrize(
    "terms", [{1: 1}, {0: 1}, {0: 7}, {1: 2}, {1: 2, 0: 2}]
)
def test_too_small_to_split(terms):
    assert factor_pairs(P(terms)) == []


def test_factor_pairs_rejects_zero_and_wrong_arity():
    with pytest.raises(ValueError):
        factor_pairs(P({}))
    with pytest.raises(TypeError):
        factor_pairs(Poly2({(1, 0): 1}))


def test_zero_budget_raises_only_when_work_is_needed():
    with pytest.raises(BudgetExceededError):
        factor_pairs(P({2: 1, 0: 1}), Budget(max_steps=0))
    with pytest.raises(BudgetExceededError):
        # the content's divisor scan is metered work too
        factor_pairs(P({2: 2, 1: 2}), Budget(max_steps=0))
    # 2 trial divisions of the content 2, then 3 terms for each of the two
    # pairs x * (2x + 2) and 2x * (x + 1)
    with pytest.raises(BudgetExceededError):
        factor_pairs(P({2: 2, 1: 2}), Budget(max_steps=7))
    assert len(factor_pairs(P({2: 2, 1: 2}), Budget(max_steps=8))) == 2
    # primitive with a degree-1 core: nothing to scan or enumerate, only the
    # 3 terms of the one pair to emit
    with pytest.raises(BudgetExceededError):
        factor_pairs(P({2: 1, 1: 1}), Budget(max_steps=2))
    assert factor_pairs(P({2: 1, 1: 1}), Budget(max_steps=3)) == [
        (P({1: 1}), P({1: 1, 0: 1}))
    ]


@pytest.mark.parametrize("c", [1, 720720])
def test_spreading_a_large_power_of_x_is_metered(c):
    """Every pair emitted costs its terms, so the x^100000 shifts of the
    trivial split stop at the allowance instead of all being built."""
    p = P({100001: c, 100000: c})
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError):
        factor_pairs(p, Budget(max_steps=10))
    assert time.perf_counter() - start < 0.1


def test_spreading_a_huge_power_of_x_is_metered():
    m = 1 << 40
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match="emitting the factors"):
        factor_pairs(P({m + 1: 1, m: 1}), Budget(max_steps=10**5))
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("steps", [-5, 1.5, True, "10"])
def test_budget_rejects_a_non_natural_allowance(steps):
    with pytest.raises(ValueError):
        Budget(max_steps=steps)


def test_budget_interrupts_huge_evaluation_values():
    """The search lists the divisors of p(1); when that value is
    astronomically large the scan must charge the budget and stop instead
    of stalling."""
    p = P({32: 1, 0: 10**20 + 1})  # p(1) = 10^20 + 2
    with pytest.raises(BudgetExceededError) as err:
        factor_pairs(p, Budget(max_steps=10**6))
    assert len(str(err.value)) < 300


def test_sparse_binomial_is_certified_and_dense_search_is_metered():
    """x^32 + 1 is settled on its support; (1 + x)^14 has many coefficient
    paths, and a small allowance stops the search instead."""
    assert factor_pairs(P({32: 1, 0: 1})) == []
    binomial = P({k: comb(14, k) for k in range(15)})
    with pytest.raises(BudgetExceededError):
        factor_pairs(binomial, Budget(max_steps=10**4))


def test_huge_values_give_short_budget_errors():
    p = P({1: 10**5000, 0: 10**5000})
    for search in (
        lambda: factor_pairs(p, Budget(max_steps=10**6)),
        lambda: bit_disjoint_factor(p),
    ):
        with pytest.raises(BudgetExceededError) as err:
            search()
        assert len(str(err.value)) < 300
        assert "5001-digit" in str(err.value)


DEFECT = "x^1572864 + 2*x^1310720 + x^1048576 + x^524288 + 2*x^262144 + 1"


def test_degree_two_to_the_twenty_product_splits():
    a = 1 << 18
    pairs = factor_pairs(parse_poly1(DEFECT))
    assert (P({a: 1, 0: 1}), P({5 * a: 1, 4 * a: 1, a: 1, 0: 1})) in pairs
    # (x^a + 1)^2 (x^4a + 1): the planted pair and one more
    assert pairs == [
        (P({a: 1, 0: 1}), P({5 * a: 1, 4 * a: 1, a: 1, 0: 1})),
        (P({2 * a: 1, a: 2, 0: 1}), P({4 * a: 1, 0: 1})),
    ]


def _sparse_mul(f, g):
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _complete_splits(binomials, c, m):
    """Every N-split of c * x^m * prod(x^a + 1 for a in binomials), from the
    irreducible factors over Z that sympy reports for each binomial."""
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    irreducible = {}
    for a in binomials:
        _, factors = sympy.factor_list(sympy.Poly(x**a + 1, x))
        for f, e in factors:
            key = tuple(sorted((int(k[0]), int(v)) for k, v in f.terms()))
            irreducible[key] = irreducible.get(key, 0) + e
    keys = list(irreducible)
    splits = set()

    def walk(i, left, right):
        if i == len(keys):
            if all(v >= 0 for v in left.values()) and all(
                v >= 0 for v in right.values()
            ):
                splits.add((tuple(sorted(left.items())), tuple(sorted(right.items()))))
            return
        f = dict(keys[i])
        mult = irreducible[keys[i]]
        for k in range(mult + 1):
            lo, hi = left, right
            for _ in range(k):
                lo = _sparse_mul(lo, f)
            for _ in range(mult - k):
                hi = _sparse_mul(hi, f)
            walk(i + 1, lo, hi)

    walk(0, {0: 1}, {0: 1})
    out = set()
    for lo, hi in splits:
        for d in range(1, c + 1):
            if c % d:
                continue
            for shift in range(m + 1):
                q = P({e + shift: v * d for e, v in lo})
                r = P({e + m - shift: v * (c // d) for e, v in hi})
                if not q.is_constant() and not r.is_constant():
                    out.add(tuple(sorted((poly_key(q), poly_key(r)))))
    return out


def test_factor_pairs_matches_sympy_on_sparse_products():
    """Products of binomials x^a + 1 of degree 2^5 to 2^14: sympy splits
    each binomial into cyclotomic factors over Z, and the complete N-split
    set is every grouping of those whose two sides have no negative
    coefficient."""
    pytest.importorskip("sympy")
    rng = random.Random(2014)
    for k in range(6, 15):
        for _ in range(3):
            # odd parts with few cyclotomic factors keep the oracle quick
            binomials = [rng.choice((2, 3)) << (k - 2)] + [
                rng.choice((1, 1, 3, 5, 15)) << rng.randint(0, k - 6)
                for _ in range(rng.randint(1, 2))
            ]
            c, m = rng.choice((1, 1, 2, 6)), rng.choice((0, 0, 1, 3))
            p = P({m: c})
            for a in binomials:
                p = p * P({a: 1, 0: 1})
            assert 1 << 5 <= p.degree <= 1 << 14
            got = {tuple(sorted((poly_key(q), poly_key(r)))) for q, r in factor_pairs(p)}
            assert got == _complete_splits(binomials, c, m), (binomials, c, m)


def test_bipartition_budget_interrupts_huge_coefficients():
    with pytest.raises(BudgetExceededError):
        bit_disjoint_factor(P({1: 2**70, 0: 2**70}))


def test_large_content_distributes_exactly():
    c = 2**30
    p = P({2: c, 1: 2 * c, 0: c})  # c * (x + 1)^2
    pairs = factor_pairs(p)
    assert pairs == [
        (P({1: 2**i, 0: 2**i}), P({1: 2 ** (30 - i), 0: 2 ** (30 - i)}))
        for i in range(16)
    ]
    assert all(q * r == p for q, r in pairs)


def test_factor_pairs_matches_brute_force_oracle():
    """Every polynomial with degree <= 4 and coefficient sum <= 8."""
    table = factor_pair_table(max_deg=4, max_sum=8)
    checked = 0
    for e4 in range(9):
        for e3 in range(9 - e4):
            for e2 in range(9 - e4 - e3):
                for e1 in range(9 - e4 - e3 - e2):
                    for e0 in range(9 - e4 - e3 - e2 - e1):
                        coeffs = (e0, e1, e2, e3, e4)
                        if not any(coeffs):
                            continue
                        p = P({i: c for i, c in enumerate(coeffs) if c})
                        got = {
                            tuple(sorted((poly_key(q), poly_key(r))))
                            for q, r in factor_pairs(p)
                        }
                        assert got == table.get(dense_key(coeffs), set()), coeffs
                        checked += 1
    assert checked > 1000


# ---------------------------------------------------------------------------
# Bit-disjoint factoring.


def test_bit_disjoint_golden_three_pairs():
    p = P({15: 1, 12: 1, 7: 1, 4: 1})
    pairs = bit_disjoint_factor(p)
    assert pairs == [
        (P({3: 1, 0: 1}), P({12: 1, 4: 1})),
        (P({4: 1}), P({11: 1, 8: 1, 3: 1, 0: 1})),
        (P({7: 1, 4: 1}), P({8: 1, 0: 1})),
    ]
    for q, r in pairs:
        assert q * r == p
        assert not tau_poly(q) & tau_poly(r)


def test_bit_disjoint_golden_none_despite_factoring():
    # x^2 (x^3 + 1)(x^4 + 1): splits plainly, but every split shares a bit
    p = P({9: 1, 6: 1, 5: 1, 2: 1})
    assert factor_pairs(p) != []
    assert bit_disjoint_factor(p) == []


def test_bit_disjoint_golden_bivariate():
    p = Poly2({(1, 2): 1, (1, 0): 1, (0, 2): 1, (0, 0): 1})
    assert bit_disjoint_factor(p) == [
        (Poly2({(0, 2): 1, (0, 0): 1}), Poly2({(1, 0): 1, (0, 0): 1}))
    ]


def test_bit_disjoint_constant_factors_other_than_one():
    assert bit_disjoint_factor(P({2: 2})) == [(P({0: 2}), P({2: 1}))]


def test_bit_disjoint_rejects_zero():
    with pytest.raises(ValueError):
        bit_disjoint_factor(P({}))
    with pytest.raises(ValueError):
        bit_disjoint_factor(Poly2({}))


def test_bit_disjoint_budget():
    # x^4 (x^3 + 1)(x^8 + 1), blocks {0, 1}, {2} and {3}: evaluating the 4
    # terms, 6 bit-pair tests (one step each plus the 10 terms they read),
    # peeling {0, 1} and then {2} off (4 + 2 terms read) and the 13 terms of
    # the 3 emitted pairs come to 4 + 16 + 6 + 13 = 39 steps
    p = P({15: 1, 12: 1, 7: 1, 4: 1})
    with pytest.raises(BudgetExceededError):
        bit_disjoint_factor(p, Budget(max_steps=2))
    with pytest.raises(BudgetExceededError):
        bit_disjoint_factor(p, Budget(max_steps=38))
    assert len(bit_disjoint_factor(p, Budget(max_steps=39))) == 3


def test_bit_disjoint_matches_the_full_scan_reference():
    """Random products over one to three bit groups, a group possibly
    empty (a constant factor), times a content of 1, 2, 6 or 12."""
    rng = random.Random(33)
    for arity, make in ((1, Poly1), (2, Poly2)):
        for _ in range(120):
            bits = rng.sample(range(7), rng.randint(0, 6))
            cuts = sorted(rng.randint(0, len(bits)) for _ in range(rng.randint(0, 2)))
            groups = [bits[i:j] for i, j in zip([0, *cuts], [*cuts, len(bits)])]
            p = make({make.zero: rng.choice((1, 2, 6, 12))})
            for group in groups:
                p = p * poly_on_bits(rng, group, arity=arity)
            got = [tuple(sorted((poly_key(a), poly_key(b)))) for a, b in bit_disjoint_factor(p)]
            assert got == sorted(bit_disjoint_reference(dict(p.terms))), p


def test_bit_disjoint_matches_the_reference_on_up_to_ten_bits():
    """Products over up to ten bits in zero to four groups, times a content
    of 1, 2, 6 or 12; one in ten has a coefficient raised so that it is no
    longer such a product."""
    rng = random.Random(34)
    for arity, make in ((1, Poly1), (2, Poly2)):
        for _ in range(100):
            bits = rng.sample(range(12), rng.randint(0, 10))
            cuts = sorted(rng.randint(0, len(bits)) for _ in range(rng.randint(0, 3)))
            groups = [bits[i:j] for i, j in zip([0, *cuts], [*cuts, len(bits)])]
            p = make({make.zero: rng.choice((1, 2, 6, 12))})
            for group in groups:
                p = p * poly_on_bits(rng, group, arity=arity)
            if rng.random() < 0.1:
                p = p + make({rng.choice(list(p.terms)): rng.randint(1, 3)})
            got = [tuple(sorted((poly_key(a), poly_key(b)))) for a, b in bit_disjoint_factor(p)]
            assert got == sorted(bit_disjoint_reference(dict(p.terms))), p


def test_bit_disjoint_verification_rejects_a_point_that_misses_a_dependency(monkeypatch):
    """At (z0, z1, z2) = (-1, -1, 1) every pairwise minor of the prime
    1 + x + x^2 + x^7 vanishes, so the first point reports singleton blocks.
    The exact check must reject them, and a second point must give the
    reference's answer, alone and times x^8 + 1."""
    real_point, real_peel = polyfactor._point, polyfactor._peel
    peels = []

    def point(rng, count):
        if not peels:
            return [polyfactor._PRIME - 1, polyfactor._PRIME - 1, 1] + real_point(rng, count - 3)
        return real_point(rng, count)

    def peel(*args):
        peels.append(real_peel(*args))
        return peels[-1]

    monkeypatch.setattr(polyfactor, "_point", point)
    monkeypatch.setattr(polyfactor, "_peel", peel)
    for p in (P({7: 1, 2: 1, 1: 1, 0: 1}), P({7: 1, 2: 1, 1: 1, 0: 1}) * P({8: 1, 0: 1})):
        peels.clear()
        got = [tuple(sorted((poly_key(a), poly_key(b)))) for a, b in bit_disjoint_factor(p)]
        assert got == sorted(bit_disjoint_reference(dict(p.terms)))
        assert peels[0] is None and peels[1] is not None and len(peels) == 2
    assert got  # the product splits once: (x^8 + 1) * (x^7 + x^2 + x + 1)


def test_bit_disjoint_dependency_hidden_modulo_the_prime():
    """1 + x + x^2 + (m + 1) x^3 with m = 2**61 - 1 is prime, but its one
    minor is m * z0 * z1, zero at every point modulo m; the next point is
    taken modulo m**2, where it shows."""
    m = polyfactor._PRIME
    p = P({3: m + 1, 2: 1, 1: 1, 0: 1})
    assert bit_disjoint_factor(p, Budget(max_steps=1000)) == []
    q = p * P({4: 1, 0: 1})
    assert bit_disjoint_factor(q, Budget(max_steps=1000)) == [(p, P({4: 1, 0: 1}))]


def test_bit_disjoint_recovers_random_products():
    rng = random.Random(31)
    for _ in range(30):
        bits = rng.sample(range(8), 6)
        p1 = poly_on_bits(rng, bits[:3])
        p2 = poly_on_bits(rng, bits[3:])
        if p1 == Poly1({0: 1}) or p2 == Poly1({0: 1}):
            continue
        p = p1 * p2
        pairs = bit_disjoint_factor(p)
        keys = {tuple(sorted((poly_key(a), poly_key(b)))) for a, b in pairs}
        assert tuple(sorted((poly_key(p1), poly_key(p2)))) in keys
        for a, b in pairs:
            assert a * b == p
            assert not tau_poly(a) & tau_poly(b)


def test_bit_disjoint_recovers_random_bivariate_products():
    rng = random.Random(32)
    one = Poly2({(0, 0): 1})
    for _ in range(15):
        bits = rng.sample(range(8), 6)
        p1 = poly_on_bits(rng, bits[:3], arity=2)
        p2 = poly_on_bits(rng, bits[3:], arity=2)
        if p1 == one or p2 == one:
            continue
        p = p1 * p2
        keys = {
            tuple(sorted((poly_key(a), poly_key(b))))
            for a, b in bit_disjoint_factor(p)
        }
        assert tuple(sorted((poly_key(p1), poly_key(p2)))) in keys
