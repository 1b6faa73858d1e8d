"""Exhaustive two-factor searches: goldens, oracle sweeps, budget behavior."""

import random
import time
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bigraphpoly import (
    Budget,
    BudgetExceededError,
    Poly1,
    Poly2,
    bit_disjoint_factor,
    compact_labeling,
    content,
    encode,
    factor_pairs,
    lift,
    net_product,
    parse_poly1,
    poly_key,
    polyfactor,
    render,
    tau_poly,
)

from helpers import (
    bit_disjoint_reference,
    dense_key,
    factor_pair_table,
    poly_on_bits,
    random_digraph,
    random_labeling,
    random_net,
    record_points,
)


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


@pytest.mark.parametrize("steps", ["9" * 100_000, -10**5000, 10.0**300, [0] * 100_000],
                         ids=["digit-string", "huge-negative", "float", "long-list"])
def test_budget_error_text_stays_short(steps):
    with pytest.raises(ValueError, match="max_steps must be a natural number") as err:
        Budget(max_steps=steps)
    assert len(str(err.value)) < 300


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


def _z_factors(*polys):
    """The irreducible factors over Z of the product of polys, as
    {((exponent, coefficient), ...): multiplicity}, from sympy.factor_list
    of each; the content of each must be 1."""
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    irreducible = {}
    for p in polys:
        c, factors = sympy.factor_list(sympy.Poly(p, x))
        assert c == 1, p
        for f, e in factors:
            key = tuple(sorted((int(k[0]), int(v)) for k, v in f.terms()))
            irreducible[key] = irreducible.get(key, 0) + e
    return irreducible


def _complete_splits(irreducible, c, m):
    """Every N-split of c * x^m times the product of the irreducible
    factors over Z, given as {terms: multiplicity}: every grouping of them
    into two sides with no negative coefficient, with c and x^m spread
    over both sides."""
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
            irreducible = _z_factors(*(f"x**{a} + 1" for a in binomials))
            assert got == _complete_splits(irreducible, c, m), (binomials, c, m)


def test_factor_pairs_matches_sympy_on_dense_products():
    """Products of two or three dense factors with coefficients 1 to 4, of
    degree 5 to 10 in all, some multiplied by 2 or 6: past the brute-force
    oracle's degree 4, checked against every grouping of their irreducible
    factors over Z."""
    pytest.importorskip("sympy")
    rng = random.Random(2019)
    for _ in range(40):
        degree = rng.randint(5, 10)
        cuts = sorted(rng.sample(range(1, degree), rng.randint(1, 2)))
        degrees = [b - a for a, b in zip([0, *cuts], [*cuts, degree])]
        factors = [P({i: rng.randint(1, 4) for i in range(d + 1)}) for d in degrees]
        p = P({0: rng.choice((1, 1, 2, 6))})
        for f in factors:
            p = p * f
        assert p.degree == degree
        c = content(p)  # a factor may bring content of its own
        core = {e: v // c for e, v in p.terms.items()}
        irreducible = _z_factors(" + ".join(f"{v}*x**{e}" for e, v in core.items()))
        got = {tuple(sorted((poly_key(q), poly_key(r)))) for q, r in factor_pairs(p)}
        assert got == _complete_splits(irreducible, c, 0), render(p)


def test_bipartition_budget_interrupts_huge_coefficients():
    with pytest.raises(BudgetExceededError):
        bit_disjoint_factor(P({1: 2**70, 0: 2**70}))


@pytest.mark.parametrize("c", [1, 2])
def test_huge_power_of_x_overdraws_at_once(c):
    """The shifts of x^(10^20) number about 10^20, more than a range has a
    len for: they are counted, not measured, so the budget stops it."""
    with pytest.raises(BudgetExceededError, match="emitting the factors"):
        factor_pairs(P({10**20: c}))


def test_bit_disjoint_charges_every_pair_before_building_one():
    """x^(2^24 - 1) has 24 one-term blocks and 2^23 - 1 pairs of 2 terms:
    the count overdraws the default budget before a product is built."""
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match=r"\(16777790 asked for\)"):
        bit_disjoint_factor(P({2**24 - 1: 1}))
    assert time.perf_counter() - start < 1


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


def n_poly(low, middle, lead):
    """low + middle[0] x + ... + lead x^d, d = len(middle) + 1; a middle
    coefficient 0 leaves its term out."""
    return Poly1({0: low, **{e: c for e, c in enumerate(middle, 1) if c}, len(middle) + 1: lead})


# q in N[x] with q(0) >= 1, degree 1 to 7 and nonzero coefficients 1 to 4.
n_polys = st.builds(
    n_poly, st.integers(1, 4), st.lists(st.integers(0, 4), max_size=6), st.integers(1, 4)
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(n_polys, n_polys)
def test_factor_pairs_lists_random_products(q, r):
    """The product of random q and r lists (q, r), in either order, and
    every pair multiplies back: degrees and coefficient sums past the
    brute-force oracle's."""
    p = q * r
    pairs = factor_pairs(p)
    assert all(a * b == p for a, b in pairs)
    assert (q, r) in pairs or (r, q) in pairs


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
    # terms; bit 1's variable holds the same two terms as bit 0's, not all
    # four, so it joins bit 0's class untested; 3 dependency tests, one step
    # each plus the terms they read (bit 2 against bit 0: 2, a new class;
    # bit 3 against bits 0 and 2: 1 + 2, a new class), so 3 + 5 = 8; peeling
    # {0, 1} and then {2} off (4 + 2 terms read); and the 13 terms of the 3
    # emitted pairs come to 4 + 8 + 6 + 13 = 31 steps
    p = P({15: 1, 12: 1, 7: 1, 4: 1})
    with pytest.raises(BudgetExceededError):
        bit_disjoint_factor(p, Budget(max_steps=2))
    with pytest.raises(BudgetExceededError):
        bit_disjoint_factor(p, Budget(max_steps=30))
    assert len(bit_disjoint_factor(p, Budget(max_steps=31))) == 3


def test_bit_disjoint_joins_the_two_variables_of_each_bit():
    """(1 + X0*Y1)(1 + X1*Y0), with Xt and Yt bit t of the x and y exponents:
    the variables fall into the classes {X0, Y1} and {X1, Y0}, but bits 0
    and 1 each have a variable in both, so they form one block and there is
    no bit-disjoint split.  Times x^16*y^16 + 1, on bit 4, it splits once."""
    p = Poly2({(0, 0): 1, (1, 2): 1, (2, 1): 1, (3, 3): 1})
    assert p == Poly2({(0, 0): 1, (1, 2): 1}) * Poly2({(0, 0): 1, (2, 1): 1})
    assert bit_disjoint_factor(p) == []
    q = Poly2({(16, 16): 1, (0, 0): 1})
    pairs = bit_disjoint_factor(p * q)
    assert len(pairs) == 1 and set(pairs[0]) == {p, q}


def test_bit_disjoint_matches_the_full_scan_reference():
    """Random products over one to three bit groups, a group possibly
    empty (a constant factor), times a content of 1, 2, 6 or 12; and three
    with two variables in every term, which must stay apart as monomial
    blocks although they hold the same terms."""
    every = [P({3: 1}) * P({4: 1, 0: 1}), Poly2({(1, 2): 1}) * Poly2({(4, 8): 1, (0, 0): 1})]
    every.append(P({3: 2}) * P({4: 1, 0: 3}))
    for p, count in zip(every, (3, 3, 7)):
        got = [tuple(sorted((poly_key(a), poly_key(b)))) for a, b in bit_disjoint_factor(p)]
        assert got == sorted(bit_disjoint_reference(dict(p.terms))) and len(got) == count, p
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


def drop_y(p):
    """The Poly1 of a Poly2 whose y-exponents are all 0."""
    assert all(y == 0 for _, y in p.terms)
    return Poly1({x: c for (x, _), c in p.terms.items()})


def test_one_variable_search_is_the_lift_read_back():
    """N[x] is the y-degree-0 part of N[x,y]: on one-variable input the
    search gives the pairs of its lift with the y dropped, in the same
    order, prime inputs and raised coefficients included."""
    rng = random.Random(35)
    split = 0
    for _ in range(300):
        bits = rng.sample(range(10), rng.randint(0, 8))
        cuts = sorted(rng.randint(0, len(bits)) for _ in range(rng.randint(0, 3)))
        groups = [bits[i:j] for i, j in zip([0, *cuts], [*cuts, len(bits)])]
        p = P({0: rng.choice((1, 2, 6, 12))})
        for group in groups:
            p = p * poly_on_bits(rng, group)
        if rng.random() < 0.2:
            p = p + P({rng.choice(list(p.terms)): rng.randint(1, 3)})
        pairs = bit_disjoint_factor(p)
        assert pairs == [(drop_y(a), drop_y(b)) for a, b in bit_disjoint_factor(lift(p))], p
        split += bool(pairs)
    assert split > 100


def test_bit_disjoint_verification_rejects_a_point_that_misses_a_dependency(monkeypatch):
    """At the first point, (1, 1, 1), the minors of the prime
    1 + x + x^2 + x^7 leave bit 1 apart from bits 0 and 2, and at
    (z0, z1, z2) = (-1, -1, 1), patched in as the first seeded draw, they
    all vanish, so both points report blocks that are too fine.  The exact
    check must reject both, and the second draw must give the reference's
    answer, alone and times x^8 + 1; and times x^8, alone and with
    x^16 + 1, where p(0) = 0 and the least term, x^8, is the anchor.  At
    both points 1 + x + x^2 + x^3 + x^4 + x^7 gets the blocks {0, 1} and
    {2}; its grid over them is rank 1 where filled but lacks x^5 and x^6,
    so only the count of the grid's cells rejects them."""
    real_points, real_peel = polyfactor._points, polyfactor._peel
    peels = []

    def points(count):
        drawn = real_points(count)
        yield [polyfactor._PRIME - 1, polyfactor._PRIME - 1, 1] + next(drawn)[3:]
        yield from drawn

    def peel(*args):
        peels.append(real_peel(*args))
        return peels[-1]

    monkeypatch.setattr(polyfactor, "_points", points)
    monkeypatch.setattr(polyfactor, "_peel", peel)
    prime = P({7: 1, 2: 1, 1: 1, 0: 1})
    counts = []
    cases = [prime, prime * P({8: 1, 0: 1}), prime * P({8: 1}), prime * P({24: 1, 8: 1})]
    for p in cases + [P({7: 1, 4: 1, 3: 1, 2: 1, 1: 1, 0: 1})]:
        peels.clear()
        got = [tuple(sorted((poly_key(a), poly_key(b)))) for a, b in bit_disjoint_factor(p)]
        assert got == sorted(bit_disjoint_reference(dict(p.terms)))
        assert peels[:2] == [None, None] and peels[2] is not None and len(peels) == 3
        counts.append(len(got))
    # (x^8 + 1) * prime; x^8 * prime; and x^8, x^16 + 1 and prime paired 3 ways.
    assert counts == [0, 1, 1, 3, 0]


def test_bit_disjoint_dependency_hidden_modulo_the_prime(monkeypatch):
    """1 + x + x^2 + (m + 1) x^3 with m = 2**61 - 1 is prime, and its one
    minor is m * z0 * z1: zero at every point modulo m.  p(1)**2 exceeds
    m, so the first point (1, 1) takes it modulo m as well; the first
    seeded point, taken modulo m, misses it too, and the second, taken
    modulo m**2, shows it: alone and times x^4 + 1.  With the first point's
    verification failed on purpose the draws are the same."""
    m = polyfactor._PRIME
    p = P({3: m + 1, 2: 1, 1: 1, 0: 1})
    q = p * P({4: 1, 0: 1})
    cases = [(p, []), (q, [(p, P({4: 1, 0: 1}))])]
    for r, want in cases:
        assert bit_disjoint_factor(r, Budget(max_steps=1000)) == want
    real_peel = polyfactor._peel
    peels = []

    def peel(*args):
        peels.append(real_peel(*args) if peels else None)
        return peels[-1]

    monkeypatch.setattr(polyfactor, "_peel", peel)
    for r, want in cases:
        peels.clear()
        assert bit_disjoint_factor(r, Budget(max_steps=1000)) == want
        assert peels[1] is None and peels[2] is not None and len(peels) == 3


def test_bit_disjoint_charges_a_point_before_drawing_it(monkeypatch):
    """Each point is charged its terms before it is drawn and evaluated: on
    1 + x, whose one class makes no test, a budget of three points and one
    step, with no verification passing, draws points 1 and 2 only."""
    drawn = record_points(monkeypatch)
    monkeypatch.setattr(polyfactor, "_peel", lambda terms, masks, meter: None)
    with pytest.raises(BudgetExceededError, match="in the dependency test"):
        bit_disjoint_factor(Poly1({0: 1, 1: 1}), Budget(max_steps=7))
    assert len(drawn) == 2


def test_mask_sums_are_the_sums():
    """The sum over a mask of indices equals sum() of the values it
    selects: on ones alone (a popcount), 0 and 1, small values, values past
    2**64, residues modulo (2**61 - 1)**2, and lists of zeros."""
    rng = random.Random(37)
    m = polyfactor._PRIME
    draws = [
        lambda: 1,
        lambda: rng.randint(0, 1),
        lambda: rng.randint(0, 300),
        lambda: rng.choice((0, 1, 1 << 64, (1 << 64) + 1, rng.randrange(1 << 200))),
        lambda: rng.randrange(m * m),
    ]
    for draw in draws * 50:
        values = [draw() for _ in range(rng.randint(1, 70))]
        weight = polyfactor._mask_sum(values)
        for mask in (0, (1 << len(values)) - 1, *(rng.getrandbits(len(values)) for _ in range(5))):
            want = sum(v for i, v in enumerate(values) if mask >> i & 1)
            assert weight(mask) == want, (values, mask)
    assert polyfactor._mask_sum([0, 0, 0])(7) == 0


def test_bit_disjoint_on_a_million_bit_coefficient_and_exponent():
    """A coefficient past 2**(10**6) and an exponent of 2**(10**6) answer
    within a time bound: a sum over a term mask adds the values it selects,
    and the holder masks cut each exponent into bytes once."""
    big = (1 << 10**6) + 1
    far = 1 << 10**6
    cases = [
        (Poly1({0: 1, 1: 1}), Poly1({0: 1, 2: big})),
        (Poly1({0: 1, far: 1}), Poly1({0: 1, 1: big})),
        (Poly2({(0, 0): 1, (1, 2): big}), Poly2({(0, 0): 1, (4, 0): 1, (far, far): 3})),
    ]
    start = time.perf_counter()
    for a, b in cases:
        assert bit_disjoint_factor(a * b) in ([(a, b)], [(b, a)])
    assert time.perf_counter() - start < 2


def test_bit_disjoint_first_point_reduces_values_past_the_prime(monkeypatch):
    """At the point (1, ..., 1) the minors are exact modulo p(1)**2 + 1 while
    that is at most 2**61 - 1; past it, the coefficients are reduced once
    and the minors taken modulo 2**61 - 1, so a million-bit coefficient is
    not multiplied.  (blocks records the bit length of the largest value
    and the modulus of each point.)"""
    m = polyfactor._PRIME
    seen = []
    real = polyfactor._blocks

    def blocks(values, holders, modulus, meter):
        seen.append((max(values).bit_length(), modulus if modulus <= m else "past the prime"))
        return real(values, holders, modulus, meter)

    monkeypatch.setattr(polyfactor, "_blocks", blocks)
    huge = P({e: (1 << 10**6) + 1 if e & 4 else 1 for e in range(64)})
    pairs = bit_disjoint_factor(huge)
    assert len(pairs) == 31 and all(q * r == huge for q, r in pairs)
    assert seen == [((((1 << 10**6) + 1) % m).bit_length(), m)]
    seen.clear()
    small = P({3: 5, 2: 1, 1: 5, 0: 1})  # (1 + 5x)(1 + x^2)
    assert bit_disjoint_factor(small) == [(P({1: 5, 0: 1}), P({2: 1, 0: 1}))]
    assert seen == [(3, 12**2 + 1)]


def test_split_lists_hold_no_repeated_pair():
    """x^2 (x + 1)^2 spreads x^2 over the split (x + 1, x + 1) both ways,
    and the content 6 of a constant over (1, 1) both ways; each pair is
    listed once.  Bit-disjoint splits of content 1 are distinct by
    construction, one per subset of the prime blocks."""
    pairs = factor_pairs(parse_poly1("x^4 + 2*x^3 + x^2"))
    assert len(pairs) == len(set(pairs)) == 4
    assert bit_disjoint_factor(P({0: 6})) == [(P({0: 2}), P({0: 3}))]
    rng = random.Random(40)
    for _ in range(100):
        net = net_product(random_net(rng, 3, 3), random_net(rng, 3, 3))
        pairs = bit_disjoint_factor(encode(net, compact_labeling(net)))
        assert len(pairs) == len(set(pairs))


def test_bit_disjoint_matches_the_reference_on_nets_digraphs_and_polys(monkeypatch):
    """On seeded random nets, pointed products of two nets, digraphs, and
    products of Poly2 and Poly1 on disjoint bits with a content of 1, 2 or
    6 and coefficients past 2**64 off the least term, and two with bit 300,
    the pairs are the brute-force reference's; some of the searches need a
    seeded point."""
    rng = random.Random(38)
    big = 1 << 64
    cases = []
    for _ in range(60):
        net = random_net(rng, 4, 4)
        cases.append(encode(net, random_labeling(rng, net.conditions, 6)))
        net = net_product(random_net(rng, 3, 3), random_net(rng, 3, 3))
        cases.append(encode(net, compact_labeling(net)))
        g = random_digraph(rng, 4, 4)
        cases.append(encode(g, random_labeling(rng, g.v_vertices, 6)))
    for arity, make in ((1, Poly1), (2, Poly2)):
        for _ in range(60):
            bits = rng.sample(range(7), rng.randint(1, 6))
            cut = rng.randint(0, len(bits))
            p = make({make.zero: rng.choice((1, 2, 6))})
            for group in (bits[:cut], bits[cut:]):
                f = poly_on_bits(rng, group, arity=arity)
                least = min(f.terms)
                p = p * make({e: v + big * (e != least) * rng.randint(0, 1)
                              for e, v in f.terms.items()})
            cases.append(p)
    high = 1 << 300  # a bit far past the others: its own byte column
    cases += [P({high: 1, 0: 1}) * P({3: 1, 1: 2, 0: 1}), Poly2({(high, 1): 2, (1, high): 1})]
    draws = record_points(monkeypatch)
    for p in cases:
        got = [tuple(sorted((poly_key(a), poly_key(b)))) for a, b in bit_disjoint_factor(p)]
        assert got == sorted(bit_disjoint_reference(dict(p.terms))), p
    assert any(max(p.terms.values()) > big for p in cases)
    assert draws


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
