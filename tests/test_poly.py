"""Polynomial semiring: construction, laws, text form, exact division."""

import random
import time
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bigraphpoly import (
    Poly1,
    Poly2,
    PolyParseError,
    add,
    content,
    divide_exact,
    evaluate,
    evaluate2,
    lift,
    mul,
    parse_poly,
    parse_poly1,
    parse_poly2,
    poly,
    poly_key,
    render,
)

from helpers import long_division, mul_reference, random_poly1, random_poly2, render_reference


# ---------------------------------------------------------------------------
# Construction and accessors.

def test_terms_merge_and_drop_zeros():
    p = Poly1([(2, 1), (2, 2), (0, 0)])
    assert dict(p.terms) == {2: 3}
    assert Poly1({5: 0}) == Poly1()


def test_terms_are_descending():
    p = Poly1({0: 1, 7: 1, 3: 2})
    assert list(p.terms) == [7, 3, 0]
    q = Poly2({(0, 2): 1, (1, 0): 1, (0, 0): 1})
    assert list(q.terms) == [(1, 0), (0, 2), (0, 0)]


def test_rejects_bad_coefficients_and_exponents():
    with pytest.raises(ValueError):
        Poly1({2: -1})
    with pytest.raises(ValueError):
        Poly1({-2: 1})
    with pytest.raises(ValueError):
        Poly1({2: 1.5})
    with pytest.raises(ValueError):
        Poly1({2: True})
    with pytest.raises(ValueError):
        Poly1({(1, 2): 1})  # wrong arity
    with pytest.raises(ValueError):
        Poly2({3: 1})
    with pytest.raises(ValueError):
        Poly2({(1, -1): 1})
    with pytest.raises(ValueError):
        Poly2({(1, 2, 3): 1})


def test_public_constructors_validate_what_arithmetic_skips():
    """Sums and products build their terms unchecked; Poly1 and Poly2 still
    check every term given to them."""
    for bad in ({2: -1}, {True: 1}, {(1, 2): 1}):
        with pytest.raises(ValueError):
            Poly1(bad)
    for bad in ({(1, 2): -1}, {(True, 0): 1}, {(0, False): 1}, {3: 1}, {(1, 2, 3): 1}):
        with pytest.raises(ValueError):
            Poly2(bad)
    p = Poly2({(1, 0): 2, (0, 3): 1})
    q = Poly2({(0, 0): 1, (2, 1): 1})
    for built in (mul(p, q), add(p, q)):
        checked = Poly2(dict(built.terms))
        assert built == checked and hash(built) == hash(checked)
        assert list(built.terms) == list(checked.terms)


def test_degree_and_constants():
    assert Poly1().degree == -1
    assert Poly1({0: 4}).degree == 0
    assert Poly1({3: 1}).degree == 3
    assert Poly1({3: 1, 0: 2}).constant_coeff() == 2
    assert Poly1({3: 1}).constant_coeff() == 0
    assert Poly1({0: 4}).is_constant() and Poly1().is_constant()
    assert not Poly1({1: 1}).is_constant()
    assert Poly2().degrees == (-1, -1)
    assert Poly2({(5, 3): 1, (0, 7): 2}).degrees == (5, 7)
    assert Poly2({(0, 0): 2}).is_constant()
    assert not Poly2({(0, 1): 1}).is_constant()


def test_monomial_and_truthiness():
    assert Poly1.monomial(3) == Poly1({3: 1})
    assert Poly2.monomial(1, 2, 5) == Poly2({(1, 2): 5})
    assert not Poly1()
    assert Poly1({0: 1})


def test_terms_view_is_read_only():
    p = Poly1({1: 1})
    with pytest.raises(TypeError):
        p.terms[2] = 5


def test_equality_and_hash():
    assert Poly1({1: 2, 0: 1}) == Poly1([(0, 1), (1, 2)])
    assert hash(Poly1({1: 2})) == hash(Poly1({1: 2}))
    assert Poly1({0: 1}) != Poly2({(0, 0): 1})


# ---------------------------------------------------------------------------
# Semiring laws.

def test_semiring_laws_univariate():
    rng = random.Random(11)
    zero, one = Poly1(), Poly1({0: 1})
    for _ in range(400):
        p = random_poly1(rng, allow_zero=True)
        q = random_poly1(rng, allow_zero=True)
        r = random_poly1(rng, allow_zero=True)
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p + zero == p and p * one == p and p * zero == zero


def test_semiring_laws_bivariate():
    rng = random.Random(12)
    zero, one = Poly2(), Poly2({(0, 0): 1})
    for _ in range(400):
        p = random_poly2(rng, allow_zero=True)
        q = random_poly2(rng, allow_zero=True)
        r = random_poly2(rng, allow_zero=True)
        assert p + q == q + p
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p + zero == p and p * one == p


def test_mul_matches_dict_oracle():
    rng = random.Random(13)
    for _ in range(200):
        p, q = random_poly1(rng), random_poly1(rng)
        assert dict(mul(p, q).terms) == mul_reference(p, q)


def packed_side(p, q):
    """Whether mul packs p and q into one integer product, read through
    the seam that answers None where the pair loop runs."""
    return poly._packed(p, q) is not None


def assert_mul_is_the_pair_loop(p, q):
    got = mul(p, q)
    assert list(got.terms.items()) == list(mul_reference(p, q).items())
    assert got == mul(q, p)


def random_dense(rng, arity, terms, top, degree):
    """About terms random terms below degree, coefficients from 1 to top."""
    if arity == 1:
        return Poly1({rng.randrange(degree): rng.randint(1, top) for _ in range(terms)})
    return Poly2({(rng.randrange(degree), rng.randrange(4)): rng.randint(1, top)
                  for _ in range(terms)})


# (stride in bytes, n, c): n terms, each with coefficient c, times itself
# has the bound c * c * n just below 2^(8 * stride), and its middle
# coefficient reaches that bound.  None is the pair loop, past 2^64.  Each
# n gives at least the 32 pairs below which mul never packs.
STRIDES = [(1, 7, 6), (2, 16, 63), (4, 16, 2**14 - 1), (8, 16, 2**30 - 1), (None, 16, 2**30)]


@pytest.mark.parametrize("stride, n, c", STRIDES)
@pytest.mark.parametrize("arity", [1, 2])
def test_mul_fills_each_stride_to_its_bound(stride, n, c, arity):
    p = Poly1({e: c for e in range(n)})
    if arity == 2:
        p = Poly2({(e // 4, e % 4): c for e in range(n)})
    bound = c * c * n
    assert (bound < 2**64) == (stride is not None)
    if stride is not None:
        assert 2 ** (8 * stride) // 256 <= bound < 2 ** (8 * stride)
    assert packed_side(p, p) == (stride is not None)
    assert_mul_is_the_pair_loop(p, p)
    if arity == 1:
        assert mul(p, p).terms[n - 1] == bound


@pytest.mark.parametrize("arity", [1, 2])
def test_mul_matches_the_pair_loop_on_random_operands(arity):
    """Dense and sparse operands, coefficients from 1 to past 2^64, on both
    sides of the gate; each coefficient range is met packed."""
    rng = random.Random(38 + arity)
    packed = Counter()
    for k in range(600):
        top = 2 ** rng.choice((1, 2, 6, 12, 24, 40, 70, 200))
        degree = rng.choice((1, 4, 30, 300, 2**20))
        p = random_dense(rng, arity, rng.randint(1, 40), top, degree)
        q = random_dense(rng, arity, rng.randint(1, 40), rng.choice((1, top)), degree)
        assert_mul_is_the_pair_loop(p, q)
        packed[top, packed_side(p, q)] += 1
    assert all(packed[top, True] for top, _ in packed if top < 2**24)
    assert all(packed[top, False] for top, _ in packed)


@pytest.mark.parametrize("arity", [1, 2])
def test_mul_with_empty_and_constant_operands(arity):
    cls = Poly1 if arity == 1 else Poly2
    rng = random.Random(7)
    zero, one = cls(), cls({cls.zero: 1})
    for _ in range(50):
        p = random_dense(rng, arity, rng.randint(1, 30), 2**rng.randint(1, 70), 50)
        c = rng.choice((1, 3, 2**64 + 1))
        assert mul(p, zero) == zero == mul(zero, p)
        assert mul(p, one) == p
        assert_mul_is_the_pair_loop(p, cls({cls.zero: c}))
        e = rng.randrange(9)
        assert_mul_is_the_pair_loop(p, cls({e if arity == 1 else (e, 1): c}))
    assert mul(zero, zero) == zero and mul(one, one) == one


def test_sparse_products_keep_the_pair_loop():
    """Terms of degree up to 2^20 and shifts by x^(2^40) would pack into
    megabytes or terabytes; the gate keeps the pair loop, which answers at
    once."""
    rng = random.Random(20)
    big = 1 << 20
    shift = 1 << 40
    start = time.perf_counter()
    pairs = [
        (Poly1({big: 1, 0: 1}), Poly1({5 * big: 1, 4 * big: 1, big: 2, 0: 1})),
        (Poly2({(big, 0): 1, (0, big): 2}), Poly2({(3 * big, 1): 1, (0, 0): 3})),
        (Poly1({shift + 1: 1, shift: 1}), Poly1({shift: 2, 1: 1})),
        (Poly1({shift + e: 1 for e in range(8)}), Poly1({e: 1 for e in range(8)})),
        (Poly2({(shift, 0): 1, (0, 0): 1}), Poly2({(shift + 1, 2): 3})),
    ]
    for _ in range(20):
        pairs.append(tuple(Poly1({rng.randrange(big): rng.randint(1, 9) for _ in range(20)})
                           for _ in range(2)))
    for p, q in pairs:
        assert not packed_side(p, q)
        assert_mul_is_the_pair_loop(p, q)
    assert time.perf_counter() - start < 1


def test_few_pairs_keep_the_pair_loop():
    """Below 32 pairs of terms packing costs more than the loop at any
    size, so even the densest operands are multiplied pair by pair."""
    for n, m in ((1, 1), (1, 31), (5, 6), (4, 8)):
        p, q = (Poly1({e: 1 for e in range(k)}) for k in (n, m))
        assert packed_side(p, q) == (n * m >= 32)
        assert_mul_is_the_pair_loop(p, q)


def test_the_gate_takes_the_faster_side_near_its_limit(monkeypatch):
    """Two random Poly1 of 300 draws below 2^13 pack into 16 K 2-byte
    slots, under the limit of about 71 KB for their 87,000 pairs; below
    2^16 they would pack into 256 KB, over it.  On each side the path mul
    takes is faster than the other, reached here by moving the limit
    (packing measured at 0.31-0.35 and 1.3-1.6 times the loop's time)."""
    rng = random.Random(0)
    for bits, packs in ((13, True), (16, False)):
        p, q = (Poly1(Counter(rng.randrange(2**bits) for _ in range(300))) for _ in range(2))
        assert packed_side(p, q) == packs
        best = {}
        for _ in range(5):
            for side, limit in ((True, float("inf")), (False, 0)):
                monkeypatch.setattr(poly, "_byte_limit", lambda pairs, limit=limit: limit)
                start = time.perf_counter()
                mul(p, q)
                best[side] = min(best.get(side, 1e9), time.perf_counter() - start)
                monkeypatch.undo()
        assert best[packs] < best[not packs], (bits, best)


def test_mixed_arity_is_an_error():
    with pytest.raises(TypeError):
        add(Poly1({1: 1}), Poly2({(1, 0): 1}))
    with pytest.raises(TypeError):
        mul(Poly1({1: 1}), Poly2({(1, 0): 1}))
    with pytest.raises(TypeError):
        Poly1({1: 1}) + Poly2({(1, 0): 1})
    with pytest.raises(TypeError):
        Poly1({1: 1}) * Poly2({(1, 0): 1})


def test_evaluation_is_a_homomorphism():
    rng = random.Random(14)
    for _ in range(150):
        p, q = random_poly1(rng), random_poly1(rng)
        p2, q2 = random_poly2(rng), random_poly2(rng)
        for t in range(4):
            assert evaluate(p + q, t) == evaluate(p, t) + evaluate(q, t)
            assert evaluate(p * q, t) == evaluate(p, t) * evaluate(q, t)
            assert evaluate2(p2 * q2, t, 3 - t) == evaluate2(p2, t, 3 - t) * evaluate2(
                q2, t, 3 - t
            )
    assert evaluate(Poly1({3: 2, 0: 1}), 2) == 17
    assert evaluate2(Poly2({(1, 2): 3}), 2, 3) == 54
    assert Poly1({1: 1})(5) == 5 and Poly2({(1, 1): 1})(2, 3) == 6


def test_evaluate_rejects_wrong_arity():
    with pytest.raises(TypeError):
        evaluate(Poly2({(1, 0): 1}), 2)
    with pytest.raises(TypeError):
        evaluate2(Poly1({1: 1}), 2, 3)


def test_lift_and_content():
    assert lift(Poly1({3: 2, 0: 1})) == Poly2({(3, 0): 2, (0, 0): 1})
    p2 = Poly2({(1, 1): 1})
    assert lift(p2) is p2
    assert content(Poly1({3: 6, 1: 9})) == 3
    assert content(Poly1()) == 0
    assert content(Poly2({(1, 0): 4, (0, 1): 10})) == 2


def test_poly_key_orders_by_terms():
    assert poly_key(Poly1({2: 1, 0: 3})) == ((2, 1), (0, 3))
    assert poly_key(Poly1({1: 1})) < poly_key(Poly1({2: 1}))
    assert poly_key(Poly2({(0, 2): 1})) < poly_key(Poly2({(1, 0): 1}))


# ---------------------------------------------------------------------------
# Text form.

def test_render_golden():
    assert render(Poly1()) == "0"
    assert render(Poly1({0: 1})) == "1"
    assert render(Poly1({1: 1})) == "x"
    assert render(Poly1({2: 2})) == "2*x^2"
    assert render(Poly1({7: 1, 5: 1, 0: 1})) == "x^7 + x^5 + 1"
    assert render(Poly1({3: 1, 2: 2, 1: 2, 0: 1})) == "x^3 + 2*x^2 + 2*x + 1"
    p = Poly1({3: 1, 2: 2, 0: 1})
    assert p.render() == render(p) == "x^3 + 2*x^2 + 1"


def test_render_golden_bivariate():
    assert render(Poly2()) == "0"
    assert render(Poly2({(0, 0): 3})) == "3"
    assert render(Poly2({(1, 2): 1})) == "x*y^2"
    assert render(Poly2({(0, 1): 4})) == "4*y"
    assert render(Poly2({(5, 3): 1, (2, 0): 2, (0, 1): 1, (0, 0): 2})) == (
        "x^5*y^3 + 2*x^2 + y + 2"
    )
    assert render(Poly2({(1, 2): 1, (1, 0): 1, (0, 2): 1, (0, 0): 1})) == (
        "x*y^2 + x + y^2 + 1"
    )


def test_parse_golden():
    assert parse_poly("0") == Poly1({0: 0})
    assert parse_poly("x^7 + x^5 + 1") == Poly1({7: 1, 5: 1, 0: 1})
    assert parse_poly("2*x^2") == Poly1({2: 2})
    assert parse_poly("x*y^2 + x + y^2 + 1") == Poly2(
        {(1, 2): 1, (1, 0): 1, (0, 2): 1, (0, 0): 1}
    )
    # duplicate monomials merge, repeated variables multiply
    assert parse_poly("x + x") == Poly1({1: 2})
    assert parse_poly("x*x*y") == Poly2({(2, 1): 1})
    assert parse_poly("x^2*y^0") == Poly2({(2, 0): 1})


def test_parse_is_whitespace_tolerant():
    assert parse_poly("  x ^ 2+ 1 ") == Poly1({2: 1, 0: 1})
    assert parse_poly("2 * x") == Poly1({1: 2})
    assert parse_poly("x\u3000+\u30001") == Poly1({1: 1, 0: 1})  # ideographic space
    assert parse_poly("x^\u0663") == Poly1({3: 1})  # Arabic-Indic digit three


def test_parse_render_round_trip():
    rng = random.Random(15)
    for _ in range(300):
        p = random_poly1(rng, allow_zero=True)
        assert parse_poly1(render(p)) == p
        q = random_poly2(rng, allow_zero=True)
        assert parse_poly2(render(q)) == q


@given(
    st.dictionaries(
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=1, max_value=9),
        max_size=6,
    )
)
def test_parse_render_round_trip_hypothesis(terms):
    p = Poly1(terms)
    assert parse_poly1(render(p)) == p


def test_long_coefficients_render_and_parse_back():
    """Python converts at most 4,300 digits between int and str in one
    call; text conversion must go past that in both directions."""
    big = 10**5000 + 1
    for p in (Poly1({3: big, 0: 1}), Poly2({(1, 2): big, (0, 0): big})):
        text = render(p)
        assert len(text) > 5000
        assert parse_poly(text) == p
        assert text in repr(p)
    assert str(Poly1({0: big})) == "1" + "0" * 4999 + "1"
    assert parse_poly("x^" + "9" * 5000) == Poly1({10**5000 - 1: 1})


def test_render_matches_the_reference_text():
    """Every shape of term: constant, x, y, powers, both variables,
    coefficient 1 and more, and numbers on both sides of 10**1000."""
    rng = random.Random(61)
    numbers = [0, 1, 2, 9, 10, 10**999, 10**1000 - 1, 10**1000, 10**1000 + 7, 10**2500 + 3]

    def natural():
        return rng.choice(numbers) if rng.random() < 0.3 else rng.randrange(40)

    cases = [Poly1(), Poly2()]
    for _ in range(300):
        cases.append(Poly1({natural(): natural() for _ in range(rng.randint(1, 5))}))
        cases.append(Poly2({(natural(), natural()): natural() for _ in range(rng.randint(1, 5))}))
    for p in cases:
        assert render(p) == render_reference(p), poly_key(p)


def test_parse_error_positions():
    with pytest.raises(PolyParseError) as e:
        parse_poly("")
    assert e.value.position == 0
    with pytest.raises(PolyParseError) as e:
        parse_poly("x^")
    assert e.value.position == 2
    with pytest.raises(PolyParseError) as e:
        parse_poly("x + + 1")
    assert e.value.position == 4
    assert "column 5" in str(e.value)
    with pytest.raises(PolyParseError) as e:
        parse_poly("x + ")
    assert "dangling '+'" in str(e.value)
    with pytest.raises(PolyParseError) as e:
        parse_poly("x^y")
    assert str(e.value).startswith("expected exponent, found 'y'")
    assert e.value.position == 2
    with pytest.raises(PolyParseError) as e:
        parse_poly("2*+")
    assert str(e.value).startswith("expected variable after '*', found '+'")
    assert e.value.position == 2
    # Superscript digits pass str.isdigit but not int(): they are stray
    # characters, reported where they stand.
    for text, message, position in [
        ("2*", "expected variable after '*'", 2),
        ("2x", "expected '+' or end of input, found 'x'", 1),
        ("x y", "expected '+' or end of input, found 'y'", 2),
        ("x*", "expected variable after '*'", 2),
        ("x*-1", "'-' is not allowed: coefficients are nonnegative", 2),
        ("x*2", "expected variable after '*', found '2'", 2),
        ("2^3", "expected '+' or end of input, found '^'", 1),
        ("x^\u00b2", "expected exponent, found '\u00b2'", 2),
        ("\u00b2", "expected coefficient or variable, found '\u00b2'", 0),
        ("x + \u00b3", "expected coefficient or variable, found '\u00b3'", 4),
    ]:
        with pytest.raises(PolyParseError) as e:
            parse_poly(text)
        assert str(e.value).startswith(message), text
        assert e.value.position == position, text


def test_parse_rejects_minus_with_hint():
    with pytest.raises(PolyParseError) as e:
        parse_poly("x^2 - 1")
    assert "nonnegative" in str(e.value)
    assert e.value.position == 4
    with pytest.raises(PolyParseError):
        parse_poly("-x")


def test_parse_requires_explicit_star():
    with pytest.raises(PolyParseError):
        parse_poly("2x")
    with pytest.raises(PolyParseError):
        parse_poly("x y")
    with pytest.raises(PolyParseError):
        parse_poly("2*")


def test_parse_rejects_stray_characters():
    with pytest.raises(PolyParseError) as e:
        parse_poly("x^2 + z")
    assert e.value.position == 6
    with pytest.raises(PolyParseError):
        parse_poly("(x + 1)")


def test_parse_poly1_rejects_y():
    with pytest.raises(PolyParseError):
        parse_poly1("x + y")
    assert parse_poly1("x + 1") == Poly1({1: 1, 0: 1})


def test_parse_poly2_lifts_pure_x():
    assert parse_poly2("x + 1") == Poly2({(1, 0): 1, (0, 0): 1})
    assert parse_poly2("y") == Poly2({(0, 1): 1})


# ---------------------------------------------------------------------------
# Exact division.

def test_divide_exact_golden():
    p = Poly1({3: 1, 2: 2, 1: 2, 0: 1})
    q = Poly1({1: 1, 0: 1})
    assert divide_exact(p, q) == Poly1({2: 1, 1: 1, 0: 1})
    assert divide_exact(p, Poly1({2: 1, 1: 1, 0: 1})) == q
    assert divide_exact(Poly1({5: 1, 2: 1}), Poly1({1: 1})) == Poly1({4: 1, 1: 1})


def test_divide_exact_failures():
    # x^2 + 1 over the naturals has no factor x + 1
    assert divide_exact(Poly1({2: 1, 0: 1}), Poly1({1: 1, 0: 1})) is None
    # divisible over the integers, but the quotient x^2 - x + 1 leaves the semiring
    assert divide_exact(Poly1({3: 1, 0: 1}), Poly1({1: 1, 0: 1})) is None
    # leading coefficient does not divide
    assert divide_exact(Poly1({2: 3}), Poly1({1: 2})) is None
    assert divide_exact(Poly1({1: 1}), Poly1({2: 1})) is None


def test_divide_exact_bivariate():
    p = Poly2({(1, 2): 1, (1, 0): 1, (0, 2): 1, (0, 0): 1})
    assert divide_exact(p, Poly2({(0, 2): 1, (0, 0): 1})) == Poly2(
        {(1, 0): 1, (0, 0): 1}
    )
    assert divide_exact(p, Poly2({(1, 1): 1})) is None


def test_divide_exact_stops_at_first_impossible_remainder():
    # x^(2^22) + 1 over x + 1: the first quotient term x^(2^22 - 1) puts a
    # product on x^(2^22 - 1), off supp(p), so the walk ends at p's first
    # term and never steps through the degree.
    start = time.perf_counter()
    assert divide_exact(Poly1({1 << 22: 1, 0: 1}), Poly1({1: 1, 0: 1})) is None
    assert time.perf_counter() - start < 1.0
    # the first quotient term x^2 puts a product on x^2, outside supp(p)
    assert divide_exact(Poly1({3: 1, 1: 1}), Poly1({1: 1, 0: 1})) is None
    assert divide_exact(
        Poly2({(2, 0): 1, (0, 1): 1}), Poly2({(1, 0): 1, (0, 0): 1})
    ) is None


def test_divide_exact_sparse_high_degree_divisible():
    big = 1 << 20
    q = Poly1({big: 1, 0: 1})
    r = Poly1({5 * big: 1, 4 * big: 1, big: 2, 0: 1})
    assert divide_exact(q * r, q) == r
    assert divide_exact(q * r, r) == q
    q2 = Poly2({(big, 0): 1, (0, big): 2})
    r2 = Poly2({(3 * big, 1): 1, (0, 0): 3})
    assert divide_exact(q2 * r2, q2) == r2
    assert divide_exact(q2 * r2, r2) == q2


def test_divide_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        divide_exact(Poly1({1: 1}), Poly1())
    with pytest.raises(ZeroDivisionError):
        divide_exact(Poly2({(1, 0): 1}), Poly2())


def test_divide_exact_round_trip():
    rng = random.Random(16)
    for _ in range(300):
        p = random_poly1(rng, allow_zero=True)
        q = random_poly1(rng)
        assert divide_exact(p * q, q) == p
        p2 = random_poly2(rng, allow_zero=True)
        q2 = random_poly2(rng)
        assert divide_exact(p2 * q2, q2) == p2


def test_divide_exact_of_one_variable_is_the_lifted_division_read_back():
    """A Poly1 pair divides as its lift does, with the y dropped from the
    quotient: exact multiples, near misses and None alike."""
    rng = random.Random(18)
    answered = 0
    for _ in range(400):
        q = random_poly1(rng)
        p = random_poly1(rng, allow_zero=True) * q
        if rng.random() < 0.5:
            p = p + Poly1({rng.randint(0, max(p.degree, 0) + 2): 1})
        got = divide_exact(p, q)
        lifted = divide_exact(lift(p), lift(q))
        if lifted is None:
            assert got is None
        else:
            assert all(y == 0 for _, y in lifted.terms)
            assert got == Poly1({x: c for (x, _), c in lifted.terms.items()})
            answered += 1
    assert 100 < answered < 350


def test_divide_exact_rejects_near_multiples():
    """divide_exact gives long division's answer in both arities: on exact
    multiples, products with one term bumped, q or the product times x^m or
    x^a * y^b, coefficients past 2^64 and the zero dividend.  A natural
    q * (d - m), for d dense and m one monomial past d's coefficient, has
    only an integer quotient, so a walk that let a quotient coefficient go
    negative would answer it."""
    rng = random.Random(17)
    met = Counter()
    for _ in range(500):
        arity = rng.choice((1, 2))
        top = 2 ** rng.choice((2, 8, 70))
        make, cls = (random_poly1, Poly1) if arity == 1 else (random_poly2, Poly2)
        p, q = make(rng, max_coeff=top, allow_zero=True), make(rng, max_coeff=top)
        if arity == 1:
            shift = Poly1({rng.randrange(4): 1})
            bump = Poly1({rng.randint(0, max(p.degree + q.degree, 0) + 1): 1})
            dense, hole = Poly1({e: top for e in range(8)}), rng.randrange(1, 7)
        else:
            shift = Poly2({(rng.randrange(3), rng.randrange(3)): 1})
            bump = Poly2({(rng.randrange(12), rng.randrange(12)): 1})
            dense, hole = Poly2({(i, j): top for i in range(3) for j in range(3)}), (1, 1)
        prod = p * q
        cases = [(prod, q), (prod + bump, q), (prod * shift, q), (prod, q * shift),
                 (prod * shift, q * shift), (cls(), q)]
        minus = (q * cls({hole: top + 1})).terms
        near = {e: c - minus.get(e, 0) for e, c in (q * dense).terms.items()}
        if min(near.values()) >= 0:
            cases.append((cls(near), q))
            met["integer quotient"] += 1
        for a, b in cases:
            got = divide_exact(a, b)
            assert got == long_division(a, b), (a, b)
            assert got is None or got * b == a
            met[arity, top > 2**64, got is not None] += 1
    assert len(met) == 9 and min(met.values()) > 50, met


def test_divide_exact_on_a_packed_size_product():
    """The product of 9,250 draws below 2^16 and 60 draws below 2^6, about
    65,000 terms, divides back in one walk over its terms, and the same
    product plus x gives None as fast.  Long division, which scanned the
    whole remainder for every quotient term, took about 9 s on each."""
    rng = random.Random(0)
    p = Poly1({rng.randrange(2**16): rng.randint(1, 9) for _ in range(9250)})
    q = Poly1({rng.randrange(2**6): rng.randint(1, 9) for _ in range(60)})
    prod = mul(p, q)
    assert len(prod.terms) > 65_000
    start = time.perf_counter()
    assert divide_exact(prod, q) == p
    assert time.perf_counter() - start < 3
    start = time.perf_counter()
    assert divide_exact(prod + Poly1({1: 1}), q) is None
    assert time.perf_counter() - start < 3


@pytest.mark.parametrize("make, terms, match", [
    (Poly1, {"9" * 100_000: 1}, "bad exponent"),
    (Poly1, {-10**5000: 1}, "bad exponent"),
    (Poly2, {(1, -10**5000): 1}, "bad exponent"),
    (Poly1, {1: "9" * 100_000}, "must be an integer"),
    (Poly1, {1: -10**5000}, "must be nonnegative, got a negative 5001-digit number"),
])
def test_term_error_text_stays_short(make, terms, match):
    with pytest.raises(ValueError, match=match) as err:
        make(terms)
    assert len(str(err.value)) < 300
