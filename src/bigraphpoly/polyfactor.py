"""Complete two-factor searches over the nonnegative-coefficient semirings.

``factor_pairs`` lists every way to write a one-variable polynomial as a
product of two nonconstant polynomials.  Over the naturals no coefficients
cancel, so supp(q*r) = supp(q) + supp(r) exactly: the one-variable, exact
form of the Newton-polytope argument (Gao, "Absolute irreducibility of
polynomials via Newton polytopes", J. Algebra 2001).  Both factors of a
polynomial p with p(0) > 0 therefore live on supp(p).  The search sets the
factor q of degree at most deg(p)/2 one coefficient at a time, at the
exponents of supp(p) in ascending order; the low-end recurrence
p_k = sum_i q_i * r_(k-i) then fixes each cofactor coefficient r_k, which
must be a natural number and keep supp(q) + supp(r) inside supp(p).  With
q(1) fixed in turn to each divisor s of p(1), the running coefficient sums
of q and r are bounded by s and p(1)/s.  The work follows the number of
terms, not the degree.

``bit_disjoint_factor`` restricts to factor pairs whose exponent bit
supports do not meet.  Reading each exponent bit as a variable (a pre and
a post variable per bit for two-variable input) makes p a multilinear
polynomial, and a bit-disjoint split a variable-disjoint factorization.
Such factorizations are unions of one finest partition into prime blocks,
and two variables lie in different blocks iff P * d_uw P = d_u P * d_w P
(Shpilka & Volkovich, "On the relation between polynomial identity testing
and finding variable disjoint factors", ICALP 2010), so lying in one block
is an equivalence relation on the variables.  The search tests that
identity at a random point modulo 2**61 - 1 between each variable and one
representative of each class found so far, joins the bits of each class
and the two variables of each bit with union-find, and verifies the blocks
exactly: split off one at a time, the coefficient grid over a block and the
bits left must be an outer product, whose primitive first row and column
are the factors.  A point that misses a dependency fails that check and
another is drawn.  The work is about |support| * classes * terms plus the
size of the output, where testing every pair of bits took
|support|**2 * terms and a scan of the bipartitions
2**(|support| - 1) * terms.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from math import gcd, isqrt, log10

from .bits import from_bits, tau_poly
from .errors import BudgetExceededError
from .poly import Poly1, Poly2, content, poly_key


@dataclass(frozen=True)
class Budget:
    """The work allowance of one call to any search: the factor searches,
    the isomorphism search and the canonical form.

    max_steps is a natural number.  In the factor searches a step is one
    coefficient read, one search node or coefficient value tried, one trial
    division while listing the divisors of the content, of p(0) or of p(1),
    or one term of an emitted factor pair.  core.is_isomorphic and
    core.canonical_poly define their steps in their docstrings.  A call
    that runs several searches, such as the labeling sweep of
    is_irreducible, spends one allowance on all of them.  Exceeding it
    raises BudgetExceededError, so an empty result is always a
    completed-search certificate.
    """

    max_steps: int = 10_000_000

    def __post_init__(self):
        steps = self.max_steps
        if isinstance(steps, bool) or not isinstance(steps, int) or steps < 0:
            raise ValueError(f"max_steps must be a natural number, not {steps!r}")


def _show(n):
    """n in decimal, or by its number of digits once that gets long, so
    error text stays short however large the values are."""
    if n < 10**15:
        return str(n)
    digits = int(n.bit_length() * log10(2))
    if n >= 10**digits:
        digits += 1
    return f"a {digits}-digit number"


class _Meter:
    """The steps left of one call's Budget.  Every search the call runs
    charges its work here, and search names the one now running."""

    __slots__ = ("allowance", "left", "search")

    def __init__(self, budget: Budget):
        self.allowance = self.left = budget.max_steps
        self.search = "the search"

    def charge(self, steps, phase):
        self.left -= steps
        if self.left < 0:
            asked = self.allowance - self.left  # all steps charged, this one included
            raise BudgetExceededError(
                f"{self.search} used up the budget of "
                f"{_show(self.allowance)} steps in {phase} ({_show(asked)} asked for)"
            )


def _divisors(n, meter):
    """Positive divisors of a positive integer, ascending.

    The whole scan is charged before it starts, so a huge value overdraws
    the allowance at once instead of running away.
    """
    meter.charge(isqrt(n) + 1, f"listing the divisors of {_show(n)}")
    small, large = [], []
    i = 1
    while i * i <= n:
        if n % i == 0:
            small.append(i)
            if i * i != n:
                large.append(n // i)
        i += 1
    large.reverse()
    return small + large


def _keyed(q, r):
    """(key, pair) of the unordered pair q, r: the two poly_keys in order,
    and the pair in the same order; each poly_key is computed once."""
    a, b = poly_key(q), poly_key(r)
    return ((a, b), (q, r)) if a <= b else ((b, a), (r, q))


def _splits(p: Poly1, meter: _Meter) -> list:
    """Unordered nonconstant splits of a primitive p with p(0) > 0 and
    degree at least 2, by the coefficient search."""
    coef = dict(p.terms)
    exps = sorted(coef)
    m = len(exps)
    n = exps[-1]
    nq = bisect_right(exps, n // 2)  # q sits on exps[:nq]
    # On a mostly filled support, the sumset checks look for a gap instead.
    gaps = sorted(set(range(n)).difference(coef)) if n < 2 * m else None
    p0, total = coef[0], sum(coef.values())
    sums = _divisors(total, meter)
    # A nonconstant factor with a nonzero constant term has q(1) >= 2.
    if nq < 2 or len(sums) < 3:
        return []
    heads = _divisors(p0, meter)
    charge = meter.charge

    def fits(e, part):
        """Whether e + supp(part) stays inside supp(p), charging the entries
        read; part lists its exponents in ascending order."""
        if not part:
            return True
        top = e + next(reversed(part))
        if top > n:
            return False
        if gaps is not None:
            window = gaps[bisect_right(gaps, e):bisect_right(gaps, top)]
            if len(window) < len(part):
                charge(len(window), "the coefficient search")
                return not any(h - e in part for h in window)
        charge(len(part), "the coefficient search")
        return all(e + j in coef for j in part)

    def node(t, qsum, rsum):
        """The choices at e = exps[t] after q and r summed to qsum and rsum
        below e: the q_e values to try, what the recurrence at e leaves for
        q_e * r0 + q0 * r_e, and whether q_e and r_e may both be positive."""
        e = exps[t]
        big = coef[e] - sum([c * r.get(e - i, 0) for i, c in q.items()])
        rleft = rs - rsum
        if t == nq - 1:
            first = hi = s - qsum  # q's last place: q(1) must come to s
        elif big % g:
            first, hi = 1, 0
        else:
            hi = min(s - qsum, big // r0)
            lo = max(0, -((q0 * rleft - big) // r0))  # r_e fits in r(1)
            # q0 must divide big - q_e * r0: one residue class mod step.
            first = lo + (big // g * inv - lo) % step
        # supp(q) + supp(r) must stay inside supp(p).
        if hi > 0 and not fits(e, r):
            hi = 0
        if first <= hi and not fits(e, q):
            first, hi = max(first, -(-big // r0)), min(hi, big // r0)  # r_e = 0
        values = range(first, hi + 1, step)
        charge(1 + len(values) + len(q), "the coefficient search")
        return iter(values), big, e + e in coef, qsum, rsum

    def cofactor(t, rsum):
        """r completed on exps[t:] once q is complete, or None."""
        full = dict(r)
        rleft = rs - rsum
        for e in exps[t:]:
            charge(1 + len(q), "the coefficient search")
            big = coef[e] - sum([c * full.get(e - i, 0) for i, c in q.items()])
            if big < 0 or big % q0:
                return None
            rk = big // q0
            if rk:
                if rk > rleft or not fits(e, q):
                    return None
                full[e] = rk
                rleft -= rk
        return full

    found = {}
    for s in sums[1:-1]:
        rs = total // s
        for q0 in heads:
            r0 = p0 // q0
            if q0 >= s or r0 >= rs:
                continue
            g = gcd(q0, r0)
            step = q0 // g
            inv = pow(r0 // g, -1, step)
            # The positive coefficients above the constant terms.
            q, r = {}, {}
            # frames[t - 1] holds the choices at exps[t], for t < nq.
            frames = [node(1, q0, r0)]
            t = 1
            while t:
                e = exps[t]
                q.pop(e, None)
                r.pop(e, None)
                values, big, both, qsum, rsum = frames[-1]
                for qk in values:
                    rest = big - qk * r0
                    if rest < 0 or rest % q0:
                        continue
                    rk = rest // q0
                    if rsum + rk <= rs and (both or not qk or not rk):
                        break
                else:
                    frames.pop()
                    t -= 1
                    continue
                if qk:
                    q[e] = qk
                if rk:
                    r[e] = rk
                if t + 1 < nq and qsum + qk < s:
                    t += 1
                    frames.append(node(t, qsum + qk, rsum + rk))
                    continue
                full = cofactor(t + 1, rsum + rk)
                # q*r == p: they agree at every exponent of supp(p), and with
                # q(1) = s and r(1) <= p(1)/s no mass is left for any other.
                if full is not None:
                    qp, rp = Poly1({0: q0, **q}), Poly1({0: r0, **full})
                    key, pair = _keyed(qp, rp)
                    found[key] = pair
    return list(found.values())


def factor_pairs(p: Poly1, budget: Budget = Budget()) -> list:
    """All unordered pairs of nonconstant q, r over the naturals with q*r == p.

    The shared integer content and the largest power of x move freely
    between the two sides, so every admissible distribution of both appears;
    pairs where either side degenerates to a constant are dropped.  The
    result is sorted canonically.  An empty list certifies that no such pair
    exists; running out of budget raises BudgetExceededError instead.  Each
    emitted pair costs one step per term, so a large power of x or a content
    with many divisors spends the allowance like any other work.
    """
    return _factor_pairs(p, _Meter(budget))


def _factor_pairs(p, meter):
    if not isinstance(p, Poly1):
        raise TypeError("factor_pairs takes a one-variable polynomial")
    if not p:
        raise ValueError("cannot factor the zero polynomial")
    meter.search = f"factoring {len(p.terms)} terms of degree {_show(p.degree)}"
    m = min(p.terms)
    c = content(p)
    core = Poly1({e - m: v // c for e, v in p.terms.items()})
    cdivs = _divisors(c, meter) if c > 1 else (1,)
    splits = [(Poly1({0: 1}), core)]
    if core.degree >= 2:
        splits.extend(_splits(core, meter))
    out = {}
    # Spreading x^m and c over (big, small) gives the same pairs as over
    # (small, big), so each split is spread one way only.
    for small, big in splits:
        shifts = range(small.is_constant(), m + 1 - big.is_constant())  # no constant side
        # Every pair of the split costs its terms, charged before any is built.
        size = len(small.terms) + len(big.terms)
        meter.charge(len(shifts) * len(cdivs) * size, "emitting the factors")
        for a in shifts:
            for c1 in cdivs:
                q = Poly1._trusted({e + a: v * c1 for e, v in small.terms.items()})
                r = Poly1._trusted({e + m - a: v * (c // c1) for e, v in big.terms.items()})
                key, pair = _keyed(q, r)
                out[key] = pair
    return [out[k] for k in sorted(out)]


def _outer(terms, mask1, mask2, bivariate):
    """(column, row) when the grid of a primitive p over the two masks is the
    outer product of its primitive first column and primitive first row,
    else None; both come back as exponent -> coefficient maps."""
    if bivariate:
        grid = {
            ((x & mask1, y & mask1), (x & mask2, y & mask2)): v
            for (x, y), v in terms.items()
        }
    else:
        grid = {(e & mask1, e & mask2): v for e, v in terms.items()}
    a0, b0 = next(iter(grid))
    col = {a: v for (a, b), v in grid.items() if b == b0}
    row = {b: v for (a, b), v in grid.items() if a == a0}
    if len(col) * len(row) != len(grid):
        return None  # not a full grid
    gc, gr = gcd(*col.values()), gcd(*row.values())
    col = {a: v // gc for a, v in col.items()}
    row = {b: v // gr for b, v in row.items()}
    if any(col.get(a, 0) * row.get(b, 0) != v for (a, b), v in grid.items()):
        return None
    return col, row


_PRIME = (1 << 61) - 1
_SEED = 2010  # fixed, so that answers and step counts repeat exactly


def _point(rng, count):
    """The values of count bit variables at one random point: nonzero
    residues modulo 2**61 - 1."""
    return [rng.randrange(1, _PRIME) for _ in range(count)]


def _blocks(terms, support, bivariate, point, modulus, meter):
    """The support bits grouped by union-find over the variables that the
    dependency test at this point proves dependent, as bit lists ordered by
    their top bit.

    Each support bit is one variable group: its pre variable and, for two
    slots, its post variable.  For variables u and w, let S sum the terms'
    values at the point, R_u and R_w the values of the terms holding u or
    w, and D those holding both.  Then S*D - R_u*R_w is the 2x2 minor of the
    grid of p over the states of u and w, with u's and w's own values left
    in, which only scales its rows and columns by units: P * d_uw P -
    d_u P * d_w P at the point, times z_u * z_w.  It vanishes identically
    iff u and w lie in different variable-disjoint factors, so lying in one
    prime block is an equivalence relation on the variables, and a nonzero
    value proves that u and w lie in one.

    So each variable, pre variables before post ones, is tested against one
    representative of each class found so far, in the order they were
    found; the first nonzero minor joins its bits to that representative's,
    and a variable with none starts a class of its own.  A variable is
    tested at most once per class, not once per bit.  A bit's two variables
    may fall into different classes; union-find joins all bits of a class
    and both variables of a bit, since a bit-disjoint split keeps a bit's
    pre and post on one side.

    Every join rests on a nonzero minor, so the blocks are never coarser
    than the prime blocks.  A point where a minor of a dependent pair
    happens to vanish can only leave a variable outside its class, and the
    blocks finer; _peel then fails to verify them and a new point is drawn.
    """
    n = len(support)
    # Slot s of bit support[t] is variable t + s*n, looked up by 2**support[t].
    indexes = [{1 << b: t + s * n for t, b in enumerate(support)} for s in range(1 + bivariate)]
    meter.charge(len(terms), "the dependency test")
    values = []
    holding = [[] for _ in point]  # variable -> indices of the terms holding it
    for i, (e, v) in enumerate(terms.items()):
        value = v % modulus
        for x, index in zip(e if bivariate else (e,), indexes):
            while x:
                low = x & -x
                u = index[low]
                value *= point[u]
                holding[u].append(i)
                x ^= low
        values.append(value % modulus)
    total = sum(values)
    term_value = values.__getitem__
    holders = {u: set(rows) for u, rows in enumerate(holding) if rows}
    held = {u: sum(map(term_value, rows)) for u, rows in holders.items()}

    parent = list(range(n))

    def find(t):
        while parent[t] != t:
            parent[t] = parent[parent[t]]
            t = parent[t]
        return t

    representatives = []
    for u, rows in holders.items():
        scale = held[u]
        for w in representatives:
            both = rows & holders[w]
            meter.charge(1 + len(both), "the dependency test")
            if (total * sum(map(term_value, both)) - scale * held[w]) % modulus:
                parent[find(u % n)] = find(w % n)
                break
        else:
            representatives.append(u)
    groups = {}
    for t, b in enumerate(support):
        groups.setdefault(find(t), []).append(b)
    return sorted(groups.values(), key=lambda bits: bits[-1])


def _peel(terms, masks, bivariate, meter):
    """The primitive factors of primitive terms on the given bit masks, read
    off by splitting one mask at a time from the bits that remain, or None
    once a split fails."""
    factors = []
    rest = sum(masks)
    for mask in masks[:-1]:
        rest ^= mask
        meter.charge(len(terms), "the verification")
        split = _outer(terms, mask, rest, bivariate)
        if split is None:
            return None
        col, terms = split
        factors.append(col)
    return factors + [terms]


def _times(f, g, bivariate):
    """Product of two exponent maps on disjoint bits: no terms collide."""
    if bivariate:
        return {(a[0] + b[0], a[1] + b[1]): u * w for a, u in f.items() for b, w in g.items()}
    return {a + b: u * w for a, u in f.items() for b, w in g.items()}


def bit_disjoint_factor(p, budget: Budget = Budget()) -> list:
    """Unordered pairs (p1, p2), neither the constant 1, with p1*p2 == p and
    disjoint exponent bit supports.

    Works for either arity; a two-variable support pools the bits of both
    exponent components.  Each support bit is one variable group, so a split
    is a variable-disjoint factorization of the primitive part, and every
    such split is a union of its prime blocks (Shpilka & Volkovich, ICALP
    2010).  The blocks come from a dependency test at a random point of
    each variable against one representative of each class found so far;
    peeling them off one at a time with the exact grid test verifies them,
    and a failed verification draws a new point.  So the time is random but
    an answer never is, and a fixed seed makes both repeat.  A step is one
    term evaluated, one dependency test or one term it reads, one term read
    by the verification, one term of an emitted factor, or one trial
    division of the content.
    An empty result certifies that no bit-disjoint pair exists.

    By Gauss's lemma a split of p is its content c = c1 * c2 spread over the
    two sides times a split of the primitive part, and that split is unique
    for a union of blocks: the product of their primitive factors.
    """
    return _bit_disjoint_factor(p, _Meter(budget))


def _bit_disjoint_factor(p, meter):
    if not p:
        raise ValueError("cannot factor the zero polynomial")
    support = sorted(tau_poly(p))
    c = content(p)
    terms = {e: v // c for e, v in p.terms.items()}
    meter.search = (
        f"bit-disjoint factoring of {len(terms)} terms on {len(support)} support bits"
    )
    cdivs = _divisors(c, meter) if c > 1 else (1,)
    make = type(p)._trusted
    one = {p.zero: 1}
    bivariate = isinstance(p, Poly2)
    # A minor whose integer coefficients 2**61 - 1 divides vanishes at every
    # point modulo that prime, so each new point takes the next power as its
    # modulus, up to the first one above the coefficients' bound 2 * p(1)**2.
    top = 2 + 2 * sum(terms.values()).bit_length() // 61
    rng = random.Random(_SEED)
    draw = 0
    factors = None
    while factors is None:
        draw += 1
        point = _point(rng, len(support) * (1 + bivariate))
        modulus = _PRIME ** min(draw, top)
        blocks = _blocks(terms, support, bivariate, point, modulus, meter)
        factors = _peel(terms, [from_bits(bits) for bits in blocks], bivariate, meter)
    # products[m]: the product of the factors in the subset m of the blocks,
    # built when a split first needs it.
    k = len(factors)
    whole = (1 << k) - 1
    products = {0: one, whole: terms}

    def product(m):
        if m not in products:
            low = m & -m
            products[m] = _times(product(m ^ low), factors[low.bit_length() - 1], bivariate)
        return products[m]

    out = {}
    # The top block stays on the second side.
    for pick in range(1 << (k - 1)):
        col, row = product(pick), product(whole ^ pick)
        for c1 in cdivs:
            if (c1 == 1 and col == one) or (c1 == c and row == one):
                continue
            meter.charge(len(col) + len(row), "emitting the factors")
            c2 = c // c1
            p1 = make(col if c1 == 1 else {a: v * c1 for a, v in col.items()})
            p2 = make(row if c2 == 1 else {b: v * c2 for b, v in row.items()})
            key, pair = _keyed(p1, p2)
            out[key] = pair
    return [out[key] for key in sorted(out)]
