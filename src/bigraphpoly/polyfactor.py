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
must be a natural number and keep supp(q) + supp(r) inside supp(p).  One
walk per q(0) serves every divisor s of p(1) that q(1) may come to: a
partial q is kept while its coefficient sum is below some such s and r's
is at most p(1)/s, so each prefix is built once for all of them.  On a
mostly filled support p(2) is small, and q(2) * r(2) = p(2), so a
completed q whose q(2) does not divide p(2) gets no cofactor pass.  The
walk is a stack of frames, one per place of q set so far; each frame holds
its node's untried values and deletes only the coefficients its last kept
value set.  A table made once per call gives each place's exponent,
coefficient and whether twice the exponent is in supp(p), and the sumset
test reads supp(p), or on a mostly filled support its gaps, in plain
loops.  The work follows the number of terms, not the degree.

``bit_disjoint_factor`` restricts to factor pairs whose exponent bit
supports do not meet.  It works on (x, y) exponents only: N[x] is the
y-degree-0 part of N[x,y], as an undirected graph is a directed one whose
out-sets are empty, so a one-variable p is searched as its lift.  Reading
each exponent bit as two variables, a pre variable for x and a post
variable for y, makes p a multilinear polynomial, and a bit-disjoint split
a variable-disjoint factorization.
Such factorizations are unions of one finest partition into prime blocks,
and two variables lie in different blocks iff P * d_uw P = d_u P * d_w P
(Shpilka & Volkovich, "On the relation between polynomial identity testing
and finding variable disjoint factors", ICALP 2010), so lying in one block
is an equivalence relation on the variables.  The search tests that
identity between each variable and one representative of each class
found so far, once per set of terms holding a variable, joins the bits of
each class and the two variables of each bit with union-find, and
verifies the blocks exactly on p's own terms: split off one at a time,
the terms left must form a full grid of rank 1 over the block and the
bits left.  The first point is (1, ..., 1), where each term's value is
its coefficient and the test is exact in integers, or taken modulo
2**61 - 1 once p(1)**2 passes that prime.  Each set of terms is
a bitmask over them, so with unit coefficients a sum over one is its
popcount.  A point that misses a dependency fails the check, and the
next is drawn at random modulo a power of 2**61 - 1, from a generator of
a fixed seed that the search seeds for itself.  Every half is then
read off p's terms: the terms that agree with p's least term off the
half's blocks, read on its bits and divided by their content, are the
half's, so no product is built; for a net, whose least term is the
constant term, they are terms of p.
The work is about |support| * classes * terms plus a small multiple of
the size of the output.

Both searches emit each half as its poly_key, the (exponent, coefficient)
items in descending exponent order, and sort the pairs by those keys.  One
reader, _read, makes the answer of every factor route from that list: it
empties the list as it makes each pair's two halves with the maker it is
given, a polynomial class's _from_key here and a decoder of g's class
(core._decode) in graphfactor, whose _key_pairs is the one way from a
graph, digraph or net into either search.  The bit-disjoint search takes
its terms in any order, with each variable's holder set as a mask over
them, on the ranks of the bits: one class pass (bits.pack_holders) packs
each member of a slot at its rank and reads the holder sets with it,
over a digraph's or net's classes as they stand (core._slot_terms) or
over the bit sets of a polynomial's terms (bit_disjoint_factor).  Both
hand on the names of the ranks, the sorted labels or support bits, and
the makers _read is given rename each half once: a polynomial's
exponents by _widened, a structure's slots and v part by core._decode.
A split is a partition of the bits, so labels only name them: the
search, its charges and its pair order are those of the compact case.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from functools import cache
from math import gcd, isqrt, prod

from .bits import from_bits, pack_holders, tau, tau_poly
from .errors import BudgetExceededError, _brief, _show
from .poly import Poly1, content


@dataclass(frozen=True)
class Budget:
    """The work allowance of one call to any search: the factor searches,
    the isomorphism search and the canonical form.

    max_steps is a natural number.  In the factor searches a step is one
    coefficient or support entry read, one search node, coefficient value
    tried, place of a cofactor pass or q(2) test, one trial division while
    listing the divisors of the content, of p(0) or of p(1), or one term of
    an emitted factor pair.  core.is_isomorphic and core.canonical_poly
    define their steps in their docstrings.  A call that runs several
    searches, such as the labeling sweep of is_irreducible, spends one
    allowance on all of them.  Exceeding it raises BudgetExceededError, so
    an empty result is always a completed-search certificate.  The error
    names the search, the phase and the steps asked for; its text is
    formatted only when it is raised.
    """

    max_steps: int = 10_000_000

    def __post_init__(self):
        steps = self.max_steps
        if isinstance(steps, bool) or not isinstance(steps, int) or steps < 0:
            raise ValueError(f"max_steps must be a natural number, not {_brief(steps)}")


class _Meter:
    """The steps left of one call's Budget.  Every search the call runs
    charges its work here, and search names the one now running.

    A search or phase name is a string, or a tuple of a format string and
    the integers it shows; such a tuple is formatted, each integer by
    _show, only when a charge overdraws, so a search pays nothing for the
    text of an error it does not raise."""

    __slots__ = ("allowance", "left", "search")

    def __init__(self, budget: Budget):
        self.allowance = self.left = budget.max_steps
        self.search = "the search"

    def charge(self, steps, phase):
        self.left -= steps
        if self.left < 0:
            asked = self.allowance - self.left  # all steps charged, this one included
            raise BudgetExceededError(
                f"{_text(self.search)} used up the budget of "
                f"{_show(self.allowance)} steps in {_text(phase)} ({_show(asked)} asked for)"
            )


def _text(name):
    """The text of a search or phase name of a _Meter."""
    return name if isinstance(name, str) else name[0].format(*map(_show, name[1:]))


def _divisors(n, meter):
    """Positive divisors of a positive integer, ascending.

    The whole scan is charged before it starts, so a huge value overdraws
    the allowance at once instead of running away.
    """
    meter.charge(isqrt(n) + 1, ("listing the divisors of {}", n))
    small, large = [], []
    for i in range(1, isqrt(n) + 1):
        if n % i == 0:
            small.append(i)
            if i * i != n:
                large.append(n // i)
    return small + large[::-1]


def _pair(a, b):
    """The unordered pair of the poly_keys a and b, the lesser first: the
    form in which both searches emit their pairs and sort them."""
    return (a, b) if a <= b else (b, a)


def _spread(cores, c, cdivs, one):
    """The sorted _pairs from spreading the content c = c1 * c2 over each
    pair of primitive halves in cores, c1 over the first; cdivs lists the
    divisors of c, and a pair with a half equal to one, the unit key, is
    left out.  The set drops the pairs a spread repeats: c1 and c2 swapped
    over equal halves, or the shifts of x**m over a split of a square."""
    out = set()
    for f, g in cores:
        for c1 in cdivs:
            c2 = c // c1
            q = f if c1 == 1 else tuple([(e, v * c1) for e, v in f])
            r = g if c2 == 1 else tuple([(e, v * c2) for e, v in g])
            if q != one and r != one:
                out.add(_pair(q, r))
    return sorted(out)


def _read(pairs, make):
    """The sorted key pairs of a search as pairs of halves, in their order,
    each half made from its poly_key by make: a polynomial, or a structure
    decoded from it.  The list is emptied as it is read, so each pair's
    keys are freed once its halves are made."""
    out = []
    pairs.reverse()
    while pairs:
        q, r = pairs.pop()
        out.append((make(q), make(r)))
    return out


def _splits(coef, meter: _Meter) -> set:
    """Unordered nonconstant splits of a primitive p with p(0) > 0 and
    degree at least 2, given as its {exponent: coefficient} terms in
    descending exponent order, by the coefficient search; each split is a
    _pair of poly_keys.

    One depth-first walk per divisor q0 of p(0) sets q's coefficients.  Its
    targets are the divisors s of p(1) that leave q and r nonconstant,
    q0 < s and r0 < p(1)/s, and every target shares the walk, so each
    prefix of q is built once.  A value of q_e is kept when it completes q,
    bringing q(1) to a target s with r(1) still at most p(1)/s, or when a
    later place of q can still bring q(1) to a larger target s' with r(1)
    at most p(1)/s'.  A completed q gets the cofactor pass, on a dense
    support only when q(2) divides p(2).

    A frame of the walk holds a node's choices at one place.  The value it
    keeps sets q_e and r_e where positive, and the frame deletes just those
    entries before it tries its next value.  Each place's exponent,
    coefficient and whether its double is in supp(p) are read from one
    table made per call.
    """
    exps = [*reversed(coef)]
    m = len(exps)
    n = exps[-1]
    nq = bisect_right(exps, n // 2)  # q sits on exps[:nq]
    # On a mostly filled support, the sumset checks look for a gap instead.
    gaps = sorted(set(range(n)).difference(coef)) if n < 2 * m else None
    # There p(2) is small, and q * r = p needs q(2) to divide it.
    p2 = sum([v << e for e, v in coef.items()]) if gaps is not None else 0
    p0, total = coef[0], sum(coef.values())
    sums = _divisors(total, meter)
    # A nonconstant factor with a nonzero constant term has q(1) >= 2.
    if nq < 2 or len(sums) < 3:
        return []
    heads = _divisors(p0, meter)
    charge = meter.charge
    places = [(e, coef[e], e + e in coef) for e in exps]

    def fits(e, part):
        """Whether e + supp(part) stays inside supp(p), charging the entries
        read; part is nonempty and lists its exponents in ascending order."""
        top = e + next(reversed(part))
        if top > n:
            return False
        if gaps is not None:
            a, b = bisect_right(gaps, e), bisect_right(gaps, top)
            if b - a < len(part):
                charge(b - a, "the coefficient search")
                for h in gaps[a:b]:
                    if h - e in part:
                        return False
                return True
        charge(len(part), "the coefficient search")
        for j in part:
            if e + j not in coef:
                return False
        return True

    def node(t, qsum, rsum):
        """The frame at e = exps[t] after q and r summed to qsum and rsum
        below e, while some target s in (qsum, p(1) // rsum] is open: the
        q_e values to try, e, what the recurrence at e leaves for
        q_e * r0 + q0 * r_e, whether q_e and r_e may both be positive, the
        two sums, and the q_e and r_e set by the value kept, none yet."""
        e, big, both = places[t]
        for k, c in q.items():
            big -= c * r.get(e - k, 0)
        i, j = bisect_right(targets, qsum), bisect_right(targets, total // rsum)
        if big % g:
            first, hi = 1, 0
        else:
            hi = min(targets[j - 1] - qsum, big // r0)
            # r_e fits in r(1) under the open target that leaves r the most room.
            lo = max(0, -((q0 * (room[targets[i]] - rsum) - big) // r0))
            # q0 must divide big - q_e * r0: one residue class mod step.
            first = lo + (big // g * inv - lo) % step
        # supp(q) + supp(r) must stay inside supp(p).
        if hi > 0 and r and not fits(e, r):
            hi = 0
        if first <= hi and q and not fits(e, q):
            first, hi = max(first, -(-big // r0)), min(hi, big // r0)  # r_e = 0
        values = range(first, hi + 1, step)
        if t == nq - 1:  # q's last place: q(1) must come to an open target
            values = [s - qsum for s in targets[i:j] if s - qsum in values]
        charge(1 + len(values) + len(q), "the coefficient search")
        return [iter(values), e, big, both, qsum, rsum, 0, 0]

    def cofactor(t, rleft):
        """r completed on exps[t:] with at most rleft more mass once q is
        complete, or None; on a dense support, None at once when q(2) does
        not divide p(2)."""
        if p2:
            charge(1, "the coefficient search")
            if p2 % sum([v << i for i, v in q.items()], q0):
                return None
        full = dict(r)
        for e, big, _ in places[t:]:
            charge(1 + len(q), "the coefficient search")
            for k, c in q.items():
                big -= c * full.get(e - k, 0)
            if big < 0 or big % q0:
                return None
            if big:
                rk = big // q0
                if rk > rleft or not fits(e, q):
                    return None
                full[e] = rk
                rleft -= rk
        return full

    found = set()
    for q0 in heads:
        r0 = p0 // q0
        # room[s] = p(1)/s bounds r(1) when q(1) comes to the target s.
        room = {d: total // d for d in sums if q0 < d and r0 * d < total}
        if not room:
            continue
        targets = [*room, total + 1]  # p(1) + 1 closes the list: no r(1) fits under it
        g = gcd(q0, r0)
        step = q0 // g
        inv = pow(r0 // g, -1, step)
        # The positive coefficients above the constant terms, in ascending order.
        q, r = {}, {}
        # frames[t - 1] holds the choices at exps[t], for t < nq, and last the
        # q_e and r_e its kept value set.
        frames = [node(1, q0, r0)]
        t = 1
        while t:
            values, e, big, both, qsum, rsum, qset, rset = frame = frames[-1]
            if qset:
                del q[e]
            if rset:
                del r[e]
            for qk in values:
                rest = big - qk * r0
                if rest < 0 or rest % q0 or qk and rest and not both:
                    continue
                rk = rest // q0
                qs, rs = qsum + qk, rsum + rk
                # Keep q_e if it completes q at a target, or if a later place
                # can still bring q(1) to a larger target that leaves r room.
                done = qk and rs <= room.get(qs, 0)
                deeper = t + 1 < nq and targets[bisect_right(targets, qs)] * rs <= total
                if done or deeper:
                    break
            else:
                frames.pop()
                t -= 1
                continue
            if qk:
                q[e] = qk
            if rk:
                r[e] = rk
            frame[6:] = qk, rk
            # q*r == p: they agree at every exponent of supp(p), and with
            # q(1) = qs and r(1) <= p(1)/qs no mass is left for any other.
            full = cofactor(t + 1, room[qs] - rs) if done else None
            if full is not None:
                found.add(_pair((*reversed(q.items()), (0, q0)),
                                (*reversed(full.items()), (0, r0))))
            if deeper:
                t += 1
                frames.append(node(t, qs, rs))
    return found


def factor_pairs(p: Poly1, budget: Budget = Budget()) -> list:
    """All unordered pairs of nonconstant q, r over the naturals with q*r == p.

    The shared integer content and the largest power of x move freely
    between the two sides, so every admissible distribution of both appears;
    pairs where either side degenerates to a constant are dropped.  The
    result is sorted canonically.  An empty list certifies that no such pair
    exists; running out of budget raises BudgetExceededError instead.  Each
    emitted pair costs one step per term, so a large power of x or a content
    with many divisors spends the allowance like any other work.  The
    search's key pairs are read by _read, each half made a Poly1 from its
    poly_key.
    """
    return _read(_factor_pairs(p, _Meter(budget)), Poly1._from_key)


def _factor_pairs(p, meter):
    """The pairs of factor_pairs as sorted _pairs of poly_keys."""
    if not isinstance(p, Poly1):
        raise TypeError("factor_pairs takes a one-variable polynomial")
    if not p:
        raise ValueError("cannot factor the zero polynomial")
    terms = p.terms  # descending
    meter.search = ("factoring {} terms of degree {}", len(terms), next(iter(terms)))
    m = next(reversed(terms))
    c = content(p)
    core = {e - m: v // c for e, v in terms.items()} if m or c > 1 else terms
    cdivs = _divisors(c, meter) if c > 1 else (1,)
    splits = [(((0, 1),), tuple(core.items()))]
    if next(iter(core)) >= 2:
        splits.extend(_splits(core, meter))
    cores = []
    # Spreading x^m and c over (big, small) gives the same pairs as over
    # (small, big), so each split is spread one way only.
    for small, big in splits:
        # No constant side: a key's first exponent is the degree.
        lo, hi = small[0][0] == 0, m + 1 - (big[0][0] == 0)
        # Every pair of the split costs its terms, charged before any is built;
        # the count is arithmetic, as a range longer than 2**63 has no len.
        size = len(small) + len(big)
        meter.charge(max(0, hi - lo) * len(cdivs) * size, "emitting the factors")
        cores += [
            (tuple([(e + a, v) for e, v in small]), tuple([(e + m - a, v) for e, v in big]))
            for a in range(lo, hi)
        ]
    return _spread(cores, c, cdivs, ((0, 1),))


_PRIME = (1 << 61) - 1
_SEED = 2010  # fixed, so that answers and step counts repeat exactly


def _points(count):
    """The random points of one search on count variables: point number d,
    for d >= 1, is values (d - 1) * count up to d * count of
    random.Random(_SEED).randrange(1, _PRIME), nonzero residues modulo
    2**61 - 1.  The generator is seeded at the first point drawn, so a
    search whose point (1, ..., 1) answers seeds none."""
    rng = random.Random(_SEED)
    while True:
        yield [rng.randrange(1, _PRIME) for _ in range(count)]


def _mask_sum(values):
    """The function taking a mask of indices, bit i for values[i], to the
    sum of those values, for a nonempty list of naturals: the mask's
    popcount when every value is 1, else the sum over its bits."""
    if values.count(1) == len(values):
        return int.bit_count
    return lambda mask: sum(map(values.__getitem__, tau(mask)))


def _blocks(values, holders, modulus, meter):
    """The exponent bits grouped by union-find over the variables that the
    dependency test at one point proves dependent, as ascending lists of
    bits, ordered by their top bit.

    values lists the terms' values at the point, and holders each
    variable's holder set as a term mask: bit i of holders[u] is set when
    term i holds u.  With n bits, bit t is pre variable t, read in the
    x-exponents, and post variable t + n, read in the y-exponents.  For
    variables u and w, let S sum the terms' values, R_u
    and R_w the values of the terms holding u or w, and D those holding
    both.  Then S*D - R_u*R_w is the 2x2 minor of the grid of p over the
    states of u and w, with u's and w's own values left in, which only
    scales its rows and columns by units: P * d_uw P - d_u P * d_w P at the
    point, times z_u * z_w.  It vanishes identically iff u and w lie in
    different variable-disjoint factors, so lying in one prime block is an
    equivalence relation on the variables, and a minor that is nonzero
    modulo modulus proves that u and w lie in one.  Each sum is over a term
    mask, by _mask_sum: with unit values it is the mask's popcount.

    So each variable, pre variables before post ones, is tested against one
    representative of each class found so far, in the order they were
    found; the first nonzero minor joins its bits to that representative's,
    and a variable with none starts a class of its own.  A variable is
    tested at most once per class, not once per bit.  A bit's two variables
    may fall into different classes; union-find joins all bits of a class
    and both variables of a bit, since a bit-disjoint split keeps a bit's
    pre and post on one side.

    A variable that holds the same terms as an earlier one, but not every
    term, joins the earlier one's class untested.  For if P = A * B with u
    in A and w in B, every term of P is a term of A times one of B, and u
    being in a term exactly when w is would put u in every term of A and w
    in every term of B: both in every term of P.  So one test is made per
    holder set.

    Every join rests on a nonzero minor or on that rule, so the blocks are
    never coarser than the prime blocks.  A point where a minor of a
    dependent pair happens to vanish can only leave a variable outside its
    class, and the blocks finer; _peel then fails to verify them and the
    next point is tried.
    """
    n = len(holders) // 2
    weight = _mask_sum(values)  # the sum of the values of the terms in a mask
    total = sum(values)
    everywhere = (1 << len(values)) - 1
    parent = list(range(n))

    def find(t):
        while parent[t] != t:
            parent[t] = parent[parent[t]]
            t = parent[t]
        return t

    first = {}  # holder set -> the first variable holding it
    representatives = []  # (variable, the sum of its terms' values, their mask)
    for u, rows in enumerate(holders):
        if not rows:
            continue
        w = first.setdefault(rows, u)
        if w != u and rows != everywhere:
            parent[find(u % n)] = find(w % n)
            continue
        scale = weight(rows)
        for w, held, rep in representatives:
            both = rep & rows
            meter.charge(1 + both.bit_count(), "the dependency test")
            if (total * weight(both) - scale * held) % modulus:
                parent[find(u % n)] = find(w % n)
                break
        else:
            representatives.append((u, scale, rows))
    groups = {}
    for t in range(n):
        groups.setdefault(find(t), []).append(t)
    return sorted(groups.values(), key=lambda ts: ts[-1])


def _peel(terms, masks, meter):
    """The term counts of the primitive factors of terms on the given bit
    masks, or None once a split fails: the masks are split off one at a
    time from the bits that remain, each checked on the terms left.

    Let t be the least term, e_m the part of an exponent e on the mask m
    and e_r its part on the rest.  The terms left, q, are the product of a
    factor on m and one on the rest exactly when the terms that agree with t
    off m, times those that agree with t on m, number len(q), and every
    term e has q(e) * q(t) = q(e_m | t_r) * q(t_m | e_r): then each term
    is a distinct cell of the full grid over those two sets, and the grid
    has rank 1.  A term that agrees with t off m or on m meets the identity
    by how the two sets are read, so only the others are checked.  The
    terms that agree with t on m are the next q.
    """
    tx, ty = min(terms)
    tv = terms[tx, ty]
    counts = []
    rest = sum(masks)
    for mask in masks[:-1]:
        rest ^= mask
        meter.charge(len(terms), "the verification")
        col, row = {}, {}  # e_m and e_r -> coefficient, along t's row and column
        inner = []  # the exponents that differ from t both on m and off it
        for e, v in terms.items():
            x, y = e
            off = (x ^ tx) | (y ^ ty)  # the bits where e differs from t
            if not off & rest:
                col[x & mask, y & mask] = v
                if not off:
                    row[x & rest, y & rest] = v
            elif not off & mask:
                row[x & rest, y & rest] = v
            else:
                inner.append(e)
        if len(col) * len(row) != len(terms):
            return None
        for e in inner:
            x, y = e
            if terms[e] * tv != col.get((x & mask, y & mask), 0) * row.get((x & rest, y & rest), 0):
                return None
        counts.append(len(col))
        terms = row
        tx &= rest
        ty &= rest
    return counts + [len(terms)]


def bit_disjoint_factor(p, budget: Budget = Budget()) -> list:
    """Unordered pairs (p1, p2), neither the constant 1, with p1*p2 == p and
    disjoint exponent bit supports.

    Works for either arity.  A one-variable p is searched as the
    two-variable polynomial with y-exponent 0 (its lift), and _read makes
    each emitted half a Poly1 with the y dropped, so no second key list is
    built; (x, 0) sorts as x does, so the pairs keep their order.  The
    support pools the bits of both exponent components, and the search
    works on their ranks: each term's bit sets (tau(x), tau(y)) go through
    the class pass of nets and digraphs (bits.pack_holders) with the
    sorted support as the names of bits 0 to n - 1, and each half's bit t
    is moved back to the t-th support bit as _read makes it.  That map is
    monotone, so the pairs and their order are those of p itself, and a
    sparse p on wide exponents is searched on n bits.  Each support bit is
    one variable group, so a split
    is a variable-disjoint factorization of the primitive part, and every
    such split is a union of its prime blocks (Shpilka & Volkovich, ICALP
    2010).  The blocks come from a dependency test of each variable
    against one representative of each class found so far, made first at
    the point (1, ..., 1), exactly while p(1)**2 + 1 is at most 2**61 - 1
    and modulo that prime past it; peeling them off one at a time with an
    exact test on p's own terms verifies them, and a failed verification
    draws a random point.  So the time is random but an answer never is.
    Each search seeds its own generator, of a fixed seed, at its first
    random point, so both repeat and no two calls share any state.  A step
    is one term evaluated at a point, one dependency test or one term it
    reads, one term read by the verification, one term of an emitted
    factor, or one trial division of the content.
    An empty result certifies that no bit-disjoint pair exists.

    By Gauss's lemma a split of p is its content c = c1 * c2 spread over the
    two sides times a split of the primitive part, and that split is unique
    for a union of blocks: the product of their primitive factors.  That
    product is read off p's terms, those that agree with p's least term
    off its blocks, and is never multiplied out.
    """
    if not p:
        raise ValueError("cannot factor the zero polynomial")
    names = sorted(tau_poly(p))
    # Not lift(p): building its dict would hash every exponent, bit by bit.
    exps = p.terms if p.arity == 2 else [(x, 0) for x in p.terms]
    keys, pre, post = pack_holders(((tau(x), tau(y)) for x, y in exps), names)
    pairs = _bit_disjoint_factor(dict(zip(keys, p.terms.values())), pre + post, _Meter(budget))
    if isinstance(p, Poly1):
        return _read(pairs, _widened(lambda key: Poly1._from_key([(x, c) for (x, _), c in key]),
                                     names))
    return _read(pairs, _widened(type(p)._from_key, names))


def _widened(make, names):
    """make of _read for halves emitted on ranks: each exponent's bit t is
    moved to bit names[t] before make, for ascending names, so keys keep
    their order; make itself when names is None or 0..len(names)-1.  Each
    distinct exponent is moved once per call."""
    if not names or names[-1] == len(names) - 1:
        return make
    move = cache(lambda e: from_bits(map(names.__getitem__, tau(e))))
    return lambda key: make([((move(x), move(y)), c) for (x, y), c in key])


def _bit_disjoint_factor(terms, holders, meter):
    """The pairs of bit_disjoint_factor for the nonzero two-variable terms,
    a map from (x, y) exponents to coefficients in any order, as sorted
    _pairs of poly_keys, as _splits emits them.  The exponents hold bits 0
    to n - 1, each in some term, and holders lists each variable's holder
    set as a mask over the terms in their order, bit i for the i-th: the n
    pre variables', read in the x-exponents, bit by bit, then the n post
    variables'.  Both routes pass ranks here (bits.pack_holders), so the
    search works on n bits whatever the labels or exponents were.

    Once the blocks are verified, each half is read off the terms in
    poly_key order: when p(0) >= 1 every term of a half is a term of p, its
    coefficient divided by the half's content.  A prime primitive p answers
    [] as soon as the emission is charged.  With content 1 each pair is
    distinct, so only a content spread goes through _spread's set.  A
    point (1, ..., 1) that misses a dependency makes the search seed its
    own generator of random points, shared with no other call."""
    c = gcd(*terms.values())
    if c > 1:
        terms = {e: v // c for e, v in terms.items()}
    meter.search = (
        f"bit-disjoint factoring of {len(terms)} terms on {len(holders) // 2} support bits"
    )
    cdivs = _divisors(c, meter) if c > 1 else (1,)
    # Point 0 is (1, ..., 1): each term's value is its coefficient, and no
    # minor reaches p(1)**2 in size, so taken modulo p(1)**2 + 1 the test
    # is exact.  Past 2**61 - 1 the values are reduced once and the minors
    # taken modulo that prime: a nonzero residue still proves a dependency,
    # and one that vanishes by chance only leaves the blocks finer.  Point
    # d >= 1 is number d of this search's own points, whose generator is
    # seeded when the first is drawn, taken modulo (2**61 - 1)**d: a
    # minor whose integer coefficients 2**61 - 1 divides vanishes at every
    # point modulo that prime, so each point takes the next power, up to the
    # top one, the first above the coefficients' bound 2 * p(1)**2.  Each
    # point is charged its terms before they are evaluated.
    values = list(terms.values())
    total = sum(values)
    top_power = 2 + 2 * total.bit_length() // 61
    modulus = total * total + 1
    if modulus > _PRIME:
        modulus = _PRIME
        values = [v % _PRIME for v in values]
    points = _points(len(holders))
    draw = 0
    while True:
        meter.charge(len(terms), "the dependency test")
        if draw:
            modulus = _PRIME ** min(draw, top_power)
            values = [v % modulus for v in terms.values()]
            for z, rows in zip(next(points), holders):
                for i in tau(rows):
                    values[i] = values[i] * z % modulus
        groups = _blocks(values, holders, modulus, meter)
        masks = [from_bits(group) for group in groups]
        counts = _peel(terms, masks, meter)
        if counts is not None:
            break
        draw += 1
    # Every pair costs its terms, charged before any is built.  Blocks have
    # disjoint bits, so a product of factors has the product of their term
    # counts, and the picks with their rests hold prod(1 + t_i) terms over
    # the blocks' term counts t_i.  The pair (1, p) is skipped, and so is
    # (p, 1) when p is a constant c > 1.
    size = prod(1 + t for t in counts)
    skipped = 1 + len(terms) + (2 if c > 1 and terms == {(0, 0): 1} else 0)
    meter.charge(len(cdivs) * size - skipped, "emitting the factors")
    if len(counts) == 1 and c == 1:
        return []  # p is prime and primitive: its one split is (1, p)
    # Let t be p's least term, the anchor: a net's idle event.  The terms
    # that agree with t off the bits of a set of blocks are those of the
    # product of its factors times one constant, the other factors' value
    # at t.  Read on its bits and divided by their content, they are that
    # product, in poly_key order as the signed terms are sorted; when t = 1
    # they are p's own items as they stand.  A signed term is an item of p
    # and its signature, the bits where it differs from t.
    tx, ty = min(terms)
    tv = terms[tx, ty]
    signed = [((e, terms[e]), (e[0] ^ tx) | (e[1] ^ ty)) for e in sorted(terms, reverse=True)]
    full, last = sum(masks), len(masks) - 1

    def half(items, bits):
        """The poly_key of the primitive product of the factors on bits,
        given the signed terms that agree with t off them."""
        if tx or ty:
            key = [((x & bits, y & bits), v) for ((x, y), v), _ in items]
        else:
            key = [item for item, _ in items]
        if tv > 1:  # t is in every half, so a half's content divides tv
            g = gcd(*[v for _, v in key])
            if g > 1:
                key = [(e, v // g) for e, v in key]
        return tuple(key)

    # Each set of blocks below the top one is read once, as a pick, and the
    # other blocks, the top one among them, as its rest, so every pick
    # starts from the terms that agree with t on the top block.  A state of
    # the walk is the next block to send, the signed terms that agree with
    # t on every block sent to the rest and those that agree with t on
    # every block sent to the pick, and the bits sent to the pick.  Each
    # block sent filters the other side's terms, so the work follows the
    # size of the output, not the number of splits times len(p).
    pairs = []
    top = masks[last] if masks else 0  # a constant p has no blocks
    stack = [(0, [s for s in signed if not s[1] & top], signed, 0)]
    while stack:
        j, pick, rest, bits = stack.pop()
        # Send each block from j on to the pick, leaving its other choice
        # on the stack, so the lists alive follow the depth, as in a
        # recursion.
        for k in range(j, last):
            mask = masks[k]
            stack.append((k + 1, [s for s in pick if not s[1] & mask], rest, bits))
            rest = [s for s in rest if not s[1] & mask]
            bits |= mask
        # With content 1 the pairs are distinct, and the one with a unit
        # half is the empty pick's.
        if bits or c > 1:
            pairs.append(_pair(half(pick, bits), half(rest, full ^ bits)))
    if c > 1:
        return _spread(pairs, c, cdivs, (((0, 0), 1),))
    return sorted(pairs)
