"""One bipartite core for undirected graphs, directed graphs and nets.

Each of the three is a u part, a v part that carries the labels, and for
every u-vertex a tuple of v-subsets, its slots: one slot (the neighborhood)
for an undirected graph, two (pre and post) for a directed graph or a net.
Encoding sums 2**label over each slot, so a slot becomes the bit support of
an exponent and repeated slot tuples pile up in the coefficient:

    encoding = [1 for a net's idle event] + sum over u of x**(slot 0) [* y**(slot 1)]

One slot gives a polynomial in N[x], two give one in N[x,y].  Decoding reads
the bits back, which is lossless because an injective labeling never lets
two slots carry.  Labels of v-vertices no slot mentions are invisible to the
polynomial; round-trip statements therefore assume every v-vertex is used.

Everything here is written once for both arities: encode and decode, the
isomorphism search, the canonical form, and products and sums on the
polynomial route, the direct route and the plain unlabeled route.
"""

from __future__ import annotations

from collections import Counter
from itertools import repeat

from ._match import find_bijections
from .bits import tau
from .errors import LabelingError
from .poly import Poly1, Poly2, add, mul
from .polyfactor import Budget, _Meter


class Bipartite:
    """Immutable u ids, v ids, and for each u-vertex its tuple of slots."""

    __slots__ = ("_u", "_v", "_sig")
    arity = 1
    poly = Poly1
    idle = False  # nets: the encoding holds one unit for the idle event
    v_word = "v-part id"  # what labeling errors call a v-vertex
    # Set by each kind: the public class whose instances compare equal with
    # these and that constructions build, and the class decoding builds.
    family = None
    decoded = None

    def _init(self, u, v, sig):
        self._u = u
        self._v = v
        self._sig = sig

    @classmethod
    def _build(cls, u, v, sig):
        """Instance from parts already known to be consistent."""
        obj = object.__new__(cls)
        obj._init(u, v, sig)
        return obj

    @property
    def u_vertices(self):
        return self._u

    @property
    def v_vertices(self):
        return self._v

    def slots(self, u):
        """The v-sets of u: (neighbors,) or (pre, post)."""
        return self._sig[u]

    def __eq__(self, other):
        return (
            isinstance(other, self.family)
            and self._u == other._u
            and self._v == other._v
            and self._sig == other._sig
        )

    def __hash__(self):
        return hash((self._u, self._v, tuple(self._sig[x] for x in self._u)))

    def __repr__(self):
        links = sum(len(part) for slots in self._sig.values() for part in slots)
        return f"{type(self).__name__}(|u|={len(self._u)}, |v|={len(self._v)}, |links|={links})"


class Directed(Bipartite):
    """Two slots per u-vertex: the v-vertices feeding it, and those it feeds."""

    __slots__ = ()
    arity = 2
    poly = Poly2

    def pre(self, u):
        """v-vertices with an arc into u (the conditions an event consumes)."""
        return self._sig[u][0]

    def post(self, u):
        """v-vertices u has an arc into (the conditions an event produces)."""
        return self._sig[u][1]


class Decoded:
    """Decode output: v-ids are the bit positions themselves."""

    __slots__ = ()

    @property
    def natural_labeling(self):
        return {v: v for v in self.v_vertices}


def _first_few(items, limit=5):
    """The first limit items as a list literal, with their number when there
    are more, so that error text stays short however many there are."""
    items = list(items)
    if len(items) <= limit:
        return repr(items)
    return f"{repr(items[:limit])[:-1]}, ...] ({len(items)} in all)"


def parts(u_ids, v_ids, u_word="u-part", v_word="v-part"):
    """The two id tuples, checked for repeats and for ids in both parts."""
    u = tuple(u_ids)
    v = tuple(v_ids)
    if len(set(u)) != len(u):
        raise ValueError(f"duplicate {u_word} ids")
    if len(set(v)) != len(v):
        raise ValueError(f"duplicate {v_word} ids")
    both = set(u) & set(v)
    if both:
        raise ValueError(
            f"ids appear in both parts: {_first_few(sorted(map(repr, both)))}"
        )
    return u, v


# ---------------------------------------------------------------------------
# Labelings.

def check_labeled(g, labeling):
    """Require a label for every v-vertex."""
    missing = [x for x in g.v_vertices if x not in labeling]
    if missing:
        raise LabelingError(f"unlabeled {g.v_word}s: {_first_few(missing)}")


def check_labeling(g, labeling):
    """Require a total injection from the v part into the naturals."""
    check_labeled(g, labeling)
    what = g.v_word
    seen = {}
    for x in g.v_vertices:
        val = labeling[x]
        if not isinstance(val, int) or isinstance(val, bool) or val < 0:
            raise LabelingError(f"label of {what} {x!r} must be a natural, got {val!r}")
        if val in seen:
            raise LabelingError(
                f"label {val} given to both {seen[val]!r} and {x!r}"
            )
        seen[val] = x


def compact_labeling(g) -> dict:
    """Labels 0..|v|-1 in declared v order."""
    return {v: i for i, v in enumerate(g.v_vertices)}


def identity_labeling(g) -> dict:
    """For graphs whose v-ids already are naturals, label each by itself."""
    return {v: v for v in g.v_vertices}


# ---------------------------------------------------------------------------
# Encoding and decoding.

def _term(exps):
    """Term key of one u-vertex's packed slots: an int or an (x, y) pair."""
    return exps[0] if len(exps) == 1 else exps


def encode(g: Bipartite, labeling):
    """One term per u-vertex, each slot packed into one exponent.

    A u-vertex with empty slots contributes the constant 1, so it shows up in
    the constant coefficient rather than vanishing; a net adds one more unit
    for its idle event.
    """
    terms = {g.poly.zero: 1} if g.idle else {}
    for e in map(_term, _packed(g, labeling).values()):
        terms[e] = terms.get(e, 0) + 1
    return g.poly._trusted(terms)


def decode(p, cls):
    """Instance of cls whose encoding under the identity labeling is p.

    v-vertices are the bit positions in p's support.  Each term n * x**i
    [* y**j] yields n u-vertices whose slots are the bits of its exponents;
    u-ids are (bit set or (pre bits, post bits), copy index) pairs.  A net
    absorbs one unit of the constant term into its idle event.
    """
    return _decode(p, cls, {})


def _decode(p, cls, supports):
    """decode, reading each exponent's term key and slots from supports: a
    dict from exponent to (term key, slot bit supports) that the decodes of
    one search share, filled as new exponents turn up."""
    if not isinstance(p, cls.poly):
        raise TypeError(
            f"{cls.__name__} decodes from {cls.poly.__name__}, got {type(p).__name__}"
        )
    if cls.idle and p.constant_coeff() < 1:
        raise ValueError(
            "not a net encoding: the constant term must be at least 1 (idle slot)"
        )
    idle = p.zero if cls.idle else None
    sig = {}
    vs = set()
    for exp, c in p.terms.items():
        row = supports.get(exp)
        if row is None:
            slots = (tau(exp),) if cls.arity == 1 else tuple(map(tau, exp))
            row = supports[exp] = (_term(slots), slots)
        term, slots = row
        vs.update(*slots)
        if exp == idle:
            c -= 1
        for k in range(1, c + 1):
            sig[(term, k)] = slots
    return cls._build(tuple(sig), tuple(sorted(vs)), sig)


# ---------------------------------------------------------------------------
# Isomorphism and canonical form.

def is_isomorphic(g1: Bipartite, g2: Bipartite, budget: Budget = Budget()):
    """Part- and slot-respecting isomorphism witness (u map, v map), or None.

    For nets that is (event map, condition map).  A step is a refinement
    round, a backtracking node or a u-vertex of a complete assignment.
    """
    return find_bijections(
        list(g1.v_vertices), g1._sig, list(g2.v_vertices), g2._sig, _Meter(budget)
    )


def canonical_poly(g: Bipartite, budget: Budget = Budget()):
    """Least encoding over all labelings by 0..|v|-1.

    Term lists in descending exponent order compare lexicographically by
    (exponent, coefficient) pairs, as poly_key does; the minimum is a
    labeling-independent invariant, equal for isomorphic graphs.

    The search is an exact depth-first branch and bound that gives label
    n-1 first, then n-2, and so on, and returns what trying all |v|!
    labelings would.  Three rules prune it:

    1. Twin classes: of the unlabeled v-vertices with the same membership
       in every slot of every u-vertex, only one is tried per label.
    2. Elementwise bound: a branch whose sorted term lower bounds are
       already no less than the best leaf found is dropped.
    3. Repeated states: a partial labeling whose multiset of (fixed bits,
       unlabeled members, multiplicity) per term was met before at the same
       depth is dropped.

    Symmetric inputs still visit a large share of the |v|! labelings.  A
    step is a unit of building a child state: one for the child, one per
    distinct term of its parent and one per term counted with multiplicity.
    """
    vs = g.v_vertices
    n = len(vs)
    meter = _Meter(budget)
    meter.search = f"the canonical form of {n} v-vertices"
    # One integer per term: slot s holds its bits (arity - 1 - s) * n places
    # up, so with two slots the integer is x_exp * 2**n + y_exp and integers
    # order exactly as (x, y) exponent pairs do.  A term's state is (fixed,
    # open): the bits of its labeled members, packed so, and the v-index
    # bits of its unlabeled members, packed the same way.  Giving label L to
    # v-index i moves i's bits b = open & (unit << i) over as (b >> i) << L.
    unit = 1 if g.arity == 1 else 1 | 1 << n
    pos = {v: i for i, v in enumerate(vs)}
    root = Counter({(0, 0): 1} if g.idle else {})
    top = g.arity - 1
    root.update(
        (0, sum(1 << (top - s) * n + pos[v] for s, part in enumerate(sig) for v in part))
        for sig in g._sig.values()
    )
    # Rule 1.  Swapping two twins maps every slot to itself, so a labeling
    # that gives L to one has the encoding of the one that gives L to the
    # other.  Twins are always labeled in index order, so the unlabeled ones
    # of a class are a tail of it: i is tried when its previous twin is not
    # unlabeled.
    previous = {}
    last = {}
    for i in range(n):
        key = tuple(mask >> i & unit for _, mask in root)
        previous[i] = last.get(key)
        last[key] = i

    # Rule 2.  With m labels 0..m-1 left, a slot with r unlabeled members
    # gains between 2**r - 1 and 2**m - 2**(m - r) on top of its fixed bits,
    # so each term of every completion is at least fixed + floor(open).
    # Repeat each term by its multiplicity and sort descending: comparing
    # such lists compares the (exponent, coefficient) lists, and all have
    # the same length.  A list elementwise no greater than another is no
    # greater lexicographically, and the k-th largest of termwise greater
    # values is no smaller, so the sorted floors are at most every
    # completion's list: once they reach the best leaf, nothing below beats
    # it.
    floors = {}

    def floor(mask):
        if mask not in floors:
            floors[mask] = sum(
                ((1 << (mask >> s * n & ((1 << n) - 1)).bit_count()) - 1) << s * n
                for s in range(g.arity)
            )
        return floors[mask]

    def bound(state):
        out = []
        for (fixed, mask), c in state.items():
            out += [fixed + floor(mask)] * c
        out.sort(reverse=True)
        return out

    # Rule 3.  What completions a partial labeling has depends only on the
    # multiset of term states and the labels left, not on which u-vertex
    # holds which state: two partial labelings that agree there have the
    # same completions, and the first visit already found or bounded them.
    seen = set()
    # The compact labeling, label i for v-index i, is the first leaf: its
    # term integers are the open bits themselves.
    best = sorted((mask for _, mask in root.elements()), reverse=True)
    width = len(best)  # terms of every state, counted with multiplicity

    def children(state, free):
        """The unseen children of a state, least bound first.  Each costs
        1 + len(state) + width steps, the size of what building it makes."""
        label = free.bit_count() - 1
        out = []
        for i in range(n):
            if not free >> i & 1 or (previous[i] is not None and free >> previous[i] & 1):
                continue
            meter.charge(1 + len(state) + width, "building states")
            bit = unit << i
            child = {}
            for (fixed, mask), c in state.items():
                b = mask & bit
                key = (fixed + (b >> i << label), mask ^ b) if b else (fixed, mask)
                child[key] = child.get(key, 0) + c
            key = (label, frozenset(child.items()))
            if key in seen:
                continue
            seen.add(key)
            out.append((bound(child), i, child))
        out.sort()
        return iter(out)

    # Depth-first on a stack of (children left, unlabeled v-indices), so
    # |v| is not limited by the recursion limit.
    stack = [(children(root, (1 << n) - 1), (1 << n) - 1)]
    while stack:
        rest, free = stack.pop()
        for floor_list, i, child in rest:
            if floor_list >= best:
                break
            if any(mask for _, mask in child):
                stack += [(rest, free), (children(child, free ^ 1 << i), free ^ 1 << i)]
                break
            best = floor_list  # every slot fixed: a better leaf

    terms = Counter(best)
    if g.arity == 1:
        return Poly1._trusted(terms)
    mask = (1 << n) - 1
    return Poly2._trusted({(e >> n, e & mask): c for e, c in terms.items()})


# ---------------------------------------------------------------------------
# Products and sums.  The polynomial route multiplies or adds the encodings
# and decodes the result.  The direct route builds the same answer on
# vertices alone, with bit positions as v-ids like decode, so
# identity_labeling applies to its output: product u-vertices are pairs
# whose packed slots add, sum u-vertices are a tagged union over the
# v-quotient by equal labels.  When the two label images are disjoint,
# exponent sums never carry, and both collapse to the plain unlabeled
# constructions.

def poly_product(g1, l1, g2, l2):
    return decode(mul(encode(g1, l1), encode(g2, l2)), g1.decoded)


def poly_sum(g1, l1, g2, l2):
    return decode(add(encode(g1, l1), encode(g2, l2)), g1.decoded)


def _packed(g, labeling):
    """u -> its slots packed into exponents: each slot sums 2**label over
    its members, whose bits are distinct because the labeling is checked to
    be injective."""
    check_labeling(g, labeling)
    bit = {v: 1 << labeling[v] for v in g.v_vertices}.__getitem__
    return {
        u: tuple([sum(map(bit, part)) for part in sig]) for u, sig in g._sig.items()
    }


def direct_product(g1, l1, g2, l2):
    """u-vertices are pairs; each pair's slots are read off the bits of the
    sums of the two packed slots."""
    d1 = _packed(g1, l1)
    d2 = _packed(g2, l2)
    bits = {}  # packed sum -> its bit support; many pairs share a sum

    def support(n):
        if n not in bits:
            bits[n] = tau(n)
        return bits[n]

    # Many u-vertices share packed slots, so the slot tuple of each distinct
    # (packed a, packed b) is worked out once and every u-pair maps to it.
    distinct2 = set(d2.values())
    rows = {}  # packed slots of a -> {packed slots of b: slot tuple}
    sig = {}
    for a, ea in d1.items():
        row = rows.get(ea)
        if row is None:
            row = rows[ea] = {
                eb: tuple(support(x + y) for x, y in zip(ea, eb)) for eb in distinct2
            }
        sig.update(zip(zip(repeat(a), d2), map(row.__getitem__, d2.values())))
    vs = set().union(*bits.values())
    return g1.family._build(tuple(sig), tuple(sorted(vs)), sig)


def direct_sum(g1, l1, g2, l2):
    """Tagged union of u parts over the v-quotient by equal labels."""
    check_labeling(g1, l1)
    check_labeling(g2, l2)
    sig = {
        (side, u): tuple(frozenset(lab[v] for v in part) for part in slots)
        for side, (g, lab) in enumerate(((g1, l1), (g2, l2)))
        for u, slots in g._sig.items()
    }
    vs = sorted({l1[v] for v in g1.v_vertices} | {l2[v] for v in g2.v_vertices})
    return g1.family._build(tuple(sig), tuple(vs), sig)


def _tagged(g, side):
    return {
        u: tuple(frozenset((side, v) for v in part) for part in slots)
        for u, slots in g._sig.items()
    }


def _tagged_v(g1, g2):
    return tuple((0, v) for v in g1.v_vertices) + tuple((1, v) for v in g2.v_vertices)


def plain_product(g1, g2):
    """u pairs over the tagged v union; a pair joins both slot tuples.

    For nets this is the pointed product: each side also offers its idle
    event None, so an event may fire alone, and the all-idle pair is left
    out.
    """
    s1 = _tagged(g1, 0)
    s2 = _tagged(g2, 1)
    if g1.idle:
        s1[None] = s2[None] = (frozenset(),) * g1.arity
    sig = {
        (a, b): tuple(x | y for x, y in zip(sa, sb))
        for a, sa in s1.items()
        for b, sb in s2.items()
    }
    if g1.idle:
        del sig[(None, None)]
    return g1.family._build(tuple(sig), _tagged_v(g1, g2), sig)


def plain_coproduct(g1, g2):
    """Disjoint union with side tags."""
    sig = {
        (side, u): slots
        for side, g in enumerate((g1, g2))
        for u, slots in _tagged(g, side).items()
    }
    return g1.family._build(tuple(sig), _tagged_v(g1, g2), sig)
