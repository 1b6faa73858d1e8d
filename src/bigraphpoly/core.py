"""One bipartite core for undirected graphs, directed graphs and nets.

Each of the three is a u part, a v part that carries the labels, and for
every u-vertex a tuple of v-subsets, its slots: one slot (the neighborhood)
for an undirected graph, two (pre and post) for a directed graph or a net.
Encoding sums 2**label over each slot, so a slot becomes the bit support of
an exponent and repeated slot tuples pile up in the coefficient:

    encoding = sum over u of x**(slot 0) [* y**(slot 1)]

A net also has its idle event, the event that touches nothing, so its
encoding holds one more unit in the constant term.

One slot gives a polynomial in N[x], two give one in N[x,y].  Decoding reads
the bits back, which is lossless because an injective labeling never lets
two slots carry.  Labels of v-vertices no slot mentions are invisible to the
polynomial; round-trip statements therefore assume every v-vertex is used.

Everything here is written once for both arities: encode and decode, the
isomorphism search, the canonical form, and products and sums on the
polynomial route, the direct route and the plain unlabeled route.  There is
one class per kind: decoding builds the class it is given, and every
product and sum builds the class of its inputs.  Every structure has
natural_labeling, which labels each v-vertex by its own id; it is a labeling
when the v-ids are naturals, as on all of those outputs but the plain ones.

A structure keeps its u part as u-classes, exactly as the encoding keeps
its terms: each distinct slot tuple with the number of u-vertices that have
it, a net's idle event counted as one unit of its empty class (the class
whose slots are all empty).  So encoding, decoding, the products, the sums
and the factor halves cost what the distinct slot tuples cost, not what the
u-vertices do: a product of two 1000-u graphs has 10**6 u-vertices but at
most as many classes as its encoding has terms.  The per-u views
(u_vertices, slots, edges, arcs, ==, hash and the file writers) are built
from a rule for the ids on first read and kept: (i, k) for k = 1..c on a
decoding, i the term's rank in descending exponent order, the (a, b) pairs
in g1's u order, then g2's, on a product.  A constructor builds them at
once.  Only the per-u views leave the idle event out: it is no u-vertex.
"""

from __future__ import annotations

from collections import Counter
from itertools import repeat

from ._match import find_bijections, pair_ids
from .bits import pack_holders, pack_slots, tau
from .errors import LabelingError, _brief
from .poly import Poly1, Poly2, add, mul, poly_key
from .polyfactor import Budget, _Meter


class Bipartite:
    """Immutable v ids and u-classes: each distinct slot tuple mapped to
    the number of u-vertices that have it, plus a rule for their ids.  A
    net's empty class counts one more, its idle event, so the classes are
    the encoding's terms.

    Encoding, decoding, products and sums read and build the classes, so
    their cost follows the distinct slot tuples.  The per-u views (the u
    ids in order and each u-vertex's slots) are built by the rule on first
    read and kept, with no idle event; a structure made by a constructor
    has them from the start.
    """

    __slots__ = ("_v", "_classes", "_ids", "_u", "_sig")
    arity = 1
    poly = Poly1
    idle = False  # nets: the empty class counts one unit for the idle event
    _empty = (frozenset(),)  # the slots of the empty class
    v_word = "v-part id"  # what labeling errors call a v-vertex
    _u_word = "u-part id"  # what construction errors call a u-vertex,
    _slot_words = ("neighborhood",)  # and each of its slots

    def _check_init(self, u_ids, v_ids, given):
        """Check the two parts and set the slots, in declared u order.

        given maps a u-vertex to its slot tuple of v-id collections; a
        u-vertex it leaves out has empty slots.  Ids must be unique and in
        one part only, every key of given a u-vertex, and every slot member
        a v-vertex.
        """
        u, v = tuple(u_ids), tuple(v_ids)
        uset, vset = set(u), set(v)
        if len(uset) != len(u):
            raise ValueError(f"duplicate {self._u_word}s")
        if len(vset) != len(v):
            raise ValueError(f"duplicate {self.v_word}s")
        both = uset & vset
        if both:
            raise ValueError(f"ids appear in both parts: {_first_few(sorted(both, key=repr))}")
        unknown = given.keys() - uset
        if unknown:
            raise ValueError(
                f"slots given for unknown {self._u_word}s: {_first_few(sorted(unknown, key=repr))}"
            )
        sig = {}
        for x in u:
            sig[x] = slots = tuple(map(frozenset, given.get(x, self._empty)))
            for word, part in zip(self._slot_words, slots):
                if not part <= vset:
                    raise ValueError(
                        f"{word} of {_brief(x)} mentions non-{self.v_word}s: "
                        f"{_first_few(sorted(part - vset, key=repr))}"
                    )
        self._v, self._classes, self._ids = v, Counter(sig.values()), None
        self._u, self._sig = u, sig
        if self.idle:
            self._classes[self._empty] += 1

    @classmethod
    def _build(cls, v, classes, ids):
        """Instance from parts already known to be consistent: the v ids,
        the classes, and ids, which gives the dict u -> slots in u order
        when a per-u view is first read, or None for a decoding's ids."""
        obj = object.__new__(cls)
        obj._v, obj._classes, obj._ids, obj._u, obj._sig = v, classes, ids, None, None
        return obj

    def _per_u(self):
        """u -> slots in u order, built with the u ids by the id rule on
        first read; a structure with no rule has a decoding's, _copies."""
        sig = self._sig
        if sig is None:
            self._sig = sig = self._ids() if self._ids else _copies(self._classes, self.idle)
            self._u, self._ids = tuple(sig), None
        return sig

    @property
    def u_vertices(self):
        self._per_u()
        return self._u

    @property
    def v_vertices(self):
        return self._v

    def slots(self, u):
        """The v-sets of u: (neighbors,) or (pre, post)."""
        try:
            return self._sig[u]
        except TypeError:  # the views are not built yet: _sig is None
            return self._per_u()[u]

    @property
    def natural_labeling(self):
        """Each v-vertex labeled by its own id: a labeling when the v-ids
        are naturals, as they are on the output of decoding and of the
        polynomial and direct products and sums."""
        return {v: v for v in self._v}

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self._v == other._v
            and self._per_u() == other._per_u()
            and self._u == other._u
        )

    def __hash__(self):
        return hash((self.u_vertices, self._v, tuple(self._per_u().values())))

    def __repr__(self):
        links = sum(c * sum(map(len, slots)) for slots, c in self._classes.items())
        u = sum(self._classes.values()) - self.idle  # the idle event is no u-vertex
        return f"{type(self).__name__}(|u|={u}, |v|={len(self._v)}, |links|={links})"


class Directed(Bipartite):
    """Two slots per u-vertex: the v-vertices feeding it, and those it feeds."""

    __slots__ = ()
    arity = 2
    poly = Poly2
    _empty = (frozenset(),) * 2
    _slot_words = ("pre set", "post set")

    def pre(self, u):
        """v-vertices with an arc into u (the conditions an event consumes)."""
        return self.slots(u)[0]

    def post(self, u):
        """v-vertices u has an arc into (the conditions an event produces)."""
        return self.slots(u)[1]


def _first_few(items, limit=5):
    """The first limit items as a list literal, each abbreviated, and their
    number when there are more: error text stays short whatever the items."""
    items = list(items)
    text = "[" + ", ".join(map(_brief, items[:limit]))
    return text + "]" if len(items) <= limit else f"{text}, ...] ({len(items)} in all)"


def _same_kind(g1, g2):
    """Reject a graph, digraph or net paired with another kind."""
    if type(g1) is not type(g2):
        raise TypeError(f"mixed kinds: {type(g1).__name__} and {type(g2).__name__}")


# ---------------------------------------------------------------------------
# Labelings.

def check_labeled(g, labeling):
    """Require every v-vertex to have a label and every such label to be a
    natural.  A file's reader checks only the labels the file gives, which
    may leave some v-vertices unlabeled; encoding and the writers need all."""
    missing = [x for x in g.v_vertices if x not in labeling]
    if missing:
        raise LabelingError(f"unlabeled {g.v_word}s: {_first_few(missing)}")
    for x in g.v_vertices:
        val = labeling[x]
        if not isinstance(val, int) or isinstance(val, bool) or val < 0:
            raise LabelingError(
                f"label of {g.v_word} {_brief(x)} must be a natural, got {_brief(val)}"
            )


def check_labeling(g, labeling):
    """Require a total injection from the v part into the naturals."""
    check_labeled(g, labeling)
    seen = {}
    for x in g.v_vertices:
        val = labeling[x]
        if val in seen:
            raise LabelingError(
                f"label {_brief(val)} given to both {_brief(seen[val])} and {_brief(x)}"
            )
        seen[val] = x


def compact_labeling(g) -> dict:
    """Labels 0..|v|-1 in declared v order."""
    return {v: i for i, v in enumerate(g.v_vertices)}


def identity_labeling(g) -> dict:
    """For graphs whose v-ids already are naturals, label each by itself."""
    return g.natural_labeling


# ---------------------------------------------------------------------------
# Encoding and decoding.

def encode(g: Bipartite, labeling):
    """One term per u-vertex, each slot packed into one exponent: one term
    per class, with its count as the coefficient.

    A u-vertex with empty slots contributes the constant 1, so it shows up in
    the constant coefficient rather than vanishing; a net's idle event is
    one more unit of it.
    """
    return _encoded(g, labeling)[1]


def _encoded(g, labeling):
    """(the term key of each class of g, in order, the encoding of
    g): each slot sums 2**label over its members, whose bits are distinct
    because the labeling is checked to be injective, so distinct classes
    get distinct keys.  A label past the largest byte buffer the platform
    can index is rejected."""
    check_labeling(g, labeling)
    classes = g._classes
    try:
        packed = pack_slots(classes, g.v_vertices, labeling, g.arity)
    except OverflowError:
        raise _too_large(g, labeling) from None
    return packed, g.poly._from_key(sorted(zip(packed, classes.values()), reverse=True))


def _too_large(g, labeling):
    """The error for a label past the largest byte buffer the platform can
    index: packing it overflowed."""
    v = max(g.v_vertices, key=labeling.__getitem__)
    return LabelingError(
        f"label of {g.v_word} {_brief(v)} is too large to encode: {_brief(labeling[v])}"
    )


def _slot_terms(g, labeling):
    """The bit-disjoint search's input for a digraph or net g under
    labeling, read off its classes in one pass: (terms, holders, names).

    The search works on ranks: the v-vertex with the t-th least label is
    bit t.  terms maps the term key of each class, packed so, to its count,
    in class order, and holders lists the mask of the classes whose pre
    slot holds the v-vertex of each rank, in rank order, then those of the
    post slots, bit i for class i; holders is None when some v-vertex is in
    no slot.  names lists the labels in rank order, the name of each bit,
    or is None when they are 0..|v|-1, so ranks are labels.  A split is a
    partition of the v part, so the labels change no answer, and packing
    ranks never builds an int wider than |v| bits.
    """
    check_labeling(g, labeling)
    order = sorted(g.v_vertices, key=labeling.__getitem__)
    keys, pre, post = pack_holders(g._classes, order)
    terms = dict(zip(keys, g._classes.values()))
    if not all(map(int.__or__, pre, post)):
        return terms, None, None
    names = list(map(labeling.__getitem__, order))
    return terms, pre + post, None if names == [*range(len(names))] else names


def decode(p, cls):
    """Instance of cls whose encoding under the identity labeling is p.

    v-vertices are the bit positions in p's support.  Each term n * x**i
    [* y**j] yields n u-vertices whose slots are the bits of its exponents;
    u-ids are (rank, copy) int pairs, (i, 1) .. (i, n) for the term at rank
    i from 0 in descending exponent order.  A net's idle event is one count
    of its empty class, and no per-u view lists it.
    """
    if not isinstance(p, cls.poly):
        raise TypeError(
            f"{cls.__name__} decodes from {cls.poly.__name__}, got {type(p).__name__}"
        )
    if cls.idle and p.constant_coeff() < 1:
        raise ValueError(
            "not a net encoding: the constant term must be at least 1 (idle slot)"
        )
    return _decode(poly_key(p), cls, {})


def _decode(key, cls, supports, ids=None, names=None):
    """decode of the polynomial whose poly_key is key, with no checks: both
    factor searches emit their halves as such keys, and a net's halves
    hold a constant term.  ids is the id rule; with none, _per_u applies
    _copies.  names, ascending, names the v-vertex of each bit: the
    bit-disjoint search works on the ranks of the labels, so its halves
    are decoded with bit t named names[t], the t-th least label, and no int
    as wide as the labels is built.  With none, bit t is the v-vertex t.

    Each term is one class, its slots the named bit supports of its
    exponent and its count the coefficient.  supports maps an exponent to
    those slots and the OR of its parts; the decodes of one search share
    it, so each distinct exponent is split into bits and named once.  The
    named bits of the OR of all exponents are the v part: names ascend, so
    sorting them sorts the bits.  A net's idle event is one unit of the
    constant term's class, left out by _copies.
    """
    named = tau if names is None else lambda e: frozenset(map(names.__getitem__, tau(e)))
    classes = {}
    ors = 0
    for exp, c in key:
        row = supports.get(exp)
        if row is None:
            if type(exp) is tuple:
                x, y = exp
                row = supports[exp] = ((named(x), named(y)), x | y)
            else:
                row = supports[exp] = ((named(exp),), exp)
        slots, bits = row
        ors |= bits
        classes[slots] = c
    return cls._build(tuple(sorted(named(ors))), classes, ids)


def _copies(classes, idle):
    """u -> slots of a decoding, in term order: the c u-vertices of the
    class at rank i, counted from 0 in the descending exponent order in
    which _decode builds the classes, are (i, 1) .. (i, c), so an id is as
    long as the term count, not as the labels.  With idle, the empty class
    lists one copy fewer, as one of its units is the idle event."""
    sig = {}
    for i, (slots, c) in enumerate(classes.items()):
        if idle and not any(slots):
            c -= 1
        if c == 1:
            sig[i, 1] = slots
        else:
            for k in range(1, c + 1):
                sig[i, k] = slots
    return sig


# ---------------------------------------------------------------------------
# Isomorphism and canonical form.

def is_isomorphic(g1: Bipartite, g2: Bipartite, budget: Budget = Budget()):
    """Part- and slot-respecting isomorphism witness (u map, v map), or None.

    For nets that is (event map, condition map).  The search reads the
    class tables, so its cost follows the distinct slot tuples: a step is a
    node of the individualize-and-refine search tree, a v-vertex, class or
    slot member read by a refinement round, or a class of an assignment
    checked as a witness.  The u map is paired class by class once, after
    the search.  Mixed kinds raise TypeError.
    """
    _same_kind(g1, g2)
    found = find_bijections(list(g1.v_vertices), g1._classes, list(g2.v_vertices),
                            g2._classes, _Meter(budget))
    return found and (pair_ids(g1._per_u(), g2._per_u(), found[0]), found[1])


def canonical_poly(g: Bipartite, budget: Budget = Budget()):
    """Least encoding over all labelings by 0..|v|-1.

    Term lists in descending exponent order compare lexicographically by
    (exponent, coefficient) pairs, as poly_key does; the minimum is a
    labeling-independent invariant, equal for isomorphic graphs.  It is the
    last encoding of _encodings' least mode, so it is what trying all |v|!
    labelings would give, and its steps are the walk's: one per child state
    built and two per distinct term of its parent, so the cost follows the
    distinct terms, not the u-vertices.  Symmetric inputs still visit a
    large share of the |v|! labelings.
    """
    search = f"the canonical form of {len(g.v_vertices)} v-vertices"
    for p, _ in _encodings(g, _Meter(budget), search, least=True):
        pass
    return p


def _encodings(g: Bipartite, meter, search, least):
    """(encoding, labeling) pairs of g under labelings by 0..|v|-1, the
    compact labeling's first.  search names the walk in budget errors; it
    is set again after each yield, as the consumer may search on the meter.

    Least mode yields only encodings below all it yielded before, so its
    last is the least encoding.  Every mode yields each distinct encoding
    once.  The walk is depth-first and gives label n-1 first, then n-2, and
    so on; a labeling is given in declared v order.  Three rules prune it:

    1. Twin classes: of the unlabeled v-vertices with the same membership
       in every slot of every u-vertex, only one is tried per label.
    2. Elementwise bound, least mode only: a branch whose sorted term lower
       bounds are already no less than the best leaf found is dropped.
    3. Repeated states: a partial labeling whose multiset of (fixed bits,
       unlabeled members, multiplicity) per term was met before at the same
       depth is dropped.

    A step is a unit of building a child state: one for the child and two
    per distinct term of its parent, one for its entry in the child and one
    for its run in the child's bound, so a class's u-vertex count costs
    nothing.
    """
    vs = g.v_vertices
    n = len(vs)
    size = g.arity * n
    full = (1 << size) - 1
    # One integer per term: slot s holds its bits (arity - 1 - s) * n places
    # up, so with two slots the integer is x_exp * 2**n + y_exp and integers
    # order exactly as (x, y) exponent pairs do.  A state is a sorted tuple
    # of one integer per distinct term, count << 2 * size | fixed << size |
    # open: its multiplicity, the bits of its labeled members, packed so,
    # and the v-index bits of its unlabeled members, packed the same way.
    # Giving label L to v-index i moves i's bits b = open & (unit << i) over
    # as (b >> i) << L.  No term has bits at an unused label's places, so
    # the move keeps distinct terms distinct, and terms not on i keep their
    # integer.
    unit = 1 if g.arity == 1 else 1 | 1 << n
    # Rule 1.  Swapping two twins maps every slot to itself, so a labeling
    # that gives L to one has the encoding of the one that gives L to the
    # other.  Twins are the v-indices with equal pre and post holder masks
    # in _ranked's class pass.  They are always labeled in index order, so
    # the unlabeled ones of a class are a tail of it: i is tried when its
    # previous twin is not unlabeled.
    keys, previous = _ranked(g)
    root = dict(zip([x << size - n | y for x, y in keys], g._classes.values()))

    # Rule 2.  With m labels 0..m-1 left, a slot with r unlabeled members
    # gains between 2**r - 1 and 2**m - 2**(m - r) on top of its fixed bits,
    # so every completion of term t is at least floor(t): its fixed bits
    # plus 2**r - 1 in each slot, memoized by the integer the states already
    # hold.  The bound is the runs (floor(t), count) of the distinct terms,
    # the count being t's top field, sorted descending.  Expanded into count
    # copies each, the floors form a list as long as every completion's
    # expanded (exponent, coefficient) list and, sorted, elementwise no
    # greater, as the k-th largest of termwise greater values is no smaller;
    # two such lists compare as their runs do once equal values share one
    # run.  Terms that share a floor leave it split over runs, which
    # compares lower still, as (f, a) < (f, a + b).  So the bound is at most
    # every completion's runs: once it reaches the best leaf, nothing below
    # beats it.  At a leaf, where nothing is open, the terms are distinct
    # and the runs are the encoding's poly_key.
    floors = {}

    def floor(t):
        low = floors.get(t)
        if low is None:
            o = t & full  # with one slot, o >> n is 0
            x, y = (o >> n).bit_count(), (o & (1 << n) - 1).bit_count()
            low = floors[t] = (t >> size & full) + ((1 << x) - 1 << n) + (1 << y) - 1
        return low

    def bound(state):
        return sorted([(floor(t), t >> 2 * size) for t in state], reverse=True)

    # Rule 3.  What completions a partial labeling has depends only on the
    # multiset of term states and the labels left, not on which u-vertex
    # holds which state: two partial labelings that agree there have the
    # same completions, and the first visit already found or bounded them.
    # The sorted tuple is that multiset, so with the depth it is the key.
    # Equal encodings leave equal leaf states at the same depth, the one
    # that labels their least bit, so every mode meets each encoding once.
    seen = set()
    # The compact labeling, label i for v-index i, is the first leaf: its
    # term integers are the open bits themselves.
    best = compact = sorted(root.items(), reverse=True)

    def children(state, free):
        """The children of a state, in least mode least bound first.  Each
        costs 1 + 2 * len(state) steps, the size of what building it makes:
        the child and its bound, one entry per distinct term each."""
        shift = size + free.bit_count() - 1  # the label's place in the fixed field
        out = []
        for i in range(n):
            if not free >> i & 1 or (previous[i] is not None and free >> previous[i] & 1):
                continue
            meter.charge(1 + 2 * len(state), "building states")
            bit = unit << i
            child = tuple(sorted(t ^ b ^ b >> i << shift if (b := t & bit) else t for t in state))
            out.append((bound(child) if least else None, i, child))
        if least:
            out.sort()
        return iter(out)

    def encoding(runs):
        if g.arity == 2:
            runs = [((e >> n, e & (1 << n) - 1), c) for e, c in runs]
        return g.poly._from_key(runs)

    yield encoding(compact), dict(zip(vs, range(n)))
    meter.search = search
    # Depth-first on a stack of (children left, unlabeled v-indices, the
    # v-indices labeled so far, least label first), so |v| is not limited
    # by the recursion limit.
    state = tuple(sorted(c << 2 * size | mask for mask, c in root.items()))
    stack = [(children(state, (1 << n) - 1), (1 << n) - 1, ())]
    while stack:
        rest, free, path = stack.pop()
        for runs, i, child in rest:
            if least and runs >= best:
                break
            # Rule 3 keeps the states visited, not all children built: in
            # least mode the bound cuts most of them.
            key = (free.bit_count(), child)
            if key in seen:
                continue
            seen.add(key)
            left = free ^ 1 << i
            if any(t & full for t in child):
                stack += [(rest, free, path), (children(child, left), left, (i, *path))]
                break
            if not least:  # a leaf, whose list least mode built already
                runs = bound(child)
                if runs == compact:
                    continue
            best = runs
            # order[k] is the v-index labeled k; v-indices still unlabeled
            # are in no slot and take the labels left in index order.
            order = [j for j in range(n) if left >> j & 1] + [i, *path]
            yield encoding(runs), dict(zip(vs, sorted(range(n), key=order.__getitem__)))
            meter.search = search


def _ranked(g):
    """(keys, previous): the walk's input, read off one class pass that packs
    g's slots at their members' v-indices (bits.pack_holders).  keys lists
    the (x, y) term key of each class, in class order; a graph's one slot
    goes in as pre with an empty post, as N[x] is the y-degree-0 part of
    N[x,y], so its keys are (x, 0).  previous[i] is the last v-index before
    i whose pre and post holder masks both equal i's, or None: such twins
    are members of exactly the same slots of every class."""
    classes = [(part, ()) for (part,) in g._classes] if g.arity == 1 else g._classes
    keys, pre, post = pack_holders(classes, g.v_vertices)
    previous, last = [], {}
    for i, masks in enumerate(zip(pre, post)):
        previous.append(last.get(masks))
        last[masks] = i
    return keys, previous


# ---------------------------------------------------------------------------
# Products and sums.  The polynomial route multiplies or adds the encodings
# and decodes the result.  The direct route builds the same answer on
# vertices alone, with bit positions as v-ids like decode, so
# natural_labeling applies to its output: product u-vertices are pairs
# whose packed slots add, sum u-vertices are a tagged union over the
# v-quotient by equal labels.  When the two label images are disjoint,
# exponent sums never carry, and both collapse to the plain unlabeled
# constructions.  Every one takes two structures of one kind and raises
# TypeError on mixed kinds.
#
# Products of nets are pointed on every route: each side also offers its
# idle event, so an event may fire alone, and the encoding of the product
# is the product of the encodings.  Sums of nets share one idle event on the
# direct and plain routes, so their encoding plus 1 is the sum of the
# encodings; poly_sum decodes that sum, whose constant of at least 2 is the
# idle event plus at least one event with empty slots.

def poly_product(g1, l1, g2, l2):
    _same_kind(g1, g2)
    return decode(mul(encode(g1, l1), encode(g2, l2)), type(g1))


def poly_sum(g1, l1, g2, l2):
    _same_kind(g1, g2)
    return decode(add(encode(g1, l1), encode(g2, l2)), type(g1))


def _pairs(g1, g2, table):
    """The id rule of a product of g1 and g2: it gives (a, b) -> the slots
    of the pair for every u-pair, a's pairs in g2's u order, g1's
    u-vertices in order.  table() builds {class of g1: {class of g2: slots
    of their pairs}}, and is called once, when a per-u view is first read.
    For nets each side also offers its idle event None, last, in the class
    of empty slots, so an event may fire alone; the all-idle pair is left
    out."""
    def ids():
        sig1, sig2 = g1._per_u(), g2._per_u()
        if g1.idle:
            sig1, sig2 = {**sig1, None: g1._empty}, {**sig2, None: g1._empty}
        rows = table()
        sig = {}
        for a, s in sig1.items():
            sig.update(zip(zip(repeat(a), sig2), map(rows[s].__getitem__, sig2.values())))
        if g1.idle:
            del sig[None, None]
        return sig

    return ids


def direct_product(g1, l1, g2, l2):
    """u-vertices are pairs; each pair's slots are read off the bits of the
    sums of the two packed slots.  For nets this is the pointed product, as
    plain_product is: (a, None) and (None, b) fire a and b alone, and the
    natural encoding is the product of the two encodings.

    Those sums are the terms of the product of the encodings, so the
    classes are the decoding's, and only the ids differ from poly_product's;
    a class pair's sum is read when a per-u view is first read.
    """
    _same_kind(g1, g2)
    (k1, p1), (k2, p2) = _encoded(g1, l1), _encoded(g2, l2)
    d1, d2 = dict(zip(g1._classes, k1)), dict(zip(g2._classes, k2))
    supports = {}  # filled by the decoding with every sum of a class pair

    def table():
        if g1.arity == 1:
            return {s: {t: supports[x + y][0] for t, y in d2.items()} for s, x in d1.items()}
        return {s: {t: supports[x[0] + y[0], x[1] + y[1]][0] for t, y in d2.items()}
                for s, x in d1.items()}

    return _decode(poly_key(mul(p1, p2)), type(g1), supports, _pairs(g1, g2, table))


def _renamed(classes, name):
    """class -> its slots with each member v renamed name[v]."""
    get = name.__getitem__
    return {s: tuple([frozenset(map(get, part)) for part in s]) for s in classes}


def _union(g1, g2, names, vs):
    """The sum of g1 and g2 with v part vs: u-vertices (side, u), each slot
    member v renamed names[side][v], so v-vertices sharing a name merge.
    Two nets' idle events merge into one."""
    renamed = [_renamed(g._classes, name) for g, name in zip((g1, g2), names)]
    classes = {}
    for g, new in zip((g1, g2), renamed):
        for s, c in g._classes.items():
            classes[new[s]] = classes.get(new[s], 0) + c
    if g1.idle:
        classes[g1._empty] -= 1

    def ids():
        return {(side, u): new[s] for side, (g, new) in enumerate(zip((g1, g2), renamed))
                for u, s in g._per_u().items()}

    return type(g1)._build(tuple(vs), classes, ids)


def direct_sum(g1, l1, g2, l2):
    """Tagged union of u parts over the v-quotient by equal labels.  Two
    nets share one idle event, so the natural encoding plus 1 is the sum of
    the two encodings."""
    _same_kind(g1, g2)
    check_labeling(g1, l1)
    check_labeling(g2, l2)
    vs = sorted({l1[v] for v in g1.v_vertices} | {l2[v] for v in g2.v_vertices})
    return _union(g1, g2, (l1, l2), vs)


def _tags(g1, g2):
    """For each side, v -> (side, v): the v part of the plain constructions."""
    return [{v: (side, v) for v in g.v_vertices} for side, g in enumerate((g1, g2))]


def plain_product(g1, g2):
    """u pairs over the tagged v union; a pair joins both slot tuples.

    For nets this is the pointed product: each side also offers its idle
    event None, so an event may fire alone, and the all-idle pair is the
    product's idle event.  The tags keep the sides apart, so each class
    pair joins once, to a class of its own that counts the product of the
    two counts.
    """
    _same_kind(g1, g2)
    names = _tags(g1, g2)
    c1, c2 = g1._classes, g2._classes
    r1, r2 = map(_renamed, (c1, c2), names)
    table, classes = {}, {}
    for s, a in r1.items():
        row = table[s] = {t: tuple(map(frozenset.union, a, b)) for t, b in r2.items()}
        classes.update(zip(row.values(), [c1[s] * c for c in c2.values()]))
    vs = (*names[0].values(), *names[1].values())
    return type(g1)._build(vs, classes, _pairs(g1, g2, lambda: table))


def plain_coproduct(g1, g2):
    """Disjoint union with side tags; two nets share one idle event."""
    _same_kind(g1, g2)
    names = _tags(g1, g2)
    return _union(g1, g2, names, (*names[0].values(), *names[1].values()))
