"""Factoring a labeled graph, digraph or net through its polynomial.

A factor pair of the encoding decodes to a pair of labeled structures, and
every two-factor decomposition shows up this way: a graph's encoding splits
over N[x] by the full coefficient search, a digraph's or net's over N[x,y]
into bit-disjoint pairs.  The product of the decoded factors encodes back to
the encoding exactly, so it is the input itself up to isomorphism whenever
every v-vertex meets an edge; that single check stands in for any
isomorphism search.  A graph's factorability depends on the labeling: it
can split under one labeling and resist another, so irreducibility verdicts
carry their scope, either the single labeling that was tried or every
compact labeling.  A bit-disjoint split of a digraph or net is a partition
of its v part, so whether one exists does not depend on the labeling: it
is searched on the ranks of the labels, which only name the halves' bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .bits import tau_poly
from .core import _decode, _encodings, _slot_terms, _too_large, compact_labeling, encode
from .errors import BudgetExceededError
from .polyfactor import Budget, _bit_disjoint_factor, _divisors, _factor_pairs, _Meter
from .polyfactor import _read, _widened


@dataclass(frozen=True)
class IrreducibilityReport:
    verdict: str  # "reducible" | "irreducible" | "inconclusive"
    scope: str  # "labeling" | "compact-labelings"
    # (labeling, (factor, cofactor)) if reducible; the labeling is a dict,
    # so the witness takes no part in the hash.
    witness: tuple | None = field(default=None, hash=False)
    detail: str = ""


def factor_graph(g, labeling, budget: Budget = Budget()) -> list:
    """All pairs of labeled graphs, digraphs or nets whose product is
    isomorphic to g.

    A graph splits by factor_pairs, a digraph or net into bit-disjoint pairs
    by bit_disjoint_factor; a net's halves are nets, as q(0) * r(0) = p(0) >= 1.
    The search's key pairs come from _key_pairs and are read by
    polyfactor._read, as the polynomial routes read theirs, with every
    half decoded from its poly_key as g's own class, labeled by its
    natural_labeling; the halves of one call share one table from exponent
    to slots.  A digraph's or net's halves are found on the ranks of the
    labels and decoded with each rank named by its label, so they answer
    under any injective labeling, one too large to encode included.
    v-vertices no edge touches are invisible to the polynomial, so an
    input with one gets no pair rather than a bogus one.  Empty means no
    two-factor split exists under this labeling.
    """
    pairs, names = _key_pairs(g, labeling, _Meter(budget))
    return _read(pairs, _decoder(type(g), names))


def graph_factor_pairs(g, labeling, budget: Budget = Budget()) -> list:
    """The pairs of factor_graph as the polynomials they decode from: the
    factor pairs of g's encoding under labeling, none when some v-vertex
    meets no edge.  The same key pairs as factor_graph's, read by _read
    with each half made a polynomial from its poly_key, a digraph's or
    net's with each rank's bit moved to its label (polyfactor._widened).
    Each half encodes back to itself under its decoding's natural
    labeling.  A half whose encoding is too large to build raises encode's
    LabelingError."""
    pairs, names = _key_pairs(g, labeling, _Meter(budget))
    try:
        return _read(pairs, _widened(g.poly._from_key, names))
    except OverflowError:
        raise _too_large(g, labeling) from None


def _key_pairs(g, labeling, meter):
    """(pairs, names): the search's pairs for g under labeling as sorted
    pairs of poly_keys, none when some v-vertex meets no edge, and the
    labels their bits name, or None when bit t is label t.  A graph's
    pairs come off its encoding by the coefficient search; a digraph's or
    net's off its classes by the bit-disjoint search, on the ranks of the
    labels (core._slot_terms), with no encoding built.  The one way from a
    structure into either search."""
    if g.arity == 1:
        p = encode(g, labeling)
        if not p or len(tau_poly(p)) != len(g.v_vertices):
            return [], None
        return _factor_pairs(p, meter), None
    terms, holders, names = _slot_terms(g, labeling)
    if not terms or holders is None:
        return [], None
    return _bit_disjoint_factor(terms, holders, meter), names


def _decoder(cls, names=None):
    """The maker of _read for halves decoded as cls from their poly_keys,
    bit t naming the v-vertex names[t], or t when names is None: the
    decodes of one call share one table from exponent to slots."""
    supports = {}
    return lambda key: _decode(key, cls, supports, None, names)


def _values_split(p, meter):
    """Whether p(1) and p(0) >= 1 admit the values of a split q * r: some
    divisor a of p(1) and c of p(0) with a > c and p(1) / a > p(0) / c, as
    q(1) * r(1) = p(1), q(0) * r(0) = p(0), q(1) > q(0) and r(1) > r(0).
    Both are the same under every labeling of a graph."""
    one, zero = sum(p.terms.values()), p.constant_coeff()
    cs = _divisors(zero, meter)
    return any(a > c and one // a > zero // c for a in _divisors(one, meter) for c in cs)


def is_irreducible(
    g,
    labeling=None,
    *,
    exhaustive=False,
    budget: Budget = Budget(),
) -> IrreducibilityReport:
    """Decide two-factor splittability of g.

    Single-labeling mode tries the given labeling (compact by default) and
    scopes its verdict to it.  Exhaustive mode answers for every labeling by
    0..|v|-1.  No labeling splits a graph with a v-vertex no edge meets,
    and a split of a digraph or net is a partition of its v part, so there
    one compact labeling answers for all of them.  On an undirected graph
    with every v-vertex on an edge, the sweep walks those labelings as
    canonical_poly does, with no bound, and searches each distinct encoding
    once, the compact one first; "irreducible" says nothing about labels
    past |v|-1.  A graph whose every u-vertex has a neighbour has p(0) = 0,
    so with every v-vertex on an edge and degree 2 or more, its first
    encoding already splits off x: ((1, 1),) is the least poly_key of a
    nonconstant half, and the trivial split of p / x**m shifted once gives
    it, so factor_graph's first pair is (x, p / x).  Both modes answer from
    that pair with no search, charged as one emitted pair, its halves
    made by the decoder the searches' pairs are read with.
    Whether every v-vertex meets an edge does not depend on the labeling,
    so it is tested once, on the first encoding; a digraph or net is
    searched through _key_pairs, on the ranks of its labels, and each
    encoding of a graph goes straight to the coefficient search.  Only
    the first pair a search emits is decoded, by _read, with each rank
    named by its label.  The walk and the searches share one
    allowance: the walk charges each state it builds one step and two per
    distinct term of its parent, and each encoding costs at least the
    divisor scan of p(1).
    Running out gives "inconclusive".  p(1) and p(0) are the same under
    every labeling, so when p(0) >= 1 and they admit no split's values
    (_values_split), the sweep answers "irreducible" before the walk.
    """
    scope = "compact-labelings" if exhaustive else "labeling"
    meter = _Meter(budget)
    lab = compact_labeling(g) if exhaustive or labeling is None else labeling
    # A digraph or net is searched by _key_pairs, off its classes.
    p = encode(g, lab) if g.arity == 1 else None
    encodings = [(p, lab)]
    try:
        if p is not None:
            # Whether every v-vertex meets an edge does not depend on the
            # labeling, so it is tested once.
            if not p or len(tau_poly(p)) != len(g.v_vertices):
                return IrreducibilityReport("irreducible", scope)
            if exhaustive:
                meter.search = f"the sweep over the labelings of {len(g.v_vertices)} v-vertices"
                encodings = _encodings(g, meter, meter.search, least=False)
            if not p.constant_coeff() and p.degree >= 2:
                meter.charge(1 + len(p.terms), "emitting the factors")
                rest = tuple([(e - 1, c) for e, c in p.terms.items()])
                make = _decoder(type(g))
                pair = make(((1, 1),)), make(rest)
                return IrreducibilityReport("reducible", scope, (lab, pair))
            if exhaustive and p.constant_coeff() and not _values_split(p, meter):
                return IrreducibilityReport("irreducible", scope)
        for p, lab in encodings:
            pairs, names = (_factor_pairs(p, meter), None) if p else _key_pairs(g, lab, meter)
            if pairs:
                pair = _read(pairs[:1], _decoder(type(g), names))[0]
                return IrreducibilityReport("reducible", scope, (lab, pair))
    except BudgetExceededError as e:
        return IrreducibilityReport("inconclusive", scope, detail=str(e))
    return IrreducibilityReport("irreducible", scope)
