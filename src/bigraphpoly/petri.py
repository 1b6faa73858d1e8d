"""Petri nets, their two-variable encoding, and product decomposition.

A net here is the static structure: conditions, events, and for each event
the set of conditions it consumes (pre) and produces (post).  It is the
two-slot bipartite core with events as the u part and conditions as the v
part, so encoding packs an event's pre set into the x exponent and its post
set into the y exponent, exactly like a directed graph, then adds the
constant term 1: an idle slot standing for the event that touches nothing.

The idle slot is what makes the pointed product work.  The product runs two
nets side by side; its events are pairs that fire jointly, and pairing with
the other net's idle lets an event fire alone.  On encodings that is plain
multiplication: product polynomial = product of the factor polynomials.

Decoding reads the constant term as the net's empty class: the idle event
is one count of the empty class, and no per-u view lists it; each further
constant unit is a real event with empty pre and post sets.
A split p = p1 * p2 of the encoding into bit-disjoint factors therefore
rebuilds p exactly as the product of the decoded factors, and that product
is isomorphic to the net as soon as every condition meets an event, since
conditions no event touches are invisible to the polynomial.  The
isomorphism itself is read off the construction (``witness``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ._match import _class_map, pair_ids
from .core import (
    Directed,
    compact_labeling,
    decode,
    encode,
    is_isomorphic,
    plain_product,
)
from .graphfactor import factor_graph
from .poly import Poly2
from .polyfactor import Budget


class PetriNet(Directed):
    """Immutable net structure; pre and post sets may be empty."""

    __slots__ = ()
    idle = True
    v_word = "condition"
    _u_word = "event"

    def __init__(self, conditions=(), events=(), pre=None, post=None):
        pre, post = pre or {}, post or {}
        given = {e: (pre.get(e, ()), post.get(e, ())) for e in (*pre, *post)}
        self._check_init(events, conditions, given)

    @property
    def conditions(self):
        return self._v

    @property
    def events(self):
        return self.u_vertices


@dataclass(frozen=True, eq=True)
class LabeledPetriNet:
    """A net bundled with an injective condition labeling; the labeling
    takes no part in the hash, so equal records hash equal."""

    net: PetriNet
    labeling: dict = field(default_factory=dict, hash=False)


def decode_net(p: Poly2) -> LabeledPetriNet:
    """PetriNet whose encoding under its natural labeling is p, with that
    labeling.

    Requires a constant term of at least 1; one unit of it is the idle
    event, which no per-u view lists.  Conditions are the bit positions of p's
    support, labeled by themselves.  Event ids are (rank, copy) pairs, (i,
    1) .. (i, c) for the term c * x**e * y**f at rank i from 0 in
    descending order, its pre bits e and post bits f.
    """
    net = decode(p, PetriNet)
    return LabeledPetriNet(net, net.natural_labeling)


def decompose(net: PetriNet, labeling, budget: Budget = Budget()) -> list:
    """All splittings of net into a product of two smaller nets.

    The pairs are factor_graph's: bit-disjoint factors of the encoding,
    each half a net as q(0) * r(0) = p(0) >= 1.  The search reads the net's
    classes, and each half is decoded from its poly_key; this only wraps
    the halves with their labelings.  The product of each pair's nets
    encodes back to the net's encoding exactly, so it is the net itself up
    to isomorphism once every condition meets an event; a net with an
    untouched condition gets no split.  A split is a partition of the
    conditions, so which splits exist does not depend on the injective
    labeling; the labeling only sets the bits that the halves' conditions
    are decoded from.  Returns a list of
    (LabeledPetriNet, LabeledPetriNet) pairs under their natural labeling;
    empty certifies that the net does not split.
    """
    return [
        (LabeledPetriNet(q, q.natural_labeling), LabeledPetriNet(r, r.natural_labeling))
        for q, r in factor_graph(net, labeling, budget)
    ]


def witness(net: PetriNet, labeling, first: LabeledPetriNet, second: LabeledPetriNet):
    """(event map, condition map) from net_product(first.net, second.net)
    onto net, for a pair that decompose returned under this labeling.

    Read off the construction, with no search: a product condition (side,
    b) is the net's condition carrying that side's label of b.  That map
    carries each event class of the product onto a class of the net with
    the same count, and the events are paired class by class; the event
    map is None for a pair whose classes it does not carry so.
    """
    prod = net_product(first.net, second.net)
    by_label = {lab: b for b, lab in labeling.items()}
    cmap = {
        (side, b): by_label[half.labeling[b]]
        for side, half in enumerate((first, second))
        for b in half.net.conditions
    }
    classes = _class_map(prod._classes, net._classes, cmap)
    return classes and pair_ids(prod._per_u(), net._per_u(), classes), cmap


# Another name for the class, kept for code that imports it, and the net
# spellings of operations the core writes once.
DecodedPetriNet = PetriNet
encode_net = encode
net_product = plain_product
net_isomorphic = is_isomorphic
compact_net_labeling = compact_labeling
