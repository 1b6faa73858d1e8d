"""Undirected and directed bipartite graphs with a labeled v part.

Vertices split into a "u" part and a "v" part; only the v part carries
labels.  An undirected graph has u-to-v edges, and encodes in N[x]:

    encoding = sum over u of x**(sum over neighbors v of 2**label(v))

A directed graph has arcs either way between the parts, so each u-vertex
has two neighborhoods, the v-vertices pointing at it and the ones it points
at, and encodes in N[x,y]:

    encoding = sum over u of x**(bits of in-labels) * y**(bits of out-labels)

Both are the bipartite core of ``core`` with one or two slots per u-vertex;
every operation on them lives there once, and the names here are the public
spellings of it.  Graphs are immutable.
"""

from __future__ import annotations

from collections import defaultdict

from .core import (
    Bipartite,
    Directed,
    canonical_poly,
    decode as decode_as,
    direct_product,
    direct_sum,
    encode,
    is_isomorphic,
    plain_coproduct,
    plain_product,
    poly_product,
    poly_sum,
)
from .poly import Poly1, Poly2


class Bigraph(Bipartite):
    """Finite bipartite graph; edges run from the u part to the v part."""

    __slots__ = ()

    def __init__(self, u_vertices=(), v_vertices=(), edges=()):
        neighbors = defaultdict(list)
        for a, b in edges:
            neighbors[a].append(b)
        self._check_init(u_vertices, v_vertices, {a: (nb,) for a, nb in neighbors.items()})

    @property
    def edges(self):
        return frozenset((u, v) for u, (nb,) in self._per_u().items() for v in nb)

    def neighbors(self, u):
        return self.slots(u)[0]


class DiBigraph(Directed):
    """Finite bipartite digraph; every arc joins the u part and the v part."""

    __slots__ = ()

    def __init__(self, u_vertices=(), v_vertices=(), arcs=()):
        u = tuple(u_vertices)
        uset = set(u)
        given = defaultdict(lambda: ([], []))
        for a, b in arcs:
            # an arc into a u-vertex is in its pre set, any other in the
            # post set of its tail
            if b in uset:
                given[b][0].append(a)
            else:
                given[a][1].append(b)
        self._check_init(u, v_vertices, given)

    @property
    def arcs(self):
        return frozenset(
            [(v, u) for u, (pre, _) in self._per_u().items() for v in pre]
            + [(u, v) for u, (_, post) in self._per_u().items() for v in post]
        )


def decode(p: Poly1) -> Bigraph:
    """Bigraph whose encoding under its natural labeling is p: v-ids are
    the bit positions of p's support, u-ids (rank, copy) pairs, (i, 1) ..
    (i, c) for the term c * x**e at rank i from 0 in descending order."""
    return decode_as(p, Bigraph)


def decode_directed(p: Poly2) -> DiBigraph:
    """DiBigraph whose encoding under its natural labeling is p: v-ids are
    the bit positions of p's support, u-ids (rank, copy) pairs, (i, 1) ..
    (i, c) for the term c * x**e * y**f at rank i from 0 in descending
    order, its in bits e and out bits f."""
    return decode_as(p, DiBigraph)


# Other names for the two classes, kept for code that imports them, and the
# directed spellings of the operations, which the core writes once.
DecodedBigraph = Bigraph
DecodedDiBigraph = DiBigraph
encode_directed = encode
is_isomorphic_directed = is_isomorphic
canonical_poly_directed = canonical_poly
poly_product_directed = poly_product
poly_sum_directed = poly_sum
direct_product_directed = direct_product
direct_sum_directed = direct_sum
plain_product_directed = plain_product
plain_coproduct_directed = plain_coproduct
