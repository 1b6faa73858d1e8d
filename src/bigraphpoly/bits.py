"""Bit-support calculus: naturals as finite sets of binary digit positions.

The bit support of a natural k is the set of positions holding a 1 in its
binary expansion; 0 has empty support.  Naturals with pairwise disjoint
supports add without carries, so such a sum can be split apart again.  That
reversibility is what every decoding in this package rests on.
"""

from __future__ import annotations

# A bit support is a frozenset of bit positions; the empty set encodes 0.
BitExp = frozenset


def tau(k: int) -> frozenset:
    """Set of 1-bit positions of a natural, e.g. tau(5) == {0, 2}."""
    if k < 0:
        raise ValueError(f"bit support is defined for naturals, got {k}")
    bits = []
    while k:
        low = k & -k  # the lowest set bit alone
        bits.append(low.bit_length() - 1)
        k ^= low
    return frozenset(bits)


def from_bits(bits) -> int:
    """Natural with 1-bits exactly at the given positions: sum of 2**t."""
    n = 0
    for t in bits:
        if t < 0:
            raise ValueError(f"bit positions are naturals, got {t}")
        n |= 1 << t
    return n


def tau_poly(p) -> frozenset:
    """Union of the bit supports of every exponent occurring in ``p``.

    Accepts either polynomial arity; both exponent components of a
    two-variable term contribute.  The support of an OR is the union of the
    supports, so the exponents are OR-ed first and tau runs once.
    """
    acc = 0
    for exp in p.terms:
        if isinstance(exp, int):
            acc |= exp
        else:
            for part in exp:
                acc |= part
    return tau(acc)
