"""Bit-support calculus: naturals as finite sets of binary digit positions.

The bit support of a natural k is the set of positions holding a 1 in its
binary expansion; 0 has empty support.  Naturals with pairwise disjoint
supports add without carries, so such a sum can be split apart again.  That
reversibility is what every decoding in this package rests on.

Every exponent the package packs or unpacks goes through this module: tau
unpacks, from_bits and pack_slots pack.

Unpacking.  A natural below 2**8 is one lookup in _LOW, the 256 bit
supports of a byte; one below 2**16 is the union of a lookup in _LOW and
one in _HIGH, the same supports 8 places up.  The two tables hold 512
frozensets, about 0.2 MB, built in about 1 ms at import.  (A 4,096-entry
table, one lookup up to 12 bits, takes 2.4 MB and about 12 ms, and read
100,000 13-bit ints only about 20% faster, 0.17-0.20 s against 0.23-0.25
s, so it is not used.)  A wider natural k is read one of two ways, both
linear in n = k.bit_length() for a given c = k.bit_count():

* the peel takes off the lowest set bit, k & -k, once per set bit; each
  step copies k, so it costs about c * (250 + n / 20) ns;
* the scan reads the digits of bin(k) in one C-level pass, compress over
  the digits as 0 and 1 bytes, about 1.6 us + 22 ns per digit.

So the peel is taken while c * (n + 5000) < 440 * n + 32000, the measured
crossover: about 8 to 12 set bits at 17 to 64 bits, 27 at 256, 200 at
4,096 and never more than 440, so both ways stay linear in n.  (Timings on
a shared 2-CPU x86-64 machine with CPython 3.11.7: a dense 100,000-bit int
takes about 5 ms by the scan and about 0.35 s by the peel, one with 10 set
bits about 2 ms by the scan and 0.05 ms by the peel.)

Packing.  Positions below _SHORT are OR-ed as 1 << t, which never makes an
int of more than a few machine words; a wider position is OR-ed into a
byte buffer read once by int.from_bytes, so packing is linear in the top
position and the number of positions, where OR-ing wide ints one by one
copies the growing int at every step.
"""

from __future__ import annotations

from itertools import compress

from .errors import _show

# A bit support is a frozenset of bit positions; the empty set encodes 0.
BitExp = frozenset

# _LOW[b]: the bit support of the byte b; _HIGH[b]: that of b << 8.
_LOW = tuple(frozenset(t for t in range(8) if b >> t & 1) for b in range(256))
_HIGH = tuple(frozenset(t + 8 for t in bits) for bits in _LOW)
# bin(k) as bytes: the digits to 0 and 1, the "0b" prefix to 0 and 0.
_DIGITS = bytes.maketrans(b"01b", b"\0\1\0")
# Positions from which from_bits and pack_slots pack through bytes.
_SHORT = 256


def tau(k: int) -> frozenset:
    """Set of 1-bit positions of a natural, e.g. tau(5) == {0, 2}."""
    if k < 256:
        if k < 0:
            raise ValueError(f"bit support is defined for naturals, got {_show(k)}")
        return _LOW[k]
    if k < 65536:
        return _LOW[k & 255] | _HIGH[k >> 8]
    n = k.bit_length()
    if k.bit_count() * (n + 5000) < 440 * n + 32000:
        bits = []
        while k:
            low = k & -k  # the lowest set bit alone
            bits.append(low.bit_length() - 1)
            k ^= low
        return frozenset(bits)
    # bin(k) is "0b" and n digits, the top one first: the digit at index i
    # is bit n + 1 - i, and the prefix's two indices select nothing.
    return frozenset(compress(range(n + 1, -1, -1), bin(k).encode().translate(_DIGITS)))


def _bytes_or(positions) -> int:
    """Natural with 1-bits exactly at a nonempty list of naturals."""
    buf = bytearray((max(positions) >> 3) + 1)
    for t in positions:
        buf[t >> 3] |= 1 << (t & 7)
    return int.from_bytes(buf, "little")


def from_bits(bits) -> int:
    """Natural with 1-bits exactly at the given positions: the OR of the
    2**t, so a repeated position counts once."""
    n = 0
    it = iter(bits)
    for t in it:
        if not 0 <= t < _SHORT:
            break
        n |= 1 << t
    else:
        return n
    rest = [t, *it]
    low = min(rest)
    if low < 0:
        raise ValueError(f"bit positions are naturals, got {_show(low)}")
    return n | _bytes_or(rest)


def pack_slots(classes, vs, labeling, arity: int) -> list:
    """The term key of each slot tuple of classes, in their order: each
    tuple holds arity collections of members of vs, and each collection
    becomes the natural with 1-bits at its members' labels, which labeling
    gives as distinct naturals.  One slot gives an int, two an (x, y) pair.

    With every label of vs below _SHORT a slot is the sum of its members'
    powers of two, read through one map from v to 2**label; otherwise each
    slot is OR-ed into bytes, linear in its members and its top label.
    """
    labels = list(map(labeling.__getitem__, vs))
    if max(labels, default=0) < _SHORT:
        bit = dict(zip(vs, [1 << t for t in labels])).__getitem__
        if arity == 1:
            return [sum(map(bit, part)) for (part,) in classes]
        return [(sum(map(bit, pre)), sum(map(bit, post))) for pre, post in classes]
    label = labeling.__getitem__

    def pack(part):
        return _bytes_or(list(map(label, part))) if part else 0

    if arity == 1:
        return [pack(part) for (part,) in classes]
    return [(pack(pre), pack(post)) for pre, post in classes]


def tau_poly(p) -> frozenset:
    """Union of the bit supports of every exponent occurring in ``p``.

    Accepts either polynomial arity; both exponent components of a
    two-variable term contribute.  The support of an OR is the union of the
    supports, so the exponents are OR-ed first, in one loop per arity, and
    tau runs once.
    """
    acc = 0
    if p.arity == 1:
        for exp in p.terms:
            acc |= exp
    else:
        for x, y in p.terms:
            acc |= x | y
    return tau(acc)
