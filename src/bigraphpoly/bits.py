"""Bit-support calculus: naturals as finite sets of binary digit positions.

The bit support of a natural k is the set of positions holding a 1 in its
binary expansion; 0 has empty support.  Naturals with pairwise disjoint
supports add without carries, so such a sum can be split apart again.  That
reversibility is what every decoding in this package rests on.

Every exponent the package packs or unpacks goes through this module: tau
unpacks; from_bits, pack_slots and pack_holders pack.  pack_slots packs
slots at their members' labels, as encode does; pack_holders packs them at
their members' ranks, 0 to n - 1, with the holder masks of the
bit-disjoint search, which so works on n bits whatever the labels are.

Unpacking.  A natural below 2**8 is one lookup in _LOW, the 256 bit
supports of a byte; one below 2**16 is the union of a lookup in _LOW and
one in _HIGH, the same supports 8 places up.  The two tables hold 512
frozensets, about 0.2 MB, built in about 1 ms at import.  (A 4,096-entry
table, one lookup up to 12 bits, takes 2.4 MB and about 12 ms, and read
100,000 13-bit ints only about 20% faster, 0.17-0.20 s against 0.23-0.25
s, so it is not used.)  A wider natural k is read one of two ways, both
linear in n = k.bit_length() for a given c = k.bit_count():

* the peel takes off the top set bit, once per set bit; each step builds
  that power of two and copies what is left of k, which shrinks as its
  top bits go, so it costs about c * (250 + n / 200) ns;
* the scan reads the digits of bin(k) in one C-level pass, compress over
  the digits as 0 and 1 bytes, about 1.5 us + 25-30 ns per digit + 60 ns
  per set bit.

So the peel is taken while c * (n + 40000) < 5000 * n + 240000, fitted to
those costs: up to about 8 set bits at 17 bits, 14 at 64, 38 at 256, 470
at 4,096, 3,600 at 10**5 and always fewer than 5,000, so both ways stay
linear in n.
(Timings on a shared 2-CPU x86-64 machine with CPython 3.11.7, best of 9
runs over random ints, peel against scan: 8 set bits of 17 bits 1.1
against 1.1 us, 12 of 64 bits 1.8 against 1.9 us and 18 of them 2.4
against 2.1 us, 28 of 256 bits 4.2-4.5 against 5.2-5.7 us, 100 of 1,024
bits 27 against 39 us and 200 of them 50 against 45 us, 440 of 4,096 bits
133 against 165 us, 3,000 of 10**5 bits 2.9 against 3.5 ms and 5,000 of
them 3.7 against 2.6 ms, 440 of 10**6 bits 2.3 against 24 ms, 3,000 of
them 15 against 24 ms and 7,000 of them 35 against 24 ms.)

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
# Positions from which from_bits and the slot packers pack through bytes.
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
    if k.bit_count() * (n + 40000) < 5000 * n + 240000:
        bits = []
        while k:
            top = k.bit_length() - 1
            bits.append(top)
            k ^= 1 << top
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


def _packing(labels):
    """(values, join) for packing slots of members labeled, in order, by
    the distinct naturals labels: values lists what each member adds to a
    slot, and join packs a slot from what its members add.  With every
    label below _SHORT a member adds its power of two and join sums;
    otherwise a member adds its label and join is from_bits, linear in the
    members and the top label.  Both packers read the slot format from
    here."""
    if max(labels, default=0) < _SHORT:
        return [1 << t for t in labels], sum
    return labels, from_bits


def pack_slots(classes, vs, labeling, arity: int) -> list:
    """The term key of each slot tuple of classes, in their order: each
    tuple holds arity collections of members of vs, and each collection
    becomes the natural with 1-bits at its members' labels, which labeling
    gives as distinct naturals, packed as _packing says.  One slot gives an
    int, two an (x, y) pair."""
    values, join = _packing(list(map(labeling.__getitem__, vs)))
    value = dict(zip(vs, values)).__getitem__
    if arity == 1:
        return [join(map(value, part)) for (part,) in classes]
    return [(join(map(value, pre)), join(map(value, post))) for pre, post in classes]


def pack_holders(classes, order):
    """(keys, pre, post) of two-slot classes in one pass over their
    members, each packed at its rank in order, the list of every member:
    keys lists the (x, y) term key of each class, in order, with bit t of
    a slot set when it holds order[t], and pre and post list, for each
    member in order, the mask of the classes whose pre or post slot holds
    it, bit i for class i.  Each member's record holds what it adds to a
    slot and its two masks, so a member costs one lookup.  A key has at
    most len(order) bits however large the members' labels are, so the
    packing never overflows.

    pack_slots' keys take no masks: a mask grows with the classes, so
    OR-ing one per member would make encoding quadratic in the classes."""
    values, join = _packing(range(len(order)))
    records = [[t, 0, 0] for t in values]
    record = dict(zip(order, records))
    keys = []
    m = 1
    for a, b in classes:
        xs, ys = [], []
        for v in a:
            r = record[v]
            xs.append(r[0])
            r[1] |= m
        for v in b:
            r = record[v]
            ys.append(r[0])
            r[2] |= m
        keys.append((join(xs), join(ys)))
        m <<= 1
    return keys, [r[1] for r in records], [r[2] for r in records]


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
