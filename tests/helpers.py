"""Shared generators and tiny reference implementations for the test suite.

Generators keep every v-vertex (or condition) covered by at least one edge,
because uncovered ones are invisible to the encoding and round-trip claims
assume they do not occur.  Oracles here are written independently of the
package internals on purpose: dense lists and dicts only.
"""

from __future__ import annotations

import json
import random
from itertools import permutations

from bigraphpoly import (
    Bigraph,
    DiBigraph,
    PetriNet,
    Poly1,
    Poly2,
    factor_graph,
    net_product,
    polyfactor,
)
from bigraphpoly.core import Bipartite
from bigraphpoly.fileio import graph_text, net_text, string_ids


# ---------------------------------------------------------------------------
# Random structures.

def random_labeling(rng: random.Random, ids, max_label=10) -> dict:
    """Injective labels drawn from 0..max_label."""
    return dict(zip(ids, rng.sample(range(max_label + 1), len(ids))))


def random_bigraph(rng: random.Random, max_u=5, max_v=5) -> Bigraph:
    nu = rng.randint(1, max_u)
    nv = rng.randint(1, max_v)
    us = [f"u{i}" for i in range(nu)]
    vs = [f"v{j}" for j in range(nv)]
    edges = {(rng.choice(us), v) for v in vs}  # cover every v
    for u in us:
        for v in vs:
            if rng.random() < 0.35:
                edges.add((u, v))
    return Bigraph(us, vs, edges)


def random_digraph(rng: random.Random, max_u=5, max_v=5) -> DiBigraph:
    nu = rng.randint(1, max_u)
    nv = rng.randint(1, max_v)
    us = [f"u{i}" for i in range(nu)]
    vs = [f"v{j}" for j in range(nv)]
    arcs = set()
    for v in vs:  # cover every v, random direction
        u = rng.choice(us)
        arcs.add((v, u) if rng.random() < 0.5 else (u, v))
    for u in us:
        for v in vs:
            if rng.random() < 0.2:
                arcs.add((v, u))
            if rng.random() < 0.2:
                arcs.add((u, v))
    return DiBigraph(us, vs, arcs)


def random_net(rng: random.Random, max_events=3, max_conditions=3) -> PetriNet:
    ne = rng.randint(1, max_events)
    nc = rng.randint(1, max_conditions)
    evs = [f"e{i}" for i in range(ne)]
    conds = [f"b{j}" for j in range(nc)]
    pre = {e: {b for b in conds if rng.random() < 0.4} for e in evs}
    post = {e: {b for b in conds if rng.random() < 0.4} for e in evs}
    for b in conds:  # cover every condition
        if not any(b in pre[e] or b in post[e] for e in evs):
            side = pre if rng.random() < 0.5 else post
            side[rng.choice(evs)].add(b)
    return PetriNet(conds, evs, pre, post)


def wide_graph(rng: random.Random, n_u=100, n_v=6, directed=False, p=0.4):
    """n_u u-vertices and n_v v-vertices, every v meeting an edge or arc;
    a digraph gets each arc with probability p/2 in each direction."""
    us = [f"u{i}" for i in range(n_u)]
    vs = [f"v{j}" for j in range(n_v)]
    if not directed:
        edges = {(rng.choice(us), v) for v in vs}
        edges |= {(u, v) for u in us for v in vs if rng.random() < p}
        return Bigraph(us, vs, edges)
    arcs = {(v, rng.choice(us)) for v in vs}
    for u in us:
        for v in vs:
            if rng.random() < p / 2:
                arcs.add((v, u))
            if rng.random() < p / 2:
                arcs.add((u, v))
    return DiBigraph(us, vs, arcs)


def three_prime_nets() -> PetriNet:
    """Pointed product of three prime nets with 8 conditions and 2 events
    each: 24 conditions and 27 terms.  Each factor's encoding has 3 terms;
    both halves of a split keep a constant term, so a nonconstant half has at
    least 2 terms and a bit-disjoint product at least 4.  So each factor is
    prime and the product splits in exactly 3 ways."""
    def prime(tag):
        b = [f"{tag}{i}" for i in range(8)]
        return PetriNet(b, ["e", "f"], pre={"e": b[:4], "f": [b[6]]},
                        post={"e": b[4:6], "f": [b[7], b[0]]})

    return net_product(net_product(prime("a"), prime("b")), prime("c"))


def random_canon_case(rng: random.Random, kind: str, max_v=7):
    """A "graph", "digraph" or "net" with at most max_v v-vertices that puts
    the canonical-form search on its edge cases: now and then two v-vertices
    are twins (the same membership in every slot), a v-vertex lies in no
    slot, and u-vertices have every slot empty; a net adds its idle unit."""
    nv = rng.randint(0, max_v)
    vs = [f"v{j}" for j in range(nv)]
    us = [f"u{i}" for i in range(rng.randint(0, 8))]
    width = 1 if kind == "graph" else 2
    p = rng.choice((0.15, 0.3, 0.5, 0.75)) / width
    sig = {u: [{v for v in vs if rng.random() < p} for _ in range(width)] for u in us}
    if nv >= 2 and rng.random() < 0.5:  # b becomes a twin of a
        a, b = rng.sample(vs, 2)
        for part in (part for slots in sig.values() for part in slots):
            part.discard(b)
            if a in part:
                part.add(b)
    if nv and rng.random() < 0.3:  # a v-vertex no slot mentions
        lone = rng.choice(vs)
        for part in (part for slots in sig.values() for part in slots):
            part.discard(lone)
    for u in us:
        if rng.random() < 0.15:  # a u-vertex with every slot empty
            sig[u] = [set() for _ in range(width)]
    return from_slots({"graph": Bigraph, "digraph": DiBigraph, "net": PetriNet}[kind], us, vs, sig)


def from_slots(kind, us, vs, sig):
    """The Bigraph, DiBigraph or PetriNet with u part us, v part vs and,
    for each u-vertex, the v-sets sig[u]: (neighbors,) or (pre, post)."""
    if kind is Bigraph:
        return Bigraph(us, vs, [(u, v) for u in us for v in sig[u][0]])
    if kind is DiBigraph:
        return DiBigraph(us, vs, [(v, u) for u in us for v in sig[u][0]]
                         + [(u, v) for u in us for v in sig[u][1]])
    return PetriNet(vs, us, pre={u: sig[u][0] for u in us}, post={u: sig[u][1] for u in us})


def random_slots(rng, kind, nu, nv):
    """A kind with nu u- and nv v-vertices, each slot holding each v-vertex
    with probability 0.4 over the number of slots, and every v-vertex in
    some slot."""
    us = [f"u{i}" for i in range(nu)]
    vs = [f"v{j}" for j in range(nv)]
    width = 1 if kind is Bigraph else 2
    sig = {u: [{v for v in vs if rng.random() < 0.4 / width} for _ in range(width)] for u in us}
    for v in vs:
        if not any(v in part for slots in sig.values() for part in slots):
            rng.choice(sig[rng.choice(us)]).add(v)
    return from_slots(kind, us, vs, sig)


def relabeled(rng, g, moved=None):
    """g under fresh ids in shuffled order; moved = (u, slot, v, w) takes v
    out of that slot of u and puts w in."""
    us = rng.sample(g.u_vertices, len(g.u_vertices))
    vs = rng.sample(g.v_vertices, len(g.v_vertices))
    name = {x: f"{x}'" for x in (*us, *vs)}
    sig = {u: [set(part) for part in g.slots(u)] for u in us}
    if moved:
        u, slot, v, w = moved
        sig[u][slot] ^= {v, w}
    sig = {name[u]: [{name[v] for v in part} for part in slots] for u, slots in sig.items()}
    return from_slots(type(g), [name[u] for u in us], [name[v] for v in vs], sig)


def cycles(*sizes):
    """Disjoint cycles, one per size n: u-vertex i of a cycle is on its
    v-vertices i and i + 1 mod n, so every vertex has degree 2."""
    us, vs, edges = [], [], []
    for c, n in enumerate(sizes):
        us += [f"u{c}_{i}" for i in range(n)]
        vs += [f"v{c}_{i}" for i in range(n)]
        edges += [(f"u{c}_{i}", f"v{c}_{(i + j) % n}") for i in range(n) for j in (0, 1)]
    return Bigraph(us, vs, edges)


def random_poly1(rng: random.Random, max_deg=6, max_coeff=4, allow_zero=False) -> Poly1:
    terms = {
        e: rng.randint(1, max_coeff)
        for e in range(max_deg + 1)
        if rng.random() < 0.45
    }
    if not terms and not allow_zero:
        terms[rng.randint(0, max_deg)] = rng.randint(1, max_coeff)
    return Poly1(terms)


def random_poly2(rng: random.Random, max_deg=5, max_coeff=4, allow_zero=False) -> Poly2:
    terms = {}
    for _ in range(rng.randint(0 if allow_zero else 1, 5)):
        terms[(rng.randint(0, max_deg), rng.randint(0, max_deg))] = rng.randint(
            1, max_coeff
        )
    return Poly2(terms)


def poly_on_bits(rng: random.Random, bits, max_terms=4, max_coeff=3, arity=1):
    """Random nonzero polynomial whose exponents only use the given bit
    positions, so two such polynomials on disjoint bit sets never share
    support."""
    bits = list(bits)

    def exp():
        return sum(1 << b for b in bits if rng.random() < 0.5)

    n = rng.randint(1, max_terms)
    if arity == 1:
        return Poly1({exp(): rng.randint(1, max_coeff) for _ in range(n)})
    return Poly2({(exp(), exp()): rng.randint(1, max_coeff) for _ in range(n)})


# ---------------------------------------------------------------------------
# Reference implementations (dense lists / plain dicts, no package code).

def bits_of(k: int) -> set:
    """1-bit positions read off the binary string."""
    return {i for i, ch in enumerate(reversed(bin(k)[2:])) if ch == "1"} if k else set()


def peel_bits(k: int) -> set:
    """1-bit positions taken off one at a time, lowest first, by k & -k."""
    bits = set()
    while k:
        low = k & -k
        bits.add(low.bit_length() - 1)
        k ^= low
    return bits


def render_reference(p) -> str:
    """Polynomial text built term by term from the grammar in poly.py, with
    exponents and coefficients through str in digit pieces of 1,000."""
    def text(n):
        digits = []
        while n >= 10**1000:
            n, low = divmod(n, 10**1000)
            digits.append(str(low).zfill(1000))
        return str(n) + "".join(reversed(digits))

    parts = []
    for exp, c in p.terms.items():
        i, j = (exp, 0) if isinstance(p, Poly1) else exp
        mono = [var if e == 1 else f"{var}^{text(e)}" for var, e in (("x", i), ("y", j)) if e]
        if not mono:
            parts.append(text(c))
        else:
            parts.append("*".join(mono) if c == 1 else f"{text(c)}*{'*'.join(mono)}")
    return " + ".join(parts) if parts else "0"


def mul_reference(p, q) -> dict:
    """The terms of p * q, in descending exponent order, by the double loop
    over every pair of terms: the reference for poly.mul's packed
    products."""
    out = {}
    if isinstance(p, Poly1):
        for e1, c1 in p.terms.items():
            for e2, c2 in q.terms.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
    else:
        for (i1, j1), c1 in p.terms.items():
            for (i2, j2), c2 in q.terms.items():
                e = (i1 + i2, j1 + j2)
                out[e] = out.get(e, 0) + c1 * c2
    return dict(sorted(out.items(), reverse=True))


def long_division(p, q):
    """Quotient r with q * r == p in p's semiring, else None, by long
    division over the integers under the lexicographic x-then-y order,
    taking the largest exponent of the whole remainder for every quotient
    term: the reference for poly.divide_exact.  A Poly1 pair divides as its
    lift, with the y dropped from the quotient."""
    if not q:
        raise ZeroDivisionError("division by the zero polynomial")
    one = isinstance(p, Poly1)
    r, q = ({(e, 0) if one else e: c for e, c in t.terms.items()} for t in (p, q))
    support = set(r)
    qlead = qx, qy = max(q)
    qc = q[qlead]
    quo = {}
    while r:
        rlead = rx, ry = max(r)
        rc = r[rlead]
        if rc < 0 or rc % qc or rlead not in support or rx < qx or ry < qy:
            return None
        c = rc // qc
        ex, ey = e = (rx - qx, ry - qy)
        quo[e] = c
        for (x, y), cq in q.items():
            k = (ex + x, ey + y)
            nv = r.get(k, 0) - c * cq
            if nv:
                r[k] = nv
            else:
                r.pop(k, None)
    if one:
        return Poly1({x: c for (x, _), c in quo.items()})
    return Poly2(quo)


def dense_mul(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def dense_key(coeffs) -> tuple:
    """Same shape as poly_key: ((exp, coeff), ...) descending."""
    return tuple((e, c) for e, c in sorted(enumerate(coeffs), reverse=True) if c)


def enumerate_dense(max_deg: int, max_sum: int):
    """Every dense coefficient tuple (c0..c_max_deg) with sum <= max_sum."""
    def rec(i, left, acc):
        if i > max_deg:
            yield tuple(acc)
            return
        for c in range(left + 1):
            acc.append(c)
            yield from rec(i + 1, left - c, acc)
            acc.pop()

    yield from rec(0, max_sum, [])


def factor_pair_table(max_deg=4, max_sum=12) -> dict:
    """Brute-force oracle: maps dense_key(p) to the set of unordered
    nonconstant factor pairs (as sorted dense_key pairs) for every p that is
    a product of two nonconstant polynomials with deg <= max_deg and
    coefficient sum <= max_sum."""
    by_deg_sum = {}
    for coeffs in enumerate_dense(max_deg - 1, max_sum):
        deg = max((i for i, c in enumerate(coeffs) if c), default=-1)
        if deg < 1:
            continue
        trimmed = coeffs[: deg + 1]
        by_deg_sum.setdefault((deg, sum(trimmed)), []).append(trimmed)
    table = {}
    for (d1, s1), qs in by_deg_sum.items():
        for (d2, s2), rs in by_deg_sum.items():
            if d1 + d2 > max_deg or s1 * s2 > max_sum:
                continue
            for q in qs:
                kq = dense_key(q)
                for r in rs:
                    prod = dense_mul(list(q), list(r))
                    pair = tuple(sorted((kq, dense_key(r))))
                    table.setdefault(dense_key(prod), set()).add(pair)
    return table


def bit_disjoint_reference(terms: dict) -> set:
    """Brute-force bit-disjoint splits of {exponent: coefficient}, exponents
    ints or (x, y) pairs: every ordered bipartition of the exponent bits,
    both halves of each, and every divisor of the grid's corner coefficient
    as the scale of its first row.  Returns the unordered pairs, neither the
    constant 1, as sorted pairs of descending (exponent, coefficient) lists."""
    bivariate = isinstance(next(iter(terms)), tuple)

    def parts(e):
        return e if bivariate else (e,)

    def project(e, mask):
        return tuple(x & mask for x in e) if bivariate else e & mask

    def key(t):
        return tuple(sorted(t.items(), reverse=True))

    one = {(0, 0) if bivariate else 0: 1}
    bits = sorted(set().union(*(bits_of(x) for e in terms for x in parts(e))))
    full = sum(1 << b for b in bits)
    out = set()
    for pick in range(1 << len(bits)):
        mask1 = sum(1 << b for t, b in enumerate(bits) if pick >> t & 1)
        rows = {}
        for e, c in terms.items():
            rows.setdefault(project(e, mask1), {})[project(e, full ^ mask1)] = c
        if len({frozenset(row) for row in rows.values()}) != 1:
            continue  # not a full grid
        a0 = min(rows)
        b0 = min(rows[a0])
        corner = rows[a0][b0]
        for g in range(1, corner + 1):
            if any(v % g for v in rows[a0].values()):
                continue
            second = {b: v // g for b, v in rows[a0].items()}
            if any(rows[a][b0] % second[b0] for a in rows):
                continue
            first = {a: rows[a][b0] // second[b0] for a in rows}
            if any(first[a] * second[b] != rows[a][b] for a in rows for b in second):
                continue
            if first != one and second != one:
                out.add(tuple(sorted((key(first), key(second)))))
    return out


def least_encoding(g, arity=1) -> dict:
    """Brute-force canonical form: over every labeling by 0..|v|-1, the
    encoding whose descending (exponent, coefficient) list is least.  A net
    also counts its idle event in the constant term."""
    vs = list(g.v_vertices)
    if arity == 1:
        slots = [(g.neighbors(u),) for u in g.u_vertices]
    else:
        slots = [(g.pre(u), g.post(u)) for u in g.u_vertices]
    best = None
    for perm in permutations(range(len(vs))):
        lab = dict(zip(vs, perm))
        terms = {(0, 0): 1} if isinstance(g, PetriNet) else {}  # the idle unit
        for parts in slots:
            exps = tuple(sum(1 << lab[v] for v in part) for part in parts)
            e = exps[0] if arity == 1 else exps
            terms[e] = terms.get(e, 0) + 1
        key = sorted(terms.items(), reverse=True)
        if best is None or key < best:
            best = key
    return dict(best)


def sweep_reference(g):
    """The exhaustive sweep the plain way: every labeling by 0..|v|-1, in
    permutations order, encoded and searched in turn.  The first labeling
    under which g splits and its first pair, or None."""
    vs = g.v_vertices
    for perm in permutations(range(len(vs))):
        lab = dict(zip(vs, perm))
        pairs = factor_graph(g, lab)
        if pairs:
            return lab, pairs[0]
    return None


def reference_document(g, labels=None) -> dict:
    """The file document of a graph, digraph or net, built the plain way: a
    graph's edges listed by u-vertex in u order, then by v-vertex in v
    order, "u_to_v" before "v_to_u"; a net's events one dict each, with pre
    and post lists in condition order.  Ids come from the package's
    string_ids, the one shared piece."""
    if isinstance(g, PetriNet):
        smap = string_ids(list(g.conditions) + list(g.events))
        doc = {
            "conditions": [smap[b] for b in g.conditions],
            "events": [
                {
                    "id": smap[e],
                    "pre": [smap[b] for b in g.conditions if b in g.pre(e)],
                    "post": [smap[b] for b in g.conditions if b in g.post(e)],
                }
                for e in g.events
            ],
        }
        if labels is not None:
            doc["labels"] = {smap[b]: labels[b] for b in g.conditions}
        return doc
    smap = string_ids(list(g.u_vertices) + list(g.v_vertices))
    doc = {"directed": True} if g.arity == 2 else {}
    doc["u"] = [smap[u] for u in g.u_vertices]
    doc["v"] = [smap[v] for v in g.v_vertices]
    if g.arity == 1:
        edges = g.edges
        doc["edges"] = [[smap[u], smap[v]] for u in g.u_vertices for v in g.v_vertices
                        if (u, v) in edges]
    else:
        doc["edges"] = [
            {"u": smap[u], "v": smap[v], "dir": way}
            for u in g.u_vertices
            for v in g.v_vertices
            for way, part in (("u_to_v", g.post(u)), ("v_to_u", g.pre(u)))
            if v in part
        ]
    if labels is not None:
        doc["labels"] = {smap[v]: labels[v] for v in g.v_vertices}
    return doc


def graph_document(g, labels=None) -> dict:
    """Document of a graph or, with edges that carry their direction, of a
    digraph: the parse of graph_text."""
    return json.loads(graph_text(g, labels))


bigraph_document = digraph_document = graph_document


def net_document(net: PetriNet, labels=None) -> dict:
    """Document of a net: the parse of net_text."""
    return json.loads(net_text(net, labels))


def document_for(obj, labels=None) -> dict:
    """The parse of the file text the package writes for obj."""
    if isinstance(obj, PetriNet):
        return net_document(obj, labels)
    if isinstance(obj, Bipartite):
        return graph_document(obj, labels)
    raise TypeError(f"no document form for {type(obj).__name__}")


def reference_text(g, labels=None) -> str:
    """The file text of reference_document: json.dumps(indent=2) and a
    newline."""
    return json.dumps(reference_document(g, labels), indent=2) + "\n"


def first_difference(got: str, want: str):
    """None when the texts are equal, else a short note of where they first
    differ, so that a failing comparison of megabytes reports at once."""
    if got == want:
        return None
    at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
              min(len(got), len(want)))
    around = slice(max(at - 40, 0), at + 40)
    return f"char {at} of {len(got)} and {len(want)}: {got[around]!r} != {want[around]!r}"


# ---------------------------------------------------------------------------
# The per-u structures: one dict entry and one id per u-vertex, as decoding
# and the products built them before the core kept u-classes.  Each gives
# (u ids, v ids, u -> slots); per_u_copy builds the same structure through
# a constructor.

def per_u_encode(g, labeling):
    """Encoding term by term, one term per u-vertex, plus a net's idle unit."""
    terms = {(0, 0): 1} if isinstance(g, PetriNet) else {}
    for u in g.u_vertices:
        exps = tuple(sum(1 << labeling[v] for v in part) for part in g.slots(u))
        e = exps[0] if g.arity == 1 else exps
        terms[e] = terms.get(e, 0) + 1
    return (Poly1 if g.arity == 1 else Poly2)(terms)


def per_u_decode(p, cls):
    """decode(p, cls) with a dict entry per copy: the c u-vertices of the
    term at rank i, from 0 in descending term order, are (i, k) for k =
    1..c; a net takes one unit of the constant term for its idle event."""
    key = list(p.terms.items())
    if cls.idle:
        zero, c = key.pop()
        if c > 1:
            key.append((zero, c - 1))
    sig = {}
    for i, (exp, c) in enumerate(key):
        slots = tuple(frozenset(bits_of(e)) for e in (exp if cls.arity == 2 else (exp,)))
        for k in range(1, c + 1):
            sig[i, k] = slots
    return tuple(sig), _used(sig), sig


def _used(sig):
    return tuple(sorted(set().union(*(part for slots in sig.values() for part in slots))))


def per_u_pairs(idle, d1, d2, none, joins):
    """The slots of a product: (a, b) -> the join of d1[a] and d2[b] for
    every u-pair, a's pairs in d2's order, d1's u-vertices in order; for
    nets each side also offers its idle event None with data none, and the
    all-idle pair is left out.  joins(x, ys) gives x's joins with ys."""
    if idle:
        d1[None] = d2[None] = none
    distinct2 = list(set(d2.values()))
    rows = {}
    sig = {}
    for a, ea in d1.items():
        row = rows.get(ea)
        if row is None:
            row = rows[ea] = dict(zip(distinct2, joins(ea, distinct2)))
        for b, eb in d2.items():
            sig[a, b] = row[eb]
    if idle:
        del sig[None, None]
    return sig


def per_u_direct_product(g1, l1, g2, l2):
    """direct_product with a dict entry per u-pair: each slot of a pair is
    the bit support of the sum of its two packed slots."""
    def packed(g, lab):
        return {u: tuple(sum(1 << lab[v] for v in part) for part in g.slots(u))
                for u in g.u_vertices}

    def joins(a, bs):
        return [tuple(frozenset(bits_of(x + y)) for x, y in zip(a, b)) for b in bs]

    sig = per_u_pairs(g1.idle, packed(g1, l1), packed(g2, l2), (0,) * g1.arity, joins)
    return tuple(sig), _used(sig), sig


def per_u_plain_product(g1, g2):
    """plain_product with a dict entry per u-pair over the tagged v union."""
    def tagged(side, g):
        return {u: tuple(frozenset((side, v) for v in part) for part in g.slots(u))
                for u in g.u_vertices}

    sig = per_u_pairs(g1.idle, tagged(0, g1), tagged(1, g2), (frozenset(),) * g1.arity,
                      lambda a, bs: [tuple(map(frozenset.union, a, b)) for b in bs])
    vs = tuple((side, v) for side, g in enumerate((g1, g2)) for v in g.v_vertices)
    return tuple(sig), vs, sig


def per_u_union(g1, g2, names, vs):
    """A sum with a dict entry per u-vertex (side, u), each slot member v
    renamed names[side][v]."""
    sig = {(side, u): tuple(frozenset(name[v] for v in part) for part in g.slots(u))
           for side, (g, name) in enumerate(zip((g1, g2), names)) for u in g.u_vertices}
    return tuple(sig), tuple(vs), sig


def per_u_copy(cls, per_u):
    """The structure of cls with these per-u parts, built by its constructor."""
    us, vs, sig = per_u
    return from_slots(cls, us, vs, sig)


def per_u_repr(cls, per_u):
    us, vs, sig = per_u
    links = sum(len(part) for slots in sig.values() for part in slots)
    return f"{cls.__name__}(|u|={len(us)}, |v|={len(vs)}, |links|={links})"


# ---------------------------------------------------------------------------
# The random points of the bit-disjoint search, seen through its seam.

def record_points(monkeypatch) -> list:
    """A list to which every later bit-disjoint search, in any thread,
    appends each random point it draws, as a tuple, in the order drawn."""
    drawn = []
    real = polyfactor._points

    def points(count):
        for point in real(count):
            drawn.append(tuple(point))
            yield point

    monkeypatch.setattr(polyfactor, "_points", points)
    return drawn
