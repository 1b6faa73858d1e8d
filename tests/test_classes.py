"""The u-class core against the per-u construction it replaced.

Decoding, the products, the sums and the factor searches' halves keep one
class per distinct slot tuple and build their per-u views on first read.
Every view, comparison, hash, repr, written file and route-equivalence
answer must be what a structure with one dict entry per u-vertex gave; the
per-u references live in helpers."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import bigraphpoly
from bigraphpoly import (
    Bigraph,
    DiBigraph,
    PetriNet,
    Poly1,
    Poly2,
    add,
    decompose,
    direct_product,
    direct_sum,
    encode,
    factor_graph,
    is_isomorphic,
    mul,
    plain_coproduct,
    plain_product,
    poly_product,
    poly_sum,
)
from bigraphpoly.bits import pack_slots
from bigraphpoly.core import _ranked, decode as decode_as
from bigraphpoly.graphfactor import graph_factor_pairs
from bigraphpoly.fileio import graph_text, net_text

from helpers import (
    first_difference,
    per_u_copy,
    per_u_decode,
    per_u_direct_product,
    per_u_encode,
    per_u_plain_product,
    per_u_repr,
    per_u_union,
    random_bigraph,
    random_canon_case,
    random_digraph,
    random_labeling,
    random_net,
    reference_text,
)

KINDS = {
    "graph": (random_bigraph, Bigraph),
    "digraph": (random_digraph, DiBigraph),
    "net": (random_net, PetriNet),
}


def assert_matches(h, per_u, natural):
    """h, fresh from the class core, against the per-u parts it stands for:
    first what reads the classes, then every per-u view.  natural says
    whether the v-ids are labels, so that h encodes and is written under
    its natural labeling."""
    cls = type(h)
    copy = per_u_copy(cls, per_u)
    us, vs, sig = per_u
    labels = h.natural_labeling if natural else None
    assert repr(h) == repr(copy) == per_u_repr(cls, per_u)
    if natural:
        assert encode(h, labels) == per_u_encode(copy, labels)
    assert h.u_vertices == us
    assert h.v_vertices == vs
    assert [h.slots(u) for u in us] == [sig[u] for u in us]
    if cls is Bigraph:
        assert h.edges == copy.edges
        assert all(h.neighbors(u) == sig[u][0] for u in us)
    elif cls is DiBigraph:
        assert h.arcs == copy.arcs
    else:
        assert h.events == us and h.conditions == vs
        assert all((h.pre(e), h.post(e)) == sig[e] for e in us)
    assert h == copy and copy == h
    assert hash(h) == hash(copy)
    text = net_text if cls is PetriNet else graph_text
    got = text(h, labels)
    assert got == text(copy, labels)
    assert first_difference(got, reference_text(copy, labels)) is None


def labelings(rng, i, g1, g2):
    """Overlapping label images on odd i, disjoint ones on even i."""
    if i % 2:
        return random_labeling(rng, g1.v_vertices, 7), random_labeling(rng, g2.v_vertices, 7)
    shifted = random_labeling(rng, g2.v_vertices, 5)
    return random_labeling(rng, g1.v_vertices, 5), {v: 6 + k for v, k in shifted.items()}


@pytest.mark.parametrize("kind", KINDS)
def test_every_route_matches_the_per_u_construction(kind):
    make, cls = KINDS[kind]
    rng = random.Random(33)
    for i in range(60):
        g1, g2 = make(rng, 4, 4), make(rng, 4, 4)
        l1, l2 = labelings(rng, i, g1, g2)
        e1, e2 = per_u_encode(g1, l1), per_u_encode(g2, l2)
        tags = [{v: (side, v) for v in g.v_vertices} for side, g in enumerate((g1, g2))]
        cases = [
            (decode_as(e1, cls), per_u_decode(e1, cls), True),
            (poly_product(g1, l1, g2, l2), per_u_decode(mul(e1, e2), cls), True),
            (direct_product(g1, l1, g2, l2), per_u_direct_product(g1, l1, g2, l2), True),
            (poly_sum(g1, l1, g2, l2), per_u_decode(add(e1, e2), cls), True),
            (direct_sum(g1, l1, g2, l2),
             per_u_union(g1, g2, (l1, l2), sorted({*l1.values(), *l2.values()})), True),
            (plain_product(g1, g2), per_u_plain_product(g1, g2), False),
            (plain_coproduct(g1, g2),
             per_u_union(g1, g2, tags, [t for name in tags for t in name.values()]), False),
        ]
        for h, per_u, natural in cases:
            assert_matches(h, per_u, natural)
            # A net's idle event is one unit of its empty class but no u-vertex.
            assert repr(h).startswith(f"{cls.__name__}(|u|={len(h.u_vertices)}, ")
        # Route equivalence answers as it did on per-u structures: the same
        # witnesses, from fresh products and from constructor-built copies.
        copies = [per_u_copy(cls, per_u) for _, per_u, _ in cases[1:3]]
        got = is_isomorphic(poly_product(g1, l1, g2, l2), direct_product(g1, l1, g2, l2))
        assert got is not None and got == is_isomorphic(*copies)
        if i % 2 == 0:
            plain = per_u_copy(cls, cases[5][1])
            got = is_isomorphic(poly_product(g1, l1, g2, l2), plain_product(g1, g2))
            assert got is not None and got == is_isomorphic(copies[0], plain)


@pytest.mark.parametrize("kind", KINDS)
def test_factor_and_decompose_halves_match_the_per_u_decoding(kind):
    make, cls = KINDS[kind]
    rng = random.Random(34)
    halves = 0
    for i in range(30):
        g1, g2 = make(rng, 3, 3), make(rng, 3, 3)
        l1, l2 = labelings(rng, i, g1, g2)
        h = poly_product(g1, l1, g2, l2)
        lab = h.natural_labeling
        polys = graph_factor_pairs(h, lab)
        if cls is PetriNet:
            pairs = [(a.net, b.net) for a, b in decompose(h, lab)]
        else:
            pairs = factor_graph(h, lab)
        assert len(pairs) == len(polys)
        # The halves of one search share its table of exponent supports;
        # a graph's product can split thousands of ways, so check the first.
        for pair, ps in list(zip(pairs, polys))[:4]:
            for half, p in zip(pair, ps):
                assert_matches(half, per_u_decode(p, cls), True)
                halves += 1
    assert halves > 20


@pytest.mark.parametrize("kind", KINDS)
def test_slots_read_first_builds_the_views_of_a_decoding(kind):
    """slots(u) on a fresh decoding, before any other per-u view is read,
    builds the views from the classes.  Of a net's two units of the empty
    class one is its idle event, which no view lists."""
    cls = KINDS[kind][1]
    one = cls.arity == 1
    h = decode_as(Poly1({3: 2, 0: 2}) if one else Poly2({(3, 1): 2, (0, 0): 2}), cls)
    top = (frozenset({0, 1}),) if one else (frozenset({0, 1}), frozenset({0}))
    empty = (frozenset(),) * cls.arity
    ids = [(rank, k) for rank in (0, 1) for k in (1, 2)]
    assert h.slots(ids[1]) == top
    assert h.slots(ids[2]) == empty
    if cls is PetriNet:
        with pytest.raises(KeyError):
            h.slots(ids[3])
        ids.pop()
    assert h.u_vertices == tuple(ids)


def old_twins(g):
    """Rule 1's twin scan as it was: |v| passes over the distinct terms'
    integers, slot s of a term (arity - 1 - s) * |v| places up."""
    vs = g.v_vertices
    n = len(vs)
    pos = {v: i for i, v in enumerate(vs)}
    unit = 1 if g.arity == 1 else 1 | 1 << n
    masks = {sum(1 << (g.arity - 1 - s) * n + pos[v] for s, part in enumerate(g.slots(u))
                  for v in part) for u in g.u_vertices}
    if isinstance(g, PetriNet):
        masks.add(0)
    previous, last = [], {}
    for i in range(n):
        key = tuple(mask >> i & unit for mask in sorted(masks))
        previous.append(last.get(key))
        last[key] = i
    return previous


@pytest.mark.parametrize("kind", KINDS)
def test_twin_columns_give_the_old_scans_previous_twins(kind):
    """The canonical walk reads its term keys and rule 1's previous twins
    off one class pass at the v-indices: the keys are pack_slots' at the
    v-indices, a graph's with an empty post slot, and twins are the
    v-indices with equal columns, their pre and post holder masks."""
    rng = random.Random(35)
    found = 0
    for _ in range(300):
        g = random_canon_case(rng, kind, max_v=8)
        pos = {v: i for i, v in enumerate(g.v_vertices)}
        packed = pack_slots(g._classes, g.v_vertices, pos, g.arity)
        keys, previous = _ranked(g)
        assert keys == ([(k, 0) for k in packed] if g.arity == 1 else packed)
        want = old_twins(g)
        assert previous == want
        found += sum(p is not None for p in want)
    assert found > 30


SCALE = """
import random, statistics, sys, time
from bigraphpoly import Bigraph, direct_product, encode, mul, poly_product
from bigraphpoly.bits import tau
from bigraphpoly.core import _decode
from bigraphpoly.poly import poly_key


def peak():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))


def graph(rng, tag, n):
    us = [f"{tag}{i}" for i in range(n)]
    vs = [f"{tag}v{j}" for j in range(6)]
    edges = [(u, v) for u in us for v in vs if rng.random() < 0.4]
    return Bigraph(us, vs, edges), dict(zip(vs, rng.sample(range(9), 6)))


rng = random.Random(0)
(g1, l1), (g2, l2) = graph(rng, "a", 1000), graph(rng, "b", 1000)
want = mul(encode(g1, l1), encode(g2, l2))
op = {"poly": poly_product, "direct": direct_product}[sys.argv[1]]
before = peak()
start = time.perf_counter()
h = op(g1, l1, g2, l2)
took = time.perf_counter() - start
rise = (peak() - before) * 1024
assert encode(h, h.natural_labeling) == want


class PerU:
    # A structure as the per-u decoder left it: its u ids, its v ids and a
    # dict entry per u-vertex, read through the same accessors.
    def __init__(self, u, v, sig):
        self._u, self._v, self._sig = u, v, sig

    @property
    def u_vertices(self):
        return self._u

    def slots(self, u):
        return self._sig[u]


def per_u_decode(key):
    # The decoder that built every u-vertex up front: one tau per term,
    # then a dict entry per copy, named by the term's rank and the copy.
    sig = {}
    ors = 0
    for i, (exp, c) in enumerate(key):
        slots = (tau(exp),)
        ors |= exp
        if c == 1:
            sig[i, 1] = slots
        else:
            for k in range(1, c + 1):
                sig[i, k] = slots
    return PerU(tuple(sig), tuple(sorted(tau(ors))), sig)


def expand(h):
    for u in h.u_vertices:
        h.slots(u)


key = poly_key(mul(encode(*graph(rng, "c", 100)), encode(*graph(rng, "d", 100))))
lazy, eager = [], []
for _ in range(21):
    start = time.perf_counter()
    expand(_decode(key, Bigraph, {}))
    lazy.append(time.perf_counter() - start)
    start = time.perf_counter()
    expand(per_u_decode(key))
    eager.append(time.perf_counter() - start)
print(took, rise, statistics.median(lazy), statistics.median(eager))
"""


@pytest.mark.parametrize("op", ["poly", "direct"])
def test_products_of_two_1000_u_graphs_build_classes_not_u_pairs(op):
    """Two random 1000-u graphs with 6 v-vertices labeled from range(9):
    the product has 10^6 u-vertices but at most 704 classes, so it is built
    in well under 0.2 s and raises the peak RSS by under 20 MB, where one
    entry per u-pair took about 1 s and 150 MB.  Reading every per-u view
    of a decoding of about 10^4 u-vertices costs no more than the decoder
    that built them all up front (medians of alternated calls)."""
    if not Path("/proc/self/status").exists():
        pytest.skip("needs /proc/self/status")
    here = str(Path(bigraphpoly.__file__).parents[1])
    path = os.pathsep.join(filter(None, [here, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SCALE, op], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    took, rise, lazy, eager = map(float, proc.stdout.split())
    assert took < 0.2, took
    assert rise < 20 * 2**20, rise
    assert lazy <= 1.1 * eager, (lazy, eager)
