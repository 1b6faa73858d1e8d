"""Wall time and peak RSS of the scaling rows: the net and bit-disjoint
routes, dense and sparse products, isomorphism on a regular input and on
products, the canonical form of a product, the exhaustive irreducibility
sweep and a single-labeling verdict that searches, a directed product,
products of encoded digraphs on both sides of mul's gate and the files of
a wide decoding, a product graph, a product net and a 13-fold chain.

Each row runs in a fresh Python subprocess against the package in the src
directory next to this tool.  The subprocess builds its input, which is not
timed, times the one call with perf_counter, and reads its peak resident set
size from VmHWM in /proc/self/status, so the peak includes the interpreter
and the input.  Prints one row a line: name, seconds, peak MB and the size
of the answer, or budget when the call runs out of its default Budget.
There is no threshold; the rows are for comparing two trees on one machine.
Reading VmHWM makes it Linux only.

    python3 tools/scaling_rows.py [row name ...]

The rows:

* chainK is the K-fold pointed product of the one-event net c0 -> c1 (2**K
  terms, K prime factors), for K = 12 and 14, under the compact labeling:
  is_irreducible, graph_factor_pairs and decompose; is_irreducible for
  K = 16, which runs out of its budget and answers inconclusive; and
  canonical_poly for K = 6, 12 conditions and 64 terms, a symmetric net
  whose automorphisms permute its six equal prime factors, so the
  labeling walk runs out of its budget (chain4, 16 terms, answers);
* chainKwide is decompose on the K-fold chain with condition i labeled
  i * 10**6, for K = 4 and 8: 2**K terms whose exponents would run to
  about 2K * 10**6 bits, 7 and 127 pairs.  The search works on the ranks
  of the labels, so these rows should read near chain4 and chain8 under
  compact labels;
* digraph2000x40 is bit_disjoint_factor on the encoding of a random
  digraph, 2,000 u-vertices on 40 v-vertices with each arc in either
  direction at probability 0.3 (random.Random(0)): 2,000 terms on 40
  support bits;
* wide100x1000 is bit_disjoint_factor on 100 terms, each exponent 1,000
  random bits of 10**4 (random.Random(0));
* decoded_text wide1000x1000 writes the graph file of the decoding of 1,000
  such terms: 10**6 edges.  The row prints the text's size in MB, as do
  the two rows of the other writers, graph_text product100 and net_text
  netproduct97 below;
* sparse64x3 is bit_disjoint_factor on 64 terms, each exponent 3 random
  bits below 10**6 (random.Random(0));
* sparseprod is bit_disjoint_factor on a product of two sparse Poly1
  (random.Random(0)): 64 terms, each exponent 3 random bits below 10**6,
  times 8 terms, each exponent 3 random bits in [10**6, 2 * 10**6): 512
  terms on 216 support bits, 1 pair.  sparseprodMxN is the same product
  of M and N terms, a smaller size for a quick check.  Reading each
  exponent's bits (tau) is most of its time;
* hugecoeff64 is bit_disjoint_factor on the sum of x**e for e < 64, with
  coefficient 2**(10**6) + 1 where bit 2 of e is set and 1 elsewhere;
* miss7 is bit_disjoint_factor on the product of 7 copies of the prime
  1 + x + x**2 + x**7, copy k on bits 3k to 3k + 2 (16,384 terms, 63
  pairs).  The point (1, ..., 1) misses a dependency inside each copy, so
  the search draws one seeded random point: the one row on that path;
* denseMxB is mul of two random Poly1, each the sum of x**e over M draws
  of e below 2**B (random.Random(0)), so about M terms with small
  coefficients, for (M, B) = (900, 12), (2750, 14) and (9250, 16): dense
  operands, which mul packs into one integer product;
* dense300x14 and sparse300x15 are mul of two such Poly1 of 300 draws
  below 2**14 and 2**15, on either side of mul's gate near its limit: the
  first packs into 64 KB, under the limit of about 72 KB for its 88,000
  pairs, the second would pack into 128 KB and keeps the pair loop;
* sparse64x20 is mul of two such Poly1 of 64 draws below 2**20, far on
  the pair-loop side of mul's gate;
* densedigraph1000x6 and sparsedigraph1000x8 are mul of the encodings of
  two random 1,000-u digraphs on W v-vertices, each arc in either
  direction at probability 0.3 (random.Random(0)), both labeled 0..W-1:
  Poly2 operands of 656 and 662 terms for W = 6, which mul packs, and of
  943 and 925 terms for W = 8, where the gate keeps the pair loop though
  packing is faster there.  As for the Poly1 rows, dense and sparse name
  the side of the gate;
* divide_exact dense9250x16 divides mul(p, q) by q, where p has 9,250
  draws of a term below 2**16 and q 60 draws below 2**6, each with a
  coefficient from 1 to 9 (random.Random(0)): about 65,000 terms on
  8,716 quotient terms.  The product is built untimed, and the row prints
  the quotient's term count;
* cycleN for N = 64 and 128 is is_isomorphic on the N-cycle against two
  N/2-cycles, where refinement splits nothing and no coloring is discrete
  until the search branches;
* cycleN for N = 9 and 10 is canonical_poly on the N-cycle, u-vertex i on
  v-vertices i and i + 1 mod N: a symmetric input, the labeling walk's
  heavy tail;
* productN is is_isomorphic on the poly_product of two random N-u graphs
  against itself, for N = 100, 300 and 1000: 10**4, 9 * 10**4 and 10**6
  u-vertices in at most 4,096 classes.  Each graph has 6 v-vertices and
  each edge at probability 0.4 (random.Random(0)); the first is labeled
  0..5 and the second 6..11, so the product's slots are the pairs' unions;
* canonical_poly product100 is the canonical form of the product of the
  same two 100-u graphs with both labeled 0..5: 10**4 u-vertices on 7
  v-vertices in 123 classes, whose labeling walk costs what the 123 terms
  cost; product100x12 is the same product with the second graph labeled
  6..11, as in the productN rows: 12 v-vertices, whose walk runs out of
  its budget;
* graph_text product100 writes the graph file of the 10**4-u product of
  the productN rows at N = 100, under its natural labeling;
* net_text netproductN writes the net file of the pointed product of two
  random N-event nets on 8 conditions each, each event's pre and post set
  holding each condition at probability 0.5 (random.Random(0)), for
  N = 97: 98 * 98 - 1 = 9,603 events;
* net_text chain13 writes the net file of the 13-fold chain: 8,191 events
  whose ids are 12 pairs nested one in another, whose shared components
  string_ids formats once each;
* binomialN is factor_pairs on (1 + x)**N, for N = 12, 14 and 16 (6, 7
  and 8 pairs; N = 16 runs out of its budget): the coefficient search on
  a dense support with a repeated factor, its worst case;
  is_irreducible binomial12 is the single-labeling verdict on the
  decoding of (1 + x)**12, whose compact encoding is that polynomial:
  p(0) = 1, so no fixed answer applies and the search runs;
* starN is graph_factor_pairs on the digraph of one u-vertex with arcs to
  N v-vertices, for N = 18: one term, whose 2**(N - 1) - 1 pairs (131,071)
  are every split of its v part in two, so the row measures what reading
  many short pairs costs;
* sweepN is the exhaustive is_irreducible sweep on u0 to u4 and an
  isolated u-vertex, on N v-vertices, for N = 8: with random.Random(2),
  each v-vertex first gets one edge from rng.choice of u0 to u4, then each
  (u, v) pair of those gets an edge at probability 0.5.  The isolated
  u-vertex makes p(0) >= 1, so no fixed witness answers and the walk
  searches every distinct encoding;
* digraphN is poly_product of two random N-u digraphs on 6 v-vertices,
  for N = 100, the first labeled 0..5 and the second 6..11, each arc in
  either direction at probability 0.3 (random.Random(0)): a directed
  product on mul's pair loop, 8,272 terms.
"""

import subprocess
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
_ROWS = [
    "is_irreducible chain12", "graph_factor_pairs chain12", "decompose chain12",
    "is_irreducible chain14", "graph_factor_pairs chain14", "decompose chain14",
    "is_irreducible chain16", "decompose chain4wide", "decompose chain8wide",
    "bit_disjoint_factor digraph2000x40", "bit_disjoint_factor wide100x1000",
    "bit_disjoint_factor sparse64x3", "bit_disjoint_factor sparseprod",
    "bit_disjoint_factor hugecoeff64", "decoded_text wide1000x1000",
    "bit_disjoint_factor miss7",
    "mul dense900x12", "mul dense2750x14", "mul dense9250x16", "mul dense300x14",
    "mul sparse300x15", "mul sparse64x20", "mul densedigraph1000x6", "mul sparsedigraph1000x8",
    "divide_exact dense9250x16", "is_isomorphic cycle64", "is_isomorphic cycle128",
    "is_isomorphic product100", "is_isomorphic product300", "is_isomorphic product1000",
    "canonical_poly product100", "canonical_poly product100x12", "graph_text product100",
    "net_text netproduct97", "net_text chain13",
    "canonical_poly cycle9", "canonical_poly cycle10", "canonical_poly chain6",
    "factor_pairs binomial12", "factor_pairs binomial14", "factor_pairs binomial16",
    "is_irreducible binomial12",
    "graph_factor_pairs star18", "is_irreducible sweep8", "poly_product digraph100",
]


def _cycles(*sizes):
    """Disjoint cycles, one per size n: u-vertex i of a cycle is on its
    v-vertices i and i + 1 mod n."""
    import bigraphpoly as bp

    us, vs, edges = [], [], []
    for c, n in enumerate(sizes):
        us += [f"u{c}_{i}" for i in range(n)]
        vs += [f"v{c}_{i}" for i in range(n)]
        edges += [(f"u{c}_{i}", f"v{c}_{(i + j) % n}") for i in range(n) for j in (0, 1)]
    return bp.Bigraph(us, vs, edges)


def _input(name, call=None):
    """The input of a row, as the arguments of its call."""
    import random
    from collections import Counter
    from math import comb

    import bigraphpoly as bp

    if name.startswith("chain"):
        one = bp.PetriNet(["c0", "c1"], ["e"], pre={"e": ["c0"]}, post={"e": ["c1"]})
        net = one
        for _ in range(int(name[5:].removesuffix("wide")) - 1):
            net = bp.net_product(net, one)
        if name.endswith("wide"):
            return net, {c: i * 10**6 for i, c in enumerate(net.conditions)}
        if call in ("canonical_poly", "net_text"):
            return (net,)
        return net, bp.compact_net_labeling(net)
    rng = random.Random(0)
    if name == "digraph2000x40":
        us, vs = range(2000), range(2000, 2040)
        arcs = [a for u in us for v in vs for a in ((v, u), (u, v)) if rng.random() < 0.3]
        g = bp.DiBigraph(us, vs, arcs)
        return (bp.encode_directed(g, bp.compact_labeling(g)),)
    if name.startswith("wide"):
        terms, bits = map(int, name[4:].split("x"))
        return (bp.Poly1({bp.from_bits(rng.sample(range(10**4), bits)): 1 for _ in range(terms)}),)
    if name == "sparse64x3":
        return (bp.Poly1({bp.from_bits(rng.sample(range(10**6), 3)): 1 for _ in range(64)}),)
    if name.startswith("sparseprod"):
        m, n = map(int, (name[10:] or "64x8").split("x"))
        p, q = (bp.Poly1({bp.from_bits(rng.sample(range(low, low + 10**6), 3)): 1
                          for _ in range(size)}) for size, low in ((m, 0), (n, 10**6)))
        return (p * q,)
    if name == "hugecoeff64":
        return (bp.Poly1({e: (2**(10**6) + 1 if e & 4 else 1) for e in range(64)}),)
    if name.startswith(("digraph", "densedigraph", "sparsedigraph")):
        size, _, width = name.partition("digraph")[2].partition("x")
        us, vs = range(int(size)), [f"v{j}" for j in range(int(width or 6))]
        g1, g2 = (bp.DiBigraph(us, vs, [a for u in us for v in vs for a in ((v, u), (u, v))
                                        if rng.random() < 0.3])
                  for _ in range(2))
        labels = {v: j for j, v in enumerate(vs)}
        if name.startswith("digraph"):
            return g1, labels, g2, {v: 6 + j for j, v in enumerate(vs)}
        return bp.encode(g1, labels), bp.encode(g2, labels)
    if name.startswith(("dense", "sparse")):
        draws, bits = map(int, name.removeprefix("dense").removeprefix("sparse").split("x"))
        if call == "divide_exact":
            p, q = (bp.Poly1({rng.randrange(2**b): rng.randint(1, 9) for _ in range(n)})
                    for n, b in ((draws, bits), (60, 6)))
            return bp.mul(p, q), q
        return tuple(bp.Poly1(Counter(rng.randrange(2**bits) for _ in range(draws)))
                     for _ in range(2))
    if name.startswith("cycle"):
        n = int(name[5:])
        if call == "canonical_poly":
            return (_cycles(n),)
        return tuple(_cycles(*sizes) for sizes in ((n,), (n // 2, n // 2)))
    if name.startswith("product"):
        size, _, width = name[7:].partition("x")
        us, vs = range(int(size)), ["v0", "v1", "v2", "v3", "v4", "v5"]
        g1, g2 = (bp.Bigraph(us, vs, [(u, v) for u in us for v in vs if rng.random() < 0.4])
                  for _ in range(2))
        shift = 0 if call == "canonical_poly" and not width else 6
        g = bp.poly_product(g1, {v: j for j, v in enumerate(vs)}, g2,
                            {v: shift + j for j, v in enumerate(vs)})
        return {"canonical_poly": (g,), "graph_text": (g, g.natural_labeling)}.get(call, (g, g))
    if name.startswith("netproduct"):
        events = range(int(name[10:]))
        nets = []
        for tag in "ab":
            conds = [f"{tag}{i}" for i in range(8)]
            pre, post = ({e: [c for c in conds if rng.random() < 0.5] for e in events}
                         for _ in range(2))
            nets.append(bp.PetriNet(conds, events, pre, post))
        return (bp.net_product(*nets),)
    if name.startswith("star"):
        vs = range(1, int(name[4:]) + 1)
        g = bp.DiBigraph([0], vs, [(0, v) for v in vs])
        return g, bp.compact_labeling(g)
    if name.startswith("sweep"):
        rng = random.Random(2)
        us, vs = [f"u{i}" for i in range(5)], [f"v{j}" for j in range(int(name[5:]))]
        edges = [(rng.choice(us), v) for v in vs]
        edges += [(u, v) for u in us for v in vs if rng.random() < 0.5]
        return (bp.Bigraph([*us, "u5"], vs, edges),)
    if name.startswith("binomial"):
        p = bp.Poly1({e: comb(int(name[8:]), e) for e in range(int(name[8:]) + 1)})
        return (bp.decode(p),) if call == "is_irreducible" else (p,)
    if name == "miss7":
        p = bp.Poly1({0: 1})
        for k in range(7):
            p = p * bp.Poly1({e << 3 * k: 1 for e in (0, 1, 2, 7)})
        return (p,)
    raise ValueError(f"no row input {name}")


def _run(row):
    """Run one row in this process and print its line."""
    from time import perf_counter

    from bigraphpoly import (
        BudgetExceededError, bit_disjoint_factor, canonical_poly, decompose, divide_exact,
        factor_pairs, is_irreducible, is_isomorphic, mul, poly_product,
    )
    from bigraphpoly.fileio import decoded_text, graph_text, net_text
    from bigraphpoly.graphfactor import graph_factor_pairs

    call, name = row.split()
    calls = [bit_disjoint_factor, canonical_poly, decoded_text, decompose, divide_exact,
             factor_pairs, graph_factor_pairs, graph_text, is_irreducible, is_isomorphic, mul,
             net_text, poly_product]
    function = next(f for f in calls if f.__name__ == call)
    args = _input(name, call)
    options = {"exhaustive": True} if name.startswith("sweep") else {}
    start = perf_counter()
    try:
        out = function(*args, **options)
    except BudgetExceededError:
        out = BudgetExceededError
    seconds = perf_counter() - start
    if out is BudgetExceededError:
        size = "budget"
    elif call == "is_irreducible":
        size = out.verdict
    elif call in ("mul", "canonical_poly", "divide_exact"):
        size = f"{len(out.terms)} terms"
    elif call == "poly_product":
        size = f"{len(out._classes)} terms"  # one class per term of its encoding
    elif call in ("decoded_text", "graph_text", "net_text"):
        size = f"{len(out) / 1e6:.1f} MB"
    elif call == "is_isomorphic":
        size = "not isomorphic" if out is None else "isomorphic"
    else:
        size = f"{len(out)} pairs"
    with open("/proc/self/status") as status:
        peak = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    print(f"{row:<36} {seconds:8.3f} s {peak / 1024:8.1f} MB  {size}")


def main(rows):
    for row in rows or _ROWS:
        if row not in _ROWS:
            raise SystemExit(f"unknown row {row!r}; the rows are {_ROWS}")
        subprocess.run([sys.executable, __file__, "--row", row], check=True)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--row"]:
        sys.path.insert(0, str(_SRC))
        _run(sys.argv[2])
    else:
        main(sys.argv[1:])
