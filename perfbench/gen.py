"""Seeded inputs and expected answers for the three benchmark workloads.

Nothing here imports bigraphpoly: inputs are written in the package's text
and JSON formats by this module's own code, and the expected answers come
from independent oracles (plain dict arithmetic, sympy factoring over Z,
degree sequences).  The same seed always yields the same inputs.

A workload is a list of blocks; every block holds the same number of ops of
each category, so any whole number of blocks has exactly the same mix.
"""

from __future__ import annotations

import itertools
import random
from math import gcd, isqrt, prod

import sympy

from dicts import as_list, enc_digraph, enc_graph, enc_net, pair_key, padd, pmul, render

BUDGET_TUPLES = 10_000_000  # bigraphpoly.Budget().max_divisor_tuples

# The known defect: factoring this polynomial raises ValueError while the
# search formats its own budget message (Python's int-to-str digit limit).
DEFECT_TEXT = ("x^1572864 + 2*x^1310720 + x^1048576 + x^524288 "
               "+ 2*x^262144 + 1")
X = 1 << 18
DEFECT_PLANTED = ({X: 1, 0: 1}, {5 * X: 1, 4 * X: 1, X: 1, 0: 1})


# ---------------------------------------------------------------------------
# Factor oracle over N[x] from sympy's factorization over Z.

_x = sympy.Symbol("x")


def _split_content(terms):
    """(lowest exponent m, content c, primitive core shifted down by m)."""
    m = min(terms)
    c = 0
    for v in terms.values():
        c = gcd(c, v)
    return m, c, {e - m: v // c for e, v in terms.items()}


def n_factor_pairs(terms):
    """Every unordered pair of nonconstant q, r in N[x] with q*r == terms.

    Over Z every factor is c1 * x**a * (product of irreducible powers), so
    enumerating those and keeping the nonnegative ones is complete.
    """
    m, c, core_terms = _split_content(terms)
    core = sympy.Poly.from_dict({(e,): v for e, v in core_terms.items()}, _x)
    lead, facs = core.factor_list()
    if lead != 1:
        raise ValueError(f"primitive core has content {lead}")
    out = {}
    for powers in itertools.product(*[range(k + 1) for _, k in facs]):
        q0 = sympy.Poly(1, _x, domain="ZZ")
        for (f, _), k in zip(facs, powers):
            q0 = q0 * f ** k
        r0, rem = core.div(q0)
        if not rem.is_zero:
            raise ValueError("a product of factors does not divide the core")
        qd = {e[0]: int(v) for e, v in q0.as_dict().items()}
        rd = {e[0]: int(v) for e, v in r0.as_dict().items()}
        if min(qd.values()) < 0 or min(rd.values()) < 0:
            continue
        for a in range(m + 1):
            for c1 in sympy.divisors(c):
                q = {e + a: v * c1 for e, v in qd.items()}
                r = {e + m - a: v * (c // c1) for e, v in rd.items()}
                if max(q) == 0 or max(r) == 0:
                    continue
                out[pair_key(q, r)] = (q, r)
    return [out[k] for k in sorted(out)]


def search_work(terms):
    """Work the divisor-tuple search in polyfactor, as of the baseline, does on terms.

    Returns (trial-division steps, divisor tuples, how it ends), counted
    from the arithmetic of the input alone, so inputs whose search would
    run the 10**7 allowance to exhaustion (10 s and more each) can be left
    out of the random mix.
    """
    _, c, core = _split_content(terms)
    remaining = BUDGET_TUPLES
    steps = isqrt(c) + 1 if c > 1 else 0
    remaining -= steps
    tuples = 0
    for d in range(1, max(core) // 2 + 1):
        vals = [sum(v * k ** e for e, v in core.items()) for k in range(d + 1)]
        for v in vals:
            cost = isqrt(v) + 1
            if cost > remaining:
                return steps, tuples, "budget"
            remaining -= cost
            steps += cost
        t = prod(int(sympy.divisor_count(v)) for v in vals)
        if t > remaining:
            return steps, tuples + remaining, "exhausted"
        remaining -= t
        tuples += t
    return steps, tuples, "complete"


# Divisor tuples allowed to a random input of the mix, and the band of the
# categories that run the search for real (about 0.1-0.3 s each).
LIGHT = (0, 60_000)
SEARCH = (40_000, 100_000)


def bounded(terms, band=LIGHT, max_steps=400_000):
    steps, tuples, end = search_work(terms)
    return end != "exhausted" and steps <= max_steps and band[0] <= tuples <= band[1]


# ---------------------------------------------------------------------------
# Graphs and nets as fileio documents; ids are strings.

def graph_doc(us, vs, edges, labels=None):
    doc = {"u": list(us), "v": list(vs), "edges": [list(e) for e in edges]}
    if labels is not None:
        doc["labels"] = dict(labels)
    return doc


def random_graph(rng, nu, nv, tag, p=0.5):
    """Random bigraph; a vertex left without an edge gets one at random."""
    us = [f"{tag}u{i}" for i in range(nu)]
    vs = [f"{tag}v{j}" for j in range(nv)]
    edges = {(u, v) for u in us for v in vs if rng.random() < p}
    for u in us:
        if not any((u, v) in edges for v in vs):
            edges.add((u, rng.choice(vs)))
    for v in vs:
        if not any((u, v) in edges for u in us):
            edges.add((rng.choice(us), v))
    return us, vs, sorted(edges)


def relabeled(rng, us, vs, edges, tag):
    """Isomorphic copy under fresh shuffled ids and vertex order."""
    umap = dict(zip(us, rng.sample([f"{tag}a{i}" for i in range(len(us))], len(us))))
    vmap = dict(zip(vs, rng.sample([f"{tag}b{i}" for i in range(len(vs))], len(vs))))
    us2 = sorted(umap.values(), key=lambda s: rng.random())
    vs2 = sorted(vmap.values(), key=lambda s: rng.random())
    edges2 = [(umap[u], vmap[v]) for u, v in edges]
    rng.shuffle(edges2)
    return us2, vs2, edges2


def least_encoding(us, vs, edges):
    """Least encoding over all labelings by 0..|v|-1, comparing term lists
    in descending exponent order; brute force, for small |v| only."""
    index = {v: j for j, v in enumerate(vs)}
    nbhd = {u: [] for u in us}
    for u, v in edges:
        nbhd[u].append(index[v])
    best = None
    for perm in itertools.permutations([1 << j for j in range(len(vs))]):
        t = {}
        for nb in nbhd.values():
            e = sum(perm[j] for j in nb)
            t[e] = t.get(e, 0) + 1
        key = sorted(t.items(), reverse=True)
        if best is None or key < best:
            best = key
    return dict(best)


def _degrees(us, vs, edges):
    du = {u: 0 for u in us}
    dv = {v: 0 for v in vs}
    for u, v in edges:
        du[u] += 1
        dv[v] += 1
    return sorted(du.values()), sorted(dv.values())


def near_miss(rng, us, vs, edges, tag):
    """Relabeled copy with one edge moved to another v-vertex of the same
    u-vertex.  Kept only when the v-degree multiset changed, which
    certifies that the copy is not isomorphic."""
    while True:
        us2, vs2, e2 = relabeled(rng, us, vs, edges, tag)
        u, v = rng.choice(e2)
        free = [w for w in vs2 if (u, w) not in set(e2)]
        if not free:
            continue
        e3 = [e for e in e2 if e != (u, v)] + [(u, rng.choice(free))]
        if {x for x, _ in e3} == set(us2) and {y for _, y in e3} == set(vs2) and (
            _degrees(us, vs, edges) != _degrees(us2, vs2, e3)
        ):
            return us2, vs2, e3


def net_doc(conds, events, labels=None):
    doc = {"conditions": list(conds),
           "events": [{"id": i, "pre": sorted(a), "post": sorted(b)}
                      for i, (a, b) in events.items()]}
    if labels is not None:
        doc["labels"] = dict(labels)
    return doc


def random_net(rng, nconds, nevents, tag):
    """Net with distinct non-idle events touching every condition."""
    conds = [f"{tag}c{i}" for i in range(nconds)]
    n = len(conds)
    full = (1 << n) - 1
    while True:
        picked = set()
        while len(picked) < nevents:
            a, b = rng.getrandbits(n), rng.getrandbits(n)
            if a or b:
                picked.add((a, b))
        picked = sorted(picked)
        covered = 0
        for a, b in picked:
            covered |= a | b
        if covered == full:
            break
    events = {}
    for k, (a, b) in enumerate(picked):
        events[f"{tag}e{k}"] = ([conds[i] for i in range(n) if a >> i & 1],
                                [conds[i] for i in range(n) if b >> i & 1])
    return conds, events


def net_product(n1, n2):
    """Pointed product of two (conds, events) nets, ids joined by '.'."""
    c1, e1 = n1
    c2, e2 = n2
    events = {}
    for a in (*e1, None):
        for b in (*e2, None):
            if a is None and b is None:
                continue
            pa, qa = e1[a] if a is not None else ([], [])
            pb, qb = e2[b] if b is not None else ([], [])
            events[f"{a or '_'}.{b or '_'}"] = (pa + pb, qa + qb)
    return c1 + c2, events


# ---------------------------------------------------------------------------
# factor: factor_pairs and factor_graph over N[x].

def _rand_poly(rng, deg, cmax):
    return {e: rng.randint(1, cmax) for e in range(deg + 1)}


def _factor_op(cat, terms, planted, complete=True):
    return {
        "cat": cat, "op": "factor_pairs", "poly": render(terms),
        "pairs": [[as_list(q), as_list(r)] for q, r in n_factor_pairs(terms)]
        if complete else None,
        "planted": [as_list(planted[0]), as_list(planted[1])],
    }


def _suffix(band):
    return "_search" if band is SEARCH else ""


def _dense(rng, deg, cmax, band=LIGHT):
    while True:
        a = rng.randint(1, deg // 2)
        q, r = _rand_poly(rng, a, cmax), _rand_poly(rng, deg - a, cmax)
        p = pmul(q, r)
        if bounded(p, band):
            return _factor_op(f"dense{deg}{_suffix(band)}", p, (q, r))


def _negative(rng, deg):
    while True:
        p = _rand_poly(rng, deg, 3)
        if bounded(p) and not n_factor_pairs(p):
            return {"cat": "negative", "op": "factor_pairs", "poly": render(p),
                    "pairs": [], "planted": None}


def _graph_factor(rng, nv, tag, band=LIGHT):
    while True:
        a = rng.randint(1, nv - 1)
        g1 = random_graph(rng, rng.randint(1, 3), a, tag + "p")
        g2 = random_graph(rng, rng.randint(1, 3), nv - a, tag + "q")
        us = [f"{x}.{y}" for x in g1[0] for y in g2[0]]
        edges = [(f"{x}.{y}", v) for x in g1[0] for y in g2[0]
                 for (s, v) in g1[2] + g2[2] if s in (x, y)]
        vs = g1[1] + g2[1]
        labels = {v: i for i, v in enumerate(vs)}
        doc = graph_doc(us, vs, edges, labels)
        p = enc_graph(doc, labels)
        if not bounded(p, band):
            continue
        q = enc_graph(graph_doc(*g1), labels)
        r = enc_graph(graph_doc(*g2), labels)
        return {"cat": f"graph{nv}{_suffix(band)}", "op": "factor_graph", "graph": doc,
                "pairs": [[as_list(a), as_list(b)] for a, b in n_factor_pairs(p)],
                "planted": [as_list(q), as_list(r)]}


def _sparse(rng, deg):
    e1 = rng.randint(1, deg - 2)
    e2 = rng.randint(1, deg - e1 - 1)
    q = {e1: 1, 0: 1}
    r = {deg - e1: 1, e2: 1, 0: 1}
    return _factor_op("sparse", pmul(q, r), (q, r), complete=deg <= 8)


def factor_block(rng, b):
    ops = []
    for deg in (4, 5, 6, 7) * 20:
        ops.append(_dense(rng, deg, 3))
    for _ in range(8):
        ops.append(_dense(rng, 8, 2))
    for deg in (4, 5, 6, 7, 8) * 8:
        ops.append(_negative(rng, deg))
    for nv in (2, 3, 4, 5) * 12:
        ops.append(_graph_factor(rng, nv, f"b{b}g{len(ops)}"))
    # Dense degree 8 and |v| = 5 graph products whose divisor search does
    # tens of thousands of tuples, at a fixed count per block.
    for _ in range(3):
        ops.append(_dense(rng, 8, 4, SEARCH))
        ops.append(_graph_factor(rng, 5, f"b{b}g{len(ops)}", SEARCH))
    # The budget stops at degree 32 and 2**13 cost nearly the same on every
    # seed; there are enough of them to hold the p90 and the median.
    for deg in (8, 8, 1 << 7, 1 << 9, 1 << 11, 1 << 13, 1 << 14) * 3 + (1 << 5,) * 40 \
            + (1 << 13,) * 70:
        ops.append(_sparse(rng, deg))
    planted = [as_list(DEFECT_PLANTED[0]), as_list(DEFECT_PLANTED[1])]
    ops.append({"cat": "defect", "op": "factor_pairs", "poly": DEFECT_TEXT,
                "pairs": None, "planted": planted})
    ops.append({"cat": "defect_cli", "op": "cli", "argv": ["factor", DEFECT_TEXT],
                "check": "factor", "planted": planted})
    return ops, {}


# ---------------------------------------------------------------------------
# decompose: pointed products of small prime nets, and nets that cannot split.

def _prime_net(rng, nconds, tag):
    # A split of a net with all-ones coefficients multiplies term counts, so
    # a prime number of terms (events + idle) certifies the net is prime.
    nevents = 1 if nconds == 3 or rng.random() < 0.7 else 2
    return random_net(rng, nconds, nevents, tag)


def _split_op(rng, total, max_terms, tag):
    while True:
        sizes = []
        while sum(sizes) < total:
            sizes.append(min(rng.randint(1, 3), total - sum(sizes)))
        if not 2 <= len(sizes) <= 8 or 2 ** len(sizes) > max_terms:
            continue
        nets = [_prime_net(rng, s, f"{tag}n{i}") for i, s in enumerate(sizes)]
        if prod(len(n[1]) + 1 for n in nets) <= max_terms:
            return _product_op("split", nets)


def _chain_op(rng, k, tag):
    """k-fold pointed product of the net with one event from c0 to c1, under
    seeded ids and factor order: the same work on every seed."""
    nets = []
    for i in rng.sample(range(k), k):
        nets.append(([f"{tag}{i}c0", f"{tag}{i}c1"], {f"{tag}{i}e": ([f"{tag}{i}c0"], [f"{tag}{i}c1"])}))
    return _product_op(f"chain{k}", nets)


def _product_op(cat, nets):
    whole = nets[0]
    for n in nets[1:]:
        whole = net_product(whole, n)
    conds = whole[0]
    labels = {c: i for i, c in enumerate(conds)}
    parts = [enc_net(net_doc(*n), labels) for n in nets]
    splits = {}
    for mask in range(1, 1 << (len(nets) - 1)):
        left, right = {(0, 0): 1}, {(0, 0): 1}
        for i, part in enumerate(parts):
            if i and mask >> (i - 1) & 1:
                right = pmul(right, part)
            else:
                left = pmul(left, part)
        splits[pair_key(left, right)] = [as_list(left), as_list(right)]
    return {"cat": cat, "op": "decompose", "net": net_doc(conds, whole[1], labels),
            "splits": [splits[k] for k in sorted(splits)]}


def _nosplit_op(rng, nconds, tag):
    conds, events = random_net(rng, nconds, rng.choice((4, 6, 10, 12)), tag)
    labels = {c: i for i, c in enumerate(conds)}
    return {"cat": "nosplit", "op": "decompose",
            "net": net_doc(conds, events, labels), "splits": []}


def decompose_block(rng, b):
    # Cost grows as 2**conditions times terms.  The k-fold products of one
    # 2-condition net cost the same on every seed.  About 40% of the ops
    # cost less than those at k = 4, and the 40 at k = 4 span the median;
    # the 10 at k = 5 span the p90.
    ops = []
    t = f"b{b}"
    for c in (4, 5, 6, 7, 8) * 6 + (9, 10) * 6:
        ops.append(_nosplit_op(rng, c, f"{t}x{len(ops)}"))
    for c in (4, 5, 6, 7) * 2 + (8, 9) * 6:
        ops.append(_split_op(rng, c, 24, f"{t}s{len(ops)}"))
    for k in (4,) * 40 + (5,) * 10 + (6,):
        ops.append(_chain_op(rng, k, f"{t}k{len(ops)}"))
    # 13 conditions: one past the isomorphism guard of 12, so SizeGuardError.
    nets = [random_net(rng, size, 1, f"{t}g{i}") for i, size in enumerate((3, 3, 3, 2, 2))]
    ops.append(_product_op("guard", nets))
    return ops, {}


# ---------------------------------------------------------------------------
# algebra: encode/decode, products and sums, isomorphism, canonical forms,
# and the command line on generated files.

def _digraph(rng, nu, nv, tag):
    us, vs, edges = random_graph(rng, nu, nv, tag, p=0.35)
    arcs = [{"u": u, "v": v, "dir": rng.choice(("v_to_u", "u_to_v"))} for u, v in edges]
    return {"directed": True, "u": us, "v": vs, "edges": arcs}


def _labels(rng, vs, spread):
    return dict(zip(vs, rng.sample(range(spread), len(vs))))


def algebra_block(rng, b):
    ops, files = [], {}
    t = f"b{b}"

    def gfile(name, doc):
        files[f"{name}.json"] = doc
        return "{work}/" + f"{name}.json"

    for k in range(3):
        us, vs, edges = random_graph(rng, rng.randint(20, 60), rng.randint(6, 12), f"{t}e{k}", 0.3)
        lab = _labels(rng, vs, 2 * len(vs))
        doc = graph_doc(us, vs, edges, lab)
        ops.append({"cat": "encode", "op": "encode", "graph": doc,
                    "expect": as_list(enc_graph(doc, lab))})
        p = {rng.randrange(1 << rng.randint(6, 12)): rng.randint(1, 3) for _ in range(20)}
        ops.append({"cat": "decode", "op": "decode", "poly": render(p), "expect": as_list(p)})
    for k in range(3):
        doc = _digraph(rng, rng.randint(20, 40), rng.randint(6, 10), f"{t}d{k}")
        lab = _labels(rng, doc["v"], 2 * len(doc["v"]))
        doc["labels"] = lab
        ops.append({"cat": "encode", "op": "encode_directed", "graph": doc,
                    "expect": as_list(enc_digraph(doc, lab))})
        p = {(rng.randrange(1 << 8), rng.randrange(1 << 8)): rng.randint(1, 3)
             for _ in range(20)}
        ops.append({"cat": "decode", "op": "decode_directed", "poly": render(p),
                    "expect": as_list(p)})
    # Products and sums of two graphs with 100 u-vertices each.
    big = []
    for k in range(2):
        us, vs, edges = random_graph(rng, 100, 6, f"{t}P{k}", 0.4)
        big.append(graph_doc(us, vs, edges, _labels(rng, vs, 9)))
    e1, e2 = (enc_graph(d, d["labels"]) for d in big)
    for op, expect in (("poly_product", pmul(e1, e2)), ("direct_product", pmul(e1, e2)),
                       ("poly_sum", padd(e1, e2)), ("direct_sum", padd(e1, e2))):
        ops.append({"cat": "product" if "product" in op else "sum", "op": op,
                    "g1": big[0], "g2": big[1], "expect": as_list(expect)})
    # Isomorphism: relabeled copies and certified near misses, |v| 6..12,
    # plus one case at |v| 13, one past the guard of 12.
    for k, nv in enumerate((6, 8, 10, 12, 7, 11, 13)):
        g = random_graph(rng, rng.randint(10, 30), nv, f"{t}i{k}", 0.4)
        iso = k < 4 or nv == 13  # the rest are near misses
        h = relabeled(rng, *g, f"{t}j{k}") if iso else near_miss(rng, *g, f"{t}j{k}")
        ops.append({"cat": "iso_guard" if nv == 13 else "iso", "op": "is_isomorphic",
                    "g1": graph_doc(*g), "g2": graph_doc(*h), "iso": iso})
    # Canonical forms of a graph and a relabeled copy, |v| 4..8, plus |v| 9,
    # one past the canonical-form guard of 8.
    sizes = ((4, 12), (5, 10), (6, 8)) + ((7, 6),) * 4 + ((8, 4), (9, 4))
    for k, (nv, nu) in enumerate(sizes):
        g = random_graph(rng, nu, nv, f"{t}c{k}")
        least = as_list(least_encoding(*g)) if nv <= 7 else None
        for j, doc in enumerate((graph_doc(*g), graph_doc(*relabeled(rng, *g, f"{t}k{k}")))):
            ops.append({"cat": "canon_guard" if nv == 9 else "canon", "op": "canonical_poly",
                        "graph": doc, "pair": f"{t}c{k}", "expect": least})
    # The command line, in process, on files written to the work directory.
    # The small subcommands come in numbers that hold the median.
    pf = [gfile(f"{t}P{k}", d) for k, d in enumerate(big)]
    ops.append({"cat": "cli", "op": "cli", "argv": ["product", *pf], "check": "graph_doc",
                "expect": as_list(pmul(e1, e2))})
    ops.append({"cat": "cli", "op": "cli", "argv": ["sum", *pf], "check": "graph_doc",
                "expect": as_list(padd(e1, e2))})
    g = random_graph(rng, 6, 6, f"{t}C")
    least = as_list(least_encoding(*g))
    for j, doc in enumerate((graph_doc(*g), graph_doc(*relabeled(rng, *g, f"{t}D")))):
        ops.append({"cat": "cli", "op": "cli", "argv": ["canon", gfile(f"{t}canon{j}", doc)],
                    "check": "canon", "pair": f"{t}C", "graph": doc, "expect": least})
    for r in range(3):
        ops.extend(_small_cli(rng, f"{t}r{r}", gfile, encodes=2 if r == 0 else 1))
    return ops, files


def _small_cli(rng, t, gfile, encodes):
    ops = []
    for k in range(encodes):
        g = random_graph(rng, 30, 8, f"{t}L{k}", 0.4)
        lab = _labels(rng, g[1], 8)
        ops.append({"cat": "cli", "op": "cli", "argv": ["encode", gfile(f"{t}enc{k}", graph_doc(*g, lab))],
                    "check": "poly", "expect": as_list(enc_graph(graph_doc(*g), lab))})
    p = {rng.randrange(1 << 8): rng.randint(1, 3) for _ in range(20)}
    ops.append({"cat": "cli", "op": "cli", "argv": ["decode", render(p)], "check": "graph_doc",
                "expect": as_list(p)})
    g = random_graph(rng, 20, 10, f"{t}I", 0.4)
    h = relabeled(rng, *g, f"{t}J")
    ops.append({"cat": "cli", "op": "cli",
                "argv": ["iso", gfile(f"{t}iso1", graph_doc(*g)), gfile(f"{t}iso2", graph_doc(*h))],
                "check": "iso", "g1": graph_doc(*g), "g2": graph_doc(*h)})
    n1 = random_net(rng, 4, 6, f"{t}N")
    n2 = random_net(rng, 3, 4, f"{t}M")
    l1 = {c: i for i, c in enumerate(n1[0])}
    l2 = {c: i for i, c in enumerate(n2[0])}
    nf1 = gfile(f"{t}net1", net_doc(*n1, l1))
    nf2 = gfile(f"{t}net2", net_doc(*n2, l2))
    ops.append({"cat": "cli", "op": "cli", "argv": ["net-encode", nf1], "check": "poly",
                "expect": as_list(enc_net(net_doc(*n1), l1))})
    shifted = {c: i + len(l1) for c, i in l2.items()}
    ops.append({"cat": "cli", "op": "cli", "argv": ["net-product", nf1, nf2],
                "check": "net_product", "labels1": l1, "labels2": shifted,
                "expect": as_list(pmul(enc_net(net_doc(*n1), l1), enc_net(net_doc(*n2), shifted)))})
    ops.append({"cat": "cli", "op": "cli", "argv": ["dot", nf1], "check": "dot",
                "nodes": len(n1[0]) + len(n1[1]),
                "arrows": sum(len(a) + len(b) for a, b in n1[1].values())})
    return ops


BLOCKS = {"factor": factor_block, "decompose": decompose_block, "algebra": algebra_block}


def generate(workload, seed, nblocks):
    """Blocks of op specs plus the files the command-line ops read."""
    rng = random.Random(f"{workload}:{seed}")
    blocks, files = [], {}
    for b in range(nblocks):
        ops, fs = BLOCKS[workload](rng, b)
        rng.shuffle(ops)
        blocks.append(ops)
        files.update(fs)
    return {"workload": workload, "seed": seed, "blocks": blocks, "files": files}
