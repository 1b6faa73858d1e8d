"""Independent checks of every answer the program returns.

The checks read returned objects only through their data (terms,
vertices, neighborhoods, pre and post sets) and redo the arithmetic with
plain dicts, so they share no code with the package under test.  Each
check returns None when the answer is right and a short reason otherwise.
"""

from __future__ import annotations

import json
import re

from dicts import enc_graph, enc_net, pair_key, pmul

_TERM = re.compile(r"^(?:(\d+)(?:\*|$))?(?:x(?:\^(\d+))?)?\*?(?:(y)(?:\^(\d+))?)?$")


def parse(text):
    """Polynomial text in the package grammar to {exponent: coefficient}.

    Exponents are pairs as soon as y occurs anywhere in the text."""
    bivariate = "y" in text
    out = {}
    for tok in text.strip().split(" + "):
        m = _TERM.match(tok)
        if not m or not tok:
            raise ValueError(f"cannot parse term {tok!r}")
        c = int(m.group(1) or 1)
        i = int(m.group(2) or 1) if "x" in tok else 0
        j = int(m.group(4) or 1) if m.group(3) else 0
        e = (i, j) if bivariate else i
        out[e] = out.get(e, 0) + c
    return out


def from_list(items):
    return {tuple(e) if isinstance(e, list) else e: c for e, c in items}


def graph_terms(g):
    """Encoding of a decoded graph under its natural labeling (ids = bits)."""
    out = {}
    for u in g.u_vertices:
        e = sum(1 << v for v in g.neighbors(u))
        out[e] = out.get(e, 0) + 1
    return out


def digraph_terms(g):
    out = {}
    for u in g.u_vertices:
        e = (sum(1 << v for v in g.pre(u)), sum(1 << v for v in g.post(u)))
        out[e] = out.get(e, 0) + 1
    return out


def net_terms(labeled):
    net, lab = labeled.net, labeled.labeling
    out = {(0, 0): 1}
    for ev in net.events:
        e = (sum(1 << lab[b] for b in net.pre(ev)), sum(1 << lab[b] for b in net.post(ev)))
        out[e] = out.get(e, 0) + 1
    return out


def _bits(t):
    b = 0
    for e in t:
        for part in (e if isinstance(e, tuple) else (e,)):
            b |= part
    return b


def check_pairs(pairs, whole, spec, expected_key="pairs"):
    """Factor pairs: each multiplies back, the planted pair is among them,
    and where the complete answer is known the set equals it."""
    keys = set()
    for q, r in pairs:
        if pmul(q, r) != whole:
            return "a returned pair does not multiply back to the input"
        keys.add(pair_key(q, r))
    if spec.get("planted"):
        if pair_key(*(from_list(x) for x in spec["planted"])) not in keys:
            return "the planted pair is missing"
    expected = spec.get(expected_key)
    if expected is not None:
        want = {pair_key(from_list(a), from_list(b)) for a, b in expected}
        if keys != want:
            return f"{len(keys)} pairs returned, {len(want)} expected"
    return None


def check_splits(pairs, whole, spec):
    for p1, p2 in pairs:
        if _bits(p1) & _bits(p2):
            return "a split is not bit-disjoint"
    return check_pairs(pairs, whole, spec, "splits")


def check_witness(witness, g1, g2):
    """An isomorphism witness (u map, v map) must carry g1's edges onto g2's."""
    umap, vmap = witness
    if sorted(umap) != sorted(g1["u"]) or sorted(umap.values()) != sorted(g2["u"]):
        return "u map is not a bijection"
    if sorted(vmap) != sorted(g1["v"]) or sorted(vmap.values()) != sorted(g2["v"]):
        return "v map is not a bijection"
    mapped = {(umap[u], vmap[v]) for u, v in g1["edges"]}
    if mapped != {tuple(e) for e in g2["edges"]}:
        return "witness does not map edges onto edges"
    return None


def check_canonical(t, doc, expect):
    """A canonical polynomial is the least encoding, where that is known,
    and otherwise at least an encoding of doc: one unit per u-vertex, and
    exponent popcounts are the neighborhood sizes."""
    if expect is not None:
        return None if t == from_list(expect) else "not the least encoding"
    deg = {u: 0 for u in doc["u"]}
    for u, _ in doc["edges"]:
        deg[u] += 1
    got = sorted(bin(e).count("1") for e, c in t.items() for _ in range(c))
    if got != sorted(deg.values()):
        return "canonical form is not an encoding of the graph"
    return None


def check_cli(spec, code, out, canon):
    kind = spec["check"]
    if kind == "factor":
        if code != 0:
            return f"exit {code} although a factorization exists"
        pairs = []
        for line in out.splitlines():
            if line.startswith("("):
                q, r = line[1:-1].split(") * (")
                pairs.append((parse(q), parse(r)))
        return check_pairs(pairs, parse(spec["argv"][1]), spec)
    if kind == "iso":
        if code != 0:
            return f"exit {code} on isomorphic files"
        w = json.loads(out)
        return check_witness((w["u_map"], w["v_map"]), spec["g1"], spec["g2"])
    if code != 0:
        return f"exit {code}"
    if kind == "poly":
        got = parse(out)
    elif kind == "graph_doc":
        doc = json.loads(out)
        got = enc_graph(doc, doc["labels"])
    elif kind == "net_product":
        doc = json.loads(out)
        lab = {}
        for c in doc["conditions"]:
            name, side = c.rsplit("@", 1)
            lab[c] = spec["labels1" if side == "1" else "labels2"][name]
        got = enc_net(doc, lab)
    elif kind == "canon":
        got = parse(out)
        canon.setdefault(spec["pair"], got)
        if canon[spec["pair"]] != got:
            return "canonical forms of relabeled copies differ"
        return check_canonical(got, spec["graph"], spec["expect"])
    elif kind == "dot":
        lines = out.splitlines()
        nodes = sum("[shape=" in ln for ln in lines)
        arrows = sum(" -> " in ln for ln in lines)
        if (nodes, arrows) != (spec["nodes"], spec["arrows"]):
            return "DOT output has the wrong node or arrow count"
        return None
    else:
        raise ValueError(f"unknown check {kind!r}")
    if got != from_list(spec["expect"]):
        return "output encodes the wrong polynomial"
    return None
