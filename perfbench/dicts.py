"""Polynomials and encodings as plain dicts, shared by the generator and
the oracles.  A polynomial is {exponent: coefficient}; two-variable
exponents are (x, y) pairs.  Graph and net documents use the package's
JSON layout, and encodings follow the package's definitions.
"""

from __future__ import annotations


def pmul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2 if isinstance(e1, int) else (e1[0] + e2[0], e1[1] + e2[1])
            out[e] = out.get(e, 0) + c1 * c2
    return out


def padd(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return out


def _mono(e):
    if isinstance(e, int):
        return "" if e == 0 else ("x" if e == 1 else f"x^{e}")
    parts = [_mono(e[0])]
    if e[1]:
        parts.append("y" if e[1] == 1 else f"y^{e[1]}")
    return "*".join(p for p in parts if p)


def render(terms):
    out = []
    for e, c in sorted(terms.items(), reverse=True):
        m = _mono(e)
        out.append(str(c) if not m else (m if c == 1 else f"{c}*{m}"))
    return " + ".join(out) or "0"


def as_list(terms):
    """JSON form: [[exponent, coefficient], ...] in descending order."""
    return [[list(e) if isinstance(e, tuple) else e, c]
            for e, c in sorted(terms.items(), reverse=True)]


def pair_key(q, r):
    return tuple(sorted((tuple(sorted(q.items())), tuple(sorted(r.items())))))


def enc_graph(doc, labels):
    adj = {u: 0 for u in doc["u"]}
    for u, v in doc["edges"]:
        adj[u] |= 1 << labels[v]
    out = {}
    for e in adj.values():
        out[e] = out.get(e, 0) + 1
    return out


def enc_net(doc, labels):
    out = {(0, 0): 1}
    for ev in doc["events"]:
        e = (sum(1 << labels[b] for b in ev["pre"]),
             sum(1 << labels[b] for b in ev["post"]))
        out[e] = out.get(e, 0) + 1
    return out


def enc_digraph(doc, labels):
    packed = {u: [0, 0] for u in doc["u"]}
    for a in doc["edges"]:
        packed[a["u"]][a["dir"] == "u_to_v"] |= 1 << labels[a["v"]]
    out = {}
    for e in packed.values():
        out[tuple(e)] = out.get(tuple(e), 0) + 1
    return out
